#!/usr/bin/env python3
"""Build StrandWeaver's benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload grid --seed 1 --seconds 20 --trace 0

The Go build cache, temporary files, the binary and trace files all live
under the build directory ($CARGO_TARGET_DIR, or .bench_build), so the
benchmark reads and writes nothing outside the checkout but the Go
toolchain. Build output goes to standard error; the benchmark's last line
of standard output is its JSON result. Exits non-zero when the build
fails, for instance outside a full checkout.
"""

import os
import signal
import subprocess
import sys


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOTMPDIR=os.path.join(build, "tmp"),
        GOPATH=os.path.join(build, "gopath"),
        GOFLAGS="",
        GOWORK="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        CGO_ENABLED="0",
    )
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(build, "perfbench", "perfbench")
    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    code = call(["go", "build", "-o", binary, "."], cwd=here, env=env, stdout=sys.stderr)
    if code != 0:
        sys.exit(code)
    env["PERFBENCH_COMMIT"] = commit(root)
    sys.exit(call([binary] + sys.argv[1:], env=env))


# The running child process, and the signal that asked this script to stop.
child = None
stopped = []


def stop(signum, _frame):
    """Stop the running child; call() reaps it and exits with 128+signum.

    Waiting here would deadlock on the lock of the wait it interrupted.
    """
    stopped.append(signum)
    if child is not None:
        child.terminate()


def call(argv, **kwargs):
    """Run argv to completion and return its exit code."""
    global child
    if stopped:
        return 128 + stopped[0]
    child = subprocess.Popen(argv, **kwargs)
    if stopped:  # the signal came before child was set
        child.terminate()
    code = child.wait()
    child = None
    return 128 + stopped[0] if stopped else code


def commit(root):
    """The checkout's git commit, or "unknown" outside a git work tree."""
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown"
    out = subprocess.run(
        ["git", "-C", root, "rev-parse", "HEAD"],
        capture_output=True,
        text=True,
    )
    return out.stdout.strip() if out.returncode == 0 else "unknown"


if __name__ == "__main__":
    main()
