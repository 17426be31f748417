// Command perfbench is StrandWeaver's benchmark. One invocation runs one
// named workload in one process for a fixed wall-clock budget, checks
// the workload's correctness gates on every unit of work, and prints one
// JSON result line as the last line of standard output:
//
//	go run . --workload grid --seed 1 --seconds 25 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured
// with tracing off. With --trace 1 it carries the per-layer metrics: the
// run executes every iteration twice, once untraced and once with spans,
// layer counters and a CPU profile on, and reports the rate difference
// as the tracing overhead.
// README.md explains the workloads, the metrics and which layer metric
// should move which end-to-end metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// maxProcs caps GOMAXPROCS so that a run on a many-core host measures
// the same one-sweep-worker process as on a 2-CPU host: the simulation
// on one processor and the garbage collector's workers on the other.
// At GOMAXPROCS 1 the collector fell behind the oracle's allocation
// rate and its peak memory varied by 45% from run to run.
const maxProcs = 2

// metricDef names one reported metric and its unit. The catalogues below
// must match BENCHMARK.json (TestCatalogueMatchesBenchmarkJSON).
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"units_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// hostPackages are the packages whose share of the traced run's CPU
// profile is reported as host.<pkg>_frac.
var hostPackages = []string{"sim", "runtime", "cpu", "cache", "strand", "pmem", "mem",
	"harness", "fuzzsched", "undolog", "pmo", "relax"}

var perLayer = func() []metricDef {
	defs := []metricDef{
		{"machine.new_s", "s"},
		{"workloads.setup_s", "s"},
		{"machine.run_s", "s"},
		{"sim.events_fired", "count"},
		{"sim.coroutine_switches", "count"},
		{"sim.fast_path_frac", "ratio"},
		{"sim.ns_per_event", "ns"},
		{"runtime.gc_cycles", "count"},
		{"runtime.gc_cpu_frac", "ratio"},
		{"runtime.alloc_mb", "MB"},
		{"runtime.allocs_per_event", "count"},
		{"cpu.insts", "count"},
		{"cpu.fence_stall_cycles", "cycles"},
		{"cpu.queue_full_stall_cycles", "cycles"},
		{"cache.l1_miss_ratio", "ratio"},
		{"cache.flushes", "count"},
		{"strand.pq_max_occupancy", "entries"},
		{"pmem.write_queue_full", "count"},
		{"pmem.pending_stall_cycles", "cycles"},
		{"grid.speedup_err_pct", "%"},
		{"sweep.cell_p50_ms", "ms"},
		{"sweep.cell_p90_ms", "ms"},
		{"harness.checkpoint_hit_ratio", "ratio"},
		{"mem.cow_faults", "count"},
		{"mem.restore_diverged", "count"},
		{"mem.checkpoint_mb", "MB"},
		{"faultinject.convergence_budgets", "count"},
		{"faultinject.torn_images", "count"},
		{"recovery.actions", "count"},
		{"fuzzsched.cache_hit_ratio", "ratio"},
		{"fuzzsched.cache_mb", "MB"},
		{"fuzzsched.corpus", "count"},
		{"fuzzsched.exec_p50_ms", "ms"},
		{"fuzzsched.exec_p90_ms", "ms"},
		{"pmo.allowed_sets_s", "s"},
		{"pmo.persist_sets", "count"},
		{"persistcheck.analyze_s", "s"},
		{"relax.optimize_s", "s"},
		{"relax.steps", "count"},
		{"litmus.check_s", "s"},
		{"trace.units_per_s", "1/s"},
		{"trace.untraced_units_per_s", "1/s"},
		{"trace.overhead_pct", "%"},
	}
	for _, p := range hostPackages {
		defs = append(defs, metricDef{"host." + p + "_frac", "ratio"})
	}
	return defs
}()

// metricSet maps metric names to values. Units come from the catalogues.
// Keys outside them (events_traced, runtime.allocs) carry intermediates
// from a workload or the runtime counters to the driver; fill drops them.
type metricSet map[string]float64

// workload is one benchmark workload. Iteration i's inputs are a pure
// function of the seed and i, so replaying an index replays its inputs.
type workload interface {
	// iterate runs iteration i and returns the units of work it
	// attempted and how many of them failed a correctness gate. tr is
	// nil when tracing is off.
	iterate(i int, tr *tracer) (units, failed int)
	// setupSamples returns the host seconds of each measured set-up.
	setupSamples() []float64
	// layers reports the workload's per-layer metrics into m, from the
	// iterations run with a tracer.
	layers(m metricSet)
}

// options is one invocation's configuration.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	outDir   string
	// tiny shrinks every workload to a few units (tests only).
	tiny bool
}

var workloadCtors = map[string]func(o options) (workload, error){
	"grid":    newGrid,
	"torture": newTorture,
	"fuzz":    newFuzz,
	"oracle":  newOracle,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloadCtors))
	for n := range workloadCtors {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", fmt.Sprintf("workload to run %v", workloadNames()))
	fs.Uint64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.Float64Var(&o.seconds, "seconds", 10, "wall-clock seconds the timed loop runs")
	fs.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloadCtors[o.workload]; !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (one of %v)\n", o.workload, workloadNames())
		return 2
	}
	if o.seconds <= 0 || traceFlag < 0 || traceFlag > 1 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	o.trace = traceFlag == 1
	o.outDir = defaultOutDir()
	runtime.GOMAXPROCS(min(runtime.NumCPU(), maxProcs))

	res, err := measure(o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	host, _ := json.Marshal(hostInfo(o))
	fmt.Fprintf(stdout, "{\"host\": %s}\n", host)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// defaultOutDir puts trace files in the build directory the wrapper
// script uses, which .gitignore excludes.
func defaultOutDir() string {
	dir := os.Getenv("CARGO_TARGET_DIR")
	if dir == "" {
		dir = ".bench_build"
	}
	return filepath.Join(dir, "perfbench")
}

// measure runs the workload and assembles the result line.
func measure(o options) (*result, error) {
	w, err := workloadCtors[o.workload](o)
	if err != nil {
		return nil, err
	}
	budget := time.Duration(o.seconds * float64(time.Second))
	res := &result{Metrics: map[string]metricValue{}}
	m := metricSet{}
	if !o.trace {
		lp := loop(w, budget)
		res.Attempted, res.Failed = lp.units, lp.failed
		m["setup_s"] = median(w.setupSamples())
		m["units_per_s"] = lp.rate()
		m["peak_rss_mb"] = peakRSSMB()
		fill(res, m, endToEnd)
	} else {
		tr := newTracer()
		plain, traced, err := tracedPairs(w, budget, tr, m)
		if err != nil {
			return nil, err
		}
		m["trace.untraced_units_per_s"] = plain.rate()
		m["trace.units_per_s"] = traced.rate()
		m["trace.overhead_pct"] = 100 * (1 - traced.rate()/plain.rate())
		res.Attempted = plain.units + traced.units
		res.Failed = plain.failed + traced.failed
		fill(res, m, perLayer)
		path := filepath.Join(o.outDir, fmt.Sprintf("trace-%s-seed%d.json", o.workload, o.seed))
		if err := tr.write(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(tr.spans), path)
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res, nil
}

// fill copies the catalogue's metrics into the result; a metric the
// workload does not own reads 0.
func fill(res *result, m metricSet, defs []metricDef) {
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: m[d.name], Unit: d.unit}
	}
}

// loopStats is one closed loop's outcome.
type loopStats struct {
	units, failed int
	// rates holds each iteration's units per wall second.
	rates []float64
}

// add times one iteration.
func (l *loopStats) add(w workload, i int, tr *tracer) {
	t0 := time.Now()
	u, f := w.iterate(i, tr)
	d := time.Since(t0)
	l.units += u
	l.failed += f
	l.rates = append(l.rates, float64(u)/d.Seconds())
	fmt.Fprintf(os.Stderr, "perfbench: iteration %d (traced %v): %d units, %d failed, %.3f s\n", i, tr != nil, u, f, d.Seconds())
}

// rate is the interquartile mean of the iterations' units per wall
// second: the mean of the middle half, which ignores the iterations that
// another process on the host slowed down (or that drew an unusually
// cheap seed) while averaging the rest.
func (l loopStats) rate() float64 {
	s := append([]float64(nil), l.rates...)
	sort.Float64s(s)
	s = s[len(s)/4 : len(s)-len(s)/4]
	sum := 0.0
	for _, r := range s {
		sum += r
	}
	return sum / float64(len(s))
}

// loop runs untraced iterations back to back (a closed loop: the next
// starts when the previous one ends) until budget has passed. At least
// one iteration always runs, and the last one runs to its end.
func loop(w workload, budget time.Duration) loopStats {
	var ls loopStats
	for start, i := time.Now(), 0; i == 0 || time.Since(start) < budget; i++ {
		ls.add(w, i, nil)
	}
	return ls
}

// tracedPairs runs each iteration twice, untraced and traced, until
// budget has passed, alternating which of the two goes first so that
// warm-up and order effects fall on both alike. Equal inputs make the
// rate difference the cost of tracing. The CPU profile and the runtime
// counters cover the traced runs only.
func tracedPairs(w workload, budget time.Duration, tr *tracer, m metricSet) (plain, traced loopStats, err error) {
	var samples []leafSample
	rc := &runtimeCounters{}
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < budget; i++ {
		for k := 0; k < 2; k++ {
			if (i+k)%2 == 0 {
				plain.add(w, i, nil)
				continue
			}
			prof, err := startProfile()
			if err != nil {
				return plain, traced, err
			}
			rc.begin()
			traced.add(w, i, tr)
			rc.end()
			s, err := prof.stop()
			if err != nil {
				return plain, traced, err
			}
			samples = append(samples, s...)
		}
	}
	rc.report(m)
	w.layers(m)
	for pkg, frac := range foldByPackage(samples) {
		m["host."+pkg+"_frac"] = frac
	}
	if ev := m["events_traced"]; ev > 0 {
		m["runtime.allocs_per_event"] = m["runtime.allocs"] / ev
	}
	return plain, traced, nil
}

// timeSetup times a set-up step and returns samples of its host
// seconds. Each sample times a batch of repetitions long enough (at
// least 2 ms) that the clock's own cost and resolution do not
// show, divided by the batch size.
func timeSetup(step func()) []float64 {
	reps := 1
	for {
		t0 := time.Now()
		for k := 0; k < reps; k++ {
			step()
		}
		if time.Since(t0) >= 2*time.Millisecond {
			break
		}
		reps *= 2
	}
	out := make([]float64, 21)
	for i := range out {
		t0 := time.Now()
		for k := 0; k < reps; k++ {
			step()
		}
		out[i] = time.Since(t0).Seconds() / float64(reps)
	}
	return out
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// host describes where a result was measured. Wall times are only
// comparable between results with equal host fields.
type host struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	NProc      int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
}

func hostInfo(o options) host {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return host{
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commit,
	}
}

// splitmix64 derives well-mixed sub-seeds from the run seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// subSeed is iteration i's input seed under run seed seed.
func subSeed(seed uint64, i int) uint64 {
	return splitmix64(seed*0x100000001b3 + uint64(i))
}
