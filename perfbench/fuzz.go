package main

import (
	"fmt"
	"os"

	"strandweaver/internal/fuzzsched"
	"strandweaver/internal/sweep"
)

// The fuzz workload is fuzzsched.Run: a coverage-guided search over
// crash schedules of the undo- and redo-log recovery paths. A unit is
// one executed schedule. Many short, distinct runs churn the execution
// cache, so this workload exercises the snapshot layer differently from
// torture's few long, often-forked prefixes, and the Go runtime does
// much of the work. Iteration 0 is seed 7 (BENCH_cow.json's fuzz seed)
// with a pinned corpus digest; later iterations use seeds derived from
// the run seed.

const (
	canonicalFuzzSeed = 7
	// fuzzSchedules is each call's schedule budget.
	fuzzSchedules = 2048
	// fuzzCacheBytes budgets each call's execution cache below the
	// 256 MiB default: the cache reaches its budget and evicts within a
	// call, and the process stays small on a shared host. Results are
	// identical at any budget.
	fuzzCacheBytes = 64 << 20
	// canonicalFuzzDigest is `strandweaver fuzz -seed 7 -schedules 2048
	// -json`'s corpus_digest.
	canonicalFuzzDigest = 0xc6e11ff9df379502
)

type fuzz struct {
	o      options
	setups []float64

	digests map[int]uint64
	// first is iteration 0's result, the source of the deterministic
	// per-layer counters.
	first *fuzzsched.Result
	// execMS collects every traced schedule's wall time.
	execMS []float64
}

func newFuzz(o options) (workload, error) {
	f := &fuzz{o: o, digests: map[int]uint64{}}
	f.setups = timeSetup(func() { _ = f.options(0) })
	return f, nil
}

// options builds iteration i's search: the run's inputs.
func (f *fuzz) options(i int) fuzzsched.Options {
	o := fuzzsched.Options{
		Seed: canonicalFuzzSeed, Schedules: fuzzSchedules, Parallel: 1,
		CacheBytes: fuzzCacheBytes, Metrics: sweep.NewReport("fuzz"),
	}
	if i > 0 {
		o.Seed = subSeed(f.o.seed, i)
	}
	if f.o.tiny {
		o.Schedules = 32
	}
	return o
}

func (f *fuzz) setupSamples() []float64 { return f.setups }

func (f *fuzz) iterate(i int, tr *tracer) (units, failed int) {
	o := f.options(i)
	sp := tr.begin("fuzzsched.Run", 0, i)
	res, err := fuzzsched.Run(o)
	tr.end(sp)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: fuzz seed %d: %v\n", o.Seed, err)
		return o.Schedules, o.Schedules
	}
	units = res.Executed
	for _, v := range res.Violations {
		fmt.Fprintf(os.Stderr, "perfbench: fuzz seed %d schedule %d: %s\n", o.Seed, v.Schedule, v.Failure)
	}
	for _, e := range res.ExecErrors {
		fmt.Fprintf(os.Stderr, "perfbench: fuzz seed %d: %s\n", o.Seed, e)
	}
	failed = min(len(res.Violations)+len(res.ExecErrors), units)
	if units < o.Schedules {
		failed += o.Schedules - units
		units = o.Schedules
	}
	digest := res.Corpus.Digest()
	if prev, seen := f.digests[i]; seen && prev != digest {
		fmt.Fprintf(os.Stderr, "perfbench: fuzz seed %d corpus digest %016x did not repeat %016x\n", o.Seed, digest, prev)
		failed = units
	}
	f.digests[i] = digest
	if i == 0 && !f.o.tiny && digest != canonicalFuzzDigest {
		fmt.Fprintf(os.Stderr, "perfbench: fuzz seed 7 corpus digest %016x, want %016x\n", digest, uint64(canonicalFuzzDigest))
		failed = units
	}
	if i == 0 && f.first == nil {
		f.first = res
	}
	if tr != nil {
		for _, c := range o.Metrics.Cells {
			f.execMS = append(f.execMS, float64(c.WallNS)/1e6)
		}
	}
	return units, failed
}

func (f *fuzz) layers(m metricSet) {
	m["fuzzsched.exec_p50_ms"] = quantile(f.execMS, 0.5)
	m["fuzzsched.exec_p90_ms"] = quantile(f.execMS, 0.9)
	if f.first == nil {
		return
	}
	r := f.first
	if r.SnapshotHits+r.SnapshotMisses > 0 {
		m["fuzzsched.cache_hit_ratio"] = float64(r.SnapshotHits) / float64(r.SnapshotHits+r.SnapshotMisses)
	}
	m["fuzzsched.cache_mb"] = float64(r.SnapshotBytes) / (1 << 20)
	m["fuzzsched.corpus"] = float64(r.Corpus.Len())
}
