package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"runtime/pprof"
	"sort"
	"strings"
	"testing"
	"time"

	"strandweaver/internal/harness"
)

// benchmarkJSON is the part of ../BENCHMARK.json the tests check.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	b := loadBenchmarkJSON(t)
	var e2e, layers []metricDef
	for _, m := range b.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range b.PerLayer {
		layers = append(layers, metricDef{m.Name, m.Unit})
	}
	if !equalDefs(e2e, endToEnd) {
		t.Errorf("end_to_end = %v, catalogue = %v", e2e, endToEnd)
	}
	if !equalDefs(layers, perLayer) {
		t.Errorf("per_layer = %v, catalogue = %v", layers, perLayer)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads = %s, benchmark runs %s", got, want)
	}
}

func equalDefs(a, b []metricDef) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// tinyRun runs one workload for one iteration (one pair when traced) at
// the tests' scale.
func tinyRun(t *testing.T, workload string, trace bool) *result {
	t.Helper()
	res, err := measure(options{workload: workload, seed: 3, seconds: 1e-9, trace: trace,
		outDir: t.TempDir(), tiny: true})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%s: correct %v, %d of %d units failed", workload, res.Correct, res.Failed, res.Attempted)
	}
	return res
}

// TestWorkloadsAtTinyScale runs every workload in both modes and checks
// that each printed name is a BENCHMARK.json metric of the right kind.
func TestWorkloadsAtTinyScale(t *testing.T) {
	b := loadBenchmarkJSON(t)
	units := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range b.EndToEnd {
		units[false][m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		units[true][m.Name] = m.Unit
	}
	for _, w := range workloadNames() {
		for _, trace := range []bool{false, true} {
			res := tinyRun(t, w, trace)
			if len(res.Metrics) != len(units[trace]) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json lists %d", w, trace, len(res.Metrics), len(units[trace]))
			}
			for name, v := range res.Metrics {
				if !metricName.MatchString(name) {
					t.Errorf("%s: metric name %q", w, name)
				}
				if unit, ok := units[trace][name]; !ok || unit != v.Unit {
					t.Errorf("%s trace=%v: metric %q unit %q not in BENCHMARK.json (unit %q)", w, trace, name, v.Unit, unit)
				}
			}
			if !trace && res.Metrics["units_per_s"].Value <= 0 {
				t.Errorf("%s: units_per_s = %v", w, res.Metrics["units_per_s"].Value)
			}
		}
	}
}

// deterministicPrefixes are the per-layer counters that must repeat
// exactly between runs of one seed.
var deterministicPrefixes = []string{"sim.events_fired", "sim.coroutine_switches", "sim.fast_path_frac",
	"cpu.", "cache.", "strand.", "pmem.", "mem.", "faultinject.", "recovery.",
	"pmo.persist_sets", "relax.steps", "grid.speedup_err_pct",
	"harness.checkpoint_hit_ratio", "fuzzsched.cache_hit_ratio", "fuzzsched.cache_mb", "fuzzsched.corpus"}

func TestDeterministicCountersRepeat(t *testing.T) {
	for _, w := range workloadNames() {
		a, b := tinyRun(t, w, true), tinyRun(t, w, true)
		nonzero := 0
		for name, v := range a.Metrics {
			for _, p := range deterministicPrefixes {
				if strings.HasPrefix(name, p) {
					if v.Value != b.Metrics[name].Value {
						t.Errorf("%s: %s = %v then %v", w, name, v.Value, b.Metrics[name].Value)
					}
					if v.Value != 0 {
						nonzero++
					}
				}
			}
		}
		if nonzero == 0 {
			t.Errorf("%s: reports no deterministic counter", w)
		}
	}
}

// TestGridCellMatchesHarnessRun keeps the grid's opened-up cell body in
// step with harness.Run.
func TestGridCellMatchesHarnessRun(t *testing.T) {
	w, err := newGrid(options{seed: 5, tiny: true})
	if err != nil {
		t.Fatal(err)
	}
	g := w.(*grid)
	for _, c := range []gridCell{g.cells[0], g.cells[len(g.cells)-1]} {
		out, _, err := g.runCell(c, nil, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		want, err := harness.Run(harness.Spec{Benchmark: c.bench, Model: c.model, Design: c.design,
			Threads: g.threads, OpsPerThread: g.ops, Seed: g.seed, CycleLimit: gridCycleLimit})
		if err != nil {
			t.Fatal(err)
		}
		if out.Cycles != want.Cycles || out.Core != want.CoreTotals || out.Engine != want.Engine ||
			out.Controller.PMWritesAccepted != want.Controller.PMWritesAccepted {
			t.Errorf("%s: benchmark cell %+v differs from harness.Run %+v", out.Key, out, want)
		}
	}
}

func TestFoldByPackageChargesLeafPackage(t *testing.T) {
	for fn, want := range map[string]string{
		"strandweaver/internal/sim.(*Engine).loop":     "sim",
		"strandweaver/internal/mem.(*Image).Read64":    "mem",
		"strandweaver/internal/cache/sub.helper":       "cache",
		"runtime.mallocgc":                             "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall": "runtime",
		"sync.(*Mutex).Lock":                           "other",
	} {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
	frac := foldByPackage([]leafSample{{"runtime.futex", 30}, {"strandweaver/internal/sim.heapPop", 10}})
	if frac["runtime"] != 0.75 || frac["sim"] != 0.25 || frac["cpu"] != 0 {
		t.Errorf("foldByPackage = %v", frac)
	}
}

// TestDecodeProfile decodes a real CPU profile of a busy loop.
func TestDecodeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiling unavailable: %v", err)
	}
	x := uint64(1)
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		x = splitmix64(x)
	}
	pprof.StopCPUProfile()
	samples, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	named := 0
	for _, s := range samples {
		total += s.nanos
		if s.function != "" {
			named++
		}
	}
	if len(samples) == 0 || total <= 0 || named != len(samples) {
		t.Fatalf("%d samples, %d named, %d ns (x=%d)", len(samples), named, total, x)
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nosuch"},
		{"--workload", "grid", "--trace", "2"},
		{"--workload", "grid", "--seconds", "0"},
		{"--bogus"},
	} {
		var out, errs bytes.Buffer
		if code := run(args, &out, &errs); code != 2 || out.Len() != 0 {
			t.Errorf("run(%q) = %d, stdout %q", args, code, out.String())
		}
	}
}
