package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"time"

	"strandweaver/internal/cache"
	"strandweaver/internal/config"
	"strandweaver/internal/cpu"
	"strandweaver/internal/hwdesign"
	"strandweaver/internal/langmodel"
	"strandweaver/internal/machine"
	"strandweaver/internal/pmem"
	"strandweaver/internal/sim"
	"strandweaver/internal/workloads"
)

// The grid workload is the Figure 7/8 evaluation grid: every Table II
// benchmark x language model x hardware design, at 8 simulated threads
// and a reduced operation count. One iteration is one pass over the
// grid; a unit is one cell. Every pass replays the same seed, so the
// passes must agree bit for bit (the results digest). The cell body is
// harness.Run's, opened up so that set-up (machine.New, langmodel.New,
// the workload's Setup) and simulation (System.Run) are timed apart;
// TestGridCellMatchesHarnessRun keeps the two in step.

// paperSpeedup is the paper's StrandWeaver-over-Intel geomean (Fig 7).
const paperSpeedup = 1.45

const gridCycleLimit = 2_000_000_000

type gridCell struct {
	bench  string
	model  langmodel.Model
	design hwdesign.Design
}

// cellOutcome is one simulated cell's deterministic results.
type cellOutcome struct {
	Key        string
	Cycles     uint64
	Core       cpu.Stats
	Controller pmem.Stats
	Cache      cache.HierStats
	Engine     sim.Stats
	PQMaxOcc   uint64
}

type grid struct {
	threads, ops int
	seed         int64
	cells        []gridCell
	setups       []float64

	// first is pass 0's outcomes; later passes must reproduce its digest.
	first       []cellOutcome
	firstDigest uint64
	// Host time of the traced passes, by phase.
	tracedPasses         int
	newS, wlSetupS, runS float64
	tracedEvents         uint64
}

func newGrid(o options) (workload, error) {
	// The grid seed is the run seed itself, so --seed 1 is the grid of
	// `strandweaver experiments -threads 8 -ops 40 -seed 1`.
	g := &grid{threads: 8, ops: 40, seed: int64(o.seed &^ (1 << 63))}
	if g.seed == 0 {
		g.seed = 1
	}
	benchmarks := workloads.Names()
	if o.tiny {
		g.threads, g.ops = 2, 5
		benchmarks = benchmarks[:2]
	}
	for _, b := range benchmarks {
		for _, m := range langmodel.All {
			for _, d := range hwdesign.All {
				g.cells = append(g.cells, gridCell{b, m, d})
			}
		}
	}
	return g, nil
}

func (g *grid) setupSamples() []float64 { return g.setups }

// cellTimes is one cell's host time by phase.
type cellTimes struct{ newS, wlSetupS, runS float64 }

// runCell simulates one cell: harness.Run's body with its phases timed.
func (g *grid) runCell(c gridCell, tr *tracer, parent, unit int) (*cellOutcome, cellTimes, error) {
	var ct cellTimes
	cfg := config.Default()
	if cfg.Cores < g.threads {
		cfg.Cores = g.threads
	}
	t0 := time.Now()
	sp := tr.begin("machine.New", parent, unit)
	sys, err := machine.New(cfg, c.design)
	tr.end(sp)
	if err != nil {
		return nil, ct, err
	}
	t1 := time.Now()
	sp = tr.begin("workloads.Setup", parent, unit)
	rt := langmodel.New(sys, c.model, g.threads, langmodel.DefaultOptions())
	f, err := workloads.Find(c.bench)
	if err != nil {
		tr.end(sp)
		return nil, ct, err
	}
	inst := f.New(workloads.Params{Threads: g.threads, OpsPerThread: g.ops, Seed: g.seed})
	inst.Setup(sys, rt)
	tr.end(sp)
	t2 := time.Now()
	ws := make([]machine.Worker, g.threads)
	for i := range ws {
		ws[i] = inst.Worker(i)
	}
	sp = tr.begin("machine.Run", parent, unit)
	end, err := sys.Run(ws, gridCycleLimit)
	tr.end(sp)
	t3 := time.Now()
	ct = cellTimes{t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds(), t3.Sub(t2).Seconds()}
	if err != nil {
		return nil, ct, err
	}
	out := &cellOutcome{
		Key:        fmt.Sprintf("%s/%s/%s", c.bench, c.model, c.design),
		Cycles:     uint64(end),
		Core:       sys.TotalStats(),
		Controller: sys.PM.Stats(),
		Cache:      sys.Hier.Stats(),
		Engine:     sys.Eng.Stats(),
	}
	for _, core := range sys.Cores {
		for _, st := range core.BackendStats() {
			if st.Name == "pq_max_occupancy" && st.Value > out.PQMaxOcc {
				out.PQMaxOcc = st.Value
			}
		}
	}
	return out, ct, nil
}

func (g *grid) iterate(i int, tr *tracer) (units, failed int) {
	pass := tr.begin("grid.pass", 0, -1)
	defer tr.end(pass)
	outs := make([]cellOutcome, 0, len(g.cells))
	var setup float64
	for ci, c := range g.cells {
		unit := i*len(g.cells) + ci
		cs := tr.begin("harness.cell", pass, unit)
		out, ct, err := g.runCell(c, tr, cs, unit)
		tr.end(cs)
		setup += ct.newS + ct.wlSetupS
		if tr != nil {
			g.newS += ct.newS
			g.wlSetupS += ct.wlSetupS
			g.runS += ct.runS
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: grid cell %s/%s/%s: %v\n", c.bench, c.model, c.design, err)
			continue
		}
		if tr != nil {
			g.tracedEvents += out.Engine.EventsFired
		}
		outs = append(outs, *out)
	}
	g.setups = append(g.setups, setup)
	if tr != nil {
		g.tracedPasses++
	}
	units = len(g.cells)
	failed = units - len(outs)
	if failed > 0 {
		return units, failed
	}
	// Gates over the whole pass: a broken ordering or a digest that does
	// not repeat fails every cell of the pass.
	digest := digestOf(outs)
	if g.first == nil {
		g.first, g.firstDigest = outs, digest
	}
	if digest != g.firstDigest {
		fmt.Fprintf(os.Stderr, "perfbench: grid pass %d digest %016x != pass 0 digest %016x\n", i, digest, g.firstDigest)
		return units, units
	}
	if err := checkOrdering(g.cells, outs); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: grid pass %d: %v\n", i, err)
		return units, units
	}
	return units, 0
}

// digestOf folds every cell's deterministic results in grid order.
func digestOf(outs []cellOutcome) uint64 {
	h := fnv.New64a()
	enc := json.NewEncoder(h)
	for i := range outs {
		_ = enc.Encode(&outs[i]) // writes to a hash cannot fail
	}
	return h.Sum64()
}

// geoSpeedups returns each design's geomean speedup over Intel x86
// across the pass (cells are grouped by benchmark and model, designs in
// hwdesign.All order).
func geoSpeedups(cells []gridCell, outs []cellOutcome) map[hwdesign.Design]float64 {
	logSum := map[hwdesign.Design]float64{}
	n := map[hwdesign.Design]int{}
	nd := len(hwdesign.All)
	for row := 0; row+nd <= len(outs); row += nd {
		var intel uint64
		for j := 0; j < nd; j++ {
			if cells[row+j].design == hwdesign.IntelX86 {
				intel = outs[row+j].Cycles
			}
		}
		for j := 0; j < nd; j++ {
			if c := outs[row+j].Cycles; c > 0 && intel > 0 {
				logSum[cells[row+j].design] += math.Log(float64(intel) / float64(c))
				n[cells[row+j].design]++
			}
		}
	}
	geo := map[hwdesign.Design]float64{}
	for d, s := range logSum {
		geo[d] = math.Exp(s / float64(n[d]))
	}
	return geo
}

// checkOrdering is the paper's design ordering on geomean speedup:
// Intel x86 < NoPQ < StrandWeaver <= NonAtomic.
func checkOrdering(cells []gridCell, outs []cellOutcome) error {
	geo := geoSpeedups(cells, outs)
	intel, nopq := geo[hwdesign.IntelX86], geo[hwdesign.NoPersistQueue]
	sw, na := geo[hwdesign.StrandWeaver], geo[hwdesign.NonAtomic]
	if !(intel < nopq && nopq < sw && sw <= na) {
		return fmt.Errorf("design ordering broken: intel %.4f, nopq %.4f, strandweaver %.4f, non-atomic %.4f", intel, nopq, sw, na)
	}
	return nil
}

func (g *grid) layers(m metricSet) {
	if g.tracedPasses > 0 {
		p := float64(g.tracedPasses)
		m["machine.new_s"] = g.newS / p
		m["workloads.setup_s"] = g.wlSetupS / p
		m["machine.run_s"] = g.runS / p
	}
	if g.tracedEvents > 0 {
		m["sim.ns_per_event"] = g.runS * 1e9 / float64(g.tracedEvents)
		m["events_traced"] = float64(g.tracedEvents)
	}
	if g.first == nil {
		return
	}
	// Simulated counters are pass 0's: deterministic for a seed.
	var eng sim.Stats
	var core cpu.Stats
	var ctrl pmem.Stats
	var hits, misses, flushes, pqMax uint64
	for _, o := range g.first {
		eng.EventsFired += o.Engine.EventsFired
		eng.EventsScheduled += o.Engine.EventsScheduled
		eng.FastPathHits += o.Engine.FastPathHits
		eng.CoroutineSwitches += o.Engine.CoroutineSwitches
		core.Add(o.Core)
		ctrl.Add(o.Controller)
		hits += o.Cache.L1Hits
		misses += o.Cache.L1Misses
		flushes += o.Cache.Flushes
		pqMax = max(pqMax, o.PQMaxOcc)
	}
	m["sim.events_fired"] = float64(eng.EventsFired)
	m["sim.coroutine_switches"] = float64(eng.CoroutineSwitches)
	if eng.EventsScheduled > 0 {
		m["sim.fast_path_frac"] = float64(eng.FastPathHits) / float64(eng.EventsScheduled)
	}
	m["cpu.insts"] = float64(core.Loads + core.Stores + core.CLWBs + core.RMWs + core.Fences)
	m["cpu.fence_stall_cycles"] = float64(core.StallFenceCycles)
	m["cpu.queue_full_stall_cycles"] = float64(core.StallQueueFullCycles)
	if hits+misses > 0 {
		m["cache.l1_miss_ratio"] = float64(misses) / float64(hits+misses)
	}
	m["cache.flushes"] = float64(flushes)
	m["strand.pq_max_occupancy"] = float64(pqMax)
	m["pmem.write_queue_full"] = float64(ctrl.WriteQueueFullEvents)
	m["pmem.pending_stall_cycles"] = float64(ctrl.PendingStallCycles)
	sw := geoSpeedups(g.cells, g.first)[hwdesign.StrandWeaver]
	m["grid.speedup_err_pct"] = math.Abs(sw-paperSpeedup) / paperSpeedup * 100
}
