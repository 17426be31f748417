package main

import (
	"fmt"
	"math/rand"
	"os"

	"strandweaver/internal/backend"
	"strandweaver/internal/hwdesign"
	"strandweaver/internal/litmus"
	"strandweaver/internal/persistcheck"
	"strandweaver/internal/pmo"
	"strandweaver/internal/redolog"
	"strandweaver/internal/relax"
	"strandweaver/internal/undolog"
)

// The oracle workload runs the formal side of the repo with almost no
// simulation: the exact crash-cut enumeration (pmo), the static
// persist-order analyzer (persistcheck) and the auto-relaxation search
// (relax), plus the litmus cross-check of simulated crash states against
// the model. A unit is one program checked. Each iteration checks the
// standard litmus programs, the undo and redo recipes of every design,
// and a batch of random programs drawn from the iteration's seed in the
// shape of relax's property test. The litmus cross-check simulates the
// same programs every time, so only iteration 0 runs it: repeated, it
// would add a fixed block of simulation, and the garbage it leaves makes
// the process's peak memory wander from run to run.

const (
	// oraclePrograms is the number of random programs per iteration.
	oraclePrograms = 160
	// litmusStride is litmus.Check's crash-point spacing in cycles.
	litmusStride = 64
	// recipePairs is the transaction size the recipe streams are
	// rendered at (the lint and relax commands' size).
	recipePairs = 2
)

// recipe is one design's logging recipe stream.
type recipe struct {
	design hwdesign.Design
	stream persistcheck.Stream
}

// oracleInputs is one iteration's programs.
type oracleInputs struct {
	litmusNames []string
	litmus      map[string]pmo.Program
	recipes     []recipe
	random      []pmo.Program
	// rng draws each random program's declared requirements.
	rng *rand.Rand
}

type oracle struct {
	o      options
	setups []float64

	tr          *tracer
	tracedIters int
	// litmusRuns counts traced iterations that ran the litmus check.
	litmusRuns int
	// Iteration 0's deterministic counts, taken on its first run.
	counting, counted  bool
	persistSets, steps int
}

func newOracle(o options) (workload, error) {
	w := &oracle{o: o}
	if _, err := w.inputs(0); err != nil {
		return nil, err
	}
	w.setups = timeSetup(func() { _, _ = w.inputs(0) })
	return w, nil
}

func (w *oracle) setupSamples() []float64 { return w.setups }

// inputs generates iteration i's programs.
func (w *oracle) inputs(i int) (*oracleInputs, error) {
	in := &oracleInputs{
		litmusNames: litmus.StandardProgramNames(),
		litmus:      litmus.StandardPrograms(),
		rng:         rand.New(rand.NewSource(int64(subSeed(w.o.seed, i)))),
	}
	for _, d := range hwdesign.All {
		plan, err := backend.PlanFor(d)
		if err != nil {
			return nil, err
		}
		in.recipes = append(in.recipes,
			recipe{d, undolog.AnalysisStream(d, plan, recipePairs)},
			recipe{d, redolog.AnalysisStream(d, plan, recipePairs)})
	}
	n := oraclePrograms
	if w.o.tiny {
		n = 4
		in.litmusNames = in.litmusNames[:2]
		in.recipes = in.recipes[:2]
	}
	for k := 0; k < n; k++ {
		in.random = append(in.random, randomProgram(in.rng))
	}
	return in, nil
}

// randomProgram draws 1-2 threads of at most 9 ops in total over 3
// locations, with globally unique store values so persist sets identify
// stores unambiguously; the size keeps exact enumeration cheap.
func randomProgram(r *rand.Rand) pmo.Program {
	threads := 1 + r.Intn(2)
	p := make(pmo.Program, threads)
	val, total := uint64(1), 0
	for t := 0; t < threads; t++ {
		n := min(2+r.Intn(4), 9-total)
		total += n
		for k := 0; k < n; k++ {
			loc := r.Intn(3)
			switch r.Intn(6) {
			case 0:
				p[t] = append(p[t], pmo.Ld(loc))
			case 1:
				p[t] = append(p[t], pmo.PB())
			case 2:
				p[t] = append(p[t], pmo.NS())
			case 3:
				p[t] = append(p[t], pmo.JS())
			default:
				p[t] = append(p[t], pmo.St(loc, val))
				val++
			}
		}
	}
	return p
}

func (w *oracle) iterate(i int, tr *tracer) (units, failed int) {
	in, err := w.inputs(i)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: oracle inputs: %v\n", err)
		return 1, 1
	}
	if tr != nil {
		w.tr = tr
		w.tracedIters++
		if i == 0 {
			w.litmusRuns++
		}
	}
	w.counting = i == 0 && !w.counted
	defer func() {
		if w.counting {
			w.counted, w.counting = true, false
		}
	}()
	unit := 0
	check := func(name string, err error) {
		units++
		unit++
		if err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "perfbench: oracle iteration %d %s: %v\n", i, name, err)
		}
	}
	base := i * 1000000
	for _, name := range in.litmusNames {
		p := in.litmus[name]
		u := base + unit
		err := w.checkProgram(name, p, in.rng, tr, u)
		if err == nil && i == 0 {
			sp := tr.begin("litmus.Check", 0, u)
			_, err = litmus.Check(p, litmusStride)
			tr.end(sp)
		}
		check(name, err)
	}
	for _, rc := range in.recipes {
		check(rc.stream.Name, w.checkRecipe(rc, tr, base+unit))
	}
	for k, p := range in.random {
		check(fmt.Sprintf("random program %d", k), w.checkProgram("random", p, in.rng, tr, base+unit))
	}
	return units, failed
}

// checkProgram runs one program through the oracle, the analyzer and
// the optimizer, and checks that every static must-edge holds in every
// model-allowed crash cut and that the optimized program validates.
func (w *oracle) checkProgram(name string, p pmo.Program, r *rand.Rand, tr *tracer, unit int) error {
	sp := tr.begin("pmo.AllowedPersistSets", 0, unit)
	sets := pmo.AllowedPersistSets(p)
	tr.end(sp)
	if w.counting {
		w.persistSets += len(sets)
	}
	if len(sets) == 0 {
		return fmt.Errorf("model allows no crash states")
	}

	sp = tr.begin("persistcheck.AnalyzeProgram", 0, unit)
	persistcheck.AnalyzeProgram(name, p)
	edges := persistcheck.MustEdges(p)
	tr.end(sp)
	for _, e := range edges {
		for _, set := range sets {
			if set[e[1]] && !set[e[0]] {
				return fmt.Errorf("static must-edge %v -> %v violated by allowed crash set %v", e[0], e[1], set)
			}
		}
	}

	reqs := drawRequirements(p, sets, r)
	sp = tr.begin("relax.Optimize", 0, unit)
	res, err := relax.Optimize(relax.Input{Name: name, Program: p, Requires: reqs})
	tr.end(sp)
	if err != nil {
		return err
	}
	if w.counting {
		w.steps += len(res.Steps)
	}
	if res.Status != relax.StatusOptimized || !res.Validated {
		return fmt.Errorf("relax status %s, validated %v, for requirements the program holds", res.Status, res.Validated)
	}
	sp = tr.begin("relax.Validate", 0, unit)
	err = relax.Validate(p, reqs, res.Program)
	tr.end(sp)
	return err
}

// checkRecipe optimizes one design's logging recipe. Persist-at-
// visibility designs have nothing to relax and the non-atomic design's
// recipe breaks its own requirements; every other recipe must come back
// optimized and validated.
func (w *oracle) checkRecipe(rc recipe, tr *tracer, unit int) error {
	sp := tr.begin("relax.OptimizeStream", 0, unit)
	res, err := relax.OptimizeStream(rc.stream)
	tr.end(sp)
	if err != nil {
		return err
	}
	if w.counting {
		w.steps += len(res.Steps)
	}
	want := relax.StatusOptimized
	switch {
	case rc.stream.PersistAtVisibility:
		want = relax.StatusVisibilityOrdered
	case rc.design == hwdesign.NonAtomic:
		want = relax.StatusUnsatisfiable
	}
	if res.Status != want || (want == relax.StatusOptimized && !res.Validated) {
		return fmt.Errorf("relax status %s (validated %v), want %s", res.Status, res.Validated, want)
	}
	return nil
}

// drawRequirements declares up to 3 store orderings the program's
// allowed persist sets already enforce, so each is satisfiable.
func drawRequirements(p pmo.Program, sets []pmo.PersistSet, r *rand.Rand) []relax.Requirement {
	var refs []pmo.StoreRef
	var ids []pmo.StoreID
	for t, ops := range p {
		ord := 0
		for k, op := range ops {
			if op.Kind == pmo.KStore {
				refs = append(refs, pmo.StoreRef{Thread: t, Ord: ord})
				ids = append(ids, pmo.StoreID{Thread: t, Index: k})
				ord++
			}
		}
	}
	var held []relax.Requirement
	for a := range refs {
		for b := range refs {
			if a == b {
				continue
			}
			holds := true
			for _, set := range sets {
				if set[ids[b]] && !set[ids[a]] {
					holds = false
					break
				}
			}
			if holds {
				held = append(held, relax.Requirement{Before: refs[a], After: refs[b]})
			}
		}
	}
	var out []relax.Requirement
	for _, k := range r.Perm(len(held))[:min(3, len(held))] {
		out = append(out, held[k])
	}
	return out
}

// layers reports host seconds per iteration in each layer.
func (w *oracle) layers(m metricSet) {
	if tr, n := w.tr, float64(w.tracedIters); n > 0 {
		m["pmo.allowed_sets_s"] = tr.seconds("pmo.AllowedPersistSets") / n
		m["persistcheck.analyze_s"] = tr.seconds("persistcheck.AnalyzeProgram") / n
		m["relax.optimize_s"] = (tr.seconds("relax.Optimize") + tr.seconds("relax.OptimizeStream") + tr.seconds("relax.Validate")) / n
	}
	if w.litmusRuns > 0 {
		m["litmus.check_s"] = w.tr.seconds("litmus.Check") / float64(w.litmusRuns)
	}
	m["pmo.persist_sets"] = float64(w.persistSets)
	m["relax.steps"] = float64(w.steps)
}
