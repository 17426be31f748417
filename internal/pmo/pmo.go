// Package pmo is an executable formal model of the strand persistency
// memory model (paper Section III): it builds the persist memory order
// (PMO) prescribed by Equations 1-4 over a small multi-threaded program
// and enumerates every post-crash PM state the model allows. The timing
// simulator is cross-validated against this checker: any crash state the
// hardware produces must be allowed here.
//
// The model works at the abstraction of the paper's Figure 2: a "store"
// is a persist (the flush is implicit), loads participate in ordering
// only through Equations 1-2 and transitivity (never through strong
// persist atomicity), and volatile memory order (VMO) is a total
// interleaving of the threads' program orders (TSO without store
// buffering, which is conservative for visibility and exact for the
// litmus shapes of Figure 2).
package pmo

import (
	"fmt"
	"sort"
	"strings"
)

// Kind enumerates abstract litmus operations.
type Kind uint8

const (
	// KStore persists a value to a location.
	KStore Kind = iota
	// KLoad reads a location (orders only via Eq. 1-2 + transitivity).
	KLoad
	// KPB is a persist barrier.
	KPB
	// KNS is NewStrand.
	KNS
	// KJS is JoinStrand.
	KJS
)

// Op is one abstract operation.
type Op struct {
	Kind Kind
	// Loc is the persistent location (stores/loads only).
	Loc int
	// Val is the stored value (stores only); values should be unique per
	// location per program for unambiguous states.
	Val uint64
	// Label optionally names the op in diagnostics.
	Label string
}

// St returns a store op.
func St(loc int, val uint64) Op { return Op{Kind: KStore, Loc: loc, Val: val} }

// Ld returns a load op.
func Ld(loc int) Op { return Op{Kind: KLoad, Loc: loc} }

// PB returns a persist barrier.
func PB() Op { return Op{Kind: KPB} }

// NS returns a NewStrand.
func NS() Op { return Op{Kind: KNS} }

// JS returns a JoinStrand.
func JS() Op { return Op{Kind: KJS} }

// Program is one abstract op sequence per thread.
type Program [][]Op

// State maps location to its post-crash value; locations absent from the
// map hold the initial value 0.
type State map[int]uint64

// Key renders a canonical string for set membership and diagnostics.
func (s State) Key() string {
	locs := make([]int, 0, len(s))
	for l, v := range s {
		if v != 0 {
			locs = append(locs, l)
		}
	}
	sort.Ints(locs)
	var b strings.Builder
	for i, l := range locs {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d=%d", l, s[l])
	}
	return b.String()
}

// event is a dynamic op instance within one interleaving.
type event struct {
	op     Op
	thread int
	// progIdx is the index in the thread's program.
	progIdx int
	// vmoIdx is the position in the chosen total visibility order.
	vmoIdx int
}

// StoreID names one store instance of a Program by its thread and its
// index in that thread's op sequence. It is the currency of the model's
// introspection API (AllowedPersistSets) and of the static analyzer's
// must-persist-before edges (internal/persistcheck).
type StoreID struct {
	Thread int
	Index  int
}

func (id StoreID) String() string { return fmt.Sprintf("t%d#%d", id.Thread, id.Index) }

// PersistSet is one model-allowed crash cut: the set of stores whose
// persists landed before the crash.
type PersistSet map[StoreID]bool

// Key renders a canonical string for set membership and diagnostics.
func (s PersistSet) Key() string {
	ids := make([]StoreID, 0, len(s))
	for id := range s {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		if ids[i].Thread != ids[j].Thread {
			return ids[i].Thread < ids[j].Thread
		}
		return ids[i].Index < ids[j].Index
	})
	var b strings.Builder
	for i, id := range ids {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(id.String())
	}
	return b.String()
}

// AllowedStates returns every crash state reachable under some
// interleaving and some PMO-downward-closed persist set. Programs must
// stay small (the enumeration is exponential); litmus tests use at most
// ~12 operations.
func AllowedStates(p Program) map[string]State {
	out := make(map[string]State)
	forEachInterleaving(p, func(inter []event) {
		for key, st := range statesOfInterleaving(p, inter) {
			out[key] = st
		}
	})
	return out
}

// AllowedPersistSets enumerates every crash cut the model allows: for
// each interleaving, every PMO-downward-closed subset of the program's
// persists, identified by StoreID. The result is deduplicated across
// interleavings and sorted by canonical key, so it is deterministic.
// This is the model-side half of the static/dynamic differential check:
// a static must-persist-before edge a->b is sound iff no allowed set
// contains b without a.
func AllowedPersistSets(p Program) []PersistSet {
	seen := make(map[string]PersistSet)
	forEachInterleaving(p, func(inter []event) {
		nodes, ord := orderOfInterleaving(p, inter)
		forEachDownwardClosedCut(nodes, ord, func(nodes []event, persists []int, mask int) {
			set := make(PersistSet)
			for bi, i := range persists {
				if mask&(1<<bi) != 0 {
					e := nodes[i]
					set[StoreID{Thread: e.thread, Index: e.progIdx}] = true
				}
			}
			key := set.Key()
			if _, dup := seen[key]; !dup {
				seen[key] = set
			}
		})
	})
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]PersistSet, len(keys))
	for i, k := range keys {
		out[i] = seen[k]
	}
	return out
}

// Enumeration budget: the checker visits every interleaving and, per
// interleaving, every subset of the persists, so the work is
// interleavings x 2^stores. The caps below admit every litmus shape
// and the single-threaded logging-recipe programs the auto-relaxation
// optimizer oracle-checks (one interleaving, ~8 stores) while
// rejecting programs whose enumeration would not terminate in
// reasonable time.
const (
	maxInterleavings = 1 << 17
	maxEnumWork      = 1 << 25
)

// interleavingCount returns the number of total orders preserving each
// thread's program order (the multinomial coefficient), saturating at
// maxInterleavings+1 to avoid overflow.
func interleavingCount(p Program) uint64 {
	count := uint64(1)
	placed := uint64(0)
	for _, t := range p {
		for i := uint64(1); i <= uint64(len(t)); i++ {
			placed++
			count = count * placed / i
			if count > maxInterleavings {
				return maxInterleavings + 1
			}
		}
	}
	return count
}

// forEachInterleaving visits every total visibility order (interleaving
// preserving each thread's program order) of the program.
func forEachInterleaving(p Program, visit func(inter []event)) {
	stores := 0
	for _, t := range p {
		for _, op := range t {
			if op.Kind == KStore {
				stores++
			}
		}
	}
	inters := interleavingCount(p)
	work := uint64(maxEnumWork) + 1
	if inters <= maxInterleavings && stores < 30 {
		work = inters << uint(stores)
	}
	if inters > maxInterleavings || work > maxEnumWork {
		panic(fmt.Sprintf("pmo: program too large for exhaustive checking (%d interleavings, %d stores)", inters, stores))
	}
	idx := make([]int, len(p))
	var inter []event
	var rec func()
	rec = func() {
		done := true
		for t := range p {
			if idx[t] < len(p[t]) {
				done = false
				ev := event{op: p[t][idx[t]], thread: t, progIdx: idx[t], vmoIdx: len(inter)}
				idx[t]++
				inter = append(inter, ev)
				rec()
				inter = inter[:len(inter)-1]
				idx[t]--
			}
		}
		if done {
			visit(inter)
		}
	}
	rec()
}

// orderOfInterleaving builds the PMO nodes (memory events) and the
// prescribed persist-order matrix of Equations 1-4 for one total
// visibility order.
func orderOfInterleaving(p Program, inter []event) ([]event, [][]bool) {
	// Collect memory events (PMO nodes).
	var nodes []event
	for _, e := range inter {
		if e.op.Kind == KStore || e.op.Kind == KLoad {
			nodes = append(nodes, e)
		}
	}
	n := len(nodes)
	ord := make([][]bool, n)
	for i := range ord {
		ord[i] = make([]bool, n)
	}
	// Equations 1 and 2: same-thread ordering via PB (without intervening
	// NS) or via JS.
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a, b := nodes[i], nodes[j]
			if a.thread != b.thread || a.progIdx >= b.progIdx {
				continue
			}
			prog := p[a.thread]
			hasPB, hasNS, hasJS := false, false, false
			for k := a.progIdx + 1; k < b.progIdx; k++ {
				switch prog[k].Kind {
				case KPB:
					hasPB = true
				case KNS:
					hasNS = true
				case KJS:
					hasJS = true
				}
			}
			if hasJS || (hasPB && !hasNS) {
				ord[i][j] = true
			}
		}
	}
	// Equation 3: strong persist atomicity — conflicting stores ordered
	// by visibility.
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a, b := nodes[i], nodes[j]
			if a.op.Kind == KStore && b.op.Kind == KStore &&
				a.op.Loc == b.op.Loc && a.vmoIdx < b.vmoIdx {
				ord[i][j] = true
			}
		}
	}
	// Equation 4: transitivity.
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			if !ord[i][k] {
				continue
			}
			for j := 0; j < n; j++ {
				if ord[k][j] {
					ord[i][j] = true
				}
			}
		}
	}
	return nodes, ord
}

// forEachDownwardClosedCut enumerates the valid crash cuts of one
// interleaving: subset S (a bitmask over the persist indices) is valid
// iff for every included persist, every PMO-smaller persist is
// included.
func forEachDownwardClosedCut(nodes []event, ord [][]bool, visit func(nodes []event, persists []int, mask int)) {
	var persists []int
	for i, e := range nodes {
		if e.op.Kind == KStore {
			persists = append(persists, i)
		}
	}
	for mask := 0; mask < 1<<len(persists); mask++ {
		ok := true
		for bi, i := range persists {
			if mask&(1<<bi) == 0 {
				continue
			}
			for bj, j := range persists {
				if mask&(1<<bj) == 0 && ord[j][i] {
					ok = false
					break
				}
			}
			if !ok {
				break
			}
		}
		if ok {
			visit(nodes, persists, mask)
		}
	}
}

// statesOfInterleaving computes the allowed crash states for one total
// visibility order.
func statesOfInterleaving(p Program, inter []event) map[string]State {
	nodes, ord := orderOfInterleaving(p, inter)
	out := make(map[string]State)
	forEachDownwardClosedCut(nodes, ord, func(nodes []event, persists []int, mask int) {
		st := make(State)
		for bi, i := range persists {
			if mask&(1<<bi) == 0 {
				continue
			}
			e := nodes[i]
			// Strong persist atomicity makes same-location persists
			// visibility-ordered; the state holds the latest included one.
			if _, seen := st[e.op.Loc]; !seen || laterSameLoc(nodes, persists, mask, e) {
				st[e.op.Loc] = e.op.Val
			}
		}
		out[st.Key()] = st
	})
	return out
}

// laterSameLoc reports whether e is the visibility-latest included store
// to its location.
func laterSameLoc(nodes []event, persists []int, mask int, e event) bool {
	for bi, i := range persists {
		if mask&(1<<bi) == 0 {
			continue
		}
		o := nodes[i]
		if o.op.Loc == e.op.Loc && o.vmoIdx > e.vmoIdx {
			return false
		}
	}
	return true
}

// Allowed reports whether state is reachable for the program.
func Allowed(p Program, state State) bool {
	_, ok := AllowedStates(p)[state.Key()]
	return ok
}
