package pmo

// This file is the model's program-rewriting surface: the only
// sanctioned way to derive one abstract program from another. Every
// transform returns a fresh Program (no op-slice aliasing with the
// input), so a caller holding the original can compare the two against
// the model — the auto-relaxation optimizer (internal/relax) leans on
// this to prove each rewrite step against the exact crash-cut oracle.
// Direct slice mutation of a Program outside internal/{pmo,relax} is
// forbidden by a strandvet rule: a mutated program has no
// before/after pair to validate, so its relaxation log cannot be
// replayed.
//
// Stores are identified across rewrites by StoreRef — the k-th store
// of a thread — which is stable under every transform here (none adds,
// removes or reorders stores). StoreID (a program index) is not stable:
// inserting or deleting a barrier shifts every later index.

import (
	"fmt"
	"sort"
	"strings"
)

// StoreRef names a store by thread and store ordinal: Ord is the
// store's rank among its thread's stores (0-based, program order).
// Unlike StoreID.Index it survives barrier insertion and deletion, so
// it is the currency of cross-rewrite comparisons and of relaxation
// requirements.
type StoreRef struct {
	Thread int `json:"thread"`
	Ord    int `json:"ord"`
}

func (r StoreRef) String() string { return fmt.Sprintf("t%d.s%d", r.Thread, r.Ord) }

// String renders the op in litmus notation.
func (o Op) String() string {
	name := func(def string) string {
		if o.Label != "" {
			return fmt.Sprintf("%s %q", def, o.Label)
		}
		return fmt.Sprintf("%s loc%d", def, o.Loc)
	}
	switch o.Kind {
	case KStore:
		if o.Label != "" {
			return fmt.Sprintf("ST %q=%d", o.Label, o.Val)
		}
		return fmt.Sprintf("ST loc%d=%d", o.Loc, o.Val)
	case KLoad:
		return name("LD")
	case KPB:
		return "PB"
	case KNS:
		return "NS"
	case KJS:
		if o.Label != "" {
			return fmt.Sprintf("JS %q", o.Label)
		}
		return "JS"
	default:
		return fmt.Sprintf("Op(%d)", o.Kind)
	}
}

// String renders the program one thread per line, ops separated by
// "; " — the relaxation log's program notation.
func (p Program) String() string {
	var b strings.Builder
	for t, ops := range p {
		if t > 0 {
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "t%d:", t)
		for _, op := range ops {
			b.WriteByte(' ')
			b.WriteString(op.String())
			b.WriteByte(';')
		}
	}
	return b.String()
}

// Clone returns a deep copy: mutating the copy's op slices never
// touches the original.
func (p Program) Clone() Program {
	q := make(Program, len(p))
	for t, ops := range p {
		q[t] = append([]Op(nil), ops...)
	}
	return q
}

// WithoutOp returns a copy of the program with the op at (thread t,
// index i) removed. It panics on an out-of-range position.
func (p Program) WithoutOp(t, i int) Program {
	q := p.Clone()
	if t < 0 || t >= len(q) || i < 0 || i >= len(q[t]) {
		panic(fmt.Sprintf("pmo: WithoutOp(%d, %d) out of range", t, i))
	}
	q[t] = append(q[t][:i], q[t][i+1:]...)
	return q
}

// WithOp returns a copy of the program with the op at (t, i) replaced.
func (p Program) WithOp(t, i int, op Op) Program {
	q := p.Clone()
	if t < 0 || t >= len(q) || i < 0 || i >= len(q[t]) {
		panic(fmt.Sprintf("pmo: WithOp(%d, %d) out of range", t, i))
	}
	q[t][i] = op
	return q
}

// WithInsert returns a copy of the program with op inserted at (t, i);
// i may equal the thread length (append).
func (p Program) WithInsert(t, i int, op Op) Program {
	q := p.Clone()
	if t < 0 || t >= len(q) || i < 0 || i > len(q[t]) {
		panic(fmt.Sprintf("pmo: WithInsert(%d, %d) out of range", t, i))
	}
	q[t] = append(q[t][:i], append([]Op{op}, q[t][i:]...)...)
	return q
}

// StoreIDOf resolves a StoreRef to the program's StoreID (the store's
// program index), or false when the thread has no such store.
func StoreIDOf(p Program, r StoreRef) (StoreID, bool) {
	if r.Thread < 0 || r.Thread >= len(p) {
		return StoreID{}, false
	}
	ord := 0
	for i, op := range p[r.Thread] {
		if op.Kind != KStore {
			continue
		}
		if ord == r.Ord {
			return StoreID{Thread: r.Thread, Index: i}, true
		}
		ord++
	}
	return StoreID{}, false
}

// SameStores reports whether two programs carry the same stores (kind,
// location, value, label) per thread in the same program order — the
// precondition for comparing their allowed persist sets by ordinal.
// Barrier structure is free to differ.
func SameStores(a, b Program) bool {
	if len(a) != len(b) {
		return false
	}
	for t := range a {
		sa, sb := threadStores(a[t]), threadStores(b[t])
		if len(sa) != len(sb) {
			return false
		}
		for i := range sa {
			x, y := sa[i], sb[i]
			if x.Loc != y.Loc || x.Val != y.Val || x.Label != y.Label {
				return false
			}
		}
	}
	return true
}

func threadStores(ops []Op) []Op {
	var out []Op
	for _, op := range ops {
		if op.Kind == KStore {
			out = append(out, op)
		}
	}
	return out
}

// OrdinalSetKeys returns the program's allowed persist sets re-keyed
// by store ordinal, as a sorted slice of canonical strings. Because
// ordinals are stable under barrier rewrites, two programs with
// SameStores can be compared set-for-set: a relaxation is sound iff
// the rewritten program's keys are a superset of the original's.
func OrdinalSetKeys(p Program) []string {
	return OrdinalKeys(p, AllowedPersistSets(p))
}

// OrdinalKeys renders persist sets of program p (as returned by
// AllowedPersistSets(p)) by store ordinal, sorted. Callers that need
// both the canonical keys and per-set membership (the relaxation
// oracle) enumerate once and pass the sets here.
func OrdinalKeys(p Program, sets []PersistSet) []string {
	// Per-thread map from program index to store ordinal.
	ordAt := make([]map[int]int, len(p))
	for t, ops := range p {
		ordAt[t] = make(map[int]int)
		ord := 0
		for i, op := range ops {
			if op.Kind == KStore {
				ordAt[t][i] = ord
				ord++
			}
		}
	}
	keys := make([]string, 0, len(sets))
	for _, set := range sets {
		refs := make([]StoreRef, 0, len(set))
		for id := range set {
			refs = append(refs, StoreRef{Thread: id.Thread, Ord: ordAt[id.Thread][id.Index]})
		}
		sort.Slice(refs, func(i, j int) bool {
			if refs[i].Thread != refs[j].Thread {
				return refs[i].Thread < refs[j].Thread
			}
			return refs[i].Ord < refs[j].Ord
		})
		parts := make([]string, len(refs))
		for i, r := range refs {
			parts[i] = r.String()
		}
		keys = append(keys, strings.Join(parts, " "))
	}
	sort.Strings(keys)
	return keys
}

// SupersetOf reports whether sorted key slice a contains every key of
// sorted key slice b (both from OrdinalSetKeys).
func SupersetOf(a, b []string) bool {
	i := 0
	for _, k := range b {
		for i < len(a) && a[i] < k {
			i++
		}
		if i >= len(a) || a[i] != k {
			return false
		}
	}
	return true
}

// RequirementHolds reports whether every allowed persist set that
// contains the store named by after also contains before — the exact
// oracle test for one declared persist-order obligation. It returns
// false, error-free, when either ref does not resolve; callers
// validate refs up front.
func RequirementHolds(p Program, before, after StoreRef) bool {
	bid, ok := StoreIDOf(p, before)
	if !ok {
		return false
	}
	aid, ok := StoreIDOf(p, after)
	if !ok {
		return false
	}
	for _, set := range AllowedPersistSets(p) {
		if set[aid] && !set[bid] {
			return false
		}
	}
	return true
}
