package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// The ring fast path and the heap must interleave under the single
// (cycle, seq) total order: zero-delay events scheduled mid-cycle fire
// before later-cycle heap events but after same-cycle events that were
// scheduled earlier, no matter which structure holds them.
func TestRingHeapInterleaveOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	rec := func(i int) func() { return func() { order = append(order, i) } }
	e.Schedule(1, rec(2))
	e.Schedule(0, rec(0)) // ring
	e.Schedule(0, rec(1)) // ring
	e.Schedule(2, rec(5))
	e.Schedule(1, rec(3)) // same cycle as rec(2), later seq
	e.Run(0)
	// At cycle 1 the clock moved, so a new zero-delay event there must
	// land behind the already-pending cycle-1 heap events by seq.
	for i, want := range []int{0, 1, 2, 3, 5} {
		if order[i] != want {
			t.Fatalf("order %v", order)
		}
	}
}

// A randomized schedule through both structures must fire in exactly
// (cycle, seq) order — the contract the golden digests enforce at the
// system level, checked here directly against a reference sort.
func TestEngineOrderMatchesReferenceSort(t *testing.T) {
	e := NewEngine()
	r := rand.New(rand.NewSource(42))
	type stamp struct {
		at  Cycle
		seq int
	}
	var fired []stamp
	var want []stamp
	seq := 0
	var spawn func(depth int)
	spawn = func(depth int) {
		n := 4 + r.Intn(4)
		for i := 0; i < n; i++ {
			d := Cycle(r.Intn(3)) // mixes zero-delay (ring) and short delays (heap)
			s := stamp{at: e.Now() + d, seq: seq}
			seq++
			want = append(want, s)
			dd := depth
			e.Schedule(d, func() {
				fired = append(fired, s)
				if dd < 2 && r.Intn(3) == 0 {
					spawn(dd + 1)
				}
			})
		}
	}
	spawn(0)
	e.Run(0)
	// Reference order: stable sort of the submission log by at (seq is
	// the submission index, so stability gives (at, seq)). Events
	// scheduled from callbacks were appended to want during the run in
	// submission order, so the same rule applies.
	sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
	if len(fired) != len(want) {
		t.Fatalf("fired %d events, want %d", len(fired), len(want))
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("event %d fired as %+v, want %+v", i, fired[i], want[i])
		}
	}
}

// Run's limit clamp moves the clock without firing events (now = limit).
// Zero-delay events scheduled after the clamp must still order correctly
// against the stale ring entries from the pre-clamp cycle.
func TestRingSurvivesLimitClamp(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(0, func() { order = append(order, 0) })
	e.Schedule(10, func() { order = append(order, 2) })
	e.Run(5) // fires the zero-delay event, clamps clock to 5
	if e.Now() != 5 {
		t.Fatalf("clock %d after clamped run, want 5", e.Now())
	}
	// The ring's pinned cycle (0) is stale; this zero-delay event is at
	// cycle 5 and must fire before the cycle-10 heap event.
	e.Schedule(0, func() { order = append(order, 1) })
	e.Run(0)
	for i, want := range []int{0, 1, 2} {
		if i >= len(order) || order[i] != want {
			t.Fatalf("order %v", order)
		}
	}
}

// Steady-state scheduling must not allocate: the heap and ring recycle
// their backing arrays and entries are stored by value.
func TestScheduleZeroAlloc(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	// Grow both structures past the test's working depth.
	for i := 0; i < 256; i++ {
		e.Schedule(Cycle(i%16), fn)
	}
	e.Run(0)
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 32; i++ {
			e.Schedule(Cycle(i%4), fn)
		}
		e.Run(0)
	})
	if allocs != 0 {
		t.Errorf("steady-state Schedule/Run allocated %.1f times per round, want 0", allocs)
	}
}

// Waiter wakeups must not allocate in steady state: Broadcast schedules
// a closure-free resume event per parked coroutine.
func TestWaiterBroadcastZeroAlloc(t *testing.T) {
	e := NewEngine()
	w := NewWaiter(e)
	co := NewCoroutine(e, func(co *Coroutine) {
		for {
			w.Park(co)
		}
	})
	e.ScheduleResume(0, co)
	e.Run(0)
	allocs := testing.AllocsPerRun(100, func() {
		w.Broadcast()
		e.Run(0)
	})
	co.Abort()
	if allocs != 0 {
		t.Errorf("steady-state Park/Broadcast allocated %.1f times per round, want 0", allocs)
	}
}

// Engine counters must reflect actual activity and stay internally
// consistent after a run drains.
func TestEngineStatsCounters(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	for i := 0; i < 10; i++ {
		e.Schedule(0, fn)
		e.Schedule(5, fn)
	}
	e.Run(0)
	st := e.Stats()
	if st.EventsScheduled != 20 || st.EventsFired != 20 {
		t.Errorf("scheduled/fired = %d/%d, want 20/20", st.EventsScheduled, st.EventsFired)
	}
	if st.FastPathHits != 10 {
		t.Errorf("FastPathHits = %d, want 10 (one per zero-delay schedule)", st.FastPathHits)
	}
	if st.PeakHeapDepth < 10 {
		t.Errorf("PeakHeapDepth = %d, want >= 10", st.PeakHeapDepth)
	}
	if e.Pending() != 0 {
		t.Errorf("%d events pending after drain", e.Pending())
	}
}
