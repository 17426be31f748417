// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine advances an integer cycle clock (2 GHz by convention: one
// cycle = 0.5 ns) and fires scheduled events in (cycle, sequence) order,
// so simulations are bit-reproducible across runs. Simulated hardware
// threads are runtime coroutines (iter.Pull) that the event loop resumes
// one at a time (see Coroutine), which preserves determinism: exactly
// one goroutine — the Run caller or one coroutine — runs at any instant,
// and the event loop always runs on the Run caller's goroutine.
//
// The event core is allocation-free in steady state: events are value
// entries in an inline 4-ary min-heap (no per-event boxing), same-cycle
// zero-delay bursts — the kick/Broadcast pattern every queue pump
// generates — bypass the heap through a FIFO ring, and both structures
// recycle their backing storage instead of releasing it. The ordering
// contract is exactly (cycle, seq) regardless of which structure holds
// an event; docs/DETERMINISM.md states the contract, and the golden
// digests in internal/harness enforce it.
package sim

import (
	"errors"
	"fmt"
)

// Cycle is a point in simulated time, measured in CPU cycles.
type Cycle uint64

// ErrBudgetExceeded is the watchdog's typed failure: the engine fired
// more events than SetEventBudget allows and stopped itself instead of
// spinning forever. A cycle limit (Run's limit argument) cannot catch a
// same-cycle event livelock — a self-perpetuating burst of zero-delay
// events never advances the clock — so long-running sweeps and the
// fuzz harness arm the event budget as their hang backstop. Match with
// errors.Is.
var ErrBudgetExceeded = errors.New("sim: event budget exceeded (watchdog)")

// Event is a callback scheduled to run at a particular cycle.
type Event func()

// eventEntry is one scheduled event, stored by value: scheduling does
// not allocate once the heap and ring have grown to the simulation's
// working depth. Exactly one of fn and co is set: fn for a plain
// callback, co for a coroutine resumption (see Coroutine).
type eventEntry struct {
	at  Cycle
	seq uint64
	fn  Event
	co  *Coroutine
}

// before reports whether a fires before b under the (cycle, seq) total
// order.
func (a *eventEntry) before(b *eventEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Stats counts engine-level activity. All counters are deterministic
// functions of the event order, so they may be compared across runs
// and folded into sweep results (sweep.CellMetrics).
type Stats struct {
	// EventsScheduled and EventsFired count Schedule calls and event
	// callbacks run.
	EventsScheduled uint64 `json:"events_scheduled"`
	EventsFired     uint64 `json:"events_fired"`
	// FastPathHits counts zero-delay schedules that took the same-cycle
	// FIFO ring instead of the heap (no sift, O(1)).
	FastPathHits uint64 `json:"fast_path_hits"`
	// FreelistHits counts event slots recycled from previously grown
	// heap or ring capacity — schedules that allocated nothing.
	FreelistHits uint64 `json:"freelist_hits"`
	// PeakHeapDepth is the high-water mark of pending events (heap plus
	// same-cycle ring).
	PeakHeapDepth int `json:"peak_heap_depth"`
	// CoroutineSwitches counts coroutine resumptions delivered: resume
	// events fired on a live coroutine, plus Aborts of live coroutines.
	// A pure function of the event order, like every counter here.
	CoroutineSwitches uint64 `json:"coroutine_switches"`
}

// Engine is a discrete-event simulator. The zero value is not usable;
// construct with NewEngine.
type Engine struct {
	now Cycle
	seq uint64
	// heap is an inline 4-ary min-heap of future events ordered by
	// (at, seq). Value entries: no allocation per Schedule.
	heap []eventEntry
	// ring is the same-cycle fast path: zero-delay events appended
	// while the clock sits at ringAt, consumed FIFO from ringHead.
	// Entries are in strictly increasing seq order, all at == ringAt,
	// so the head is comparable against the heap top in O(1).
	ring     []eventEntry
	ringHead int
	ringAt   Cycle
	// stopped is set by Stop; Run returns promptly once set.
	stopped bool
	// eventBudget, when non-zero, bounds EventsFired; crossing it sets
	// budgetHit and stops the engine (the watchdog).
	eventBudget uint64
	budgetHit   bool
	stats       Stats
}

// NewEngine returns an engine with the clock at cycle 0.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulated cycle.
func (e *Engine) Now() Cycle { return e.now }

// Stats returns a snapshot of the engine counters.
func (e *Engine) Stats() Stats { return e.stats }

// Schedule runs fn after delay cycles. A delay of 0 runs fn later in the
// current cycle, after already-scheduled same-cycle events.
func (e *Engine) Schedule(delay Cycle, fn Event) {
	if fn == nil {
		panic("sim: Schedule called with nil event")
	}
	e.schedule(delay, eventEntry{fn: fn})
}

// ScheduleResume schedules co's resumption after delay cycles, through
// the same (cycle, seq) queue as Schedule — resume events fire in
// exactly the order a Schedule'd callback would. Firing it switches to
// co until co next yields; no closure is needed.
func (e *Engine) ScheduleResume(delay Cycle, co *Coroutine) {
	if co == nil {
		panic("sim: ScheduleResume called with nil coroutine")
	}
	e.schedule(delay, eventEntry{co: co})
}

func (e *Engine) schedule(delay Cycle, entry eventEntry) {
	e.seq++
	e.stats.EventsScheduled++
	entry.at = e.now + delay
	entry.seq = e.seq
	if delay == 0 && (e.ringLen() == 0 || e.ringAt == e.now) {
		// Same-cycle fast path: the ring holds only entries at the
		// current cycle, appended in seq order, so no sift is needed.
		// (The ring cycle is re-pinned whenever the ring is empty; see
		// Run's limit clamp for why now can move without firing.)
		if e.ringLen() == 0 {
			e.ringAt = e.now
		}
		if len(e.ring) < cap(e.ring) {
			e.stats.FreelistHits++
		}
		e.ring = append(e.ring, entry)
		e.stats.FastPathHits++
	} else {
		if len(e.heap) < cap(e.heap) {
			e.stats.FreelistHits++
		}
		e.heapPush(entry)
	}
	if depth := e.Pending(); depth > e.stats.PeakHeapDepth {
		e.stats.PeakHeapDepth = depth
	}
}

// ScheduleAt runs fn at the absolute cycle at, which must not be in the
// past.
func (e *Engine) ScheduleAt(at Cycle, fn Event) {
	if at < e.now {
		panic(fmt.Sprintf("sim: ScheduleAt(%d) in the past (now=%d)", at, e.now))
	}
	e.Schedule(at-e.now, fn)
}

// Stop makes Run return after the event currently executing (if any)
// completes.
func (e *Engine) Stop() { e.stopped = true }

// SetEventBudget arms the watchdog: once n events have fired in total
// the engine stops itself and BudgetExceeded reports true. n = 0
// disarms. The budget is a deterministic function of the event order,
// so the same simulation trips it at exactly the same event on every
// run (docs/DETERMINISM.md).
func (e *Engine) SetEventBudget(n uint64) {
	e.eventBudget = n
	if n == 0 || e.stats.EventsFired < n {
		e.budgetHit = false
	}
}

// EventBudget returns the armed budget (0 = disarmed).
func (e *Engine) EventBudget() uint64 { return e.eventBudget }

// BudgetExceeded reports whether the watchdog stopped the engine.
func (e *Engine) BudgetExceeded() bool { return e.budgetHit }

// Stopped reports whether Stop has been called.
func (e *Engine) Stopped() bool { return e.stopped }

// Pending reports the number of scheduled events not yet fired.
func (e *Engine) Pending() int { return len(e.heap) + e.ringLen() }

func (e *Engine) ringLen() int { return len(e.ring) - e.ringHead }

// next returns a pointer to the earliest pending event under the
// (cycle, seq) order, or nil if none is pending. The pointer is valid
// until the next Schedule or pop.
func (e *Engine) next() *eventEntry {
	var best *eventEntry
	if e.ringHead < len(e.ring) {
		best = &e.ring[e.ringHead]
	}
	if len(e.heap) > 0 && (best == nil || e.heap[0].before(best)) {
		best = &e.heap[0]
	}
	return best
}

// popNext removes and returns the earliest pending event under the
// (cycle, seq) order. ok is false if none is pending.
func (e *Engine) popNext() (ev eventEntry, ok bool) {
	if h := e.ringHead; h < len(e.ring) &&
		(len(e.heap) == 0 || e.ring[h].before(&e.heap[0])) {
		ev = e.ring[h]
		e.ring[h] = eventEntry{}
		e.ringHead = h + 1
		if e.ringHead == len(e.ring) {
			// Drained: recycle the backing array in place.
			e.ring = e.ring[:0]
			e.ringHead = 0
		}
		return ev, true
	}
	if len(e.heap) > 0 {
		return e.heapPop(), true
	}
	return eventEntry{}, false
}

// fire advances the clock to ev's cycle, applies the watchdog and runs
// the event: a callback, or a resumption that switches to ev.co until
// its next Yield. A resume event for a finished coroutine is dropped.
func (e *Engine) fire(ev *eventEntry) {
	e.now = ev.at
	e.stats.EventsFired++
	if e.eventBudget != 0 && e.stats.EventsFired >= e.eventBudget {
		// Watchdog: the budget-crossing event still fires, but stopped
		// is set first, so even if its callback perpetuates a
		// same-cycle livelock by scheduling more zero-delay events,
		// the loop's next termination check exits.
		e.budgetHit = true
		e.stopped = true
	}
	if ev.co == nil {
		ev.fn()
		return
	}
	if ev.co.done {
		return
	}
	e.stats.CoroutineSwitches++
	ev.co.next()
}

// Step fires the next event, advancing the clock to its cycle. It returns
// false if no events remain or the engine is stopped.
func (e *Engine) Step() bool {
	if e.stopped {
		return false
	}
	ev, ok := e.popNext()
	if !ok {
		return false
	}
	e.fire(&ev)
	return true
}

// Run fires events until none remain, Stop is called, or the clock would
// pass limit (limit 0 means no limit). It returns the cycle at which it
// stopped. Events fire on the caller's goroutine; coroutines run only
// between a resume event's switch to them and their next Yield.
func (e *Engine) Run(limit Cycle) Cycle { return e.RunUntil(nil, limit) }

// RunUntil fires events while cond returns false, subject to the same
// termination rules as Run.
func (e *Engine) RunUntil(cond func() bool, limit Cycle) Cycle {
	for !e.stopped && (cond == nil || !cond()) {
		next := e.next()
		if next == nil {
			break
		}
		if limit != 0 && next.at > limit {
			e.now = limit
			break
		}
		ev, _ := e.popNext()
		e.fire(&ev)
	}
	return e.now
}

// --- inline 4-ary min-heap ---
//
// A 4-ary heap halves the tree depth of a binary heap, trading slightly
// wider sift-down scans for fewer cache-missing levels — the standard
// layout for simulator event queues. Entries are values; the backing
// array only ever grows, so steady-state pushes allocate nothing.

func (e *Engine) heapPush(entry eventEntry) {
	e.heap = append(e.heap, entry)
	// Sift up.
	h := e.heap
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !h[i].before(&h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (e *Engine) heapPop() eventEntry {
	h := e.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = eventEntry{}
	e.heap = h[:n]
	h = e.heap
	// Sift down.
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if h[c].before(&h[min]) {
				min = c
			}
		}
		if !h[min].before(&h[i]) {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
	return top
}
