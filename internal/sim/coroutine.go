//go:build go1.23

package sim

import "iter"

// Coroutine bridges a runtime coroutine (iter.Pull) into the
// discrete-event engine so that a simulated hardware thread can be
// written as straight-line Go code.
//
// The contract: exactly one goroutine — the Run caller or one coroutine
// — runs at any instant. The event loop always runs on the Run caller's
// goroutine. Firing a resume event switches to the target coroutine
// (next), which runs until its next Yield switches back (yield). The
// switches therefore follow the (cycle, seq) event order exactly, so
// simulations remain bit-reproducible. A panic in a body comes back out
// of next on the Run caller's goroutine and surfaces from Run.
type Coroutine struct {
	eng  *Engine
	next func() (struct{}, bool)
	stop func()
	// yield is the body's side of the switch, stored when the body
	// first runs.
	yield func(struct{}) bool
	done  bool
}

// abortSentinel is the panic value that unwinds an aborted coroutine's
// body (e.g. when a simulated crash abandons the machine mid-run), so
// its deferred calls run and its goroutine exits.
type abortSentinel struct{}

// NewCoroutine creates a coroutine running body, paused: body does not
// start until the coroutine's first resume event (Engine.ScheduleResume)
// fires. Inside body, use co.WaitCycles / co.Yield or a Waiter to give
// up control.
func NewCoroutine(eng *Engine, body func(co *Coroutine)) *Coroutine {
	co := &Coroutine{eng: eng}
	co.next, co.stop = iter.Pull(func(yield func(struct{}) bool) {
		co.yield = yield
		defer func() {
			co.done = true
			if r := recover(); r != nil {
				if _, ok := r.(abortSentinel); !ok {
					panic(r)
				}
			}
		}()
		body(co)
	})
	return co
}

// Abort unwinds the coroutine so its goroutine exits; used when a
// simulated crash abandons the machine. A suspended body unwinds from
// its pending Yield, running its deferred calls; a body that never
// started never runs. No-op if already done. Must not be called from
// the coroutine's own body.
func (co *Coroutine) Abort() {
	if co.done {
		return
	}
	co.eng.stats.CoroutineSwitches++
	co.stop()
	co.done = true
}

// Done reports whether the coroutine's body has returned or been
// aborted.
func (co *Coroutine) Done() bool { return co.done }

// Yield suspends the coroutine until its next resume event fires. Must
// be called from within the coroutine body.
func (co *Coroutine) Yield() {
	if !co.yield(struct{}{}) {
		panic(abortSentinel{})
	}
}

// WaitCycles suspends the coroutine for d simulated cycles: it schedules
// its own resume event and yields.
func (co *Coroutine) WaitCycles(d Cycle) {
	co.eng.ScheduleResume(d, co)
	co.Yield()
}

// Waiter is a one-shot wakeup list: coroutines park on it and are resumed
// (in FIFO order, deterministically) when Broadcast fires. It models
// hardware wakeup signals such as "queue entry freed" or "ack received".
// A parked coroutine costs nothing per cycle: no events are scheduled
// until Broadcast wakes it.
type Waiter struct {
	eng     *Engine
	parked  []*Coroutine
	signals int
}

// NewWaiter returns a Waiter bound to eng.
func NewWaiter(eng *Engine) *Waiter { return &Waiter{eng: eng} }

// Park suspends co until the next Broadcast.
func (w *Waiter) Park(co *Coroutine) {
	w.parked = append(w.parked, co)
	co.Yield()
}

// Broadcast wakes every parked coroutine at the current cycle (as a
// zero-delay resume event, preserving deterministic FIFO ordering).
// No allocation per woken coroutine.
func (w *Waiter) Broadcast() {
	if len(w.parked) == 0 {
		return
	}
	woken := w.parked
	w.parked = w.parked[:0]
	w.signals++
	for i, co := range woken {
		w.eng.ScheduleResume(0, co)
		woken[i] = nil
	}
}

// ParkedCount reports how many coroutines are currently parked.
func (w *Waiter) ParkedCount() int { return len(w.parked) }

// Broadcasts reports how many times Broadcast woke at least one coroutine.
func (w *Waiter) Broadcasts() int { return w.signals }
