// Package trace records per-core operation timelines from the
// simulator: each front-end operation is logged with its issue cycle
// and completion cycle, giving gem5-style debug traces for litmus
// analysis and performance work.
package trace

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"strandweaver/internal/isa"
	"strandweaver/internal/mem"
	"strandweaver/internal/sim"
)

// Event is one recorded operation instance.
type Event struct {
	Core     int
	Kind     isa.OpKind
	Addr     mem.Addr
	Value    uint64
	Start    sim.Cycle
	End      sim.Cycle
	Sequence uint64
}

// String renders the event as a trace line.
func (e Event) String() string {
	switch e.Kind {
	case isa.OpLoad, isa.OpStore, isa.OpCLWB, isa.OpRMW:
		return fmt.Sprintf("%10d-%-10d core%-2d %-7s %#x val=%d", e.Start, e.End, e.Core, e.Kind, e.Addr, e.Value)
	default:
		return fmt.Sprintf("%10d-%-10d core%-2d %-7s", e.Start, e.End, e.Core, e.Kind)
	}
}

// Recorder accumulates events. The zero value discards everything; use
// New for an active recorder. Recording is bounded: once Limit events
// are stored, further events are counted but dropped.
type Recorder struct {
	mu      sync.Mutex
	events  []Event
	seq     uint64
	dropped uint64
	// Limit bounds stored events (default 1<<20).
	Limit int
}

// New returns an active recorder.
func New() *Recorder { return &Recorder{Limit: 1 << 20} }

// Record appends an event (nil-safe: a nil recorder discards).
func (r *Recorder) Record(core int, kind isa.OpKind, addr mem.Addr, value uint64, start, end sim.Cycle) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq++
	if r.Limit > 0 && len(r.events) >= r.Limit {
		r.dropped++
		return
	}
	r.events = append(r.events, Event{
		Core: core, Kind: kind, Addr: addr, Value: value,
		Start: start, End: end, Sequence: r.seq,
	})
}

// Events returns a copy of the recorded events in record order.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Event(nil), r.events...)
}

// Dropped reports events discarded past the limit.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Dump writes the trace sorted by start cycle (ties by sequence).
func (r *Recorder) Dump(w io.Writer) {
	evs := r.Events()
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].Start != evs[j].Start {
			return evs[i].Start < evs[j].Start
		}
		return evs[i].Sequence < evs[j].Sequence
	})
	for _, e := range evs {
		fmt.Fprintln(w, e.String())
	}
	if d := r.Dropped(); d > 0 {
		fmt.Fprintf(w, "... %d events dropped (limit %d)\n", d, r.Limit)
	}
}

// Filter returns the events matching pred, in record order.
func (r *Recorder) Filter(pred func(Event) bool) []Event {
	var out []Event
	for _, e := range r.Events() {
		if pred(e) {
			out = append(out, e)
		}
	}
	return out
}
