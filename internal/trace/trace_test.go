package trace

import (
	"strings"
	"testing"

	"strandweaver/internal/isa"
	"strandweaver/internal/mem"
)

func TestRecorderBasics(t *testing.T) {
	r := New()
	r.Record(0, isa.OpStore, mem.PMBase, 42, 10, 11)
	r.Record(1, isa.OpCLWB, mem.PMBase, 0, 12, 12)
	r.Record(0, isa.OpJoinStrand, 0, 0, 13, 300)
	evs := r.Events()
	if len(evs) != 3 {
		t.Fatalf("%d events", len(evs))
	}
	if evs[0].Kind != isa.OpStore || evs[0].Value != 42 {
		t.Errorf("first event %+v", evs[0])
	}
	if got := len(r.Filter(func(e Event) bool { return e.Core == 0 })); got != 2 {
		t.Errorf("Filter(core 0) = %d", got)
	}
	if got := len(r.Filter(func(e Event) bool { return e.Kind == isa.OpCLWB })); got != 1 {
		t.Errorf("Filter(CLWB) = %d", got)
	}
}

func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	r.Record(0, isa.OpLoad, 0, 0, 0, 0) // must not panic
	if r.Events() != nil || r.Dropped() != 0 {
		t.Error("nil recorder returned data")
	}
}

func TestRecorderLimit(t *testing.T) {
	r := New()
	r.Limit = 2
	for i := 0; i < 5; i++ {
		r.Record(0, isa.OpLoad, 0, 0, 0, 0)
	}
	if len(r.Events()) != 2 {
		t.Errorf("stored %d, want 2", len(r.Events()))
	}
	if r.Dropped() != 3 {
		t.Errorf("dropped %d, want 3", r.Dropped())
	}
}

func TestDumpSortedByStart(t *testing.T) {
	r := New()
	r.Record(0, isa.OpStore, mem.PMBase, 1, 50, 51)
	r.Record(1, isa.OpStore, mem.PMBase+64, 2, 10, 11)
	var sb strings.Builder
	r.Dump(&sb)
	out := sb.String()
	first := strings.Index(out, "core1")
	second := strings.Index(out, "core0")
	if first < 0 || second < 0 || first > second {
		t.Errorf("dump not sorted by start:\n%s", out)
	}
}

func TestEventString(t *testing.T) {
	e := Event{Core: 3, Kind: isa.OpJoinStrand, Start: 5, End: 99}
	if !strings.Contains(e.String(), "JS") || !strings.Contains(e.String(), "core3") {
		t.Errorf("event renders %q", e.String())
	}
}
