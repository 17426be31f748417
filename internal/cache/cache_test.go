package cache

import (
	"fmt"
	"testing"

	"strandweaver/internal/config"
	"strandweaver/internal/mem"
	"strandweaver/internal/pmem"
	"strandweaver/internal/sim"
)

func newHier(cfg config.Config) (*sim.Engine, *Hierarchy, *mem.Machine) {
	eng := sim.NewEngine()
	m := mem.NewMachine()
	ctrl := pmem.NewTopology(eng, cfg, m)
	return eng, NewHierarchy(eng, cfg, m, ctrl), m
}

func smallCfg() config.Config {
	cfg := config.Default()
	cfg.Cores = 2
	return cfg
}

func TestLoadMissHitLatency(t *testing.T) {
	cfg := smallCfg()
	eng, h, _ := newHier(cfg)
	line := mem.PMBase
	var t1, t2 sim.Cycle
	h.L1(0).Load(line, func() { t1 = eng.Now() })
	eng.Run(0)
	if t1 != sim.Cycle(cfg.PMReadCycles) {
		t.Errorf("cold load at %d, want PM read %d", t1, cfg.PMReadCycles)
	}
	h.L1(0).Load(line, func() { t2 = eng.Now() })
	eng.Run(0)
	if t2 != t1+sim.Cycle(cfg.L1HitCycles) {
		t.Errorf("warm load took %d, want L1 hit %d", t2-t1, cfg.L1HitCycles)
	}
}

func TestPreloadMakesL2Hit(t *testing.T) {
	cfg := smallCfg()
	eng, h, _ := newHier(cfg)
	line := mem.PMBase
	h.Preload(line)
	var at sim.Cycle
	h.L1(0).Load(line, func() { at = eng.Now() })
	eng.Run(0)
	if at != sim.Cycle(cfg.L2HitCycles) {
		t.Errorf("preloaded load at %d, want L2 hit %d", at, cfg.L2HitCycles)
	}
	st := h.Stats()
	if st.L2Hits != 1 || st.L2Misses != 0 {
		t.Errorf("stats %+v", st)
	}
}

func TestStoreMakesDirtyAndFlushPersists(t *testing.T) {
	cfg := smallCfg()
	eng, h, m := newHier(cfg)
	line := mem.PMBase
	h.Preload(line)
	h.L1(0).Store(line, func() { m.Volatile.Write64(line, 5) })
	eng.Run(0)
	if !h.L1(0).Dirty(line) {
		t.Fatal("store did not dirty the line")
	}
	done := false
	h.L1(0).Flush(line, func() { done = true })
	eng.Run(0)
	if !done {
		t.Fatal("flush did not complete")
	}
	if h.L1(0).Dirty(line) {
		t.Error("flush did not clean the line (CLWB retains a clean copy)")
	}
	if !h.L1(0).Present(line) {
		t.Error("flush evicted the line (CLWB is non-invalidating)")
	}
	if m.Persistent.Read64(line) != 5 {
		t.Error("flush did not persist the data")
	}
}

func TestFlushCleanLineIsCheap(t *testing.T) {
	cfg := smallCfg()
	eng, h, _ := newHier(cfg)
	line := mem.PMBase
	h.Preload(line)
	h.L1(0).Load(line, func() {})
	eng.Run(0)
	start := eng.Now()
	var at sim.Cycle
	h.L1(0).Flush(line, func() { at = eng.Now() })
	eng.Run(0)
	if at-start != sim.Cycle(cfg.L1HitCycles) {
		t.Errorf("clean flush took %d, want %d", at-start, cfg.L1HitCycles)
	}
	if h.Stats().FlushClean != 1 {
		t.Errorf("FlushClean = %d", h.Stats().FlushClean)
	}
}

func TestCoherenceOwnershipTransfer(t *testing.T) {
	cfg := smallCfg()
	eng, h, m := newHier(cfg)
	line := mem.PMBase
	h.Preload(line)
	h.L1(0).Store(line, func() { m.Volatile.Write64(line, 1) })
	eng.Run(0)
	// Core 1 stores: must steal ownership; core 0's copy invalidates.
	h.L1(1).Store(line, func() { m.Volatile.Write64(line, 2) })
	eng.Run(0)
	if h.L1(0).Present(line) {
		t.Error("core 0 still holds the line after read-exclusive steal")
	}
	if !h.L1(1).Dirty(line) {
		t.Error("core 1 did not obtain the line dirty")
	}
	if h.Stats().OwnershipTransfers != 1 {
		t.Errorf("OwnershipTransfers = %d", h.Stats().OwnershipTransfers)
	}
}

func TestLoadDowngradesOwner(t *testing.T) {
	cfg := smallCfg()
	eng, h, m := newHier(cfg)
	line := mem.PMBase
	h.Preload(line)
	h.L1(0).Store(line, func() { m.Volatile.Write64(line, 1) })
	eng.Run(0)
	h.L1(1).Load(line, func() {})
	eng.Run(0)
	if h.L1(0).Dirty(line) {
		t.Error("owner still dirty after downgrade")
	}
	if !h.L1(0).Present(line) || !h.L1(1).Present(line) {
		t.Error("both cores should hold shared copies")
	}
}

// gateStub implements PersistGate with manual drain control.
type gateStub struct {
	drained bool
	waiting []func()
}

func (g *gateStub) RecordTails() GateToken { return GateToken{1} }
func (g *gateStub) CallWhenDrained(t GateToken, cb func()) {
	if g.drained {
		cb()
		return
	}
	g.waiting = append(g.waiting, cb)
}
func (g *gateStub) drain() {
	g.drained = true
	for _, cb := range g.waiting {
		cb()
	}
	g.waiting = nil
}

func TestSnoopGateStallsReadExclusive(t *testing.T) {
	cfg := smallCfg()
	eng, h, m := newHier(cfg)
	g := &gateStub{}
	h.SetGate(0, g)
	line := mem.PMBase
	h.Preload(line)
	h.L1(0).Store(line, func() { m.Volatile.Write64(line, 1) })
	eng.Run(0)
	got := false
	h.L1(1).Store(line, func() { got = true })
	eng.Run(0)
	if got {
		t.Fatal("read-exclusive granted while owner's persists pending")
	}
	if h.Stats().SnoopGateWaits != 1 {
		t.Errorf("SnoopGateWaits = %d", h.Stats().SnoopGateWaits)
	}
	g.drain()
	eng.Run(0)
	if !got {
		t.Error("read-exclusive never granted after drain")
	}
}

func TestSnoopGateDoesNotStallLoads(t *testing.T) {
	cfg := smallCfg()
	eng, h, m := newHier(cfg)
	g := &gateStub{} // never drains
	h.SetGate(0, g)
	line := mem.PMBase
	h.Preload(line)
	h.L1(0).Store(line, func() { m.Volatile.Write64(line, 1) })
	eng.Run(0)
	got := false
	h.L1(1).Load(line, func() { got = true })
	eng.Run(0)
	if !got {
		t.Error("load stalled on persist gate; loads must not establish persist order (Fig. 2g)")
	}
}

func TestWritebackGating(t *testing.T) {
	cfg := smallCfg()
	cfg.L1Sets = 1
	cfg.L1Ways = 1 // every second line evicts
	eng, h, m := newHier(cfg)
	g := &gateStub{}
	h.SetGate(0, g)
	lineA := mem.PMBase
	lineB := mem.PMBase + mem.LineSize
	h.Preload(lineA)
	h.Preload(lineB)
	h.L1(0).Store(lineA, func() { m.Volatile.Write64(lineA, 1) })
	eng.Run(0)
	// Storing B evicts dirty A into the write-back buffer, which must
	// wait for the persist gate.
	h.L1(0).Store(lineB, func() { m.Volatile.Write64(lineB, 2) })
	eng.Run(0)
	if h.L1(0).InFlightWritebacks() != 1 {
		t.Fatalf("in-flight writebacks = %d, want 1 (gated)", h.L1(0).InFlightWritebacks())
	}
	g.drain()
	eng.Run(0)
	if h.L1(0).InFlightWritebacks() != 0 {
		t.Error("write-back never drained after gate release")
	}
}

func TestFlushFindsWritebackBufferData(t *testing.T) {
	cfg := smallCfg()
	cfg.L1Sets = 1
	cfg.L1Ways = 1
	eng, h, m := newHier(cfg)
	g := &gateStub{} // keeps the write-back parked
	h.SetGate(0, g)
	lineA := mem.PMBase
	lineB := mem.PMBase + mem.LineSize
	h.Preload(lineA)
	h.Preload(lineB)
	h.L1(0).Store(lineA, func() { m.Volatile.Write64(lineA, 7) })
	eng.Run(0)
	h.L1(0).Store(lineB, func() { m.Volatile.Write64(lineB, 8) })
	eng.Run(0)
	// A's dirty data is parked in the WB buffer; a flush must persist it.
	flushed := false
	h.L1(0).Flush(lineA, func() { flushed = true })
	eng.Run(0)
	if !flushed {
		t.Fatal("flush did not complete")
	}
	if m.Persistent.Read64(lineA) != 7 {
		t.Error("flush missed data in the write-back buffer")
	}
	if h.Stats().FlushWBBuffer != 1 {
		t.Errorf("FlushWBBuffer = %d", h.Stats().FlushWBBuffer)
	}
}

func TestMSHRCoalescing(t *testing.T) {
	cfg := smallCfg()
	eng, h, _ := newHier(cfg)
	line := mem.PMBase
	n := 0
	for i := 0; i < 7; i++ {
		h.L1(0).Store(line, func() { n++ })
	}
	eng.Run(0)
	if n != 7 {
		t.Fatalf("%d callbacks, want 7", n)
	}
	st := h.Stats()
	if got := h.ctrlReads(); got != 1 {
		t.Errorf("%d memory reads for 7 same-line stores, want 1 (MSHR coalescing); stats %+v", got, st)
	}
}

// TestMSHRWaiterOrder pins the completion order of coalesced misses:
// the requester first, then its waiters in arrival order. A load
// coalesces onto an outstanding load before a store, and a store never
// coalesces onto a load, so it opens its own miss behind the load's.
func TestMSHRWaiterOrder(t *testing.T) {
	eng, h, _ := newHier(smallCfg())
	line := mem.PMBase
	var order []int
	rec := func(i int) func() { return func() { order = append(order, i) } }
	l := h.L1(0)
	l.Load(line, rec(0))
	l.Load(line, rec(1))
	l.Store(line, rec(2))
	l.Load(line, rec(3))
	l.Store(line, rec(4))
	l.Load(line, rec(5))
	eng.Run(0)
	want := []int{0, 1, 3, 5, 2, 4}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Errorf("completion order %v, want %v", order, want)
	}
}

// ctrlReads reports PM reads issued by the hierarchy's controller.
func (h *Hierarchy) ctrlReads() uint64 { return h.pm.Stats().PMReads }

func TestL2EvictionPersistsDirtyPMLine(t *testing.T) {
	cfg := smallCfg()
	cfg.L1Sets = 1
	cfg.L1Ways = 1
	cfg.L2Sets = 1
	cfg.L2Ways = 2
	eng, h, m := newHier(cfg)
	lines := []mem.Addr{mem.PMBase, mem.PMBase + 64, mem.PMBase + 128, mem.PMBase + 192}
	for i, ln := range lines {
		ln, i := ln, i
		h.Preload(ln)
		h.L1(0).Store(ln, func() { m.Volatile.Write64(ln, uint64(i+1)) })
		eng.Run(0)
	}
	eng.Run(0)
	// With a 1-line L1 and 2-way single-set L2, earlier dirty lines are
	// forced out of L2 and must persist on the way.
	if h.Stats().L2Writebacks == 0 {
		t.Fatal("no L2 write-backs with tiny caches")
	}
	if m.Persistent.Read64(lines[0]) != 1 {
		t.Error("dirty line evicted from L2 did not persist")
	}
}

// TestFlushInvalidatesVariant: with FlushInvalidates (CLFLUSHOPT), the
// flushed line leaves the cache entirely; with CLWB a clean copy stays.
func TestFlushInvalidatesVariant(t *testing.T) {
	cfg := smallCfg()
	cfg.FlushInvalidates = true
	eng, h, m := newHier(cfg)
	line := mem.PMBase
	h.Preload(line)
	h.L1(0).Store(line, func() { m.Volatile.Write64(line, 5) })
	eng.Run(0)
	done := false
	h.L1(0).Flush(line, func() { done = true })
	eng.Run(0)
	if !done {
		t.Fatal("flush did not complete")
	}
	if h.L1(0).Present(line) {
		t.Error("CLFLUSHOPT variant retained the line")
	}
	if m.Persistent.Read64(line) != 5 {
		t.Error("flush did not persist")
	}
}
