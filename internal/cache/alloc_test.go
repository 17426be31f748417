package cache

import (
	"runtime"
	"testing"

	"strandweaver/internal/config"
	"strandweaver/internal/mem"
)

// reusableGate is a PersistGate whose token and wait list are reused,
// so the cache's own allocations are all an alloc pin sees.
type reusableGate struct {
	tok     GateToken
	waiting []func()
}

func (g *reusableGate) RecordTails() GateToken { return g.tok }
func (g *reusableGate) CallWhenDrained(_ GateToken, cb func()) {
	g.waiting = append(g.waiting, cb)
}
func (g *reusableGate) drain() {
	for i, cb := range g.waiting {
		cb()
		g.waiting[i] = nil
	}
	g.waiting = g.waiting[:0]
}

// pinZeroAllocs runs body a few times to warm pools and queues, then
// requires it to allocate nothing.
func pinZeroAllocs(t *testing.T, name string, body func()) {
	t.Helper()
	for i := 0; i < 16; i++ {
		body()
	}
	if n := testing.AllocsPerRun(200, body); n != 0 {
		t.Errorf("%s: %.2f allocs per run, want 0", name, n)
	}
}

// TestAccessPathsAllocateNothing pins the steady-state load, store,
// flush and write-back paths at zero heap allocations.
func TestAccessPathsAllocateNothing(t *testing.T) {
	noop := func() {}
	lineA := mem.PMBase
	lineB := mem.PMBase + mem.LineSize
	lineC := mem.PMBase + 2*mem.LineSize

	t.Run("L1 hit", func(t *testing.T) {
		eng, h, _ := newHier(smallCfg())
		h.L1(0).Load(lineA, noop)
		eng.Run(0)
		pinZeroAllocs(t, "L1 hit", func() {
			h.L1(0).Load(lineA, noop)
			h.L1(0).Store(lineA, noop)
			eng.Run(0)
		})
	})

	// One-line L1 and L2 over three lines: every access misses both
	// levels and fills from PM.
	tiny := smallCfg()
	tiny.L1Sets, tiny.L1Ways, tiny.L2Sets, tiny.L2Ways = 1, 1, 1, 1
	cycle := []mem.Addr{lineA, lineB, lineC}

	t.Run("cold miss fill", func(t *testing.T) {
		eng, h, _ := newHier(tiny)
		i := 0
		pinZeroAllocs(t, "cold miss fill", func() {
			h.L1(0).Load(cycle[i%3], noop)
			i++
			eng.Run(0)
		})
		if h.Stats().L2Misses == 0 {
			t.Error("no L2 misses: the loop never filled from memory")
		}
	})

	t.Run("coalesced miss", func(t *testing.T) {
		eng, h, _ := newHier(tiny)
		i := 0
		pinZeroAllocs(t, "coalesced miss", func() {
			line := cycle[i%3]
			i++
			h.L1(0).Store(line, noop)
			h.L1(0).Store(line, noop)
			h.L1(0).Load(line, noop)
			eng.Run(0)
		})
		if st := h.Stats(); st.L1Misses != 3*h.ctrlReads() {
			t.Errorf("%d L1 misses for %d memory reads; want three requests per fill", st.L1Misses, h.ctrlReads())
		}
	})

	t.Run("remote-owner transfer", func(t *testing.T) {
		eng, h, _ := newHier(smallCfg())
		h.Preload(lineA)
		i := 0
		pinZeroAllocs(t, "remote-owner transfer", func() {
			h.L1(i%2).Store(lineA, noop)
			i++
			eng.Run(0)
		})
		if h.Stats().OwnershipTransfers == 0 {
			t.Error("no ownership transfers")
		}
	})

	t.Run("dirty flush", func(t *testing.T) {
		eng, h, _ := newHier(smallCfg())
		pinZeroAllocs(t, "dirty flush", func() {
			h.L1(0).Store(lineA, noop)
			eng.Run(0)
			h.L1(0).Flush(lineA, noop)
			eng.Run(0)
		})
		if h.Stats().FlushL1Dirty == 0 {
			t.Error("no dirty flushes")
		}
	})

	t.Run("gated write-back", func(t *testing.T) {
		cfg := smallCfg()
		cfg.L1Sets, cfg.L1Ways = 1, 1
		eng, h, _ := newHier(cfg)
		g := &reusableGate{tok: GateToken{1}}
		h.SetGate(0, g)
		i := 0
		pinZeroAllocs(t, "gated write-back", func() {
			h.L1(0).Store(cycle[i%3], noop)
			i++
			eng.Run(0)
			g.drain()
			eng.Run(0)
		})
		if h.Stats().WritebackGateWaits == 0 {
			t.Error("no gated write-backs")
		}
	})
}

// TestNewHierarchyCostIndependentOfL2Size pins that building a
// hierarchy allocates O(cores) bytes: the Table I L2 (28672 sets) may
// cost at most 10% more to build than a 512-set one.
func TestNewHierarchyCostIndependentOfL2Size(t *testing.T) {
	eng, h, m := newHier(config.Default())
	bytesPerBuild := func(sets int) uint64 {
		cfg := config.Default()
		cfg.L2Sets = sets
		const builds = 50
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < builds; i++ {
			NewHierarchy(eng, cfg, m, h.pm)
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / builds
	}
	small, big := bytesPerBuild(512), bytesPerBuild(28672)
	if float64(big) > 1.1*float64(small) {
		t.Errorf("NewHierarchy allocates %d B at 28672 L2 sets, %d B at 512; want within 10%%", big, small)
	}
}
