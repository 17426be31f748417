package cache

import (
	"math/rand"
	"testing"

	"strandweaver/internal/mem"
)

// refL2 is the L2 as a plain slice of sets grown by append: the
// reference the arena-backed l2cache must answer identically to.
type refL2 struct {
	sets [][]l2Line
	ways int
	tick uint64
}

// refWrite is one write-back the reference issues for a dirty victim.
type refWrite struct {
	line mem.Addr
	pm   bool
}

func (c *refL2) find(line mem.Addr) *l2Line {
	set := c.sets[int((uint64(line)>>mem.LineShift)%uint64(len(c.sets)))]
	for i := range set {
		if set[i].line == line {
			return &set[i]
		}
	}
	return nil
}

func (c *refL2) install(line mem.Addr, dirty bool) (victim l2Line, evicted bool) {
	c.tick++
	if e := c.find(line); e != nil {
		e.dirty = e.dirty || dirty
		e.lru = c.tick
		return l2Line{}, false
	}
	idx := int((uint64(line) >> mem.LineShift) % uint64(len(c.sets)))
	set := c.sets[idx]
	if len(set) < c.ways {
		c.sets[idx] = append(set, l2Line{line: line, dirty: dirty, lru: c.tick})
		return l2Line{}, false
	}
	v := 0
	for i := range set {
		if set[i].lru < set[v].lru {
			v = i
		}
	}
	victim = set[v]
	set[v] = l2Line{line: line, dirty: dirty, lru: c.tick}
	return victim, true
}

// linePool returns n distinct lines, alternating PM and DRAM so
// write-backs of both kinds occur.
func linePool(n int) []mem.Addr {
	lines := make([]mem.Addr, n)
	for i := range lines {
		if i%2 == 0 {
			lines[i] = mem.PMBase + mem.Addr(i*mem.LineSize)
		} else {
			lines[i] = mem.DRAMBase + mem.Addr(i*mem.LineSize)
		}
	}
	return lines
}

// TestL2MatchesReference drives the arena-backed L2 and the reference
// with the same random install/clean sequence on tiny geometries and
// requires identical present/dirty answers, victims, write-back counts
// and write-back submissions. 2 sets x 16 ways grows blocks through
// every capacity (2, 4, 8, 16); 4 sets x 3 ways caps a block at a
// capacity that is not a power of two; 2 sets x 300 ways needs arena
// chunks larger than the default to hold a full set.
func TestL2MatchesReference(t *testing.T) {
	for _, g := range []struct{ sets, ways, lines int }{
		{4, 3, 24},
		{2, 16, 48},
		{1, 1, 4},
		{2, 300, 900},
	} {
		cfg := smallCfg()
		cfg.L2Sets, cfg.L2Ways = g.sets, g.ways
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			bare := newL2(g.sets, g.ways)
			ref := &refL2{sets: make([][]l2Line, g.sets), ways: g.ways}
			_, h, _ := newHier(cfg)
			lines := linePool(g.lines)
			var wantWrites []refWrite
			var pmSeen, dramSeen int
			for step := 0; step < 4000; step++ {
				line := lines[rng.Intn(len(lines))]
				switch op := rng.Intn(10); {
				case op < 6:
					dirty := rng.Intn(2) == 0
					v, ev := bare.install(line, dirty)
					rv, rev := ref.install(line, dirty)
					if v != rv || ev != rev {
						t.Fatalf("%dx%d seed %d step %d: install %#x victim %+v/%v, reference %+v/%v",
							g.sets, g.ways, seed, step, line, v, ev, rv, rev)
					}
					if rev && rv.dirty {
						wantWrites = append(wantWrites, refWrite{rv.line, mem.IsPM(rv.line)})
					}
					h.l2Install(line, dirty)
				case op < 8:
					bare.clean(line)
					if e := ref.find(line); e != nil {
						e.dirty = false
					}
					h.l2.clean(line)
				}
				for _, probe := range []mem.Addr{line, lines[rng.Intn(len(lines))]} {
					re := ref.find(probe)
					wantPresent, wantDirty := re != nil, re != nil && re.dirty
					for name, c := range map[string]*l2cache{"bare": bare, "hierarchy": h.l2} {
						if c.present(probe) != wantPresent || c.dirty(probe) != wantDirty {
							t.Fatalf("%dx%d seed %d step %d: %s L2 %#x present/dirty %v/%v, reference %v/%v",
								g.sets, g.ways, seed, step, name, probe, c.present(probe), c.dirty(probe), wantPresent, wantDirty)
						}
					}
				}
				// At most one write-back per step, so comparing after
				// every step pins the submission order across kinds.
				pm := h.pm.Controller(0).UnacceptedWrites()
				dram := int(h.pm.Stats().DRAMWrites)
				for _, w := range wantWrites[pmSeen+dramSeen:] {
					if w.pm {
						if len(pm) <= pmSeen || pm[pmSeen].Line != w.line {
							t.Fatalf("%dx%d seed %d step %d: PM write-back of %#x not submitted next", g.sets, g.ways, seed, step, w.line)
						}
						pmSeen++
					} else {
						if dram <= dramSeen {
							t.Fatalf("%dx%d seed %d step %d: DRAM write-back of %#x not submitted next", g.sets, g.ways, seed, step, w.line)
						}
						dramSeen++
					}
				}
				if len(pm) != pmSeen || dram != dramSeen {
					t.Fatalf("%dx%d seed %d step %d: %d PM / %d DRAM write-backs, reference %d / %d",
						g.sets, g.ways, seed, step, len(pm), dram, pmSeen, dramSeen)
				}
			}
			if got, want := h.Stats().L2Writebacks, uint64(len(wantWrites)); got != want {
				t.Errorf("%dx%d seed %d: L2Writebacks %d, reference %d", g.sets, g.ways, seed, got, want)
			}
			if len(wantWrites) == 0 && g.lines > g.sets*g.ways {
				t.Errorf("%dx%d seed %d: no write-backs; the sequence never evicted a dirty line", g.sets, g.ways, seed)
			}
		}
	}
}

// refL1 is the L1 as a slice of sets grown by append, with the
// victim choice and swap-with-last drop of the fixed-geometry L1.
type refL1 struct {
	sets       [][]l1Line
	ways       int
	tick       uint64
	writebacks uint64
}

func (c *refL1) set(line mem.Addr) int {
	return int((uint64(line) >> mem.LineShift) % uint64(len(c.sets)))
}

func (c *refL1) find(line mem.Addr) *l1Line {
	set := c.sets[c.set(line)]
	for i := range set {
		if set[i].line == line {
			return &set[i]
		}
	}
	return nil
}

func (c *refL1) install(line mem.Addr, dirty bool) {
	c.tick++
	if e := c.find(line); e != nil {
		e.dirty = e.dirty || dirty
		e.lru = c.tick
		return
	}
	idx := c.set(line)
	set := c.sets[idx]
	if len(set) < c.ways {
		c.sets[idx] = append(set, l1Line{line: line, dirty: dirty, lru: c.tick})
		return
	}
	v := 0
	for i := range set {
		if set[i].lru < set[v].lru {
			v = i
		}
	}
	if set[v].dirty {
		c.writebacks++
	}
	set[v] = l1Line{line: line, dirty: dirty, lru: c.tick}
}

func (c *refL1) drop(line mem.Addr) {
	idx := c.set(line)
	set := c.sets[idx]
	for i := range set {
		if set[i].line == line {
			set[i] = set[len(set)-1]
			c.sets[idx] = set[:len(set)-1]
			return
		}
	}
}

// TestL1LRUMatchesReference drives one L1 of a 2-set, 2-way geometry
// and the reference with the same install/drop sequence and requires
// the same resident lines, dirty bits and write-back count after every
// step.
func TestL1LRUMatchesReference(t *testing.T) {
	cfg := smallCfg()
	cfg.L1Sets, cfg.L1Ways = 2, 2
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		_, h, _ := newHier(cfg)
		l := h.L1(0)
		ref := &refL1{sets: make([][]l1Line, cfg.L1Sets), ways: cfg.L1Ways}
		lines := linePool(9)
		for step := 0; step < 3000; step++ {
			line := lines[rng.Intn(len(lines))]
			if rng.Intn(4) == 0 {
				l.drop(line)
				ref.drop(line)
			} else {
				dirty := rng.Intn(2) == 0
				l.install(line, dirty)
				ref.install(line, dirty)
			}
			for _, probe := range lines {
				re := ref.find(probe)
				if l.Present(probe) != (re != nil) || l.Dirty(probe) != (re != nil && re.dirty) {
					t.Fatalf("seed %d step %d: L1 %#x present/dirty %v/%v, reference %v/%v",
						seed, step, probe, l.Present(probe), l.Dirty(probe), re != nil, re != nil && re.dirty)
				}
			}
			if got := h.Stats().L1Writebacks; got != ref.writebacks {
				t.Fatalf("seed %d step %d: L1Writebacks %d, reference %d", seed, step, got, ref.writebacks)
			}
		}
	}
}

// TestL2ArenaReusesFreedBlocks checks that a set outgrowing its block
// leaves the block for the next set of that size: after 100 sets grow
// from two-line to four-line blocks, 100 new sets carve nothing.
func TestL2ArenaReusesFreedBlocks(t *testing.T) {
	const sets = 200
	c := newL2(sets, 16)
	addr := func(set, k int) mem.Addr { return mem.PMBase + mem.Addr((k*sets+set)*mem.LineSize) }
	for k := 0; k < 3; k++ {
		for s := 0; s < sets/2; s++ {
			c.install(addr(s, k), false)
		}
	}
	carved := c.next
	if carved != 3*sets {
		t.Errorf("100 three-line sets carved %d lines, want 600 (100 two-line and 100 four-line blocks)", carved)
	}
	for s := sets / 2; s < sets; s++ {
		c.install(addr(s, 0), false)
	}
	if c.next != carved {
		t.Errorf("new sets grew the arena from %d to %d lines instead of reusing freed blocks", carved, c.next)
	}
}
