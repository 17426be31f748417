// Package cache models the two-level write-back cache hierarchy of the
// simulated machine: per-core L1 data caches, a shared L2, a MESI-style
// directory, per-core write-back buffers, and the snoop-side persist
// gating that StrandWeaver adds for strong persist atomicity (paper
// Section IV, "Managing cache writebacks" and "Enabling inter-thread
// persist order").
//
// The hierarchy is a timing model layered over the functional memory
// images in package mem: line *values* always come from the volatile
// image at the moment a flush or write-back is submitted, which matches
// real hardware where the payload travels with the message.
//
// A machine costs what its run touches. NewHierarchy allocates O(cores)
// whatever the modelled capacity: L2 sets live in a chunked arena and
// the directory in lazily allocated pages, both growing with the lines
// the run touches, and an L1's fixed-geometry arrays appear on its
// first fill. In steady state the load, store, flush and write-back
// paths allocate nothing: outstanding misses, flushes and write-back
// drains are pooled slots whose continuations are bound once. See
// docs/ARCHITECTURE.md, "Cache storage".
package cache

import (
	"fmt"

	"strandweaver/internal/config"
	"strandweaver/internal/mem"
	"strandweaver/internal/pmem"
	"strandweaver/internal/sim"
)

// GateToken captures a snapshot of in-flight persist work (per-strand-
// buffer tail indexes in StrandWeaver's write-back and snoop buffers).
type GateToken []uint64

// PersistGate is implemented by per-core persist hardware (the strand
// buffer unit, or the HOPS persist buffer) so the cache can honour the
// paper's write-back and coherence ordering rules: a gated action waits
// until all persist work present at record time has drained.
type PersistGate interface {
	// RecordTails snapshots the hardware's current tail indexes.
	RecordTails() GateToken
	// CallWhenDrained invokes cb (possibly immediately) once every
	// operation captured by the token has completed and retired.
	CallWhenDrained(t GateToken, cb func())
}

const noOwner = -1

// dirEntry is the directory's view of one cache line.
type dirEntry struct {
	// owner is the core holding the line in M/E state, or noOwner.
	owner int
	// ownerDirty reports whether the owner's copy is dirty.
	ownerDirty bool
	// sharers is a bitmask of cores holding the line in S state.
	sharers uint64
}

// dirPageLines is the number of lines one directory page covers.
const dirPageLines = 64

// dirPage holds the directory entries of dirPageLines consecutive lines.
type dirPage [dirPageLines]dirEntry

// directory is the coherence directory: a table of pages of inline
// entries, allocated as a run first touches their lines (the same page
// idea as mem.Image), with the last-resolved page cached. An entry's
// address never changes once its page exists, so the miss paths hold
// *dirEntry across asynchronous completions.
type directory struct {
	pages   map[mem.Addr]*dirPage
	hotBase mem.Addr
	hot     *dirPage
}

// entry returns line's directory entry, creating its page on first use.
func (d *directory) entry(line mem.Addr) *dirEntry {
	n := uint64(line) >> mem.LineShift
	base := mem.Addr(n &^ (dirPageLines - 1))
	if d.hot == nil || d.hotBase != base {
		p := d.pages[base]
		if p == nil {
			if d.pages == nil {
				d.pages = make(map[mem.Addr]*dirPage)
			}
			p = new(dirPage)
			for i := range p {
				p[i].owner = noOwner
			}
			d.pages[base] = p
		}
		d.hotBase, d.hot = base, p
	}
	return &d.hot[n%dirPageLines]
}

// Hierarchy is the shared cache system: L2, directory, and one L1 per
// core.
type Hierarchy struct {
	eng     *sim.Engine
	cfg     config.Config
	machine *mem.Machine
	pm      *pmem.Topology

	dir directory
	l2  *l2cache
	l1s []*L1

	// gates[i] is core i's persist gate (nil when the design has none).
	gates []PersistGate

	stats HierStats
}

// HierStats aggregates hierarchy-wide counters.
type HierStats struct {
	L1Hits, L1Misses   uint64
	L2Hits, L2Misses   uint64
	Upgrades           uint64
	OwnershipTransfers uint64
	L1Writebacks       uint64
	L2Writebacks       uint64
	Flushes            uint64
	FlushL1Dirty       uint64
	FlushL2Dirty       uint64
	FlushClean         uint64
	FlushRemote        uint64
	FlushWBBuffer      uint64
	SnoopGateWaits     uint64
	WritebackGateWaits uint64
}

// NewHierarchy builds the cache system for cfg.Cores cores. All memory
// traffic below the caches — fills, flushes, write-backs — routes
// through the PM topology, which interleaves lines across its
// controllers. It allocates O(cores): cache and directory storage
// appear as the run touches lines.
func NewHierarchy(eng *sim.Engine, cfg config.Config, machine *mem.Machine, pm *pmem.Topology) *Hierarchy {
	h := &Hierarchy{
		eng:     eng,
		cfg:     cfg,
		machine: machine,
		pm:      pm,
		l2:      newL2(cfg.L2Sets, cfg.L2Ways),
		l1s:     make([]*L1, cfg.Cores),
		gates:   make([]PersistGate, cfg.Cores),
	}
	for i := range h.l1s {
		h.l1s[i] = newL1(h, i)
	}
	return h
}

// L1 returns core i's L1 cache.
func (h *Hierarchy) L1(core int) *L1 { return h.l1s[core] }

// SetGate registers core's persist gate; pass nil for designs without
// write-back/snoop persist gating.
func (h *Hierarchy) SetGate(core int, g PersistGate) { h.gates[core] = g }

// Stats returns a copy of the hierarchy counters.
func (h *Hierarchy) Stats() HierStats { return h.stats }

// Preload installs line clean into the shared L2, modelling state warmed
// by a setup phase that is not part of the measured run.
func (h *Hierarchy) Preload(line mem.Addr) {
	if mem.LineOffset(line) != 0 {
		panic("cache: Preload of unaligned address")
	}
	h.l2Install(line, false)
}

func (h *Hierarchy) after(d uint64, fn func()) { h.eng.Schedule(sim.Cycle(d), fn) }

// --- L1 ---

type l1Line struct {
	line  mem.Addr
	dirty bool
	// lru is a monotonically increasing last-use stamp.
	lru uint64
}

// L1 is one core's private data cache.
type L1 struct {
	h    *Hierarchy
	core int
	ways int
	// lines holds set s in lines[s*ways : s*ways+count[s]]; both arrays
	// are allocated on the first install.
	lines []l1Line
	count []int32
	tick  uint64
	wb    writebackBuffer
	// mshrs are the outstanding misses, found by line and kind so
	// same-line requests coalesce (see mshr); freeMSHRs recycles
	// retired slots.
	mshrs     []*mshr
	freeMSHRs []*mshr
	freeFlush []*flushOp
}

func newL1(h *Hierarchy, core int) *L1 {
	l1 := &L1{h: h, core: core, ways: h.cfg.L1Ways}
	l1.wb.l1 = l1
	return l1
}

func (l *L1) setIndex(line mem.Addr) int {
	return int((uint64(line) >> mem.LineShift) % uint64(l.h.cfg.L1Sets))
}

// set returns set idx's resident lines.
func (l *L1) set(idx int) []l1Line {
	base := idx * l.ways
	return l.lines[base : base+int(l.count[idx])]
}

func (l *L1) lookup(line mem.Addr) *l1Line {
	if l.lines == nil {
		return nil
	}
	set := l.set(l.setIndex(line))
	for i := range set {
		if set[i].line == line {
			return &set[i]
		}
	}
	return nil
}

func (l *L1) touch(e *l1Line) {
	l.tick++
	e.lru = l.tick
}

// install places line in the cache (evicting if needed) and returns its
// slot; if the line is already resident the existing slot is updated
// (dirty status merges). Dirty victims enter the write-back buffer.
func (l *L1) install(line mem.Addr, dirty bool) *l1Line {
	if e := l.lookup(line); e != nil {
		e.dirty = e.dirty || dirty
		l.touch(e)
		return e
	}
	if l.lines == nil {
		l.lines = make([]l1Line, l.h.cfg.L1Sets*l.ways)
		l.count = make([]int32, l.h.cfg.L1Sets)
	}
	idx := l.setIndex(line)
	if n := int(l.count[idx]); n < l.ways {
		l.count[idx]++
		e := &l.lines[idx*l.ways+n]
		*e = l1Line{line: line, dirty: dirty}
		l.touch(e)
		return e
	}
	// Evict LRU.
	set := l.set(idx)
	victim := 0
	for i := range set {
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	l.evict(&set[victim])
	set[victim] = l1Line{line: line, dirty: dirty}
	e := &set[victim]
	l.touch(e)
	return e
}

// evict removes e's line from this L1, sending dirty data through the
// write-back buffer and updating the directory.
func (l *L1) evict(e *l1Line) {
	de := l.h.dir.entry(e.line)
	if de.owner == l.core {
		de.owner = noOwner
		de.ownerDirty = false
	}
	de.sharers &^= 1 << uint(l.core)
	if e.dirty {
		l.h.stats.L1Writebacks++
		l.wb.push(e.line)
	} else if !l.h.l2.present(e.line) {
		// Keep a clean copy in L2 so a later reference is an L2 hit;
		// clean fills never persist.
		l.h.l2Install(e.line, false)
	}
}

// drop removes line from the L1 arrays without write-back (used on
// invalidation; the dirty payload conceptually travels with the
// coherence reply).
func (l *L1) drop(line mem.Addr) {
	if l.lines == nil {
		return
	}
	idx := l.setIndex(line)
	set := l.set(idx)
	for i := range set {
		if set[i].line == line {
			set[i] = set[len(set)-1]
			l.count[idx]--
			return
		}
	}
}

// Present reports whether line is resident in this L1 (any state).
func (l *L1) Present(line mem.Addr) bool { return l.lookup(line) != nil }

// Dirty reports whether line is resident dirty in this L1.
func (l *L1) Dirty(line mem.Addr) bool {
	e := l.lookup(line)
	return e != nil && e.dirty
}

func (l *L1) String() string { return fmt.Sprintf("L1[core %d]", l.core) }
