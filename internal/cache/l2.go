package cache

import (
	"math/bits"

	"strandweaver/internal/mem"
)

// l2cache is the shared last-level cache. Dirty PM lines evicted from L2
// persist at the controller; dirty DRAM lines are absorbed by DRAM.
//
// Storage grows with the lines a run touches, not with the modelled
// capacity (the Table I L2 has 28672 sets; a fuzz schedule touches about
// a hundred of them):
//
//   - Each set's lines sit in one block carved from an arena. A set
//     starts with a two-line block (the Fig 7/8 grid puts one to three
//     lines in every set); a full block moves to one twice its size
//     (capped at ways), copying only that set's lines, and the old
//     block goes on the free list of its size class for the next set
//     that grows into it.
//   - The arena is a list of small fixed-size chunks, added as blocks
//     are carved and never moved, so a block's offset stays valid for
//     the run and no growth copies another set's lines.
//   - A set's index entry (block offset, line count, block capacity)
//     lives in a chunk of setChunk entries allocated on the chunk's
//     first install, so building the cache allocates nothing at all.
//
// Within a set, lines are appended at the end and replaced in place on
// eviction. Every lru stamp is unique, so the victim (the least recently
// installed or hit line) does not depend on that order.
type l2cache struct {
	nsets int
	ways  uint32
	tick  uint64

	// index[i] holds sets [i*setChunk, (i+1)*setChunk); nil until one
	// of them is first installed into. The table itself is allocated
	// on the first install.
	index []*[setChunk]l2Set
	// arena holds chunks of 1<<chunkShift lines; next is the first
	// unused offset of the newest chunk.
	arena      [][]l2Line
	chunkShift uint
	next       uint32
	// free[c] heads the free list of size class c (see sizeClass) as
	// offset+1, 0 for empty. A free block's first line holds the link
	// to the next (in its line field).
	free [33]uint32
}

// setChunk is the number of set-index entries allocated together.
const setChunk = 64

// arenaChunkShift sizes arena chunks at 256 lines (6 KiB), about what a
// fuzz schedule touches. Chunks are larger only when one set's ways
// need more.
const arenaChunkShift = 8

// l2Set locates one set's block in the arena.
type l2Set struct {
	off uint32 // arena offset of the block
	n   uint32 // resident lines
	cap uint32 // block capacity in lines; 0 before the first install
}

type l2Line struct {
	line  mem.Addr
	dirty bool
	lru   uint64
}

func newL2(sets, ways int) *l2cache {
	c := &l2cache{nsets: sets, ways: uint32(ways), chunkShift: arenaChunkShift}
	for 1<<c.chunkShift < ways {
		c.chunkShift++
	}
	return c
}

func (c *l2cache) setIndex(line mem.Addr) int {
	return int((uint64(line) >> mem.LineShift) % uint64(c.nsets))
}

// set returns line's set entry, or nil when its index chunk was never
// allocated (so the set is empty).
func (c *l2cache) set(line mem.Addr) *l2Set {
	if c.index == nil {
		return nil
	}
	i := c.setIndex(line)
	chunk := c.index[i/setChunk]
	if chunk == nil {
		return nil
	}
	return &chunk[i%setChunk]
}

// setFor is set, allocating the index table and chunk on first use.
func (c *l2cache) setFor(line mem.Addr) *l2Set {
	if c.index == nil {
		c.index = make([]*[setChunk]l2Set, (c.nsets+setChunk-1)/setChunk)
	}
	i := c.setIndex(line)
	chunk := c.index[i/setChunk]
	if chunk == nil {
		chunk = new([setChunk]l2Set)
		c.index[i/setChunk] = chunk
	}
	return &chunk[i%setChunk]
}

// block returns the n lines at arena offset off.
func (c *l2cache) block(off, n uint32) []l2Line {
	i := off & (1<<c.chunkShift - 1)
	return c.arena[off>>c.chunkShift][i : i+n : i+n]
}

// lines returns s's resident lines.
func (c *l2cache) lines(s *l2Set) []l2Line {
	if s.n == 0 {
		return nil
	}
	return c.block(s.off, s.n)
}

// sizeClass maps a block capacity to its free-list index. Capacities
// are powers of two, plus ways itself when ways is not one, so the map
// is one-to-one.
func sizeClass(capacity uint32) int { return bits.Len32(capacity - 1) }

// carve returns the offset of a free block of the given capacity,
// reusing a freed block of that size when there is one.
func (c *l2cache) carve(capacity uint32) uint32 {
	cls := sizeClass(capacity)
	if head := c.free[cls]; head != 0 {
		off := head - 1
		c.free[cls] = uint32(c.block(off, 1)[0].line)
		return off
	}
	// A block never straddles chunks: when the newest chunk cannot hold
	// it, its tail (fewer than ways lines) is left unused.
	if end := uint32(len(c.arena)) << c.chunkShift; c.next+capacity > end {
		c.arena = append(c.arena, make([]l2Line, 1<<c.chunkShift))
		c.next = end
	}
	off := c.next
	c.next += capacity
	return off
}

// release puts the block at off on its size class's free list.
func (c *l2cache) release(off, capacity uint32) {
	cls := sizeClass(capacity)
	c.block(off, 1)[0].line = mem.Addr(c.free[cls])
	c.free[cls] = off + 1
}

// grow moves s to a block twice its capacity (two lines for a set's
// first block, at most ways).
func (c *l2cache) grow(s *l2Set) {
	capacity := min(max(2*s.cap, 2), c.ways)
	off := c.carve(capacity)
	if s.cap > 0 {
		copy(c.block(off, s.n), c.lines(s))
		c.release(s.off, s.cap)
	}
	s.off, s.cap = off, capacity
}

func (c *l2cache) find(line mem.Addr) *l2Line {
	s := c.set(line)
	if s == nil {
		return nil
	}
	set := c.lines(s)
	for i := range set {
		if set[i].line == line {
			return &set[i]
		}
	}
	return nil
}

func (c *l2cache) present(line mem.Addr) bool { return c.find(line) != nil }

func (c *l2cache) dirty(line mem.Addr) bool {
	e := c.find(line)
	return e != nil && e.dirty
}

func (c *l2cache) clean(line mem.Addr) {
	if e := c.find(line); e != nil {
		e.dirty = false
	}
}

// install places line in the L2 (possibly already present, in which case
// dirty status is merged). When a full set evicts, install returns the
// victim and evicted=true; the caller writes a dirty victim back.
func (c *l2cache) install(line mem.Addr, dirty bool) (victim l2Line, evicted bool) {
	c.tick++
	s := c.setFor(line)
	set := c.lines(s)
	for i := range set {
		if set[i].line == line {
			set[i].dirty = set[i].dirty || dirty
			set[i].lru = c.tick
			return l2Line{}, false
		}
	}
	if s.n < c.ways {
		if s.n == s.cap {
			c.grow(s)
		}
		s.n++
		c.lines(s)[s.n-1] = l2Line{line: line, dirty: dirty, lru: c.tick}
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

// l2Install installs line in the L2 and writes back a dirty victim:
// a PM line persists at its controller, a DRAM line drains to DRAM.
func (h *Hierarchy) l2Install(line mem.Addr, dirty bool) {
	v, evicted := h.l2.install(line, dirty)
	if !evicted || !v.dirty {
		return
	}
	h.stats.L2Writebacks++
	if mem.IsPM(v.line) {
		var data [mem.LineSize]byte
		h.machine.Volatile.CopyLine(v.line, &data)
		h.pm.SubmitPMWrite(v.line, data, nil)
	} else {
		h.pm.SubmitDRAMWrite(v.line)
	}
}
