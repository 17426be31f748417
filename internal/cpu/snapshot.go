package cpu

import (
	"math/rand"

	"strandweaver/internal/backend"
)

// backoffJitter draws one lock-backoff jitter value, counting the draw
// so Restore can replay the generator to the same position. The
// generator is seeded on the first draw: most runs never contend for a
// lock, and seeding a math/rand source is costly next to building a
// core.
func (c *Core) backoffJitter() int {
	if c.rng == nil {
		c.rng = newJitterRNG(c.id)
	}
	c.rngDraws++
	return c.rng.Intn(8)
}

// newJitterRNG returns core id's backoff-jitter generator.
func newJitterRNG(id int) *rand.Rand {
	return rand.New(rand.NewSource(int64(id)*7919 + 12345))
}

// CoreState is a checkpoint of one core's architectural state: the
// program-order sequence counter, the operation counters, the rng
// stream position, the store-queue statistics, and the persist
// backend's design-specific state.
//
// Store-queue *entries* are deliberately not captured: they are stores
// that never became globally visible — volatile CPU state a power cut
// destroys — and their values can never reach a crash image. The
// workload coroutine itself (the core's program counter, so to speak)
// is likewise uncapturable and out of scope; see docs/SNAPSHOT.md for
// what a restored core is contracted to answer.
type CoreState struct {
	Seq      uint64
	RngDraws uint64
	Stats    Stats
	// Store-queue statistics (the queue itself restores empty).
	SQMaxOccupancy int
	SQDrained      uint64
	// Backend is the design-specific state from backend.Snapshotter.
	Backend any
}

// Snapshot captures the core's architectural state. It panics if the
// core's backend does not implement backend.Snapshotter — every
// in-tree design does; a new design must before snapshot sweeps can
// cover it.
func (c *Core) Snapshot() *CoreState {
	snap, ok := c.be.(backend.Snapshotter)
	if !ok {
		panic("cpu: backend " + string(c.be.Design()) + " does not implement backend.Snapshotter (see docs/SNAPSHOT.md)")
	}
	return &CoreState{
		Seq:            c.seq,
		RngDraws:       c.rngDraws,
		Stats:          c.stats,
		SQMaxOccupancy: c.sq.stats.maxOccupancy,
		SQDrained:      c.sq.stats.drained,
		Backend:        snap.SnapshotState(),
	}
}

// Restore rewinds the core to a previously captured state. The store
// queue restores empty (see CoreState); the rng is rebuilt from the
// core's deterministic seed and replayed to the captured draw count
// (left for the next draw to seed when the count is zero);
// the blocked-operation slot clears — any in-flight memory operation
// was destroyed with the engine's event queue.
func (c *Core) Restore(s *CoreState) {
	c.seq = s.Seq
	c.stats = s.Stats
	c.sq.restoreEmpty(sqStats{maxOccupancy: s.SQMaxOccupancy, drained: s.SQDrained})
	c.rng = nil
	if s.RngDraws > 0 {
		c.rng = newJitterRNG(c.id)
		for i := uint64(0); i < s.RngDraws; i++ {
			c.rng.Intn(8)
		}
	}
	c.rngDraws = s.RngDraws
	c.opDone = false
	c.kickQueued = false
	c.co = nil
	c.be.(backend.Snapshotter).RestoreState(s.Backend)
}

// restoreEmpty drops every queued store (volatile state lost at the
// cut), recycling entries, and installs the captured statistics.
func (q *storeQueue) restoreEmpty(st sqStats) {
	for _, e := range q.buf[q.head:] {
		*e = sqEntry{drainFn: e.drainFn}
		q.free = append(q.free, e)
	}
	for i := range q.buf {
		q.buf[i] = nil
	}
	q.buf = q.buf[:0]
	q.head = 0
	q.busy = false
	q.stats = st
}
