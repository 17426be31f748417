package cache

import "strandweaver/internal/mem"

// mshr is one outstanding L1 miss (MSHR semantics): the first requester
// drives the fill, and later same-line requests piggyback on its
// completion as waiters. A load miss coalesces onto a load or store
// slot for its line; a store miss only onto a store slot, since only an
// exclusive fill satisfies it. Slots come from a per-L1 pool that grows
// on demand (the core bounds its own outstanding misses), and each
// binds its continuations once, so a miss allocates nothing once the
// pool is warm.
type mshr struct {
	l     *L1
	line  mem.Addr
	store bool
	de    *dirEntry
	// remote is the owning core a read-exclusive steals from.
	remote int
	// req is the requester's callback; waiters fire after it, in
	// arrival order.
	req     func()
	waiters []func()

	doneFn, fillFn, finishFn, transferFn, readDoneFn func()
}

// pending returns the outstanding miss for line of the given kind.
func (l *L1) pending(line mem.Addr, store bool) *mshr {
	for _, m := range l.mshrs {
		if m.line == line && m.store == store {
			return m
		}
	}
	return nil
}

// startMiss opens a slot for a miss on line whose completion calls req.
func (l *L1) startMiss(line mem.Addr, store bool, req func()) *mshr {
	var m *mshr
	if n := len(l.freeMSHRs); n > 0 {
		m = l.freeMSHRs[n-1]
		l.freeMSHRs = l.freeMSHRs[:n-1]
	} else {
		m = &mshr{l: l}
		m.doneFn = m.done
		m.fillFn = m.fill
		m.finishFn = m.finish
		m.transferFn = m.transfer
		m.readDoneFn = m.readDone
	}
	m.line, m.store, m.req = line, store, req
	m.de = l.h.dir.entry(line)
	l.mshrs = append(l.mshrs, m)
	return m
}

// done retires the slot and fires the requester, then the waiters. The
// slot is unfindable before any callback runs, so a same-line request
// made from a callback opens a new miss; it returns to the pool only
// after the last waiter.
func (m *mshr) done() {
	l := m.l
	for i, o := range l.mshrs {
		if o == m {
			last := len(l.mshrs) - 1
			l.mshrs[i] = l.mshrs[last]
			l.mshrs[last] = nil
			l.mshrs = l.mshrs[:last]
			break
		}
	}
	m.req()
	for i, w := range m.waiters {
		w()
		m.waiters[i] = nil
	}
	m.waiters = m.waiters[:0]
	m.req, m.de = nil, nil
	l.freeMSHRs = append(l.freeMSHRs, m)
}

// fill completes a load miss: the line arrives shared.
func (m *mshr) fill() {
	m.de.sharers |= 1 << uint(m.l.core)
	m.l.install(m.line, false)
	m.done()
}

// finish completes a store miss: every shared copy is invalidated and
// the line arrives dirty with ownership.
func (m *mshr) finish() {
	l, h, de := m.l, m.l.h, m.de
	for c := 0; c < h.cfg.Cores; c++ {
		if c != l.core && de.sharers&(1<<uint(c)) != 0 {
			h.l1s[c].drop(m.line)
		}
	}
	de.sharers = 0
	de.owner = l.core
	de.ownerDirty = true
	l.install(m.line, true)
	m.done()
}

// transfer takes the line from the remote owner for a read-exclusive.
func (m *mshr) transfer() {
	h := m.l.h
	h.stats.OwnershipTransfers++
	h.l1s[m.remote].drop(m.line)
	h.after(h.cfg.L2HitCycles, m.finishFn)
}

// readDone lands a memory fill in L2 and completes the miss.
func (m *mshr) readDone() {
	m.l.h.l2Install(m.line, false)
	if m.store {
		m.finish()
	} else {
		m.fill()
	}
}

// Load brings line into this L1 with at least shared permission and
// invokes done when the data is available. Per the paper (Fig. 2g),
// read requests do NOT gate on a remote core's pending persists: loads
// never establish persist order.
func (l *L1) Load(line mem.Addr, done func()) {
	h := l.h
	if e := l.lookup(line); e != nil {
		l.touch(e)
		h.stats.L1Hits++
		h.after(h.cfg.L1HitCycles, done)
		return
	}
	h.stats.L1Misses++
	// MSHR coalescing: piggyback on an outstanding fill for this line;
	// an exclusive fill also satisfies the load.
	if m := l.pending(line, false); m != nil {
		m.waiters = append(m.waiters, done)
		return
	}
	if m := l.pending(line, true); m != nil {
		m.waiters = append(m.waiters, done)
		return
	}
	m := l.startMiss(line, false, done)
	de := m.de
	if de.owner != noOwner && de.owner != l.core {
		// Downgrade the remote owner to shared; its dirty payload moves
		// to L2 (still volatile — persistence happens only at the PM
		// controller).
		remote := h.l1s[de.owner]
		if re := remote.lookup(line); re != nil && re.dirty {
			re.dirty = false
			h.l2Install(line, true)
		}
		de.sharers |= 1 << uint(de.owner)
		de.owner = noOwner
		de.ownerDirty = false
		de.sharers |= 1 << uint(l.core)
		l.install(line, false)
		h.stats.L2Hits++
		h.after(h.cfg.L2HitCycles, m.doneFn)
		return
	}
	if h.l2.present(line) {
		h.stats.L2Hits++
		h.after(h.cfg.L2HitCycles, m.fillFn)
		return
	}
	h.stats.L2Misses++
	h.pm.SubmitRead(line, m.readDoneFn)
}

// Store obtains modified permission for line in this L1, marks it dirty,
// and invokes done when the store may update the cache. If the line is
// dirty in another core's L1 and that core's persist gate has pending
// work, the read-exclusive reply stalls until the recorded strand-buffer
// tails drain (strong persist atomicity, paper Fig. 2i-j).
func (l *L1) Store(line mem.Addr, done func()) {
	h := l.h
	de := h.dir.entry(line)
	if e := l.lookup(line); e != nil && de.owner == l.core {
		// Write hit with ownership.
		l.touch(e)
		e.dirty = true
		de.ownerDirty = true
		h.stats.L1Hits++
		h.after(h.cfg.L1HitCycles, done)
		return
	}
	h.stats.L1Misses++
	// MSHR coalescing: a store while an exclusive fill for the same
	// line is outstanding piggybacks on it (the fill installs the line
	// dirty with ownership, satisfying this store too).
	if m := l.pending(line, true); m != nil {
		m.waiters = append(m.waiters, done)
		return
	}
	m := l.startMiss(line, true, done)
	if de.owner != noOwner && de.owner != l.core {
		// Read-exclusive request to a remote owner.
		m.remote = de.owner
		if re := h.l1s[de.owner].lookup(line); re != nil && re.dirty {
			if g := h.gates[de.owner]; g != nil {
				tok := g.RecordTails()
				h.stats.SnoopGateWaits++
				g.CallWhenDrained(tok, m.transferFn)
				return
			}
		}
		m.transfer()
		return
	}
	if l.lookup(line) != nil || de.sharers&^(1<<uint(l.core)) != 0 || h.l2.present(line) {
		// Upgrade from shared, or L2 fill.
		h.stats.Upgrades++
		h.after(h.cfg.L2HitCycles, m.finishFn)
		return
	}
	h.stats.L2Misses++
	h.pm.SubmitRead(line, m.readDoneFn)
}

// flushOp carries one dirty line's flush from its lookup latency to
// the controller: when it fires, it snapshots the line from the
// volatile image and submits the write, whose acceptance ack is the
// flush's done. Ops are pooled per L1 with their thunk bound once.
type flushOp struct {
	l      *L1
	line   mem.Addr
	done   func()
	fireFn func()
}

// flushAfter submits line's data toward the controller after d cycles.
func (l *L1) flushAfter(d uint64, line mem.Addr, done func()) {
	var op *flushOp
	if n := len(l.freeFlush); n > 0 {
		op = l.freeFlush[n-1]
		l.freeFlush = l.freeFlush[:n-1]
	} else {
		op = &flushOp{l: l}
		op.fireFn = op.fire
	}
	op.line, op.done = line, done
	l.h.after(d, op.fireFn)
}

func (op *flushOp) fire() {
	l, line, done := op.l, op.line, op.done
	op.done = nil
	l.freeFlush = append(l.freeFlush, op)
	var data [mem.LineSize]byte
	l.h.machine.Volatile.CopyLine(line, &data)
	l.h.pm.SubmitPMWrite(line, data, done)
}

// Flush implements the CLWB datapath (paper Section IV, "Strand buffer
// unit operation"): look up the L1; if the line is dirty, snapshot it,
// retain a clean copy, and send the write to the PM controller; on an L1
// miss, probe the L2 (and, if a remote L1 holds it dirty, flush the
// remote copy); a clean/absent line acknowledges after the lookup. done
// fires when the flush completes (controller acceptance ack for dirty
// data).
func (l *L1) Flush(line mem.Addr, done func()) {
	h := l.h
	h.stats.Flushes++
	if e := l.lookup(line); e != nil && e.dirty {
		h.stats.FlushL1Dirty++
		e.dirty = false
		de := h.dir.entry(line)
		if de.owner == l.core {
			de.ownerDirty = false
		}
		if h.cfg.FlushInvalidates {
			// CLFLUSHOPT semantics: the line leaves the cache entirely.
			l.drop(line)
			if de.owner == l.core {
				de.owner = noOwner
			}
			de.sharers &^= 1 << uint(l.core)
		}
		l.flushAfter(h.cfg.L1HitCycles, line, done)
		return
	}
	// L1 clean or absent: the flush propagates downward.
	de := h.dir.entry(line)
	if de.owner != noOwner && de.owner != l.core {
		remote := h.l1s[de.owner]
		if re := remote.lookup(line); re != nil && re.dirty {
			// Another core holds the latest data dirty; the flush is
			// serviced from there (coherent CLWB). The remote copy is
			// cleaned but retained.
			h.stats.FlushRemote++
			re.dirty = false
			de.ownerDirty = false
			l.flushAfter(h.cfg.L1HitCycles+h.cfg.L2HitCycles, line, done)
			return
		}
	}
	if h.l2.dirty(line) {
		h.stats.FlushL2Dirty++
		h.l2.clean(line)
		l.flushAfter(h.cfg.L1HitCycles+h.cfg.L2HitCycles, line, done)
		return
	}
	// The dirty data may be in flight in a write-back buffer (evicted
	// from an L1 but not yet installed in L2); the flush must still
	// persist it.
	for _, peer := range h.l1s {
		if peer.wb.contains(line) {
			h.stats.FlushWBBuffer++
			l.flushAfter(h.cfg.L1HitCycles+h.cfg.L2HitCycles, line, done)
			return
		}
	}
	h.stats.FlushClean++
	h.after(h.cfg.L1HitCycles, done)
}
