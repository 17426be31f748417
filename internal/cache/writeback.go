package cache

import "strandweaver/internal/mem"

// writebackBuffer manages in-progress write-backs from an L1. Per the
// paper ("Managing cache writebacks"), StrandWeaver extends each entry
// with one field per strand buffer recording that buffer's tail index at
// write-back initiation; the write-back drains to L2 only after the
// strand buffers retire past the recorded indexes. This guarantees older
// CLWBs complete before a younger store's line can leave the L1 toward
// PM, with no possibility of circular dependency (CLWBs never wait on
// write-backs).
type writebackBuffer struct {
	l1 *L1
	// lines holds one entry per in-flight write-back, so the CLWB
	// datapath can find dirty data that has left the L1 but not yet
	// reached L2. It is short: write-backs wait only on the core's own
	// persist gate.
	lines []mem.Addr
	free  []*wbDrain
}

// wbDrain is one pooled write-back drain, its thunk bound once.
type wbDrain struct {
	wb      *writebackBuffer
	line    mem.Addr
	drainFn func()
}

// contains reports whether a write-back of line is in flight.
func (wb *writebackBuffer) contains(line mem.Addr) bool {
	for _, l := range wb.lines {
		if l == line {
			return true
		}
	}
	return false
}

// push enters a dirty line into the buffer and arranges its gated drain.
func (wb *writebackBuffer) push(line mem.Addr) {
	h := wb.l1.h
	wb.lines = append(wb.lines, line)
	var d *wbDrain
	if n := len(wb.free); n > 0 {
		d = wb.free[n-1]
		wb.free = wb.free[:n-1]
	} else {
		d = &wbDrain{wb: wb}
		d.drainFn = d.drain
	}
	d.line = line
	if g := h.gates[wb.l1.core]; g != nil {
		tok := g.RecordTails()
		h.stats.WritebackGateWaits++
		g.CallWhenDrained(tok, d.drainFn)
		return
	}
	d.drain()
}

// drain completes the write-back: the line's dirty payload lands in the
// (volatile) L2; it persists only if later evicted from L2 or flushed.
func (d *wbDrain) drain() {
	wb, line := d.wb, d.line
	for i, l := range wb.lines {
		if l == line {
			last := len(wb.lines) - 1
			wb.lines[i] = wb.lines[last]
			wb.lines = wb.lines[:last]
			break
		}
	}
	wb.free = append(wb.free, d)
	wb.l1.h.l2Install(line, true)
}

// InFlightWritebacks reports write-backs waiting on persist gates.
func (l *L1) InFlightWritebacks() int { return len(l.wb.lines) }
