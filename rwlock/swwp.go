package rwlock

import (
	"context"
	"sync/atomic"
)

// swwpCore is the shared-variable state and code of the paper's
// Figure 1 single-writer multi-reader algorithm.  SWWP and MWSF are
// the transformation T over it (multi.go), with the single-writer
// arbiter and the multi-writer arbitration layer as M; MWWP threads
// it through the Figure 4 W-token handoff.  The
// variables that distinct processes wait on are waitCells (one padded
// word plus the park/wake seam); the counters,
// which are only fetch&added and never waited on, stay plain padded
// atomics.
type swwpCore struct {
	d          atomic.Int32
	_          [60]byte
	exitPermit waitCell
	permit     [2]waitCell
	gate       [2]waitCell
	ec         atomic.Int64
	_          [56]byte
	c          [2]paddedInt64
	// stats, when non-nil, receives the read-path counters (acquires,
	// contended, sheds) and sampled read-wait latencies.  Write-path
	// counters belong to the wrapping lock, which knows its own
	// arbitration; the core only ever counts reads.  See WithStats.
	stats *LockStats
}

// paddedInt64 is an atomic.Int64 alone on its cache line.
type paddedInt64 struct {
	v atomic.Int64
	_ [56]byte
}

// init sets the paper's initial values — D=0, Gate[0]=true,
// Gate[1]=false, counters zero — and installs the stats block on the
// lock and every cell (nil disables all accounting).
func (l *swwpCore) init(st *LockStats) {
	l.stats = st
	l.exitPermit.setStats(st)
	for i := range l.permit {
		l.permit[i].setStats(st)
		l.gate[i].setStats(st)
	}
	l.gate[0].store(cellTrue)
}

// writerDoorway is Figure 1 lines 2-3: toggle the side.
func (l *swwpCore) writerDoorway() (prev, cur int32) {
	prev = l.d.Load()
	cur = 1 - prev
	l.d.Store(cur)
	return prev, cur
}

// writerWaitingRoom is Figure 1 lines 4-12: wait for readers of the
// previous side to leave the CS, close their gate, then wait for the
// exit section to clear (the Section 3.3 subtlety — skipping this
// breaks mutual exclusion, as the repo's model checker demonstrates).
// The permit/exitPermit resets are plain stores: only this writer
// waits on them, and it is the one writing.
func (l *swwpCore) writerWaitingRoom(prev int32) {
	l.permit[prev].store(cellFalse)
	if l.c[prev].v.Add(wwBit) != wwBit { // old value != [0,0]
		l.permit[prev].wait(cellTrue)
	}
	l.c[prev].v.Add(-wwBit)
	l.gate[prev].store(cellFalse) // closing: nobody waits for false
	l.exitPermit.store(cellFalse)
	if l.ec.Add(wwBit) != wwBit { // old value != [0,0]
		l.exitPermit.wait(cellTrue)
	}
	l.ec.Add(-wwBit)
}

// writerLock is Figure 1 lines 2-12: the doorway, then the waiting
// room.
func (l *swwpCore) writerLock() WToken {
	prev, cur := l.writerDoorway()
	l.writerWaitingRoom(prev)
	return WToken{prev: prev, cur: cur}
}

// writerExit is Figure 1 line 14: open the gate of the side the
// writer used, releasing (and waking) the readers queued behind it.
func (l *swwpCore) writerExit(cur int32) {
	l.gate[cur].storeWake(cellTrue)
}

// writerUnlock is writerExit for the token writerLock returned.
func (l *swwpCore) writerUnlock(t WToken) { l.writerExit(t.cur) }

// writePassage runs one complete Figure 1 write passage — doorway,
// waiting room, cs, exit — on the calling goroutine.  It is the
// closure-path write: a combining MWSF's batches run it once per
// record while the combiner holds the arbitration mutex, so readers
// still get their gate window between any two batched writes.
func (l *swwpCore) writePassage(cs func()) {
	prev, cur := l.writerDoorway()
	l.writerWaitingRoom(prev)
	cs()
	l.writerExit(cur)
}

// registerReader is Figure 1 lines 16-23: register in the reader
// count of the current side, handling the writer-moved re-register
// dance.  It returns the side whose gate the reader is now entitled
// to wait on.
func (l *swwpCore) registerReader() int32 {
	d := l.d.Load()
	l.c[d].v.Add(1) // line 17
	d2 := l.d.Load()
	if d != d2 { // line 19: the writer moved; re-register
		l.c[d2].v.Add(1) // line 20
		d = l.d.Load()   // line 21
		other := 1 - d
		if l.c[other].v.Add(-1) == wwBit { // line 22: old value was [1,1]
			l.permit[other].storeWake(cellTrue) // line 23
		}
	}
	return d
}

// readerLock is Figure 1 lines 16-24.
func (l *swwpCore) readerLock() RToken {
	if st := l.stats; st != nil {
		return l.readerLockStats(st)
	}
	d := l.registerReader()
	l.gate[d].wait(cellTrue) // line 24
	return RToken{side: d}
}

// readerLockStats is readerLock's instrumented twin, kept separate so
// the stats-disabled path above stays the pre-instrumentation body
// plus one nil check.  The contended probe reads the gate once before
// the wait: observing an open gate means the wait would have returned
// without blocking, so anything else counts as a contended entry.
func (l *swwpCore) readerLockStats(st *LockStats) RToken {
	var start int64
	sample := st.sampleNow()
	if sample {
		start = nowNanos()
	}
	d := l.registerReader()
	contended := l.gate[d].load() != cellTrue
	l.gate[d].wait(cellTrue) // line 24
	// Acquires before contended, so a concurrent Snapshot (which loads
	// contended first) always sees ReadContended <= ReadAcquires.
	st.ReadAcquires.Add(1)
	if contended {
		st.ReadContended.Add(1)
	}
	if sample {
		st.recordReadWait(nowNanos() - start)
	}
	return RToken{side: d}
}

// tryReaderLock is the non-blocking readerLock: it registers exactly
// as lines 17-23 do, then — where line 24 would wait — either finds
// the gate open and enters, or retires through the ordinary reader
// exit (a zero-length read passage) and reports failure.  The undo
// is clean because a registered reader that never entered is
// indistinguishable, protocol-wise, from one that entered and left
// immediately: readerUnlock keeps the counts and the last-reader
// permit handoffs exact either way.  Entering on an open gate is
// safe even when a writer is mid-passage on this side: the writer's
// waiting room drains this side's count BEFORE closing its gate, so
// an open gate with our registration in the count means any such
// writer is blocked on us.
func (l *swwpCore) tryReaderLock() (RToken, bool) {
	d := l.registerReader()
	if l.gate[d].load() != cellTrue {
		l.readerUnlock(RToken{side: d})
		if st := l.stats; st != nil {
			st.TrySheds.Add(1)
		}
		return RToken{}, false
	}
	if st := l.stats; st != nil {
		st.ReadAcquires.Add(1)
	}
	return RToken{side: d}, true
}

// readerLockCtx is readerLock with the line 24 gate wait made
// cancellable; a cancelled reader retires through the same
// zero-length-passage undo tryReaderLock uses.
func (l *swwpCore) readerLockCtx(ctx context.Context) (RToken, error) {
	d := l.registerReader()
	if err := l.gate[d].waitCtx(ctx, cellTrue); err != nil {
		l.readerUnlock(RToken{side: d})
		if st := l.stats; st != nil {
			st.CtxSheds.Add(1)
		}
		return RToken{}, err
	}
	if st := l.stats; st != nil {
		st.ReadAcquires.Add(1)
	}
	return RToken{side: d}, nil
}

// readersIdle reports that no reader is registered on either side and
// the exit section is clear — the availability probe the writer-side
// TryLock runs before committing through the irreversible doorway.
// The three loads are a snapshot, not an atomic predicate: a reader
// may register the next instant, which is the race window TryLock's
// documentation qualifies.
func (l *swwpCore) readersIdle() bool {
	return l.c[0].v.Load()&(wwBit-1) == 0 &&
		l.c[1].v.Load()&(wwBit-1) == 0 &&
		l.ec.Load()&(wwBit-1) == 0
}

// readerUnlock is Figure 1 lines 26-30.
func (l *swwpCore) readerUnlock(t RToken) {
	l.ec.Add(1)                         // line 26
	if l.c[t.side].v.Add(-1) == wwBit { // line 27: old value was [1,1]
		l.permit[t.side].storeWake(cellTrue) // line 28
	}
	if l.ec.Add(-1) == wwBit { // line 29: old value was [1,1]
		l.exitPermit.storeWake(cellTrue) // line 30
	}
}

// SWWP is the paper's Figure 1: a single-writer multi-reader lock
// with WRITER PRIORITY (WP1, WP2) that also satisfies mutual
// exclusion, bounded exit, FIFE among readers, concurrent entering
// and starvation freedom (P1-P7).  Its RMR complexity is O(1) on
// cache-coherent machines (Theorem 1).
//
// At most one goroutine may be between Lock and Unlock at a time BY
// CONTRACT: this is the single-writer algorithm.  A second concurrent
// Lock panics.  Use NewMWWP when multiple writers are possible.
type SWWP struct{ tLock[swwpCore, *swwpCore] }

// NewSWWP returns a ready-to-use single-writer writer-priority lock.
// Its writer arbiter is the single-writer flag, so the writer
// arbitration options (WithBoundedWriters, WithCombiningWriters) are
// ignored.
func NewSWWP(opts ...Option) *SWWP {
	l := &SWWP{}
	l.init(applyOptions(opts), &soleWriter{lock: "SWWP", multi: "NewMWWP"})
	return l
}
