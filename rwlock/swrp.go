package rwlock

import (
	"context"
	"sync/atomic"
)

// swrpCore is the shared-variable state and code of the paper's
// Figure 2 single-writer multi-reader reader-priority algorithm.
// SWRP and MWRP are the transformation T over it (multi.go), with the
// single-writer arbiter and the multi-writer arbitration layer as M.
// Gate and Permit — the variables processes wait on — are waitCells;
// X and C are only read/CAS'd/fetch&added, never waited on, so they
// stay plain atomics.
type swrpCore struct {
	d      atomic.Int32
	_      [60]byte
	gate   [2]waitCell
	x      atomic.Int64 // X in PID ∪ {true}; xTrue encodes true
	_      [56]byte
	permit waitCell
	c      atomic.Int64
	_      [56]byte
	// idCtr issues fresh attempt pids.  The paper only needs pids to
	// be unique among concurrent attempts; monotone fresh ids give
	// that and additionally rule out ABA on X entirely.
	idCtr atomic.Int64
	// stats, when non-nil, receives the read-path counters; write-path
	// counters belong to the wrapping lock.  See WithStats and the
	// matching field on swwpCore.
	stats *LockStats
}

// init sets the paper's initial values — D=0, Gate[0]=true, X = some
// pid (0, smaller than every issued id), Permit=true, C=0 — and
// installs the stats block on the lock and every cell.
func (l *swrpCore) init(st *LockStats) {
	l.stats = st
	for i := range l.gate {
		l.gate[i].setStats(st)
	}
	l.permit.setStats(st)
	l.gate[0].store(cellTrue)
	l.permit.store(cellTrue)
}

// newID returns a fresh positive attempt pid.
func (l *swrpCore) newID() int64 { return l.idCtr.Add(1) }

// promote is the paper's Promote() (Figure 2 lines 10-16): enable the
// writer iff no readers are registered.  The two-step CAS through the
// caller's own pid is the Section 4.3(B) subtlety: CASing true
// directly breaks mutual exclusion.  The Permit store is the wake
// side of the writer's wait at line 5, so it must signal: an exiting
// reader's Promote may be what releases a parked writer.
func (l *swrpCore) promote(id int64) {
	x := l.x.Load() // line 10
	if x == xTrue { // line 11
		return
	}
	if !l.x.CompareAndSwap(x, id) { // line 12
		return
	}
	if l.permit.load() != cellFalse { // line 13
		return
	}
	if l.c.Load() != 0 { // line 14
		return
	}
	if l.x.CompareAndSwap(id, xTrue) { // line 15
		l.permit.storeWake(cellTrue) // line 16
	}
}

// writerLock is Figure 2 lines 2-5.
func (l *swrpCore) writerLock() WToken {
	id := l.newID()
	cur := 1 - l.d.Load() // line 2
	l.d.Store(cur)
	l.permit.store(cellFalse) // line 3: own reset, nobody waits for false
	l.promote(id)             // line 4
	l.permit.wait(cellTrue)   // line 5
	return WToken{cur: cur, prev: 1 - cur, id: id}
}

// writerUnlock is Figure 2 lines 7-9.
func (l *swrpCore) writerUnlock(t WToken) {
	l.gate[1-t.cur].store(cellFalse)  // line 7: closing, no wake needed
	l.gate[t.cur].storeWake(cellTrue) // line 8: releases queued readers
	l.x.Store(t.id)                   // line 9
}

// writePassage runs one complete Figure 2 write passage on the
// calling goroutine — the closure-path write MWRP's combined batches
// run once per record while the combiner holds the arbitration mutex.
func (l *swrpCore) writePassage(cs func()) {
	t := l.writerLock()
	cs()
	l.writerUnlock(t)
}

// registerReader is Figure 2 lines 18-23: register in C, run the X
// dance, and report whether the writer owns the CS (X == true), i.e.
// whether line 24 would wait at the gate.
func (l *swrpCore) registerReader() (d int32, id int64, mustWait bool) {
	id = l.newID()
	l.c.Add(1)      // line 18
	d = l.d.Load()  // line 19
	x := l.x.Load() // line 20
	if x != xTrue { // line 21
		l.x.CompareAndSwap(x, id) // line 22
	}
	mustWait = l.x.Load() == xTrue // line 23
	return d, id, mustWait
}

// readerLock is Figure 2 lines 18-24.
func (l *swrpCore) readerLock() RToken {
	if st := l.stats; st != nil {
		return l.readerLockStats(st)
	}
	d, id, mustWait := l.registerReader()
	if mustWait {
		l.gate[d].wait(cellTrue) // line 24
	}
	return RToken{side: d, id: id}
}

// readerLockStats is readerLock's instrumented twin (see the swwpCore
// counterpart); mustWait is the algorithm's own contended signal.
func (l *swrpCore) readerLockStats(st *LockStats) RToken {
	var start int64
	sample := st.sampleNow()
	if sample {
		start = nowNanos()
	}
	d, id, mustWait := l.registerReader()
	if mustWait {
		l.gate[d].wait(cellTrue) // line 24
	}
	// Acquires before contended; see the swwpCore twin.
	st.ReadAcquires.Add(1)
	if mustWait {
		st.ReadContended.Add(1)
	}
	if sample {
		st.recordReadWait(nowNanos() - start)
	}
	return RToken{side: d, id: id}
}

// tryReaderLock is the non-blocking readerLock: it fails exactly when
// line 24 would wait (the writer holds or has just been promoted into
// the CS), retiring through the ordinary reader exit — C decrement
// plus Promote, a zero-length read passage that keeps the
// last-reader-promotes-the-writer handoff exact.
func (l *swrpCore) tryReaderLock() (RToken, bool) {
	d, id, mustWait := l.registerReader()
	if mustWait {
		l.readerUnlock(RToken{side: d, id: id})
		if st := l.stats; st != nil {
			st.TrySheds.Add(1)
		}
		return RToken{}, false
	}
	if st := l.stats; st != nil {
		st.ReadAcquires.Add(1)
	}
	return RToken{side: d, id: id}, true
}

// readerLockCtx is readerLock with the gate wait made cancellable; a
// cancelled reader retires through the same zero-length-passage undo
// tryReaderLock uses.
func (l *swrpCore) readerLockCtx(ctx context.Context) (RToken, error) {
	d, id, mustWait := l.registerReader()
	if mustWait {
		if err := l.gate[d].waitCtx(ctx, cellTrue); err != nil {
			l.readerUnlock(RToken{side: d, id: id})
			if st := l.stats; st != nil {
				st.CtxSheds.Add(1)
			}
			return RToken{}, err
		}
	}
	if st := l.stats; st != nil {
		st.ReadAcquires.Add(1)
	}
	return RToken{side: d, id: id}, nil
}

// readersIdle reports that no reader is registered (C == 0), the
// availability probe TryLock runs before committing: under reader
// priority a writer facing registered readers may wait unboundedly.
// Like swwpCore.readersIdle it is a snapshot, not an atomic predicate.
func (l *swrpCore) readersIdle() bool { return l.c.Load() == 0 }

// readerUnlock is Figure 2 lines 26-27.
func (l *swrpCore) readerUnlock(t RToken) {
	l.c.Add(-1)     // line 26
	l.promote(t.id) // line 27
}

// SWRP is the paper's Figure 2: a single-writer multi-reader lock
// with READER PRIORITY (RP1, RP2): a reader that is waiting while the
// CS is read-occupied is always enabled, and a writer never overtakes
// a reader that has higher >rp priority.  The writer may starve while
// readers keep arriving — that is the specified behaviour.  RMR
// complexity is O(1) on cache-coherent machines (Theorem 2).
//
// At most one goroutine may be between Lock and Unlock at a time
// (single-writer contract); a second concurrent Lock panics.  Use
// NewMWRP when multiple writers are possible.
type SWRP struct{ tLock[swrpCore, *swrpCore] }

// NewSWRP returns a ready-to-use single-writer reader-priority lock.
// Its writer arbiter is the single-writer flag, so the writer
// arbitration options (WithBoundedWriters, WithCombiningWriters) are
// ignored.
func NewSWRP(opts ...Option) *SWRP {
	l := &SWRP{}
	l.init(applyOptions(opts), &soleWriter{lock: "SWRP", multi: "NewMWRP"})
	return l
}
