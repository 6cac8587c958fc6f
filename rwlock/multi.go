package rwlock

import (
	"context"
	"sync/atomic"
)

// This file implements the paper's Section 5: the single-writer cores
// lifted to multi-writer locks.
//
// tLock is the Figure 3 transformation T, written once: writers are
// serialized through the mutual-exclusion lock M around the
// single-writer protocol; readers run the single-writer protocol
// unchanged.  M is a writerMutex (mcs.go).  MWSF (T over the Figure 1
// core) and MWRP (T over the Figure 2 core) use the pluggable
// arbitration layer: the unbounded MCS queue by default, Anderson's
// array under WithBoundedWriters — either meets the FCFS +
// starvation-free + O(1)-RMR contract the Theorem 3-5 proofs require
// of M — optionally under the flat combiner.  SWWP and SWRP are T
// over the same two cores with soleWriter as M: an arbiter that
// admits one writer and panics on a second, which is the
// single-writer contract of Figures 1 and 2 placed where the paper
// puts M.  Every write-path counter is kept here; the cores count
// only reads.
//
// MWWP implements Figure 4: T alone does not preserve writer priority
// (Section 5.1), so exiting writers hand the SWWP core directly to
// arriving writers through the W-token, and only the last writer to
// leave (with no writer waiting) exits the SWWP core and reopens the
// gate for readers.

// writerCore is what T calls on a single-writer core (swwpCore,
// swrpCore): the paper's writer and reader procedures, the closure
// write passage a combiner runs per record, and the no-readers probe
// TryLock runs before committing.
type writerCore interface {
	init(st *LockStats)
	writerLock() WToken
	writerUnlock(t WToken)
	writePassage(cs func())
	readersIdle() bool
	readerLock() RToken
	tryReaderLock() (RToken, bool)
	readerLockCtx(ctx context.Context) (RToken, error)
	readerUnlock(t RToken)
}

// tLock is the transformation T over core C, with M = m.  The exported
// locks built on T (MWSF, MWRP, SWWP, SWRP) embed it and add only a
// constructor.
type tLock[C any, PC interface {
	*C
	writerCore
}] struct {
	core  C
	m     writerMutex
	stats *LockStats
}

// init installs M and the stats block, sets the core's initial values,
// and binds a combining M's per-record passage to the core's write
// passage once, so Write can submit the caller's closure unwrapped (no
// per-op allocation).
func (l *tLock[C, PC]) init(o options, m writerMutex) {
	l.m, l.stats = m, o.stats
	core := PC(&l.core)
	core.init(o.stats)
	if c, ok := m.(*combiner); ok {
		c.passage = core.writePassage
	}
}

// enter runs the core's writer entry with M held as slot: the point of
// no return of every write attempt.
func (l *tLock[C, PC]) enter(slot wslot) WToken {
	t := PC(&l.core).writerLock()
	t.slot = slot
	return t
}

// Lock acquires the lock in write mode: M first, then the core's
// writer entry (Figure 1's doorway and waiting room, or Figure 2
// lines 2-5).  On SWWP and SWRP it panics if another write attempt is
// in progress (the single-writer contract).
func (l *tLock[C, PC]) Lock() WToken {
	if st := l.stats; st != nil {
		return l.lockStats(st)
	}
	return l.enter(l.m.acquire())
}

// lockStats is Lock's instrumented twin, kept separate so the
// stats-disabled path above stays the pre-instrumentation body plus
// one nil check.  holdStartNS is safe as a plain register: only the
// 1-in-statsSampleEvery sampled passage stores it, and write mode is
// exclusive, so the matching Unlock's swap sees either its own stamp
// or zero.
func (l *tLock[C, PC]) lockStats(st *LockStats) WToken {
	var start int64
	sample := st.sampleNow()
	if sample {
		start = nowNanos()
	}
	t := l.enter(l.m.acquire())
	st.WriteAcquires.Add(1)
	if sample {
		now := nowNanos()
		st.recordWriteWait(now - start)
		st.holdStartNS.Store(now)
	}
	return t
}

// Unlock releases write mode: the core's writer exit, then M.  On
// SWWP and SWRP it panics when no write attempt holds the lock.
func (l *tLock[C, PC]) Unlock(t WToken) {
	if st := l.stats; st != nil {
		if hs := st.holdStartNS.Swap(0); hs != 0 {
			st.recordWriteHold(nowNanos() - hs)
		}
	}
	PC(&l.core).writerUnlock(t)
	l.m.release(t.slot)
}

// Write runs cs in write mode (the closure path; see FuncWriter).
// On a lock built with WithCombiningWriters this is where batching
// happens: cs is published to the combiner, which runs pending
// sections back-to-back — each inside the core's full write passage
// (the combiner's pre-bound passage hook) — within one acquisition of
// the inner arbitration mutex.  Otherwise it is Lock, cs, Unlock, and
// on SWWP and SWRP a concurrent write attempt panics.
func (l *tLock[C, PC]) Write(cs func()) {
	if c, ok := l.m.(*combiner); ok {
		c.exec(cs)
		if st := l.stats; st != nil {
			st.WriteAcquires.Add(1)
		}
		return
	}
	t := l.Lock()
	defer l.Unlock(t)
	cs()
}

// CombinerStats reports the batching statistics when the lock was
// built with WithCombiningWriters (see CombinerStatsOf).  SWWP and
// SWRP never combine and always report false.
func (l *tLock[C, PC]) CombinerStats() (CombinerStats, bool) {
	if c, ok := l.m.(*combiner); ok {
		return c.snapshot(), true
	}
	return CombinerStats{}, false
}

// TryLock attempts write mode without blocking: a non-blocking probe
// of M (one CAS on the MCS tail, the Anderson gate + availability
// check on /bounded locks, the writer flag on SWWP and SWRP — where
// Lock would panic, TryLock fails), then the no-readers probe (under
// reader priority a writer facing registered readers may wait
// unboundedly, so a registered reader is busy too), and only then the
// irreversible commit.  The probe and the commit are not atomic: a
// reader registering in that window is drained by the ordinary
// waiting room, or waited out through the promotion handoff under
// reader priority, so TryLock never waits on a writer but can briefly
// wait out such a racer.
func (l *tLock[C, PC]) TryLock() (WToken, bool) {
	slot, ok := l.m.tryAcquire()
	if ok && !PC(&l.core).readersIdle() {
		l.m.release(slot)
		ok = false
	}
	if !ok {
		if st := l.stats; st != nil {
			st.TrySheds.Add(1)
		}
		return WToken{}, false
	}
	t := l.enter(slot)
	if st := l.stats; st != nil {
		st.WriteAcquires.Add(1)
	}
	return t, true
}

// TryRLock attempts read mode without blocking; a failed attempt
// retires through a zero-length read passage (see
// swwpCore.tryReaderLock).  Under reader priority it fails only while
// a writer owns (or has just been promoted into) the CS (see
// swrpCore.tryReaderLock).
func (l *tLock[C, PC]) TryRLock() (RToken, bool) { return PC(&l.core).tryReaderLock() }

// LockCtx acquires write mode with the wait for M cancellable: while
// the writer waits its turn there — where an oversubscribed writer
// convoy actually waits — cancellation unlinks it (the MCS abort
// seam; on /bounded locks only the admission gate is abortable, see
// AndersonLock.AcquireCtx).  SWWP and SWRP have no queue: their M
// checks ctx once and then, like Lock, panics on a concurrent write
// attempt.  Once M is granted the core's doorway (the direction-bit
// toggle) commits the writer and ctx is not consulted again.  Past it
// the wait is bounded by the readers already inside — except under
// reader priority (MWRP, SWRP), where it is unbounded while readers
// keep arriving and ctx cannot recall it (aborting after Promote
// poisons the X/Permit handshake), so deadline writers there should
// expect cancellation to win only before the commit.
func (l *tLock[C, PC]) LockCtx(ctx context.Context) (WToken, error) {
	slot, err := l.m.acquireCtx(ctx)
	if err == nil {
		if err = ctx.Err(); err != nil {
			// Cancelled between grant and doorway: nothing of the core
			// has been touched, so handing M on is a complete undo.
			l.m.release(slot)
		}
	}
	if err != nil {
		if st := l.stats; st != nil {
			st.CtxSheds.Add(1)
		}
		return WToken{}, err
	}
	t := l.enter(slot) // point of no return
	if st := l.stats; st != nil {
		st.WriteAcquires.Add(1)
	}
	return t, nil
}

// RLockCtx acquires read mode, aborting the gate wait when ctx is
// cancelled; the aborted reader retires through a zero-length read
// passage (under reader priority, the C decrement plus Promote),
// keeping counts and permit handoffs exact.
func (l *tLock[C, PC]) RLockCtx(ctx context.Context) (RToken, error) {
	return PC(&l.core).readerLockCtx(ctx)
}

// WriteCtx runs cs in write mode unless ctx is cancelled first (see
// CtxFuncWriter).  On a combining lock cancellation wins only before
// the publication CAS (a published record always executes — see
// combiner.execCtx); otherwise LockCtx's commitment points apply.
func (l *tLock[C, PC]) WriteCtx(ctx context.Context, cs func()) error {
	if c, ok := l.m.(*combiner); ok {
		err := c.execCtx(ctx, cs)
		if st := l.stats; st != nil {
			if err != nil {
				st.CtxSheds.Add(1)
			} else {
				st.WriteAcquires.Add(1)
			}
		}
		return err
	}
	t, err := l.LockCtx(ctx)
	if err != nil {
		return err
	}
	defer l.Unlock(t)
	cs()
	return nil
}

// RLock acquires the lock in read mode.
func (l *tLock[C, PC]) RLock() RToken { return PC(&l.core).readerLock() }

// RUnlock releases read mode.
func (l *tLock[C, PC]) RUnlock(t RToken) { PC(&l.core).readerUnlock(t) }

// soleWriter is M for the single-writer locks: one flag admitting one
// write attempt at a time.  It never waits, because a second
// concurrent writer breaks the caller's contract rather than joining
// a queue: acquire panics on it, tryAcquire reports it busy.  No
// wrapper registers a batch-boundary hook on a single-writer lock
// (NewEpoch takes only the multi-writer ones), so onBatchRetire
// panics too.
type soleWriter struct {
	busy atomic.Bool
	// lock and multi name the single-writer lock and the multi-writer
	// constructor to use instead, for the panic messages.
	lock, multi string
}

func (w *soleWriter) acquire() wslot {
	if !w.busy.CompareAndSwap(false, true) {
		panic("rwlock: concurrent Lock on single-writer " + w.lock + " lock (use " + w.multi + ")")
	}
	return wslot{}
}

func (w *soleWriter) tryAcquire() (wslot, bool) {
	return wslot{}, w.busy.CompareAndSwap(false, true)
}

// acquireCtx checks ctx before claiming the flag, so a cancelled
// attempt neither panics nor holds M.
func (w *soleWriter) acquireCtx(ctx context.Context) (wslot, error) {
	if err := ctx.Err(); err != nil {
		return wslot{}, err
	}
	return w.acquire(), nil
}

func (w *soleWriter) release(wslot) {
	if !w.busy.CompareAndSwap(true, false) {
		panic("rwlock: Unlock of unlocked " + w.lock + " lock")
	}
}

func (w *soleWriter) onBatchRetire(func()) {
	panic("rwlock: single-writer " + w.lock + " lock has no batch boundary")
}

// MWSF is the multi-writer multi-reader STARVATION-FREE lock of
// Theorem 3 (no priority class): mutual exclusion, bounded exit,
// FCFS among writers, FIFE among readers, concurrent entering,
// livelock- and starvation-freedom, with O(1) RMR complexity.
type MWSF struct{ tLock[swwpCore, *swwpCore] }

// NewMWSF returns a starvation-free reader-writer lock.  Writer
// concurrency is unbounded by default (MCS arbitration); pass
// WithBoundedWriters(n) to cap concurrent write attempts at n.
func NewMWSF(opts ...Option) *MWSF {
	o := applyOptions(opts)
	l := &MWSF{}
	l.init(o, newWriterMutex(o))
	return l
}

// MWRP is the multi-writer multi-reader READER-PRIORITY lock of
// Theorem 4: properties P1-P6 plus RP1/RP2, with O(1) RMR
// complexity.  Writers may starve while readers keep arriving.
type MWRP struct{ tLock[swrpCore, *swrpCore] }

// NewMWRP returns a reader-priority reader-writer lock.  Writer
// concurrency is unbounded by default (MCS arbitration); pass
// WithBoundedWriters(n) to cap concurrent write attempts at n.
func NewMWRP(opts ...Option) *MWRP {
	o := applyOptions(opts)
	l := &MWRP{}
	l.init(o, newWriterMutex(o))
	return l
}

// Every lock built on T has the full read and write surface.
var _ = []interface {
	TryRWLock
	CtxRWLock
	FuncWriter
	CtxFuncWriter
	combinerStatser
}{(*MWSF)(nil), (*MWRP)(nil), (*SWWP)(nil), (*SWRP)(nil)}

var _ writerMutex = (*soleWriter)(nil)

// MWWP is the multi-writer multi-reader WRITER-PRIORITY lock of
// Theorem 5 (the paper's Figure 4): properties P1-P6 plus WP1/WP2,
// with O(1) RMR complexity.  Readers may starve while writers keep
// arriving.
type MWWP struct {
	core   swwpCore
	wcount atomic.Int64
	_      [56]byte
	wtoken atomic.Int64 // PID (>=0) ∪ {tokenFalse} ∪ side tokens
	_      [56]byte
	idCtr  atomic.Int64
	_      [56]byte
	m      writerMutex
	stats  *LockStats
}

// NewMWWP returns a writer-priority reader-writer lock.  Writer
// concurrency is unbounded by default (MCS arbitration); pass
// WithBoundedWriters(n) to cap concurrent write attempts at n.
func NewMWWP(opts ...Option) *MWWP {
	o := applyOptions(opts)
	l := &MWWP{m: newWriterMutex(o), stats: o.stats}
	l.core.init(o.stats)
	// W-token starts as the side token for side 1 so the first writer
	// behaves exactly like the first SWWP attempt (D: 0 -> 1).
	l.wtoken.Store(tokenSide(1))
	if c, ok := l.m.(*combiner); ok {
		c.passage = l.combinedPassage // see tLock.init
	}
	return l
}

// doorway is Figure 4 lines 2-8: the wait-free announcement every
// writer — token-path or combining — performs before queueing on (or
// publishing to) the arbitration mutex M.
func (l *MWWP) doorway() {
	l.wcount.Add(1)      // line 2
	t := l.wtoken.Load() // line 3
	if t >= 0 {          // line 4: t is a pid
		l.wtoken.CompareAndSwap(t, tokenFalse) // line 5
	}
	t = l.wtoken.Load() // line 6
	if isSideToken(t) { // line 7
		l.core.d.Store(int32(sideOfToken(t))) // line 8: SWWP doorway
	}
}

// Lock acquires the lock in write mode (Figure 4 lines 2-13).  The
// line 12 gate wait inside enterHeld covers the previous writer
// having won the CAS at line 19 but not yet reopened the gate at line
// 20; writerExit's storeWake is the matching signal.
func (l *MWWP) Lock() WToken {
	if st := l.stats; st != nil {
		return l.lockStats(st)
	}
	id := l.idCtr.Add(1)
	l.doorway()           // lines 2-8
	slot := l.m.acquire() // line 9
	prev, cur := l.enterHeld()
	return WToken{prev: prev, cur: cur, slot: slot, id: id}
}

// lockStats is Lock's instrumented twin; see tLock.lockStats for the
// holdStartNS register discipline.
func (l *MWWP) lockStats(st *LockStats) WToken {
	var start int64
	sample := st.sampleNow()
	if sample {
		start = nowNanos()
	}
	id := l.idCtr.Add(1)
	l.doorway()           // lines 2-8
	slot := l.m.acquire() // line 9
	prev, cur := l.enterHeld()
	st.WriteAcquires.Add(1)
	if sample {
		now := nowNanos()
		st.recordWriteWait(now - start)
		st.holdStartNS.Store(now)
	}
	return WToken{prev: prev, cur: cur, slot: slot, id: id}
}

// Unlock releases write mode (Figure 4 lines 15-20).
func (l *MWWP) Unlock(t WToken) {
	if st := l.stats; st != nil {
		if hs := st.holdStartNS.Swap(0); hs != 0 {
			st.recordWriteHold(nowNanos() - hs)
		}
	}
	l.wtoken.Store(t.id)      // line 15
	l.wcount.Add(-1)          // line 16
	l.m.release(t.slot)       // line 17
	if l.wcount.Load() == 0 { // line 18
		if l.wtoken.CompareAndSwap(t.id, tokenSide(t.prev)) { // line 19
			l.core.writerExit(t.cur) // line 20
		}
	}
}

// Write runs cs in write mode (the closure path; see FuncWriter).
// On a combining lock the Figure 4 passage is split around the
// arbitration mutex M exactly where Lock/Unlock are: the doorway
// (lines 2-8) runs on the calling goroutine before publication, and
// the combiner — holding M in place of line 9's acquire — runs
// combinedPassage (lines 10-20) once per record.
func (l *MWWP) Write(cs func()) {
	c, ok := l.m.(*combiner)
	if !ok {
		t := l.Lock()
		defer l.Unlock(t)
		cs()
		return
	}
	l.doorway() // lines 2-8, before publication
	c.exec(cs)
	if st := l.stats; st != nil {
		st.WriteAcquires.Add(1)
	}
}

// combinedPassage is the combiner-side half of a combined Figure 4
// write: M is held for the whole batch (lines 9/17), the submitter
// already ran the doorway, and this runs lines 10-13, cs, and lines
// 15-16 for one record.  The attempt pid is drawn here rather than at
// the doorway — it is unused before line 15, and drawing it inside
// the passage keeps the published record closure-free.  The
// last-writer exit check (lines 18-20) also runs per record, with M
// still held rather than after line 17's release; that narrows but
// does not change the race the line-19 CAS already arbitrates — a
// writer arriving after the check handles both outcomes (pid → fast
// handoff, side token → doorway + waiting room), exactly as in the
// unbatched algorithm.  Mid-batch records see wcount > 0 (their
// publishers counted in at line 2 before publishing, which precedes
// the combiner's drain), so the gate stays closed across a batch —
// the writer-priority batching.
func (l *MWWP) combinedPassage(cs func()) {
	id := l.idCtr.Add(1)
	cur := l.core.d.Load() // line 10
	prev := 1 - cur
	if isSideToken(l.wtoken.Load()) { // line 11
		l.core.gate[prev].wait(cellTrue) // line 12
		l.core.writerWaitingRoom(prev)   // line 13
	}
	cs()
	l.wtoken.Store(id)        // line 15
	l.wcount.Add(-1)          // line 16
	if l.wcount.Load() == 0 { // line 18
		if l.wtoken.CompareAndSwap(id, tokenSide(prev)) { // line 19
			l.core.writerExit(cur) // line 20
		}
	}
}

// CombinerStats reports the batching statistics when the lock was
// built with WithCombiningWriters (see CombinerStatsOf).
func (l *MWWP) CombinerStats() (CombinerStats, bool) {
	if c, ok := l.m.(*combiner); ok {
		return c.snapshot(), true
	}
	return CombinerStats{}, false
}

// enterHeld is Figure 4 lines 10-13, run with the arbitration mutex
// held and the doorway done: take the fast W-token handoff when a
// predecessor left the SWWP core held, or run the gate wait + waiting
// room when the side token says the core must be (re)entered.
func (l *MWWP) enterHeld() (prev, cur int32) {
	cur = l.core.d.Load() // line 10
	prev = 1 - cur
	if isSideToken(l.wtoken.Load()) { // line 11
		l.core.gate[prev].wait(cellTrue) // line 12
		l.core.writerWaitingRoom(prev)   // line 13
	}
	return prev, cur
}

// TryLock attempts write mode without blocking: the arbitration
// mutex's non-blocking probe first, then — only when the W-token is a
// side token, i.e. no predecessor left the core held for us — the
// no-readers probe, and then the commit (doorway + lines 10-13).
// Unlike the blocking Lock, the doorway runs AFTER the mutex probe;
// see LockCtx for why that reordering is sound.  The probes and the
// commit are not atomic: a reader registering (or a predecessor
// reopening the gate) in that window is drained by the ordinary
// waiting room — the documented race window.
func (l *MWWP) TryLock() (WToken, bool) {
	slot, ok := l.m.tryAcquire()
	if !ok {
		if st := l.stats; st != nil {
			st.TrySheds.Add(1)
		}
		return WToken{}, false
	}
	if isSideToken(l.wtoken.Load()) && !l.core.readersIdle() {
		l.m.release(slot)
		if st := l.stats; st != nil {
			st.TrySheds.Add(1)
		}
		return WToken{}, false
	}
	id := l.idCtr.Add(1)
	l.doorway() // commit
	prev, cur := l.enterHeld()
	if st := l.stats; st != nil {
		st.WriteAcquires.Add(1)
	}
	return WToken{prev: prev, cur: cur, slot: slot, id: id}, true
}

// TryRLock attempts read mode without blocking; a failed attempt
// retires through a zero-length read passage (see
// swwpCore.tryReaderLock).
func (l *MWWP) TryRLock() (RToken, bool) { return l.core.tryReaderLock() }

// LockCtx acquires write mode with the arbitration-queue wait
// cancellable.  To stay abortable while queued it DELAYS the Figure 4
// doorway until after the mutex grant: the blocking Lock announces
// itself (Wcount, the W-token CAS) before queueing so that even a
// deeply queued writer convoy keeps the reader gate closed across
// handoffs, but an announced writer cannot retract (nothing ever
// decrements Wcount except a completed passage).  Exclusion and
// starvation-freedom are unaffected — every CS-entry wait (lines
// 10-13) runs under the mutex either way, and the line 19 CAS
// arbitrates the exit race identically — but a ctx writer parked in
// the queue does not hold the gate closed, so WP1's early
// cross-handoff gate closing narrows to announced (blocking-path)
// writers.  After the grant, the doorway is the point of no return.
func (l *MWWP) LockCtx(ctx context.Context) (WToken, error) {
	slot, err := l.m.acquireCtx(ctx)
	if err != nil {
		if st := l.stats; st != nil {
			st.CtxSheds.Add(1)
		}
		return WToken{}, err
	}
	if err := ctx.Err(); err != nil {
		// Not yet announced: handing the mutex on is a complete undo.
		l.m.release(slot)
		if st := l.stats; st != nil {
			st.CtxSheds.Add(1)
		}
		return WToken{}, err
	}
	id := l.idCtr.Add(1)
	l.doorway() // point of no return
	prev, cur := l.enterHeld()
	if st := l.stats; st != nil {
		st.WriteAcquires.Add(1)
	}
	return WToken{prev: prev, cur: cur, slot: slot, id: id}, nil
}

// RLockCtx acquires read mode, aborting the gate wait when ctx is
// cancelled; the aborted reader retires through a zero-length read
// passage, keeping counts and permit handoffs exact.
func (l *MWWP) RLockCtx(ctx context.Context) (RToken, error) {
	return l.core.readerLockCtx(ctx)
}

// WriteCtx runs cs in write mode unless ctx is cancelled first.  On a
// combining lock the point of no return is the DOORWAY, not the
// publication CAS: Write must announce Wcount before publishing (the
// writer-priority batching depends on it), and an announced writer
// cannot retract, so WriteCtx checks ctx once and then commits
// through the uncancellable Write path.  On a non-combining lock
// LockCtx's commitment points apply.
func (l *MWWP) WriteCtx(ctx context.Context, cs func()) error {
	c, ok := l.m.(*combiner)
	if !ok {
		t, err := l.LockCtx(ctx)
		if err != nil {
			return err
		}
		defer l.Unlock(t)
		cs()
		return nil
	}
	if err := ctx.Err(); err != nil {
		if st := l.stats; st != nil {
			st.CtxSheds.Add(1)
		}
		return err
	}
	l.doorway() // point of no return: Wcount is announced
	c.exec(cs)
	if st := l.stats; st != nil {
		st.WriteAcquires.Add(1)
	}
	return nil
}

// RLock acquires the lock in read mode (the unchanged SWWP reader).
func (l *MWWP) RLock() RToken { return l.core.readerLock() }

// RUnlock releases read mode.
func (l *MWWP) RUnlock(t RToken) { l.core.readerUnlock(t) }

var _ RWLock = (*MWWP)(nil)
var _ FuncWriter = (*MWWP)(nil)
var _ TryRWLock = (*MWWP)(nil)
var _ CtxRWLock = (*MWWP)(nil)
var _ CtxFuncWriter = (*MWWP)(nil)
