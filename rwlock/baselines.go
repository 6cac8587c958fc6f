package rwlock

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// This file provides the baselines the paper's locks are benchmarked
// against in EXPERIMENTS.md:
//
//   - CentralizedRW: the folklore one-word counter reader-writer spin
//     lock.  Simple and fast uncontended, but every waiter waits on
//     the same word, so its RMR traffic grows with the number of
//     processes — the gap the paper closes.
//   - PhaseFairRW: a ticket-based phase-fair reader-writer lock in
//     the style of Brandenburg & Anderson (ECRTS 2009, the paper's
//     [26]): writers are FIFO, and readers that arrive while a writer
//     waits are admitted after exactly one writer phase.
//   - RWMutexLock: the Go standard library's sync.RWMutex behind the
//     package's token interface (tokens are ignored).
//
// All waiting goes through waitCells, so the baselines wait exactly as
// the paper's locks do — spin briefly, then park — and the
// oversubscription experiments compare like with like.
type noCopy struct{}

// Lock and Unlock make noCopy trip `go vet -copylocks`.
func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}

// CentralizedRW is the classical counter-based reader-writer spin
// lock: readers fetch&add a reader unit and back off if a writer is
// present; writers fetch&add a writer unit, then drain readers.
// Mutual exclusion holds, but there is no FCFS/FIFE and no RMR bound:
// all waiting is on one global word.
type CentralizedRW struct {
	_   noCopy
	cnt waitCell // writer count at bit 32+, reader count below
}

// NewCentralizedRW returns a ready centralized lock.
func NewCentralizedRW() *CentralizedRW { return &CentralizedRW{} }

// noReaders/noWriters are the wait conditions of the packed word:
// static predicates, so waitUntil calls allocate nothing.
func noReaders(v int64) bool { return v&(wwBit-1) == 0 }
func noWriters(v int64) bool { return v>>32 == 0 }

// Lock acquires write mode.
func (l *CentralizedRW) Lock() WToken {
	for {
		old := l.cnt.add(wwBit) - wwBit
		if old == 0 {
			return WToken{}
		}
		if old>>32 == 0 {
			// Only readers ahead: drain them.
			l.cnt.waitUntil(noReaders)
			return WToken{}
		}
		// Another writer: back off and retry when it leaves.  The
		// retreat clears our writer unit, which waiting readers watch
		// for, so it must wake.
		l.cnt.addWake(-wwBit)
		l.cnt.waitUntil(noWriters)
	}
}

// Unlock releases write mode.
func (l *CentralizedRW) Unlock(WToken) { l.cnt.addWake(-wwBit) }

// RLock acquires read mode.
func (l *CentralizedRW) RLock() RToken {
	for {
		old := l.cnt.add(1) - 1
		if old>>32 == 0 {
			return RToken{}
		}
		// A writer is present: retreat (waking the writer draining
		// readers) and wait for a writer-free word.
		l.cnt.addWake(-1)
		l.cnt.waitUntil(noWriters)
	}
}

// RUnlock releases read mode.
func (l *CentralizedRW) RUnlock(RToken) { l.cnt.addWake(-1) }

// TryLock attempts write mode without blocking: one CAS of the free
// word.  The centralized lock is the one discipline whose whole state
// is a single word, so its try is exact — no probe window.
func (l *CentralizedRW) TryLock() (WToken, bool) {
	if l.cnt.cas(0, wwBit) {
		return WToken{}, true
	}
	return WToken{}, false
}

// TryRLock attempts read mode without blocking: register, and retreat
// (waking any draining writer) if a writer was present.
func (l *CentralizedRW) TryRLock() (RToken, bool) {
	if (l.cnt.add(1)-1)>>32 == 0 {
		return RToken{}, true
	}
	l.cnt.addWake(-1)
	return RToken{}, false
}

// LockCtx acquires write mode; every wait is cancellable because
// every step of this lock is reversible — a cancelled drain retreats
// by removing the writer unit (waking the readers watching for it),
// exactly as the back-off path of Lock does.
func (l *CentralizedRW) LockCtx(ctx context.Context) (WToken, error) {
	for {
		old := l.cnt.add(wwBit) - wwBit
		if old == 0 {
			return WToken{}, nil
		}
		if old>>32 == 0 {
			if err := l.cnt.waitUntilCtx(ctx, noReaders); err != nil {
				l.cnt.addWake(-wwBit) // retreat; readers watch noWriters
				return WToken{}, err
			}
			return WToken{}, nil
		}
		l.cnt.addWake(-wwBit)
		if err := l.cnt.waitUntilCtx(ctx, noWriters); err != nil {
			return WToken{}, err
		}
	}
}

// RLockCtx acquires read mode; cancellation can only land in the
// retreated (nothing-held) wait, so the undo is free.
func (l *CentralizedRW) RLockCtx(ctx context.Context) (RToken, error) {
	for {
		if (l.cnt.add(1)-1)>>32 == 0 {
			return RToken{}, nil
		}
		l.cnt.addWake(-1)
		if err := l.cnt.waitUntilCtx(ctx, noWriters); err != nil {
			return RToken{}, err
		}
	}
}

var _ RWLock = (*CentralizedRW)(nil)
var _ TryRWLock = (*CentralizedRW)(nil)
var _ CtxRWLock = (*CentralizedRW)(nil)

// PhaseFairRW is a phase-fair ticket reader-writer lock: writers take
// FIFO tickets; a writer publishes its presence (and phase parity) in
// the low bits of rin and waits for the readers that arrived before
// it; readers that see a writer present wait only until the writer
// bits CHANGE — i.e. they are admitted at the next phase boundary,
// after at most one writer, regardless of how many writers are queued.
//
// Two rules keep a reader's "bits changed" test free of ABA.  The
// phase bit flips once per writer that raises the presence bit (it
// stays in rin between writers), and a writer that raises the bit
// always drains and completes its passage: TryLock raises it only
// when it will succeed, and LockCtx commits at its ticket.  So once a
// reader has registered under writer W's bits, the next writer to
// raise the bit counts that reader and cannot finish before it leaves,
// and W's bits cannot come back while the reader waits.
type PhaseFairRW struct {
	_    noCopy
	rin  waitCell     // readers-in << 8 | cancelled hand-offs << 2 | writer presence/phase bits
	rout waitCell     // readers-out << 8
	win  atomic.Int64 // writer ticket dispenser (never waited on)
	_    [56]byte
	wout waitCell // writer tickets served
}

const (
	pfReader   = int64(0x100) // one reader unit in rin/rout
	pfPend     = int64(0x4)   // one cancelled reader handed to the writer
	pfPendMask = int64(0xfc)  // hand-off count field of rin (0..63)
	pfPres     = int64(0x2)   // writer-present bit
	pfPhase    = int64(0x1)   // writer phase parity bit
	pfWBits    = pfPres | pfPhase
	pfLow      = pfPendMask | pfWBits // rin bits below the reader count
)

// NewPhaseFairRW returns a ready phase-fair lock.
func NewPhaseFairRW() *PhaseFairRW { return &PhaseFairRW{} }

// raiseBy is the amount that puts a writer's bits up over rin value
// v: presence plus the flipped phase.  Only the head writer changes
// rin's low two bits, and the previous writer left only its phase bit
// there, so one add (or CAS) moves them.
func raiseBy(v int64) int64 {
	p := v & pfPhase
	return (pfPres | (p ^ pfPhase)) - p
}

// Lock acquires write mode.
func (l *PhaseFairRW) Lock() WToken {
	t := l.win.Add(1) - 1
	l.wout.wait(t) // writers FIFO
	d := raiseBy(l.rin.load())
	entered := (l.rin.add(d) - d) &^ pfLow // readers that arrived before me
	l.rout.wait(entered)
	return WToken{}
}

// Unlock releases write mode.  It drops the presence bit (the phase
// bit stays for the next writer to flip) so waiting readers see the
// phase change, retires the readers whose RLockCtx was cancelled
// under its bits, and then admits the next writer; each step that a
// waiter watches is a wake site.
func (l *PhaseFairRW) Unlock(WToken) {
	nv := l.rin.addWake(-pfPres)
	if n := (nv & pfPendMask) / pfPend; n != 0 {
		// No reader can add a hand-off now that the bit is down, and
		// no writer can raise it again before wout moves.
		l.rin.add(-n * pfPend)
		l.rout.addWake(n * pfReader)
	}
	l.wout.addWake(1)
}

// RLock acquires read mode.
func (l *PhaseFairRW) RLock() RToken {
	w := (l.rin.add(pfReader) - pfReader) & pfWBits
	if w&pfPres != 0 {
		// A writer holds or awaits the lock: wait for the next phase
		// boundary (the writer bits changing), after which we hold a
		// counted reservation the next writer will wait for.
		l.rin.waitUntil(func(v int64) bool { return v&pfWBits != w })
	}
	return RToken{}
}

// RUnlock releases read mode.
func (l *PhaseFairRW) RUnlock(RToken) { l.rout.addWake(pfReader) }

// TryLock attempts write mode without blocking.  The head-of-queue
// probe (wout == win) plus the ticket CAS stands in for the FIFO
// wait; the bits go up only by a CAS on a reader count that rout has
// already matched, so a probe that finds readers inside never touches
// rin — it only passes its ticket on, as a passage with no phase.
func (l *PhaseFairRW) TryLock() (WToken, bool) {
	t := l.win.Load()
	if l.wout.load() != t || !l.win.CompareAndSwap(t, t+1) {
		return WToken{}, false // writer held/queued, or lost the claim
	}
	v := l.rin.load()
	if l.rout.load() != v&^pfLow || !l.rin.cas(v, v+raiseBy(v)) {
		l.wout.addWake(1) // readers inside, or one just arrived
		return WToken{}, false
	}
	return WToken{}, true
}

// TryRLock attempts read mode without blocking: it registers by a CAS
// on rin only while no writer bits are up, so a failed probe touches
// neither counter and a draining writer's snapshot stays exact.
func (l *PhaseFairRW) TryRLock() (RToken, bool) {
	for {
		v := l.rin.load()
		if v&pfPres != 0 {
			return RToken{}, false
		}
		if l.rin.cas(v, v+pfReader) {
			return RToken{}, true
		}
	}
}

// LockCtx acquires write mode.  The ticket fetch&add is the point of
// no return — a ticket cannot be returned without stranding every
// later ticket, the classic limitation of ticket locks, and a writer
// that raised its bits must complete its passage (see the type doc)
// — so cancellation wins only before the ticket.
func (l *PhaseFairRW) LockCtx(ctx context.Context) (WToken, error) {
	if err := ctx.Err(); err != nil {
		return WToken{}, err
	}
	return l.Lock(), nil // ticket = point of no return
}

// RLockCtx acquires read mode.  A reader cancelled under a writer's
// bits was never counted by that writer's drain and will be counted
// by the next one's, so it may neither leave rin nor retire through
// rout while those bits are up.  It hands its retirement to the
// writer instead, by a CAS that succeeds only while the bits are
// unchanged, and returns at once; that writer's Unlock adds it to
// rout.  If the bits changed first, the reader is past the phase
// boundary and retires through rout itself (a zero-length read
// passage).  If the hand-off field is full, it waits for the boundary
// (at most one writer passage) and then retires.
func (l *PhaseFairRW) RLockCtx(ctx context.Context) (RToken, error) {
	w := (l.rin.add(pfReader) - pfReader) & pfWBits
	if w&pfPres == 0 {
		return RToken{}, nil
	}
	changed := func(v int64) bool { return v&pfWBits != w }
	err := l.rin.waitUntilCtx(ctx, changed)
	if err == nil {
		return RToken{}, nil
	}
	for {
		v := l.rin.load()
		if changed(v) {
			l.rout.addWake(pfReader)
			return RToken{}, err
		}
		if v&pfPendMask == pfPendMask {
			l.rin.waitUntil(changed)
			l.rout.addWake(pfReader)
			return RToken{}, err
		}
		if l.rin.cas(v, v+pfPend) {
			return RToken{}, err
		}
	}
}

var _ RWLock = (*PhaseFairRW)(nil)
var _ TryRWLock = (*PhaseFairRW)(nil)
var _ CtxRWLock = (*PhaseFairRW)(nil)

// TaskFairRW is a task-fair ticket reader-writer lock in the style of
// Krieger, Stumm, Unrau & Hanna (ICPP 1993, the paper's [25]):
// readers and writers are served in strict arrival order and
// consecutive readers share the CS.  Strong fairness, but it does NOT
// satisfy concurrent entering: a reader stalled at the queue head
// blocks every later reader even when no writer exists — the defect
// the paper's algorithms avoid (see the task-fair tests in
// internal/core for the directed counterexample).
type TaskFairRW struct {
	_       noCopy
	tail    atomic.Int64 // ticket dispenser (never waited on)
	_       [56]byte
	serving waitCell
	readers waitCell
}

// NewTaskFairRW returns a ready task-fair lock.
func NewTaskFairRW() *TaskFairRW { return &TaskFairRW{} }

// Lock acquires write mode.
func (l *TaskFairRW) Lock() WToken {
	t := l.tail.Add(1) - 1
	l.serving.wait(t)
	l.readers.wait(0)
	return WToken{}
}

// Unlock releases write mode, handing the queue head onward.
func (l *TaskFairRW) Unlock(WToken) { l.serving.addWake(1) }

// RLock acquires read mode.
func (l *TaskFairRW) RLock() RToken {
	t := l.tail.Add(1) - 1
	l.serving.wait(t)
	l.readers.add(1) // register before releasing the head
	l.serving.addWake(1)
	return RToken{}
}

// RUnlock releases read mode (waking a writer draining readers).
func (l *TaskFairRW) RUnlock(RToken) { l.readers.addWake(-1) }

// TryLock attempts write mode without blocking: it claims a ticket
// only when the queue is empty at the head (serving == tail) AND no
// reader shares the CS.  Both Lock waits are then already satisfied —
// serving is ours by the CAS, and no reader can register without a
// later ticket, which queues behind us.
func (l *TaskFairRW) TryLock() (WToken, bool) {
	t := l.tail.Load()
	if l.serving.load() != t || l.readers.load() != 0 {
		return WToken{}, false
	}
	if !l.tail.CompareAndSwap(t, t+1) {
		return WToken{}, false
	}
	return WToken{}, true
}

// TryRLock attempts read mode without blocking: the same
// empty-at-head claim (readers inside are fine — they share), then
// the ordinary register-and-release-the-head tail of RLock.
func (l *TaskFairRW) TryRLock() (RToken, bool) {
	t := l.tail.Load()
	if l.serving.load() != t || !l.tail.CompareAndSwap(t, t+1) {
		return RToken{}, false
	}
	l.readers.add(1)
	l.serving.addWake(1)
	return RToken{}, true
}

// LockCtx acquires write mode; the ticket fetch&add is the point of
// no return — strict arrival order means an abandoned ticket would
// strand every later arrival, reader or writer, so cancellation wins
// only before the ticket.  (The task-fair queue is the least
// abortable discipline here; prefer MWSF's MCS arbitration when
// deadline writers matter.)
func (l *TaskFairRW) LockCtx(ctx context.Context) (WToken, error) {
	if err := ctx.Err(); err != nil {
		return WToken{}, err
	}
	return l.Lock(), nil // ticket = point of no return
}

// RLockCtx acquires read mode; the same ticket commitment as LockCtx
// applies — strict task-fairness makes a queued reader unabortable.
func (l *TaskFairRW) RLockCtx(ctx context.Context) (RToken, error) {
	if err := ctx.Err(); err != nil {
		return RToken{}, err
	}
	return l.RLock(), nil // ticket = point of no return
}

var _ RWLock = (*TaskFairRW)(nil)
var _ TryRWLock = (*TaskFairRW)(nil)
var _ CtxRWLock = (*TaskFairRW)(nil)

// RWMutexLock adapts sync.RWMutex to the package interface so the
// standard library participates in the same benchmarks and tests.
// Note sync.RWMutex's own discipline: writers block new readers
// (roughly writer-preference for admission, FIFO via the mutex), and
// waiters always park in the runtime at once, where the package's
// waits spin briefly first.
type RWMutexLock struct {
	mu sync.RWMutex
}

// NewRWMutexLock returns a ready adapter.
func NewRWMutexLock() *RWMutexLock { return &RWMutexLock{} }

// Lock acquires write mode.
func (l *RWMutexLock) Lock() WToken {
	l.mu.Lock()
	return WToken{}
}

// Unlock releases write mode.
func (l *RWMutexLock) Unlock(WToken) { l.mu.Unlock() }

// RLock acquires read mode.
func (l *RWMutexLock) RLock() RToken {
	l.mu.RLock()
	return RToken{}
}

// RUnlock releases read mode.
func (l *RWMutexLock) RUnlock(RToken) { l.mu.RUnlock() }

// TryLock attempts write mode without blocking (sync.RWMutex.TryLock).
func (l *RWMutexLock) TryLock() (WToken, bool) {
	return WToken{}, l.mu.TryLock()
}

// TryRLock attempts read mode without blocking
// (sync.RWMutex.TryRLock).
func (l *RWMutexLock) TryRLock() (RToken, bool) {
	return RToken{}, l.mu.TryRLock()
}

// LockCtx acquires write mode by polling TryLock until it succeeds or
// ctx is cancelled.  sync.RWMutex has no cancellable blocking wait,
// so this adapter trades the runtime's queue fairness for
// cancellability: a poller can be overtaken indefinitely by direct
// Lock callers.  It exists so the standard library participates in
// the deadline benchmarks; production deadline writers should use the
// package's own locks, whose queues abort cleanly.
func (l *RWMutexLock) LockCtx(ctx context.Context) (WToken, error) {
	for {
		if l.mu.TryLock() {
			return WToken{}, nil
		}
		if err := ctx.Err(); err != nil {
			return WToken{}, err
		}
		runtime.Gosched()
	}
}

// RLockCtx acquires read mode by polling TryRLock; the same fairness
// caveat as LockCtx applies.
func (l *RWMutexLock) RLockCtx(ctx context.Context) (RToken, error) {
	for {
		if l.mu.TryRLock() {
			return RToken{}, nil
		}
		if err := ctx.Err(); err != nil {
			return RToken{}, err
		}
		runtime.Gosched()
	}
}

var _ RWLock = (*RWMutexLock)(nil)
var _ TryRWLock = (*RWMutexLock)(nil)
var _ CtxRWLock = (*RWMutexLock)(nil)
