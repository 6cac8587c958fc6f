package rwlock

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// This file implements the footprint-slim lock variants for
// 10^5-10^6-instance deployments (a sharded map's stripe grid, one
// lock per stripe).  The full Bravo and Epoch wrappers spend their
// per-instance bytes on machinery that only pays off when the
// INSTANCE itself is contended: a padded bias word, a padded re-arm
// budget, an inner Bhatt & Jayanti lock with its gates and writer
// arbitration (~2.5 KB per Bravo(MWSF) instance on a small box).  At
// a million instances that is gigabytes for machinery that per-stripe
// traffic — contention spread over 10^6 locks — never exercises.
//
// SlimBravo and SlimEpoch keep the two reader fast-path PROTOCOLS
// (BRAVO's claim/recheck against a bias, Epoch's publish/recheck
// against an epoch parity) but shrink everything else:
//
//   - All reader visibility lives in one package-wide arena (the
//     slim arena below) — the BRAVO paper's global table — so the
//     per-instance reader state is an owner id.
//   - The slow path is a single packed state word (reader count,
//     writer bit, bias/epoch, sleeper count), i.e. the centralized
//     reader-writer protocol the paper's baselines use, NOT the
//     constant-RMR Bhatt & Jayanti machinery: O(1)-RMR waiting needs
//     per-waiter cells the footprint budget cannot carry, and with
//     instances ≫ cores the expected per-instance queue length is ~0.
//     A goroutine that finds the writer bit held (SlimEpoch: the
//     epoch odd) re-reads the word briefly, then counts itself in the
//     word's sleeper field and sleeps on a runtime semaphore in the
//     lock's 4 spare bytes; every path that drops the bit posts each
//     counted sleeper (see slimWord.await).  Nothing is handed off: a
//     running goroutine that finds the bit free takes it ahead of the
//     sleepers it was posted for, as sync.RWMutex's writers do, so a
//     hot instance stays on the cores that are already running.
//   - The whole lock is ONE 16-byte allocation: the state word, the
//     32-bit owner id of the lock's claims in the arena, and the
//     semaphore.
//
// Fairness: neither variant orders its writers (no FCFS, no
// starvation-freedom under sustained single-instance contention).
// They are serving-tier locks: correct always, fair enough when
// instances ≫ goroutines, and 100x+ smaller.  For a hot single lock,
// use the full wrappers.
//
// Owner ids are 32-bit truncations of the arena's id sequence, so
// after ~4.3G lock constructions ids recycle.  An id collision is a
// PERFORMANCE hazard only, never a correctness one: a drain that
// waits on a same-id slot claimed by another lock's reader waits out
// one bounded read passage spuriously; mutual exclusion always comes
// from the lock's own state word plus the claim/recheck ordering.
//
// Observability: the Slim locks do NOT implement the WithStats seam —
// they take no options, and a per-instance stats pointer would double
// the 16-byte footprint the whole design exists to protect.  Observe
// a Slim grid one level up, through rwmap.Map.Heatmap.

// slimFastSide tags an RToken issued by a Slim lock's arena fast
// path: -1 is Bravo's, -2 is Epoch's, so -3 is unambiguous.
const slimFastSide = int32(-3)

// slimArena is the reader table every Slim lock publishes in: one
// process-wide arena, sized up from a private table (many locks share
// it, so each P's region must hold more locks' readers) but capped —
// each slot is two cache lines, and the re-arm throttle grows with
// the slot count.  32 slots per P, floor 64, cap 4096 (the BRAVO
// paper's global table size): on 2 Ps it is two regions of 32 slots,
// and a revocation reads 6 of its 64 slots.  The first Slim
// construction builds it — not package init, which runs before a main
// that sets GOMAXPROCS — and it never changes after that, so the lock
// paths reach it with one plain load.
var (
	slimArena     *readerTable
	slimArenaOnce sync.Once
)

// slimNewID returns a fresh owner id in the slim arena, building the
// arena on first use.
func slimNewID() uint32 {
	slimArenaOnce.Do(func() {
		slimArena = newReaderTable(min(max(32*runtime.GOMAXPROCS(0), 64), 4096))
	})
	return uint32(slimArena.assignID())
}

// slimWord is what both Slim locks are made of: the packed state
// word, the owner id of the lock's arena claims, and the semaphore its
// sleepers park on.  Each lock passes its own layout to the methods
// below: blocked is the bit a waiter waits to see clear (the writer
// bit, or the epoch's low bit), and sleepers is the mask of the
// state word's sleeper count.
type slimWord struct {
	state atomic.Int64
	id    uint32
	sema  uint32
}

// await returns nil once the state word shows blocked clear, or
// ctx.Err() once ctx is done while it is set; the word is checked
// first, so a release that races a cancellation wins.  It re-reads
// the word parkSpin times, yields yields times, and then sleeps: it
// counts itself in by a CAS on the exact blocked state it read and
// parks on sema until a release posts it, then checks again.  While
// the count is saturated it yields instead.
//
// No wake is lost: a count-in CAS succeeds only on a blocked state,
// so it lands while some goroutine holds the blocking bit, and the
// path that drops the bit (release) then takes the whole count and
// posts each unit.  A post is not addressed, so a goroutine that
// counted in later can take one meant for an earlier sleeper; the
// later one's own unit is still counted, so a later release posts
// the earlier sleeper in its turn.
//
// Only goroutines waiting FOR the bit sleep here.  The holder's own
// wait for slow readers (drainReaders) never does: the only post that
// could wake it is its own release, and a later sleeper could take
// that token.
func (w *slimWord) await(ctx context.Context, blocked, sleepers int64, yields int) error {
	for i := 0; i < parkSpin; i++ {
		if w.state.Load()&blocked == 0 {
			return nil
		}
	}
	for i := 0; i < yields; i++ {
		runtime.Gosched()
		if w.state.Load()&blocked == 0 {
			return nil
		}
	}
	done := ctx.Done()
	if done != nil {
		// A cancellation posts every counted sleeper, this one among
		// them; the others re-check and sleep again.  It keeps posting
		// until this waiter is out, since a goroutine that counted in
		// after the take can consume the post meant for it.  For the
		// same reason a waiter that counts in after the cancellation
		// still sleeps: the canceller's next take posts it, and every
		// count-in stays matched by one semacquire.
		var out atomic.Bool
		stop := context.AfterFunc(ctx, func() {
			for !out.Load() {
				w.wake(sleepers)
				runtime.Gosched()
			}
		})
		defer func() {
			out.Store(true)
			stop()
		}()
	}
	for {
		s := w.state.Load()
		if s&blocked == 0 {
			return nil
		}
		if done != nil {
			select {
			case <-done:
				return ctx.Err()
			default:
			}
		}
		if s&sleepers == sleepers {
			runtime.Gosched()
			continue
		}
		if w.state.CompareAndSwap(s, s+(sleepers&-sleepers)) {
			semacquire(&w.sema)
		}
	}
}

// release adds delta, which drops the blocking bit, and posts every
// counted sleeper; with none counted it is one atomic add and a test.
func (w *slimWord) release(delta, sleepers int64) {
	if w.state.Add(delta)&sleepers != 0 {
		w.wake(sleepers)
	}
}

// wake takes the whole sleeper count with one CAS and posts each unit.
// With handoff false the poster keeps its P, so a running goroutine
// can take the bit before the sleepers it posted have run.
func (w *slimWord) wake(sleepers int64) {
	for {
		s := w.state.Load()
		if s&sleepers == 0 {
			return
		}
		if w.state.CompareAndSwap(s, s&^sleepers) {
			for n := (s & sleepers) / (sleepers & -sleepers); n > 0; n-- {
				semrelease(&w.sema, false, 0)
			}
			return
		}
	}
}

// drainReaders is the bit holder's wait for the slow readers counted
// under mask to leave: re-checks, then yields, never the semaphore
// (see await).  Callers test the count first, so an uncontended
// write pays no call.
func (w *slimWord) drainReaders(mask int64) {
	for i := 0; w.state.Load()&mask != 0; i++ {
		if i >= parkSpin {
			runtime.Gosched()
		}
	}
}

// SlimBravo state-word layout.  Readers inside through the slow path
// are counted in rc; the re-arm countdown occupies its own field so
// the reader that spends the budget arms the bias in the same CAS
// that registers it (full Bravo needs a separate padded word for
// this; here the whole protocol shares one line by design — the
// footprint trade again).  Bits 50-62 count the sleepers.
const (
	slimWH       = int64(1) << 0 // writer holds
	slimBias     = int64(1) << 1 // readers may use the arena fast path
	slimRC       = int64(1) << 2 // slow-reader count unit (32 bits)
	slimRCMask   = (int64(1)<<32 - 1) << 2
	slimCD       = int64(1) << 34 // re-arm countdown unit (16 bits)
	slimCDMask   = (int64(1)<<16 - 1) << 34
	slimCDMax    = int64(1)<<16 - 1
	slimSleepers = (int64(1)<<13 - 1) << 50 // sleeper count (13 bits)
)

// SlimBravo is the BRAVO protocol at minimum footprint: a 16-byte
// lock (one packed state word, one arena owner id, one semaphore)
// whose fast-path readers publish themselves in the slim arena.  See
// the file comment for what is kept and what is traded against the
// full Bravo wrapper.  Construct with NewSlimBravo; the zero value is
// not ready (the bias starts armed).
type SlimBravo struct{ slimWord }

// NewSlimBravo returns a read-biased SlimBravo.  A goroutine that
// finds the writer bit held re-checks it 128 times (a reader then also
// yields 4 times, the wait cells' schedule) and then sleeps on the
// lock's semaphore until the holder's release posts it.  The writer's
// own waits for the readers already inside never sleep there: it
// re-checks and yields on the slow-reader count, and its revocation
// drain waits on the arena's cells, which park.
func NewSlimBravo() *SlimBravo {
	l := &SlimBravo{}
	l.id = slimNewID()
	l.state.Store(slimBias)
	return l
}

// RLock acquires read mode: the arena fast path while the bias is
// armed, the state-word reader count otherwise.
func (l *SlimBravo) RLock() RToken {
	t, _ := l.RLockCtx(context.Background())
	return t
}

// slimReaderIn is the state after a slow reader registers in s: one
// more in rc and, if the bias is off, one step of the re-arm
// countdown; the passage that spends it arms the bias in the same CAS.
func slimReaderIn(s int64) int64 {
	ns := s + slimRC
	if s&slimBias == 0 && s&slimCDMask != 0 {
		ns -= slimCD
		if ns&slimCDMask == 0 {
			ns |= slimBias
		}
	}
	return ns
}

// RUnlock releases read mode; it must receive the token returned by
// the matching RLock.
func (l *SlimBravo) RUnlock(t RToken) {
	if t.side == slimFastSide {
		slimArena.release(t.id)
		return
	}
	l.state.Add(-slimRC)
}

// Lock acquires write mode: take the writer bit and clear the bias in
// one CAS, then wait out the registered slow readers and drain this
// lock's arena claims.  The CAS is the commitment point.
func (l *SlimBravo) Lock() WToken {
	t, _ := l.LockCtx(context.Background())
	return t
}

// writerSettle finishes a write acquisition after the commitment CAS:
// slow readers drain from rc, and if the bias was armed, the arena is
// drained and the re-arm budget set.  Runs with the writer bit held,
// so no concurrent writer and no bias re-arm can interleave.
func (l *SlimBravo) writerSettle(hadBias bool) {
	if l.state.Load()&slimRCMask != 0 {
		l.drainReaders(slimRCMask)
	}
	if hadBias {
		l.setRearm(slimArena.drainFor(int64(l.id)))
	}
}

// setRearm sets the re-arm countdown after a revocation, sized as the
// full Bravo sizes it: the scan paid plus the busy slots waited on.
func (l *SlimBravo) setRearm(busy int) {
	budget := min(int64(1+len(slimArena.slots)/8+bravoBusyFactor*busy), slimCDMax)
	for {
		s := l.state.Load()
		if l.state.CompareAndSwap(s, (s&^slimCDMask)|budget*slimCD) {
			return
		}
	}
}

// Unlock releases write mode and posts every counted sleeper.
func (l *SlimBravo) Unlock(WToken) { l.release(-slimWH, slimSleepers) }

// Write runs cs in write mode (the closure path; see FuncWriter).
func (l *SlimBravo) Write(cs func()) {
	t := l.Lock()
	defer l.Unlock(t)
	cs()
}

// TryLock attempts write mode without blocking: it commits only when
// the lock is writer-free with no registered slow readers, and — as
// the full Bravo does — on an armed bias it SCANS this lock's arena
// slots instead of draining them, restoring the bias and reporting
// busy if any of this lock's claims are live.
func (l *SlimBravo) TryLock() (WToken, bool) {
	s := l.state.Load()
	if s&slimWH != 0 || s&slimRCMask != 0 {
		return WToken{}, false
	}
	if !l.state.CompareAndSwap(s, (s&^slimBias)|slimWH) {
		return WToken{}, false
	}
	if s&slimBias != 0 {
		if !slimArena.idleFor(int64(l.id)) {
			// Restore bias and release in one add: we hold the writer
			// bit, so nothing else can touch either bit concurrently.
			// Goroutines may have counted in as sleepers meanwhile.
			l.release(slimBias-slimWH, slimSleepers)
			return WToken{}, false
		}
		l.setRearm(0)
	}
	return WToken{}, true
}

// TryRLock attempts read mode without blocking: one arena claim
// attempt while biased, else one registration CAS.
func (l *SlimBravo) TryRLock() (RToken, bool) {
	tbl := slimArena
	s := l.state.Load()
	if s&slimBias != 0 {
		if idx, ok := tbl.tryClaim(int64(l.id)); ok {
			if l.state.Load()&slimBias != 0 {
				return RToken{side: slimFastSide, id: idx}, true
			}
			tbl.release(idx)
		}
		s = l.state.Load()
	}
	if s&slimWH == 0 && l.state.CompareAndSwap(s, slimReaderIn(s)) {
		return RToken{}, true
	}
	return RToken{}, false
}

// LockCtx acquires write mode, aborting with ctx.Err() while waiting
// for the writer bit; the commitment CAS ends cancellation — the
// reader drains then run to completion, bounded by the passages of
// the readers already inside.
func (l *SlimBravo) LockCtx(ctx context.Context) (WToken, error) {
	for {
		s := l.state.Load()
		if s&slimWH != 0 {
			if err := l.await(ctx, slimWH, slimSleepers, 0); err != nil {
				return WToken{}, err
			}
			continue
		}
		if l.state.CompareAndSwap(s, (s&^slimBias)|slimWH) {
			l.writerSettle(s&slimBias != 0)
			return WToken{}, nil
		}
	}
}

// RLockCtx acquires read mode, aborting with ctx.Err() while waiting
// out a writer; the fast path never waits, so ctx plays no part in it.
func (l *SlimBravo) RLockCtx(ctx context.Context) (RToken, error) {
	tbl := slimArena
	id := int64(l.id)
	for {
		s := l.state.Load()
		if s&slimBias != 0 {
			if idx, ok := tbl.tryClaim(id); ok {
				// Recheck AFTER publishing, the BRAVO ordering: either
				// this load sees a revoking writer's clear and we back
				// out, or our claim is visible to that writer's drain.
				if l.state.Load()&slimBias != 0 {
					return RToken{side: slimFastSide, id: idx}, nil
				}
				tbl.release(idx)
				continue
			}
			// Arena contended: fall through to the slow path.
		}
		if s&slimWH != 0 {
			if err := l.await(ctx, slimWH, slimSleepers, parkYield); err != nil {
				return RToken{}, err
			}
			continue
		}
		if l.state.CompareAndSwap(s, slimReaderIn(s)) {
			return RToken{}, nil
		}
	}
}

// WriteCtx runs cs in write mode unless ctx is cancelled first;
// LockCtx's commitment point applies.
func (l *SlimBravo) WriteCtx(ctx context.Context, cs func()) error {
	t, err := l.LockCtx(ctx)
	if err != nil {
		return err
	}
	defer l.Unlock(t)
	cs()
	return nil
}

// ReadBiased reports whether the arena fast path is currently armed
// (racy snapshot, for tests and metrics).
func (l *SlimBravo) ReadBiased() bool { return l.state.Load()&slimBias != 0 }

// SlimEpoch state-word layout: slow-reader count in bits 0-19, sleeper
// count in bits 20-31, and the epoch counter in bits 32-63, whose
// lowest bit doubles as the writer-present flag (odd = writer inside,
// exactly the full Epoch's parity convention).
//
// A 32-bit epoch wraps after 2^31 writes, and a fast reader's recheck
// can then match a stale epoch.  That is safe: only the parity decides
// safety.  A recheck that sees an even epoch means no writer is inside
// at that instant, and the reader's claim, published before the
// recheck, is already visible to the drain of any writer that makes
// the epoch odd later.
const (
	slimERCMask       = int64(1)<<20 - 1
	slimEpochSleepers = (int64(1)<<12 - 1) << 20
	slimEpochOne      = int64(1) << 32
	slimEpochMask     = -slimEpochOne
)

// SlimEpoch is the epoch-parity protocol at minimum footprint: a
// 16-byte lock whose fast-path readers claim slim-arena slots and
// recheck the packed epoch, and whose writers advance the epoch to
// odd and wait out a grace period.  Unlike the full Epoch wrapper
// there is no deferred version reclamation (no Retire) and no batch
// amortization — every write pays its own grace scan.  Waiters for an
// odd epoch sleep as SlimBravo's waiters for the writer bit do.  See
// the file comment for the full trade.  Construct with NewSlimEpoch.
type SlimEpoch struct{ slimWord }

// NewSlimEpoch returns a SlimEpoch.
func NewSlimEpoch() *SlimEpoch {
	l := &SlimEpoch{}
	l.id = slimNewID()
	return l
}

// RLock acquires read mode: claim an arena slot and recheck the epoch
// while it is even, registering in the packed reader count when the
// arena is contended, waiting while a writer (odd epoch) is inside.
func (l *SlimEpoch) RLock() RToken {
	t, _ := l.RLockCtx(context.Background())
	return t
}

// RUnlock releases read mode; it must receive the token returned by
// the matching RLock.
func (l *SlimEpoch) RUnlock(t RToken) {
	if t.side == slimFastSide {
		slimArena.release(t.id)
		return
	}
	l.state.Add(-1)
}

// Lock acquires write mode: advance the epoch to odd (the commitment
// point — fast entries now recheck-fail), then wait out registered
// readers and drain this lock's arena claims (the grace period).
func (l *SlimEpoch) Lock() WToken {
	t, _ := l.LockCtx(context.Background())
	return t
}

// Unlock releases write mode by advancing the epoch back to even — a
// fresh value, so stamped rechecks against any older epoch fail — and
// posts every counted sleeper.
func (l *SlimEpoch) Unlock(WToken) { l.release(slimEpochOne, slimEpochSleepers) }

// Write runs cs in write mode (the closure path; see FuncWriter).
func (l *SlimEpoch) Write(cs func()) {
	t := l.Lock()
	defer l.Unlock(t)
	cs()
}

// TryLock attempts write mode without blocking: it commits the epoch
// advance only when no writer is in and no reader is registered, and
// SCANS this lock's arena slots instead of draining them — on any
// live claim of this lock it advances again (reopening the fast path
// at a fresh even epoch; the monotonic counter makes the double
// advance safe, and sleepers that counted in meanwhile are posted)
// and reports busy, so a fast-path reader is never waited on.
func (l *SlimEpoch) TryLock() (WToken, bool) {
	s := l.state.Load()
	if s&slimEpochOne != 0 || s&slimERCMask != 0 {
		return WToken{}, false
	}
	if !l.state.CompareAndSwap(s, s+slimEpochOne) {
		return WToken{}, false
	}
	if !slimArena.idleFor(int64(l.id)) {
		l.release(slimEpochOne, slimEpochSleepers) // reopen without a grace wait
		return WToken{}, false
	}
	return WToken{}, true
}

// TryRLock attempts read mode without blocking: one arena claim
// attempt, else one registration CAS while the epoch is even.
func (l *SlimEpoch) TryRLock() (RToken, bool) {
	tbl := slimArena
	s := l.state.Load()
	if s&slimEpochOne != 0 {
		return RToken{}, false
	}
	g := s & slimEpochMask
	if idx, ok := tbl.tryClaim(int64(l.id)); ok {
		if l.state.Load()&slimEpochMask == g {
			return RToken{side: slimFastSide, id: idx}, true
		}
		tbl.release(idx)
		return RToken{}, false
	}
	if l.state.CompareAndSwap(s, s+1) {
		return RToken{}, true
	}
	return RToken{}, false
}

// LockCtx acquires write mode, aborting with ctx.Err() while waiting
// for the epoch to turn even; the advance CAS is the commitment point
// — the grace wait runs to completion past it.
func (l *SlimEpoch) LockCtx(ctx context.Context) (WToken, error) {
	for {
		s := l.state.Load()
		if s&slimEpochOne != 0 {
			if err := l.await(ctx, slimEpochOne, slimEpochSleepers, 0); err != nil {
				return WToken{}, err
			}
			continue
		}
		if l.state.CompareAndSwap(s, s+slimEpochOne) {
			if l.state.Load()&slimERCMask != 0 {
				l.drainReaders(slimERCMask)
			}
			slimArena.drainFor(int64(l.id))
			return WToken{}, nil
		}
	}
}

// RLockCtx acquires read mode, aborting with ctx.Err() while a writer
// holds the epoch odd; the fast path never waits.
func (l *SlimEpoch) RLockCtx(ctx context.Context) (RToken, error) {
	tbl := slimArena
	id := int64(l.id)
	for {
		s := l.state.Load()
		if s&slimEpochOne != 0 {
			if err := l.await(ctx, slimEpochOne, slimEpochSleepers, parkYield); err != nil {
				return RToken{}, err
			}
			continue
		}
		g := s & slimEpochMask
		if idx, ok := tbl.tryClaim(id); ok {
			// Recheck AFTER publishing: if the epoch still reads g, our
			// claim precedes any advancing writer's drain (seq-cst
			// Dekker), which will wait us out; otherwise back out.
			if l.state.Load()&slimEpochMask == g {
				return RToken{side: slimFastSide, id: idx}, nil
			}
			tbl.release(idx) // wake: a grace scan may be parked here
			continue
		}
		if l.state.CompareAndSwap(s, s+1) {
			return RToken{}, nil
		}
	}
}

// WriteCtx runs cs in write mode unless ctx is cancelled first;
// LockCtx's commitment point applies.
func (l *SlimEpoch) WriteCtx(ctx context.Context, cs func()) error {
	t, err := l.LockCtx(ctx)
	if err != nil {
		return err
	}
	defer l.Unlock(t)
	cs()
	return nil
}

var _ RWLock = (*SlimBravo)(nil)
var _ TryRWLock = (*SlimBravo)(nil)
var _ CtxRWLock = (*SlimBravo)(nil)
var _ FuncWriter = (*SlimBravo)(nil)
var _ CtxFuncWriter = (*SlimBravo)(nil)
var _ RWLock = (*SlimEpoch)(nil)
var _ TryRWLock = (*SlimEpoch)(nil)
var _ CtxRWLock = (*SlimEpoch)(nil)
var _ FuncWriter = (*SlimEpoch)(nil)
var _ CtxFuncWriter = (*SlimEpoch)(nil)
