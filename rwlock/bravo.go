package rwlock

import (
	"context"
	"sync/atomic"
)

// Bravo layers the BRAVO reader fast path (Dice & Kogan, USENIX ATC
// 2019, arXiv:1810.01553) over any lock in this package.  The wrapped
// lock keeps its RMR bound and its writer-side discipline; the wrapper
// adds reader-side multicore scalability, which the Bhatt & Jayanti
// algorithms lack because every reader fetch&adds the same packed
// [writer-waiting, reader-count] word.
//
// While the lock is read-biased (the common state under read-mostly
// load), a reader publishes itself in a private cache line of the
// visible-readers table and enters the critical section without
// touching the inner lock at all — one uncontended CAS in, one store
// out.  A writer first acquires the inner lock (inheriting its FCFS /
// priority / starvation-freedom guarantees against other writers and
// slow-path readers), then revokes the bias: it clears the flag and
// scans the slots this lock's readers can occupy until every
// published reader has left (see ReaderTable.drainFor).  Readers that
// arrive with the bias down take the inner lock's ordinary read path
// unchanged, and re-arm the bias once the revocation throttle — a
// countdown of slow read passages sized to the revocation the writer
// just paid for — is spent.  (The BRAVO paper throttles with a wall
// clock; counting slow passages measures the same thing, the work done
// between revocations, without putting a clock read on any path.)
//
// # What is preserved, and what is traded
//
// Mutual exclusion, deadlock-freedom and both classes' starvation-
// freedom are preserved for every wrapped discipline: a writer always
// completes revocation because slots quiesce (see ReaderTable.drainFor),
// and readers always have either the fast path or the inner lock's own
// progress guarantee.  Strict arrival-order fairness (FIFE, RP1/WP1)
// is what BRAVO trades away while the bias is armed: a fast-path
// reader can overtake a writer that is still revoking, exactly as in
// the BRAVO paper.  Once the bias is revoked — which every writer does
// on arrival — the inner discipline's semantics apply verbatim until
// readers re-arm.  Under write-heavy load the inhibit throttle keeps
// the bias down, so Bravo(L) degenerates gracefully to L plus one
// atomic load per operation.
type Bravo struct {
	// rbias is the paper's RBias flag: readers may use the fast path
	// iff it is set.  Set only by slow-path readers that hold the inner
	// read lock (so never while a writer is in the CS), cleared only by
	// writers that hold the inner write lock.
	rbias atomic.Bool
	_     [63]byte
	// slowBudget throttles re-arming: the revoking writer sets it to
	// the number of slow read passages that must complete before the
	// bias may be re-armed, scaled to the revocation cost it just paid
	// (a table-size term plus occupied slots waited on), so revocation
	// overhead stays a bounded fraction of the work done between
	// revocations — the role of the BRAVO paper's wall-clock inhibit,
	// without a clock read on any path.
	slowBudget atomic.Int64
	_          [56]byte
	// slots is the visible-readers table: private to this lock by
	// default, or a process-shared arena under WithSharedReaderTable
	// (same code either way — a private table is an arena with one
	// owner).  id tags this lock's claims so a shared drain waits only
	// on its own readers.
	slots *ReaderTable
	id    int64
	inner RWLock
	// innerCombines records (once, at construction) whether the inner
	// lock batches closure-path writes: only then does Write pay for
	// shipping the revocation inside a wrapper closure — on every
	// other inner lock the token path is the same semantics with zero
	// allocations.
	innerCombines bool
	// stats, when non-nil, receives the wrapper's own events: fast-path
	// read acquisitions, revocations and re-arms.  Slow-path reads fall
	// through to the inner lock, which counts them itself — build both
	// layers from one option list (as the NewBravoMW* helpers do) and
	// they share the block, so the sum is all reads with no double
	// count.  See WithStats.
	stats *LockStats
}

// bravoFastSide tags an RToken issued by the fast path: RToken.side is
// a gate index (0 or 1) for every inner lock, so -1 is unambiguous.
const bravoFastSide = int32(-1)

// bravoBusyFactor scales the re-arm countdown by the revocation cost
// actually observed: each occupied slot the revoking writer had to
// wait on (a live fast-path reader, the expensive part of a scan on a
// busy machine) buys this many more slow passages before readers may
// re-arm.  A table-size term of one slow passage per 8 slots (see
// revoke) sets the floor, so a large table on a large machine also
// keeps the flip-flop frequency bounded.
const bravoBusyFactor = 2

// NewBravo wraps inner with the BRAVO reader fast path.  If inner is
// nil, a starvation-free MWSF lock (unbounded writers, matching
// NewGuard's default) is built from opts.  Options configure the
// wrapper itself (WithStats, WithSharedReaderTable); the inner lock
// keeps whatever it was constructed with — the NewBravoMW* helpers
// apply one option list to both layers.  WithSharedReaderTable(tbl)
// publishes fast-path readers in tbl instead of a private table (see
// the option doc for the trade).
// Wrapping a *Bravo in another *Bravo panics: the outer wrapper would
// misroute the inner one's fast-path tokens.
func NewBravo(inner RWLock, opts ...Option) *Bravo {
	o := applyOptions(opts)
	if inner == nil {
		inner = NewMWSF(opts...)
	}
	if _, ok := inner.(*Bravo); ok {
		panic("rwlock: NewBravo applied to a *Bravo (nested BRAVO wrappers are not supported)")
	}
	tbl := o.sharedTable
	if tbl == nil {
		tbl = newReaderTable(0)
	}
	b := &Bravo{slots: tbl, id: tbl.assignID(), inner: inner, stats: o.stats}
	_, b.innerCombines = CombinerStatsOf(inner)
	// Start read-biased: the wrapper exists for read-mostly workloads,
	// and the first writer revokes in one short scan regardless.
	b.rbias.Store(true)
	return b
}

// NewBravoMWSF returns Bravo(MWSF): the starvation-free Theorem 3 lock
// with the BRAVO reader fast path.  Options (writer arbitration,
// stats) apply to both layers.
func NewBravoMWSF(opts ...Option) *Bravo {
	return NewBravo(NewMWSF(opts...), opts...)
}

// NewBravoMWRP returns Bravo(MWRP): the reader-priority Theorem 4 lock
// with the BRAVO reader fast path.  Options apply to both layers.
func NewBravoMWRP(opts ...Option) *Bravo {
	return NewBravo(NewMWRP(opts...), opts...)
}

// NewBravoMWWP returns Bravo(MWWP): the writer-priority Theorem 5 lock
// with the BRAVO reader fast path.  Options apply to both layers.
// Note the trade documented on Bravo: while the bias is armed,
// fast-path readers overtake waiting writers; WP1 applies from each
// revocation until the next re-arm.
func NewBravoMWWP(opts ...Option) *Bravo {
	return NewBravo(NewMWWP(opts...), opts...)
}

// RLock acquires the lock in read mode, through the fast path when the
// lock is read-biased.
func (b *Bravo) RLock() RToken {
	if b.rbias.Load() {
		if idx, ok := b.slots.tryClaim(b.id); ok {
			// Recheck AFTER publishing (the BRAVO ordering): with
			// sequentially consistent atomics, either this load sees the
			// revoking writer's clear — and we back out — or our slot
			// claim is visible to that writer's scan, which then waits
			// for us.  Entering on a stale bias is impossible.
			if b.rbias.Load() {
				if st := b.stats; st != nil {
					st.ReadAcquires.Add(1)
				}
				return RToken{side: bravoFastSide, id: idx}
			}
			b.slots.release(idx)
		}
	}
	t := b.inner.RLock()
	// Count down the revocation throttle and re-arm the bias while
	// HOLDING the inner read lock, so the store cannot race with a
	// writer's check-and-revoke (writers hold the inner write lock
	// there, excluding us).  Exactly one reader sees the countdown hit
	// zero, so the bias is re-armed once per revocation cycle.
	if !b.rbias.Load() && b.slowBudget.Add(-1) == 0 {
		b.rbias.Store(true)
		if st := b.stats; st != nil {
			st.ReArms.Add(1)
		}
	}
	return t
}

// RUnlock releases read mode; it must receive the token returned by
// the matching RLock.
func (b *Bravo) RUnlock(t RToken) {
	if t.side == bravoFastSide {
		b.slots.release(t.id)
		return
	}
	b.inner.RUnlock(t)
}

// Lock acquires the lock in write mode: the inner lock first (keeping
// its writer-side discipline), then bias revocation if needed.
func (b *Bravo) Lock() WToken {
	t := b.inner.Lock()
	b.revoke()
	return t
}

// revoke clears the read bias and sets the re-arm budget.  MUST be
// called while the inner write lock is held (by this goroutine after
// inner.Lock, or by the combiner inside a combined write section):
// that is the invariant that keeps the rbias clear and the budget
// store from racing with the countdown in RLock — slow readers only
// run outside the write critical section.
func (b *Bravo) revoke() {
	if b.rbias.Load() {
		b.rbias.Store(false)
		busy := b.slots.drainFor(b.id)
		b.slowBudget.Store(int64(1 + len(b.slots.slots)/8 + bravoBusyFactor*busy))
		if st := b.stats; st != nil {
			st.Revocations.Add(1)
		}
	}
}

// Unlock releases write mode.
func (b *Bravo) Unlock(t WToken) { b.inner.Unlock(t) }

// Write runs cs in write mode (the closure path; see FuncWriter).
// When the inner lock combines (WithCombiningWriters), the wrapper
// ships the bias revocation along with cs so it still happens while
// the inner write lock is held — by the executing combiner, inside
// the combined section.  On every other inner lock the token path is
// used: same semantics, and no wrapper closure on the hot path.
func (b *Bravo) Write(cs func()) {
	if !b.innerCombines {
		t := b.Lock()
		defer b.Unlock(t)
		cs()
		return
	}
	b.inner.(FuncWriter).Write(func() {
		b.revoke()
		cs()
	})
}

// TryLock attempts write mode without blocking.  The inner lock's
// TryLock runs first; if the bias is then armed, the wrapper clears
// it and SCANS its candidate slots instead of draining them — on
// any occupied slot it restores the bias, releases the inner lock,
// and reports busy, so a published fast-path reader is never waited
// on.  The restore is safe because no drain began and the wrapper
// holds the inner write lock, which excludes both the slow readers
// that normally re-arm the bias and any other writer's revocation.
// Requires the inner lock to implement TryRWLock (every lock in this
// package does).
func (b *Bravo) TryLock() (WToken, bool) {
	t, ok := b.inner.(TryRWLock).TryLock()
	if !ok {
		return WToken{}, false
	}
	if b.rbias.Load() {
		b.rbias.Store(false)
		if !b.slots.idleFor(b.id) {
			b.rbias.Store(true)
			b.inner.Unlock(t)
			if st := b.stats; st != nil {
				st.TrySheds.Add(1)
			}
			return WToken{}, false
		}
		b.slowBudget.Store(int64(1 + len(b.slots.slots)/8))
		if st := b.stats; st != nil {
			st.Revocations.Add(1)
		}
	}
	return t, true
}

// TryRLock attempts read mode without blocking: the ordinary BRAVO
// fast path (claim, then recheck the bias — a revoking writer either
// sees our slot or we see its clear and back out), falling through to
// the inner lock's TryRLock when the bias is down or the table is
// contended.  A slow-path success counts down the re-arm throttle
// exactly as RLock does, since it holds the inner read lock at that
// point.  Requires the inner lock to implement TryRWLock.
func (b *Bravo) TryRLock() (RToken, bool) {
	if b.rbias.Load() {
		if idx, ok := b.slots.tryClaim(b.id); ok {
			if b.rbias.Load() {
				if st := b.stats; st != nil {
					st.ReadAcquires.Add(1)
				}
				return RToken{side: bravoFastSide, id: idx}, true
			}
			b.slots.release(idx)
		}
	}
	t, ok := b.inner.(TryRWLock).TryRLock()
	if !ok {
		return RToken{}, false
	}
	if !b.rbias.Load() && b.slowBudget.Add(-1) == 0 {
		b.rbias.Store(true)
		if st := b.stats; st != nil {
			st.ReArms.Add(1)
		}
	}
	return t, true
}

// LockCtx acquires write mode with the inner lock's cancellation
// semantics; once the inner lock is granted the wrapper is committed,
// and the bias revocation (including the table drain) runs to
// completion regardless of ctx — the drain is bounded by the read
// passages of the published fast-path readers.  Requires the inner
// lock to implement CtxRWLock.
func (b *Bravo) LockCtx(ctx context.Context) (WToken, error) {
	t, err := b.inner.(CtxRWLock).LockCtx(ctx)
	if err != nil {
		return WToken{}, err
	}
	b.revoke() // committed: the drain runs to completion
	return t, nil
}

// RLockCtx acquires read mode: the non-blocking fast path first (it
// never waits, so ctx plays no part in it), then the inner lock's
// RLockCtx, with the re-arm countdown on slow-path success as in
// RLock.  Requires the inner lock to implement CtxRWLock.
func (b *Bravo) RLockCtx(ctx context.Context) (RToken, error) {
	if b.rbias.Load() {
		if idx, ok := b.slots.tryClaim(b.id); ok {
			if b.rbias.Load() {
				if st := b.stats; st != nil {
					st.ReadAcquires.Add(1)
				}
				return RToken{side: bravoFastSide, id: idx}, nil
			}
			b.slots.release(idx)
		}
	}
	t, err := b.inner.(CtxRWLock).RLockCtx(ctx)
	if err != nil {
		return RToken{}, err
	}
	if !b.rbias.Load() && b.slowBudget.Add(-1) == 0 {
		b.rbias.Store(true)
		if st := b.stats; st != nil {
			st.ReArms.Add(1)
		}
	}
	return t, nil
}

// WriteCtx runs cs in write mode unless ctx is cancelled first.  On a
// combining inner lock the revocation ships inside the combined
// closure as in Write, and the inner WriteCtx's commitment point (the
// publication CAS, or MWWP's doorway) applies; otherwise LockCtx's
// semantics apply.
func (b *Bravo) WriteCtx(ctx context.Context, cs func()) error {
	if !b.innerCombines {
		t, err := b.LockCtx(ctx)
		if err != nil {
			return err
		}
		defer b.Unlock(t)
		cs()
		return nil
	}
	return b.inner.(CtxFuncWriter).WriteCtx(ctx, func() {
		b.revoke()
		cs()
	})
}

// CombinerStats forwards the wrapped lock's batching statistics (see
// CombinerStatsOf); ok is false when the inner lock does not combine.
func (b *Bravo) CombinerStats() (CombinerStats, bool) {
	return CombinerStatsOf(b.inner)
}

// ReadBiased reports whether the reader fast path is currently armed.
// It is a racy snapshot, useful for tests and metrics.
func (b *Bravo) ReadBiased() bool { return b.rbias.Load() }

// Inner returns the wrapped lock.
func (b *Bravo) Inner() RWLock { return b.inner }

var _ RWLock = (*Bravo)(nil)
var _ FuncWriter = (*Bravo)(nil)
var _ TryRWLock = (*Bravo)(nil)
var _ CtxRWLock = (*Bravo)(nil)
var _ CtxFuncWriter = (*Bravo)(nil)
