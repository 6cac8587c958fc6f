package rwlock

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Epoch layers a grace-period reader fast path over the paper's
// multi-writer locks, in the style of epoch- and RCU-based reclamation
// schemes (the frontier Ramani et al., arXiv:2402.06860, chart) and of
// percpu reader-writer semaphores.  It is a peer of Bravo (bravo.go):
// both trade writer-side latency for reader-side scalability, but they
// sit at different points of the read-cost spectrum.  BRAVO's fast
// path still performs one shared-word RMW per read passage (the slot
// claim CAS); Epoch's fast path performs NONE — a reader enters by
// STAMPING a padded per-slot epoch word with a plain store, rechecking
// the global epoch, and walking in:
//
//	g := G            // global epoch, even = fast path open
//	slot.word = g     // plain store into a private cache line
//	if G == g { enter } else { back out, take the slow path }
//
// A writer closes the fast path by advancing G to an odd value and
// then waiting out the GRACE PERIOD: every stamped slot must read 0
// before the writer's critical section begins.  With Go's
// sequentially consistent atomics the stamp/recheck vs advance/scan
// pair is a Dekker handshake — either the reader's stamp is visible
// to the writer's scan (which then waits the reader out), or the
// reader's recheck sees the advance and backs out without entering —
// so mutual exclusion is preserved exactly; this wrapper is an epoch
// lock, not bare RCU.  The epoch counter is monotonic, which makes
// the recheck immune to ABA: any passage of any writer changes G
// forever.
//
// # Versions, grace periods, and the batch boundary
//
// What the grace machinery buys beyond the zero-RMW read path is
// DEFERRED RECLAMATION: a writer that replaces the protected data
// publishes the new version and hands the old one to Retire, and the
// wrapper frees its references only after a grace period in which the
// version can no longer be observed — the update-age vs
// retained-memory trade the age-frontier scenario measures.  The
// sweep runs at the writer arbitration layer's BATCH BOUNDARY, via
// the writerMutex contract's onBatchRetire hook (mcs.go): under
// flat-combining arbitration (WithCombiningWriters) the hook fires
// once per drained batch, so ONE grace wait retires every version the
// whole batch produced; under the queue/array arbitrations every
// passage is a batch of one.  Every boundary sweeps: a version is
// dropped at the first boundary after the grace period that outlives
// it.  A lazier cadence would only delay when references are dropped
// (versions are published at once), so it would cost retained memory
// and buy neither freshness nor throughput.
//
// # What is preserved, and what is traded
//
// Mutual exclusion, deadlock-freedom and both classes' progress are
// preserved for every wrapped discipline (readers always have either
// the fast path or the inner lock's own guarantee; writers' grace
// waits are bounded by the read passages already stamped).  As with
// Bravo's armed bias, strict arrival-order fairness is what the fast
// path trades away: while the epoch is even, fast readers overtake
// writers that are still queued on the arbitration mutex — FIFE,
// RP1/WP1 windows apply from each epoch advance (when the fast path
// closes) until the batch boundary reopens it.  Unlike Bravo there is
// no re-arm throttle: the boundary hook reopens the fast path
// unconditionally, so the first reader after every write is back on
// the zero-RMW path — which is also why Epoch outruns Bravo at very
// high read ratios (no revocation dead zone) — at the price of every
// writer paying one grace wait (Bravo's writers pay a table scan only
// while the bias is armed).
type Epoch struct {
	// global is the epoch counter: even = fast path open, odd = a
	// writer (or batch) holds the lock and fast entry is closed.
	// Advanced only while the writer-arbitration mutex is held, so
	// parity changes are serialized; starts at 2 so no valid stamp is
	// ever 0 (0 is the quiescent slot value).
	global paddedInt64
	// slots is the grow-only registry of per-reader stamp slots the
	// grace scan walks: an immutable slice swapped whole on append
	// (registration is rare — pool misses only), loaded once per scan
	// and once per fast RUnlock.
	slots atomic.Pointer[[]*epochSlot]
	_     [56]byte

	inner RWLock
	m     writerMutex
	// priv is the first-level slot lease: one cached slot per P,
	// claimed with PLAIN loads and stores under a runtime procPin —
	// the pin makes the entry single-accessor, so no RMW, fence or
	// even atomic is needed (procpin.go).  This is the same structure
	// sync.Pool's private slot uses, inlined here because Pool's
	// general machinery (pin's pool-chain lookup, victim handling,
	// Put's race hooks) costs about twice the whole stamp/recheck
	// passage on the steady-state path.  The slice is immutable after
	// construction; a P index beyond its length (GOMAXPROCS raised at
	// runtime) simply falls through to the pool.  Under -race the
	// cache is disabled — its cross-goroutine handoffs are plain
	// stores the detector cannot see — and every lease rides the
	// annotated sync.Pool instead.
	priv []epochPrivSlot
	// pool backs priv: cold starts, overflow when a P's cache entry is
	// already full or empty, and the whole lease under -race.  Its
	// per-P caches keep even the overflow path free of shared RMWs in
	// the steady state; a Treiber free list would put a CAS right back
	// on the read path.  A slot evicted by GC stays in the registry
	// (the scan keeps visiting it; it reads 0) but is never handed out
	// again, so the registry can grow toward epochMaxSlots across GC
	// cycles; past the cap Get returns nil and readers take the slow
	// path.
	pool sync.Pool
	// mu serializes registry appends (the pool.New path only).
	mu sync.Mutex

	innerCombines bool

	// Writer-side bookkeeping, all guarded by the arbitration mutex
	// (writerEnter, Retire and the boundary hook run while it is
	// held); read at quiescence via EpochStats.
	lastDrain int64 // odd epoch whose grace wait last completed
	retired   []retiredVersion
	stats     EpochStats
	// lstats, when non-nil, is the live (atomic, scrape-anytime) mirror
	// of the quiescent EpochStats above, plus the fast-path read count
	// and the watchdog's grace register.  See WithStats.
	lstats *LockStats
}

// epochSlot is one reader's stamp word: the waitCell keeps the word on
// its own cache line (the padding the false-sharing audit asserts) and
// gives the writer's grace scan the package's spin-then-park wait for
// free.
type epochSlot struct {
	cell waitCell
}

// epochPrivSlot is one P's entry in the first-level slot cache: a
// single cached *epochSlot, padded to a cache line so neighboring Ps'
// lease traffic never collides.  Accessed only between procPin and
// procUnpin, with plain operations — see the priv field doc.
type epochPrivSlot struct {
	s *epochSlot
	_ [56]byte
}

// epochFastSide tags an RToken issued by the epoch fast path:
// RToken.side is a gate index (0 or 1) for every inner lock and -1 for
// Bravo's fast path, so -2 is unambiguous.
const epochFastSide = int32(-2)

// epochMaxSlots caps the stamp-slot registry.  The grace scan visits
// every registered slot, so the cap bounds writer-side scan work; a
// reader that finds the pool empty at the cap simply takes the slow
// path.  4096 comfortably exceeds any plausible concurrent-reader
// count on one machine.
const epochMaxSlots = 4096

// retiredVersion is one deferred reclamation entry: the version's
// reference (held live until the sweep drops it), its accounted size,
// and the epoch at which it was retired.
type retiredVersion struct {
	v     any
	bytes int64
	epoch int64
}

// EpochStats is a snapshot of an epoch lock's grace-period and
// reclamation behavior.  Advances counts global-epoch increments
// (close and reopen both count); GraceWaits counts writer grace scans;
// Boundaries counts batch-boundary hook firings (under combining
// arbitration, one per batch — compare against GraceWaits for the
// batching win).  Retired/Reclaimed count versions through Retire and
// the sweep; Retained* are the CURRENT backlog (Retired - Reclaimed)
// and MaxRetained* its high-water marks — the memory half of the
// age-memory frontier.  Read at quiescence (no in-flight writers):
// the counters are maintained under the arbitration mutex, so a
// concurrent read would be racy.
type EpochStats struct {
	Advances   int64
	GraceWaits int64
	Boundaries int64

	Retired             int64
	Reclaimed           int64
	RetainedVersions    int64
	RetainedBytes       int64
	MaxRetainedVersions int64
	MaxRetainedBytes    int64
}

// VersionRetirer is implemented by locks that support deferred version
// reclamation (today: Epoch).  Retire must be called while holding the
// write lock (inside Write's closure, or between Lock and Unlock).
type VersionRetirer interface {
	// Retire hands the previous version of the protected data to the
	// lock for reclamation after a grace period; bytes is the size the
	// retained-memory accounting should charge for it.
	Retire(old any, bytes int)
}

// NewEpoch wraps inner with the epoch-stamped reader fast path and
// grace-period reclamation.  If inner is nil, a starvation-free MWSF
// lock is used.  inner must be one of the package's multi-writer
// locks (*MWSF, *MWRP, *MWWP) — the wrapper registers the
// batch-boundary hook on their writer-arbitration layer, which is
// where the epoch reopens and retired versions are swept; any other
// lock (including a *Bravo or another *Epoch) panics.  Options
// configure the wrapper's own waiting (the grace scan and the stamp
// slots); the NewEpochMW* helpers apply one option list to both
// layers.
func NewEpoch(inner RWLock, opts ...Option) *Epoch {
	o := applyOptions(opts)
	if inner == nil {
		inner = NewMWSF(opts...)
	}
	// Copied out of o so the pool closure below captures one word,
	// not the whole options struct.
	st := o.stats
	var m writerMutex
	switch l := inner.(type) {
	case *MWSF:
		m = l.m
	case *MWRP:
		m = l.m
	case *MWWP:
		m = l.m
	default:
		panic("rwlock: NewEpoch requires a multi-writer inner lock (*MWSF, *MWRP or *MWWP)")
	}
	e := &Epoch{inner: inner, m: m, lstats: st}
	e.global.v.Store(2)
	// Size the per-P cache for the Ps that exist now, with a floor so
	// tiny boxes still cache and a cap so a huge GOMAXPROCS doesn't buy
	// a page of padding per lock.  Ps added later miss the bound check
	// and lease from the pool — correct, just slower.
	n := runtime.GOMAXPROCS(0)
	if n < 4 {
		n = 4
	}
	if n > 128 {
		n = 128
	}
	e.priv = make([]epochPrivSlot, n)
	empty := make([]*epochSlot, 0)
	e.slots.Store(&empty)
	e.pool.New = func() any {
		e.mu.Lock()
		defer e.mu.Unlock()
		cur := *e.slots.Load()
		if len(cur) >= epochMaxSlots {
			return (*epochSlot)(nil) // cap reached: caller takes the slow path
		}
		s := new(epochSlot)
		s.cell.setStats(st)
		next := make([]*epochSlot, len(cur)+1)
		copy(next, cur)
		next[len(cur)] = s
		// The registry store is sequentially consistent and precedes
		// the new slot's first stamp (same goroutine), so a grace scan
		// whose advance the stamping reader did not observe is
		// guaranteed to load a registry that includes this slot — the
		// Dekker argument on RLock covers late registrations too.
		e.slots.Store(&next)
		return s
	}
	_, e.innerCombines = CombinerStatsOf(inner)
	m.onBatchRetire(e.onBoundary)
	return e
}

// NewEpochMWSF returns Epoch(MWSF): the starvation-free Theorem 3 lock
// with the zero-RMW epoch reader fast path.  Options (writer
// arbitration, stats) apply to both layers.
func NewEpochMWSF(opts ...Option) *Epoch {
	return NewEpoch(NewMWSF(opts...), opts...)
}

// NewEpochMWRP returns Epoch(MWRP): the reader-priority Theorem 4 lock
// with the epoch fast path.  Options apply to both layers.  Note that
// during a writer's grace wait the fast path is closed and arriving
// readers take the inner slow path — RP1's overtaking applies there,
// not to the grace scan itself.
func NewEpochMWRP(opts ...Option) *Epoch {
	return NewEpoch(NewMWRP(opts...), opts...)
}

// NewEpochMWWP returns Epoch(MWWP): the writer-priority Theorem 5 lock
// with the epoch fast path.  Options apply to both layers.  Note the
// trade documented on Epoch: while the epoch is even, fast readers
// overtake queued writers; WP1 applies from each epoch advance until
// the batch boundary reopens the fast path.
func NewEpochMWWP(opts ...Option) *Epoch {
	return NewEpoch(NewMWWP(opts...), opts...)
}

// RLock acquires the lock in read mode, through the zero-RMW fast
// path when the epoch is even (no writer inside or draining).
func (e *Epoch) RLock() RToken {
	if t, ok := e.tryFast(); ok {
		return t
	}
	return e.inner.RLock()
}

// putSlot returns a leased slot: into this P's cache entry if it is
// empty, else to the pool.  A slot parked in priv is still strongly
// referenced (unlike pool entries it can never be GC-evicted), which
// also means the registry stops growing once every P holds a slot.
// The handoff between the goroutine that caches a slot and the one
// that later claims it is safe with plain stores because both held
// the SAME P pinned at their access, and the runtime's P handoff
// between threads is itself a synchronization point — sync.Pool's
// private-slot argument, restated.  (The claim side lives inlined in
// tryFast; getSlot/putSlot don't fit the inliner's budget, and a call
// frame per passage is measurable against Bravo's fast path.)
func (e *Epoch) putSlot(s *epochSlot) {
	if !raceEnabled {
		pid := procPin()
		if pid < len(e.priv) && e.priv[pid].s == nil {
			e.priv[pid].s = s
			procUnpin()
			return
		}
		procUnpin()
	}
	e.pool.Put(s)
}

// tryFast is the stamp/recheck fast passage: a slot lease (the per-P
// cache, with the pool as cold/overflow backing — see putSlot), one
// plain store into the slot's private line, and one recheck load — no
// shared-word RMW anywhere (the property TestEpochReaderZeroRMW pins
// on the simulator encoding of this exact protocol).
func (e *Epoch) tryFast() (RToken, bool) {
	g := e.global.v.Load()
	if g&1 != 0 {
		return RToken{}, false
	}
	var s *epochSlot
	if !raceEnabled {
		pid := procPin()
		if pid < len(e.priv) {
			s = e.priv[pid].s
			e.priv[pid].s = nil
		}
		procUnpin()
	}
	if s == nil {
		s = e.pool.Get().(*epochSlot)
		if s == nil {
			return RToken{}, false // registry at cap
		}
	}
	s.cell.store(g) // stamp: announce the passage
	if e.global.v.Load() == g {
		// Dekker: this load seeing no advance means our stamp precedes
		// any advancing writer's scan, which will wait us out.
		if st := e.lstats; st != nil {
			st.ReadAcquires.Add(1)
		}
		return RToken{side: epochFastSide, eslot: s}, true
	}
	// A writer advanced between stamp and recheck (or an older even
	// epoch ended): back out without entering.  The wake matters — the
	// advancing writer's scan may already be parked on this slot.
	s.cell.storeWake(0)
	e.putSlot(s)
	return RToken{}, false
}

// RUnlock releases read mode; it must receive the token returned by
// the matching RLock.
func (e *Epoch) RUnlock(t RToken) {
	if t.side == epochFastSide {
		s := t.eslot
		s.cell.storeWake(0) // clear the stamp, waking a draining writer
		// putSlot, inlined by hand (see its doc): cache the slot on
		// this P if the entry is free, overflow to the pool otherwise.
		if !raceEnabled {
			pid := procPin()
			if pid < len(e.priv) && e.priv[pid].s == nil {
				e.priv[pid].s = s
				procUnpin()
				return
			}
			procUnpin()
		}
		e.pool.Put(s)
		return
	}
	e.inner.RUnlock(t)
}

// Lock acquires the lock in write mode: the inner lock first (keeping
// its writer-side discipline), then the epoch advance and grace wait.
func (e *Epoch) Lock() WToken {
	t := e.inner.Lock()
	e.writerEnter()
	return t
}

// Unlock releases write mode.  The epoch reopens and retired versions
// are swept inside the release, at the arbitration layer's batch
// boundary (the onBatchRetire hook), while the mutex is still held.
func (e *Epoch) Unlock(t WToken) { e.inner.Unlock(t) }

// writerEnter closes the fast path and waits out the grace period.
// MUST be called while the writer-arbitration mutex is held (by this
// goroutine after inner.Lock, or by the combiner inside a combined
// write section): that is the invariant that serializes every parity
// change of the global epoch.  Under combining arbitration only the
// batch's first section pays the advance and the grace wait — the
// epoch stays odd until the batch boundary — which is exactly the
// "one grace wait retires a whole batch" amortization.
func (e *Epoch) writerEnter() {
	g := e.global.v.Load()
	if g&1 != 0 {
		return // this batch already closed the fast path
	}
	g = e.global.v.Add(1) // odd: fast entry now impossible
	e.stats.Advances++
	e.stats.GraceWaits++
	st := e.lstats
	if st != nil {
		st.EpochAdvances.Add(1)
		st.GraceWaits.Add(1)
		// The watchdog's grace register: nonzero exactly while this
		// writer is waiting out the grace period.  Write mode at this
		// layer is exclusive (the arbitration mutex is held), so plain
		// store/clear pairs cannot interleave.
		st.GraceActiveNS.Store(nowNanos())
	}
	// Grace wait: every slot stamped before the advance must clear.
	// The registry is loaded AFTER the advance, so any reader whose
	// recheck will succeed is either already registered here (its
	// stamp precedes our advance, sequentially consistent) or will
	// see the odd epoch and back out.  Each wait spins, then parks; a
	// transient stamp from a backing-out reader clears in a bounded
	// number of its own steps.
	for _, s := range *e.slots.Load() {
		s.cell.wait(0)
	}
	e.lastDrain = g
	if st != nil {
		st.GraceActiveNS.Store(0)
	}
}

// onBoundary is the batch-boundary hook (writerMutex.onBatchRetire):
// it runs inside the arbitration layer's release — combiner batch
// drains and token-path releases alike — while the mutex is still
// held.  It reopens the fast path and sweeps retired versions whose
// grace period has passed.
func (e *Epoch) onBoundary() {
	if e.global.v.Load()&1 != 0 {
		e.global.v.Add(1) // reopen: back to even
		e.stats.Advances++
		if st := e.lstats; st != nil {
			st.EpochAdvances.Add(1)
		}
	}
	e.stats.Boundaries++
	e.sweep()
}

// sweep reclaims every retired version whose retire epoch precedes
// the last completed grace wait: after that wait no reader can still
// observe the version (fast readers were waited out; slow readers
// were excluded by the inner lock the retiring writer held).
func (e *Epoch) sweep() {
	kept := e.retired[:0]
	for _, r := range e.retired {
		if r.epoch < e.lastDrain {
			e.stats.Reclaimed++
			e.stats.RetainedVersions--
			e.stats.RetainedBytes -= r.bytes
			if st := e.lstats; st != nil {
				st.ReclaimedVersions.Add(1)
			}
			continue
		}
		kept = append(kept, r)
	}
	// Zero the dropped tail so the reclaimed versions' references are
	// actually released to the GC.
	for i := len(kept); i < len(e.retired); i++ {
		e.retired[i] = retiredVersion{}
	}
	e.retired = kept
}

// Retire hands the previous version of the protected data to the lock
// for deferred reclamation (see VersionRetirer).  MUST be called while
// holding the write lock; the version's reference is held until a
// sweep at a batch boundary finds its grace period complete.
func (e *Epoch) Retire(old any, bytes int) {
	e.retired = append(e.retired, retiredVersion{v: old, bytes: int64(bytes), epoch: e.global.v.Load()})
	e.stats.Retired++
	e.stats.RetainedVersions++
	e.stats.RetainedBytes += int64(bytes)
	if e.stats.RetainedVersions > e.stats.MaxRetainedVersions {
		e.stats.MaxRetainedVersions = e.stats.RetainedVersions
	}
	if e.stats.RetainedBytes > e.stats.MaxRetainedBytes {
		e.stats.MaxRetainedBytes = e.stats.RetainedBytes
	}
	if st := e.lstats; st != nil {
		st.RetiredVersions.Add(1)
		statsMax(&st.RetainedVersionsMax, uint64(e.stats.RetainedVersions))
		statsMax(&st.RetainedBytesMax, uint64(e.stats.RetainedBytes))
	}
}

// Write runs cs in write mode (the closure path; see FuncWriter).
// When the inner lock combines (WithCombiningWriters), the wrapper
// ships the epoch entry along with cs so the advance and grace wait
// happen on the combiner's goroutine, once per batch; on every other
// inner lock the token path is used — same semantics, and no wrapper
// closure on the hot path.
func (e *Epoch) Write(cs func()) {
	if !e.innerCombines {
		t := e.Lock()
		defer e.Unlock(t)
		cs()
		return
	}
	e.inner.(FuncWriter).Write(func() {
		e.writerEnter()
		cs()
	})
}

// TryLock attempts write mode without blocking.  The inner lock's
// TryLock runs first; the wrapper then advances the epoch and SCANS
// the stamp slots instead of waiting on them — on any live stamp it
// advances again (reopening the fast path; the monotonic counter
// makes the double advance safe, stamped-but-unentered readers back
// out against EITHER value), releases the inner lock, and reports
// busy, so a fast-path reader is never waited on.  Requires the inner
// lock to implement TryRWLock (every multi-writer lock does).
func (e *Epoch) TryLock() (WToken, bool) {
	t, ok := e.inner.(TryRWLock).TryLock()
	if !ok {
		return WToken{}, false
	}
	e.global.v.Add(1) // odd: new fast entries now impossible
	e.stats.Advances++
	if st := e.lstats; st != nil {
		st.EpochAdvances.Add(1)
	}
	for _, s := range *e.slots.Load() {
		if s.cell.load() != 0 {
			e.global.v.Add(1) // restore even without a grace wait
			e.stats.Advances++
			e.inner.Unlock(t)
			if st := e.lstats; st != nil {
				st.EpochAdvances.Add(1)
				st.TrySheds.Add(1)
			}
			return WToken{}, false
		}
	}
	// No stamps were live after the advance, which is exactly what a
	// completed grace wait certifies.
	e.lastDrain = e.global.v.Load()
	e.stats.GraceWaits++
	if st := e.lstats; st != nil {
		st.GraceWaits.Add(1)
	}
	return t, true
}

// TryRLock attempts read mode without blocking: the stamp/recheck
// fast passage never waits — in particular it NEVER blocks on a
// writer's grace period — and the fallback is the inner lock's own
// non-blocking probe.  Requires the inner lock to implement
// TryRWLock.
func (e *Epoch) TryRLock() (RToken, bool) {
	if t, ok := e.tryFast(); ok {
		return t, true
	}
	return e.inner.(TryRWLock).TryRLock()
}

// LockCtx acquires write mode with the inner lock's cancellation
// semantics; once the inner lock is granted the wrapper is committed,
// and the epoch advance plus grace wait run to completion regardless
// of ctx — the wait is bounded by the read passages of the readers
// already stamped.  Requires the inner lock to implement CtxRWLock.
func (e *Epoch) LockCtx(ctx context.Context) (WToken, error) {
	t, err := e.inner.(CtxRWLock).LockCtx(ctx)
	if err != nil {
		return WToken{}, err
	}
	e.writerEnter() // committed: the grace wait runs to completion
	return t, nil
}

// RLockCtx acquires read mode: the non-blocking fast passage first
// (it never waits, so ctx plays no part in it), then the inner lock's
// RLockCtx — the wait a cancellation can abort is the inner slow
// path's, on the same waitCell parking seam every other ctx wait in
// the package rides.  Requires the inner lock to implement CtxRWLock.
func (e *Epoch) RLockCtx(ctx context.Context) (RToken, error) {
	if t, ok := e.tryFast(); ok {
		return t, nil
	}
	return e.inner.(CtxRWLock).RLockCtx(ctx)
}

// WriteCtx runs cs in write mode unless ctx is cancelled first.  On a
// combining inner lock the epoch entry ships inside the combined
// closure as in Write, and the inner WriteCtx's commitment point (the
// publication CAS, or MWWP's doorway) applies; otherwise LockCtx's
// semantics apply.
func (e *Epoch) WriteCtx(ctx context.Context, cs func()) error {
	if !e.innerCombines {
		t, err := e.LockCtx(ctx)
		if err != nil {
			return err
		}
		defer e.Unlock(t)
		cs()
		return nil
	}
	return e.inner.(CtxFuncWriter).WriteCtx(ctx, func() {
		e.writerEnter()
		cs()
	})
}

// EpochStats returns a snapshot of the grace-period and reclamation
// counters.  Quiescence is the caller's obligation (see the
// EpochStats type doc); ok is always true on *Epoch — the two-valued
// form exists for the EpochStatsOf accessor.
func (e *Epoch) EpochStats() (EpochStats, bool) { return e.stats, true }

// CombinerStats forwards the wrapped lock's batching statistics (see
// CombinerStatsOf); ok is false when the inner lock does not combine.
func (e *Epoch) CombinerStats() (CombinerStats, bool) {
	return CombinerStatsOf(e.inner)
}

// Inner returns the wrapped lock.
func (e *Epoch) Inner() RWLock { return e.inner }

// epochStatser is implemented by every lock that can report epoch
// statistics; EpochStatsOf is the generic accessor.
type epochStatser interface {
	EpochStats() (EpochStats, bool)
}

// EpochStatsOf returns the grace-period and retained-memory counters
// of l when l is (or wraps) an epoch lock, and ok == false otherwise.
// Read at quiescence — the harness queries it after a workload's
// workers have joined.
func EpochStatsOf(l RWLock) (EpochStats, bool) {
	if es, ok := l.(epochStatser); ok {
		return es.EpochStats()
	}
	return EpochStats{}, false
}

var _ RWLock = (*Epoch)(nil)
var _ FuncWriter = (*Epoch)(nil)
var _ TryRWLock = (*Epoch)(nil)
var _ CtxRWLock = (*Epoch)(nil)
var _ CtxFuncWriter = (*Epoch)(nil)
var _ VersionRetirer = (*Epoch)(nil)
