package rwlock

import (
	"context"
	"sync"
	"sync/atomic"
)

// This file is the flat-combining writer-arbitration layer: the third
// implementation behind the writerMutex contract of mcs.go, after
// Hendler, Incze, Shavit & Tzafrir, "Flat Combining and the
// Synchronization-Parallelism Tradeoff" (SPAA 2010).
//
// The MCS queue and the Anderson array both pay one full lock handoff
// per write passage: the releasing writer performs a remote store+wake
// into the successor's cell, and the successor must then be scheduled
// before the lock makes progress.  Under writer churn (the PR 4
// writer-churn measurement) that wake-to-run latency, multiplied by
// the queue depth, is the whole writer-wait tail.  A combining arbiter
// turns N handoffs into one: writers PUBLISH their critical section as
// a closure instead of queueing for the lock, and one of them — the
// combiner — executes every pending critical section back-to-back on
// its own core inside a single acquisition of the inner mutex, then
// wakes each publisher through its record's waitCell.  The batch costs
// one handoff (the inner acquisition) however many writers it retires;
// the cache line holding the protected data stays hot on the
// combiner's core instead of bouncing between writers.
//
// What the trade buys and what it spends: throughput and tail latency
// under churn, paid for with STRICT FCFS ORDER.  Within one batch the
// combiner executes records in publication order, but publication
// order is CAS-success order on the list head, not arrival order, and
// a later batch can complete before an earlier-arrived token-path
// writer that is still queued on the inner mutex.  Starvation-freedom
// survives: every published record is executed before the combiner
// that took responsibility for it releases the inner mutex (see the
// no-stranding argument on exec).  This is the same
// throughput-over-strict-handoff trade Popov & Mazonka (arXiv:
// 1309.4507) motivate for fair RW locks, applied to the writer path
// the way BRAVO (arXiv:1810.01553) applies read-side bias to the
// reader path.
//
// The combiner only engages through the closure write path
// (Lock.Write / rwlock.Write / Guard.Write): a write critical section
// expressed as code between Lock and Unlock cannot be shipped to
// another goroutine.  Token-path writers on a combining lock fall
// through to the inner mutex (acquire/release below), fully mutually
// exclusive with batches but without the batching win.

// FuncWriter is the closure write path: Write runs cs under the
// lock's write lock.  Every lock in this package whose writer layer
// can batch implements it (MWSF, MWRP, MWWP, Bravo, and the
// single-writer locks for API uniformity); on a lock built with
// WithCombiningWriters, Write is the path on which flat combining
// engages — cs may then execute on another goroutine (the combiner),
// so it must not depend on goroutine identity (no goroutine-local
// state, no Lock/Unlock pairing expectations).  It must not call back
// into the same lock's write side, and it must not panic: on a
// combining lock the panic would unwind the combiner's goroutine —
// not necessarily the submitter's — with the arbitration mutex held.
type FuncWriter interface {
	Write(cs func())
}

// Write runs cs under l's write lock: through the lock's own Write
// method when it has one (the path on which a combining lock
// batches), otherwise through a plain Lock/Unlock pair.  It is the
// token-free way to issue a write against any RWLock.
func Write(l RWLock, cs func()) {
	if fw, ok := l.(FuncWriter); ok {
		fw.Write(cs)
		return
	}
	t := l.Lock()
	defer l.Unlock(t)
	cs()
}

// CtxFuncWriter is the deadline-aware closure write path: WriteCtx
// runs cs under the lock's write lock unless ctx is cancelled first,
// in which case it returns ctx.Err() WITHOUT running cs.  A nil
// return guarantees cs ran to completion under the lock.  On a
// combining lock the publication CAS is the point of no return: a
// record already in the publication list belongs to some combiner and
// WILL execute, so past that instant WriteCtx commits and waits out
// the batch even on a cancelled context (see combiner.execCtx).
type CtxFuncWriter interface {
	WriteCtx(ctx context.Context, cs func()) error
}

// WriteCtx runs cs under l's write lock with ctx bounding the WAIT
// for the lock (never the critical section itself): through the
// lock's own WriteCtx when it has one, otherwise through a
// LockCtx/Unlock pair, otherwise — when l predates the ctx surface —
// by delegating to Write, uncancellably.  A non-nil error means cs
// did not and will not run.
func WriteCtx(ctx context.Context, l RWLock, cs func()) error {
	if fw, ok := l.(CtxFuncWriter); ok {
		return fw.WriteCtx(ctx, cs)
	}
	if cl, ok := l.(CtxRWLock); ok {
		t, err := cl.LockCtx(ctx)
		if err != nil {
			return err
		}
		defer l.Unlock(t)
		cs()
		return nil
	}
	Write(l, cs)
	return nil
}

// WithCombiningWriters selects flat-combining writer arbitration for
// the multi-writer constructors (NewMWSF, NewMWRP, NewMWWP and their
// Bravo wrappers): write critical sections submitted through the
// closure path (Write) are batched and executed by one writer — the
// combiner — inside a single acquisition of the inner arbitration
// mutex (the unbounded MCS queue by default; the bounded Anderson
// array if WithBoundedWriters is also given).  Choose it when many
// short write sections contend (writer churn, bursty update storms):
// a batch retires any number of writers for one lock handoff.  The
// cost is strict FCFS order among writers — combining preserves
// starvation-freedom but orders writers by publication, not arrival
// (see the package comment in combiner.go) — and that write sections
// run on the combiner's goroutine, so they must not rely on goroutine
// identity.  Token-path writers (Lock/Unlock) bypass the batching and
// go straight to the inner mutex.
//
// Composing with WithBoundedWriters puts the Anderson array under the
// combiner, which CHANGES what the bound means: publishers queue on
// the combiner's unbounded publication list and only combiner
// elections (and token-path writers) pass the Anderson admission
// gate, so the cap throttles concurrent batch executors — effectively
// nobody — rather than concurrent write attempts.  If the hard
// admission cap is the point, do not combine.
//
// NewSWWP and NewSWRP ignore it: with one writer there is nothing to
// batch.
func WithCombiningWriters() Option {
	return func(o *options) { o.combining = true }
}

// combineSizeBuckets bounds the exact batch-size counts kept by a
// combiner: sizes 1..combineSizeBuckets-1 are counted exactly, the
// last bucket aggregates everything larger.  Sized past the 256
// concurrent publishers of the churn scenarios (whose maximum batch
// is the lane count) so their whole distribution is exact.
const combineSizeBuckets = 512

// CombinerStats is a snapshot of a combining lock's batching
// behavior: how many batches the combiner executed, how many write
// critical sections they retired, and the batch-size distribution.
// Ops/Batches is the mean handoff amortization; Sizes[i] counts
// batches of size i+1, with the last entry aggregating larger
// batches.  Read it at quiescence (no in-flight writers) — the
// counters are maintained under the inner mutex, so a concurrent read
// would be racy.
type CombinerStats struct {
	Batches  int64
	Ops      int64
	MaxBatch int64
	Sizes    []int64
}

// combineRecord is one published write critical section: the closure,
// the link to the previously published record, and the completion
// cell its publisher waits on.  Records are recycled through the
// combiner's pool; the done cell is the recycling barrier — after the
// combiner's storeWake the record belongs to its publisher again and
// the combiner must not touch it (the execute loop reads next before
// signaling for exactly this reason).  A wakeAll still in flight from
// a previous life of the cell is benign: it can only cause a spurious
// broadcast, which a parked waiter answers by re-checking its
// predicate — the VALUE word was re-written by the new owner before
// any new wait began.
type combineRecord struct {
	cs   func()
	next *combineRecord
	_    [48]byte
	done waitCell
}

// combiner is the flat-combining arbitration layer.  It implements
// writerMutex (token-path acquire/release pass through to the inner
// mutex) plus the batched-execute extension exec, which is what the
// locks' Write methods call.
//
// RMR accounting (cache-coherent model): a publisher performs one CAS
// to publish and then waits on its own record's done cell — re-reads
// of a locally cached word, invalidated only by the combiner's single
// completion store — so a combined passage is O(1) RMRs for the
// publisher, like a queue-lock passage.  The combiner performs O(1)
// RMRs per record it executes (one swap amortized over the batch, one
// store+wake per record) — the paper's per-passage bound, relocated
// onto one goroutine rather than exceeded.
type combiner struct {
	// head is the publication list: a Treiber stack the publishers CAS
	// themselves onto.  The pusher that turns the list non-empty (its
	// CAS observed nil) becomes the combiner for that epoch; everyone
	// else waits on their record.
	head atomic.Pointer[combineRecord]
	_    [56]byte
	// inner serializes batches against each other and against
	// token-path writers; every batch executes inside exactly one
	// inner acquisition.
	inner writerMutex
	// passage, when set, wraps every executed critical section in the
	// owning lock's write passage (e.g. swwpCore.writePassage), so
	// Write submits the bare caller closure and allocates nothing per
	// op.  Set once by the lock constructor before the lock escapes;
	// nil means records run their cs directly (the raw-mutex use the
	// conformance suite exercises).
	passage func(func())
	// retire is the batch-boundary hook (see writerMutex.onBatchRetire
	// in mcs.go): the drain loop invokes it once per swapped batch,
	// after the batch's last critical section has run and before the
	// next swap (or the inner release); the token path invokes it once
	// per release.  The registration is NOT forwarded to the inner
	// mutex — the batch boundary belongs to the outermost arbiter, and
	// forwarding would double-fire it on every inner handoff.  Written
	// once before the lock escapes, read under the inner mutex.
	retire func()
	pool   sync.Pool
	// stats, when non-nil, receives live batch counters (Batches,
	// BatchMax, CombinedOps) alongside the quiescent snapshot counters
	// below.  See WithStats.
	stats *LockStats

	// Batch statistics, written only while holding inner (batches are
	// serialized), read at quiescence via snapshot().
	batches  int64
	ops      int64
	maxBatch int64
	sizes    [combineSizeBuckets]int64
}

// newCombiner wraps inner with flat combining; published records'
// completion cells count parks into st when non-nil.
func newCombiner(inner writerMutex, st *LockStats) *combiner {
	c := &combiner{inner: inner, stats: st}
	c.pool.New = func() any {
		r := &combineRecord{}
		r.done.setStats(st)
		return r
	}
	return c
}

// exec publishes cs and returns once it has been executed under the
// inner mutex — by this goroutine if it wins the combiner election,
// by another combiner otherwise.
//
// No record can be stranded: the publication list turns non-empty
// only through a push whose CAS observed nil, and that pusher becomes
// a combiner which (holding inner) re-swaps the list until it
// personally observes empty.  A record pushed onto a non-empty list
// therefore always sits above some elected combiner's record, and
// every swap atomically takes the whole list — so each record is
// taken by exactly one combiner's swap and executed exactly once.
// Two elected combiners (the list can go empty and non-empty again
// while a batch runs) serialize on the inner mutex; a later combiner
// may find its own record already executed by an earlier one and its
// swap empty, which is fine — it never executes its closure outside
// the drain loop.
func (c *combiner) exec(cs func()) {
	r := c.pool.Get().(*combineRecord)
	r.cs = cs
	r.done.store(cellFalse)
	var elected bool
	for {
		old := c.head.Load()
		r.next = old
		if c.head.CompareAndSwap(old, r) {
			elected = old == nil
			break
		}
	}
	c.finish(r, elected)
}

// execCtx is exec with an abort seam whose point of no return is the
// publication CAS.  Before the CAS the record is exclusively ours and
// cancellation simply recycles it — cs has not run and never will.
// The instant the CAS lands the record is in the publication list,
// owned by whichever combiner's swap takes it, and WILL execute;
// retracting it is impossible (another combiner may already hold it
// in a swapped-off batch), so from there execCtx commits: it waits
// out the batch — or runs it, if elected — ignoring ctx, exactly like
// exec.  A nil return therefore means cs ran; a non-nil return means
// it did not and will not.
func (c *combiner) execCtx(ctx context.Context, cs func()) error {
	if ctx.Done() == nil {
		c.exec(cs)
		return nil
	}
	r := c.pool.Get().(*combineRecord)
	r.cs = cs
	r.done.store(cellFalse)
	var elected bool
	for {
		if err := ctx.Err(); err != nil {
			// Not yet published: the record is still exclusively ours.
			r.cs = nil
			c.pool.Put(r)
			return err
		}
		old := c.head.Load()
		r.next = old
		if c.head.CompareAndSwap(old, r) { // point of no return
			elected = old == nil
			break
		}
	}
	c.finish(r, elected)
	return nil
}

// finish completes a published record r: wait for its execution when
// another goroutine owns the epoch, or run the drain loop when this
// publisher was elected (its CAS observed nil).
func (c *combiner) finish(r *combineRecord, elected bool) {
	if !elected {
		// Another goroutine owns this epoch; its drain loop will
		// execute our record and signal the cell.
		if st := c.stats; st != nil && r.done.load() != cellTrue {
			st.WriteContended.Add(1)
		}
		r.done.wait(cellTrue)
		c.pool.Put(r)
		return
	}
	slot := c.inner.acquire()
	for {
		batch := c.head.Swap(nil)
		if batch == nil {
			break
		}
		// Reverse the LIFO stack into publication order and count it,
		// BEFORE executing or signaling anything: the stats write must
		// happen-before every publisher's wakeup (so a post-run reader
		// of the stats races with nothing), and next pointers must not
		// be read after a record's owner has been released.
		var fifo *combineRecord
		var n int64
		for rec := batch; rec != nil; {
			next := rec.next
			rec.next = fifo
			fifo = rec
			rec = next
			n++
		}
		c.batches++
		c.ops += n
		if n > c.maxBatch {
			c.maxBatch = n
		}
		if n < combineSizeBuckets {
			c.sizes[n-1]++
		} else {
			c.sizes[combineSizeBuckets-1]++
		}
		if st := c.stats; st != nil {
			// CombinedOps, then Batches, then BatchMax: each invariant's
			// superset side first, so a concurrent Snapshot (which loads
			// in the reverse order) never sees batches > combined_ops or
			// a positive batch_max with zero batches.
			st.CombinedOps.Add(uint64(n))
			st.Batches.Add(1)
			statsMax(&st.BatchMax, uint64(n))
		}
		for rec := fifo; rec != nil; {
			next := rec.next
			cs := rec.cs
			rec.cs = nil
			if c.passage != nil {
				c.passage(cs)
			} else {
				cs()
			}
			// After this store the record belongs to its publisher
			// again (it may be recycled immediately); rec must not be
			// touched past this line.  Our own record is the
			// exception — nobody waits on it, we recycle it below.
			rec.done.storeWake(cellTrue)
			rec = next
		}
		if c.retire != nil {
			// Batch boundary: every critical section of this batch has
			// run, the inner mutex is still held, and the next batch (if
			// the list refilled) has not started.  One firing here is
			// what lets one grace period retire the whole batch's
			// versions (see epoch.go).
			c.retire()
		}
	}
	c.inner.release(slot)
	// Our record was in the list we pushed onto and every record a
	// combiner takes responsibility for is executed before its drain
	// observes empty — see the comment above — so cs has run by now.
	c.pool.Put(r)
}

// acquire, tryAcquire, acquireCtx and release are the token path: a
// combining lock's Lock/Unlock cannot ship its critical section, so
// it serializes on the inner mutex directly, mutually exclusive with
// running batches.  The try/ctx semantics are therefore the inner
// mutex's own — a busy tryAcquire may be a running batch, and an
// acquireCtx cancellation unlinks from the inner queue, never from
// the publication list.
func (c *combiner) acquire() wslot            { return c.inner.acquire() }
func (c *combiner) tryAcquire() (wslot, bool) { return c.inner.tryAcquire() }
func (c *combiner) acquireCtx(ctx context.Context) (wslot, error) {
	return c.inner.acquireCtx(ctx)
}
func (c *combiner) release(s wslot) {
	if c.retire != nil {
		// A token-path passage is a batch of one; fire before the inner
		// release so the hook runs while the mutex is still held.
		c.retire()
	}
	c.inner.release(s)
}

// onBatchRetire registers the batch-boundary hook on the COMBINER (not
// the inner mutex; see the retire field).  Must be called before the
// lock is shared; at most once.
func (c *combiner) onBatchRetire(fn func()) {
	if c.retire != nil {
		panic("rwlock: onBatchRetire registered twice on the same writer mutex")
	}
	c.retire = fn
}

// snapshot copies the batch counters.  Quiescence is the caller's
// obligation (see CombinerStats).
func (c *combiner) snapshot() CombinerStats {
	s := CombinerStats{
		Batches:  c.batches,
		Ops:      c.ops,
		MaxBatch: c.maxBatch,
		Sizes:    make([]int64, combineSizeBuckets),
	}
	copy(s.Sizes, c.sizes[:])
	return s
}

var _ writerMutex = (*combiner)(nil)

// combinerStatser is implemented by every lock that can report
// batching statistics; CombinerStatsOf is the generic accessor.
type combinerStatser interface {
	CombinerStats() (CombinerStats, bool)
}

// CombinerStatsOf returns the batch statistics of l when l is (or
// wraps) a lock built with WithCombiningWriters, and ok == false
// otherwise.  Read at quiescence — the harness queries it after a
// workload's workers have joined.
func CombinerStatsOf(l RWLock) (CombinerStats, bool) {
	if cs, ok := l.(combinerStatser); ok {
		return cs.CombinerStats()
	}
	return CombinerStats{}, false
}
