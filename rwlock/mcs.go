package rwlock

import (
	"context"
	"sync"
	"sync/atomic"
)

// This file is the package's writer-arbitration layer.
//
// The paper's Section 5 transformation T (Figure 3) and the Figure 4
// writer-priority algorithm serialize writers through a mutual-
// exclusion lock M.  The proofs of Theorems 3-5 place exactly three
// obligations on M — it must be mutually exclusive, FCFS (so the
// multi-writer lock inherits FCFS among writers), and starvation-free
// with O(1) RMR complexity per passage on cache-coherent machines —
// and Anderson's array lock is merely the instance the paper picks.
// Any lock meeting the contract may stand in for M, so this package
// makes the choice pluggable: writerMutex is the contract, and the
// constructors select an implementation from the options.
//
// Three implementations serve the multi-writer locks:
//
//   - mcsLock (below): an UNBOUNDED MCS queue lock (Mellor-Crummey &
//     Scott, ACM TOCS 1991).  The default: any number of goroutines
//     may attempt to write concurrently, so constructors no longer
//     need a writer bound.
//   - AndersonLock (anderson.go): the paper's fixed-capacity array
//     lock, selected by WithBoundedWriters(n) for callers who WANT a
//     hard cap on concurrent write attempts as admission control.
//   - combiner (combiner.go): a flat-combining layer over either of
//     the above, selected by WithCombiningWriters().  Closure-path
//     writes (Write) are batched: one writer executes every pending
//     critical section inside a single acquisition of the inner
//     mutex.  Batching keeps starvation-freedom but relaxes strict
//     FCFS to publication order — see combiner.go for the trade.
//
// The single-writer locks SWWP and SWRP take a fourth, soleWriter
// (multi.go): one flag that admits one write attempt and panics on a
// concurrent second, the single-writer contract as an arbiter.

// writerMutex is the writer-arbitration contract: the obligations the
// Theorem 3-5 proofs place on the serializing lock M.  acquire blocks
// until the caller owns the mutex and returns an opaque slot; release
// must receive that slot and hands the mutex to the next waiter in
// FCFS order.  Implementations must be mutually exclusive, FCFS from
// a well-defined linearization point in acquire, starvation-free, and
// O(1) RMR per acquire/release pair on cache-coherent machines.
// Slots are plain values and may cross goroutines (they travel inside
// WTokens).
//
// The contract has one extension, realized today only by the
// combiner (combiner.go): a batched-execute path, exec(cs func()),
// which runs cs while holding the mutex — possibly on another
// goroutine, batched with concurrently submitted critical sections.
// The locks bind to the CONCRETE *combiner type (their constructors
// install a per-lock passage hook on it, and Write type-asserts it),
// so a new batching arbiter plugs in by becoming the combiner's
// inner mutex, not by re-implementing exec; the token path
// (acquire/release) must remain available and mutually exclusive
// with exec'd sections.
// Beyond the blocking pair, the contract has a deadline-aware side
// (PR 6): tryAcquire is a genuinely non-blocking probe (no waits, no
// unbounded loops) that either takes the mutex or reports it busy,
// and acquireCtx is acquire with an abort seam — it returns ctx.Err()
// once the context is cancelled, leaving the mutex NOT held and the
// queue/array state as if the attempt never happened.  Each
// implementation has a point of no return past which cancellation can
// no longer win (the MCS grant CAS, the Anderson ticket fetch&add,
// the combiner's publication CAS); acquireCtx may therefore return
// nil on an already-cancelled context when the grant got there first.
// The contract's second extension (PR 7) is the batch-boundary hook:
// onBatchRetire registers a function that every implementation invokes
// exactly once per retired batch, while the arbitration mutex is still
// held — i.e. before the handoff that admits the next writer.  For the
// queue and array mutexes a "batch" is a single passage, so the hook
// fires at the top of every release; the combiner fires it once per
// drained publication batch (however many write sections the batch
// retired) plus once per token-path release, and does NOT forward the
// registration to its inner mutex (the boundary belongs to the
// outermost arbiter).  The epoch layer (epoch.go) rides this hook: the
// mutual exclusion the mutex already provides makes the hook a free
// serialization point for end-of-passage bookkeeping, and on the
// combiner one hook firing — one grace period — retires a whole batch
// of versions.  Register at most one hook, before the lock escapes its
// constructor; registering twice panics.
type writerMutex interface {
	acquire() wslot
	tryAcquire() (wslot, bool)
	acquireCtx(ctx context.Context) (wslot, error)
	release(wslot)
	onBatchRetire(fn func())
}

// wslot is the opaque writer-arbitration slot carried in a WToken: an
// MCS queue node when the arbitration is the unbounded queue, an
// array index when it is the bounded Anderson lock.  Treat it as
// opaque; it is only meaningful to the writerMutex that issued it.
type wslot struct {
	n   *mcsNode // MCS queue node (nil under Anderson arbitration)
	idx uint32   // Anderson array slot (unused under MCS arbitration)
}

// newWriterMutex builds the writer-arbitration layer an options block
// selects: the unbounded MCS queue by default, Anderson's array when
// WithBoundedWriters was given, either wrapped in the flat-combining
// layer (combiner.go) when WithCombiningWriters was given.
func newWriterMutex(o options) writerMutex {
	var m writerMutex
	if o.boundedWriters > 0 {
		m = NewAnderson(o.boundedWriters, WithStats(o.stats))
	} else {
		m = newMCS(o.stats)
	}
	if o.combining {
		return newCombiner(m, o.stats)
	}
	return m
}

// WithBoundedWriters selects the bounded Anderson-array arbitration
// for the multi-writer constructors (NewMWSF, NewMWRP, NewMWWP and
// their Bravo wrappers): at most n goroutines may be inside a write
// attempt at once, and additional writers block at an admission gate
// until one leaves.  Use it when writer concurrency must be capped as
// a form of admission control; the default (no option) is the
// unbounded MCS queue, which needs no sizing decision.  n must be at
// least 1.  See AndersonLock for what the admission gate is — and is
// not — in RMR terms, and WithCombiningWriters for how combining on
// top of the bound changes (effectively voids) the admission-control
// semantics for closure-path writers.  NewSWWP and NewSWRP ignore
// it: their single-writer flag admits one writer by contract.
func WithBoundedWriters(n int) Option {
	if n < 1 {
		panic("rwlock: WithBoundedWriters needs n >= 1")
	}
	return func(o *options) { o.boundedWriters = n }
}

// mcsNode is one queue cell of the MCS lock.  The owner spins (or
// parks) on its OWN node's grant cell — the locally cached word the
// O(1)-RMR argument needs — and the releasing predecessor performs
// the single remote write that hands the lock over.  Nodes are
// recycled through the lock's pool, so steady-state passages allocate
// nothing.
// A queued node is in one of three states, resolved by a single CAS
// race between its releaser and (only for acquireCtx attempts) its
// own canceller:
//
//	mcsWaiting --releaser CAS--> mcsGranted    (handoff: grant follows)
//	mcsWaiting --waiter  CAS--> mcsCancelled  (abort: waiter walks away)
//
// Exactly one CAS wins, so a grant is never sent to a node whose
// owner has left (no lost handoff) and a waiter never abandons a node
// that owns the lock (no lost lock).  A cancelled node is NOT
// physically unlinked by its owner — a parked owner may not even be
// running — instead the next releaser to reach it ADOPTS it: recycles
// it and carries the release on to its successor,
// honoring the same linked-announcement recycling barrier on every
// hop.  Cancellation therefore costs the canceller O(1) steps and
// shifts the queue-repair work onto a lock holder that was already
// performing a handoff.
const (
	mcsWaiting int32 = iota
	mcsGranted
	mcsCancelled
)

type mcsNode struct {
	// next points to the successor's node once it has linked itself
	// behind this one.
	next atomic.Pointer[mcsNode]
	// state is the grant/cancel race word (see the state diagram
	// above).  It shares the next pointer's line: the two are touched
	// by the same releaser in the same handoff.
	state atomic.Int32
	_     [52]byte
	// linked is set (with a wake) by the successor right after it
	// stores next.  It is the successor's LAST write into this node,
	// so release treats it — not the next pointer — as the node's
	// recycling barrier: it waits for linked even when next is already
	// visible (the link store and its announcement are two separate
	// instructions, and the successor can be descheduled between
	// them).  The wait goes through the cell so a successor
	// descheduled in that window costs the releaser a park, not a
	// spin.
	linked waitCell
	// grant is the handoff: the releaser sets it (with a wake) to pass
	// ownership to this node's owner.
	grant waitCell
}

// mcsLock is an unbounded FCFS queue mutex after Mellor-Crummey &
// Scott (1991): acquirers swap themselves onto a tail pointer — the
// FCFS linearization point — link behind their predecessor, and wait
// on their own node's grant cell; release hands the lock to the
// linked successor with one store+wake, or resets the tail when the
// queue is empty.  Every wait goes through a waitCell: a waiter spins
// briefly on its own node, then parks.
//
// RMR accounting (cache-coherent model): acquire is one swap, at most
// one store+wake into the predecessor's node, and a wait on the
// acquirer's own node (re-reads of a locally cached word, invalidated
// only by the single handoff write); release is at most one CAS and
// one store+wake.  That is O(1) per passage with no dependence on the
// number of waiters — the same bound Anderson's array gives, without
// its fixed capacity.
type mcsLock struct {
	tail atomic.Pointer[mcsNode]
	_    [56]byte
	pool sync.Pool
	// retire is the batch-boundary hook (see writerMutex.onBatchRetire):
	// for a plain queue mutex every passage is a batch of one, so
	// release invokes it once at entry, before any handoff.  Written
	// once before the lock escapes its constructor, read on every
	// release — no atomicity needed.
	retire func()
	// stats, when non-nil, receives queue-geometry counters (depth,
	// depth high-water, contended acquisitions).  See WithStats.
	stats *LockStats
}

// newMCS returns an unbounded MCS queue mutex, counting into st when
// non-nil.
func newMCS(st *LockStats) *mcsLock {
	l := &mcsLock{stats: st}
	l.pool.New = func() any {
		n := &mcsNode{}
		n.linked.setStats(st)
		n.grant.setStats(st)
		return n
	}
	return l
}

// acquire blocks until the caller owns the mutex.  The returned slot
// carries the caller's queue node; it must reach the matching release
// (possibly on another goroutine — WTokens are transferable).
func (l *mcsLock) acquire() wslot {
	n := l.getNode()
	pred := l.tail.Swap(n) // FCFS linearization point
	if st := l.stats; st != nil {
		statsMax(&st.QueueDepthMax, uint64(st.QueueDepth.Add(1)))
		if pred != nil {
			st.WriteContended.Add(1)
		}
	}
	if pred != nil {
		// Link behind pred, then announce the link.  pred cannot be
		// recycled under us: once our swap moved the tail, pred's
		// release cannot reset it, and release never recycles a node
		// with a successor until this announcement lands (the
		// recycling barrier on mcsNode.linked).
		pred.next.Store(n)
		pred.linked.storeWake(cellTrue)
		n.grant.wait(cellTrue)
	}
	return wslot{n: n}
}

// getNode takes a node from the pool and resets its per-attempt state.
func (l *mcsLock) getNode() *mcsNode {
	n := l.pool.Get().(*mcsNode)
	n.next.Store(nil)
	n.state.Store(mcsWaiting)
	n.linked.store(cellFalse)
	n.grant.store(cellFalse)
	return n
}

// tryAcquire takes the mutex only when the queue is empty: one CAS of
// the tail, no waits.  Failure means some writer holds or is queued
// for the mutex at the instant of the CAS — exactly the condition
// under which acquire would have waited.
func (l *mcsLock) tryAcquire() (wslot, bool) {
	n := l.getNode()
	if l.tail.CompareAndSwap(nil, n) {
		if st := l.stats; st != nil {
			statsMax(&st.QueueDepthMax, uint64(st.QueueDepth.Add(1)))
		}
		return wslot{n: n}, true
	}
	// Never published: the node is still exclusively ours.
	l.pool.Put(n)
	return wslot{}, false
}

// acquireCtx is acquire with an abort seam.  The waiter queues
// normally; on cancellation it CASes its node mcsWaiting →
// mcsCancelled and walks away in O(1) steps, leaving the node in the
// queue for the next releaser to adopt (see the state diagram on
// mcsNode).  If the releaser's grant CAS wins the race instead, the
// handoff is already in flight and cannot be refused: the waiter
// absorbs it and returns the slot with a nil error, so a caller that
// sees an error never owns the mutex, and a caller that sees nil
// always does — even if its context is by now cancelled.
func (l *mcsLock) acquireCtx(ctx context.Context) (wslot, error) {
	n := l.getNode()
	pred := l.tail.Swap(n) // FCFS linearization point
	if st := l.stats; st != nil {
		statsMax(&st.QueueDepthMax, uint64(st.QueueDepth.Add(1)))
		if pred != nil {
			st.WriteContended.Add(1)
		}
	}
	if pred == nil {
		return wslot{n: n}, nil
	}
	pred.next.Store(n)
	pred.linked.storeWake(cellTrue)
	if err := n.grant.waitCtx(ctx, cellTrue); err != nil {
		if n.state.CompareAndSwap(mcsWaiting, mcsCancelled) {
			// The node now belongs to the queue, not to us: the next
			// releaser to reach it recycles it.  We must not touch it
			// again.
			if st := l.stats; st != nil {
				st.QueueDepth.Add(-1)
			}
			return wslot{}, err
		}
		// A releaser granted us first (its CAS beat ours): the
		// storeWake is committed or in flight.  Absorb it — the wait
		// is bounded by that one store.
		n.grant.wait(cellTrue)
	}
	return wslot{n: n}, nil
}

// release hands the mutex to the next queued acquirer (or leaves it
// free) and recycles the caller's node — plus any run of CANCELLED
// successors it finds on the way, which it adopts and recycles while
// carrying the handoff onward (the loop; see the state diagram on
// mcsNode).
func (l *mcsLock) release(s wslot) {
	if st := l.stats; st != nil {
		st.QueueDepth.Add(-1)
	}
	if l.retire != nil {
		// Batch boundary: the caller still owns the mutex (nothing has
		// been handed off yet), so the hook runs fully serialized
		// against every other passage's hook and critical section.
		l.retire()
	}
	n := s.n
	for {
		if n.next.Load() == nil && l.tail.CompareAndSwap(n, nil) {
			// Queue empty: the lock is free and n was never observed by
			// a successor, so it can be recycled immediately.
			l.pool.Put(n)
			return
		}
		// A successor exists — possibly still between its tail swap and
		// its link (under oversubscription those two instructions can be
		// a descheduled goroutine away, so the wait goes through the
		// cell rather than burning the quantum).  Wait for the link
		// announcement even when next is already visible: the
		// announcement is the successor's last write into n (see
		// mcsNode.linked), so it — not the next pointer — is what makes
		// n recyclable; keying off next alone would let a pending
		// announcement land on this node's NEXT owner and corrupt its
		// linked cell.  In the common case the announcement is long
		// since set and this is one read of an owned cached word.
		n.linked.wait(cellTrue)
		next := n.next.Load()
		if next.state.CompareAndSwap(mcsWaiting, mcsGranted) {
			// The grant writes into next, not n, so n is recyclable
			// now.
			next.grant.storeWake(cellTrue)
			l.pool.Put(n)
			return
		}
		// next's owner cancelled and walked away; the winning
		// mcsCancelled CAS was its last touch of the node (its context
		// machinery may still broadcast into next.grant's cond, which
		// parked waiters treat as a spurious wake — harmless).  Adopt
		// the node: recycle ours and continue the release from next,
		// re-running the full empty-queue / link-barrier protocol
		// there.  The walk charges O(cancelled run) to this handoff,
		// keeping the canceller itself O(1).
		l.pool.Put(n)
		n = next
	}
}

// onBatchRetire registers the batch-boundary hook (see the writerMutex
// contract).  Must be called before the lock is shared; at most once.
func (l *mcsLock) onBatchRetire(fn func()) {
	if l.retire != nil {
		panic("rwlock: onBatchRetire registered twice on the same writer mutex")
	}
	l.retire = fn
}

var _ writerMutex = (*mcsLock)(nil)
