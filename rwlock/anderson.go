package rwlock

import (
	"context"
	"sync/atomic"
)

// AndersonLock is T.E. Anderson's array-based queueing mutual
// exclusion lock (IEEE TPDS 1990): a fetch&increment ticket assigns
// each acquirer a slot in a circular array of spin flags, and release
// opens the successor slot.  Each process waits on its own cache line
// (a waitCell, so it spins briefly and then parks like every wait in
// the package), giving O(1) RMR complexity on cache-coherent
// machines, plus FCFS and starvation freedom.
//
// The paper's Figure 3 transformation and Figure 4 algorithm use this
// lock (called M) to serialize writers; in this package it is the
// BOUNDED writer-arbitration option, selected by WithBoundedWriters
// (the default is the unbounded MCS queue in mcs.go).  It remains
// exported because it is independently useful and independently
// tested.
//
// # The admission gate
//
// The array has fixed capacity: the ticket/slot protocol is only
// correct while at most maxConcurrent goroutines are between Acquire
// and Release.  This Go port enforces the bound with a counting
// semaphore (a buffered channel) at the top of Acquire, so exceeding
// the capacity blocks rather than corrupts.  That gate is ADMISSION
// CONTROL LAYERED OUTSIDE THE PAPER'S PROTOCOL, not part of it: the
// paper's model simply has no more than maxConcurrent processes, so
// its O(1)-RMR accounting covers only the ticket fetch&add and the
// per-slot wait.  A goroutine blocked at the gate is sleeping on a
// runtime channel — no spinning, no cache traffic, but also no FCFS
// ordering relative to other gate-blocked goroutines (channel wakeups
// are unordered) and no RMR bound, because the paper's cost model
// never priced this wait.  FCFS and the O(1) bound hold from the
// ticket fetch&add onward, i.e. among admitted goroutines.  TryAcquire
// surfaces the gate (and the lock state) as a non-blocking probe.
type AndersonLock struct {
	ticket atomic.Uint64
	_      [56]byte
	// released counts completed Releases.  The lock is unheld with an
	// empty queue exactly when released == ticket; TryAcquire uses the
	// pair as its non-blocking availability check.
	released atomic.Uint64
	_        [56]byte
	slots    []waitCell
	sem      chan struct{}
	// retire is the batch-boundary hook (see writerMutex.onBatchRetire
	// in mcs.go): one passage is a batch of one, so Release invokes it
	// once at entry, before the successor slot opens.  Written once
	// before the lock escapes, read per release — no atomicity needed.
	retire func()
	// stats, when non-nil, receives queue-geometry counters (depth,
	// depth high-water, contended acquisitions).  See WithStats.
	stats *LockStats
}

// NewAnderson returns an Anderson lock sized for maxConcurrent
// concurrent acquirers (minimum 1).
func NewAnderson(maxConcurrent int, opts ...Option) *AndersonLock {
	if maxConcurrent < 1 {
		maxConcurrent = 1
	}
	o := applyOptions(opts)
	l := &AndersonLock{
		slots: make([]waitCell, maxConcurrent),
		sem:   make(chan struct{}, maxConcurrent),
		stats: o.stats,
	}
	for i := range l.slots {
		l.slots[i].setStats(o.stats)
	}
	l.slots[0].store(cellTrue)
	return l
}

// Capacity returns the maximum number of concurrent acquirers.
func (l *AndersonLock) Capacity() int { return len(l.slots) }

// Acquire blocks until the caller owns the lock and returns the slot
// that must be passed to Release.
func (l *AndersonLock) Acquire() uint32 {
	l.sem <- struct{}{} // admission gate (see the type doc)
	slot := uint32((l.ticket.Add(1) - 1) % uint64(len(l.slots)))
	if st := l.stats; st != nil {
		statsMax(&st.QueueDepthMax, uint64(st.QueueDepth.Add(1)))
		if l.slots[slot].load() != cellTrue {
			st.WriteContended.Add(1)
		}
	}
	l.slots[slot].wait(cellTrue)
	l.slots[slot].store(cellFalse) // own slot reset: nobody waits for false
	return slot
}

// TryAcquire attempts to take the lock without blocking.  It fails
// (returning ok == false) when the admission gate is full — capacity
// Releases are outstanding — or when the lock is held or queued, i.e.
// whenever Acquire would have to wait at either layer.  On success
// the caller owns the lock and must pass the returned slot to
// Release.  Tests use it to probe the admission gate directly; it is
// also the building block for caller-side load shedding.
func (l *AndersonLock) TryAcquire() (slot uint32, ok bool) {
	select {
	case l.sem <- struct{}{}:
	default:
		return 0, false // admission gate full
	}
	t := l.ticket.Load()
	// released == t means every issued ticket has completed its
	// Release, so the lock is free and slot t's flag is already open
	// (the opener's storeWake happens before its released increment).
	// Winning the CAS claims ticket t before any concurrent acquirer.
	if l.released.Load() != t || !l.ticket.CompareAndSwap(t, t+1) {
		<-l.sem
		return 0, false // held, queued, or lost the claim race
	}
	slot = uint32(t % uint64(len(l.slots)))
	if st := l.stats; st != nil {
		statsMax(&st.QueueDepthMax, uint64(st.QueueDepth.Add(1)))
	}
	l.slots[slot].wait(cellTrue)   // immediate: see the invariant above
	l.slots[slot].store(cellFalse) // own slot reset, as in Acquire
	return slot, true
}

// AcquireCtx is Acquire with an abort seam, which for an array lock
// is narrow: the ticket fetch&add is the point of no return.  A
// ticket assigns a fixed array slot that only this acquirer's
// completed passage can open for its successor — there is no way to
// give a ticket back without stranding everyone behind it (the
// classic limitation of array/ticket locks; abortable queue locks
// need the pointer structure MCS has).  Cancellation therefore wins
// only at the admission gate: while blocked on the semaphore, or on
// the recheck between the gate and the ticket.  Past the ticket the
// method ignores ctx and behaves exactly like Acquire.
func (l *AndersonLock) AcquireCtx(ctx context.Context) (uint32, error) {
	select {
	case l.sem <- struct{}{}:
	case <-ctx.Done():
		return 0, ctx.Err()
	}
	if err := ctx.Err(); err != nil {
		// Both select cases were ready and the gate won the draw; honor
		// the cancellation while backing out is still free.
		<-l.sem
		return 0, err
	}
	// Point of no return: the ticket commits us to slot t.
	slot := uint32((l.ticket.Add(1) - 1) % uint64(len(l.slots)))
	if st := l.stats; st != nil {
		statsMax(&st.QueueDepthMax, uint64(st.QueueDepth.Add(1)))
		if l.slots[slot].load() != cellTrue {
			st.WriteContended.Add(1)
		}
	}
	l.slots[slot].wait(cellTrue)
	l.slots[slot].store(cellFalse)
	return slot, nil
}

// Release hands the lock to the next waiter (or leaves it free),
// waking the successor if it parked.
func (l *AndersonLock) Release(slot uint32) {
	if st := l.stats; st != nil {
		st.QueueDepth.Add(-1)
	}
	if l.retire != nil {
		// Batch boundary: the successor's slot has not opened yet, so
		// the hook runs while this passage still owns the lock.
		l.retire()
	}
	l.slots[(slot+1)%uint32(len(l.slots))].storeWake(cellTrue)
	l.released.Add(1)
	<-l.sem
}

// acquire, tryAcquire, acquireCtx and release adapt the exported API
// to the writerMutex contract (see mcs.go); the slot travels in the
// WToken.
func (l *AndersonLock) acquire() wslot { return wslot{idx: l.Acquire()} }

func (l *AndersonLock) tryAcquire() (wslot, bool) {
	idx, ok := l.TryAcquire()
	return wslot{idx: idx}, ok
}

func (l *AndersonLock) acquireCtx(ctx context.Context) (wslot, error) {
	idx, err := l.AcquireCtx(ctx)
	return wslot{idx: idx}, err
}

func (l *AndersonLock) release(s wslot) { l.Release(s.idx) }

// onBatchRetire registers the batch-boundary hook (see the writerMutex
// contract in mcs.go).  Must be called before the lock is shared; at
// most once.
func (l *AndersonLock) onBatchRetire(fn func()) {
	if l.retire != nil {
		panic("rwlock: onBatchRetire registered twice on the same writer mutex")
	}
	l.retire = fn
}

var _ writerMutex = (*AndersonLock)(nil)
