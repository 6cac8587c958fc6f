package rwlock

import (
	"context"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Shared conformance suite for the writerMutex contract (mcs.go): any
// arbitration layer — today the unbounded MCS queue, the bounded
// Anderson array, and the flat combiner; tomorrow a NUMA cohort lock —
// must pass mutual exclusion, cross-goroutine slot transfer, and the
// one-shot-writer churn shape, on both test passes (waitPasses).  A new
// arbiter earns the whole suite by adding one line to
// conformanceArbiters.  CI runs the package under -race -shuffle=on,
// so any CS overlap is also a detected data race and any inter-test
// ordering assumption fails loudly.

// conformanceArbiters names every writerMutex implementation under a
// constructor taking the pass's counter block.  The combiner is conformed
// over its token path here (acquire/release pass through to the inner
// mutex); its batched exec path has its own suite in combiner_test.go,
// including exec-vs-token mutual exclusion.
func conformanceArbiters(p waitPass) map[string]func() writerMutex {
	return map[string]func() writerMutex{
		"mcs":      func() writerMutex { return newMCS(p.st()) },
		"anderson": func() writerMutex { return NewAnderson(64, WithStats(p.st())) },
		"combiner": func() writerMutex { return newCombiner(newMCS(p.st()), p.st()) },
	}
}

// forEachArbiter runs f once per (arbiter, pass) pair as a parallel
// subtest.
func forEachArbiter(t *testing.T, f func(t *testing.T, newM func() writerMutex)) {
	for _, pass := range waitPasses() {
		for name, mk := range conformanceArbiters(pass) {
			mk := mk
			t.Run(name+"/"+string(pass), func(t *testing.T) {
				t.Parallel()
				f(t, mk)
			})
		}
	}
}

// TestArbiterMutualExclusion: exactly one holder at a time under heavy
// contention, and no passage is lost.
func TestArbiterMutualExclusion(t *testing.T) {
	forEachArbiter(t, func(t *testing.T, newM func() writerMutex) {
		m := newM()
		const goroutines, laps = 8, 500
		var inside atomic.Int32
		var data int64 // plain, guarded only by m: -race checks exclusion
		var wg sync.WaitGroup
		for i := 0; i < goroutines; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := 0; k < laps; k++ {
					s := m.acquire()
					if v := inside.Add(1); v != 1 {
						t.Errorf("%d holders inside the mutex", v)
					}
					data++
					inside.Add(-1)
					m.release(s)
				}
			}()
		}
		wg.Wait()
		if data != goroutines*laps {
			t.Fatalf("data = %d, want %d (lost passages)", data, goroutines*laps)
		}
	})
}

// TestArbiterSlotTransfer: slots are plain values that ride in WTokens
// across goroutines, so a release on a different goroutine than the
// acquire — with a live queue behind it, so the release performs a
// real handoff — must neither strand the queue nor corrupt the slot.
func TestArbiterSlotTransfer(t *testing.T) {
	forEachArbiter(t, func(t *testing.T, newM func() writerMutex) {
		m := newM()
		const handoffs = 200
		slots := make(chan wslot)
		done := make(chan struct{})
		// Contender: keeps the queue non-empty so the remote releases
		// below hand off to a real waiter.
		go func() {
			defer close(done)
			for i := 0; i < handoffs; i++ {
				m.release(m.acquire())
			}
		}()
		// Acquirer: takes the mutex and ships the slot to the main
		// goroutine, which releases it.
		go func() {
			for i := 0; i < handoffs; i++ {
				slots <- m.acquire()
			}
		}()
		for i := 0; i < handoffs; i++ {
			m.release(<-slots)
		}
		<-done
	})
}

// TestArbiterTryAcquire: the non-blocking probe of the contract —
// succeeds on a free mutex, fails without blocking on a held one, and
// a probe-taken mutex releases like any other.
func TestArbiterTryAcquire(t *testing.T) {
	forEachArbiter(t, func(t *testing.T, newM func() writerMutex) {
		m := newM()
		s, ok := m.tryAcquire()
		if !ok {
			t.Fatal("tryAcquire failed on a free mutex")
		}
		if _, ok := m.tryAcquire(); ok {
			t.Fatal("tryAcquire succeeded while the mutex was held")
		}
		m.release(s)
		// Probe → blocking-path interleaving must stay coherent.
		s2 := m.acquire()
		if _, ok := m.tryAcquire(); ok {
			t.Fatal("tryAcquire succeeded against a blocking-path holder")
		}
		m.release(s2)
		s3, ok := m.tryAcquire()
		if !ok {
			t.Fatal("tryAcquire failed after release")
		}
		m.release(s3)
	})
}

// TestArbiterAcquireCtxGrantVsCancel: the contract's two-valued
// outcome under a deliberate cancel-while-queued.  A waiter whose
// context is cancelled behind a holder returns either an error (the
// cancellation won: it must NOT own the mutex, and the queue must not
// be stranded) or a valid slot (the grant won past the point of no
// return: it MUST own the mutex — Anderson's committed ticket takes
// this branch by design).  Either way the mutex stays fully
// functional afterwards.
func TestArbiterAcquireCtxGrantVsCancel(t *testing.T) {
	forEachArbiter(t, func(t *testing.T, newM func() writerMutex) {
		m := newM()
		holder := m.acquire()
		ctx, cancel := context.WithCancel(context.Background())
		type res struct {
			s   wslot
			err error
		}
		done := make(chan res, 1)
		go func() {
			s, err := m.acquireCtx(ctx)
			done <- res{s, err}
		}()
		time.Sleep(5 * time.Millisecond) // let the waiter queue
		cancel()
		// An abortable arbiter returns the error now, before the
		// release; a committed one (Anderson past its ticket) returns
		// only after it.  Release and then collect either outcome.
		time.Sleep(5 * time.Millisecond)
		m.release(holder)
		r := <-done
		if r.err == nil {
			m.release(r.s) // grant won: we own it and must release it
		}
		// Queue must not be stranded either way.
		m.release(m.acquire())
	})
}

// TestArbiterAcquireCtxAlreadyCancelled: a pre-cancelled context on a
// FREE mutex may still be granted (the grant can win the race — MCS's
// empty-queue swap and Anderson's gate-then-ticket both commit before
// looking at ctx), but an error return must leave the mutex free.
func TestArbiterAcquireCtxAlreadyCancelled(t *testing.T) {
	forEachArbiter(t, func(t *testing.T, newM func() writerMutex) {
		m := newM()
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if s, err := m.acquireCtx(ctx); err == nil {
			m.release(s)
		}
		m.release(m.acquire()) // must not be stranded
	})
}

// TestArbiterCtxChurnRandomCancel is the conformance suite's
// cancellation hammer: many one-shot goroutines acquireCtx under
// contexts cancelled at random points — before queueing, while
// queued, during handoff — against a background of blocking
// acquirers.  Successful grants mutate plain data (-race proves
// exclusion held throughout); the final count proves no passage was
// lost and no cancellation leaked a held mutex; the terminal
// acquire/release proves no cancelled node stranded the queue.
// Recycled-node integrity is exercised by construction: every MCS
// adoption recycles nodes into the pool that the churn immediately
// reuses, so a stale wake or a missed reset shows up as a data race
// or a lost/duplicated passage.
func TestArbiterCtxChurnRandomCancel(t *testing.T) {
	forEachArbiter(t, func(t *testing.T, newM func() writerMutex) {
		m := newM()
		const churners = 600
		var data int64 // plain, guarded only by m
		var granted atomic.Int64
		var wg sync.WaitGroup
		for i := 0; i < churners; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				// A third of the churners get a racing canceller with a
				// tiny random fuse; a sixth start already cancelled.
				switch rand.IntN(6) {
				case 0:
					cancel()
				case 1, 2:
					go func() {
						time.Sleep(time.Duration(rand.IntN(50)) * time.Microsecond)
						cancel()
					}()
				}
				s, err := m.acquireCtx(ctx)
				if err != nil {
					return
				}
				data++
				granted.Add(1)
				m.release(s)
			}()
		}
		// Blocking acquirers keep the queue non-empty so cancellations
		// land mid-queue and during handoffs, not only at the tail.
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := 0; k < 200; k++ {
					s := m.acquire()
					data++
					granted.Add(1)
					m.release(s)
				}
			}()
		}
		wg.Wait()
		if data != granted.Load() {
			t.Fatalf("data = %d, granted = %d (lost or phantom passages)", data, granted.Load())
		}
		m.release(m.acquire()) // queue must survive the churn
	})
}

// The three MCS-specific unlink geometries.  The conformance churn
// above hits them probabilistically; these pin each one
// deterministically, on both passes.

// TestMCSCancelMidQueue: holder ← W1(ctx) ← W2.  Cancelling W1 must
// let the holder's release adopt W1's node and hand the lock to W2.
func TestMCSCancelMidQueue(t *testing.T) {
	for _, pass := range waitPasses() {
		t.Run(string(pass), func(t *testing.T) {
			m := newMCS(pass.st())
			holder := m.acquire()
			ctx, cancel := context.WithCancel(context.Background())
			w1 := make(chan error, 1)
			go func() {
				_, err := m.acquireCtx(ctx)
				w1 <- err
			}()
			time.Sleep(5 * time.Millisecond) // W1 queued behind holder
			w2 := make(chan wslot, 1)
			go func() { w2 <- m.acquire() }()
			time.Sleep(5 * time.Millisecond) // W2 queued behind W1
			cancel()
			if err := <-w1; err != context.Canceled {
				t.Fatalf("mid-queue cancel: W1 err = %v, want context.Canceled", err)
			}
			m.release(holder)
			select {
			case s := <-w2:
				m.release(s)
			case <-time.After(5 * time.Second):
				t.Fatal("W2 never granted: cancelled mid-queue node stranded the handoff")
			}
			m.release(m.acquire())
		})
	}
}

// TestMCSCancelAtTail: holder ← W1(ctx), W1 cancelled while LAST in
// the queue.  The holder's release must adopt the node and find the
// queue empty behind it (tail reset), leaving the lock free.
func TestMCSCancelAtTail(t *testing.T) {
	for _, pass := range waitPasses() {
		t.Run(string(pass), func(t *testing.T) {
			m := newMCS(pass.st())
			holder := m.acquire()
			ctx, cancel := context.WithCancel(context.Background())
			w1 := make(chan error, 1)
			go func() {
				_, err := m.acquireCtx(ctx)
				w1 <- err
			}()
			time.Sleep(5 * time.Millisecond)
			cancel()
			if err := <-w1; err != context.Canceled {
				t.Fatalf("at-tail cancel: W1 err = %v, want context.Canceled", err)
			}
			m.release(holder)
			if m.tail.Load() != nil {
				t.Fatal("tail not reset after adopting a cancelled tail node")
			}
			s, ok := m.tryAcquire()
			if !ok {
				t.Fatal("lock not free after cancelled-tail adoption")
			}
			m.release(s)
		})
	}
}

// TestMCSCancelDuringHandoff races the releaser's grant CAS against
// the waiter's cancel CAS many times.  Exactly one must win each
// round: err==nil means we own the lock (release it), err!=nil means
// we never did (the releaser adopted the node).  Either way the next
// round's acquire must succeed — a both-won round deadlocks it, a
// neither-won round leaks the lock.
func TestMCSCancelDuringHandoff(t *testing.T) {
	for _, pass := range waitPasses() {
		t.Run(string(pass), func(t *testing.T) {
			m := newMCS(pass.st())
			rounds := 3000
			if testing.Short() {
				rounds = 300
			}
			for i := 0; i < rounds; i++ {
				holder := m.acquire()
				ctx, cancel := context.WithCancel(context.Background())
				done := make(chan error, 1)
				go func() {
					s, err := m.acquireCtx(ctx)
					if err == nil {
						m.release(s)
					}
					done <- err
				}()
				// No sleep: the waiter may be pre-queue, queued, or
				// parked when the release and the cancel race below.
				var wg sync.WaitGroup
				wg.Add(2)
				go func() { defer wg.Done(); m.release(holder) }()
				go func() { defer wg.Done(); cancel() }()
				wg.Wait()
				select {
				case <-done:
				case <-time.After(5 * time.Second):
					t.Fatalf("round %d: waiter resolved neither to grant nor to cancel", i)
				}
				// The lock must be exactly free now.
				m.release(m.acquire())
			}
		})
	}
}

// TestArbiterBatchRetireOncePerBatch: the onBatchRetire hook must fire
// exactly once per batch, while the mutex is still held.  On the MCS
// queue and the Anderson array every passage is a batch of one, and on
// the combiner's token path likewise, so here firings must equal
// passages exactly.  The hook increments a PLAIN int64 that the
// critical sections also mutate: under -race, a hook firing outside
// the mutex's exclusion is a detected data race, which is the
// "while held" half of the contract.
func TestArbiterBatchRetireOncePerBatch(t *testing.T) {
	forEachArbiter(t, func(t *testing.T, newM func() writerMutex) {
		m := newM()
		var data int64     // plain, guarded only by m
		var boundary int64 // plain: hook runs under the same exclusion
		m.onBatchRetire(func() { boundary++ })
		const goroutines, laps = 8, 300
		var wg sync.WaitGroup
		for i := 0; i < goroutines; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := 0; k < laps; k++ {
					s := m.acquire()
					data++
					m.release(s)
				}
			}()
		}
		wg.Wait()
		if data != goroutines*laps {
			t.Fatalf("data = %d, want %d (lost passages)", data, goroutines*laps)
		}
		if boundary != goroutines*laps {
			t.Fatalf("hook fired %d times for %d single-passage batches", boundary, goroutines*laps)
		}
	})
}

// TestArbiterBatchRetireDoubleRegisterPanics: the contract allows at
// most one registration per mutex.
func TestArbiterBatchRetireDoubleRegisterPanics(t *testing.T) {
	forEachArbiter(t, func(t *testing.T, newM func() writerMutex) {
		m := newM()
		m.onBatchRetire(func() {})
		defer func() {
			if recover() == nil {
				t.Fatal("second onBatchRetire registration did not panic")
			}
		}()
		m.onBatchRetire(func() {})
	})
}

// TestCombinerBatchRetireOncePerDrainedBatch pins the combiner's side
// of the hook contract on its EXEC path: one firing per swapped batch
// (however many records the batch retired — firings must equal the
// batch counter, not the op counter), fired after the batch's last
// critical section and before the inner release, and NOT forwarded to
// the inner mutex (forwarding would double-fire on every inner
// handoff).  csRun is plain: the hook reads it under the same
// exclusion the critical sections write it, so -race checks the
// ordering claim too.
func TestCombinerBatchRetireOncePerDrainedBatch(t *testing.T) {
	for _, pass := range waitPasses() {
		t.Run(string(pass), func(t *testing.T) {
			c := newCombiner(newMCS(pass.st()), pass.st())
			var csRun int64    // plain, written by combined critical sections
			var boundary int64 // plain, written by the hook under the same mutex
			var behind int64   // critical sections the hook had not yet seen
			c.onBatchRetire(func() {
				boundary++
				behind = csRun // every published-so-far cs of this batch has run
			})
			const publishers, laps = 16, 200
			var wg sync.WaitGroup
			for i := 0; i < publishers; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for k := 0; k < laps; k++ {
						c.exec(func() { csRun++ })
					}
				}()
			}
			wg.Wait()
			st := c.snapshot()
			if csRun != publishers*laps || st.Ops != publishers*laps {
				t.Fatalf("csRun = %d, stats.Ops = %d, want %d", csRun, st.Ops, publishers*laps)
			}
			if boundary != st.Batches {
				t.Fatalf("hook fired %d times for %d batches", boundary, st.Batches)
			}
			if behind != csRun {
				t.Fatalf("last firing saw %d critical sections, %d ran (hook fired before its batch finished)", behind, csRun)
			}
		})
	}
}

// TestArbiterOneShotWriters: the churn shape — well over 1000 DISTINCT
// goroutines, each acquiring and releasing exactly once.  This is the
// shape that distinguishes the contract's obligations from a
// convenient "same goroutines loop forever" assumption: queue nodes
// must recycle across owners (MCS), the admission gate must block
// rather than corrupt (Anderson, capacity 64 ≪ 1200), and the
// combiner's election must tolerate electors that die right after
// their only passage.
func TestArbiterOneShotWriters(t *testing.T) {
	forEachArbiter(t, func(t *testing.T, newM func() writerMutex) {
		m := newM()
		const churners = 1200
		var data int64 // plain, guarded only by m
		var wg sync.WaitGroup
		for i := 0; i < churners; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				s := m.acquire()
				data++
				m.release(s)
			}()
		}
		wg.Wait()
		if data != churners {
			t.Fatalf("data = %d, want %d (lost one-shot passages)", data, churners)
		}
	})
}
