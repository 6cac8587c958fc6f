package rwlock

import (
	"sync"
	"sync/atomic"
	"testing"
)

// Tests for the writer-arbitration layer: the unbounded MCS queue
// mutex itself, qnode recycling, and the writer-churn shape the
// bounded API made impossible — thousands of short-lived goroutines
// each performing exactly one write passage.  CI runs this package
// under -race, so any CS overlap is also a detected data race.

// TestMCSMutualExclusion: the queue mutex admits exactly one holder
// under heavy contention, bare and instrumented.
func TestMCSMutualExclusion(t *testing.T) {
	for _, pass := range waitPasses() {
		pass := pass
		t.Run(string(pass), func(t *testing.T) {
			t.Parallel()
			l := newMCS(pass.st())
			var inside atomic.Int32
			var wg sync.WaitGroup
			for i := 0; i < 8; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for k := 0; k < 1000; k++ {
						s := l.acquire()
						if v := inside.Add(1); v != 1 {
							t.Errorf("mcs admitted %d holders", v)
						}
						inside.Add(-1)
						l.release(s)
					}
				}()
			}
			wg.Wait()
		})
	}
}

// TestMCSRecyclesNodes: steady-state passages must not allocate — the
// qnode comes back from the pool, not the heap.  GC may clear the
// pool mid-run (sync.Pool's contract), so the assertion is an average
// well under one allocation per passage rather than exactly zero.
func TestMCSRecyclesNodes(t *testing.T) {
	l := newMCS(nil)
	s := l.acquire() // warm the pool
	l.release(s)
	if n := testing.AllocsPerRun(500, func() {
		s := l.acquire()
		l.release(s)
	}); n > 0.5 {
		t.Fatalf("uncontended MCS passage allocates %.2f objects (qnodes not recycled)", n)
	}
}

// TestMCSHandoffRecycling: a released node must be reusable while its
// former successor still holds the lock — the recycle-after-grant
// path, driven deterministically: A holds, B queues, A releases
// (recycling A's node), and the lock keeps working through many laps.
func TestMCSHandoffRecycling(t *testing.T) {
	for _, pass := range waitPasses() {
		pass := pass
		t.Run(string(pass), func(t *testing.T) {
			l := newMCS(pass.st())
			var held atomic.Int32
			for lap := 0; lap < 200; lap++ {
				a := l.acquire()
				queued := make(chan wslot)
				go func() {
					s := l.acquire() // links behind a, waits for the grant
					if v := held.Add(1); v != 1 {
						t.Errorf("lap %d: %d holders after handoff", lap, v)
					}
					held.Add(-1)
					queued <- s
				}()
				l.release(a) // hands off to the queued goroutine, recycles a's node
				l.release(<-queued)
			}
		})
	}
}

// TestWriterChurn is the satellite stress: at least 1000 DISTINCT
// goroutines, each performing exactly one Lock/Unlock, per lock and
// bare and instrumented.  The bounded constructors of the old API could
// not express this shape at all (1000 concurrent write attempts would
// need maxWriters=1000 decided up front); the MCS arbitration takes
// it in stride, and the bounded variant survives it too because its
// admission gate blocks rather than corrupts.
func TestWriterChurn(t *testing.T) {
	const churners = 1200
	churnLocks := func(pass waitPass) map[string]RWLock {
		o := pass.opt()
		return map[string]RWLock{
			"MWSF":         NewMWSF(o),
			"MWRP":         NewMWRP(o),
			"MWWP":         NewMWWP(o),
			"MWSF/bounded": NewMWSF(o, WithBoundedWriters(8)),
			"Bravo(MWSF)":  NewBravoMWSF(o),
		}
	}
	for _, pass := range waitPasses() {
		for name, l := range churnLocks(pass) {
			l := l
			t.Run(name+"/"+string(pass), func(t *testing.T) {
				t.Parallel()
				var data int64 // plain, guarded only by l: -race checks exclusion
				var wg sync.WaitGroup
				for i := 0; i < churners; i++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						tok := l.Lock()
						data++
						l.Unlock(tok)
					}()
				}
				wg.Wait()
				if data != churners {
					t.Fatalf("data = %d, want %d (lost write passages)", data, churners)
				}
			})
		}
	}
}

// TestMCSSlotCrossGoroutineTransfer: the MCS slot rides in the WToken,
// so a write acquired on one goroutine may be released on another —
// and that remote release is the handoff site for the next queued
// writer, so the transfer must not strand the queue.
func TestMCSSlotCrossGoroutineTransfer(t *testing.T) {
	for _, pass := range waitPasses() {
		pass := pass
		t.Run(string(pass), func(t *testing.T) {
			l := NewMWSF(pass.opt())
			const handoffs = 300
			toks := make(chan WToken)
			// Acquirer goroutine: locks, ships the token (with its MCS
			// qnode) to the main goroutine, which releases it.  A third
			// party keeps the queue non-empty so every remote release
			// performs a real MCS handoff.
			done := make(chan struct{})
			go func() {
				defer close(done)
				for i := 0; i < handoffs; i++ {
					tok := l.Lock()
					l.Unlock(tok)
				}
			}()
			go func() {
				for i := 0; i < handoffs; i++ {
					toks <- l.Lock()
				}
			}()
			for i := 0; i < handoffs; i++ {
				l.Unlock(<-toks) // released off-goroutine
			}
			<-done
		})
	}
}

// TestBoundedWritersOptionValidation: the bounded-arbitration option
// rejects a nonsensical capacity loudly.
func TestBoundedWritersOptionValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("WithBoundedWriters(0) did not panic")
		}
	}()
	WithBoundedWriters(0)
}

// TestArbitrationSelection: the option actually switches the layer.
func TestArbitrationSelection(t *testing.T) {
	if _, ok := NewMWSF().m.(*mcsLock); !ok {
		t.Fatalf("default arbitration is %T, want *mcsLock", NewMWSF().m)
	}
	l := NewMWSF(WithBoundedWriters(3))
	a, ok := l.m.(*AndersonLock)
	if !ok {
		t.Fatalf("bounded arbitration is %T, want *AndersonLock", l.m)
	}
	if a.Capacity() != 3 {
		t.Fatalf("bounded capacity = %d, want 3", a.Capacity())
	}
}
