package rwlock

import (
	"context"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Semantics suite for the CtxRWLock contract on every lock in the
// registry: LockCtx/RLockCtx must behave exactly like Lock/RLock
// under an uncancellable context, must abort (or commit — the
// contract's two-valued outcome) under cancellation, and an aborted
// attempt must leave the lock indistinguishable from one the attempt
// never touched.

// ctxLocks returns every registry lock asserted to CtxRWLock.
func ctxLocks(opts ...Option) map[string]interface {
	RWLock
	CtxRWLock
} {
	out := map[string]interface {
		RWLock
		CtxRWLock
	}{}
	for name, l := range locks(opts...) {
		out[name] = l.(interface {
			RWLock
			CtxRWLock
		})
	}
	for name, l := range singleWriterLocks(opts...) {
		out[name] = l.(interface {
			RWLock
			CtxRWLock
		})
	}
	return out
}

// TestLockCtxBackground: with context.Background() the ctx paths are
// the blocking paths — same admission, same tokens, same release.
func TestLockCtxBackground(t *testing.T) {
	for name, l := range ctxLocks() {
		l := l
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			ctx := context.Background()
			wt, err := l.LockCtx(ctx)
			if err != nil {
				t.Fatalf("LockCtx(Background) = %v", err)
			}
			l.Unlock(wt)
			rt, err := l.RLockCtx(ctx)
			if err != nil {
				t.Fatalf("RLockCtx(Background) = %v", err)
			}
			rt2, err := l.RLockCtx(ctx)
			if err != nil {
				t.Fatalf("second RLockCtx(Background) = %v (readers must share)", err)
			}
			l.RUnlock(rt2)
			l.RUnlock(rt)
		})
	}
}

// TestLockCtxAlreadyCancelled: a pre-cancelled context is the
// cheapest abort — but the contract allows a free lock's grant to win
// even here, so either outcome is accepted as long as the books
// balance and the lock stays usable.
func TestLockCtxAlreadyCancelled(t *testing.T) {
	for name, l := range ctxLocks() {
		l := l
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if wt, err := l.LockCtx(ctx); err == nil {
				l.Unlock(wt)
			}
			if rt, err := l.RLockCtx(ctx); err == nil {
				l.RUnlock(rt)
			}
			// Aborted or not, the lock must be fully usable.
			l.Unlock(l.Lock())
			l.RUnlock(l.RLock())
		})
	}
}

// TestRLockCtxCancelUnderWriter: a reader cancelled while a writer
// holds the lock must abort — every discipline's reader gate wait is
// abortable via the zero-length-passage undo, except TaskFairRW,
// whose strict arrival queue commits a reader at its ticket (the
// documented exception) and therefore resolves to a grant once the
// writer leaves.  Either way the retreat must not disturb the writer
// or later readers.
func TestRLockCtxCancelUnderWriter(t *testing.T) {
	for _, pass := range waitPasses() {
		opt := pass.opt()
		for name, l := range ctxLocks(opt) {
			l := l
			committed := name == "TaskFairRW"
			t.Run(name+"/"+string(pass), func(t *testing.T) {
				t.Parallel()
				wt := l.Lock()
				ctx, cancel := context.WithCancel(context.Background())
				done := make(chan error, 1)
				go func() {
					rt, err := l.RLockCtx(ctx)
					if err == nil {
						l.RUnlock(rt)
					}
					done <- err
				}()
				time.Sleep(5 * time.Millisecond) // let the reader park on the gate
				cancel()
				if committed {
					// Ticket-committed: the reader resolves to a grant
					// only after the writer leaves.
					l.Unlock(wt)
					select {
					case err := <-done:
						if err != nil {
							t.Fatalf("committed reader = %v, want grant", err)
						}
					case <-time.After(10 * time.Second):
						t.Fatal("committed reader never granted after writer left")
					}
					l.RUnlock(l.RLock())
					l.Unlock(l.Lock())
					return
				}
				select {
				case err := <-done:
					if err != context.Canceled {
						t.Fatalf("RLockCtx under a writer = %v, want context.Canceled", err)
					}
				case <-time.After(10 * time.Second):
					t.Fatal("cancelled reader never returned while writer held the lock")
				}
				l.Unlock(wt)
				// The aborted reader's zero-length passage must have kept
				// the counts exact: a real reader and a real writer must
				// both still be admitted.
				l.RUnlock(l.RLock())
				l.Unlock(l.Lock())
			})
		}
	}
}

// TestLockCtxCancelUnderWriter: a second writer cancelled while the
// first holds the lock.  Disciplines whose queues abort (MCS
// arbitration, the centralized/phase-fair retreat paths) return the
// error promptly; committed disciplines (Anderson past its ticket,
// the task-fair queue) return the lock after the holder leaves — both
// legal under the two-valued contract, and either way the books must
// balance afterwards.
func TestLockCtxCancelUnderWriter(t *testing.T) {
	for _, pass := range waitPasses() {
		opt := pass.opt()
		// locks() only: a second writer on the single-writer cores is
		// misuse (they panic), not a queueing scenario.
		for name, l := range locks(opt) {
			l := l.(interface {
				RWLock
				CtxRWLock
			})
			t.Run(name+"/"+string(pass), func(t *testing.T) {
				t.Parallel()
				wt := l.Lock()
				ctx, cancel := context.WithCancel(context.Background())
				done := make(chan error, 1)
				go func() {
					wt2, err := l.LockCtx(ctx)
					if err == nil {
						l.Unlock(wt2)
					}
					done <- err
				}()
				time.Sleep(5 * time.Millisecond) // let the writer queue
				cancel()
				time.Sleep(5 * time.Millisecond)
				l.Unlock(wt)
				select {
				case <-done:
				case <-time.After(10 * time.Second):
					t.Fatal("cancelled writer resolved to neither grant nor abort")
				}
				l.Unlock(l.Lock())
				l.RUnlock(l.RLock())
			})
		}
	}
}

// TestWriteCtxCombinerPointOfNoReturn pins the closure path's
// commitment semantics on a combining lock: a pre-cancelled context
// must abort WITHOUT running cs, and a write that was published
// before its context died must run anyway — a published closure is a
// promise to every combiner that might batch it.
func TestWriteCtxCombinerPointOfNoReturn(t *testing.T) {
	for name, mk := range map[string]func() interface {
		RWLock
		CtxFuncWriter
	}{
		"MWSF/combining": func() interface {
			RWLock
			CtxFuncWriter
		} {
			return NewMWSF(WithCombiningWriters())
		},
		"MWRP/combining": func() interface {
			RWLock
			CtxFuncWriter
		} {
			return NewMWRP(WithCombiningWriters())
		},
		"MWWP/combining": func() interface {
			RWLock
			CtxFuncWriter
		} {
			return NewMWWP(WithCombiningWriters())
		},
	} {
		mk := mk
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			l := mk()

			// Pre-cancelled: cs must not run.
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			ran := false
			if err := l.WriteCtx(ctx, func() { ran = true }); err != context.Canceled {
				t.Fatalf("WriteCtx(cancelled) = %v, want context.Canceled", err)
			}
			if ran {
				t.Fatal("WriteCtx ran cs under a pre-cancelled context")
			}

			// Published-then-cancelled: hold the lock via the token path,
			// publish a closure write, cancel, release — the closure must
			// execute exactly once.
			wt := l.Lock()
			ctx2, cancel2 := context.WithCancel(context.Background())
			var ran2 atomic.Int32
			done := make(chan error, 1)
			go func() {
				done <- l.WriteCtx(ctx2, func() { ran2.Add(1) })
			}()
			time.Sleep(10 * time.Millisecond) // let the write publish/queue
			cancel2()
			time.Sleep(5 * time.Millisecond)
			l.Unlock(wt)
			err := <-done
			if err == nil && ran2.Load() != 1 {
				t.Fatalf("WriteCtx returned nil but cs ran %d times", ran2.Load())
			}
			if err != nil && ran2.Load() != 0 {
				t.Fatalf("WriteCtx returned %v but cs ran anyway", err)
			}
			// Whatever won, the closure path must still work.
			var again atomic.Int32
			if err := l.WriteCtx(context.Background(), func() { again.Add(1) }); err != nil || again.Load() != 1 {
				t.Fatalf("post-race WriteCtx = %v, ran %d times", err, again.Load())
			}
		})
	}
}

// TestGuardCtxAndTry covers the Guard adapters end to end: Try*
// reports the truth table, Ctx* aborts without running the callback,
// and both compose with the combining closure path.
func TestGuardCtxAndTry(t *testing.T) {
	for name, l := range map[string]RWLock{
		"MWSF":           NewMWSF(),
		"MWSF/combining": NewMWSF(WithCombiningWriters()),
	} {
		l := l
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			g := NewGuard(l, 0)
			if !g.TryWrite(func(v *int) { *v = 41 }) {
				t.Fatal("TryWrite failed on a free guard")
			}
			if err := g.WriteCtx(context.Background(), func(v *int) { *v++ }); err != nil {
				t.Fatalf("WriteCtx = %v", err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if err := g.WriteCtx(ctx, func(v *int) { *v = -1 }); err != context.Canceled {
				t.Fatalf("WriteCtx(cancelled) = %v, want context.Canceled", err)
			}
			// On a FREE lock a reader's grant may win even against a
			// pre-cancelled ctx (the contract's two-valued outcome), so
			// force the abort by holding the write side.
			wt := l.Lock()
			if err := g.ReadCtx(ctx, func(v int) {}); err != context.Canceled {
				t.Fatalf("ReadCtx(cancelled, write-held) = %v, want context.Canceled", err)
			}
			l.Unlock(wt)
			got := -1
			if !g.TryRead(func(v int) { got = v }) {
				t.Fatal("TryRead failed on a free guard")
			}
			if got != 42 {
				t.Fatalf("guarded value = %d, want 42 (cancelled write leaked through?)", got)
			}
			if err := g.ReadCtx(context.Background(), func(v int) { got = v + 1 }); err != nil || got != 43 {
				t.Fatalf("ReadCtx = %v, got %d", err, got)
			}
		})
	}
}

// TestLockCtxWriterChurnRandomCancel is the acceptance hammer: 32768
// one-shot writers (256 lanes × 128 sequential attempts, the
// writer-churn geometry) take LockCtx under contexts cancelled at
// random fuses chosen to land before, during, and after the queue
// wait, racing a background of readers.  Plain data mutated under
// granted locks (-race proves exclusion), the grant count proves no
// passage was lost or duplicated, and a terminal passage on every
// side proves no cancelled attempt stranded a queue, a gate, or a
// count.  Run on both arbitration layers; an aborted parked waiter is
// the hardest case.
func TestLockCtxWriterChurnRandomCancel(t *testing.T) {
	lanes, opsPerLane := 256, 128
	if testing.Short() {
		lanes, opsPerLane = 64, 32
	}
	for name, mk := range map[string]func() interface {
		RWLock
		CtxRWLock
	}{
		"MWSF": func() interface {
			RWLock
			CtxRWLock
		} {
			return NewMWSF()
		},
		"MWSF/bounded": func() interface {
			RWLock
			CtxRWLock
		} {
			return NewMWSF(WithBoundedWriters(8))
		},
	} {
		mk := mk
		t.Run(name, func(t *testing.T) {
			l := mk()
			var data int64 // plain, guarded only by l
			var granted atomic.Int64
			var cancelled atomic.Int64
			stop := make(chan struct{})
			var readers sync.WaitGroup
			for i := 0; i < 4; i++ {
				readers.Add(1)
				go func() {
					defer readers.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						if rt, err := l.RLockCtx(context.Background()); err == nil {
							_ = data
							l.RUnlock(rt)
						}
					}
				}()
			}
			var lanesWG sync.WaitGroup
			for lane := 0; lane < lanes; lane++ {
				lanesWG.Add(1)
				go func() {
					defer lanesWG.Done()
					for op := 0; op < opsPerLane; op++ {
						// Each op is a DISTINCT goroutine — the churn
						// shape — with its own context and a random fuse.
						opDone := make(chan struct{})
						go func() {
							defer close(opDone)
							ctx, cancel := context.WithCancel(context.Background())
							defer cancel()
							switch rand.IntN(4) {
							case 0:
								cancel() // aborts before queueing
							case 1, 2:
								fuse := time.Duration(rand.IntN(100)) * time.Microsecond
								go func() {
									time.Sleep(fuse)
									cancel() // races the queue wait and the handoff
								}()
							}
							wt, err := l.LockCtx(ctx)
							if err != nil {
								cancelled.Add(1)
								return
							}
							data++
							granted.Add(1)
							l.Unlock(wt)
						}()
						<-opDone
					}
				}()
			}
			lanesWG.Wait()
			close(stop)
			readers.Wait()
			if data != granted.Load() {
				t.Fatalf("data = %d, granted = %d (lost or phantom passages)", data, granted.Load())
			}
			if granted.Load()+cancelled.Load() != int64(lanes*opsPerLane) {
				t.Fatalf("grants %d + cancels %d != %d attempts", granted.Load(), cancelled.Load(), lanes*opsPerLane)
			}
			t.Logf("%s: %d granted, %d cancelled of %d attempts", name, granted.Load(), cancelled.Load(), lanes*opsPerLane)
			// No stranded state on any side.
			l.Unlock(l.Lock())
			l.RUnlock(l.RLock())
		})
	}
}
