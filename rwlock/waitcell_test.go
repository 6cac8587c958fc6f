package rwlock

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestWaitCellStoreWake: a single waiter — the wait/Set+Wake handshake
// in isolation.
func TestWaitCellStoreWake(t *testing.T) {
	for _, pass := range waitPasses() {
		t.Run(string(pass), func(t *testing.T) {
			var c waitCell
			st := pass.st()
			c.setStats(st)
			done := make(chan struct{})
			go func() {
				c.wait(7)
				close(done)
			}()
			select {
			case <-done:
				t.Fatal("wait returned before the store")
			case <-time.After(10 * time.Millisecond):
			}
			awaitPark(t, st)
			c.storeWake(7)
			select {
			case <-done:
			case <-time.After(2 * time.Second):
				t.Fatal("waiter not woken by storeWake")
			}
			if c.parked.Load() != 0 {
				t.Fatalf("parked count %d after wake, want 0", c.parked.Load())
			}
			checkParks(t, st)
		})
	}
}

// TestWaitCellBroadcast: many goroutines parked on one cell (readers
// on a gate) must ALL be released by one storeWake.
func TestWaitCellBroadcast(t *testing.T) {
	for _, pass := range waitPasses() {
		t.Run(string(pass), func(t *testing.T) {
			var c waitCell
			st := pass.st()
			c.setStats(st)
			const n = 16
			var woken atomic.Int32
			var wg sync.WaitGroup
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					c.wait(cellTrue)
					woken.Add(1)
				}()
			}
			time.Sleep(20 * time.Millisecond) // let waiters park
			awaitPark(t, st)
			c.storeWake(cellTrue)
			wg.Wait()
			if woken.Load() != n {
				t.Fatalf("woke %d of %d waiters", woken.Load(), n)
			}
			checkParks(t, st)
		})
	}
}

// TestWaitCellWaitUntil: predicate waits (the baselines' masked
// conditions) wake on adds.
func TestWaitCellWaitUntil(t *testing.T) {
	for _, pass := range waitPasses() {
		t.Run(string(pass), func(t *testing.T) {
			var c waitCell
			st := pass.st()
			c.setStats(st)
			c.store(3)
			done := make(chan struct{})
			go func() {
				c.waitUntil(func(v int64) bool { return v == 0 })
				close(done)
			}()
			c.addWake(-1)
			c.addWake(-1)
			select {
			case <-done:
				t.Fatal("waitUntil returned with value 1")
			case <-time.After(10 * time.Millisecond):
			}
			awaitPark(t, st)
			c.addWake(-1)
			select {
			case <-done:
			case <-time.After(2 * time.Second):
				t.Fatal("waitUntil not released at 0")
			}
			checkParks(t, st)
		})
	}
}

// TestWaitCellWakeRace hammers the park/wake handshake: a ping-pong
// pair where each side's storeWake is the other's release.  Any lost
// wakeup deadlocks (caught by the test timeout); run under -race this
// also checks the parking path's memory discipline.
func TestWaitCellWakeRace(t *testing.T) {
	var ping, pong waitCell
	const rounds = 5000
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			ping.wait(int64(i + 1))
			pong.storeWake(int64(i + 1))
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			ping.storeWake(int64(i + 1))
			pong.wait(int64(i + 1))
		}
	}()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("ping-pong deadlocked: lost wakeup in the parking layer")
	}
}

// TestWaitCellWaitCtxWake: an uncancelled waitCtx behaves exactly
// like wait — released by the signal, returning nil.
func TestWaitCellWaitCtxWake(t *testing.T) {
	for _, pass := range waitPasses() {
		t.Run(string(pass), func(t *testing.T) {
			var c waitCell
			st := pass.st()
			c.setStats(st)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			done := make(chan error, 1)
			go func() { done <- c.waitCtx(ctx, 7) }()
			select {
			case <-done:
				t.Fatal("waitCtx returned before the store")
			case <-time.After(10 * time.Millisecond):
			}
			awaitPark(t, st)
			c.storeWake(7)
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("waitCtx = %v after a real wake, want nil", err)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("waitCtx waiter not woken by storeWake")
			}
			if c.parked.Load() != 0 {
				t.Fatalf("parked count %d after wake, want 0", c.parked.Load())
			}
			checkParks(t, st)
		})
	}
}

// TestWaitCellWaitCtxCancel: cancellation releases a waiter whose
// condition never becomes true, with ctx.Err() reported and no
// parked-count leak — the leak would silently break wakeAll's
// nobody-parked fast path forever after.
func TestWaitCellWaitCtxCancel(t *testing.T) {
	for _, pass := range waitPasses() {
		t.Run(string(pass), func(t *testing.T) {
			var c waitCell
			st := pass.st()
			c.setStats(st)
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan error, 1)
			go func() { done <- c.waitCtx(ctx, 7) }()
			time.Sleep(10 * time.Millisecond) // let the waiter park
			awaitPark(t, st)
			cancel()
			select {
			case err := <-done:
				if err != context.Canceled {
					t.Fatalf("waitCtx = %v, want context.Canceled", err)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("cancellation did not release the waiter")
			}
			if c.parked.Load() != 0 {
				t.Fatalf("parked count %d after cancel, want 0 (leak)", c.parked.Load())
			}
			// The cell must still work for later waiters: the cancelled
			// attempt may not have consumed or corrupted anything.
			go func() { done <- c.waitCtx(context.Background(), 7) }()
			c.storeWake(7)
			if err := <-done; err != nil {
				t.Fatalf("post-cancel waitCtx = %v, want nil", err)
			}
			checkParks(t, st)
		})
	}
}

// TestWaitCellWaitCtxAlreadySatisfied: the value check always wins —
// a satisfied condition reports nil even on an already-cancelled ctx,
// and an already-cancelled ctx on an unsatisfied cell reports the
// error without waiting.
func TestWaitCellWaitCtxAlreadySatisfied(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var c waitCell
	c.store(7)
	if err := c.waitCtx(ctx, 7); err != nil {
		t.Fatalf("waitCtx on a satisfied cell = %v, want nil (value wins)", err)
	}
	c.store(0)
	if err := c.waitCtx(ctx, 7); err != context.Canceled {
		t.Fatalf("waitCtx on an unsatisfied cell = %v, want context.Canceled", err)
	}
	if err := c.waitUntilCtx(ctx, func(v int64) bool { return v == 7 }); err != context.Canceled {
		t.Fatalf("waitUntilCtx = %v, want context.Canceled", err)
	}
	c.store(7)
	if err := c.waitUntilCtx(ctx, func(v int64) bool { return v == 7 }); err != nil {
		t.Fatalf("waitUntilCtx on a satisfied cell = %v, want nil", err)
	}
}

// TestWaitCellWaitUntilCtxCancel: the predicate form's cancellation
// path, including a waiter that is later re-satisfied.
func TestWaitCellWaitUntilCtxCancel(t *testing.T) {
	for _, pass := range waitPasses() {
		t.Run(string(pass), func(t *testing.T) {
			var c waitCell
			st := pass.st()
			c.setStats(st)
			c.store(3)
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan error, 1)
			go func() {
				done <- c.waitUntilCtx(ctx, func(v int64) bool { return v == 0 })
			}()
			c.addWake(-1) // 2: not yet satisfied
			time.Sleep(10 * time.Millisecond)
			awaitPark(t, st)
			cancel()
			if err := <-done; err != context.Canceled {
				t.Fatalf("waitUntilCtx = %v, want context.Canceled", err)
			}
			if c.parked.Load() != 0 {
				t.Fatalf("parked count %d after cancel, want 0", c.parked.Load())
			}
			checkParks(t, st)
		})
	}
}

// TestWaitCellCancelVsWakeRace races a storeWake against a cancel for
// the same parked waiter, many rounds.  Either
// outcome is legal, but the contract pins one asymmetry: when waitCtx
// returns nil the value was observed, and when it returns an error a
// LATER waiter must still be wakeable (no lost wakeup, no leaked
// parked count).  Run under -race this also exercises the
// AfterFunc-vs-broadcast path in parkUntilCtx.
func TestWaitCellCancelVsWakeRace(t *testing.T) {
	for _, pass := range waitPasses() {
		t.Run(string(pass), func(t *testing.T) {
			var c waitCell
			st := pass.st()
			c.setStats(st)
			const rounds = 2000
			for i := 0; i < rounds; i++ {
				c.store(0)
				ctx, cancel := context.WithCancel(context.Background())
				done := make(chan error, 1)
				go func() { done <- c.waitCtx(ctx, 1) }()
				var wg sync.WaitGroup
				wg.Add(2)
				go func() { defer wg.Done(); c.storeWake(1) }()
				go func() { defer wg.Done(); cancel() }()
				var err error
				select {
				case err = <-done:
				case <-time.After(5 * time.Second):
					t.Fatalf("round %d: waiter released by neither wake nor cancel", i)
				}
				wg.Wait()
				if err == nil && c.load() != 1 {
					t.Fatalf("round %d: waitCtx reported woken with value %d", i, c.load())
				}
				if n := c.parked.Load(); n != 0 {
					t.Fatalf("round %d: parked count %d leaked", i, n)
				}
			}
			checkParks(t, st)
		})
	}
}

// TestDefaultLocksPark pins the default wait: every lock built with no
// option but WithStats spins briefly and then parks.  A reader blocked
// behind a held write lock must be counted as parked well before the
// bound, and once the writer leaves every park must be matched by an
// unpark.
func TestDefaultLocksPark(t *testing.T) {
	for name, mk := range map[string]func(st *LockStats) RWLock{
		"MWSF":        func(st *LockStats) RWLock { return NewMWSF(WithStats(st)) },
		"MWRP":        func(st *LockStats) RWLock { return NewMWRP(WithStats(st)) },
		"MWWP":        func(st *LockStats) RWLock { return NewMWWP(WithStats(st)) },
		"Bravo(MWSF)": func(st *LockStats) RWLock { return NewBravoMWSF(WithStats(st)) },
	} {
		mk := mk
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			st := new(LockStats)
			l := mk(st)
			wt := l.Lock()
			done := make(chan struct{})
			go func() {
				l.RUnlock(l.RLock())
				close(done)
			}()
			waitFor(t, "the blocked reader to park", func() bool { return st.Snapshot().Parks >= 1 })
			l.Unlock(wt)
			recvWithin(t, done, "the reader after the writer left")
			if s := st.Snapshot(); s.Unparks != s.Parks {
				t.Fatalf("quiescent unparks %d != parks %d", s.Unparks, s.Parks)
			}
		})
	}
}
