package rwlock

import (
	"context"
	"sync/atomic"
	"testing"
	"time"
)

// These tests exercise the locks' internal semantics (they live in the
// package so they may drive the cores step by step), pinning the
// paper's behavioural claims on the NATIVE implementations.  The
// blocked-then-released choreography is exactly where a parking layer
// would lose a wakeup, and every wait in the package parks once its
// short spin gives up, so these scripts are the lost-wakeup
// regression net.

// waitPass is one of the two passes a test over the package's waits
// makes.  The passes keep the subtest names of the two wait
// strategies the package once had ("spin", "park"), so test ids stay
// stable.  Every lock now spins and then parks, so the passes differ
// in instrumentation only: "park" builds each lock with a WithStats
// block, which sends its parks down the counted path and runs every
// stats branch, and "spin" builds it bare.  The baselines take no
// options, so their two passes are the same run.
type waitPass string

// waitPasses lists the passes for test parameterization.
func waitPasses() []waitPass { return []waitPass{"spin", "park"} }

// st is the pass's counter block for a lock or core under test: nil
// on the bare pass, a fresh block on the instrumented one.
func (p waitPass) st() *LockStats {
	if p == "spin" {
		return nil
	}
	return new(LockStats)
}

// opt is st as a constructor option (a no-op on the bare pass).
func (p waitPass) opt() Option {
	if p == "spin" {
		return func(*options) {}
	}
	return WithStats(new(LockStats))
}

// awaitPark waits, on the instrumented pass (st non-nil), until a
// waiter counting into st has parked, so the wake that follows takes
// the park path instead of racing the waiter's spin.
func awaitPark(t *testing.T, st *LockStats) {
	t.Helper()
	if st != nil {
		waitFor(t, "a waiter to park", func() bool { return st.Snapshot().Parks >= 1 })
	}
}

// checkParks checks, on the instrumented pass, that every park
// counted into st was matched by an unpark once the test is quiescent.
func checkParks(t *testing.T, st *LockStats) {
	t.Helper()
	if st == nil {
		return
	}
	if s := st.Snapshot(); s.Unparks != s.Parks {
		t.Errorf("quiescent unparks %d != parks %d", s.Unparks, s.Parks)
	}
}

// TestSWWPCoreGateSemantics: after the writer's doorway (D toggled),
// the gate of the new side is closed, so a reader arriving now blocks
// until the writer's exit — the writer-priority mechanism (WP1).
func TestSWWPCoreGateSemantics(t *testing.T) {
	for _, pass := range waitPasses() {
		t.Run(string(pass), func(t *testing.T) {
			var c swwpCore
			c.init(pass.st())

			prev, cur := c.writerDoorway()
			if prev != 0 || cur != 1 {
				t.Fatalf("first doorway: prev=%d cur=%d, want 0,1", prev, cur)
			}
			if c.gate[cur].load() != cellFalse {
				t.Fatal("gate of the writer's new side must be closed after the doorway")
			}

			entered := make(chan RToken)
			go func() { entered <- c.readerLock() }()
			select {
			case <-entered:
				t.Fatal("reader passed the closed gate")
			case <-time.After(10 * time.Millisecond):
			}

			c.writerWaitingRoom(prev) // no readers on the previous side: immediate
			c.writerExit(cur)
			select {
			case tok := <-entered: // the exit released (and woke) the reader
				c.readerUnlock(tok)
			case <-time.After(2 * time.Second):
				t.Fatal("reader not released by the writer's exit")
			}
		})
	}
}

// TestSWWPCoreLastReaderWakesWriter: with readers registered on the
// previous side, the writer blocks in its waiting room until the LAST
// reader of that side leaves — and only that reader writes the permit
// word (the O(1)-RMR handoff).
func TestSWWPCoreLastReaderWakesWriter(t *testing.T) {
	for _, pass := range waitPasses() {
		t.Run(string(pass), func(t *testing.T) {
			var c swwpCore
			c.init(pass.st())

			// Two readers enter on side 0 (writer idle, gate[0] open).
			t1 := c.readerLock()
			t2 := c.readerLock()
			if t1.side != 0 || t2.side != 0 {
				t.Fatalf("readers on side %d/%d, want 0/0", t1.side, t2.side)
			}

			prev, cur := c.writerDoorway()
			done := make(chan struct{})
			go func() {
				c.writerWaitingRoom(prev)
				close(done)
			}()
			select {
			case <-done:
				t.Fatal("writer passed the waiting room with readers in the CS")
			case <-time.After(10 * time.Millisecond):
			}

			c.readerUnlock(t1) // not the last: the writer must stay blocked
			select {
			case <-done:
				t.Fatal("writer released by a non-last reader")
			case <-time.After(10 * time.Millisecond):
			}

			c.readerUnlock(t2) // last reader of side 0: wakes the writer
			select {
			case <-done:
			case <-time.After(2 * time.Second):
				t.Fatal("writer not released by the last reader")
			}
			c.writerExit(cur)
		})
	}
}

// TestSWRPCorePromoteSemantics: Promote only enables the writer when
// the reader count is zero, and goes through the caller's pid.
func TestSWRPCorePromoteSemantics(t *testing.T) {
	for _, pass := range waitPasses() {
		t.Run(string(pass), func(t *testing.T) {
			var c swrpCore
			c.init(pass.st())

			// A reader registers; the writer's own Promote must NOT set
			// Permit (C != 0).
			rt := c.readerLock()
			c.d.Store(1) // writer doorway equivalent
			c.permit.store(cellFalse)
			c.promote(c.newID())
			if c.permit.load() != cellFalse {
				t.Fatal("Promote granted the writer with a reader registered")
			}

			// The exiting reader's Promote (inside readerUnlock) finds C == 0
			// and hands over: X becomes true and Permit is set.
			c.readerUnlock(rt)
			if c.permit.load() != cellTrue {
				t.Fatal("last reader's Promote did not wake the writer")
			}
			if c.x.Load() != xTrue {
				t.Fatalf("X = %d, want true sentinel", c.x.Load())
			}
		})
	}
}

// TestSWRPReadersBypassWaitingWriter: reader priority in action — a
// reader arriving while the writer WAITS (X != true yet) sails into
// the CS; the writer stays blocked (RP1).
func TestSWRPReadersBypassWaitingWriter(t *testing.T) {
	for _, pass := range waitPasses() {
		t.Run(string(pass), func(t *testing.T) {
			l := NewSWRP(pass.opt())
			rt0 := l.RLock() // pin a reader so the writer cannot be promoted

			locked := make(chan WToken)
			go func() { locked <- l.Lock() }()
			// The writer cannot proceed while rt0 is in the CS.
			select {
			case <-locked:
				t.Fatal("writer entered with a reader in the CS")
			case <-time.After(10 * time.Millisecond):
			}

			// New readers keep entering without waiting.
			for i := 0; i < 3; i++ {
				done := make(chan struct{})
				go func() {
					tok := l.RLock()
					l.RUnlock(tok)
					close(done)
				}()
				select {
				case <-done:
				case <-time.After(2 * time.Second):
					t.Fatal("reader blocked although the CS was read-occupied (RP violated)")
				}
			}

			l.RUnlock(rt0) // last reader out: the writer gets in
			wt := <-locked
			l.Unlock(wt)
		})
	}
}

// waitFor polls cond until it holds, failing the test after 5 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// recvWithin receives from ch, failing the test after 5 s.
func recvWithin[T any](t *testing.T, ch <-chan T, what string) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(5 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
		panic("unreachable")
	}
}

// phaseFairUnderDrain sets up the geometry of the phase-fair give-up
// tests: reader E inside, and writer W1 with its bits up, draining E.
// It returns E's token and the channel W1's token arrives on.
func phaseFairUnderDrain(t *testing.T, l *PhaseFairRW) (RToken, chan WToken) {
	t.Helper()
	e := l.RLock()
	w1 := make(chan WToken, 1)
	go func() { w1 <- l.Lock() }()
	waitFor(t, "the writer raising its bits", func() bool { return l.rin.load()&pfPres != 0 })
	return e, w1
}

// phaseFairStillDraining fails the test if W1 got in while E is
// inside: a give-up that reached rout completed W1's drain count early.
func phaseFairStillDraining(t *testing.T, w1 chan WToken) {
	t.Helper()
	select {
	case <-w1:
		t.Fatal("writer entered while an earlier reader was inside: a give-up reached its drain count")
	case <-time.After(20 * time.Millisecond):
	}
}

// phaseFairBalanced checks that a reader and a writer are still both
// admitted: a drain count that a give-up broke strands the writer.
func phaseFairBalanced(t *testing.T, l *PhaseFairRW) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		l.RUnlock(l.RLock())
		l.Unlock(l.Lock())
		close(done)
	}()
	recvWithin(t, done, "a reader and a writer after the give-up")
}

// TestPhaseFairTryRLockUnderDrain: a TryRLock that fails under a
// draining writer must touch neither counter.  That writer's snapshot
// never counted the probe, so a probe retired through rout would let
// the writer in beside reader E.
func TestPhaseFairTryRLockUnderDrain(t *testing.T) {
	l := NewPhaseFairRW()
	e, w1 := phaseFairUnderDrain(t, l)
	if _, ok := l.TryRLock(); ok {
		t.Fatal("TryRLock succeeded under a draining writer")
	}
	phaseFairStillDraining(t, w1)
	l.RUnlock(e)
	l.Unlock(recvWithin(t, w1, "the writer after E left"))
	phaseFairBalanced(t, l)
}

// TestPhaseFairRLockCtxCancelUnderDrain: reader R registers under
// draining writer W1's bits and is cancelled.  W1 never counted R and
// the next writer will, so R may neither leave rin nor reach rout
// while W1's bits are up.  Between the cancel and R's retirement (at
// W1's Unlock), a TryLock fails and a second writer queues; W1 still
// waits for E, both writers then get in, and the counts stay exact.
func TestPhaseFairRLockCtxCancelUnderDrain(t *testing.T) {
	l := NewPhaseFairRW()
	e, w1 := phaseFairUnderDrain(t, l)
	ctx, cancel := context.WithCancel(context.Background())
	r := make(chan error, 1)
	go func() {
		rt, err := l.RLockCtx(ctx)
		if err == nil {
			l.RUnlock(rt)
		}
		r <- err
	}()
	waitFor(t, "R registering", func() bool { return l.rin.load()>>8 == 2 })
	cancel()
	if err := recvWithin(t, r, "the cancelled reader"); err != context.Canceled {
		t.Fatalf("RLockCtx under a draining writer = %v, want context.Canceled", err)
	}
	if _, ok := l.TryLock(); ok {
		t.Fatal("TryLock succeeded while another writer drains")
	}
	w2 := make(chan WToken, 1)
	go func() { w2 <- l.Lock() }()
	phaseFairStillDraining(t, w1)
	l.RUnlock(e)
	l.Unlock(recvWithin(t, w1, "W1 after E left"))
	l.Unlock(recvWithin(t, w2, "the second writer after W1 left"))
	phaseFairBalanced(t, l)
}

// TestPhaseFairRLockCtxCancelHandOffFull: more readers are cancelled
// under one writer's bits than rin's hand-off field holds.  The first
// 63 return at once; the rest wait for the phase boundary and retire
// themselves (or, if the boundary beats their cancellation, are
// granted and leave), so every reader is retired exactly once.
func TestPhaseFairRLockCtxCancelHandOffFull(t *testing.T) {
	l := NewPhaseFairRW()
	wt := l.Lock()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	const readers = 70
	errs := make(chan error, readers)
	for i := 0; i < readers; i++ {
		go func() {
			rt, err := l.RLockCtx(ctx)
			if err == nil {
				l.RUnlock(rt)
			}
			errs <- err
		}()
	}
	handedOff := pfPendMask / pfPend
	for i := int64(0); i < handedOff; i++ {
		if err := recvWithin(t, errs, "a cancelled reader"); err != context.Canceled {
			t.Fatalf("cancelled RLockCtx = %v, want context.Canceled", err)
		}
	}
	waitFor(t, "every reader registered", func() bool { return l.rin.load()>>8 == readers })
	l.Unlock(wt)
	for i := handedOff; i < readers; i++ {
		if err := recvWithin(t, errs, "a cancelled reader past the boundary"); err != nil && err != context.Canceled {
			t.Fatalf("cancelled RLockCtx = %v, want context.Canceled or a grant", err)
		}
	}
	waitFor(t, "every cancelled reader retired", func() bool {
		return l.rout.load() == readers*pfReader
	})
	if v := l.rin.load(); v&pfPendMask != 0 || v>>8 != readers {
		t.Fatalf("rin = %#x, want %d readers and no hand-offs left", v, readers)
	}
	phaseFairBalanced(t, l)
}

// TestPhaseFairOnePhaseBound: a reader that arrives during writer A's
// critical section is admitted when A leaves, even if writer B is
// already queued — and B then waits for that reader (phase
// alternation R/W/R/W).
func TestPhaseFairOnePhaseBound(t *testing.T) {
	for _, pass := range waitPasses() {
		t.Run(string(pass), func(t *testing.T) {
			l := NewPhaseFairRW()
			wtA := l.Lock()

			readerIn := make(chan RToken)
			go func() { readerIn <- l.RLock() }()
			// Give the reader time to register its rin increment.
			time.Sleep(5 * time.Millisecond)

			wtBCh := make(chan WToken)
			go func() { wtBCh <- l.Lock() }()
			select {
			case <-wtBCh:
				t.Fatal("writer B entered while A held the lock")
			case <-time.After(10 * time.Millisecond):
			}

			l.Unlock(wtA)
			// The reader must be admitted now (one phase boundary), while
			// writer B keeps waiting for it.
			var rt RToken
			select {
			case rt = <-readerIn:
			case <-time.After(2 * time.Second):
				t.Fatal("reader not admitted at the phase boundary")
			}
			select {
			case <-wtBCh:
				t.Fatal("writer B overtook the phase-boundary reader")
			case <-time.After(10 * time.Millisecond):
			}

			l.RUnlock(rt)
			wtB := <-wtBCh
			l.Unlock(wtB)
		})
	}
}

// TestMWWPTokenHandoff: with a writer queued behind the one in the
// CS, the exiting writer leaves the SWWP core held (W-token = pid),
// and the reader gate stays closed until the LAST writer leaves with
// nobody waiting — Figure 4's mechanism for WP1 across handoffs.
func TestMWWPTokenHandoff(t *testing.T) {
	for _, pass := range waitPasses() {
		t.Run(string(pass), func(t *testing.T) {
			l := NewMWWP(pass.opt())
			wt1 := l.Lock()

			wt2Ch := make(chan WToken)
			go func() { wt2Ch <- l.Lock() }()
			time.Sleep(5 * time.Millisecond) // writer 2 increments Wcount and queues

			readerIn := make(chan RToken)
			go func() { readerIn <- l.RLock() }()
			time.Sleep(5 * time.Millisecond)

			l.Unlock(wt1)
			// Writer 2 must get in next (writer priority), not the reader.
			var wt2 WToken
			select {
			case wt2 = <-wt2Ch:
			case <-time.After(2 * time.Second):
				t.Fatal("queued writer not admitted after handoff")
			}
			select {
			case <-readerIn:
				t.Fatal("reader overtook the queued writer (WP violated)")
			case <-time.After(10 * time.Millisecond):
			}

			l.Unlock(wt2) // last writer out, no writer waiting: readers released
			rt := <-readerIn
			l.RUnlock(rt)
		})
	}
}

// TestCentralizedNoFairness documents (rather than fixes) the
// baseline's weakness: it provides exclusion but no ordering—this
// test only verifies exclusion holds under a writer/reader tug-of-war.
func TestCentralizedNoFairness(t *testing.T) {
	for _, pass := range waitPasses() {
		t.Run(string(pass), func(t *testing.T) {
			l := NewCentralizedRW()
			var inCS atomic.Int32
			stop := make(chan struct{})
			for i := 0; i < 2; i++ {
				go func() {
					for {
						select {
						case <-stop:
							return
						default:
						}
						tok := l.Lock()
						if v := inCS.Add(1); v != 1 {
							t.Errorf("writer saw %d occupants", v)
						}
						inCS.Add(-1)
						l.Unlock(tok)
					}
				}()
			}
			for i := 0; i < 1000; i++ {
				tok := l.RLock()
				l.RUnlock(tok)
			}
			close(stop)
		})
	}
}
