package rwlock

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"
)

// The Slim variants' whole reason to exist is their size; everything
// else about them is the BRAVO / epoch-parity protocols restated over
// a shared arena.  These tests pin the size, the mutual exclusion
// (under -race, which sees through the packed state word), the
// shared-arena isolation between lock instances, and the Try/Ctx
// contracts' commitment points.

// TestSlimSize pins the 16-byte footprint — the number the serving
// tier's bytes/lock-instance metric is built on.  A field added to
// either struct is a deliberate decision that must change this test.
func TestSlimSize(t *testing.T) {
	if sz := unsafe.Sizeof(SlimBravo{}); sz != 16 {
		t.Errorf("sizeof(SlimBravo) = %d, want 16", sz)
	}
	if sz := unsafe.Sizeof(SlimEpoch{}); sz != 16 {
		t.Errorf("sizeof(SlimEpoch) = %d, want 16", sz)
	}
}

// exerciseRW hammers one lock with concurrent readers and writers
// over plain (non-atomic) shared variables: the race detector proves
// mutual exclusion, and the a==b invariant proves readers never
// observe a half-finished write section.
func exerciseRW(t *testing.T, l RWLock) {
	t.Helper()
	var a, b int64 // protected by l
	const writers, readers, iters = 4, 6, 300
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				tok := l.Lock()
				a++
				if i%16 == 0 {
					runtime.Gosched() // widen the window inside the CS
				}
				b++
				l.Unlock(tok)
			}
		}()
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				tok := l.RLock()
				x, y := a, b
				l.RUnlock(tok)
				if x != y {
					t.Errorf("torn read: a=%d b=%d", x, y)
					return
				}
			}
		}()
	}
	wg.Wait()
	if a != writers*iters || b != a {
		t.Fatalf("after run: a=%d b=%d, want both %d", a, b, writers*iters)
	}
}

func TestSlimBravoExclusion(t *testing.T) { exerciseRW(t, NewSlimBravo()) }
func TestSlimEpochExclusion(t *testing.T) { exerciseRW(t, NewSlimEpoch()) }

// TestSharedTableExclusion runs the same hammer over locks of every
// shared-arena flavor CONCURRENTLY on one arena: exclusion must hold
// per lock, with all their readers interleaved in the same slots.
func TestSharedTableExclusion(t *testing.T) {
	tbl := NewReaderTable(64)
	locks := []RWLock{
		NewSlimBravo(WithSharedReaderTable(tbl)),
		NewSlimEpoch(WithSharedReaderTable(tbl)),
		NewBravoMWSF(WithSharedReaderTable(tbl)),
		NewEpochMWSF(WithSharedReaderTable(tbl)),
	}
	var wg sync.WaitGroup
	for _, l := range locks {
		wg.Add(1)
		go func(l RWLock) {
			defer wg.Done()
			exerciseRW(t, l)
		}(l)
	}
	wg.Wait()
}

// TestSharedTableGOMAXPROCSChange: the arena's regions are fixed at
// construction, so readers running at a different GOMAXPROCS claim
// with P ids past the region count (1→4) or use only some regions
// (8→2).  Exclusion must hold either way — every claim still lands in
// a slot the revocation scan reads.  Not parallel: it sets GOMAXPROCS.
func TestSharedTableGOMAXPROCSChange(t *testing.T) {
	for _, tc := range []struct{ built, run int }{{1, 4}, {8, 2}} {
		t.Run(fmt.Sprintf("%d->%d", tc.built, tc.run), func(t *testing.T) {
			prev := runtime.GOMAXPROCS(tc.built)
			defer runtime.GOMAXPROCS(prev)
			tbl := NewReaderTable(0)
			locks := map[string]RWLock{
				"SlimBravo":          NewSlimBravo(WithSharedReaderTable(tbl)),
				"Bravo(MWSF)/shared": NewBravoMWSF(WithSharedReaderTable(tbl)),
				"MWSF/epoch/shared":  NewEpochMWSF(WithSharedReaderTable(tbl)),
			}
			runtime.GOMAXPROCS(tc.run)
			for name, l := range locks {
				t.Run(name, func(t *testing.T) { exerciseRW(t, l) })
			}
		})
	}
}

// TestSharedTableWriterIsolation: a fast-path reader of lock A must
// not delay a revoking writer of lock B sharing the same arena — B's
// drain skips A's slots.  (The reverse — A's own writer waiting for
// A's reader — is the ordinary drain, also checked.)
func TestSharedTableWriterIsolation(t *testing.T) {
	tbl := NewReaderTable(64)
	for _, tc := range []struct {
		name string
		mk   func() RWLock
	}{
		{"SlimBravo", func() RWLock { return NewSlimBravo(WithSharedReaderTable(tbl)) }},
		{"SlimEpoch", func() RWLock { return NewSlimEpoch(WithSharedReaderTable(tbl)) }},
		{"Bravo/shared", func() RWLock { return NewBravoMWSF(WithSharedReaderTable(tbl)) }},
		{"Epoch/shared", func() RWLock { return NewEpochMWSF(WithSharedReaderTable(tbl)) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			la, lb := tc.mk(), tc.mk()
			rt := la.RLock() // fast claim in the shared arena (bias/epoch open)
			// B's writer must complete despite A's live reader.
			done := make(chan struct{})
			go func() {
				wt := lb.Lock()
				lb.Unlock(wt)
				close(done)
			}()
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Fatal("lock B's writer blocked on lock A's fast-path reader")
			}
			// A's own writer must wait for the reader, then proceed.
			adone := make(chan struct{})
			go func() {
				wt := la.Lock()
				la.Unlock(wt)
				close(adone)
			}()
			select {
			case <-adone:
				t.Fatal("lock A's writer completed with A's fast-path reader inside")
			case <-time.After(20 * time.Millisecond):
			}
			la.RUnlock(rt)
			select {
			case <-adone:
			case <-time.After(5 * time.Second):
				t.Fatal("lock A's writer did not observe the reader's release")
			}
		})
	}
}

// TestSlimTryLock: the non-blocking probe's contract — busy while a
// writer holds, busy (with the bias restored, not drained) while a
// fast reader is published, granted on a quiet lock.
func TestSlimTryLock(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func() TryRWLock
	}{
		{"SlimBravo", func() TryRWLock { return NewSlimBravo() }},
		{"SlimEpoch", func() TryRWLock { return NewSlimEpoch() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l := tc.mk()
			wt := l.Lock()
			if _, ok := l.TryLock(); ok {
				t.Fatal("TryLock succeeded while a writer holds")
			}
			if _, ok := l.TryRLock(); ok {
				t.Fatal("TryRLock succeeded while a writer holds")
			}
			l.Unlock(wt)

			rt := l.RLock() // fast path: lock is fresh/open
			if _, ok := l.TryLock(); ok {
				t.Fatal("TryLock succeeded with a fast-path reader inside")
			}
			l.RUnlock(rt)

			wt, ok := l.TryLock()
			if !ok {
				t.Fatal("TryLock failed on a quiet lock")
			}
			l.Unlock(wt)
			rt, ok = l.TryRLock()
			if !ok {
				t.Fatal("TryRLock failed on a quiet lock")
			}
			l.RUnlock(rt)
		})
	}
}

// TestSlimBravoTryLockRestoresBias: an aborted Try-revocation must
// leave the fast path armed (Bravo.TryLock's contract, kept by the
// slim build).
func TestSlimBravoTryLockRestoresBias(t *testing.T) {
	l := NewSlimBravo()
	rt := l.RLock()
	if _, ok := l.TryLock(); ok {
		t.Fatal("TryLock succeeded with a published reader")
	}
	if !l.ReadBiased() {
		t.Fatal("aborted TryLock left the bias revoked")
	}
	l.RUnlock(rt)
	rt = l.RLock()
	if rt.side != slimFastSide {
		t.Fatal("reader lost the fast path after an aborted TryLock")
	}
	l.RUnlock(rt)
}

// TestSlimCtx: cancellation aborts waits before the commitment point
// and never after — a granted Ctx acquisition on a cancelled context
// is impossible for these locks only before the CAS.
func TestSlimCtx(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func() CtxRWLock
	}{
		{"SlimBravo", func() CtxRWLock { return NewSlimBravo() }},
		{"SlimEpoch", func() CtxRWLock { return NewSlimEpoch() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l := tc.mk()
			wt := l.Lock()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
			defer cancel()
			if _, err := l.LockCtx(ctx); err == nil {
				t.Fatal("LockCtx returned nil while another writer holds forever")
			}
			ctx2, cancel2 := context.WithTimeout(context.Background(), 10*time.Millisecond)
			defer cancel2()
			if _, err := l.RLockCtx(ctx2); err == nil {
				t.Fatal("RLockCtx returned nil while a writer holds forever")
			}
			l.Unlock(wt)
			// Quiet lock: both succeed with a live context.
			wt2, err := l.LockCtx(context.Background())
			if err != nil {
				t.Fatalf("LockCtx on a quiet lock: %v", err)
			}
			l.Unlock(wt2)
			rt, err := l.RLockCtx(context.Background())
			if err != nil {
				t.Fatalf("RLockCtx on a quiet lock: %v", err)
			}
			l.RUnlock(rt)
		})
	}
}

// TestSlimBravoRearm: after a revocation, slow passages spend the
// countdown and the bias re-arms, returning readers to the fast path
// — the full Bravo's throttle behavior at slim size.
func TestSlimBravoRearm(t *testing.T) {
	l := NewSlimBravo()
	wt := l.Lock() // revokes
	l.Unlock(wt)
	if l.ReadBiased() {
		t.Fatal("bias armed immediately after revocation")
	}
	// Budget is 1 + Slots()/8 (+0 busy); spend it with slow passages.
	tbl := slimTable(l.ref)
	for i := 0; i < tbl.Slots()/8+2; i++ {
		rt := l.RLock()
		l.RUnlock(rt)
	}
	if !l.ReadBiased() {
		t.Fatal("bias did not re-arm after the countdown was spent")
	}
	rt := l.RLock()
	if rt.side != slimFastSide {
		t.Fatal("reader not on the fast path after re-arm")
	}
	l.RUnlock(rt)
}

// TestSlimEpochReopens: every Unlock advances the epoch back to even,
// so the reader after any write is immediately on the fast path (the
// no-revocation-dead-zone property Epoch has over Bravo).
func TestSlimEpochReopens(t *testing.T) {
	l := NewSlimEpoch()
	for i := 0; i < 3; i++ {
		wt := l.Lock()
		l.Unlock(wt)
		rt := l.RLock()
		if rt.side != slimFastSide {
			t.Fatalf("write %d: next reader not on the fast path", i)
		}
		l.RUnlock(rt)
	}
}
