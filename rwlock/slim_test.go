package rwlock

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

// The Slim variants' whole reason to exist is their size; everything
// else about them is the BRAVO / epoch-parity protocols restated over
// the package's one reader arena.  These tests pin the size, the
// mutual exclusion (under -race, which sees through the packed state
// word), the arena isolation between lock instances, and the Try/Ctx
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

// slimLock is what the Slim tests drive: both lock surfaces plus the
// state word, id and semaphore underneath.
type slimLock interface {
	CtxRWLock
	TryRWLock
	word() *slimWord
}

func (w *slimWord) word() *slimWord { return w }

// slimBuild is one Slim lock and the mask of its sleeper count.
type slimBuild struct {
	name     string
	mk       func() slimLock
	sleepers int64
}

// sleeping reads how many goroutines are counted in as sleepers on l.
func (b slimBuild) sleeping(l slimLock) int64 {
	return l.word().state.Load() & b.sleepers / (b.sleepers & -b.sleepers)
}

func slimBuilds() []slimBuild {
	return []slimBuild{
		{"SlimBravo", func() slimLock { return NewSlimBravo() }, slimSleepers},
		{"SlimEpoch", func() slimLock { return NewSlimEpoch() }, slimEpochSleepers},
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

// TestSharedTableExclusion runs the same hammer over two instances of
// each Slim build CONCURRENTLY on the package arena: exclusion must
// hold per lock, with all their readers interleaved in the same slots.
func TestSharedTableExclusion(t *testing.T) {
	locks := []RWLock{
		NewSlimBravo(), NewSlimBravo(),
		NewSlimEpoch(), NewSlimEpoch(),
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

// TestSharedTableGOMAXPROCSChange: a reader table's regions are fixed
// at construction, so readers running at a different GOMAXPROCS claim
// with P ids past the region count (1→4) or use only some regions
// (8→2).  Exclusion must hold either way — every claim still lands in
// a slot the revocation scan reads.  Bravo(MWSF) builds its private
// table at the first count, and that table runs the same claim and
// scan code as the Slim arena.  The SlimBravo row runs on the package
// arena, whose regions were fixed when the first Slim lock of the
// process was built, so it sees P ids past the region count whenever
// the run count exceeds that build's.  Not parallel: it sets
// GOMAXPROCS.
func TestSharedTableGOMAXPROCSChange(t *testing.T) {
	for _, tc := range []struct{ built, run int }{{1, 4}, {8, 2}} {
		t.Run(fmt.Sprintf("%d->%d", tc.built, tc.run), func(t *testing.T) {
			prev := runtime.GOMAXPROCS(tc.built)
			defer runtime.GOMAXPROCS(prev)
			locks := map[string]RWLock{
				"SlimBravo":   NewSlimBravo(),
				"Bravo(MWSF)": NewBravoMWSF(),
			}
			runtime.GOMAXPROCS(tc.run)
			for name, l := range locks {
				t.Run(name, func(t *testing.T) { exerciseRW(t, l) })
			}
		})
	}
}

// TestSharedTableWriterIsolation: a fast-path reader of Slim lock A
// must not delay a revoking writer of Slim lock B, which shares the
// package arena — B's drain skips A's slots.  (The reverse — A's own
// writer waiting for A's reader — is the ordinary drain, also
// checked.)
func TestSharedTableWriterIsolation(t *testing.T) {
	for _, tc := range slimBuilds() {
		t.Run(tc.name, func(t *testing.T) {
			la, lb := tc.mk(), tc.mk()
			rt := la.RLock() // fast claim in the arena (bias/epoch open)
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
	for _, tc := range slimBuilds() {
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
// and never after.  A cancelled LockCtx or RLockCtx has slept on the
// lock's semaphore (its count-in is visible in the state word) before
// its deadline fires, returns ctx.Err(), and leaves no sleeper counted
// once the holder unlocks.
func TestSlimCtx(t *testing.T) {
	for _, b := range slimBuilds() {
		t.Run(b.name, func(t *testing.T) {
			l := b.mk()
			wt := l.Lock()
			for _, op := range []struct {
				name string
				call func(context.Context) error
			}{
				{"LockCtx", func(ctx context.Context) error {
					tok, err := l.LockCtx(ctx)
					if err == nil {
						l.Unlock(tok)
					}
					return err
				}},
				{"RLockCtx", func(ctx context.Context) error {
					tok, err := l.RLockCtx(ctx)
					if err == nil {
						l.RUnlock(tok)
					}
					return err
				}},
			} {
				ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
				res := make(chan error, 1)
				go func() { res <- op.call(ctx) }()
				for b.sleeping(l) < 1 {
					select {
					case err := <-res:
						t.Fatalf("%s returned %v before sleeping", op.name, err)
					default:
						time.Sleep(100 * time.Microsecond)
					}
				}
				if err := recvWithin(t, res, op.name+" to return"); !errors.Is(err, context.DeadlineExceeded) {
					t.Fatalf("%s = %v while a writer holds, want %v", op.name, err, context.DeadlineExceeded)
				}
				cancel()
			}
			l.Unlock(wt)
			if n := b.sleeping(l); n != 0 {
				t.Fatalf("%d sleepers still counted after the holder unlocked", n)
			}
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

// TestSlimWaitersSleep: a reader and a writer that find the write
// mode held count themselves in and sleep, and the holder's Unlock
// posts both.
func TestSlimWaitersSleep(t *testing.T) {
	for _, b := range slimBuilds() {
		t.Run(b.name, func(t *testing.T) {
			l := b.mk()
			wt := l.Lock()
			done := make(chan struct{}, 2)
			go func() { l.RUnlock(l.RLock()); done <- struct{}{} }()
			go func() { l.Unlock(l.Lock()); done <- struct{}{} }()
			waitFor(t, "a reader and a writer to sleep", func() bool { return b.sleeping(l) == 2 })
			l.Unlock(wt)
			recvWithin(t, done, "the first sleeper to finish")
			recvWithin(t, done, "the second sleeper to finish")
			if n := b.sleeping(l); n != 0 {
				t.Fatalf("%d sleepers still counted on a quiet lock", n)
			}
		})
	}
}

// TestSlimTryReleasePosts: the release inside a failed TryLock
// (SlimBravo's bias restore, SlimEpoch's reopen) drops the bit that
// sleepers may have counted in under, so it must post them.  A
// fast-path reader forces the failure; the sleeper is counted in by
// hand, so the test needs no timing.
func TestSlimTryReleasePosts(t *testing.T) {
	for _, b := range slimBuilds() {
		t.Run(b.name, func(t *testing.T) {
			l := b.mk()
			rt := l.RLock()
			if rt.side != slimFastSide {
				t.Fatal("reader of a fresh lock not on the fast path")
			}
			w := l.word()
			w.state.Add(b.sleepers & -b.sleepers)
			if _, ok := l.TryLock(); ok {
				t.Fatal("TryLock succeeded with a fast-path reader inside")
			}
			if n := b.sleeping(l); n != 0 {
				t.Fatalf("failed TryLock left %d sleepers counted", n)
			}
			if v := atomic.LoadUint32(&w.sema); v != 1 {
				t.Fatalf("failed TryLock posted %d, want 1", v)
			}
			semacquire(&w.sema)
			l.RUnlock(rt)
		})
	}
}

// TestSlimTryLockRace mixes TryLock and TryRLock with blocking and
// cancellable readers and writers on one Slim lock at 2 Ps.  Readers
// hold their fast-path claims across a yield, so TryLock often takes
// the bit and then gives it back (SlimBravo's abort, SlimEpoch's
// reopen) while others are counting in; a release that failed to post
// them would leave a sleeper behind and the run would not finish.
func TestSlimTryLockRace(t *testing.T) {
	underSmallGOMAXPROCS(t, 2)
	iters := 2000
	if testing.Short() {
		iters = 500
	}
	for _, b := range slimBuilds() {
		t.Run(b.name, func(t *testing.T) {
			l := b.mk()
			var data int64 // guarded by l
			var granted atomic.Int64
			write := func() {
				data++
				data++
			}
			read := func() {
				if data%2 != 0 {
					t.Error("reader observed a writer mid-update")
				}
			}
			tryWrite := func() {
				if tok, ok := l.TryLock(); ok {
					write()
					granted.Add(1)
					l.Unlock(tok)
				}
			}
			workers := []func(i int){
				func(i int) { // blocking writer, sometimes yielding inside
					tok := l.Lock()
					write()
					if i%8 == 0 {
						runtime.Gosched()
					}
					l.Unlock(tok)
				},
				func(i int) { // blocking reader, holding its claim across a yield
					tok := l.RLock()
					read()
					if i%2 == 0 {
						runtime.Gosched()
					}
					l.RUnlock(tok)
				},
				func(i int) { // blocking reader
					tok := l.RLock()
					read()
					l.RUnlock(tok)
				},
				func(int) { tryWrite() },
				func(int) { // TryLock and TryRLock
					tryWrite()
					if tok, ok := l.TryRLock(); ok {
						read()
						l.RUnlock(tok)
					}
				},
				func(i int) { // cancellable writer and reader, short deadlines
					ctx, cancel := context.WithTimeout(context.Background(), time.Duration(i%50)*time.Microsecond)
					if tok, err := l.LockCtx(ctx); err == nil {
						write()
						granted.Add(1)
						l.Unlock(tok)
					}
					if tok, err := l.RLockCtx(ctx); err == nil {
						read()
						l.RUnlock(tok)
					}
					cancel()
				},
			}
			done := make(chan struct{}, len(workers))
			for _, work := range workers {
				go func() {
					defer func() { done <- struct{}{} }()
					for i := 0; i < iters; i++ {
						work(i)
					}
				}()
			}
			for range workers {
				select {
				case <-done:
				case <-time.After(60 * time.Second):
					t.Fatalf("a worker never finished (state %#x): a sleeper was not posted", l.word().state.Load())
				}
			}
			if want := 2 * (int64(iters) + granted.Load()); data != want {
				t.Fatalf("data = %d, want %d (lost writer updates)", data, want)
			}
			if n := b.sleeping(l); n != 0 {
				t.Fatalf("%d sleepers still counted on a quiet lock", n)
			}

			// Abort storm, on a fresh lock (SlimBravo's bias armed): with
			// every arena slot its readers can claim held, each TryLock
			// takes the bit and gives it back, and readers all take the
			// slow path.  The give-backs are the only releases, so a
			// reader that counts in under one is posted by it or by
			// nothing.
			ls := b.mk()
			id := int64(ls.word().id)
			var pins []int64
			for r := uint64(0); r <= slimArena.rmask; r++ {
				for {
					idx, ok := slimArena.claimIn(id, r)
					if !ok {
						break
					}
					pins = append(pins, idx)
				}
			}
			slowRead := func() { ls.RUnlock(ls.RLock()) }
			giveBack := func() {
				if tok, ok := ls.TryLock(); ok {
					t.Error("TryLock succeeded past a live fast-path claim")
					ls.Unlock(tok)
				}
			}
			storm := []func(){slowRead, slowRead, slowRead, giveBack, giveBack}
			for _, op := range storm {
				go func() {
					defer func() { done <- struct{}{} }()
					for i := 0; i < 10*iters; i++ {
						op()
					}
				}()
			}
			for range storm {
				select {
				case <-done:
				case <-time.After(60 * time.Second):
					t.Fatalf("a storm worker never finished (state %#x): a sleeper was not posted", ls.word().state.Load())
				}
			}
			for _, idx := range pins {
				slimArena.release(idx)
			}
			if n := b.sleeping(ls); n != 0 {
				t.Fatalf("%d sleepers still counted on a quiet lock", n)
			}
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
	// Budget is 1 + slots/8 (+0 busy); spend it with slow passages.
	for i := 0; i < len(slimArena.slots)/8+2; i++ {
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
