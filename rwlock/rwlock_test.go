package rwlock

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// locks returns one instance of every lock in the package, keyed by
// name, built with opts (the baselines and RWMutexLock take no
// options).  The multi-writer locks appear twice:
// with the default unbounded MCS writer arbitration and, under a
// "/bounded" suffix, with the Anderson-array arbitration capped at 4
// concurrent writers — so every suite that iterates locks() covers
// both sides of the arbitration layer.
func locks(opts ...Option) map[string]RWLock {
	bounded := func(extra Option) []Option {
		return append(append([]Option{}, opts...), extra)
	}
	b := WithBoundedWriters(4)
	return map[string]RWLock{
		"MWSF":                NewMWSF(opts...),
		"MWRP":                NewMWRP(opts...),
		"MWWP":                NewMWWP(opts...),
		"MWSF/bounded":        NewMWSF(bounded(b)...),
		"MWRP/bounded":        NewMWRP(bounded(b)...),
		"MWWP/bounded":        NewMWWP(bounded(b)...),
		"CentralizedRW":       NewCentralizedRW(),
		"PhaseFairRW":         NewPhaseFairRW(),
		"TaskFairRW":          NewTaskFairRW(),
		"RWMutexLock":         NewRWMutexLock(),
		"Bravo(MWSF)":         NewBravoMWSF(opts...),
		"Bravo(MWRP)":         NewBravoMWRP(opts...),
		"Bravo(MWWP)":         NewBravoMWWP(opts...),
		"Bravo(MWSF)/bounded": NewBravoMWSF(bounded(b)...),
		"Epoch(MWSF)":         NewEpochMWSF(opts...),
		"Epoch(MWRP)":         NewEpochMWRP(opts...),
		"Epoch(MWWP)":         NewEpochMWWP(opts...),
		"Epoch(MWSF)/bounded": NewEpochMWSF(bounded(b)...),
		"Epoch(MWSF)/combine": NewEpochMWSF(bounded(WithCombiningWriters())...),
	}
}

// singleWriterLocks returns the single-writer cores.
func singleWriterLocks(opts ...Option) map[string]RWLock {
	return map[string]RWLock{
		"SWWP": NewSWWP(opts...),
		"SWRP": NewSWRP(opts...),
	}
}

// hammer drives writers and readers through the lock.  Inside the CS,
// writers mutate a plain (non-atomic) integer through a temporarily
// odd state; readers verify they only ever observe even values.  Under
// `go test -race` this additionally lets the race detector prove
// exclusion: any reader/writer CS overlap is a detected data race.
func hammer(t *testing.T, l RWLock, writers, readers, iters int) {
	t.Helper()
	var data int64 // deliberately plain, guarded only by l
	var wg sync.WaitGroup
	fail := make(chan string, 1)

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				tok := l.Lock()
				data++ // odd: readers must never see this
				data++
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
				if v := data; v%2 != 0 {
					select {
					case fail <- "reader observed writer mid-update":
					default:
					}
				}
				l.RUnlock(tok)
			}
		}()
	}
	wg.Wait()
	select {
	case msg := <-fail:
		t.Fatal(msg)
	default:
	}
	if want := int64(2 * writers * iters); data != want {
		t.Fatalf("data = %d, want %d (lost writer updates)", data, want)
	}
}

func TestMutualExclusionAllLocks(t *testing.T) {
	const iters = 2000
	for _, pass := range waitPasses() {
		opt := pass.opt()
		for name, l := range locks(opt) {
			l := l
			t.Run(name+"/"+string(pass), func(t *testing.T) {
				t.Parallel()
				hammer(t, l, 4, 4, iters)
			})
		}
		for name, l := range singleWriterLocks(opt) {
			l := l
			t.Run(name+"/"+string(pass), func(t *testing.T) {
				t.Parallel()
				hammer(t, l, 1, 6, iters)
			})
		}
	}
}

func TestReadersRunConcurrently(t *testing.T) {
	// Concurrent entering (P5): with no writer around, n readers must
	// all be able to sit in the CS at the same time without anyone
	// releasing.  A WaitGroup-style barrier inside the CS deadlocks
	// unless all readers are admitted simultaneously.
	for name, l := range map[string]RWLock{
		"SWWP": NewSWWP(), "SWRP": NewSWRP(),
		"MWSF": NewMWSF(), "MWRP": NewMWRP(), "MWWP": NewMWWP(),
		"MWSF/bounded": NewMWSF(WithBoundedWriters(2)),
		"PhaseFairRW":  NewPhaseFairRW(),
		"Bravo(MWSF)":  NewBravoMWSF(), "Bravo(MWWP)": NewBravoMWWP(),
	} {
		l := l
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			const n = 8
			var inside atomic.Int32
			release := make(chan struct{})
			var wg sync.WaitGroup
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					tok := l.RLock()
					inside.Add(1)
					<-release // hold the CS until everyone is in
					l.RUnlock(tok)
				}()
			}
			// Wait until all n readers co-occupy the CS.
			for inside.Load() != n {
				// spin; a blocked reader would hang the test (caught
				// by the test timeout)
			}
			close(release)
			wg.Wait()
		})
	}
}

func TestWriterExcludesNewReaders(t *testing.T) {
	for name, l := range locks() {
		l := l
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			wt := l.Lock()
			entered := make(chan struct{})
			go func() {
				rt := l.RLock()
				close(entered)
				l.RUnlock(rt)
			}()
			select {
			case <-entered:
				t.Fatal("reader entered while writer held the lock")
			default:
			}
			l.Unlock(wt)
			<-entered // must now be admitted
		})
	}
}

// TestSingleWriterMisusePanics pins the single-writer contract at
// every write entry point: a second concurrent Lock or LockCtx (with a
// live context), and an Unlock with no writer inside, each panic.
func TestSingleWriterMisusePanics(t *testing.T) {
	for name, mk := range map[string]func() CtxRWLock{
		"SWWP": func() CtxRWLock { return NewSWWP() },
		"SWRP": func() CtxRWLock { return NewSWRP() },
	} {
		for entry, second := range map[string]func(CtxRWLock){
			"Lock":    func(l CtxRWLock) { l.Lock() },
			"LockCtx": func(l CtxRWLock) { _, _ = l.LockCtx(context.Background()) },
		} {
			t.Run(name+"/second "+entry, func(t *testing.T) {
				l := mk()
				tok := l.Lock()
				done := make(chan any, 1)
				go func() {
					defer func() { done <- recover() }()
					second(l)
				}()
				if p := <-done; p == nil {
					t.Fatalf("no panic on a second concurrent %s of %s", entry, name)
				}
				l.Unlock(tok) // the rejected attempt left the holder's flag alone
			})
		}
		t.Run(name+"/Unlock without writer", func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("no panic on Unlock of an unlocked %s", name)
				}
			}()
			mk().Unlock(WToken{})
		})
	}
}

func TestWriteLockIsExclusiveAmongWriters(t *testing.T) {
	for name, l := range locks() {
		l := l
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			var inside atomic.Int32
			var maxSeen atomic.Int32
			var wg sync.WaitGroup
			for w := 0; w < 8; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 500; i++ {
						tok := l.Lock()
						if v := inside.Add(1); v > maxSeen.Load() {
							maxSeen.Store(v)
						}
						inside.Add(-1)
						l.Unlock(tok)
					}
				}()
			}
			wg.Wait()
			if maxSeen.Load() > 1 {
				t.Fatalf("saw %d writers in the CS simultaneously", maxSeen.Load())
			}
		})
	}
}

func TestAndersonLockFIFO(t *testing.T) {
	// Tickets fix the service order: with one goroutine acquiring at a
	// time there is nothing to show, so launch n that record their
	// entry order relative to their ticket (slot) order per lap.
	l := NewAnderson(4)
	var wg sync.WaitGroup
	var inside atomic.Int32
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 1000; k++ {
				s := l.Acquire()
				if v := inside.Add(1); v != 1 {
					t.Errorf("anderson admitted %d holders", v)
				}
				inside.Add(-1)
				l.Release(s)
			}
		}()
	}
	wg.Wait()
}

func TestAndersonCapacityBlocksExtraWriters(t *testing.T) {
	l := NewAnderson(1)
	s := l.Acquire()
	acquired := make(chan uint32)
	go func() { acquired <- l.Acquire() }()
	select {
	case <-acquired:
		t.Fatal("second acquire succeeded while held at capacity 1")
	default:
	}
	l.Release(s)
	s2 := <-acquired
	l.Release(s2)
}

func TestAndersonTryAcquire(t *testing.T) {
	// TryAcquire is the non-blocking probe of both Anderson layers: the
	// admission gate (the channel semaphore OUTSIDE the O(1)-RMR
	// protocol) and the lock itself.
	l := NewAnderson(2)

	s, ok := l.TryAcquire()
	if !ok {
		t.Fatal("TryAcquire failed on a free lock")
	}
	// Held: a second TryAcquire must fail without blocking (the lock is
	// owned, though the admission gate still has room).
	if _, ok := l.TryAcquire(); ok {
		t.Fatal("TryAcquire succeeded while the lock was held")
	}
	// Fill the admission gate: one holder plus one queued acquirer is
	// capacity 2, so the gate itself now rejects.
	queued := make(chan uint32)
	go func() { queued <- l.Acquire() }()
	for len(l.sem) != cap(l.sem) { // wait for the acquirer to pass the gate
		runtime.Gosched()
	}
	if _, ok := l.TryAcquire(); ok {
		t.Fatal("TryAcquire succeeded with the admission gate full")
	}
	l.Release(s)
	s2 := <-queued
	// One admission slot is free again but the lock is held by the
	// queued acquirer: still a clean non-blocking failure.
	if _, ok := l.TryAcquire(); ok {
		t.Fatal("TryAcquire succeeded while the lock was held by a successor")
	}
	l.Release(s2)
	// Free again: TryAcquire must succeed, and FCFS Acquire after it
	// must still work (the probe uses a real ticket).
	s3, ok := l.TryAcquire()
	if !ok {
		t.Fatal("TryAcquire failed after full release")
	}
	l.Release(s3)
	s4 := l.Acquire()
	l.Release(s4)
}

func TestTokensAreTransferable(t *testing.T) {
	// Tokens are plain values: a lock acquired on one goroutine may be
	// released on another (unlike sync.RWMutex.Lock documented rules,
	// this is explicitly supported).
	l := NewMWSF()
	tokCh := make(chan WToken)
	go func() { tokCh <- l.Lock() }()
	tok := <-tokCh
	l.Unlock(tok) // released on a different goroutine
	rt := l.RLock()
	l.RUnlock(rt)
}

func TestManyReadersOneWriterProgress(t *testing.T) {
	// Starvation-freedom smoke test for the no-priority lock: a writer
	// must complete a fixed number of attempts while 8 readers hammer.
	l := NewMWSF()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				tok := l.RLock()
				l.RUnlock(tok)
			}
		}()
	}
	for i := 0; i < 200; i++ {
		tok := l.Lock()
		l.Unlock(tok)
	}
	close(stop)
	wg.Wait()
}
