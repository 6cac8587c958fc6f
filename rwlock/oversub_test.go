package rwlock

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// Oversubscription stress: far more goroutines than GOMAXPROCS, the
// regime SpinThenPark exists for and the regime where a retrofitted
// parking layer classically loses wakeups (a waiter parks just as the
// signal lands).  Every test here matches -run Oversub, which CI runs
// under the race detector with GOMAXPROCS=2 — so any reader/writer CS
// overlap is ALSO a detected data race, and any lost wakeup is a test
// timeout.

// underSmallGOMAXPROCS pins GOMAXPROCS low for the test body so that
// 64 workers genuinely oversubscribe even on big machines.
func underSmallGOMAXPROCS(t *testing.T, p int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(p)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// oversubHammer is the rwlock_test hammer at oversubscription scale:
// writers+readers goroutines (well above GOMAXPROCS) pushing a plain
// counter through transiently odd states.
func oversubHammer(t *testing.T, l RWLock, writers, readers, iters int) {
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

// TestOversubscribedStressAllLocks: 64 workers on 2 Ps, every lock in
// the package, both strategies.
func TestOversubscribedStressAllLocks(t *testing.T) {
	underSmallGOMAXPROCS(t, 2)
	iters := 300
	if testing.Short() {
		iters = 100
	}
	for _, strat := range strategies() {
		opt := WithWaitStrategy(strat)
		for name, l := range locks(opt) {
			l := l
			t.Run(name+"/"+strat.String(), func(t *testing.T) {
				oversubHammer(t, l, 8, 56, iters)
			})
		}
		for name, l := range singleWriterLocks(opt) {
			l := l
			t.Run(name+"/"+strat.String(), func(t *testing.T) {
				oversubHammer(t, l, 1, 63, iters)
			})
		}
	}
}

// TestOversubTokenTransfer: tokens acquired on one goroutine and
// released on another, under oversubscription.  The releasing
// goroutine's Unlock is the wake site for parked waiters, so this
// pins that wakeups survive the acquirer/releaser split.
func TestOversubTokenTransfer(t *testing.T) {
	underSmallGOMAXPROCS(t, 2)
	const handoffs = 200
	for _, strat := range strategies() {
		strat := strat
		t.Run(strat.String(), func(t *testing.T) {
			l := NewMWSF(WithWaitStrategy(strat))
			// Background readers so the transferred write tokens always
			// have waiters to wake.  They yield every pass: the point is
			// waiters on the gate, not CPU pressure (the AllLocks stress
			// covers that), and unyielding readers starve the handoff
			// goroutines on 2 Ps for seconds per strategy.
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
						tok := l.RLock()
						l.RUnlock(tok)
						runtime.Gosched()
					}
				}()
			}
			wtoks := make(chan WToken)
			rtoks := make(chan RToken)
			go func() {
				for i := 0; i < handoffs; i++ {
					wtoks <- l.Lock()
					rtoks <- l.RLock()
				}
			}()
			for i := 0; i < handoffs; i++ {
				l.Unlock(<-wtoks)  // write token released off-goroutine
				l.RUnlock(<-rtoks) // read token released off-goroutine
			}
			close(stop)
			readers.Wait()
		})
	}
}

// TestOversubGuard: the closure API end-to-end under oversubscription
// and parking — Guard moves tokens through its own frames, and the
// Locker adapter moves them across goroutines via its internal mutex.
func TestOversubGuard(t *testing.T) {
	underSmallGOMAXPROCS(t, 2)
	for _, strat := range strategies() {
		strat := strat
		t.Run(strat.String(), func(t *testing.T) {
			g := NewGuard(NewMWWP(WithWaitStrategy(strat)), map[string]int{})
			const workers, iters = 48, 100
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					for i := 0; i < iters; i++ {
						if id%8 == 0 {
							g.Write(func(m *map[string]int) { (*m)["n"]++ })
						} else {
							g.Read(func(m map[string]int) { _ = m["n"] })
						}
					}
				}(w)
			}
			wg.Wait()
			if got := g.Load()["n"]; got != (workers/8)*iters {
				t.Fatalf("guarded counter = %d, want %d", got, (workers/8)*iters)
			}
		})
	}
}

// BenchmarkOversubReadHold: many more readers than Ps, each holding
// its read lock across a yield, so more readers of one lock are inside
// at once than the reader table seats for it on one P — the rest take
// the lock's slow path.  writes_pct adds that share of write passages
// (each a bias revocation that drains the held fast-path readers).
// Besides ns/op it reports fast_pct, the share of read passages that
// took the arena fast path.  Run it with -cpu 2 for the 2-P layout.
func BenchmarkOversubReadHold(b *testing.B) {
	for _, c := range []struct {
		name string
		mk   func() RWLock
	}{
		{"SlimBravo", func() RWLock { return NewSlimBravo() }},
		{"Bravo(MWSF)/shared", func() RWLock { return NewBravoMWSF(WithSharedReaderTable(DefaultReaderTable())) }},
	} {
		for _, perP := range []int{4, 16} {
			for _, writesPct := range []int{0, 1} {
				b.Run(fmt.Sprintf("%s/g=%dxP/writes_pct=%d", c.name, perP, writesPct), func(b *testing.B) {
					l := c.mk()
					var reads, fast atomic.Int64
					b.SetParallelism(perP)
					b.RunParallel(func(pb *testing.PB) {
						var n, nr, nf int
						for pb.Next() {
							if n++; writesPct > 0 && n%(100/writesPct) == 0 {
								l.Unlock(l.Lock())
								continue
							}
							tok := l.RLock()
							nr++
							if tok.side == bravoFastSide || tok.side == slimFastSide {
								nf++
							}
							runtime.Gosched()
							l.RUnlock(tok)
						}
						reads.Add(int64(nr))
						fast.Add(int64(nf))
					})
					if r := reads.Load(); r > 0 {
						b.ReportMetric(100*float64(fast.Load())/float64(r), "fast_pct")
					}
				})
			}
		}
	}
}
