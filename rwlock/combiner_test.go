package rwlock

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// Tests for the flat-combining arbitration layer: the exec path that
// the conformance suite (arbiter_conformance_test.go) deliberately
// leaves to this file — batching, exec-vs-token exclusion, record
// recycling, the stats snapshot — plus the combining locks end to end
// (Write on MWSF/MWRP/MWWP/Bravo, Guard.Write, bare and instrumented).
// The package runs under -race in CI, so every plain-variable CS here
// doubles as an exclusion check.

// stackLen walks the publication list (test-only; publishers may still
// be pushing, but next pointers of pushed records are stable).
func stackLen(c *combiner) int {
	n := 0
	for r := c.head.Load(); r != nil; r = r.next {
		n++
	}
	return n
}

// TestCombinerExecRunsEveryCS: every submitted critical section runs
// exactly once, mutually excluded, under heavy concurrent exec.
func TestCombinerExecRunsEveryCS(t *testing.T) {
	for _, pass := range waitPasses() {
		pass := pass
		t.Run(string(pass), func(t *testing.T) {
			t.Parallel()
			c := newCombiner(newMCS(pass.st()), pass.st())
			const goroutines, laps = 8, 500
			var data int64 // plain: -race checks the batches exclude each other
			var wg sync.WaitGroup
			for i := 0; i < goroutines; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for k := 0; k < laps; k++ {
						c.exec(func() { data++ })
					}
				}()
			}
			wg.Wait()
			if data != goroutines*laps {
				t.Fatalf("data = %d, want %d (a CS was lost or doubled)", data, goroutines*laps)
			}
			s := c.snapshot()
			if s.Ops != goroutines*laps {
				t.Fatalf("stats count %d ops, want %d", s.Ops, goroutines*laps)
			}
			if s.Batches < 1 || s.Batches > s.Ops {
				t.Fatalf("implausible batch count %d for %d ops", s.Batches, s.Ops)
			}
		})
	}
}

// TestCombinerBatchFormsWhileInnerHeld: the deterministic batching
// choreography — hold the inner mutex through the token path, let N
// publishers pile up (the elect among them is blocked acquiring the
// inner mutex, everyone else waits on their record), then release:
// the elect must drain all N in ONE batch.
func TestCombinerBatchFormsWhileInnerHeld(t *testing.T) {
	for _, pass := range waitPasses() {
		pass := pass
		t.Run(string(pass), func(t *testing.T) {
			t.Parallel()
			c := newCombiner(newMCS(pass.st()), pass.st())
			const publishers = 8
			slot := c.acquire() // token path: batches must wait for us
			var data int64
			var wg sync.WaitGroup
			for i := 0; i < publishers; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					c.exec(func() { data++ })
				}()
			}
			// Wait until all records are published (the list only
			// shrinks under the inner mutex, which we hold).
			for stackLen(c) < publishers {
				runtime.Gosched()
			}
			c.release(slot)
			wg.Wait()
			if data != publishers {
				t.Fatalf("data = %d, want %d", data, publishers)
			}
			s := c.snapshot()
			if s.Batches != 1 || s.Ops != publishers || s.MaxBatch != publishers {
				t.Fatalf("batches=%d ops=%d max=%d, want one batch of %d",
					s.Batches, s.Ops, s.MaxBatch, publishers)
			}
			if s.Sizes[publishers-1] != 1 {
				t.Fatalf("size histogram %v lacks the batch of %d", s.Sizes[:publishers+1], publishers)
			}
		})
	}
}

// TestCombinerExecVsTokenPath: batches and token-path holders exclude
// each other — the property that makes Lock/Unlock safe on a
// combining lock.
func TestCombinerExecVsTokenPath(t *testing.T) {
	for _, pass := range waitPasses() {
		pass := pass
		t.Run(string(pass), func(t *testing.T) {
			t.Parallel()
			c := newCombiner(newMCS(pass.st()), pass.st())
			const goroutines, laps = 6, 400
			var inside atomic.Int32
			var data int64
			var wg sync.WaitGroup
			for i := 0; i < goroutines; i++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					for k := 0; k < laps; k++ {
						if id%2 == 0 {
							c.exec(func() {
								if v := inside.Add(1); v != 1 {
									t.Errorf("%d holders (exec)", v)
								}
								data++
								inside.Add(-1)
							})
						} else {
							s := c.acquire()
							if v := inside.Add(1); v != 1 {
								t.Errorf("%d holders (token)", v)
							}
							data++
							inside.Add(-1)
							c.release(s)
						}
					}
				}(i)
			}
			wg.Wait()
			if data != goroutines*laps {
				t.Fatalf("data = %d, want %d", data, goroutines*laps)
			}
		})
	}
}

// TestCombinerRecyclesRecords: steady-state exec must come back from
// the record pool, not the heap.  Same caveat as the MCS test: GC may
// clear a sync.Pool mid-run, so assert "well under one allocation per
// op", not zero.
func TestCombinerRecyclesRecords(t *testing.T) {
	c := newCombiner(newMCS(nil), nil)
	c.exec(func() {}) // warm the pool
	if n := testing.AllocsPerRun(500, func() {
		c.exec(func() {})
	}); n > 0.5 {
		t.Fatalf("uncontended combined passage allocates %.2f objects (records not recycled)", n)
	}
}

// TestCombiningWriteDoesNotAllocate: the full combining write path —
// Write on the lock, not just the raw exec — must stay allocation-free
// in steady state: the record comes from the pool and the per-lock
// passage hook is pre-bound at construction, so no per-op closure is
// created.  (cs here captures nothing, as a steady-state caller's
// hoisted closure wouldn't.)
func TestCombiningWriteDoesNotAllocate(t *testing.T) {
	for name, l := range map[string]FuncWriter{
		"MWSF":         NewMWSF(WithCombiningWriters()),
		"MWRP":         NewMWRP(WithCombiningWriters()),
		"MWWP":         NewMWWP(WithCombiningWriters()),
		"MWSF/plain":   NewMWSF(),
		"Bravo(MWSF)":  NewBravoMWSF(),
		"MWWP/plain":   NewMWWP(),
		"Bravo/c":      NewBravoMWSF(WithCombiningWriters()),
		"SWWP (plain)": NewSWWP(),
	} {
		cs := func() {}
		l.Write(cs) // warm the pool
		limit := 0.5
		if name == "Bravo/c" {
			// The one tolerated allocation: Bravo over a COMBINING
			// inner lock wraps cs to ship the bias revocation into the
			// combined section.  Every non-combining path must be
			// allocation-free.
			limit = 1.5
		}
		if n := testing.AllocsPerRun(500, func() { l.Write(cs) }); n > limit {
			t.Errorf("%s: Write allocates %.2f objects per op (limit %.1f)", name, n, limit)
		}
	}
	// Guard.Write over a non-combining lock must not allocate an
	// adapter per call either.
	g := NewGuard(NewMWSF(), 0)
	g.Write(func(v *int) { *v++ })
	if n := testing.AllocsPerRun(500, func() { g.Write(func(v *int) { *v++ }) }); n > 0.5 {
		t.Errorf("Guard.Write on a plain lock allocates %.2f objects per op", n)
	}
}

// TestCombinerOverBoundedInner: WithCombiningWriters composes with
// WithBoundedWriters — the combiner batches over the Anderson array.
func TestCombinerOverBoundedInner(t *testing.T) {
	l := NewMWSF(WithCombiningWriters(), WithBoundedWriters(4))
	c, ok := l.m.(*combiner)
	if !ok {
		t.Fatalf("arbitration is %T, want *combiner", l.m)
	}
	if _, ok := c.inner.(*AndersonLock); !ok {
		t.Fatalf("combiner's inner mutex is %T, want *AndersonLock", c.inner)
	}
	var data int64
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.Write(func() { data++ })
		}()
	}
	wg.Wait()
	if data != 32 {
		t.Fatalf("data = %d, want 32", data)
	}
}

// TestCombiningLocksWriteSemantics: every combining multi-writer lock
// (bare and Bravo-wrapped) retires concurrent closure writes exactly
// once, mutually excluded against readers, bare and instrumented.
func TestCombiningLocksWriteSemantics(t *testing.T) {
	combiningLocks := func(pass waitPass) map[string]RWLock {
		o := []Option{pass.opt(), WithCombiningWriters()}
		return map[string]RWLock{
			"MWSF/combine":        NewMWSF(o...),
			"MWRP/combine":        NewMWRP(o...),
			"MWWP/combine":        NewMWWP(o...),
			"Bravo(MWSF)/combine": NewBravoMWSF(o...),
		}
	}
	const writers, writesEach, readers = 6, 300, 2
	for _, pass := range waitPasses() {
		for name, l := range combiningLocks(pass) {
			l := l
			t.Run(name+"/"+string(pass), func(t *testing.T) {
				t.Parallel()
				var data int64 // plain: -race checks writer/writer AND writer/reader exclusion
				stop := make(chan struct{})
				var rg sync.WaitGroup
				for i := 0; i < readers; i++ {
					rg.Add(1)
					go func() {
						defer rg.Done()
						var last int64
						for {
							select {
							case <-stop:
								return
							default:
							}
							tok := l.RLock()
							v := data
							l.RUnlock(tok)
							if v < last {
								t.Errorf("read counter went backwards: %d after %d", v, last)
								return
							}
							last = v
							runtime.Gosched()
						}
					}()
				}
				var wg sync.WaitGroup
				for i := 0; i < writers; i++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for k := 0; k < writesEach; k++ {
							Write(l, func() { data++ })
						}
					}()
				}
				wg.Wait()
				close(stop)
				rg.Wait()
				if data != writers*writesEach {
					t.Fatalf("data = %d, want %d", data, writers*writesEach)
				}
				s, ok := CombinerStatsOf(l)
				if !ok {
					t.Fatal("CombinerStatsOf reports no combiner on a combining lock")
				}
				if s.Ops != writers*writesEach {
					t.Fatalf("combiner retired %d ops, want %d", s.Ops, writers*writesEach)
				}
			})
		}
	}
}

// TestCombinerStatsOf: the accessor distinguishes combining from
// non-combining builds, through the Bravo wrapper too.
func TestCombinerStatsOf(t *testing.T) {
	if _, ok := CombinerStatsOf(NewMWSF()); ok {
		t.Fatal("plain MWSF reports combiner stats")
	}
	if _, ok := CombinerStatsOf(NewRWMutexLock()); ok {
		t.Fatal("sync.RWMutex adapter reports combiner stats")
	}
	if _, ok := CombinerStatsOf(NewMWWP(WithCombiningWriters())); !ok {
		t.Fatal("combining MWWP reports no stats")
	}
	if _, ok := CombinerStatsOf(NewBravoMWSF(WithCombiningWriters())); !ok {
		t.Fatal("Bravo over a combining lock does not forward stats")
	}
	if _, ok := CombinerStatsOf(NewBravoMWSF()); ok {
		t.Fatal("Bravo over a plain lock reports combiner stats")
	}
}

// TestGuardWriteCombines: Guard.Write routes through the closure path,
// so a guarded combining lock batches guarded updates.
func TestGuardWriteCombines(t *testing.T) {
	l := NewMWSF(WithCombiningWriters())
	g := NewGuard(l, 0)
	const writers, writesEach = 4, 200
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < writesEach; k++ {
				g.Write(func(v *int) { *v++ })
			}
		}()
	}
	wg.Wait()
	if got := g.Load(); got != writers*writesEach {
		t.Fatalf("guarded value = %d, want %d", got, writers*writesEach)
	}
	s, ok := CombinerStatsOf(l)
	if !ok || s.Ops != writers*writesEach {
		t.Fatalf("combiner saw %d ops (ok=%v), want %d", s.Ops, ok, writers*writesEach)
	}
}

// TestWriteHelperFallback: rwlock.Write works (and excludes) on locks
// without a closure path of their own.
func TestWriteHelperFallback(t *testing.T) {
	l := NewRWMutexLock()
	var data int64
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 200; k++ {
				Write(l, func() { data++ })
			}
		}()
	}
	wg.Wait()
	if data != 800 {
		t.Fatalf("data = %d, want 800", data)
	}
}

// TestCombiningSelection: the option wires the layer in, over the
// right inner mutex.
func TestCombiningSelection(t *testing.T) {
	l := NewMWSF(WithCombiningWriters())
	c, ok := l.m.(*combiner)
	if !ok {
		t.Fatalf("arbitration is %T, want *combiner", l.m)
	}
	if _, ok := c.inner.(*mcsLock); !ok {
		t.Fatalf("combiner's default inner mutex is %T, want *mcsLock", c.inner)
	}
}
