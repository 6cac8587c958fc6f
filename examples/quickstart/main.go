// Quickstart: the three multi-writer locks of the paper, side by side.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"sync"

	"rwsync/rwlock"
)

func demo(name string, l rwlock.RWLock) {
	var counter int // guarded by l
	var wg sync.WaitGroup

	// Four writers increment the counter 1000 times each.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				tok := l.Lock() // keep the token; Unlock needs it
				counter++
				l.Unlock(tok)
			}
		}()
	}
	// Eight readers watch the counter; they may share the CS.
	var reads int64
	var readsMu sync.Mutex
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := int64(0)
			for i := 0; i < 1000; i++ {
				tok := l.RLock()
				_ = counter // consistent snapshot: no writer is inside
				local++
				l.RUnlock(tok)
			}
			readsMu.Lock()
			reads += local
			readsMu.Unlock()
		}()
	}
	wg.Wait()
	fmt.Printf("%-6s counter=%d (want 4000), reads=%d\n", name, counter, reads)
}

func main() {
	fmt.Println("rwsync quickstart: constant-RMR reader-writer locks")
	fmt.Println()

	// No priority: neither class can starve (Theorem 3).
	demo("MWSF", rwlock.NewMWSF())

	// Reader priority: readers never wait for waiting writers
	// (Theorem 4) — ideal when reads are latency-critical.
	demo("MWRP", rwlock.NewMWRP())

	// Writer priority: writers overtake waiting readers (Theorem 5) —
	// ideal when updates must become visible quickly.
	demo("MWWP", rwlock.NewMWWP())

	// Writer concurrency is unbounded by default (MCS arbitration).
	// WithBoundedWriters caps concurrent write attempts via the
	// paper's Anderson array — explicit admission control.
	demo("MWSF/b", rwlock.NewMWSF(rwlock.WithBoundedWriters(4)))

	// Flat-combining writer arbitration: closure-path writes
	// (rwlock.Write, Guard.Write, or the lock's own Write method) are
	// batched — one writer executes every pending critical section per
	// lock handoff.  Best under writer churn; relaxes strict FCFS to
	// publication order within a batch.
	demoCombining()

	// Epoch reader fast path: readers enter with zero shared-word RMWs
	// (a plain stamp + recheck); writers advance the epoch and wait out
	// a grace period, which also buys deferred version reclamation.
	demoEpoch()

	// Single-writer locks: when the application has one designated
	// writer, a single-writer flag stands in for the writer queue.
	demo("SWWP", oneWriter{rwlock.NewSWWP()})

	fmt.Println()
	fmt.Println("Tokens returned by Lock/RLock must be passed to the matching")
	fmt.Println("Unlock/RUnlock; they are plain values and may cross goroutines.")
}

// demoCombining drives the combining build through the closure write
// path (token-path Lock/Unlock would bypass the batching) and reports
// how many handoffs the batches saved.
func demoCombining() {
	l := rwlock.NewMWSF(rwlock.WithCombiningWriters())
	var counter int // guarded by l
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				l.Write(func() { counter++ })
			}
		}()
	}
	wg.Wait()
	st, _ := l.CombinerStats()
	fmt.Printf("%-6s counter=%d (want 4000), %d writes retired in %d batches (max batch %d)\n",
		"MWSF/c", counter, st.Ops, st.Batches, st.MaxBatch)
}

// demoEpoch runs the shared demo over Epoch(MWSF), then shows the two
// things the wrapper adds: Retire hands an old version of the
// protected data to the lock for reclamation after a grace period (no
// reader can still observe it), and EpochStats reports the
// grace-period and retained-memory counters at quiescence.
func demoEpoch() {
	l := rwlock.NewEpochMWSF()
	demo("MWSF/e", l)

	// A versioned datum: each write publishes a fresh copy and retires
	// the old one instead of freeing it in place.
	version := []byte("v0")
	for i := 0; i < 3; i++ {
		tok := l.Lock()
		old := version
		version = []byte(fmt.Sprintf("v%d", i+1))
		l.Retire(old, len(old)) // reclaimed only after a grace period
		l.Unlock(tok)
	}
	st, _ := l.EpochStats()
	fmt.Printf("       epoch: %d advances, %d grace waits; retired %d versions, reclaimed %d, high-water %d (%dB)\n",
		st.Advances, st.GraceWaits, st.Retired, st.Reclaimed,
		st.MaxRetainedVersions, st.MaxRetainedBytes)
}

// oneWriter adapts the single-writer SWWP to the demo by funneling the
// four demo writers through a mutex (the single-writer contract allows
// only one write attempt at a time).
type oneWriter struct {
	l *rwlock.SWWP
}

var writerGate sync.Mutex

func (o oneWriter) Lock() rwlock.WToken {
	writerGate.Lock()
	return o.l.Lock()
}

func (o oneWriter) Unlock(t rwlock.WToken) {
	o.l.Unlock(t)
	writerGate.Unlock()
}

func (o oneWriter) RLock() rwlock.RToken    { return o.l.RLock() }
func (o oneWriter) RUnlock(t rwlock.RToken) { o.l.RUnlock(t) }
