// kvstore: an in-memory key-value store on the sharded serving tier —
// a striped rwmap.Map whose per-stripe locks are the paper's
// reader-writer disciplines.
//
// The scenario the paper's writer-priority case motivates:
// configuration data is read by many request handlers, and an
// occasional administrative update MUST become visible promptly even
// under a heavy read load.  With a reader-preference or task-fair
// lock, the writer can be delayed arbitrarily by a continuous stream
// of readers; with MWWP, a writer that completes its doorway overtakes
// every reader that arrives after it (WP1), and waiting writers are
// collectively unstoppable (WP2).
//
// The store itself is no longer a single lock around one map: it is a
// rwmap.Map, hash-striped over many locks so concurrent requests for
// different keys never contend.  Real serving traffic is skewed —
// a few keys draw most of the reads (classically Zipfian, s ≈ 1.07) —
// so the first measurement drives exactly that shape through striped
// grids of each lock (the harness's "zipf-grid" scenario, trimmed to
// example size) and reports throughput, the hot key's read rate, and
// the measured bytes per lock instance: the number that decides
// whether a 10^6-stripe grid is affordable.
//
// The second measurement is the harness's "bursty-writers" scenario —
// one administrative writer bursting updates against a storm of
// readers on a single cell — the regime every individual stripe is in
// when the traffic concentrates on one hot key: for each discipline
// it reports how long updates waited to land (write wait p50/p99) and
// how stale the readers' view got (age p99).
//
// Run with:
//
//	go run ./examples/kvstore
//
// or serve the live observability endpoints instead of running the
// batch measurements (see serve.go):
//
//	go run ./examples/kvstore -serve 127.0.0.1:8080
package main

import (
	"flag"
	"fmt"
	"time"

	"rwsync/internal/harness"
	"rwsync/rwlock"
	"rwsync/rwmap"
)

// Store is a sharded key-value store: a striped map whose stripes are
// guarded by the configured reader-writer lock.
type Store struct {
	m *rwmap.Map[string, string]
}

// NewStore builds a store striped over n locks built by factory (nil
// means rwmap's default: 16-byte SlimBravo locks on the rwlock
// package's reader arena).
func NewStore(n int, factory func() rwlock.RWLock) *Store {
	opts := []rwmap.Option{rwmap.WithStripes(n)}
	if factory != nil {
		opts = append(opts, rwmap.WithLockFactory(factory))
	}
	return &Store{m: rwmap.New[string, string](opts...)}
}

// Get returns the value for key.
func (s *Store) Get(key string) (string, bool) { return s.m.Get(key) }

// Set stores value under key.
func (s *Store) Set(key, value string) { s.m.Put(key, value) }

// Compact deletes every key the keep predicate rejects, taking each
// stripe's write lock once per matching key via the closure path.
func (s *Store) Compact(keep func(key string) bool) {
	var doomed []string
	s.m.Range(func(k, _ string) bool {
		if !keep(k) {
			doomed = append(doomed, k)
		}
		return true
	})
	for _, k := range doomed {
		s.m.Delete(k)
	}
}

func main() {
	serveAddr := flag.String("serve", "", "serve /debug/rwsync, /metrics and /debug/vars on this address under background traffic instead of running the batch measurements")
	flag.Parse()
	if *serveAddr != "" {
		serve(*serveAddr)
		return
	}

	// The store API in one breath (and a sanity check that the stripes
	// actually guard the map): 256 stripes of writer-priority locks.
	s := NewStore(256, func() rwlock.RWLock { return rwlock.NewMWWP() })
	s.Set("mode", "normal")
	s.Set("mode", "maintenance")
	if v, _ := s.Get("mode"); v != "maintenance" {
		panic("update lost")
	}
	s.Set("mode/stale", "x")
	s.Compact(func(k string) bool { return k == "mode" })
	if _, ok := s.Get("mode/stale"); ok {
		panic("compaction lost")
	}

	// Measurement 1: Zipfian serving traffic over striped grids.  The
	// registry's zipf-grid scenario sweeps up to 10^6 stripes; the
	// example trims the axes to stay demo-sized and narrows the lock
	// set to one private/slim pair plus the baseline.
	zg, ok := harness.ScenarioByName("zipf-grid")
	if !ok {
		panic("zipf-grid scenario not registered")
	}
	fmt.Printf("kvstore serving tier: %s\n", zg.Title)
	fmt.Println("(Zipf s=1.07 key popularity over striped maps; B/lock is measured")
	fmt.Println(" marginal heap per stripe lock — what 10^6 stripes would cost)")
	fmt.Println()
	res, err := harness.RunScenario(zg, harness.ScenarioOptions{
		Seed:    1,
		Locks:   []string{"Bravo(MWSF)", "SlimBravo", "sync.RWMutex"},
		Stripes: []int{1 << 4, 1 << 10},
		ZipfS:   []float64{1.07},
	})
	if err != nil {
		panic(err)
	}
	for _, p := range res.Points {
		fmt.Printf("%-19s %7d stripes  %7.0f B/lock  %9.0f ops/s  hot-key reads %5.1f%%\n",
			p.Lock, p.Stripes, p.BytesPerLock, p.OpsPerSec,
			100*float64(p.HotReadOps)/float64(p.ReadOps))
	}
	fmt.Println()

	// Measurement 2: the single-stripe regime — one hot cell, bursty
	// administrative writer vs a reader storm — where the lock
	// DISCIPLINE (who wins when both classes wait) decides update
	// latency and read-view staleness.
	sc, ok := harness.ScenarioByName("bursty-writers")
	if !ok {
		panic("bursty-writers scenario not registered")
	}
	fmt.Printf("hot-stripe discipline: %s\n", sc.Title)
	fmt.Printf("(1 dedicated writer bursting updates vs %d non-stop reader loops\n"+
		" on a cell guarded by each lock, %v per lock)\n\n",
		sc.Workers[0]-1, sc.Duration)

	notes := map[string]string{
		"MWWP":         "writer priority: updates overtake arriving readers (WP1)",
		"MWSF":         "no priority, starvation-free for both classes",
		"MWSF/bounded": "MWSF over the bounded Anderson writer arbitration",
		"MWSF/combine": "MWSF over the flat-combining writer arbitration",
		"MWRP":         "reader priority: updates wait for a reader gap (RP1)",
		"sync.RWMutex": "runtime baseline",
	}
	bres, err := harness.RunScenario(sc, harness.ScenarioOptions{Seed: 1})
	if err != nil {
		panic(err)
	}
	for _, p := range bres.Points {
		if p.WriteWait == nil || p.Age == nil {
			fmt.Printf("%-13s (run too short to sample)\n", p.Lock)
			continue
		}
		fmt.Printf("%-13s update waits p50 %-9s p99 %-9s  read-view age p99 %-9s  (%s)\n",
			p.Lock,
			time.Duration(p.WriteWait.P50),
			time.Duration(p.WriteWait.P99),
			time.Duration(p.Age.P99),
			notes[p.Lock])
	}

	fmt.Println("\nAll disciplines guarantee mutual exclusion and constant RMR complexity;")
	fmt.Println("striping decides how often two requests meet at the same lock, the")
	fmt.Println("discipline decides who wins when they do, and bytes/lock decides how")
	fmt.Println("many stripes you can afford — the three knobs the tables above measure.")
}
