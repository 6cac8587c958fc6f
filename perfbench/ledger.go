package main

import (
	"fmt"
	"time"

	"rwsync/rwlock"
	"rwsync/rwmap"
)

// The layer ledger: uncontended, single-goroutine passage cost of each
// build, timed around the public calls.  Adjacent rows differ by one
// layer, so their difference is that layer's price.

type ledgerRow struct {
	name  string
	moves string // the end-to-end metric this row should move
	build func() (read, write func(n int))
}

func lockPasses(l rwlock.RWLock) (read, write func(n int)) {
	return func(n int) {
			for i := 0; i < n; i++ {
				t := l.RLock()
				l.RUnlock(t)
			}
		}, func(n int) {
			for i := 0; i < n; i++ {
				t := l.Lock()
				l.Unlock(t)
			}
		}
}

func noop() {}

var ledgerRows = []ledgerRow{
	{"swwp", "lock-hot write_p50_ns (the Figure 1 core alone)", func() (func(int), func(int)) {
		return lockPasses(rwlock.NewSWWP())
	}},
	{"mwsf", "lock-hot write_p50_ns (core under T with MCS arbitration)", func() (func(int), func(int)) {
		return lockPasses(rwlock.NewMWSF())
	}},
	{"mwsf-combine", "none: alternative arbitration, closure write path", func() (func(int), func(int)) {
		l := rwlock.NewMWSF(rwlock.WithCombiningWriters())
		read, _ := lockPasses(l)
		return read, func(n int) {
			for i := 0; i < n; i++ {
				l.Write(noop)
			}
		}
	}},
	{"mwsf-bounded", "none: alternative arbitration (Anderson array)", func() (func(int), func(int)) {
		return lockPasses(rwlock.NewMWSF(rwlock.WithBoundedWriters(nClients)))
	}},
	{"bravo-mwsf", "lock-hot read_p50_ns (the Bravo reader fast path)", func() (func(int), func(int)) {
		return lockPasses(rwlock.NewBravoMWSF())
	}},
	{"epoch-mwsf", "none: alternative reader fast path", func() (func(int), func(int)) {
		return lockPasses(rwlock.NewEpochMWSF())
	}},
	{"slimbravo", "kv-cache ops_per_s (the stripe lock)", func() (func(int), func(int)) {
		return lockPasses(rwlock.NewSlimBravo())
	}},
	{"rwmap-1stripe", "kv-cache read_p50_ns (stripe lookup and shard map over slimbravo)", func() (func(int), func(int)) {
		m := rwmap.New[uint64, uint64](rwmap.WithStripes(1))
		m.Put(1, 0)
		return func(n int) {
				for i := 0; i < n; i++ {
					m.Get(1)
				}
			}, func(n int) {
				for i := 0; i < n; i++ {
					m.Update(1, incr)
				}
			}
	}},
	{"rwmutex", "none: the sync.RWMutex bar", func() (func(int), func(int)) {
		return lockPasses(rwlock.NewRWMutexLock())
	}},
}

// ledgerBatch passages are timed together; the row reports the median
// per-passage cost over ledgerDraws batches after one warm-up batch.
const (
	ledgerBatch = 20000
	ledgerDraws = 7
)

func perPassage(f func(int)) float64 {
	f(ledgerBatch)
	d := make([]float64, ledgerDraws)
	for i := range d {
		t := time.Now()
		f(ledgerBatch)
		d[i] = float64(time.Since(t).Nanoseconds()) / ledgerBatch
	}
	return median(d)
}

func runLedger(r *report) {
	for _, row := range ledgerRows {
		read, write := row.build()
		note := "moves " + row.moves
		r.add(fmt.Sprintf("ledger.%s.read_ns", row.name), perPassage(read), "ns", note)
		r.add(fmt.Sprintf("ledger.%s.write_ns", row.name), perPassage(write), "ns", note)
	}
}
