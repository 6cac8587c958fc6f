package main

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// sampleEvery is the latency sampling cadence: one call in 64 is timed.
const sampleEvery = 64

// window is the throughput sampling interval.
const window = 100 * time.Millisecond

// sut is one constructed system under test.
type sut interface {
	// step issues one call from c; sample says whether to time it.
	step(c *client, w uint32, sample bool)
	// check verifies the system's state after a round and returns the
	// number of failed checks.
	check(clients []*client) uint64
}

// client is one closed-loop caller: it issues its next call only after
// the previous one returns.
type client struct {
	_    [64]byte
	done atomic.Uint64 // calls completed this round, published every 64
	_    [56]byte

	stream []uint32
	pos    int

	rd, wr hist   // sampled latency of reads and writes, ns
	failed uint64 // calls whose output check failed
	acked  uint64 // writes acknowledged this round
	tr     *clientTrace
}

func (c *client) run(s sut, stop *atomic.Bool) {
	var n uint64
	for !stop.Load() {
		for j := 0; j < sampleEvery; j++ {
			s.step(c, c.stream[c.pos], j == 0)
			if c.pos++; c.pos == len(c.stream) {
				c.pos = 0
			}
		}
		n += sampleEvery
		c.done.Store(n)
	}
}

// phaseResult is what one measured phase produced.
type phaseResult struct {
	windows   []float64 // calls per second, one per window
	rounds    []float64 // median calls per second of each round
	setups    []float64 // construction time, s
	heaps     []float64 // live heap held by the system, MiB
	lat       [4][]float64
	attempted uint64
	failed    uint64
	rd, wr    hist // all rounds' samples
}

// Per-round latency quantiles, indexes into phaseResult.lat.
const (
	readP50 = iota
	readP99
	writeP50
	writeP99
)

func (r *phaseResult) opsPerSec() float64 { return median(r.windows) }

// latency returns the median over rounds of one per-round quantile, so
// that a minority of rounds in another machine state cannot drag it.
func (r *phaseResult) latency(q int) float64 { return median(r.lat[q]) }

// runPhase measures build's system for seconds of wall time split over
// rounds; each round builds a fresh system reps times (timing each
// construction) and drives the last one.  A fresh system per round
// averages over construction-time randomness such as the map's hash
// seed.
func runPhase(build func() sut, clients []*client, rounds, reps int, seconds float64) *phaseResult {
	res := &phaseResult{}
	for _, c := range clients {
		c.failed = 0
	}
	roundDur := time.Duration(seconds / float64(rounds) * float64(time.Second))
	var rd, wr hist
	for r := 0; r < rounds; r++ {
		var s sut
		for i := 0; i < reps; i++ {
			var m0, m1 runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&m0)
			t := time.Now()
			s = build()
			res.setups = append(res.setups, time.Since(t).Seconds())
			runtime.GC()
			runtime.ReadMemStats(&m1)
			res.heaps = append(res.heaps, float64(int64(m1.HeapAlloc)-int64(m0.HeapAlloc))/(1<<20))
		}
		for _, c := range clients {
			c.rd.reset()
			c.wr.reset()
		}
		w := drive(s, clients, roundDur)
		res.windows = append(res.windows, w...)
		res.rounds = append(res.rounds, median(w))
		rd.reset()
		wr.reset()
		for _, c := range clients {
			res.attempted += c.done.Load()
			rd.merge(&c.rd)
			wr.merge(&c.wr)
		}
		res.lat[readP50] = append(res.lat[readP50], rd.quantile(0.50))
		res.lat[readP99] = append(res.lat[readP99], rd.quantile(0.99))
		res.lat[writeP50] = append(res.lat[writeP50], wr.quantile(0.50))
		res.lat[writeP99] = append(res.lat[writeP99], wr.quantile(0.99))
		res.rd.merge(&rd)
		res.wr.merge(&wr)
		res.failed += s.check(clients)
	}
	for _, c := range clients {
		res.failed += c.failed
	}
	return res
}

// drive runs the clients against s for d and returns the throughput of
// each window after a warm-up tenth.
func drive(s sut, clients []*client, d time.Duration) []float64 {
	var stop atomic.Bool
	var wg sync.WaitGroup
	for _, c := range clients {
		c.done.Store(0)
		c.acked = 0
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			c.run(s, &stop)
		}(c)
	}
	total := func() uint64 {
		var n uint64
		for _, c := range clients {
			n += c.done.Load()
		}
		return n
	}
	time.Sleep(d / 10)
	var out []float64
	start := time.Now()
	prev, prevT := total(), start
	for time.Since(start) < d*9/10 {
		time.Sleep(window)
		n, t := total(), time.Now()
		out = append(out, float64(n-prev)/t.Sub(prevT).Seconds())
		prev, prevT = n, t
	}
	stop.Store(true)
	wg.Wait()
	return out
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
