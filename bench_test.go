package rwsync

// This file regenerates every experiment of DESIGN.md's index as a
// `go test -bench` target.  The RMR experiments (E1-E4) run on the
// cache-coherent simulator and report exact remote-memory-reference
// counts via custom benchmark metrics (rmr-*/pass); wall-clock ns/op
// is not the point there.  The native experiments (E7, E8) measure
// real goroutines over sync/atomic.
//
//	go test -bench=. -benchmem
//	go test -bench=BenchmarkE1 -benchtime=10x

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rwsync/internal/ccsim"
	"rwsync/internal/core"
	"rwsync/internal/harness"
	"rwsync/internal/stats"
	"rwsync/internal/workload"
	"rwsync/rwlock"
)

// reportRMR runs one simulator configuration per benchmark iteration
// and reports per-passage RMR statistics as benchmark metrics.
func reportRMR(b *testing.B, build func() *core.System, attempts int) {
	b.Helper()
	var readerMax, writerMax int64
	var readerSum, writerSum, readerN, writerN int64
	for i := 0; i < b.N; i++ {
		sys := build()
		r, err := sys.NewRunner(attempts)
		if err != nil {
			b.Fatal(err)
		}
		r.CollectStats = true
		if err := r.Run(ccsim.NewRandomSched(int64(i)+1), 1<<26); err != nil {
			b.Fatal(err)
		}
		for _, s := range r.Stats {
			if s.Reader {
				readerSum += s.RMR
				readerN++
				if s.RMR > readerMax {
					readerMax = s.RMR
				}
			} else {
				writerSum += s.RMR
				writerN++
				if s.RMR > writerMax {
					writerMax = s.RMR
				}
			}
		}
	}
	if readerN > 0 {
		b.ReportMetric(float64(readerSum)/float64(readerN), "rmr-reader-mean/pass")
		b.ReportMetric(float64(readerMax), "rmr-reader-max/pass")
	}
	if writerN > 0 {
		b.ReportMetric(float64(writerSum)/float64(writerN), "rmr-writer-mean/pass")
		b.ReportMetric(float64(writerMax), "rmr-writer-max/pass")
	}
}

// BenchmarkE1_RMR_SWWP validates Theorem 1: Figure 1's RMR/passage is
// constant in the number of readers (compare the rmr-* metrics across
// sub-benchmarks — they must stay flat).
func BenchmarkE1_RMR_SWWP(b *testing.B) {
	for _, readers := range []int{1, 4, 16, 64} {
		b.Run(benchName("readers", readers), func(b *testing.B) {
			reportRMR(b, func() *core.System { return core.NewFig1System(readers) }, 8)
		})
	}
}

// BenchmarkE2_RMR_SWRP validates Theorem 2 for Figure 2.
func BenchmarkE2_RMR_SWRP(b *testing.B) {
	for _, readers := range []int{1, 4, 16, 64} {
		b.Run(benchName("readers", readers), func(b *testing.B) {
			reportRMR(b, func() *core.System { return core.NewFig2System(readers) }, 8)
		})
	}
}

// BenchmarkE3_RMR_MultiWriter validates Theorems 3-5: the multi-writer
// constructions keep constant RMR/passage.
func BenchmarkE3_RMR_MultiWriter(b *testing.B) {
	points := []struct{ w, r int }{{2, 8}, {4, 32}, {8, 64}}
	for name, build := range map[string]func(w, r int) *core.System{
		"MWSF": core.NewMWSFSystem,
		"MWRP": core.NewMWRPSystem,
		"MWWP": core.NewMWWPSystem,
	} {
		for _, pt := range points {
			pt := pt
			build := build
			b.Run(name+"/w="+itoa(pt.w)+"/r="+itoa(pt.r), func(b *testing.B) {
				reportRMR(b, func() *core.System { return build(pt.w, pt.r) }, 8)
			})
		}
	}
}

// BenchmarkE4_RMR_Baselines shows the contrast the paper closes: the
// centralized lock's rmr-* metrics grow with the process count and the
// tournament lock's grow with log(n), while E1-E3 stay flat.
func BenchmarkE4_RMR_Baselines(b *testing.B) {
	points := []struct{ w, r int }{{2, 8}, {4, 32}, {8, 64}}
	for _, pt := range points {
		pt := pt
		b.Run("Centralized/w="+itoa(pt.w)+"/r="+itoa(pt.r), func(b *testing.B) {
			reportRMR(b, func() *core.System { return core.NewCentralizedSystem(pt.w, pt.r) }, 8)
		})
		b.Run("PhaseFair/w="+itoa(pt.w)+"/r="+itoa(pt.r), func(b *testing.B) {
			reportRMR(b, func() *core.System { return core.NewPFTicketSystem(pt.w, pt.r) }, 8)
		})
		b.Run("TaskFair/w="+itoa(pt.w)+"/r="+itoa(pt.r), func(b *testing.B) {
			reportRMR(b, func() *core.System { return core.NewTaskFairSystem(pt.w, pt.r) }, 8)
		})
		b.Run("Tournament/n="+itoa(pt.w+pt.r), func(b *testing.B) {
			reportRMR(b, func() *core.System { return core.NewTournamentSystem(pt.w + pt.r) }, 8)
		})
	}
}

// benchLocks builds the native locks for E7/E8.
func benchLocks() map[string]rwlock.RWLock {
	out := make(map[string]rwlock.RWLock)
	for name, f := range harness.NativeLocks() {
		out[name] = f()
	}
	return out
}

// BenchmarkE7_Throughput measures native mixed-workload throughput per
// lock at several read fractions; ns/op is the per-operation cost.
func BenchmarkE7_Throughput(b *testing.B) {
	for _, frac := range []int{50, 90, 99, 100} {
		frac := frac
		for name, l := range benchLocks() {
			l := l
			b.Run(name+"/read="+itoa(frac), func(b *testing.B) {
				var shared atomic.Int64
				b.RunParallel(func(pb *testing.PB) {
					rng := rand.New(rand.NewSource(rand.Int63()))
					for pb.Next() {
						if rng.Intn(100) < frac {
							tok := l.RLock()
							_ = shared.Load()
							l.RUnlock(tok)
						} else {
							tok := l.Lock()
							shared.Add(1)
							l.Unlock(tok)
						}
					}
				})
			})
		}
	}
}

// BenchmarkE8_WriterLatencyUnderReaderStorm times write passages while
// background readers hammer the lock: ns/op is the writer's
// acquisition+release latency under storm.  Writer-priority (MWWP)
// should degrade the least as the storm grows.  Storm readers yield
// between operations; without the yield, a reader-priority lock lets
// non-stop readers starve the writer indefinitely on a single core —
// correct per RP1, but then there is no latency to measure.
func BenchmarkE8_WriterLatencyUnderReaderStorm(b *testing.B) {
	const readers = 4
	for name, l := range benchLocks() {
		l := l
		b.Run(name, func(b *testing.B) {
			var stop atomic.Bool
			done := make(chan struct{}, readers)
			for i := 0; i < readers; i++ {
				go func() {
					defer func() { done <- struct{}{} }()
					for !stop.Load() {
						tok := l.RLock()
						l.RUnlock(tok)
						runtime.Gosched()
					}
				}()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tok := l.Lock()
				l.Unlock(tok)
			}
			b.StopTimer()
			stop.Store(true)
			for i := 0; i < readers; i++ {
				<-done
			}
		})
	}
}

// BenchmarkE8_ReaderLatencyUnderWriterStorm is the mirror experiment:
// reader passages while background writers hammer.  Reader-priority
// (MWRP) should degrade the least.
func BenchmarkE8_ReaderLatencyUnderWriterStorm(b *testing.B) {
	const writers = 2
	for name, l := range benchLocks() {
		l := l
		b.Run(name, func(b *testing.B) {
			var stop atomic.Bool
			done := make(chan struct{}, writers)
			for i := 0; i < writers; i++ {
				go func() {
					defer func() { done <- struct{}{} }()
					for !stop.Load() {
						tok := l.Lock()
						l.Unlock(tok)
						runtime.Gosched()
					}
				}()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tok := l.RLock()
				l.RUnlock(tok)
			}
			b.StopTimer()
			stop.Store(true)
			for i := 0; i < writers; i++ {
				<-done
			}
		})
	}
}

// BenchmarkReadHeavy is the reader-fast-path comparison grid
// (experiment E11): read-heavy mixes (90/99/100% reads) at doubling
// goroutine counts up to max(4, NumCPU), comparing each constant-RMR
// lock against its BRAVO-wrapped and Epoch-wrapped variants and
// sync.RWMutex.  The headline number is the reads/s metric: BRAVO's
// sharded fast path must beat the bare lock's single fetch&add word
// once several goroutines read at once, and the epoch fast path —
// zero shared-word RMWs per read passage — must beat BRAVO at the
// 99-100% mixes where the read path is everything.
//
//	go test -bench ReadHeavy -benchtime 100000x
func BenchmarkReadHeavy(b *testing.B) {
	maxG := runtime.NumCPU()
	if maxG < 4 {
		maxG = 4 // the grid must exercise real reader concurrency even on small CI boxes
	}
	var gs []int
	for g := 1; g <= maxG; g *= 2 {
		gs = append(gs, g)
	}
	if gs[len(gs)-1] != maxG {
		gs = append(gs, maxG)
	}
	names := []string{"MWSF", "Bravo(MWSF)", "MWSF/epoch",
		"MWRP", "Bravo(MWRP)", "MWRP/epoch",
		"MWWP", "Bravo(MWWP)", "MWWP/epoch", "sync.RWMutex"}
	builders := harness.NativeLocks()
	for _, frac := range []int{90, 99, 100} {
		for _, g := range gs {
			for _, name := range names {
				name := name
				g := g
				frac := frac
				b.Run(name+"/read="+itoa(frac)+"/g="+itoa(g), func(b *testing.B) {
					readHeavy(b, builders[name](), g, frac)
				})
			}
		}
	}
}

// BenchmarkOversubscribed is the waiting-layer experiment (E12): 64
// workers on GOMAXPROCS=2 — goroutines 32× the processors, the regime
// real services run in — running the constant-RMR locks, whose waits
// spin briefly and then park, against sync.RWMutex, whose waiters park
// in the runtime at once.  The headline is ops/s: a waiter that kept
// spinning would burn whole scheduler quanta the lock holder needs,
// most of all at the 90% read mix where writers constantly close the
// gates.
//
//	GOMAXPROCS is pinned inside each sub-benchmark; run with e.g.
//	go test -bench Oversubscribed -benchtime 100000x
func BenchmarkOversubscribed(b *testing.B) {
	const workers = 64
	builders := harness.NativeLocks()
	for _, frac := range []int{90, 99} {
		frac := frac
		for _, name := range harness.OversubLockNames() {
			name := name
			b.Run(name+"/read="+itoa(frac)+"/g="+itoa(workers), func(b *testing.B) {
				prev := runtime.GOMAXPROCS(2)
				defer runtime.GOMAXPROCS(prev)
				oversubBench(b, builders[name](), workers, frac)
			})
		}
	}
}

// oversubBench is readHeavy with the workload package's critical-
// section and think-time shape (CSWork/ThinkWork 32, as the E7/E12
// sweeps use): under oversubscription a pure lock ping-pong measures
// scheduler luck — whichever waiter happens to hold a P wins the next
// pass — while real services hold the lock to DO something, which is
// exactly the time spinning waiters steal from the holder.
func oversubBench(b *testing.B, l rwlock.RWLock, g, frac int) {
	const work = 32
	var shared atomic.Int64
	per := (b.N + g - 1) / g
	var wg sync.WaitGroup
	b.ResetTimer()
	for i := 0; i < g; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			var sink int64
			for op := 0; op < per; op++ {
				if rng.Intn(100) < frac {
					tok := l.RLock()
					_ = shared.Load()
					busySpin(work, &sink)
					l.RUnlock(tok)
				} else {
					tok := l.Lock()
					shared.Add(1)
					busySpin(work, &sink)
					l.Unlock(tok)
				}
				busySpin(work, &sink)
			}
		}(int64(i + 1))
	}
	wg.Wait()
	b.StopTimer()
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(per*g)/s, "ops/s")
	}
}

// busySpin is n iterations of un-optimizable busy work (the workload
// package's spin, inlined so the benchmark has no cross-package call
// in the loop).
func busySpin(n int, sink *int64) {
	s := *sink
	for i := 0; i < n; i++ {
		s += int64(i) ^ s<<1
	}
	*sink = s
}

// readHeavy splits b.N operations across g goroutines, each drawing
// reads with probability frac/100, and reports reads/s and ops/s —
// plus the sampled read-latency p99, measured at the workload
// package's default rate (every 64th op per goroutine into a
// preallocated per-goroutine histogram).  The sampling must be
// invisible in ns/op: two clock reads amortized over 64 ops is well
// under a nanosecond, which is what keeps the acceptance cell
// (Bravo(MWSF), 90% reads, g=4) inside its historical noise band with
// sampling permanently on.
func readHeavy(b *testing.B, l rwlock.RWLock, g, frac int) {
	var shared atomic.Int64
	var reads atomic.Int64
	per := (b.N + g - 1) / g
	hists := make([]*stats.Histogram, g)
	for i := range hists {
		hists[i] = new(stats.Histogram)
	}
	var wg sync.WaitGroup
	b.ResetTimer()
	for i := 0; i < g; i++ {
		wg.Add(1)
		go func(seed int64, h *stats.Histogram) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			n := int64(0)
			var t0 time.Time // hoisted: zeroing it per op would cost more than the sampling
			// Phase-offset per goroutine, like workload.Run, so the
			// cache-cold op 0 is not in every goroutine's sample.
			phase := int(seed) % workload.DefaultSampleEvery
			for op := 0; op < per; op++ {
				sample := (op+phase)%workload.DefaultSampleEvery == 0
				if rng.Intn(100) < frac {
					if sample {
						t0 = time.Now()
					}
					tok := l.RLock()
					_ = shared.Load()
					l.RUnlock(tok)
					if sample {
						h.Record(time.Since(t0).Nanoseconds())
					}
					n++
				} else {
					tok := l.Lock()
					shared.Add(1)
					l.Unlock(tok)
				}
			}
			reads.Add(n)
		}(int64(i+1), hists[i])
	}
	wg.Wait()
	b.StopTimer()
	merged := new(stats.Histogram)
	for _, h := range hists {
		merged.Merge(h)
	}
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(reads.Load())/s, "reads/s")
		b.ReportMetric(float64(per*g)/s, "ops/s")
	}
	if merged.N() > 0 {
		b.ReportMetric(float64(merged.Quantile(0.99)), "read-p99-ns")
	}
}

// BenchmarkUncontended measures the raw acquire/release cost of each
// lock with a single goroutine (ablation: the price of the algorithm's
// bookkeeping when nothing contends).
func BenchmarkUncontended(b *testing.B) {
	for name, l := range benchLocks() {
		l := l
		b.Run(name+"/write", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tok := l.Lock()
				l.Unlock(tok)
			}
		})
		b.Run(name+"/read", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tok := l.RLock()
				l.RUnlock(tok)
			}
		})
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	n := len(buf)
	for v > 0 {
		n--
		buf[n] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[n:])
}

func benchName(k string, v int) string { return k + "=" + itoa(v) }
