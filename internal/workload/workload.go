package workload

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rwsync/internal/stats"
	"rwsync/rwlock"
)

// DefaultSampleEvery is the sampling rate applied when Config leaves
// SampleEvery zero: every 64th operation per worker is timed.  At
// this rate the sampling cost (three clock reads on the sampled op)
// amortizes to well under a nanosecond per operation — invisible even
// in the ~50 ns/op read-heavy grids — while a normal run still
// collects thousands of samples per class.  Scenarios whose product
// is a latency or age tail (writer-churn, writer-shed, age-frontier)
// set a denser rate explicitly.
const DefaultSampleEvery = 64

// Config describes one workload run.
type Config struct {
	// Workers is the number of goroutines issuing operations.
	Workers int
	// ReadFraction is the probability that a worker's next operation
	// is a read (1.0 = read-only, 0.0 = write-only).
	ReadFraction float64
	// OpsPerWorker is how many operations each worker performs.
	OpsPerWorker int
	// CSWork is the amount of busy work (loop iterations) inside the
	// critical section, modeling the protected operation's cost.
	CSWork int
	// ThinkWork is busy work between operations (remainder section).
	ThinkWork int
	// Seed makes the per-worker operation mix reproducible.
	Seed int64
	// SampleEvery records the latency of every k-th operation per
	// worker (default DefaultSampleEvery; 1 records all).  Sampling
	// is decided by op index alone, before the op runs, so whether an
	// op is sampled cannot correlate with how long it takes.
	SampleEvery int
	// MeasureAge enables the writer-visibility probe: every write
	// timestamps the protected value, and every sampled read reports
	// the age of the value it observed (now − write time) into
	// Result.AgeNs.  Off by default because it adds a clock read to
	// EVERY write's critical section — the probe's cost must be
	// opt-in, not silently folded into unrelated measurements.
	MeasureAge bool
	// Yield makes every worker yield to the scheduler after each
	// operation (outside the timed window).  Scenarios need it when
	// goroutines can outnumber GOMAXPROCS: a non-stop reader loop
	// otherwise runs whole preemption quanta (~10ms) unbroken, so a
	// short run degenerates into sequential per-worker phases and the
	// probes measure scheduler quanta, not the lock — the same reason
	// bench_test.go's E8 storm readers yield.
	Yield bool
	// WriteDeadline, if > 0, gives every write a per-op budget: the
	// write acquires through the lock's LockCtx (the deadline-aware
	// token path) under a context that expires after WriteDeadline,
	// and a write whose context wins is SHED — it never enters the
	// critical section, counts into Result.ShedOps instead of
	// WriteOps, and records no latency sample.  The lock under test
	// must implement rwlock.CtxRWLock (every lock in the package
	// does).  Note the contract's commitment points: disciplines
	// whose queues abort (MCS arbitration) shed from anywhere in the
	// wait, while committed disciplines (Anderson past its admission
	// gate, the task-fair ticket queue) can only shed before their
	// point of no return — the shed-rate difference between the two
	// under the same deadline is exactly what the writer-shed
	// scenario measures.  Writes bypass the closure write path in
	// this mode (a combining lock's batches are not deadline-aware;
	// its LockCtx token path is).
	WriteDeadline time.Duration
	// VersionBytes, if > 0, makes the protected datum VERSIONED: each
	// write prepares a fresh VersionBytes-sized version outside the
	// lock (the copy-on-write shape), installs it in the critical
	// section, and hands the displaced version to the lock's deferred
	// reclamation when the lock implements rwlock.VersionRetirer (the
	// epoch wrapper); on any other lock the old version is simply
	// dropped for the garbage collector.  Combined with MeasureAge
	// this is the age-frontier probe: update age on one axis, the
	// lock's retained-version backlog (rwlock.EpochStatsOf) on the
	// other.
	VersionBytes int
	// Churn runs every operation on a FRESH goroutine: each worker
	// becomes a lane that spawns one short-lived goroutine per op and
	// waits for it before the next, so the number of distinct
	// goroutines that touch the lock equals the total op count while
	// concurrency stays bounded by Workers.  This is the
	// "thousands of one-shot writers" service shape (request handlers
	// that each take the lock once and die); the lock under test must
	// tolerate every passage coming from a goroutine it has never
	// seen — which is exactly what a bounded writer-arbitration layer
	// turns into an admission-gate stress.  Sampled timings include
	// the spawned goroutine's start-up in the wait component only if
	// the op is sampled before the spawn; to keep the wait histogram
	// about the LOCK, the clock starts inside the spawned goroutine.
	Churn bool
}

// Result aggregates a run.  The histograms hold the sampled per-op
// timings, split at the acquire point: Wait is request→acquire (time
// spent in the lock's entry protocol), Hold is acquire→release (the
// critical section including the release protocol), Total is
// request→release (Wait + Hold, the whole passage).  Writes go through
// the lock's closure path (rwlock.Write), so on a combining lock the
// acquire stamp is taken when the combiner starts the section: Wait
// then includes the time queued in the publication list, and Hold
// ends when the completion signal reaches the submitter.  AgeNs is the
// writer-visibility probe (see Config.MeasureAge).  Histograms with
// no samples have N() == 0; AgeNs is nil unless MeasureAge was set.
type Result struct {
	Elapsed  time.Duration
	ReadOps  int64
	WriteOps int64
	// ShedOps counts writes whose WriteDeadline expired before the
	// lock was granted (always 0 when Config.WriteDeadline is 0).
	// A shed op is an op that ran and failed: it is counted in
	// neither WriteOps nor the latency histograms.
	ShedOps int64

	ReadWaitNs   *stats.Histogram
	ReadHoldNs   *stats.Histogram
	ReadTotalNs  *stats.Histogram
	WriteWaitNs  *stats.Histogram
	WriteHoldNs  *stats.Histogram
	WriteTotalNs *stats.Histogram
	AgeNs        *stats.Histogram
}

// Throughput returns total operations per second.
func (r *Result) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.ReadOps+r.WriteOps) / r.Elapsed.Seconds()
}

// ShedRate returns the fraction of write attempts that were shed at
// their deadline (0 when no deadline ran or no writes were attempted).
func (r *Result) ShedRate() float64 {
	attempts := r.WriteOps + r.ShedOps
	if attempts == 0 {
		return 0
	}
	return float64(r.ShedOps) / float64(attempts)
}

// spin performs n iterations of un-optimizable busy work.
func spin(n int, sink *int64) {
	s := *sink
	for i := 0; i < n; i++ {
		s += int64(i) ^ s<<1
	}
	*sink = s
}

// workerHists is one worker's preallocated sample buffers.  Each
// histogram is a fixed array; recording into them is allocation-free
// (stats.TestHistogramRecordDoesNotAllocate), so the measurement
// cannot disturb the allocator behavior of the run it measures.
type workerHists struct {
	readWait, readHold, readTotal    stats.Histogram
	writeWait, writeHold, writeTotal stats.Histogram
	age                              stats.Histogram
}

// shared is the protected datum: a counter plus, when the age probe
// is on, the monotonic timestamp of the write that produced the
// current value.  Both fields are guarded by the lock under test
// (plain, non-atomic — running under -race doubles as an exclusion
// check on the lock).
type sharedCell struct {
	value int64
	stamp int64 // ns since run start, written under the write lock
	// version is the versioned payload (Config.VersionBytes > 0):
	// writers swap in a freshly built slice and retire the old one,
	// readers touch the current one.  Guarded by the lock like the
	// other fields.
	version []byte
}

// Run executes the workload against l and returns aggregate results.
// The protected data is a plain counter mutated by writers and read by
// readers, so running tests under -race doubles as an exclusion check.
func Run(l rwlock.RWLock, cfg Config) *Result {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.OpsPerWorker <= 0 {
		cfg.OpsPerWorker = 1000
	}
	if cfg.SampleEvery <= 0 {
		cfg.SampleEvery = DefaultSampleEvery
	}

	var (
		shared   sharedCell // guarded by l
		readOps  atomic.Int64
		writeOps atomic.Int64
		shedOps  atomic.Int64
	)

	// The deadline-aware write path needs the lock's LockCtx; assert
	// once, up front, so a misconfigured run fails loudly instead of
	// silently measuring the wrong path.
	var cl rwlock.CtxRWLock
	if cfg.WriteDeadline > 0 {
		var ok bool
		if cl, ok = l.(rwlock.CtxRWLock); !ok {
			panic("workload: WriteDeadline set but the lock does not implement rwlock.CtxRWLock")
		}
	}

	// Versioned writes retire the displaced version through the lock
	// when it supports deferred reclamation; resolved once, up front.
	var retirer rwlock.VersionRetirer
	if cfg.VersionBytes > 0 {
		retirer, _ = l.(rwlock.VersionRetirer)
	}

	// Preallocate every worker's sample buffers before the clock starts
	// so no allocation happens on the measured path.
	hists := make([]*workerHists, cfg.Workers)
	for i := range hists {
		hists[i] = new(workerHists)
	}
	start := time.Now()

	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(id)*7919))
			var sink int64
			h := hists[id]
			// Phase-offset the systematic sample per worker so the
			// guaranteed-cold op 0 (goroutine start, cache-cold lock)
			// is not in every worker's sample set.  Derived from the
			// seed, not drawn from rng, so the op mix for a given seed
			// is unchanged.
			phase := int(((cfg.Seed+int64(id)*7919)%int64(cfg.SampleEvery) +
				int64(cfg.SampleEvery)) % int64(cfg.SampleEvery))

			// writeCS is the worker's write critical section, hoisted
			// out of runOp so the closure is allocated once per worker,
			// not once per op (the measured path must stay
			// allocation-free).  It runs through the lock's closure
			// write path (rwlock.Write), which is where a combining
			// lock batches — possibly on the combiner's goroutine, so
			// the acquire stamp is taken inside the section and read
			// back after the Write returns (the completion signal is
			// the happens-before edge).  On non-combining locks the
			// path is a plain Lock/cs/Unlock with identical clock
			// placement to the pre-combining workload.
			var wSample bool
			var wAcq time.Time
			var newVersion []byte // built outside the lock, installed inside
			writeCS := func() {
				if wSample {
					wAcq = time.Now()
				}
				shared.value++
				if newVersion != nil {
					// Copy-on-write install: the displaced version goes
					// to the lock's deferred reclamation when it has one
					// (the retained-memory half of the age-frontier
					// probe), otherwise straight to the GC.
					old := shared.version
					shared.version = newVersion
					newVersion = nil
					if retirer != nil && old != nil {
						retirer.Retire(old, len(old))
					}
				}
				spin(cfg.CSWork, &sink)
				if cfg.MeasureAge {
					// Stamp last: the value's age starts when the
					// write is complete and about to become visible
					// at release.
					shared.stamp = int64(time.Since(start))
				}
			}

			// runOp performs operation i: the class draw, the sampled
			// clock stamps, the locked critical section, and the
			// histogram recording.  Under Churn it runs on a fresh
			// goroutine; the lane waits for it before the next op, so
			// the captured per-worker state (rng, sink, h) is still
			// touched by one goroutine at a time, with the lane
			// channel providing the happens-before edge.
			runOp := func(i int) {
				write := rng.Float64() >= cfg.ReadFraction
				sample := (i+phase)%cfg.SampleEvery == 0
				var t0 time.Time
				if sample {
					t0 = time.Now()
				}
				if write {
					wSample = sample
					if cfg.VersionBytes > 0 {
						// Prepare the new version OUTSIDE the lock — the
						// copy-on-write shape — so the allocation cost is
						// not charged to the critical section.
						newVersion = make([]byte, cfg.VersionBytes)
						newVersion[0] = byte(i)
					}
					if cl != nil {
						// Deadline-aware token path: the context's timer
						// is the per-op budget, stopped as soon as the
						// grant/shed race resolves.
						ctx, cancelOp := context.WithTimeout(context.Background(), cfg.WriteDeadline)
						tok, err := cl.LockCtx(ctx)
						cancelOp()
						if err != nil {
							shedOps.Add(1)
							return
						}
						writeCS()
						l.Unlock(tok)
					} else {
						rwlock.Write(l, writeCS)
					}
					writeOps.Add(1)
					if sample {
						tEnd := time.Now()
						h.writeWait.Record(wAcq.Sub(t0).Nanoseconds())
						h.writeHold.Record(tEnd.Sub(wAcq).Nanoseconds())
						h.writeTotal.Record(tEnd.Sub(t0).Nanoseconds())
					}
				} else {
					tok := l.RLock()
					var tAcq time.Time
					if sample {
						tAcq = time.Now()
					}
					_ = shared.value
					if shared.version != nil {
						_ = shared.version[0] // touch the current version
					}
					var age int64 = -1
					if sample && cfg.MeasureAge && shared.stamp != 0 {
						age = int64(time.Since(start)) - shared.stamp
					}
					spin(cfg.CSWork, &sink)
					l.RUnlock(tok)
					readOps.Add(1)
					if sample {
						tEnd := time.Now()
						h.readWait.Record(tAcq.Sub(t0).Nanoseconds())
						h.readHold.Record(tEnd.Sub(tAcq).Nanoseconds())
						h.readTotal.Record(tEnd.Sub(t0).Nanoseconds())
						if age >= 0 {
							h.age.Record(age)
						}
					}
				}
			}

			// lane is the churn handoff: one reusable channel per
			// worker, so churning allocates a goroutine per op but
			// nothing else.
			var lane chan struct{}
			if cfg.Churn {
				lane = make(chan struct{}, 1)
			}
			for i := 0; i < cfg.OpsPerWorker; i++ {
				if cfg.Churn {
					op := i
					go func() {
						runOp(op)
						lane <- struct{}{}
					}()
					<-lane
				} else {
					runOp(i)
				}
				spin(cfg.ThinkWork, &sink)
				if cfg.Yield {
					runtime.Gosched()
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	res := &Result{
		Elapsed:      elapsed,
		ReadOps:      readOps.Load(),
		WriteOps:     writeOps.Load(),
		ShedOps:      shedOps.Load(),
		ReadWaitNs:   new(stats.Histogram),
		ReadHoldNs:   new(stats.Histogram),
		ReadTotalNs:  new(stats.Histogram),
		WriteWaitNs:  new(stats.Histogram),
		WriteHoldNs:  new(stats.Histogram),
		WriteTotalNs: new(stats.Histogram),
	}
	if cfg.MeasureAge {
		res.AgeNs = new(stats.Histogram)
	}
	for _, h := range hists {
		res.ReadWaitNs.Merge(&h.readWait)
		res.ReadHoldNs.Merge(&h.readHold)
		res.ReadTotalNs.Merge(&h.readTotal)
		res.WriteWaitNs.Merge(&h.writeWait)
		res.WriteHoldNs.Merge(&h.writeHold)
		res.WriteTotalNs.Merge(&h.writeTotal)
		if res.AgeNs != nil {
			res.AgeNs.Merge(&h.age)
		}
	}
	return res
}
