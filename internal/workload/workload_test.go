package workload

import (
	"testing"
	"time"

	"rwsync/rwlock"
)

func TestRunMixedCounts(t *testing.T) {
	res := Run(rwlock.NewMWSF(), Config{
		Workers:      4,
		ReadFraction: 0.5,
		OpsPerWorker: 1000,
		Seed:         1,
	})
	total := res.ReadOps + res.WriteOps
	if total != 4000 {
		t.Fatalf("total ops = %d, want 4000", total)
	}
	// With fraction 0.5 and 4000 ops, both classes must be amply
	// represented (binomial tail bounds make <1200 astronomically
	// unlikely with a fixed seed this is deterministic anyway).
	if res.ReadOps < 1200 || res.WriteOps < 1200 {
		t.Fatalf("implausible split: %d reads / %d writes", res.ReadOps, res.WriteOps)
	}
	if res.Elapsed <= 0 {
		t.Fatal("elapsed not measured")
	}
	if res.Throughput() <= 0 {
		t.Fatal("throughput not computed")
	}
}

func TestRunDedicated(t *testing.T) {
	res := Run(rwlock.NewMWWP(), Config{
		Workers:          5,
		DedicatedWriters: 2,
		OpsPerWorker:     500,
		Seed:             3,
	})
	if res.WriteOps != 2*500 {
		t.Fatalf("write ops = %d, want 1000", res.WriteOps)
	}
	if res.ReadOps != 3*500 {
		t.Fatalf("read ops = %d, want 1500", res.ReadOps)
	}
}

func TestRunChurn(t *testing.T) {
	// Churn mode: every op on a fresh goroutine.  Counts, sampling and
	// the seeded op mix must be identical to the non-churn run — only
	// the goroutine identity of each passage changes.  The shared cell
	// is a plain int mutated by every one-shot writer, so -race checks
	// that the handoff between short-lived goroutines preserves
	// exclusion.
	cfg := Config{
		Workers:      8,
		ReadFraction: 0.25,
		OpsPerWorker: 150, // 1200 distinct goroutines
		Seed:         5,
		SampleEvery:  1,
	}
	churn := cfg
	churn.Churn = true
	a := Run(rwlock.NewMWSF(), cfg)
	b := Run(rwlock.NewMWSF(), churn)
	if a.ReadOps != b.ReadOps || a.WriteOps != b.WriteOps {
		t.Fatalf("churn changed the op mix: %d/%d vs %d/%d",
			a.ReadOps, a.WriteOps, b.ReadOps, b.WriteOps)
	}
	if total := b.ReadOps + b.WriteOps; total != 8*150 {
		t.Fatalf("churn total ops = %d, want 1200", total)
	}
	if b.WriteWaitNs.N() != b.WriteOps || b.ReadWaitNs.N() != b.ReadOps {
		t.Fatalf("churn lost samples: %d/%d waits for %d/%d ops",
			b.ReadWaitNs.N(), b.WriteWaitNs.N(), b.ReadOps, b.WriteOps)
	}
}

func TestRunReadOnlyAndWriteOnly(t *testing.T) {
	ro := Run(rwlock.NewMWRP(), Config{Workers: 2, ReadFraction: 1.0, OpsPerWorker: 200, Seed: 1})
	if ro.WriteOps != 0 || ro.ReadOps != 400 {
		t.Fatalf("read-only run: %d reads / %d writes", ro.ReadOps, ro.WriteOps)
	}
	wo := Run(rwlock.NewMWSF(), Config{Workers: 2, ReadFraction: 0.0, OpsPerWorker: 200, Seed: 1})
	if wo.ReadOps != 0 || wo.WriteOps != 400 {
		t.Fatalf("write-only run: %d reads / %d writes", wo.ReadOps, wo.WriteOps)
	}
}

func TestLatencySampling(t *testing.T) {
	res := Run(rwlock.NewCentralizedRW(), Config{
		Workers:      2,
		ReadFraction: 0.5,
		OpsPerWorker: 1000,
		SampleEvery:  1,
		Seed:         9,
	})
	if res.ReadTotalNs.N() == 0 || res.WriteTotalNs.N() == 0 {
		t.Fatalf("no latency samples: read n=%d write n=%d", res.ReadTotalNs.N(), res.WriteTotalNs.N())
	}
	if res.ReadTotalNs.N()+res.WriteTotalNs.N() != 2000 {
		t.Fatalf("SampleEvery=1 must sample every op; got %d", res.ReadTotalNs.N()+res.WriteTotalNs.N())
	}
}

func TestDefaultsApplied(t *testing.T) {
	res := Run(rwlock.NewRWMutexLock(), Config{Seed: 1, ReadFraction: 1.0})
	if res.ReadOps+res.WriteOps != 1000 { // 1 worker x 1000 default ops
		t.Fatalf("defaults not applied: %d ops", res.ReadOps+res.WriteOps)
	}
}

func TestDurationOverridesOps(t *testing.T) {
	res := Run(rwlock.NewMWSF(), Config{
		Workers:      8,
		ReadFraction: 0.9,
		Duration:     30 * time.Millisecond,
		OpsPerWorker: 1, // must be ignored in duration mode
		Seed:         1,
	})
	if total := res.ReadOps + res.WriteOps; total <= 8 {
		t.Fatalf("duration mode stopped after the op budget: %d ops", total)
	}
	if res.Elapsed < 30*time.Millisecond {
		t.Fatalf("run ended before the deadline: %v", res.Elapsed)
	}
	if res.Throughput() <= 0 {
		t.Fatal("throughput not computed")
	}
}

// TestDurationRunsOneOpPerWorker: a deadline shorter than the time it
// takes to start the workers must still leave every worker one
// completed operation, so a duration-mode point never reports zero
// ops/s.  Both runners share the deadline loop.
func TestDurationRunsOneOpPerWorker(t *testing.T) {
	const workers = 8
	for seed := int64(1); seed <= 20; seed++ {
		r := Run(rwlock.NewMWSF(), Config{
			Workers:      workers,
			ReadFraction: 0.9,
			Duration:     time.Microsecond,
			Seed:         seed,
		})
		if got := r.ReadOps + r.WriteOps; got < workers {
			t.Fatalf("seed %d: Run did %d ops with %d workers", seed, got, workers)
		}
		if r.Throughput() <= 0 {
			t.Fatalf("seed %d: Run throughput %v", seed, r.Throughput())
		}
		s := RunSharded(ShardedConfig{
			Workers:      workers,
			ReadFraction: 0.9,
			Duration:     time.Microsecond,
			Stripes:      4,
			Keys:         64,
			Seed:         seed,
		})
		if got := s.ReadOps + s.WriteOps; got < workers {
			t.Fatalf("seed %d: RunSharded did %d ops with %d workers", seed, got, workers)
		}
	}
}

func TestWaitHoldSplit(t *testing.T) {
	res := Run(rwlock.NewMWSF(), Config{
		Workers:      2,
		ReadFraction: 0.5,
		OpsPerWorker: 2000,
		SampleEvery:  1,
		CSWork:       256, // make hold time clearly nonzero
		Seed:         5,
	})
	for name, h := range map[string]struct {
		wait, hold, total interface{ N() int64 }
	}{
		"read":  {res.ReadWaitNs, res.ReadHoldNs, res.ReadTotalNs},
		"write": {res.WriteWaitNs, res.WriteHoldNs, res.WriteTotalNs},
	} {
		if h.wait.N() == 0 || h.hold.N() == 0 || h.total.N() == 0 {
			t.Fatalf("%s histograms empty: wait=%d hold=%d total=%d",
				name, h.wait.N(), h.hold.N(), h.total.N())
		}
		if h.wait.N() != h.total.N() || h.hold.N() != h.total.N() {
			t.Fatalf("%s sample counts disagree: wait=%d hold=%d total=%d",
				name, h.wait.N(), h.hold.N(), h.total.N())
		}
	}
	// Total must dominate each component (they are the same op's
	// split timings), at least in aggregate.
	if res.ReadTotalNs.Mean() < res.ReadWaitNs.Mean() ||
		res.ReadTotalNs.Mean() < res.ReadHoldNs.Mean() {
		t.Fatalf("total mean %.0f below a component (wait %.0f hold %.0f)",
			res.ReadTotalNs.Mean(), res.ReadWaitNs.Mean(), res.ReadHoldNs.Mean())
	}
	// The Total histogram's summary agrees with the histogram.
	if s := res.ReadTotalNs.Summary(); s.N != int(res.ReadTotalNs.N()) || s.Max != res.ReadTotalNs.Max() {
		t.Fatalf("Total summary diverged from its histogram: %+v vs n=%d max=%d",
			s, res.ReadTotalNs.N(), res.ReadTotalNs.Max())
	}
}

func TestAgeProbe(t *testing.T) {
	res := Run(rwlock.NewMWWP(), Config{
		Workers:          4,
		DedicatedWriters: 1,
		OpsPerWorker:     2000,
		SampleEvery:      1,
		MeasureAge:       true,
		// Yield keeps the probe deterministic on a single P: without
		// it a reader can drain its whole op budget inside one
		// scheduler quantum, finishing before the dedicated writer's
		// first stamp — and an age histogram with zero samples is a
		// scheduling artifact, not a probe failure.
		Yield: true,
		Seed:  7,
	})
	if res.AgeNs == nil || res.AgeNs.N() == 0 {
		t.Fatal("age probe recorded nothing")
	}
	// Ages are sane: non-negative (clamped) and bounded by the run.
	if res.AgeNs.Max() > res.Elapsed.Nanoseconds() {
		t.Fatalf("observed age %d exceeds run duration %d",
			res.AgeNs.Max(), res.Elapsed.Nanoseconds())
	}
	off := Run(rwlock.NewMWWP(), Config{
		Workers: 2, ReadFraction: 0.5, OpsPerWorker: 200, Seed: 7,
	})
	if off.AgeNs != nil {
		t.Fatal("age histogram present without MeasureAge")
	}
}

func TestBurstyWriters(t *testing.T) {
	res := Run(rwlock.NewMWSF(), Config{
		Workers:          3,
		DedicatedWriters: 1,
		OpsPerWorker:     600,
		WriterBurstLen:   8,
		WriterBurstPause: 64,
		SampleEvery:      1,
		Seed:             2,
	})
	if res.WriteOps != 600 || res.ReadOps != 2*600 {
		t.Fatalf("burst shape changed the op budget: %d writes / %d reads",
			res.WriteOps, res.ReadOps)
	}
	if res.WriteWaitNs.N() != 600 {
		t.Fatalf("burst writer samples = %d, want 600", res.WriteWaitNs.N())
	}
}

func TestDeterministicMixWithSeed(t *testing.T) {
	cfg := Config{Workers: 3, ReadFraction: 0.7, OpsPerWorker: 500, Seed: 42}
	a := Run(rwlock.NewMWSF(), cfg)
	b := Run(rwlock.NewMWSF(), cfg)
	if a.ReadOps != b.ReadOps || a.WriteOps != b.WriteOps {
		t.Fatalf("same seed produced different mixes: (%d,%d) vs (%d,%d)",
			a.ReadOps, a.WriteOps, b.ReadOps, b.WriteOps)
	}
}

// TestRunWritesUseClosurePath: the workload's writes must go through
// the lock's closure write path (rwlock.Write) — on a combining lock
// every write passage then shows up in the combiner's op count.  If a
// refactor reverted runOp to token-path Lock/Unlock, combining would
// silently disengage and the combine scenarios would measure nothing;
// this pins the seam.
func TestRunWritesUseClosurePath(t *testing.T) {
	l := rwlock.NewMWSF(rwlock.WithCombiningWriters())
	res := Run(l, Config{
		Workers:      4,
		ReadFraction: 0.5,
		OpsPerWorker: 400,
		SampleEvery:  1,
		Seed:         3,
		MeasureAge:   true,
	})
	st, ok := rwlock.CombinerStatsOf(l)
	if !ok {
		t.Fatal("combining lock reports no combiner stats")
	}
	if st.Ops != res.WriteOps {
		t.Fatalf("combiner retired %d ops, workload wrote %d — writes bypassed the closure path",
			st.Ops, res.WriteOps)
	}
	if res.WriteWaitNs.N() != res.WriteOps {
		t.Fatalf("write samples = %d, want %d (acquire stamp lost on the combined path)",
			res.WriteWaitNs.N(), res.WriteOps)
	}
}
