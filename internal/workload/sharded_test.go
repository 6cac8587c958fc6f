package workload

import (
	"testing"

	"rwsync/rwlock"
)

// TestRunShardedCounts: the op accounting adds up, the map really
// absorbs the writes (total counter mass == WriteOps), and the skew
// shows: under s=1.5 the hot key must attract far more than a
// uniform share of reads.
func TestRunShardedCounts(t *testing.T) {
	cfg := ShardedConfig{
		Workers:      4,
		ReadFraction: 0.9,
		OpsPerWorker: 2000,
		Stripes:      64,
		Keys:         1024,
		ZipfS:        1.5,
		Seed:         2,
		SampleEvery:  1,
	}
	res := RunSharded(cfg)
	total := res.ReadOps + res.WriteOps
	if total != int64(cfg.Workers*cfg.OpsPerWorker) {
		t.Fatalf("ops = %d, want %d", total, cfg.Workers*cfg.OpsPerWorker)
	}
	if res.ReadOps == 0 || res.WriteOps == 0 {
		t.Fatalf("degenerate mix: reads=%d writes=%d", res.ReadOps, res.WriteOps)
	}
	// Uniform share of rank 0 would be ReadOps/Keys; s=1.5 over 1024
	// keys gives the head ~38% of the mass.  10x uniform is a loose
	// floor that still catches a broken sampler or key mapping.
	if res.HotReadOps < 10*res.ReadOps/int64(cfg.Keys) {
		t.Errorf("hot key drew %d of %d reads — no skew visible", res.HotReadOps, res.ReadOps)
	}
	if res.ReadWaitNs.N() != res.ReadOps || res.WriteWaitNs.N() != res.WriteOps {
		t.Errorf("sample counts (r=%d w=%d) disagree with op counts (r=%d w=%d)",
			res.ReadWaitNs.N(), res.WriteWaitNs.N(), res.ReadOps, res.WriteOps)
	}
	if res.HotReadThroughput() <= 0 {
		t.Error("hot-read throughput not positive")
	}
}

// TestRunShardedFactories: the grid runs over each of the serving-tier
// lock builds, including the combining build whose stripe writes must
// batch through the closure path.  Under -race this is also the
// cross-stripe exclusion check.
func TestRunShardedFactories(t *testing.T) {
	for name, f := range map[string]func() rwlock.RWLock{
		"SlimBravo":    func() rwlock.RWLock { return rwlock.NewSlimBravo() },
		"SlimEpoch":    func() rwlock.RWLock { return rwlock.NewSlimEpoch() },
		"Bravo(MWSF)":  func() rwlock.RWLock { return rwlock.NewBravoMWSF() },
		"sync.RWMutex": func() rwlock.RWLock { return rwlock.NewRWMutexLock() },
	} {
		t.Run(name, func(t *testing.T) {
			res := RunSharded(ShardedConfig{
				Workers:      4,
				ReadFraction: 0.8,
				OpsPerWorker: 500,
				Stripes:      16,
				Keys:         256,
				ZipfS:        1.07,
				MixedOps:     true,
				Seed:         5,
				LockFactory:  f,
			})
			if res.ReadOps+res.WriteOps != 2000 {
				t.Fatalf("ops = %d, want 2000", res.ReadOps+res.WriteOps)
			}
		})
	}
}

// TestRunShardedAgeProbe: with the hot-key age probe on, sampled hot
// reads that observed a written cell must record ages; without it
// AgeNs stays nil.
func TestRunShardedAgeProbe(t *testing.T) {
	cfg := ShardedConfig{
		Workers:      4,
		ReadFraction: 0.7,
		OpsPerWorker: 3000,
		Stripes:      4,
		Keys:         8, // tiny space: the hot key is written constantly
		ZipfS:        1.07,
		Seed:         9,
		SampleEvery:  1,
		MeasureAge:   true,
	}
	res := RunSharded(cfg)
	if res.AgeNs == nil || res.AgeNs.N() == 0 {
		t.Fatal("age probe on, but no hot-key ages recorded")
	}
	cfg.MeasureAge = false
	if res = RunSharded(cfg); res.AgeNs != nil {
		t.Fatal("age histogram allocated with the probe off")
	}
}

// TestRunShardedDeterministicMix: same seed, same op split — the
// property BENCH reproduction rests on.
func TestRunShardedDeterministicMix(t *testing.T) {
	cfg := ShardedConfig{
		Workers:      3,
		ReadFraction: 0.6,
		OpsPerWorker: 1000,
		Stripes:      8,
		Keys:         128,
		ZipfS:        1.07,
		Seed:         21,
	}
	a, b := RunSharded(cfg), RunSharded(cfg)
	if a.ReadOps != b.ReadOps || a.WriteOps != b.WriteOps || a.HotReadOps != b.HotReadOps {
		t.Fatalf("same seed diverged: (%d,%d,%d) vs (%d,%d,%d)",
			a.ReadOps, a.WriteOps, a.HotReadOps, b.ReadOps, b.WriteOps, b.HotReadOps)
	}
}
