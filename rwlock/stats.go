package rwlock

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"rwsync/internal/stats"
)

// Per-lock runtime observability: the WithStats seam.
//
// Every layer of the stack already keeps SOME counters (EpochStats
// under the arbitration mutex, CombinerStats under the inner mutex),
// but those are "read at quiescence" — correct for benchmarks, useless
// for a live scrape.  LockStats is the always-coherent counterpart: a
// cache-padded block of independent atomic words a deployed service
// can snapshot at any instant while traffic is running.  BRAVO's own
// evaluation (arXiv:1810.01553) leans on exactly these per-lock
// statistics — revocation rates, fast-path hit ratios — to explain
// its behavior; this seam makes them observable in production, not
// just in the paper.
//
// The contract that keeps the seam honest: a lock built WITHOUT
// WithStats pays nothing.  Every instrumented site is guarded by a
// single nil-pointer check on a field that is nil by default, so the
// disabled path is the pre-instrumentation path plus one predictable
// branch (pinned by TestStatsDisabledZeroAlloc and the A/B benchmark
// BenchmarkStatsOverhead).  The enabled path pays one atomic add per
// counted event — measured and documented in the README, not hidden.

// statsSampleEvery is the latency-histogram sampling cadence: one in
// every statsSampleEvery acquisitions (per LockStats block) records
// its wait — and, for writers, hold — duration.  Power of two so the
// sample test is a mask, the same economics as the workload package's
// DefaultSampleEvery.
const statsSampleEvery = 64

// LockStats is a per-lock block of atomic counters installed with
// WithStats.  Allocate one per lock (or deliberately share one block
// across several locks to aggregate them — every counter is a plain
// atomic add, so sharing sums), pass it at construction, and snapshot
// it at any time with Snapshot while traffic runs.
//
// Layout: counters are grouped by which side of the lock touches them
// — read-path, write-path, arbitration/waiting, reclamation — with
// cache-line padding between the groups, so a scrape or a writer
// burst does not invalidate the line the read fast path is adding to.
//
// Which layers feed which counters:
//
//   - Read/Write acquires + contended: the multi-writer lock layer
//     (and the Bravo/Epoch wrappers' fast paths, which count their
//     fast-path reads themselves; slow-path reads fall through to the
//     inner lock, which shares the same block when built from the
//     same option list — the sum is all reads, with no double count).
//   - TrySheds/CtxSheds: TryLock/TryRLock failures and
//     LockCtx/RLockCtx/WriteCtx cancellations, at the layer that
//     decided to shed.
//   - Revocations/ReArms: the Bravo wrapper (bias revoked by a
//     writer; bias re-armed by the slow-path budget).
//   - EpochAdvances/GraceWaits/Retired/Reclaimed/Retained*: the Epoch
//     wrapper (the live mirror of the quiescent EpochStats).
//   - QueueDepth/QueueDepthMax, WriteContended: the writer-arbitration
//     layer (MCS queue or Anderson array).
//   - Batches/BatchMax/CombinedOps: the flat-combining arbitration.
//   - Parks/Unparks: the waitCell layer — every cell owned by the
//     lock (core gates, MCS nodes, Anderson slots, combiner records)
//     counts actual goroutine parks.  Reader-table slots (Bravo's
//     table, the Slim arena) are excluded.
//
// The Slim locks (NewSlimBravo/NewSlimEpoch) do NOT implement the
// seam: their contract is a 16-byte footprint, and a stats pointer
// would double it.  Observe a Slim grid one level up, through
// rwmap.Map.Heatmap.
type LockStats struct {
	// Read-path line: bumped by every instrumented read acquisition.
	ReadAcquires  atomic.Uint64 // completed read passages
	ReadContended atomic.Uint64 // read passages that found their gate closed and waited
	sampleCtr     atomic.Uint64 // latency-sampling clock (both classes)
	_             [40]byte

	// Write-path line: bumped by write acquisitions and wrapper events.
	WriteAcquires  atomic.Uint64 // completed write passages (token and closure paths)
	WriteContended atomic.Uint64 // write acquisitions that waited at the arbitration layer
	TrySheds       atomic.Uint64 // TryLock/TryRLock attempts that reported busy
	CtxSheds       atomic.Uint64 // LockCtx/RLockCtx/WriteCtx attempts aborted by their context
	Revocations    atomic.Uint64 // Bravo read-bias revocations
	ReArms         atomic.Uint64 // Bravo read-bias re-arms (slow-path budget expiry)
	EpochAdvances  atomic.Uint64 // epoch global advances (one per writer entry)
	GraceWaits     atomic.Uint64 // grace periods waited out by writers

	// Arbitration/waiting line: queue geometry and parking traffic.
	QueueDepth    atomic.Int64  // writers currently holding or queued at the arbitration layer
	QueueDepthMax atomic.Uint64 // high-water mark of QueueDepth
	Batches       atomic.Uint64 // flat-combining batches retired
	BatchMax      atomic.Uint64 // largest batch retired
	CombinedOps   atomic.Uint64 // closure writes retired through combining batches
	Parks         atomic.Uint64 // goroutines that actually parked on an owned waitCell
	Unparks       atomic.Uint64 // parked goroutines that woke
	Stalls        atomic.Uint64 // stall-watchdog firings (see the rwstats package)

	// Reclamation line: epoch version accounting plus the watchdog's
	// grace register and the writer-hold sampling register.
	RetiredVersions     atomic.Uint64 // versions handed to Retire
	ReclaimedVersions   atomic.Uint64 // versions swept after their grace period
	RetainedVersionsMax atomic.Uint64 // high-water count of retired-not-yet-reclaimed versions
	RetainedBytesMax    atomic.Uint64 // high-water bytes of retired-not-yet-reclaimed versions
	GraceActiveNS       atomic.Int64  // UnixNano when the in-progress grace wait began; 0 when none
	holdStartNS         atomic.Int64  // sampled writer's hold-start stamp (write mode is exclusive)
	_                   [16]byte

	// Cold: sampled latency histograms, shared-mutex guarded — only
	// 1-in-statsSampleEvery passages reach them.
	mu        sync.Mutex
	readWait  stats.Histogram
	writeWait stats.Histogram
	writeHold stats.Histogram
}

// WithStats installs st as the lock's counter block.  The same block
// may be passed to several constructors to aggregate them.  Honored
// by every full lock in the package (the MW*/SW* locks, their
// Bravo/Epoch wrappers, and the arbitration variants); the 16-byte
// Slim locks do not take options and do not implement the seam.
func WithStats(st *LockStats) Option {
	return func(o *options) { o.stats = st }
}

// nowNanos is the sampling clock: wall-clock nanoseconds, read only
// on sampled (1-in-statsSampleEvery) passages and in watchdog-facing
// registers, never on the per-op path.
func nowNanos() int64 { return time.Now().UnixNano() }

// statsMax lifts c to at least v (the lock-free high-water update).
func statsMax(c *atomic.Uint64, v uint64) {
	for {
		old := c.Load()
		if v <= old || c.CompareAndSwap(old, v) {
			return
		}
	}
}

// sampleNow reports whether this acquisition should record latency.
func (s *LockStats) sampleNow() bool {
	return s.sampleCtr.Add(1)&(statsSampleEvery-1) == 0
}

func (s *LockStats) recordReadWait(ns int64) {
	s.mu.Lock()
	s.readWait.Record(ns)
	s.mu.Unlock()
}

func (s *LockStats) recordWriteWait(ns int64) {
	s.mu.Lock()
	s.writeWait.Record(ns)
	s.mu.Unlock()
}

func (s *LockStats) recordWriteHold(ns int64) {
	s.mu.Lock()
	s.writeHold.Record(ns)
	s.mu.Unlock()
}

// LatencySummary condenses one sampled latency histogram for export.
type LatencySummary struct {
	Count int64 `json:"count"`
	P50   int64 `json:"p50_ns"`
	P90   int64 `json:"p90_ns"`
	P99   int64 `json:"p99_ns"`
	Max   int64 `json:"max_ns"`
}

func summarize(h *stats.Histogram) LatencySummary {
	if h.N() == 0 {
		return LatencySummary{}
	}
	return LatencySummary{
		Count: h.N(),
		P50:   h.Quantile(0.50),
		P90:   h.Quantile(0.90),
		P99:   h.Quantile(0.99),
		Max:   h.Max(),
	}
}

// LockStatsSnapshot is a point-in-time copy of a LockStats block,
// safe to serialize.  Each counter is read with one atomic load — no
// torn 64-bit reads on any layout — so every individual value is
// exact, and because every counter is monotone (QueueDepth and
// GraceActiveNS excepted, both instantaneous gauges), a snapshot
// taken under traffic is a consistent lower bound: invariants like
// ReclaimedVersions <= RetiredVersions hold in every snapshot.
//
// The json tags are the field names of the "counters" object in
// rwbench -json -metrics output and of the rwstats exporters.
type LockStatsSnapshot struct {
	ReadAcquires   uint64 `json:"read_acquires"`
	ReadContended  uint64 `json:"read_contended"`
	WriteAcquires  uint64 `json:"write_acquires"`
	WriteContended uint64 `json:"write_contended"`
	TrySheds       uint64 `json:"try_sheds"`
	CtxSheds       uint64 `json:"ctx_sheds"`
	Revocations    uint64 `json:"revocations"`
	ReArms         uint64 `json:"re_arms"`
	EpochAdvances  uint64 `json:"epoch_advances"`
	GraceWaits     uint64 `json:"grace_waits"`

	QueueDepth    int64  `json:"queue_depth"`
	QueueDepthMax uint64 `json:"queue_depth_max"`
	Batches       uint64 `json:"batches"`
	BatchMax      uint64 `json:"batch_max"`
	CombinedOps   uint64 `json:"combined_ops"`
	Parks         uint64 `json:"parks"`
	Unparks       uint64 `json:"unparks"`
	Stalls        uint64 `json:"stalls"`

	RetiredVersions     uint64 `json:"retired_versions"`
	ReclaimedVersions   uint64 `json:"reclaimed_versions"`
	RetainedVersionsMax uint64 `json:"retained_versions_max"`
	RetainedBytesMax    uint64 `json:"retained_bytes_max"`

	ReadWait  LatencySummary `json:"read_wait"`
	WriteWait LatencySummary `json:"write_wait"`
	WriteHold LatencySummary `json:"write_hold"`
}

// Snapshot copies the block.  Safe to call at any time from any
// goroutine, including while the lock is under full traffic.
//
// Load order matters for mid-traffic coherence: for every invariant
// pair "subset <= superset" whose write sites increment the superset
// counter first (read contention, parking, reclamation, combining),
// the snapshot loads the SUBSET counter first.  With both orders
// fixed, those inequalities hold in every snapshot, not just at
// quiescence.
func (s *LockStats) Snapshot() LockStatsSnapshot {
	readContended := s.ReadContended.Load()
	unparks := s.Unparks.Load()
	reclaimed := s.ReclaimedVersions.Load()
	retainedVMax := s.RetainedVersionsMax.Load()
	retainedBMax := s.RetainedBytesMax.Load()
	batchMax := s.BatchMax.Load()
	batches := s.Batches.Load()
	snap := LockStatsSnapshot{
		ReadAcquires:   s.ReadAcquires.Load(),
		ReadContended:  readContended,
		WriteAcquires:  s.WriteAcquires.Load(),
		WriteContended: s.WriteContended.Load(),
		TrySheds:       s.TrySheds.Load(),
		CtxSheds:       s.CtxSheds.Load(),
		Revocations:    s.Revocations.Load(),
		ReArms:         s.ReArms.Load(),
		EpochAdvances:  s.EpochAdvances.Load(),
		GraceWaits:     s.GraceWaits.Load(),

		QueueDepth:    s.QueueDepth.Load(),
		QueueDepthMax: s.QueueDepthMax.Load(),
		Batches:       batches,
		BatchMax:      batchMax,
		CombinedOps:   s.CombinedOps.Load(),
		Parks:         s.Parks.Load(),
		Unparks:       unparks,
		Stalls:        s.Stalls.Load(),

		RetiredVersions:     s.RetiredVersions.Load(),
		ReclaimedVersions:   reclaimed,
		RetainedVersionsMax: retainedVMax,
		RetainedBytesMax:    retainedBMax,
	}
	s.mu.Lock()
	snap.ReadWait = summarize(&s.readWait)
	snap.WriteWait = summarize(&s.writeWait)
	snap.WriteHold = summarize(&s.writeHold)
	s.mu.Unlock()
	return snap
}

// CheckCoherence verifies the snapshot's cross-counter invariants.
// The full set is guaranteed at quiescence (no acquisition in
// flight); the harness asserts it after every instrumented scenario
// cell, so the instrumentation is itself tested.  A subset — the pairs
// whose write sites and Snapshot's load order are both arranged for
// it (reclaimed <= retired, unparks <= parks, read contention,
// batch accounting, quantile ordering) — additionally holds in every
// mid-traffic snapshot; the write-side invariants involving counters
// split across layers (e.g. write_contended, counted at the
// arbitration layer before the wrapper counts the acquisition) can be
// transiently ahead by the number of in-flight writers.
func (s *LockStatsSnapshot) CheckCoherence() error {
	sheds := s.TrySheds + s.CtxSheds
	if s.ReadContended > s.ReadAcquires+sheds {
		return fmt.Errorf("read_contended %d > read_acquires %d + sheds %d", s.ReadContended, s.ReadAcquires, sheds)
	}
	if s.WriteContended > s.WriteAcquires+sheds {
		return fmt.Errorf("write_contended %d > write_acquires %d + sheds %d", s.WriteContended, s.WriteAcquires, sheds)
	}
	// A revocation that sticks is followed by a write acquisition —
	// unless the attempt shed after revoking (ctx cancelled between
	// the revoke and the inner grant).
	if s.Revocations > s.WriteAcquires+sheds {
		return fmt.Errorf("revocations %d > write_acquires %d + sheds %d", s.Revocations, s.WriteAcquires, sheds)
	}
	if s.ReclaimedVersions > s.RetiredVersions {
		return fmt.Errorf("reclaimed_versions %d > retired_versions %d", s.ReclaimedVersions, s.RetiredVersions)
	}
	if s.RetainedVersionsMax > s.RetiredVersions {
		return fmt.Errorf("retained_versions_max %d > retired_versions %d", s.RetainedVersionsMax, s.RetiredVersions)
	}
	if s.GraceWaits > 0 && s.EpochAdvances == 0 {
		return fmt.Errorf("grace_waits %d with zero epoch_advances", s.GraceWaits)
	}
	if s.BatchMax > 0 && s.Batches == 0 {
		return fmt.Errorf("batch_max %d with zero batches", s.BatchMax)
	}
	if s.BatchMax > s.CombinedOps {
		return fmt.Errorf("batch_max %d > combined_ops %d", s.BatchMax, s.CombinedOps)
	}
	if s.Batches > s.CombinedOps {
		return fmt.Errorf("batches %d > combined_ops %d", s.Batches, s.CombinedOps)
	}
	if s.Unparks > s.Parks {
		return fmt.Errorf("unparks %d > parks %d", s.Unparks, s.Parks)
	}
	if s.QueueDepth < 0 {
		return fmt.Errorf("queue_depth %d < 0", s.QueueDepth)
	}
	if uint64(s.QueueDepth) > s.QueueDepthMax {
		return fmt.Errorf("queue_depth %d > queue_depth_max %d", s.QueueDepth, s.QueueDepthMax)
	}
	for _, h := range []struct {
		name string
		l    LatencySummary
	}{{"read_wait", s.ReadWait}, {"write_wait", s.WriteWait}, {"write_hold", s.WriteHold}} {
		if h.l.Count == 0 {
			if h.l.P50 != 0 || h.l.P99 != 0 || h.l.Max != 0 {
				return fmt.Errorf("%s: nonzero quantiles with zero count", h.name)
			}
			continue
		}
		if h.l.P50 > h.l.P90 || h.l.P90 > h.l.P99 || h.l.P99 > h.l.Max {
			return fmt.Errorf("%s: unordered quantiles p50=%d p90=%d p99=%d max=%d", h.name, h.l.P50, h.l.P90, h.l.P99, h.l.Max)
		}
	}
	return nil
}
