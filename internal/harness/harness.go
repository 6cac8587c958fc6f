package harness

import (
	"fmt"
	"sort"
	"time"

	"rwsync/internal/core"
	"rwsync/internal/stats"
	"rwsync/rwlock"
)

// RMRRow is one sweep point of an RMR experiment.
type RMRRow struct {
	Writers int
	Readers int
	// Reader and Writer summarize RMRs per completed attempt by role.
	Reader stats.Summary
	Writer stats.Summary
}

// rmrScenario routes the legacy build-function interface through the
// unified RunScenario core via SimShape's private build hook.
func rmrScenario(build func(writers, readers int) *core.System, points [][2]int, attempts int, seed int64, dsm bool) ([]RMRRow, error) {
	res, err := RunScenario(Scenario{
		Name: "rmr-sweep",
		Sim:  &SimShape{Points: points, Attempts: attempts, DSM: dsm, build: build},
	}, ScenarioOptions{Seed: seed})
	if err != nil {
		return nil, err
	}
	rows := make([]RMRRow, 0, len(res.Points))
	for _, p := range res.Points {
		rows = append(rows, RMRRow{
			Writers: p.Writers,
			Readers: p.Readers,
			Reader:  *p.ReaderRMR,
			Writer:  *p.WriterRMR,
		})
	}
	return rows, nil
}

// RMRSweep summarizes per-attempt RMR counts under the default
// cache-coherent memory model.
func RMRSweep(build func(writers, readers int) *core.System, points [][2]int, attempts int, seed int64) ([]RMRRow, error) {
	return rmrScenario(build, points, attempts, seed, false)
}

// RMRSweepDSM is RMRSweep under the DSM accounting model (experiment
// E9): variables are homed round-robin across the processes and there
// are no caches, so every spin iteration on a remote variable is
// charged.  The paper proves (via Danek & Hadzilacos's lower bound)
// that NO reader-writer algorithm with concurrent entering can be
// sublinear in this model; this sweep shows our CC-constant algorithms
// indeed lose their bound, i.e. the CC result is model-specific.
func RMRSweepDSM(build func(writers, readers int) *core.System, points [][2]int, attempts int, seed int64) ([]RMRRow, error) {
	return rmrScenario(build, points, attempts, seed, true)
}

// RMRTable formats sweep rows as a table: RMRs per passage by role.
func RMRTable(title string, rows []RMRRow) *stats.Table {
	t := stats.NewTable(title,
		"writers", "readers",
		"reader RMR mean", "reader RMR max",
		"writer RMR mean", "writer RMR max")
	for _, r := range rows {
		t.AddRow(
			fmt.Sprintf("%d", r.Writers),
			fmt.Sprintf("%d", r.Readers),
			fmt.Sprintf("%.1f", r.Reader.Mean),
			fmt.Sprintf("%d", r.Reader.Max),
			fmt.Sprintf("%.1f", r.Writer.Mean),
			fmt.Sprintf("%d", r.Writer.Max),
		)
	}
	return t
}

// SingleWriterPoints is the standard sweep for E1/E2: one writer,
// doubling readers.
func SingleWriterPoints() [][2]int {
	return [][2]int{{1, 1}, {1, 2}, {1, 4}, {1, 8}, {1, 16}, {1, 32}, {1, 64}}
}

// MultiWriterPoints is the standard sweep for E3: doubling both roles.
func MultiWriterPoints() [][2]int {
	return [][2]int{{1, 2}, {2, 2}, {2, 8}, {4, 8}, {4, 16}, {8, 32}, {8, 64}}
}

// Builders returns the named system constructors of every algorithm
// that participates in the RMR experiments.
func Builders() map[string]func(w, r int) *core.System {
	return map[string]func(w, r int) *core.System{
		"fig1-swwp": func(w, r int) *core.System {
			if w != 1 {
				panic("fig1 is single-writer")
			}
			return core.NewFig1System(r)
		},
		"fig2-swrp": func(w, r int) *core.System {
			if w != 1 {
				panic("fig2 is single-writer")
			}
			return core.NewFig2System(r)
		},
		"mwsf":        core.NewMWSFSystem,
		"mwrp":        core.NewMWRPSystem,
		"mwwp":        core.NewMWWPSystem,
		"centralized": core.NewCentralizedSystem,
		"pfticket":    core.NewPFTicketSystem,
		"taskfair":    core.NewTaskFairSystem,
		"tournament": func(w, r int) *core.System {
			return core.NewTournamentSystem(w + r)
		},
		"epoch-read": func(w, r int) *core.System {
			if w != 1 {
				panic("epoch-read is single-writer")
			}
			return core.NewEpochSystem(r)
		},
	}
}

// boundedWriters is the Anderson-array capacity of the registry's
// "/bounded" lock variants.  One constant for every sweep: sweeping
// the same lock with two different bounds silently compares two
// different memory layouts.  64 comfortably exceeds every worker
// count the classic experiments use, so in those grids the bounded
// variants measure the Anderson array itself, not its admission gate;
// the writer-churn scenario deliberately exceeds it so the gate shows
// up in the writer-wait tail.
const boundedWriters = 64

// NativeLocks returns the named native lock constructors used in the
// throughput and priority experiments.  The Bravo(...) entries wrap
// the paper's multi-writer locks in the BRAVO sharded reader fast path
// (arXiv:1810.01553), the repo's reader-scalability layer.  The
// "/park" entries are the same locks with the SpinThenPark wait
// strategy — the oversubscription configuration; sync.RWMutex needs
// no variant because its waiters always park in the runtime.  The
// multi-writer locks default to the unbounded MCS writer arbitration;
// the "/bounded" entries select the Anderson array capped at
// boundedWriters concurrent write attempts (rwlock.WithBoundedWriters)
// and the "/combine" entries select flat-combining arbitration
// (rwlock.WithCombiningWriters, batching over the MCS queue), so the
// registry exposes every writerMutex implementation.  The "/epoch"
// entries wrap the same cores in the epoch-stamped reader fast path
// (rwlock.NewEpoch* — zero shared-word RMWs per read passage, writers
// pay a grace wait); "/epoch/lazy8" and "/epoch/lazy64" stretch the
// version-reclaim cadence (rwlock.WithEpochReclaimEvery), the knob
// the age-frontier scenario sweeps.
//
// The serving-tier entries put the reader fast paths in their grid
// builds: "Bravo(MWSF)/shared" and "MWSF/epoch/shared" are the full
// wrappers on the package-default shared reader arena (the private
// per-lock table/registry is shed; see rwlock.WithSharedReaderTable),
// and "SlimBravo"/"SlimEpoch" are the 16-byte packed variants the
// 10^5–10^6-stripe serving maps are built from.
func NativeLocks() map[string]func() rwlock.RWLock { return NativeLocksWith() }

// NativeLocksWith is NativeLocks with extra options appended to every
// constructor — the seam the -metrics runs use to hand each measured
// cell's locks one rwlock.WithStats counter block.  Three registry
// rows sit outside the stats seam by design and silently ignore a
// WithStats extra: the Slim locks (a per-instance stats pointer would
// double the 16-byte footprint — observe a Slim grid through
// rwmap.Map.Heatmap instead), the classical baselines (they model the
// literature's algorithms, not this package's layers), and
// sync.RWMutex (no constructor options at all).  Their instrumented
// cells report an all-zero counter block.
func NativeLocksWith(extra ...rwlock.Option) map[string]func() rwlock.RWLock {
	park := rwlock.WithWaitStrategy(rwlock.SpinThenPark)
	bound := rwlock.WithBoundedWriters(boundedWriters)
	comb := rwlock.WithCombiningWriters()
	shared := rwlock.WithSharedReaderTable(rwlock.DefaultReaderTable())
	// opt appends the extras to a constructor's own options; the base
	// slice is a fresh vararg allocation per call, so the append never
	// aliases another constructor's options.
	opt := func(base ...rwlock.Option) []rwlock.Option { return append(base, extra...) }
	return map[string]func() rwlock.RWLock{
		"MWSF":               func() rwlock.RWLock { return rwlock.NewMWSF(opt()...) },
		"MWRP":               func() rwlock.RWLock { return rwlock.NewMWRP(opt()...) },
		"MWWP":               func() rwlock.RWLock { return rwlock.NewMWWP(opt()...) },
		"MWSF/park":          func() rwlock.RWLock { return rwlock.NewMWSF(opt(park)...) },
		"MWRP/park":          func() rwlock.RWLock { return rwlock.NewMWRP(opt(park)...) },
		"MWWP/park":          func() rwlock.RWLock { return rwlock.NewMWWP(opt(park)...) },
		"MWSF/bounded":       func() rwlock.RWLock { return rwlock.NewMWSF(opt(bound)...) },
		"MWRP/bounded":       func() rwlock.RWLock { return rwlock.NewMWRP(opt(bound)...) },
		"MWWP/bounded":       func() rwlock.RWLock { return rwlock.NewMWWP(opt(bound)...) },
		"MWSF/bounded/park":  func() rwlock.RWLock { return rwlock.NewMWSF(opt(bound, park)...) },
		"MWRP/bounded/park":  func() rwlock.RWLock { return rwlock.NewMWRP(opt(bound, park)...) },
		"MWWP/bounded/park":  func() rwlock.RWLock { return rwlock.NewMWWP(opt(bound, park)...) },
		"MWSF/combine":       func() rwlock.RWLock { return rwlock.NewMWSF(opt(comb)...) },
		"MWRP/combine":       func() rwlock.RWLock { return rwlock.NewMWRP(opt(comb)...) },
		"MWWP/combine":       func() rwlock.RWLock { return rwlock.NewMWWP(opt(comb)...) },
		"MWSF/combine/park":  func() rwlock.RWLock { return rwlock.NewMWSF(opt(comb, park)...) },
		"MWRP/combine/park":  func() rwlock.RWLock { return rwlock.NewMWRP(opt(comb, park)...) },
		"MWWP/combine/park":  func() rwlock.RWLock { return rwlock.NewMWWP(opt(comb, park)...) },
		"MWSF/epoch":         func() rwlock.RWLock { return rwlock.NewEpochMWSF(opt()...) },
		"MWRP/epoch":         func() rwlock.RWLock { return rwlock.NewEpochMWRP(opt()...) },
		"MWWP/epoch":         func() rwlock.RWLock { return rwlock.NewEpochMWWP(opt()...) },
		"MWSF/epoch/park":    func() rwlock.RWLock { return rwlock.NewEpochMWSF(opt(park)...) },
		"MWRP/epoch/park":    func() rwlock.RWLock { return rwlock.NewEpochMWRP(opt(park)...) },
		"MWWP/epoch/park":    func() rwlock.RWLock { return rwlock.NewEpochMWWP(opt(park)...) },
		"MWSF/epoch/lazy8":   func() rwlock.RWLock { return rwlock.NewEpochMWSF(opt(rwlock.WithEpochReclaimEvery(8))...) },
		"MWSF/epoch/lazy64":  func() rwlock.RWLock { return rwlock.NewEpochMWSF(opt(rwlock.WithEpochReclaimEvery(64))...) },
		"Bravo(MWSF)":        func() rwlock.RWLock { return rwlock.NewBravoMWSF(opt()...) },
		"Bravo(MWRP)":        func() rwlock.RWLock { return rwlock.NewBravoMWRP(opt()...) },
		"Bravo(MWWP)":        func() rwlock.RWLock { return rwlock.NewBravoMWWP(opt()...) },
		"Bravo(MWSF)/park":   func() rwlock.RWLock { return rwlock.NewBravoMWSF(opt(park)...) },
		"Bravo(MWRP)/park":   func() rwlock.RWLock { return rwlock.NewBravoMWRP(opt(park)...) },
		"Bravo(MWWP)/park":   func() rwlock.RWLock { return rwlock.NewBravoMWWP(opt(park)...) },
		"Bravo(MWSF)/shared": func() rwlock.RWLock { return rwlock.NewBravoMWSF(opt(shared)...) },
		"MWSF/epoch/shared":  func() rwlock.RWLock { return rwlock.NewEpochMWSF(opt(shared)...) },
		"SlimBravo":          func() rwlock.RWLock { return rwlock.NewSlimBravo(opt()...) },
		"SlimEpoch":          func() rwlock.RWLock { return rwlock.NewSlimEpoch(opt()...) },
		"CentralizedRW":      func() rwlock.RWLock { return rwlock.NewCentralizedRW(opt()...) },
		"CentralizedRW/park": func() rwlock.RWLock { return rwlock.NewCentralizedRW(opt(park)...) },
		"PhaseFairRW":        func() rwlock.RWLock { return rwlock.NewPhaseFairRW(opt()...) },
		"PhaseFairRW/park":   func() rwlock.RWLock { return rwlock.NewPhaseFairRW(opt(park)...) },
		"TaskFairRW":         func() rwlock.RWLock { return rwlock.NewTaskFairRW(opt()...) },
		"TaskFairRW/park":    func() rwlock.RWLock { return rwlock.NewTaskFairRW(opt(park)...) },
		"sync.RWMutex":       func() rwlock.RWLock { return rwlock.NewRWMutexLock() },
	}
}

// LockNames returns the canonical presentation order of the DEFAULT
// sweep: the spin-strategy locks, as before this PR.  The "/park"
// registry entries are opt-in (AllLockNames, or -locks on rwbench):
// doubling every default table would bury the spin-vs-spin
// comparisons the paper's experiments are about.
func LockNames() []string {
	return []string{
		"MWSF", "Bravo(MWSF)",
		"MWRP", "Bravo(MWRP)",
		"MWWP", "Bravo(MWWP)",
		"CentralizedRW", "PhaseFairRW", "TaskFairRW", "sync.RWMutex",
	}
}

// AllLockNames returns every registry entry in presentation order:
// each spin lock followed by its /park variant, with the multi-writer
// locks' bounded-arbitration ("/bounded") and flat-combining
// ("/combine") builds alongside.
func AllLockNames() []string {
	return []string{
		"MWSF", "MWSF/park", "MWSF/bounded", "MWSF/bounded/park",
		"MWSF/combine", "MWSF/combine/park",
		"MWSF/epoch", "MWSF/epoch/park", "MWSF/epoch/lazy8", "MWSF/epoch/lazy64",
		"MWSF/epoch/shared",
		"Bravo(MWSF)", "Bravo(MWSF)/park", "Bravo(MWSF)/shared",
		"SlimBravo", "SlimEpoch",
		"MWRP", "MWRP/park", "MWRP/bounded", "MWRP/bounded/park",
		"MWRP/combine", "MWRP/combine/park",
		"MWRP/epoch", "MWRP/epoch/park",
		"Bravo(MWRP)", "Bravo(MWRP)/park",
		"MWWP", "MWWP/park", "MWWP/bounded", "MWWP/bounded/park",
		"MWWP/combine", "MWWP/combine/park",
		"MWWP/epoch", "MWWP/epoch/park",
		"Bravo(MWWP)", "Bravo(MWWP)/park",
		"CentralizedRW", "CentralizedRW/park",
		"PhaseFairRW", "PhaseFairRW/park",
		"TaskFairRW", "TaskFairRW/park",
		"sync.RWMutex",
	}
}

// SortedLockNames returns every registry entry sorted lexically — the
// order for error listings and other lookup aids, where a reader is
// scanning for one name, not reading the families in presentation
// order.
func SortedLockNames() []string {
	names := AllLockNames()
	sort.Strings(names)
	return names
}

// OversubLockNames is the default lock set of the oversubscription
// sweep: each constant-RMR discipline spin vs park, with sync.RWMutex
// as the always-parking baseline.
func OversubLockNames() []string {
	return []string{
		"MWSF", "MWSF/park", "Bravo(MWSF)", "Bravo(MWSF)/park",
		"MWWP", "MWWP/park",
		"sync.RWMutex",
	}
}

// ChurnLockNames is the lock set of the writer-churn scenario: the
// unbounded MCS arbitration vs the bounded Anderson arbitration vs
// the flat combiner (all parking — the churn oversubscribes by
// construction) vs the runtime baseline.  All three writerMutex
// implementations over the same core, so the writer-wait tail
// isolates the arbitration layer.
func ChurnLockNames() []string {
	return []string{
		"MWSF/park", "MWSF/bounded/park", "MWSF/combine/park",
		"sync.RWMutex",
	}
}

// SelectLockNames validates and canonicalizes a lock-name subset: it
// returns the requested names in AllLockNames order, or an error
// naming the unknown entry.  An empty request selects the default
// (spin) locks.
func SelectLockNames(requested []string) ([]string, error) {
	if len(requested) == 0 {
		return LockNames(), nil
	}
	want := make(map[string]bool, len(requested))
	for _, name := range requested {
		want[name] = true
	}
	var out []string
	for _, name := range AllLockNames() {
		if want[name] {
			out = append(out, name)
			delete(want, name)
		}
	}
	for name := range want {
		return nil, fmt.Errorf("unknown lock %q (have %v)", name, SortedLockNames())
	}
	return out, nil
}

// ThroughputPoint is one cell of the E7 (and oversubscription)
// experiments.  The json tags are the rwbench -json schema.
type ThroughputPoint struct {
	Lock         string  `json:"lock"`
	Workers      int     `json:"workers"`
	ReadFraction float64 `json:"read_fraction"`
	OpsPerSec    float64 `json:"ops_per_sec"`
}

// ThroughputSweep measures ops/sec for every lock at every (workers,
// readFraction) point.
func ThroughputSweep(workers []int, fractions []float64, opsPerWorker int, seed int64) []ThroughputPoint {
	return ThroughputSweepLocks(LockNames(), workers, fractions, opsPerWorker, seed)
}

// ThroughputSweepLocks is ThroughputSweep restricted to the named
// locks (names as in AllLockNames; see SelectLockNames for
// validation).  It is a thin adapter over the unified RunScenario
// core: the "throughput" registry entry with the caller's grids.
func ThroughputSweepLocks(names []string, workers []int, fractions []float64, opsPerWorker int, seed int64) []ThroughputPoint {
	sc := mustScenario("throughput")
	sc.Locks = names
	sc.Workers = workers
	sc.ReadFractions = fractions
	sc.OpsPerWorker = opsPerWorker
	return throughputPoints(mustRun(sc, ScenarioOptions{Seed: seed}))
}

// mustScenario and mustRun back the legacy sweep adapters, whose
// signatures predate error returns: a bad lock name or a missing
// registry entry must stay a loud failure (it used to be a nil-map
// panic), not a silently empty sweep.
func mustScenario(name string) Scenario {
	sc, ok := ScenarioByName(name)
	if !ok {
		panic("harness: scenario " + name + " not registered")
	}
	return sc
}

func mustRun(sc Scenario, opts ScenarioOptions) *ScenarioResult {
	res, err := RunScenario(sc, opts)
	if err != nil {
		panic("harness: " + err.Error())
	}
	return res
}

// throughputPoints projects scenario points to the legacy
// ThroughputPoint shape.
func throughputPoints(res *ScenarioResult) []ThroughputPoint {
	out := make([]ThroughputPoint, 0, len(res.Points))
	for _, p := range res.Points {
		out = append(out, ThroughputPoint{
			Lock: p.Lock, Workers: p.Workers, ReadFraction: p.ReadFraction, OpsPerSec: p.OpsPerSec,
		})
	}
	return out
}

// OversubscribedSweepLocks measures ops/sec for the named locks with
// workers ≫ GOMAXPROCS, each point running for a fixed duration
// (duration-based because oversubscribed workers finish fixed op
// budgets at wildly different times).  The caller is expected to have
// pinned GOMAXPROCS (rwbench's -oversub does; BenchmarkOversubscribed
// does) — the sweep itself only shapes the workload.
func OversubscribedSweepLocks(names []string, workers []int, fractions []float64, d time.Duration, seed int64) []ThroughputPoint {
	sc := mustScenario("oversub")
	sc.Locks = names
	sc.Workers = workers
	sc.ReadFractions = fractions
	sc.Duration = d
	sc.GOMAXPROCS = 0 // this legacy entry point leaves pinning to the caller
	return throughputPoints(mustRun(sc, ScenarioOptions{Seed: seed}))
}

// ThroughputTable formats E7 results, one row per (workers, fraction),
// one column per lock that appears in pts (in LockNames order).
func ThroughputTable(title string, pts []ThroughputPoint) *stats.Table {
	present := make(map[string]bool)
	for _, p := range pts {
		present[p.Lock] = true
	}
	var names []string
	for _, name := range AllLockNames() {
		if present[name] {
			names = append(names, name)
		}
	}
	headers := append([]string{"workers", "read%"}, names...)
	t := stats.NewTable(title, headers...)
	type key struct {
		w int
		f float64
	}
	cells := make(map[key]map[string]float64)
	var order []key
	for _, p := range pts {
		k := key{p.Workers, p.ReadFraction}
		if cells[k] == nil {
			cells[k] = make(map[string]float64)
			order = append(order, k)
		}
		cells[k][p.Lock] = p.OpsPerSec
	}
	for _, k := range order {
		row := []string{fmt.Sprintf("%d", k.w), fmt.Sprintf("%.0f", k.f*100)}
		for _, name := range names {
			row = append(row, fmt.Sprintf("%.0f", cells[k][name]))
		}
		t.AddRow(row...)
	}
	return t
}

// PriorityPoint is one cell of the E8 experiment: latency of the
// minority class under a storm of the majority class.  The json tags
// are the rwbench -json schema.
type PriorityPoint struct {
	Lock        string  `json:"lock"`
	WriteP50Ns  int64   `json:"write_p50_ns"`
	WriteP99Ns  int64   `json:"write_p99_ns"`
	ReadP50Ns   int64   `json:"read_p50_ns"`
	ReadP99Ns   int64   `json:"read_p99_ns"`
	WriterShare float64 `json:"writer_share"` // fraction of completed ops that were writes
}

// PrioritySweep runs one dedicated writer against readerCount readers
// per lock and reports both classes' latency distributions.  Under
// MWWP the writer's tail latency should stay low even under the
// storm; under MWRP the readers' should.
func PrioritySweep(readerCount, opsPerWorker int, seed int64) []PriorityPoint {
	return PrioritySweepLocks(LockNames(), readerCount, opsPerWorker, seed)
}

// PrioritySweepLocks is PrioritySweep restricted to the named locks.
// Another RunScenario adapter: the "priority" registry entry with the
// caller's reader count and op budget.
func PrioritySweepLocks(names []string, readerCount, opsPerWorker int, seed int64) []PriorityPoint {
	sc := mustScenario("priority")
	sc.Locks = names
	sc.Workers = []int{readerCount + 1}
	sc.OpsPerWorker = opsPerWorker
	res := mustRun(sc, ScenarioOptions{Seed: seed})
	out := make([]PriorityPoint, 0, len(res.Points))
	for _, p := range res.Points {
		total := p.ReadOps + p.WriteOps
		share := 0.0
		if total > 0 {
			share = float64(p.WriteOps) / float64(total)
		}
		pp := PriorityPoint{Lock: p.Lock, WriterShare: share}
		if p.WriteTotal != nil {
			pp.WriteP50Ns, pp.WriteP99Ns = p.WriteTotal.P50, p.WriteTotal.P99
		}
		if p.ReadTotal != nil {
			pp.ReadP50Ns, pp.ReadP99Ns = p.ReadTotal.P50, p.ReadTotal.P99
		}
		out = append(out, pp)
	}
	return out
}

// PriorityTable formats E8 results.
func PriorityTable(title string, pts []PriorityPoint) *stats.Table {
	t := stats.NewTable(title, "lock", "write p50 ns", "write p99 ns", "read p50 ns", "read p99 ns")
	for _, p := range pts {
		t.AddRow(p.Lock,
			fmt.Sprintf("%d", p.WriteP50Ns),
			fmt.Sprintf("%d", p.WriteP99Ns),
			fmt.Sprintf("%d", p.ReadP50Ns),
			fmt.Sprintf("%d", p.ReadP99Ns),
		)
	}
	return t
}
