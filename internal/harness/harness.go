package harness

import (
	"fmt"
	"sort"

	"rwsync/internal/core"
	"rwsync/internal/stats"
	"rwsync/rwlock"
)

// RMRTable formats simulator points as a table: RMRs per passage by
// role, one row per (writers, readers) point.  cmd/rmrbench renders
// each experiment's one-system scenario with it.
func RMRTable(title string, pts []ScenarioPoint) *stats.Table {
	t := stats.NewTable(title,
		"writers", "readers",
		"reader RMR mean", "reader RMR max",
		"writer RMR mean", "writer RMR max")
	for _, p := range pts {
		t.AddRow(
			fmt.Sprintf("%d", p.Writers),
			fmt.Sprintf("%d", p.Readers),
			fmt.Sprintf("%.1f", p.ReaderRMR.Mean),
			fmt.Sprintf("%d", p.ReaderRMR.Max),
			fmt.Sprintf("%.1f", p.WriterRMR.Mean),
			fmt.Sprintf("%d", p.WriterRMR.Max),
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
// different memory layouts.  64 exceeds the age-frontier and
// zipf-grid worker counts, so there the bounded variant measures the
// Anderson array itself, not its admission gate; the churn scenarios'
// 256 lanes deliberately exceed it so the gate shows up in the
// writer-wait tail.
const boundedWriters = 64

// NativeLocks returns the named native lock constructors every native
// scenario sweeps.  The Bravo(...) entries wrap the paper's
// multi-writer locks in the BRAVO sharded reader fast path
// (arXiv:1810.01553), the repo's reader-scalability layer.  Every
// entry waits the package's one way (spin briefly, then park).  The
// multi-writer locks default to the unbounded MCS writer arbitration;
// "MWSF/bounded" selects the Anderson array capped at boundedWriters
// concurrent write attempts (rwlock.WithBoundedWriters) and
// "MWSF/combine" selects flat-combining arbitration
// (rwlock.WithCombiningWriters, batching over the MCS queue), so the
// registry exposes every writerMutex implementation over one core —
// the arbitration scenarios (ChurnLockNames) compare them there.  The
// "/epoch" entries wrap the three multi-writer locks in the
// epoch-stamped reader fast path (rwlock.NewEpoch* — zero shared-word
// RMWs per read passage, writers pay a grace wait).
//
// The serving-tier entries "SlimBravo"/"SlimEpoch" are the 16-byte
// packed variants of the two reader fast paths, which publish in the
// rwlock package's one reader arena; the 10^5–10^6-stripe serving
// maps are built from them.
func NativeLocks() map[string]func() rwlock.RWLock { return NativeLocksWith() }

// NativeLocksWith is NativeLocks with extra options appended to every
// constructor — the seam the -metrics runs use to hand each measured
// cell's locks one rwlock.WithStats counter block.  Some registry
// rows sit outside the stats seam by design: the Slim locks (a
// per-instance stats pointer would double the 16-byte footprint —
// observe a Slim grid through rwmap.Map.Heatmap instead), the
// classical baselines (they model the literature's algorithms, not
// this package's layers) and sync.RWMutex take no constructor options
// at all.  Their instrumented cells report an all-zero counter block.
func NativeLocksWith(extra ...rwlock.Option) map[string]func() rwlock.RWLock {
	bound := rwlock.WithBoundedWriters(boundedWriters)
	comb := rwlock.WithCombiningWriters()
	// opt appends the extras to a constructor's own options; the base
	// slice is a fresh vararg allocation per call, so the append never
	// aliases another constructor's options.
	opt := func(base ...rwlock.Option) []rwlock.Option { return append(base, extra...) }
	return map[string]func() rwlock.RWLock{
		"MWSF":          func() rwlock.RWLock { return rwlock.NewMWSF(opt()...) },
		"MWRP":          func() rwlock.RWLock { return rwlock.NewMWRP(opt()...) },
		"MWWP":          func() rwlock.RWLock { return rwlock.NewMWWP(opt()...) },
		"MWSF/bounded":  func() rwlock.RWLock { return rwlock.NewMWSF(opt(bound)...) },
		"MWSF/combine":  func() rwlock.RWLock { return rwlock.NewMWSF(opt(comb)...) },
		"MWSF/epoch":    func() rwlock.RWLock { return rwlock.NewEpochMWSF(opt()...) },
		"MWRP/epoch":    func() rwlock.RWLock { return rwlock.NewEpochMWRP(opt()...) },
		"MWWP/epoch":    func() rwlock.RWLock { return rwlock.NewEpochMWWP(opt()...) },
		"Bravo(MWSF)":   func() rwlock.RWLock { return rwlock.NewBravoMWSF(opt()...) },
		"Bravo(MWRP)":   func() rwlock.RWLock { return rwlock.NewBravoMWRP(opt()...) },
		"Bravo(MWWP)":   func() rwlock.RWLock { return rwlock.NewBravoMWWP(opt()...) },
		"SlimBravo":     func() rwlock.RWLock { return rwlock.NewSlimBravo() },
		"SlimEpoch":     func() rwlock.RWLock { return rwlock.NewSlimEpoch() },
		"CentralizedRW": func() rwlock.RWLock { return rwlock.NewCentralizedRW() },
		"PhaseFairRW":   func() rwlock.RWLock { return rwlock.NewPhaseFairRW() },
		"TaskFairRW":    func() rwlock.RWLock { return rwlock.NewTaskFairRW() },
		"sync.RWMutex":  func() rwlock.RWLock { return rwlock.NewRWMutexLock() },
	}
}

// LockNames returns the core lock set in presentation order: the
// paper's three multi-writer locks, each bare and under Bravo, then
// the baselines.  rwcheck's native stress (E10) runs it; the
// arbitration, epoch and serving-tier builds are in AllLockNames.
func LockNames() []string {
	return []string{
		"MWSF", "Bravo(MWSF)",
		"MWRP", "Bravo(MWRP)",
		"MWWP", "Bravo(MWWP)",
		"CentralizedRW", "PhaseFairRW", "TaskFairRW", "sync.RWMutex",
	}
}

// AllLockNames returns every registry entry in presentation order:
// each multi-writer lock followed by its reader fast-path builds, MWSF
// also by its bounded-arbitration ("/bounded") and flat-combining
// ("/combine") builds.
func AllLockNames() []string {
	return []string{
		"MWSF", "MWSF/bounded", "MWSF/combine",
		"MWSF/epoch", "Bravo(MWSF)",
		"SlimBravo", "SlimEpoch",
		"MWRP", "MWRP/epoch", "Bravo(MWRP)",
		"MWWP", "MWWP/epoch", "Bravo(MWWP)",
		"CentralizedRW", "PhaseFairRW", "TaskFairRW",
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

// OversubLockNames is the lock set of the oversubscription benchmark
// (BenchmarkOversubscribed, E12): the starvation-free and
// writer-priority disciplines, the Bravo fast path, and sync.RWMutex,
// whose waiters park at once.
func OversubLockNames() []string {
	return []string{"MWSF", "Bravo(MWSF)", "MWWP", "sync.RWMutex"}
}

// ChurnLockNames is the lock set of the churn scenarios: the
// unbounded MCS arbitration vs the bounded Anderson arbitration vs
// the flat combiner vs the runtime baseline.  All three writerMutex
// implementations over the same core, so the writer-wait tail
// isolates the arbitration layer.
func ChurnLockNames() []string {
	return []string{
		"MWSF", "MWSF/bounded", "MWSF/combine", "sync.RWMutex",
	}
}

// SelectLockNames validates and canonicalizes a lock-name subset: it
// returns the requested names in AllLockNames order, or an error
// naming the unknown entry.
func SelectLockNames(requested []string) ([]string, error) {
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
