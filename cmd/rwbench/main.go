// Command rwbench runs the native-lock experiments (E7 throughput and
// E8 priority latency in DESIGN.md) against real goroutines and
// sync/atomic, comparing the paper's locks with sync.RWMutex and the
// classical baselines.
//
// Usage:
//
//	rwbench [-ops N] [-seed S] [-workers list] [-locks list]
//	        [-scenario names|all] [-stripes list] [-skew list]
//	        [-metrics] [-markdown] [-json] [-quick]
//	        [-oversub] [-oversub-workers list] [-oversub-duration d]
//	        [-validate file]
//
// -scenario selects entries of the declarative scenario registry
// (internal/harness.RunScenario) by name — `-scenario all` runs every
// registered scenario, `-scenario latency-grid,bursty-writers` a
// subset.  Scenario tables carry tail-latency (wait p50/p99/p99.9 per
// class) and, where the writer-visibility probe runs, read-view age
// columns; the -json report carries the full latency histograms.
// Without -scenario the tool runs the classic default pair
// (throughput + priority), which goes through the same engine.
//
// -locks restricts any sweep to a comma-separated subset of the lock
// registry, e.g. `-locks "MWSF,Bravo(MWSF),sync.RWMutex"` to isolate
// the BRAVO fast path's effect against its own inner lock.  Every
// registry lock waits the same way (spin briefly, then park).  The
// registry includes "/bounded" variants of the multi-writer locks
// (e.g. "MWSF/bounded") that serialize writers through the bounded
// Anderson array (rwlock.WithBoundedWriters) instead of the default
// unbounded MCS queue, and "/combine" variants (e.g. "MWSF/combine")
// that batch closure-path writes through the flat-combining arbiter
// (rwlock.WithCombiningWriters) — the "writer-churn" and
// "combine-batch" scenarios compare the three arbitrations under
// thousands of one-shot writers, the latter also reporting the
// combiner's batch-size distribution, and the
// "writer-shed" scenario reruns the churn with a per-write deadline
// through LockCtx, reporting the shed rate (writes abandoned at
// deadline) against the writer-wait tail the survivors pay.
//
// -stripes and -skew override the grid-size and Zipf-exponent axes of
// the sharded (serving tier) scenarios, e.g. `-scenario zipf-grid
// -stripes 1000,1000000 -skew 1.07`.  They apply only to scenarios
// that sweep a stripe axis and are rejected — with the sorted list of
// sharded scenario names — when the selection contains none.
//
// Unknown -locks or -scenario names are rejected with the list of
// valid names, and so is a selection that parses to nothing (e.g.
// `-locks ","` or `-stripes ","`): a sweep that silently ran an empty
// selection would look like an instant success.
//
// -oversub adds the oversubscription experiment: GOMAXPROCS is pinned
// to -oversub-gomaxprocs (default 2) for the sweep's duration so the
// workers genuinely oversubscribe even on big machines, the regime
// where spinning waiters would burn the lock holder's quanta.  Unless
// -locks narrows the sweep explicitly, the oversubscription table uses
// harness.OversubLockNames rather than the E7 default.  (The "oversub" scenario is the same
// experiment through the registry.)
//
// -metrics instruments every native and sharded scenario cell with a
// fresh rwlock.WithStats counter block (the observability seam the
// rwstats exporters serve) and folds its quiescent snapshot into the
// point as a "counters" object — an additive schema_version 2 column,
// like the sharded fields before it.  The harness cross-checks each
// block before reporting it (CheckCoherence plus the
// one-passage-per-op tie), and -validate re-asserts the same
// invariants on the serialized record, requiring counters exactly on
// the points of a metrics run.  Rows outside the stats seam (Slim,
// the classical baselines, sync.RWMutex) report all-zero blocks;
// simulator scenarios carry no counters, so -metrics is rejected when
// the selection contains no native scenario.
//
// -json emits one versioned JSON object (schema_version 2) with every
// sweep's points instead of tables, so per-PR benchmark grids can be
// recorded mechanically (BENCH_*.json) rather than hand-copied.
// -validate reads such a report back, rejects unknown schema versions
// and checks the structural invariants — the CI bench-smoke job runs
// it against a fresh `-quick -json -scenario all` emission so schema
// drift fails the build.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"rwsync/internal/harness"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rwbench:", err)
		os.Exit(1)
	}
}

func parseIntList(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("bad worker count %q: %w", part, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func parseFloatList(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return nil, fmt.Errorf("bad skew %q: %w", part, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// schemaVersion identifies the -json report layout.  Version 1 was
// the unversioned PR 2 shape (throughput/priority/oversubscribed
// arrays only); version 2 added schema_version itself and the
// scenarios array with full latency histograms.  Bump on any change
// that would break a reader of the previous shape, and teach
// validateReport both the new version and the rejection of the old.
const schemaVersion = 2

// report is the -json output schema: enough run metadata to rerun the
// sweep, plus every point of every enabled experiment.
type report struct {
	SchemaVersion     int                       `json:"schema_version"`
	GOMAXPROCS        int                       `json:"gomaxprocs"`
	NumCPU            int                       `json:"numcpu"`
	OpsPerWorker      int                       `json:"ops_per_worker,omitempty"`
	Seed              int64                     `json:"seed"`
	Locks             []string                  `json:"locks,omitempty"`
	Throughput        []harness.ThroughputPoint `json:"throughput,omitempty"`
	Priority          []harness.PriorityPoint   `json:"priority,omitempty"`
	Oversubscribed    []harness.ThroughputPoint `json:"oversubscribed,omitempty"`
	OversubLocks      []string                  `json:"oversub_locks,omitempty"`
	OversubMs         int64                     `json:"oversub_duration_ms,omitempty"`
	OversubGOMAXPROCS int                       `json:"oversub_gomaxprocs,omitempty"`
	Scenarios         []*harness.ScenarioResult `json:"scenarios,omitempty"`
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("rwbench", flag.ContinueOnError)
	ops := fs.Int("ops", 20000, "operations per worker")
	seed := fs.Int64("seed", 1, "workload seed")
	workersFlag := fs.String("workers", "", "comma-separated worker counts (default 1,2,4,..,2*NumCPU)")
	locksFlag := fs.String("locks", "", "comma-separated lock names to sweep (default: the paper's locks, their Bravo builds and the baselines; /bounded, /combine and /epoch builds available)")
	scenarioFlag := fs.String("scenario", "", "comma-separated scenario names, or \"all\" (default: classic throughput+priority pair)")
	markdown := fs.Bool("markdown", false, "emit GitHub-flavored markdown tables")
	jsonOut := fs.Bool("json", false, "emit one JSON object instead of tables")
	quick := fs.Bool("quick", false, "smaller sweep for smoke runs")
	oversub := fs.Bool("oversub", false, "also run the oversubscription sweep (workers >> GOMAXPROCS)")
	oversubWorkers := fs.String("oversub-workers", "16,64", "worker counts for -oversub")
	oversubDur := fs.Duration("oversub-duration", 100*time.Millisecond, "measurement window per -oversub point")
	oversubProcs := fs.Int("oversub-gomaxprocs", 2, "GOMAXPROCS pinned for the -oversub sweep (0 = leave unpinned)")
	stripesFlag := fs.String("stripes", "", "comma-separated stripe counts for sharded scenarios (e.g. 1000,1000000)")
	skewFlag := fs.String("skew", "", "comma-separated Zipf exponents for sharded scenarios (e.g. 0,1.07)")
	metrics := fs.Bool("metrics", false, "instrument every scenario cell with a rwlock.WithStats counter block and fold the snapshots into the points (requires -scenario)")
	validate := fs.String("validate", "", "validate a -json report file against the schema and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *validate != "" {
		if err := validateReportFile(*validate); err != nil {
			return fmt.Errorf("validate %s: %w", *validate, err)
		}
		fmt.Fprintf(out, "%s: valid (schema_version %d)\n", *validate, schemaVersion)
		return nil
	}

	var requested []string
	for _, part := range strings.Split(*locksFlag, ",") {
		if part = strings.TrimSpace(part); part != "" {
			requested = append(requested, part)
		}
	}
	if *locksFlag != "" && len(requested) == 0 {
		// "-locks ," parses to zero names; falling back to the default
		// set would silently sweep something other than what was asked.
		return fmt.Errorf("-locks %q selects no lock names (have %v)",
			*locksFlag, harness.SortedLockNames())
	}
	lockNames, err := harness.SelectLockNames(requested)
	if err != nil {
		return err
	}

	var workers []int
	if *workersFlag != "" {
		workers, err = parseIntList(*workersFlag)
		if err != nil {
			return err
		}
	}

	// The sharded-axis overrides get the same reject-empty rule as
	// -locks: "-stripes ," must not silently run the scenario's own
	// grid under the guise of a narrowed one.
	var stripes []int
	if *stripesFlag != "" {
		if stripes, err = parseIntList(*stripesFlag); err != nil {
			return err
		}
		if len(stripes) == 0 {
			return fmt.Errorf("-stripes %q selects no stripe counts", *stripesFlag)
		}
	}
	var skews []float64
	if *skewFlag != "" {
		if skews, err = parseFloatList(*skewFlag); err != nil {
			return err
		}
		if len(skews) == 0 {
			return fmt.Errorf("-skew %q selects no Zipf exponents", *skewFlag)
		}
	}

	emit := func(t interface {
		Render() string
		Markdown() string
	}) {
		if *markdown {
			fmt.Fprintln(out, t.Markdown())
		} else {
			fmt.Fprintln(out, t.Render())
		}
	}

	rep := report{
		SchemaVersion: schemaVersion,
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		NumCPU:        runtime.NumCPU(),
		Seed:          *seed,
	}

	if *scenarioFlag != "" {
		// Refuse the legacy oversub flags rather than silently
		// dropping them: the oversubscription experiment is a
		// scenario, and its knobs live in the registry entry.
		var conflict error
		opts := harness.ScenarioOptions{
			Seed:    *seed,
			Quick:   *quick,
			Workers: workers,
			Stripes: stripes,
			ZipfS:   skews,
			Metrics: *metrics,
		}
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "oversub", "oversub-workers", "oversub-duration", "oversub-gomaxprocs":
				conflict = fmt.Errorf("-%s does not combine with -scenario; select the \"oversub\" scenario (its knobs are the registry entry's) instead", f.Name)
			case "ops":
				// Only an explicit -ops overrides a scenario's budget.
				opts.Ops = *ops
			}
		})
		if conflict != nil {
			return conflict
		}
		scs, err := harness.SelectScenarios(*scenarioFlag)
		if err != nil {
			return err
		}
		if len(requested) > 0 {
			opts.Locks = lockNames
		}
		// Same loud-rejection rule for the generic overrides: an
		// override that applies to NONE of the selected scenarios
		// (e.g. -locks on a simulator sweep, -ops on a deadline-based
		// one) must not be silently dropped.
		anyNative, anyOpsBased, anySharded := false, false, false
		for _, sc := range scs {
			if sc.Sim == nil {
				anyNative = true
				if sc.Duration == 0 {
					anyOpsBased = true
				}
			}
			if len(sc.Stripes) > 0 {
				anySharded = true
			}
		}
		if len(opts.Locks) > 0 && !anyNative {
			return fmt.Errorf("-locks applies to no selected scenario (simulator scenarios sweep systems, not locks)")
		}
		if opts.Ops > 0 && !anyOpsBased {
			return fmt.Errorf("-ops applies to no selected scenario (deadline-based scenarios size by duration)")
		}
		if (len(stripes) > 0 || len(skews) > 0) && !anySharded {
			return fmt.Errorf("-stripes/-skew apply to no selected scenario (sharded scenarios: %v)",
				harness.ShardedScenarioNames())
		}
		if *metrics && !anyNative {
			return fmt.Errorf("-metrics applies to no selected scenario (simulator scenarios have no native locks to instrument)")
		}
		for _, sc := range scs {
			res, err := harness.RunScenario(sc, opts)
			if err != nil {
				return err
			}
			rep.Scenarios = append(rep.Scenarios, res)
			if !*jsonOut {
				emit(harness.ScenarioTable(res))
			}
		}
		if *jsonOut {
			// Compact: BENCH_*.json records carry full histograms, and
			// indentation roughly doubles them for no machine benefit.
			return json.NewEncoder(out).Encode(rep)
		}
		return nil
	}

	// Classic path: the default throughput+priority pair (plus
	// -oversub), through the same RunScenario core via the legacy
	// sweep adapters, in the legacy report shape.  A nil workers grid
	// means the engine's default doubling grid (one policy, owned by
	// the harness).
	if len(stripes) > 0 || len(skews) > 0 {
		return fmt.Errorf("-stripes/-skew require a sharded -scenario selection (sharded scenarios: %v)",
			harness.ShardedScenarioNames())
	}
	if *metrics {
		return fmt.Errorf("-metrics requires a -scenario selection (the classic pair reports through the legacy tables)")
	}
	fractions := []float64{0.5, 0.9, 0.99, 1.0}
	readers := 8
	oversubFractions := []float64{0.9, 0.99}
	if *quick {
		fractions = []float64{0.9}
		oversubFractions = []float64{0.9}
		readers = 4
	}

	pts := harness.ThroughputSweepLocks(lockNames, workers, fractions, *ops, *seed)
	prio := harness.PrioritySweepLocks(lockNames, readers, *ops, *seed)

	rep.OpsPerWorker = *ops
	rep.Locks = lockNames
	rep.Throughput = pts
	rep.Priority = prio

	if !*jsonOut {
		emit(harness.ThroughputTable(
			fmt.Sprintf("E7: native throughput, ops/sec (GOMAXPROCS=%d, %d ops/worker)", runtime.GOMAXPROCS(0), *ops), pts))
		emit(harness.PriorityTable(
			fmt.Sprintf("E8: 1 dedicated writer vs %d readers — latency by class", readers), prio))
	}

	if *oversub {
		ow, err := parseIntList(*oversubWorkers)
		if err != nil {
			return err
		}
		// OversubLockNames by default; an explicit -locks narrows the
		// oversub sweep like every other sweep.
		oversubLocks := harness.OversubLockNames()
		if len(requested) > 0 {
			oversubLocks = lockNames
		}
		// Pin GOMAXPROCS so the workers oversubscribe even on a big
		// machine (OversubscribedSweepLocks only shapes the workload).
		if *oversubProcs > 0 {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(*oversubProcs))
		}
		opts := harness.OversubscribedSweepLocks(oversubLocks, ow, oversubFractions, *oversubDur, *seed)
		rep.Oversubscribed = opts
		rep.OversubLocks = oversubLocks
		rep.OversubMs = oversubDur.Milliseconds()
		rep.OversubGOMAXPROCS = runtime.GOMAXPROCS(0)
		if !*jsonOut {
			emit(harness.ThroughputTable(
				fmt.Sprintf("E12: oversubscribed throughput, ops/sec (GOMAXPROCS=%d, %s/point)",
					runtime.GOMAXPROCS(0), *oversubDur), opts))
		}
	}

	if *jsonOut {
		return json.NewEncoder(out).Encode(rep)
	}
	return nil
}
