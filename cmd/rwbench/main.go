// Command rwbench runs the declarative scenario registry
// (internal/harness.RunScenario) against real goroutines and
// sync/atomic, comparing the paper's locks with sync.RWMutex and the
// classical baselines, and prints the simulator RMR scenarios beside
// them.
//
// Usage:
//
//	rwbench [-ops N] [-seed S] [-workers list] [-locks list]
//	        [-scenario names|all] [-stripes list] [-skew list]
//	        [-metrics] [-markdown] [-json] [-quick]
//	        [-validate file]
//
// -scenario selects scenarios by name — `-scenario all` runs every
// registered scenario, `-scenario latency-grid,bursty-writers` a
// subset — and defaults to "throughput,priority" (E7 native throughput
// and E8 priority latency).  Every selection, the default included,
// runs through the same engine into the same tables and report shape.
// Scenario tables carry tail-latency (wait p50/p99/p99.9 per class)
// and, where the writer-visibility probe runs, read-view age columns;
// the -json report carries the full latency histograms.
//
// -locks restricts the native scenarios to a comma-separated subset of
// the lock registry, e.g. `-locks "MWSF,Bravo(MWSF),sync.RWMutex"` to
// isolate the BRAVO fast path's effect against its own inner lock.
// Every registry lock waits the same way (spin briefly, then park).
// Besides the default MCS arbitration, MWSF has a "/bounded" build
// (the bounded Anderson array, rwlock.WithBoundedWriters) and a
// "/combine" build (flat combining of closure-path writes,
// rwlock.WithCombiningWriters): the "writer-churn" and "combine-batch"
// scenarios compare the three arbitrations under thousands of
// one-shot writers, the latter also reporting the combiner's
// batch-size distribution, and the "writer-shed" scenario reruns the
// churn with a per-write deadline through LockCtx, reporting the shed
// rate (writes abandoned at deadline) against the writer-wait tail
// the survivors pay.  The oversubscription experiment (workers >>
// GOMAXPROCS, GOMAXPROCS pinned to 2) is the "oversub" scenario.
//
// -workers and -ops override a native scenario's worker grid and
// per-worker op budget; -ops applies only to op-budget scenarios, not
// to the deadline-based ones.  -stripes and -skew override the
// grid-size and Zipf-exponent axes of the sharded (serving tier)
// scenarios, e.g. `-scenario zipf-grid -stripes 1000,1000000 -skew
// 1.07`.  An override that applies to no selected scenario is rejected
// (the sharded-axis ones with the sorted list of sharded scenario
// names), and a malformed list value names the flag it came from.
//
// Unknown -locks or -scenario names are rejected with the list of
// valid names, and so is a selection that parses to nothing (e.g.
// `-locks ","` or `-stripes ","`): a sweep that silently ran an empty
// selection would look like an instant success.
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
// scenario's points instead of tables, so benchmark grids can be
// recorded mechanically (BENCH_*.json) rather than hand-copied.
// -validate reads such a report back, rejects unknown schema versions
// and checks the structural invariants — the CI bench-smoke job runs
// it against fresh `-quick -json` and `-quick -json -scenario all`
// emissions so schema drift fails the build.
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

	"rwsync/internal/harness"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rwbench:", err)
		os.Exit(1)
	}
}

// parseIntList parses the comma-separated value of the integer-list
// flag name; a malformed entry's error names the flag.
func parseIntList(name, s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("-%s: bad integer %q: %w", name, part, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// parseFloatList is parseIntList for the number-list flag name.
func parseFloatList(name, s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return nil, fmt.Errorf("-%s: bad number %q: %w", name, part, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// schemaVersion identifies the -json report layout.  Version 1 was
// the unversioned shape (throughput/priority/oversubscribed arrays
// only); version 2 added schema_version itself and the scenarios
// array with full latency histograms, which is now the only
// measurement array a report carries.  Bump on any change that would
// break a reader of the previous shape, and teach validateReport both
// the new version and the rejection of the old.
const schemaVersion = 2

// report is the -json output schema: enough run metadata to rerun the
// selection, plus every scenario's resolved configuration and points.
type report struct {
	SchemaVersion int                       `json:"schema_version"`
	GOMAXPROCS    int                       `json:"gomaxprocs"`
	NumCPU        int                       `json:"numcpu"`
	Seed          int64                     `json:"seed"`
	Scenarios     []*harness.ScenarioResult `json:"scenarios,omitempty"`
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("rwbench", flag.ContinueOnError)
	ops := fs.Int("ops", 0, "operations per worker (default: each scenario's own budget)")
	seed := fs.Int64("seed", 1, "workload seed")
	workersFlag := fs.String("workers", "", "comma-separated worker counts (default: each scenario's own grid)")
	locksFlag := fs.String("locks", "", "comma-separated lock names to sweep (default: the paper's locks, their Bravo builds and the baselines; /bounded, /combine and /epoch builds available)")
	scenarioFlag := fs.String("scenario", "", "comma-separated scenario names, or \"all\" (default: throughput,priority)")
	markdown := fs.Bool("markdown", false, "emit GitHub-flavored markdown tables")
	jsonOut := fs.Bool("json", false, "emit one JSON object instead of tables")
	quick := fs.Bool("quick", false, "smaller sweep for smoke runs")
	stripesFlag := fs.String("stripes", "", "comma-separated stripe counts for sharded scenarios (e.g. 1000,1000000)")
	skewFlag := fs.String("skew", "", "comma-separated Zipf exponents for sharded scenarios (e.g. 0,1.07)")
	metrics := fs.Bool("metrics", false, "instrument every native scenario cell with a rwlock.WithStats counter block and fold the snapshots into the points")
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

	opts := harness.ScenarioOptions{
		Seed:    *seed,
		Quick:   *quick,
		Ops:     *ops,
		Metrics: *metrics,
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
	var err error
	if len(requested) > 0 {
		if opts.Locks, err = harness.SelectLockNames(requested); err != nil {
			return err
		}
	}
	if *workersFlag != "" {
		if opts.Workers, err = parseIntList("workers", *workersFlag); err != nil {
			return err
		}
	}
	// The sharded-axis overrides get the same reject-empty rule as
	// -locks: "-stripes ," must not silently run the scenario's own
	// grid under the guise of a narrowed one.
	if *stripesFlag != "" {
		if opts.Stripes, err = parseIntList("stripes", *stripesFlag); err != nil {
			return err
		}
		if len(opts.Stripes) == 0 {
			return fmt.Errorf("-stripes %q selects no stripe counts", *stripesFlag)
		}
	}
	if *skewFlag != "" {
		if opts.ZipfS, err = parseFloatList("skew", *skewFlag); err != nil {
			return err
		}
		if len(opts.ZipfS) == 0 {
			return fmt.Errorf("-skew %q selects no Zipf exponents", *skewFlag)
		}
	}

	scs, err := harness.SelectScenarios(*scenarioFlag, opts)
	if err != nil {
		return err
	}
	// Same loud-rejection rule for the generic overrides: an override
	// that applies to NONE of the selected scenarios (e.g. -locks on a
	// simulator sweep, -ops on a deadline-based one) must not be
	// silently dropped.
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
	if (len(opts.Stripes) > 0 || len(opts.ZipfS) > 0) && !anySharded {
		return fmt.Errorf("-stripes/-skew apply to no selected scenario (sharded scenarios: %v)",
			harness.ShardedScenarioNames())
	}
	if *metrics && !anyNative {
		return fmt.Errorf("-metrics applies to no selected scenario (simulator scenarios have no native locks to instrument)")
	}

	rep := report{
		SchemaVersion: schemaVersion,
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		NumCPU:        runtime.NumCPU(),
		Seed:          *seed,
	}
	for _, sc := range scs {
		res, err := harness.RunScenario(sc, opts)
		if err != nil {
			return err
		}
		rep.Scenarios = append(rep.Scenarios, res)
		if *jsonOut {
			continue
		}
		t := harness.ScenarioTable(res)
		if *markdown {
			fmt.Fprintln(out, t.Markdown())
		} else {
			fmt.Fprintln(out, t.Render())
		}
	}
	if *jsonOut {
		// Compact: BENCH_*.json records carry full histograms, and
		// indentation roughly doubles them for no machine benefit.
		return json.NewEncoder(out).Encode(rep)
	}
	return nil
}
