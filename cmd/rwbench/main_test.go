package main

import (
	"encoding/json"
	"os"
	"slices"
	"sort"
	"strings"
	"testing"

	"rwsync/internal/harness"
)

func TestParseIntList(t *testing.T) {
	got, err := parseIntList("workers", "1, 2,8")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 8 {
		t.Fatalf("parseIntList = %v", got)
	}
	if _, err := parseIntList("workers", "1,x"); err == nil {
		t.Fatal("expected error for non-integer")
	}
	got, err = parseIntList("workers", "4,")
	if err != nil || len(got) != 1 {
		t.Fatalf("trailing comma: %v %v", got, err)
	}
}

// TestRunListErrorsNameTheFlag: -workers, -stripes and -skew share
// the list parsers, so a malformed entry's error must say which flag
// it came from, not describe every list as worker counts.
func TestRunListErrorsNameTheFlag(t *testing.T) {
	var b strings.Builder
	for flag, args := range map[string][]string{
		"-stripes": {"-scenario", "zipf-grid", "-stripes", "4x"},
		"-workers": {"-scenario", "zipf-grid", "-workers", "2x"},
		"-skew":    {"-scenario", "zipf-grid", "-skew", "1.x"},
	} {
		err := run(args, &b)
		if err == nil || !strings.Contains(err.Error(), flag+":") {
			t.Errorf("%v: error = %v, want one naming %s", args, err, flag)
		}
	}
}

func TestRunQuick(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-quick", "-ops", "200", "-scenario", "age-frontier,zipf-grid"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "age-memory frontier") {
		t.Fatalf("missing age-frontier table:\n%s", out)
	}
	if !strings.Contains(out, "serving tier") {
		t.Fatalf("missing zipf-grid table:\n%s", out)
	}
	if !strings.Contains(out, "sync.RWMutex") {
		t.Fatalf("missing baseline row:\n%s", out)
	}
}

func TestRunMarkdownOutput(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-quick", "-ops", "200", "-scenario", "age-frontier", "-markdown"}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "| workers | read% |") {
		t.Fatalf("markdown table malformed:\n%s", b.String())
	}
}

func TestRunBadWorkers(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-workers", "abc"}, &b); err == nil {
		t.Fatal("expected error for bad -workers")
	}
}

// TestRunRejectsBadGridBeforeRunning: a grid that a later scenario of
// the selection cannot run (zipf-grid with a zero stripe count) fails
// the run before any scenario has run, so nothing is printed and no
// finished measurement is thrown away.
func TestRunRejectsBadGridBeforeRunning(t *testing.T) {
	var b strings.Builder
	err := run([]string{"-quick", "-scenario", "age-frontier,zipf-grid", "-stripes", "0"}, &b)
	if err == nil || !strings.Contains(err.Error(), "scenario zipf-grid: stripe count 0") {
		t.Fatalf("err = %v, want zipf-grid's stripe-count rejection", err)
	}
	if b.Len() != 0 {
		t.Fatalf("printed %d bytes before failing:\n%s", b.Len(), b.String())
	}
}

// TestRunRequiresScenario: there is no default selection, so a bare
// run fails with the list of scenario names and prints nothing.
func TestRunRequiresScenario(t *testing.T) {
	var b strings.Builder
	err := run(nil, &b)
	if err == nil || !strings.Contains(err.Error(), "selects nothing") {
		t.Fatalf("bare run: err = %v, want the empty-selection rejection", err)
	}
	for _, name := range harness.ScenarioNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("bare-run error does not list %s: %v", name, err)
		}
	}
	if b.Len() != 0 {
		t.Fatalf("bare run printed %d bytes:\n%s", b.Len(), b.String())
	}
}

func TestRunLocksSubset(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-quick", "-ops", "200", "-scenario", "age-frontier",
		"-locks", "MWSF,Bravo(MWSF),sync.RWMutex"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, name := range []string{"MWSF", "Bravo(MWSF)", "sync.RWMutex"} {
		if !hasRow(out, name) {
			t.Fatalf("missing selected lock %s:\n%s", name, out)
		}
	}
	// The scenario's own MWSF/epoch row is narrowed away.
	if hasRow(out, "MWSF/epoch") {
		t.Fatalf("unselected lock leaked into the sweep:\n%s", out)
	}
}

func TestRunUnknownLock(t *testing.T) {
	var b strings.Builder
	err := run([]string{"-locks", "NoSuchLock"}, &b)
	if err == nil || !strings.Contains(err.Error(), "NoSuchLock") {
		t.Fatalf("expected unknown-lock error, got %v", err)
	}
	// The listing must name the epoch variants and print sorted — the
	// reader is scanning it for one name, not browsing the families.
	if !strings.Contains(err.Error(), "MWSF/epoch") {
		t.Fatalf("unknown-lock listing misses the epoch variants: %v", err)
	}
	if !sort.StringsAreSorted(harness.SortedLockNames()) {
		t.Fatal("SortedLockNames is not sorted")
	}
}

// hasRow reports whether some line of a table starts with the lock
// name as its first field, so "MWSF" is not satisfied by a
// "MWSF/bounded" row.
func hasRow(out, name string) bool {
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) > 0 && f[0] == name {
			return true
		}
	}
	return false
}

func TestRunEpochVariantSelectable(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-quick", "-ops", "200", "-workers", "2", "-scenario", "age-frontier",
		"-locks", "MWSF,MWSF/epoch"}, &b); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"MWSF", "MWSF/epoch"} {
		if !hasRow(b.String(), name) {
			t.Fatalf("row %s missing from sweep:\n%s", name, b.String())
		}
	}
}

func TestRunBoundedVariantSelectable(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-quick", "-ops", "200", "-workers", "2", "-scenario", "age-frontier",
		"-locks", "MWSF,MWSF/bounded"}, &b); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"MWSF", "MWSF/bounded"} {
		if !hasRow(b.String(), name) {
			t.Fatalf("row %s missing from sweep:\n%s", name, b.String())
		}
	}
}

func TestRunScenarioWriterChurn(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-quick", "-scenario", "writer-churn"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"writer churn", "wr wait p99", "batch p50", "batch p99", "batch max"} {
		if !strings.Contains(out, want) {
			t.Fatalf("writer-churn output missing %q:\n%s", want, out)
		}
	}
	for _, name := range harness.ChurnLockNames() {
		if !hasRow(out, name) {
			t.Fatalf("writer-churn output missing row %s:\n%s", name, out)
		}
	}
}

func TestRunCombineVariantSelectable(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-quick", "-ops", "200", "-workers", "2", "-scenario", "age-frontier",
		"-locks", "MWSF,MWSF/combine"}, &b); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"MWSF", "MWSF/combine"} {
		if !hasRow(b.String(), name) {
			t.Fatalf("row %s missing from sweep:\n%s", name, b.String())
		}
	}
}

// TestRunScenarioCombineBatch: the combiner's batch-size columns ride
// on writer-churn, filled on the MWSF/combine row and "-" elsewhere.
func TestRunScenarioCombineBatch(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-quick", "-ops", "32", "-scenario", "writer-churn",
		"-locks", "MWSF,MWSF/combine"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"batch p50", "batch p99", "batch max"} {
		if !strings.Contains(out, want) {
			t.Fatalf("writer-churn output missing %q:\n%s", want, out)
		}
	}
	rows := 0
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) < 3 || (f[0] != "MWSF" && f[0] != "MWSF/combine") {
			continue
		}
		rows++
		// The three batch columns close the row.
		batchMax := f[len(f)-1]
		if combine := f[0] == "MWSF/combine"; combine == (batchMax == "-") {
			t.Fatalf("row %s: batch max %q", f[0], batchMax)
		}
	}
	if rows != 2 {
		t.Fatalf("found %d of the 2 rows:\n%s", rows, out)
	}
}

// TestRunRejectsEmptySelections: a -locks or -scenario value that
// parses to zero names must be rejected with the valid names, not
// silently swept as something else (the default set, or nothing).
func TestRunRejectsEmptySelections(t *testing.T) {
	var b strings.Builder
	err := run([]string{"-locks", ","}, &b)
	if err == nil || !strings.Contains(err.Error(), "selects no lock names") ||
		!strings.Contains(err.Error(), "MWSF/combine") {
		t.Fatalf("empty -locks error = %v, want rejection listing the registry", err)
	}
	err = run([]string{"-scenario", ","}, &b)
	if err == nil || !strings.Contains(err.Error(), "selects nothing") ||
		!strings.Contains(err.Error(), "writer-churn") {
		t.Fatalf("empty -scenario error = %v, want rejection listing the scenarios", err)
	}
}

func TestRunJSONOutput(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-quick", "-ops", "200", "-workers", "2", "-json",
		"-scenario", "zipf-grid,age-frontier",
		"-locks", "MWSF,Bravo(MWSF),sync.RWMutex"}, &b); err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal([]byte(b.String()), &rep); err != nil {
		t.Fatalf("-json output is not valid JSON: %v\n%s", err, b.String())
	}
	if rep.GOMAXPROCS <= 0 || rep.NumCPU <= 0 || len(rep.Scenarios) != 2 {
		t.Fatalf("metadata or scenarios missing: %+v", rep)
	}
	// Registration order, each with the narrowed lock set and worker
	// grid applied.
	for i, want := range []string{"age-frontier", "zipf-grid"} {
		sr := rep.Scenarios[i]
		if sr.Scenario.Name != want {
			t.Fatalf("scenario %d = %s, want %s", i, sr.Scenario.Name, want)
		}
		if len(sr.Scenario.Locks) != 3 || len(sr.Points) == 0 {
			t.Fatalf("%s: locks %v, %d points", want, sr.Scenario.Locks, len(sr.Points))
		}
		for _, p := range sr.Points {
			if p.Workers != 2 || p.OpsPerSec <= 0 {
				t.Fatalf("%s: bad point %+v", want, p)
			}
		}
	}
	// Tables must not leak into machine-readable output: one line,
	// one object.
	if out := strings.TrimSpace(b.String()); !strings.HasPrefix(out, "{") || strings.Contains(out, "\n") {
		t.Fatalf("table text mixed into -json output:\n%s", b.String())
	}
}

func TestRunScenarioSelection(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-quick", "-scenario", "age-frontier,rmr-dsm",
		"-locks", "MWSF,MWRP"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"age-memory frontier", "E9:", "rd wait p99.9", "MWRP"} {
		if !strings.Contains(out, want) {
			t.Fatalf("scenario output missing %q:\n%s", want, out)
		}
	}
	// Registration order, and nothing but the selection.
	if strings.Index(out, "E9:") > strings.Index(out, "age-memory frontier") {
		t.Fatalf("scenarios out of registration order:\n%s", out)
	}
	if strings.Contains(out, "writer churn") || strings.Contains(out, "serving tier") {
		t.Fatalf("unselected scenario ran:\n%s", out)
	}
}

// TestRunScenarioRejectsOversubFlag: the oversubscription experiment
// is the Go benchmark BenchmarkOversubscribed, and -oversub is refused
// as an unknown flag rather than silently ignored.
func TestRunScenarioRejectsOversubFlag(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-scenario", "writer-churn", "-oversub"}, &b); err == nil ||
		!strings.Contains(err.Error(), "oversub") {
		t.Fatalf("-oversub must be rejected, got %v", err)
	}
}

// TestValidateFlagOnFile: rwbench keeps no records to validate, so
// -validate on a report file is refused as an unknown flag rather than
// silently running nothing.
func TestValidateFlagOnFile(t *testing.T) {
	path := t.TempDir() + "/rep.json"
	if err := os.WriteFile(path, []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := run([]string{"-validate", path}, &b); err == nil ||
		!strings.Contains(err.Error(), "flag provided but not defined: -validate") {
		t.Fatalf("-validate must be rejected as an unknown flag, got %v", err)
	}
}

func TestRunScenarioRejectsInapplicableOverrides(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-scenario", "rmr", "-locks", "MWSF"}, &b); err == nil ||
		!strings.Contains(err.Error(), "-locks") {
		t.Fatalf("-locks on a sim-only selection must be rejected, got %v", err)
	}
	if err := run([]string{"-scenario", "rmr,rmr-dsm", "-ops", "100"}, &b); err == nil ||
		!strings.Contains(err.Error(), "-ops") {
		t.Fatalf("-ops on a sim-only selection must be rejected, got %v", err)
	}
	// But a mixed selection accepts them (they apply somewhere).
	if err := run([]string{"-quick", "-scenario", "age-frontier,rmr-dsm",
		"-locks", "MWSF", "-ops", "100"}, &b); err != nil {
		t.Fatalf("overrides applying to one of two scenarios rejected: %v", err)
	}
}

func TestRunScenarioUnknown(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-scenario", "nope"}, &b); err == nil ||
		!strings.Contains(err.Error(), "nope") {
		t.Fatalf("unknown scenario not rejected: %v", err)
	}
}

func TestRunScenarioAllJSONValidates(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every scenario")
	}
	rep := runJSON(t, "-quick", "-scenario", "all")
	if rep.GOMAXPROCS <= 0 || rep.NumCPU <= 0 {
		t.Fatalf("run metadata missing: gomaxprocs=%d numcpu=%d", rep.GOMAXPROCS, rep.NumCPU)
	}
	var names []string
	for _, sr := range rep.Scenarios {
		names = append(names, sr.Scenario.Name)
		if len(sr.Points) == 0 || sr.GOMAXPROCS <= 0 {
			t.Errorf("scenario %s: %d points at gomaxprocs %d", sr.Scenario.Name, len(sr.Points), sr.GOMAXPROCS)
		}
	}
	if want := harness.ScenarioNames(); !slices.Equal(names, want) {
		t.Fatalf("-scenario all ran %v, want %v", names, want)
	}
}

func TestRunScenarioMarkdownHasLatencyColumns(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-quick", "-ops", "400", "-markdown", "-scenario", "age-frontier",
		"-locks", "MWWP"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "| lock |") ||
		!strings.Contains(out, "wr wait p99.9") || !strings.Contains(out, "age p99") {
		t.Fatalf("markdown scenario table missing latency/age columns:\n%s", out)
	}
}

func TestRunScenarioAgeFrontier(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-quick", "-ops", "400", "-scenario", "age-frontier"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	// The frontier's two halves must both be columns: update age and
	// retained memory.
	for _, col := range []string{"age p50", "age p99", "grace", "ret vers max", "ret bytes max"} {
		if !strings.Contains(out, col) {
			t.Errorf("age-frontier table missing %q column:\n%s", col, out)
		}
	}
	for _, lock := range []string{"MWSF", "Bravo(MWSF)", "MWSF/epoch"} {
		if !hasRow(out, lock) {
			t.Errorf("age-frontier table missing %q row:\n%s", lock, out)
		}
	}
}

// runJSON runs rwbench with -json appended and decodes the output.
func runJSON(t *testing.T, args ...string) report {
	t.Helper()
	var b strings.Builder
	if err := run(append(args, "-json"), &b); err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal([]byte(b.String()), &rep); err != nil {
		t.Fatalf("-json output is not valid JSON: %v\n%s", err, b.String())
	}
	return rep
}

// TestValidateRetainedMemoryFields: the age-frontier output carries
// the epoch row's retained-memory fields, consistent with each other,
// and no such fields on the rows without an epoch layer.
func TestValidateRetainedMemoryFields(t *testing.T) {
	rep := runJSON(t, "-quick", "-ops", "400", "-scenario", "age-frontier")
	for _, p := range rep.Scenarios[0].Points {
		if p.Lock != "MWSF/epoch" {
			if p.RetiredVersions != 0 || p.RetainedVersionsMax != 0 || p.RetainedBytesMax != 0 {
				t.Errorf("%s: retained-memory fields without an epoch layer: %+v", p.Lock, p)
			}
			continue
		}
		if p.RetiredVersions <= 0 || p.ReclaimedVersions > p.RetiredVersions ||
			p.RetainedVersionsMax < p.RetiredVersions-p.ReclaimedVersions ||
			p.RetainedBytesMax < 1024 || p.GraceWaits <= 0 || p.EpochAdvances <= 0 {
			t.Errorf("%s: inconsistent retained-memory fields: %+v", p.Lock, p)
		}
	}
}

func TestParseFloatList(t *testing.T) {
	got, err := parseFloatList("skew", "0, 1.07,1.5")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 0 || got[1] != 1.07 || got[2] != 1.5 {
		t.Fatalf("parseFloatList = %v", got)
	}
	if _, err := parseFloatList("skew", "1.07,x"); err == nil {
		t.Fatal("expected error for non-number")
	}
}

// TestRunScenarioZipfGrid: the serving-tier scenario renders the
// sharded columns — stripe count, skew, bytes/lock, hot-key read
// rate — on every data row, and the -stripes/-skew overrides narrow
// the axes.
func TestRunScenarioZipfGrid(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-quick", "-scenario", "zipf-grid",
		"-stripes", "4,16", "-skew", "1.07",
		"-locks", "SlimBravo,sync.RWMutex"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, col := range []string{"stripes", "zipf s", "B/lock", "hot rd/s", "age p50"} {
		if !strings.Contains(out, col) {
			t.Fatalf("zipf-grid table missing %q column:\n%s", col, out)
		}
	}
	// Shape check: every data row must carry both grid axes — a row
	// without a stripe count or skew means some cell bypassed the
	// sharded runner.
	rows := 0
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "SlimBravo") && !strings.HasPrefix(line, "sync.RWMutex") {
			continue
		}
		rows++
		if !strings.Contains(line, "1.07") {
			t.Fatalf("row without skew column: %q", line)
		}
		fields := strings.Fields(line)
		if len(fields) < 6 || (fields[3] != "4" && fields[3] != "16") {
			t.Fatalf("row without overridden stripe count: %q", line)
		}
	}
	if rows != 4 { // 2 locks x 2 stripe counts x 1 skew
		t.Fatalf("zipf-grid rendered %d data rows, want 4:\n%s", rows, out)
	}
}

func TestRunScenarioZipfGridJSONValidates(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-quick", "-json", "-scenario", "zipf-grid",
		"-stripes", "8", "-skew", "1.07", "-locks", "SlimEpoch"}, &b); err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{`"stripes"`, `"zipf_s"`, `"bytes_per_lock"`, `"hot_read_ops"`} {
		if !strings.Contains(b.String(), field) {
			t.Fatalf("zipf-grid JSON missing %s:\n%s", field, b.String())
		}
	}
}

// TestRunRejectsShardedOverridesElsewhere: -stripes/-skew must be
// rejected — naming the sharded scenarios — when the selection has no
// stripe axis (a flat or a simulator scenario) and when the value
// parses to nothing.
func TestRunRejectsShardedOverridesElsewhere(t *testing.T) {
	var b strings.Builder
	for name, args := range map[string][]string{
		"flat scenario":      {"-scenario", "age-frontier", "-stripes", "4"},
		"simulator scenario": {"-scenario", "rmr", "-skew", "1.07"},
	} {
		err := run(args, &b)
		if err == nil || !strings.Contains(err.Error(), "zipf-grid") {
			t.Fatalf("%s: error = %v, want rejection listing sharded scenarios", name, err)
		}
	}
	if err := run([]string{"-scenario", "zipf-grid", "-stripes", ","}, &b); err == nil ||
		!strings.Contains(err.Error(), "selects no stripe counts") {
		t.Fatalf("empty -stripes error = %v", err)
	}
	if err := run([]string{"-scenario", "zipf-grid", "-skew", ","}, &b); err == nil ||
		!strings.Contains(err.Error(), "selects no Zipf exponents") {
		t.Fatalf("empty -skew error = %v", err)
	}
}

// TestValidateShardedFields: in the output, every zipf-grid point
// carries its stripe count, skew, footprint and a hot-key read count
// within its reads, and the flat age-frontier points carry none.
func TestValidateShardedFields(t *testing.T) {
	rep := runJSON(t, "-quick", "-ops", "200", "-scenario", "age-frontier,zipf-grid",
		"-stripes", "8", "-locks", "SlimBravo,sync.RWMutex")
	for _, sr := range rep.Scenarios {
		sharded := len(sr.Scenario.Stripes) > 0
		for _, p := range sr.Points {
			switch {
			case sharded && (p.Stripes != 8 || p.ZipfS != 1.07 || p.BytesPerLock <= 0 ||
				p.HotReadOps < 0 || p.HotReadOps > p.ReadOps):
				t.Errorf("%s %s: bad sharded fields %+v", sr.Scenario.Name, p.Lock, p)
			case !sharded && (p.Stripes != 0 || p.ZipfS != 0 || p.BytesPerLock != 0 || p.HotReadOps != 0):
				t.Errorf("%s %s: sharded fields without a stripe axis %+v", sr.Scenario.Name, p.Lock, p)
			}
		}
	}
}

// TestValidateCounterFields: in the output of a -metrics run, every
// native point carries a counter block whose acquires and context
// sheds tie to the point's own op counts, or an all-zero block on a
// row outside the stats seam, and the simulator points carry none.
func TestValidateCounterFields(t *testing.T) {
	rep := runJSON(t, "-quick", "-ops", "16", "-metrics", "-scenario", "rmr-dsm,writer-shed")
	for _, sr := range rep.Scenarios {
		for _, p := range sr.Points {
			c := p.Counters
			switch {
			case sr.Scenario.Sim != nil:
				if c != nil {
					t.Errorf("%s: counters on a simulator point", sr.Scenario.Name)
				}
			case c == nil:
				t.Errorf("%s %s: no counters on a -metrics run", sr.Scenario.Name, p.Lock)
			case p.Lock == "sync.RWMutex":
				if c.WriteAcquires != 0 || c.CtxSheds != 0 {
					t.Errorf("%s: counted outside the stats seam: %+v", p.Lock, c)
				}
			case int64(c.WriteAcquires) != p.WriteOps || int64(c.CtxSheds) != p.ShedOps ||
				int64(c.ReadAcquires) != p.ReadOps:
				t.Errorf("%s: counters %d/%d/%d for %d reads, %d writes, %d sheds",
					p.Lock, c.ReadAcquires, c.WriteAcquires, c.CtxSheds, p.ReadOps, p.WriteOps, p.ShedOps)
			}
		}
	}
}

func TestRunScenarioMetricsJSONValidates(t *testing.T) {
	rep := runJSON(t, "-quick", "-metrics", "-ops", "400",
		"-scenario", "age-frontier,zipf-grid",
		"-locks", "MWSF,Bravo(MWSF),sync.RWMutex")
	instrumented, silent := 0, 0
	for _, sr := range rep.Scenarios {
		if !sr.Metrics {
			t.Fatalf("scenario %s: metrics bit not recorded", sr.Scenario.Name)
		}
		for i, p := range sr.Points {
			c := p.Counters
			if c == nil {
				t.Fatalf("scenario %s point %d: no counters on a -metrics run", sr.Scenario.Name, i)
			}
			switch {
			case c.ReadAcquires > 0 || c.WriteAcquires > 0:
				instrumented++
			case p.Lock == "sync.RWMutex":
				silent++ // outside the stats seam: documented all-zero block
			default:
				t.Fatalf("scenario %s point %d: lock %s recorded nothing", sr.Scenario.Name, i, p.Lock)
			}
		}
	}
	if instrumented == 0 {
		t.Fatal("no instrumented points recorded")
	}
	if silent == 0 {
		t.Fatal("no sync.RWMutex baseline points ran")
	}
}

// TestRunMetricsRequiresScenario: -metrics needs a native scenario in
// the selection: a native one is instrumented, a simulator-only one
// is rejected.
func TestRunMetricsRequiresScenario(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-quick", "-ops", "200", "-workers", "2", "-json", "-metrics",
		"-scenario", "age-frontier", "-locks", "MWSF"}, &b); err != nil {
		t.Fatalf("native scenario rejected -metrics: %v", err)
	}
	if !strings.Contains(b.String(), `"counters"`) {
		t.Fatalf("-metrics emission carries no counters:\n%s", b.String())
	}
	if err := run([]string{"-quick", "-metrics", "-scenario", "rmr"}, &b); err == nil ||
		!strings.Contains(err.Error(), "-metrics applies to no selected scenario") {
		t.Fatalf("simulator-only selection accepted -metrics: %v", err)
	}
}
