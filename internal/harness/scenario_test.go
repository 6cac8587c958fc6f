package harness

import (
	"runtime"
	"slices"
	"strings"
	"testing"
)

// TestScenarioRegistryHasAllEntries pins the registry: the two RMR
// sweeps and the four native scenarios, in registration order.  With
// no default grids, every native scenario must name its own locks,
// workers and read fractions.
func TestScenarioRegistryHasAllEntries(t *testing.T) {
	want := []string{"rmr", "rmr-dsm", "writer-churn", "writer-shed", "age-frontier", "zipf-grid"}
	if got := ScenarioNames(); !slices.Equal(got, want) {
		t.Fatalf("ScenarioNames() = %v, want %v", got, want)
	}
	for _, name := range want {
		sc, _ := ScenarioByName(name)
		if sc.Sim != nil {
			continue
		}
		if len(sc.Locks) == 0 || len(sc.Workers) == 0 || len(sc.ReadFractions) == 0 {
			t.Errorf("scenario %s: locks %v, workers %v, read fractions %v — each must be named",
				name, sc.Locks, sc.Workers, sc.ReadFractions)
		}
	}
}

func TestSelectScenarios(t *testing.T) {
	all, err := SelectScenarios("all", ScenarioOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(ScenarioNames()) {
		t.Fatalf("all selected %d of %d", len(all), len(ScenarioNames()))
	}
	// There is no default selection: an empty request names nothing.
	if _, err := SelectScenarios("", ScenarioOptions{}); err == nil ||
		!strings.Contains(err.Error(), "selects nothing") {
		t.Fatalf("empty request not rejected: %v", err)
	}
	two, err := SelectScenarios("zipf-grid, rmr", ScenarioOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Registration order, not request order.
	if len(two) != 2 || two[0].Name != "rmr" || two[1].Name != "zipf-grid" {
		t.Fatalf("subset selection = %v", two)
	}
	if _, err := SelectScenarios("no-such", ScenarioOptions{}); err == nil ||
		!strings.Contains(err.Error(), "no-such") {
		t.Fatalf("unknown scenario not rejected: %v", err)
	}
	// SelectScenarios must not disturb registration order (it is the
	// presentation order everywhere).
	if names := ScenarioNames(); names[0] != "rmr" {
		t.Fatalf("registry order disturbed: %v", names)
	}
}

func TestRunScenarioNativeGrid(t *testing.T) {
	sc, _ := ScenarioByName("age-frontier")
	sc.ReadFractions = []float64{0.5, 0.9, 0.99, 1.0}
	sc.VersionBytes = 0 // plain writes: nothing is retired
	res, err := RunScenario(sc, ScenarioOptions{
		Seed:    1,
		Locks:   []string{"MWSF/epoch", "sync.RWMutex"},
		Workers: []int{2},
		Ops:     300,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 2 locks x 1 worker count x 4 fractions.
	if len(res.Points) != 8 {
		t.Fatalf("got %d points, want 8", len(res.Points))
	}
	for _, p := range res.Points {
		if p.OpsPerSec <= 0 {
			t.Fatalf("no throughput at %+v", p)
		}
		if p.ReadFraction < 1 && p.WriteWait == nil {
			t.Fatalf("mixed point missing write-wait histogram: %+v", p)
		}
		// Columns a flat, deadline-free, unversioned, uninstrumented
		// run has no business carrying.
		if p.Stripes != 0 || p.ShedOps != 0 || p.ShedRate != 0 || p.Counters != nil ||
			p.RetiredVersions != 0 || p.ReclaimedVersions != 0 ||
			p.RetainedVersionsMax != 0 || p.RetainedBytesMax != 0 {
			t.Fatalf("stray columns on %+v", p)
		}
	}
	// The result records the resolved grid.
	if len(res.Scenario.Workers) != 1 || res.Scenario.Workers[0] != 2 {
		t.Fatalf("resolved grid not recorded: %+v", res.Scenario.Workers)
	}
}

func TestRunScenarioRejectsDegenerateWorkerGrids(t *testing.T) {
	sc, _ := ScenarioByName("age-frontier")
	if _, err := RunScenario(sc, ScenarioOptions{Workers: []int{0}}); err == nil {
		t.Fatal("worker count 0 not rejected")
	}
	// There are no default grids: a native scenario with an empty
	// axis would run no cell and look like an instant success.
	for _, bad := range []Scenario{
		{Name: "no-locks", Workers: []int{2}, ReadFractions: []float64{0.9}},
		{Name: "no-workers", Locks: []string{"MWSF"}, ReadFractions: []float64{0.9}},
		{Name: "no-fractions", Locks: []string{"MWSF"}, Workers: []int{2}},
	} {
		if _, err := RunScenario(bad, ScenarioOptions{}); err == nil ||
			!strings.Contains(err.Error(), "names no locks") {
			t.Errorf("%s: err = %v, want the empty-axis rejection", bad.Name, err)
		}
	}
}

func TestRunScenarioUnknownLock(t *testing.T) {
	sc, _ := ScenarioByName("age-frontier")
	if _, err := RunScenario(sc, ScenarioOptions{Locks: []string{"NoSuchLock"}}); err == nil ||
		!strings.Contains(err.Error(), "NoSuchLock") {
		t.Fatalf("unknown lock not rejected: %v", err)
	}
}

// TestRunScenarioWriterChurn runs the churn scenario at full size:
// every write passage comes from a distinct short-lived goroutine
// (256 lanes x 128 spawns = 32768 writers per lock — the ≥1000-writer
// acceptance shape), and the product — throughput plus the
// writer-wait tail — must be present for the MCS arbitration, the
// bounded-Anderson arbitration, the flat combiner, and the
// sync.RWMutex baseline alike.  CI runs this under -race, where any
// CS overlap between two one-shot writers is a detected data race.
func TestRunScenarioWriterChurn(t *testing.T) {
	sc, ok := ScenarioByName("writer-churn")
	if !ok {
		t.Fatal("writer-churn scenario not registered")
	}
	if !sc.Churn {
		t.Fatal("writer-churn scenario does not set Churn")
	}
	if writers := sc.Workers[0] * sc.OpsPerWorker; writers < 1000 {
		t.Fatalf("scenario spawns %d distinct writers, want >= 1000", writers)
	}
	res, err := RunScenario(sc, ScenarioOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for _, name := range ChurnLockNames() {
		want[name] = true
	}
	if len(res.Points) != len(want) {
		t.Fatalf("got %d points, want %d", len(res.Points), len(want))
	}
	for _, p := range res.Points {
		if !want[p.Lock] {
			t.Fatalf("unexpected lock %q in churn sweep", p.Lock)
		}
		delete(want, p.Lock)
		if p.OpsPerSec <= 0 {
			t.Fatalf("%s: no throughput", p.Lock)
		}
		if p.WriteOps != int64(sc.Workers[0]*sc.OpsPerWorker) {
			t.Fatalf("%s: %d write passages, want %d", p.Lock, p.WriteOps,
				sc.Workers[0]*sc.OpsPerWorker)
		}
		if p.ReadOps != 0 {
			t.Fatalf("%s: churn sweep performed %d reads", p.Lock, p.ReadOps)
		}
		if p.WriteWait == nil || p.WriteWait.Count == 0 {
			t.Fatalf("%s: writer-wait histogram missing (the scenario's product)", p.Lock)
		}
		if p.WriteWait.P99 < 0 {
			t.Fatalf("%s: writer-wait p99 = %d", p.Lock, p.WriteWait.P99)
		}
		// Exactly the combining variant carries a batch-size
		// distribution, and it must account for every write passage.
		// (Batch sizes > 1 are schedule-dependent — preemption
		// pile-ups — so they are not asserted here.)
		if isCombine := strings.Contains(p.Lock, "/combine"); isCombine {
			if p.BatchSize == nil {
				t.Fatalf("%s: batch-size histogram missing", p.Lock)
			}
			if p.BatchSize.Count < 1 || p.BatchSize.Count > p.WriteOps {
				t.Fatalf("%s: %d batches for %d writes", p.Lock, p.BatchSize.Count, p.WriteOps)
			}
		} else if p.BatchSize != nil {
			t.Fatalf("%s: non-combining lock carries a batch-size histogram", p.Lock)
		}
	}
	if len(want) != 0 {
		t.Fatalf("locks missing from churn sweep: %v", want)
	}
	// The MCS vs bounded vs baseline comparison must be one table.
	out := ScenarioTable(res).Render()
	for _, name := range ChurnLockNames() {
		if !strings.Contains(out, name) {
			t.Fatalf("churn table missing %s:\n%s", name, out)
		}
	}
}

// TestRunScenarioCombineBatch: the combiner's batch-size
// distribution rides on writer-churn's MWSF/combine row — only there —
// and the rendered table carries the three batch columns.  A trimmed
// op budget keeps the -race run cheap.
func TestRunScenarioCombineBatch(t *testing.T) {
	res := runRegistered(t, "writer-churn", ScenarioOptions{Seed: 1, Ops: 32})
	sawBatch := false
	for _, p := range res.Points {
		combine := strings.Contains(p.Lock, "/combine")
		if combine && p.BatchSize != nil {
			sawBatch = true
		}
		if !combine && p.BatchSize != nil {
			t.Fatalf("%s carries a batch-size histogram", p.Lock)
		}
	}
	if !sawBatch {
		t.Fatal("no combiner point carries a batch-size histogram")
	}
	out := ScenarioTable(res).Render()
	for _, col := range []string{"batch p50", "batch p99", "batch max"} {
		if !strings.Contains(out, col) {
			t.Fatalf("writer-churn table missing %q column:\n%s", col, out)
		}
	}
}

func TestRunScenarioSimThroughCore(t *testing.T) {
	sc, _ := ScenarioByName("rmr")
	sc.Sim = &SimShape{Systems: []string{"fig1-swwp", "centralized"}, Attempts: 4}
	res, err := RunScenario(sc, ScenarioOptions{Seed: 1, Quick: true, Metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) == 0 {
		t.Fatal("sim scenario produced no points")
	}
	for _, p := range res.Points {
		if p.System == "" || p.ReaderRMR == nil || p.WriterRMR == nil {
			t.Fatalf("sim point incomplete: %+v", p)
		}
		if p.Lock != "" || p.ReadWait != nil || p.Counters != nil {
			t.Fatalf("sim point carries native metrics: %+v", p)
		}
	}
}

func TestRunScenarioPinsAndRestoresGOMAXPROCS(t *testing.T) {
	before := runtime.GOMAXPROCS(0)
	res := runRegistered(t, "writer-churn", ScenarioOptions{
		Seed: 1, Locks: []string{"MWSF"}, Workers: []int{8}, Ops: 8,
	})
	if res.GOMAXPROCS != 2 {
		t.Fatalf("writer-churn ran at GOMAXPROCS=%d, want 2", res.GOMAXPROCS)
	}
	if after := runtime.GOMAXPROCS(0); after != before {
		t.Fatalf("GOMAXPROCS not restored: %d -> %d", before, after)
	}
}

func TestQuickTrimShrinksEveryAxis(t *testing.T) {
	sc := Scenario{
		Workers:       []int{1, 2, 4},
		ReadFractions: []float64{0.5, 0.9, 0.99},
		OpsPerWorker:  100000,
		Sim:           &SimShape{Attempts: 16, Points: [][2]int{{1, 1}, {1, 2}, {1, 4}}},
	}
	q := quickTrim(sc)
	if len(q.Workers) != 1 || len(q.ReadFractions) != 2 || q.OpsPerWorker != 500 ||
		q.Sim.Attempts != 4 || len(q.Sim.Points) != 2 {
		t.Fatalf("quickTrim left an axis large: %+v", q)
	}
	// The original is untouched (Sim is copied, not aliased).
	if sc.Sim.Attempts != 16 || len(sc.Sim.Points) != 3 {
		t.Fatalf("quickTrim mutated the input scenario: %+v", sc.Sim)
	}
}

func TestScenarioTableNativeColumns(t *testing.T) {
	res := runRegistered(t, "age-frontier", ScenarioOptions{Seed: 1, Ops: 400,
		Locks: []string{"MWWP", "MWRP"}})
	out := ScenarioTable(res).Render()
	for _, col := range []string{"rd wait p99.9", "wr wait p99", "age p99", "MWWP", " 95 "} {
		if !strings.Contains(out, col) {
			t.Fatalf("table missing %q:\n%s", col, out)
		}
	}
}

func TestScenarioTableSimColumns(t *testing.T) {
	sc, _ := ScenarioByName("rmr-dsm")
	res, err := RunScenario(sc, ScenarioOptions{Seed: 1, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	out := ScenarioTable(res).Render()
	if !strings.Contains(out, "reader RMR max") || !strings.Contains(out, "fig1-swwp") {
		t.Fatalf("sim table malformed:\n%s", out)
	}
}
