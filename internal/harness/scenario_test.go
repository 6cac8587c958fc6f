package harness

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestScenarioRegistryHasAllEntries(t *testing.T) {
	// The four historical sweeps plus the engine-native scenarios
	// (and the DSM contrast) must all be registered.
	for _, name := range []string{
		"throughput", "priority", "oversub", "rmr", "rmr-dsm",
		"bursty-writers", "starvation", "writer-churn", "combine-batch",
		"writer-shed", "age-frontier", "latency-grid",
	} {
		if _, ok := ScenarioByName(name); !ok {
			t.Errorf("scenario %q not registered (have %v)", name, ScenarioNames())
		}
	}
}

func TestSelectScenarios(t *testing.T) {
	all, err := SelectScenarios("all")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(ScenarioNames()) {
		t.Fatalf("all selected %d of %d", len(all), len(ScenarioNames()))
	}
	def, err := SelectScenarios("")
	if err != nil {
		t.Fatal(err)
	}
	if len(def) != 2 || def[0].Name != "throughput" || def[1].Name != "priority" {
		t.Fatalf("default selection = %v", def)
	}
	two, err := SelectScenarios("latency-grid, bursty-writers")
	if err != nil {
		t.Fatal(err)
	}
	// Registration order, not request order.
	if len(two) != 2 || two[0].Name != "bursty-writers" || two[1].Name != "latency-grid" {
		t.Fatalf("subset selection = %v", two)
	}
	if _, err := SelectScenarios("no-such"); err == nil ||
		!strings.Contains(err.Error(), "no-such") {
		t.Fatalf("unknown scenario not rejected: %v", err)
	}
	// SelectScenarios must not disturb registration order (it is the
	// presentation order everywhere).
	if names := ScenarioNames(); names[0] != "throughput" {
		t.Fatalf("registry order disturbed: %v", names)
	}
}

func TestRunScenarioNativeGrid(t *testing.T) {
	sc, _ := ScenarioByName("throughput")
	sc.SampleEvery = 1 // 300 ops at the sparse default rate would leave write histograms empty
	res, err := RunScenario(sc, ScenarioOptions{
		Seed:    1,
		Locks:   []string{"MWSF", "sync.RWMutex"},
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
		if p.ReadTotal != nil {
			if err := p.ReadTotal.Validate(); err != nil {
				t.Fatalf("invalid histogram: %v", err)
			}
		}
	}
	// The result records the resolved grid.
	if len(res.Scenario.Workers) != 1 || res.Scenario.Workers[0] != 2 {
		t.Fatalf("resolved grid not recorded: %+v", res.Scenario.Workers)
	}
}

func TestRunScenarioRejectsDegenerateWorkerGrids(t *testing.T) {
	sc, _ := ScenarioByName("throughput")
	if _, err := RunScenario(sc, ScenarioOptions{Workers: []int{0}}); err == nil {
		t.Fatal("worker count 0 not rejected")
	}
	// A storm shape with a single worker cannot host both classes:
	// running it would silently measure an all-writer workload.
	storm, _ := ScenarioByName("starvation")
	if _, err := RunScenario(storm, ScenarioOptions{Workers: []int{1},
		Locks: []string{"MWSF"}}); err == nil {
		t.Fatal("dedicated-writer scenario with 1 worker not rejected")
	}
	// And the clamp keeps at least one reader when the grid is valid
	// but smaller than the writer count.
	res, err := RunScenario(storm, ScenarioOptions{Quick: true,
		Workers: []int{2}, Locks: []string{"MWSF"}})
	if err != nil {
		t.Fatal(err)
	}
	if p := res.Points[0]; p.Writers != 1 || p.Readers != 1 {
		t.Fatalf("clamp lost a class: %dw/%dr", p.Writers, p.Readers)
	}
}

func TestLegacySweepAdaptersFailLoudly(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ThroughputSweepLocks with an unknown lock must panic, not return an empty sweep")
		}
	}()
	ThroughputSweepLocks([]string{"NoSuchLock"}, []int{1}, []float64{0.9}, 100, 1)
}

func TestRunScenarioUnknownLock(t *testing.T) {
	sc, _ := ScenarioByName("throughput")
	if _, err := RunScenario(sc, ScenarioOptions{Locks: []string{"NoSuchLock"}}); err == nil ||
		!strings.Contains(err.Error(), "NoSuchLock") {
		t.Fatalf("unknown lock not rejected: %v", err)
	}
}

func TestRunScenarioBurstyMeasuresAge(t *testing.T) {
	sc, _ := ScenarioByName("bursty-writers")
	sc.Duration = 40 * time.Millisecond
	res, err := RunScenario(sc, ScenarioOptions{Seed: 1, Locks: []string{"MWWP"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 1 {
		t.Fatalf("got %d points", len(res.Points))
	}
	p := res.Points[0]
	if p.Age == nil || p.Age.Count == 0 {
		t.Fatal("bursty scenario did not measure age")
	}
	if p.WriteWait == nil || p.WriteWait.Count == 0 {
		t.Fatal("bursty scenario did not measure write wait latency")
	}
	if p.Writers != 1 || p.Readers != 8 {
		t.Fatalf("dedicated split not recorded: %dw/%dr", p.Writers, p.Readers)
	}
	if err := p.Age.Validate(); err != nil {
		t.Fatalf("age histogram invalid: %v", err)
	}
}

func TestRunScenarioStarvationProbe(t *testing.T) {
	sc, _ := ScenarioByName("starvation")
	res, err := RunScenario(sc, ScenarioOptions{Seed: 1, Quick: true,
		Locks: []string{"MWWP", "MWRP"}})
	if err != nil {
		t.Fatal(err)
	}
	byLock := map[string]ScenarioPoint{}
	for _, p := range res.Points {
		byLock[p.Lock] = p
		if p.ReadWait == nil || p.ReadWait.Count == 0 {
			t.Fatalf("starvation probe lost its product (reader wait) for %s", p.Lock)
		}
	}
	if len(byLock) != 2 {
		t.Fatalf("points: %+v", res.Points)
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
		// pile-ups — so their presence is pinned by the recorded
		// BENCH_1.json grid, not asserted here.)
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

// TestRunScenarioCombineBatch: the combine-batch scenario sweeps the
// three writer arbitrations over the churn shape at two read
// fractions, the combiner's points carry the batch-size histogram,
// and the rendered table carries the batch columns.  A trimmed op
// budget keeps the -race run cheap; the full grid is the recorded
// BENCH_1.json.
func TestRunScenarioCombineBatch(t *testing.T) {
	sc, ok := ScenarioByName("combine-batch")
	if !ok {
		t.Fatal("combine-batch scenario not registered")
	}
	if !sc.Churn || sc.GOMAXPROCS != 2 || !sc.MeasureAge {
		t.Fatalf("combine-batch lost its shape: churn=%v gomaxprocs=%d age=%v",
			sc.Churn, sc.GOMAXPROCS, sc.MeasureAge)
	}
	res, err := RunScenario(sc, ScenarioOptions{Seed: 1, Ops: 32})
	if err != nil {
		t.Fatal(err)
	}
	wantPoints := len(ChurnLockNames()) * len(sc.ReadFractions)
	if len(res.Points) != wantPoints {
		t.Fatalf("got %d points, want %d", len(res.Points), wantPoints)
	}
	sawBatch, sawAge := false, false
	for _, p := range res.Points {
		combine := strings.Contains(p.Lock, "/combine")
		if combine && p.BatchSize != nil {
			sawBatch = true
		}
		if !combine && p.BatchSize != nil {
			t.Fatalf("%s carries a batch-size histogram", p.Lock)
		}
		if p.Age != nil {
			sawAge = true
		}
	}
	if !sawBatch {
		t.Fatal("no combiner point carries a batch-size histogram")
	}
	if !sawAge {
		t.Fatal("no point carries the read-view age probe (mixed fraction missing?)")
	}
	out := ScenarioTable(res).Render()
	for _, col := range []string{"batch p50", "batch p99", "batch max", "age p50"} {
		if !strings.Contains(out, col) {
			t.Fatalf("combine-batch table missing %q column:\n%s", col, out)
		}
	}
}

func TestRunScenarioSimThroughCore(t *testing.T) {
	sc, _ := ScenarioByName("rmr")
	sc.Sim = &SimShape{Systems: []string{"fig1-swwp", "centralized"}, Attempts: 4}
	res, err := RunScenario(sc, ScenarioOptions{Seed: 1, Quick: true})
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
		if p.Lock != "" || p.ReadWait != nil {
			t.Fatalf("sim point carries native metrics: %+v", p)
		}
	}
}

func TestRunScenarioPinsAndRestoresGOMAXPROCS(t *testing.T) {
	before := runtime.GOMAXPROCS(0)
	sc, _ := ScenarioByName("oversub")
	res, err := RunScenario(sc, ScenarioOptions{
		Seed: 1, Quick: true, Locks: []string{"MWSF"}, Workers: []int{8},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.GOMAXPROCS != 2 {
		t.Fatalf("oversub scenario ran at GOMAXPROCS=%d, want 2", res.GOMAXPROCS)
	}
	if after := runtime.GOMAXPROCS(0); after != before {
		t.Fatalf("GOMAXPROCS not restored: %d -> %d", before, after)
	}
	// Duration mode: -quick must have trimmed the deadline.
	if res.Scenario.DurationMs > 25 {
		t.Fatalf("quick did not trim duration: %dms", res.Scenario.DurationMs)
	}
}

func TestQuickTrimShrinksEveryAxis(t *testing.T) {
	sc := Scenario{
		Workers:       []int{1, 2, 4},
		ReadFractions: []float64{0.5, 0.9, 0.99},
		OpsPerWorker:  100000,
		Duration:      time.Second,
		Sim:           &SimShape{Attempts: 16, Points: [][2]int{{1, 1}, {1, 2}, {1, 4}}},
	}
	q := quickTrim(sc)
	if len(q.Workers) != 1 || len(q.ReadFractions) != 2 || q.OpsPerWorker != 500 ||
		q.Duration != 25*time.Millisecond || q.Sim.Attempts != 4 || len(q.Sim.Points) != 2 {
		t.Fatalf("quickTrim left an axis large: %+v", q)
	}
	// The original is untouched (Sim is copied, not aliased).
	if sc.Sim.Attempts != 16 || len(sc.Sim.Points) != 3 {
		t.Fatalf("quickTrim mutated the input scenario: %+v", sc.Sim)
	}
}

func TestScenarioTableNativeColumns(t *testing.T) {
	sc, _ := ScenarioByName("bursty-writers")
	sc.Duration = 30 * time.Millisecond
	res, err := RunScenario(sc, ScenarioOptions{Seed: 1, Locks: []string{"MWWP", "MWRP"}})
	if err != nil {
		t.Fatal(err)
	}
	out := ScenarioTable(res).Render()
	for _, col := range []string{"rd wait p99.9", "wr wait p99", "age p99", "MWWP", "8r/1w"} {
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
