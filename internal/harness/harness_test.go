package harness

import (
	"sort"
	"strings"
	"testing"
	"time"

	"rwsync/rwlock"
)

// rmrPoints runs one named simulator system over points as a
// scenario, the way cmd/rmrbench does.
func rmrPoints(t *testing.T, system string, points [][2]int, attempts int, dsm bool) []ScenarioPoint {
	t.Helper()
	res, err := RunScenario(Scenario{
		Name: "rmr-test",
		Sim:  &SimShape{Systems: []string{system}, Points: points, Attempts: attempts, DSM: dsm},
	}, ScenarioOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return res.Points
}

func TestRMRFlatForFig1(t *testing.T) {
	rows := rmrPoints(t, "fig1-swwp", [][2]int{{1, 2}, {1, 16}}, 6, false)
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	// Theorem 1: the writer's worst RMR must not grow with readers.
	if rows[1].WriterRMR.Max > rows[0].WriterRMR.Max+2 {
		t.Fatalf("fig1 writer RMR grew: %d -> %d", rows[0].WriterRMR.Max, rows[1].WriterRMR.Max)
	}
}

func TestRMRGrowsForCentralized(t *testing.T) {
	rows := rmrPoints(t, "centralized", [][2]int{{1, 2}, {8, 64}}, 8, false)
	if rows[1].ReaderRMR.Max <= rows[0].ReaderRMR.Max {
		t.Fatalf("centralized reader RMR did not grow: %d -> %d", rows[0].ReaderRMR.Max, rows[1].ReaderRMR.Max)
	}
}

func TestRMRDSMExceedsCC(t *testing.T) {
	pts := [][2]int{{1, 16}}
	cc := rmrPoints(t, "fig1-swwp", pts, 6, false)
	dsm := rmrPoints(t, "fig1-swwp", pts, 6, true)
	if dsm[0].ReaderRMR.Max <= cc[0].ReaderRMR.Max {
		t.Fatalf("DSM reader RMR (%d) should exceed CC (%d)", dsm[0].ReaderRMR.Max, cc[0].ReaderRMR.Max)
	}
}

func TestRMRTableShape(t *testing.T) {
	rows := rmrPoints(t, "mwsf", [][2]int{{2, 2}}, 4, false)
	out := RMRTable("title", rows).Render()
	if !strings.Contains(out, "title") || !strings.Contains(out, "writer RMR max") {
		t.Fatalf("table malformed:\n%s", out)
	}
	if strings.Contains(out, "system") {
		t.Fatalf("one-system RMR table carries a system column:\n%s", out)
	}
}

func TestBuildersCoverAllAlgorithms(t *testing.T) {
	b := Builders()
	for _, name := range []string{"fig1-swwp", "fig2-swrp", "mwsf", "mwrp", "mwwp", "centralized", "pfticket", "taskfair", "tournament"} {
		f, ok := b[name]
		if !ok {
			t.Fatalf("missing builder %q", name)
		}
		w := 1
		sys := f(w, 2)
		if sys == nil || sys.Mem == nil || len(sys.Progs) == 0 {
			t.Fatalf("builder %q produced a broken system", name)
		}
	}
}

// runRegistered runs a registered scenario with overrides, failing
// the test on any error.
func runRegistered(t *testing.T, name string, opts ScenarioOptions) *ScenarioResult {
	t.Helper()
	sc, ok := ScenarioByName(name)
	if !ok {
		t.Fatalf("scenario %s not registered", name)
	}
	res, err := RunScenario(sc, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestThroughputScenarioAndTable: the "throughput" scenario sweeps every
// default lock, and its table has a row for each.
func TestThroughputScenarioAndTable(t *testing.T) {
	res := runRegistered(t, "throughput", ScenarioOptions{Seed: 1, Quick: true, Workers: []int{2}, Ops: 300})
	if want := len(LockNames()) * 2; len(res.Points) != want { // two read fractions under Quick
		t.Fatalf("got %d points, want %d", len(res.Points), want)
	}
	for _, p := range res.Points {
		if p.OpsPerSec <= 0 {
			t.Fatalf("lock %s reported no throughput", p.Lock)
		}
	}
	out := ScenarioTable(res).Render()
	for _, name := range LockNames() {
		if !strings.Contains(out, name) {
			t.Fatalf("table missing %s:\n%s", name, out)
		}
	}
}

// TestPriorityScenarioAndTable: the "priority" scenario measures both
// classes' latency for every default lock.
func TestPriorityScenarioAndTable(t *testing.T) {
	res := runRegistered(t, "priority", ScenarioOptions{Seed: 1, Workers: []int{3}, Ops: 300})
	if len(res.Points) != len(LockNames()) {
		t.Fatalf("got %d points, want %d", len(res.Points), len(LockNames()))
	}
	for _, p := range res.Points {
		if p.WriteTotal == nil || p.WriteTotal.P50 <= 0 || p.ReadTotal == nil || p.ReadTotal.P50 <= 0 {
			t.Fatalf("lock %s missing latencies: %+v", p.Lock, p)
		}
	}
	out := ScenarioTable(res).Render()
	if !strings.Contains(out, "wr wait p99") || !strings.Contains(out, "2r/1w") {
		t.Fatalf("table malformed:\n%s", out)
	}
}

func TestNativeLocksConstructAll(t *testing.T) {
	for name, f := range NativeLocks() {
		l := f()
		tok := l.Lock()
		l.Unlock(tok)
		rt := l.RLock()
		l.RUnlock(rt)
		_ = name
	}
}

func TestRegistryNameListsConsistent(t *testing.T) {
	builders := NativeLocks()
	for _, names := range [][]string{LockNames(), AllLockNames(), OversubLockNames()} {
		for _, name := range names {
			if builders[name] == nil {
				t.Fatalf("name list entry %q missing from NativeLocks", name)
			}
		}
	}
	// Every registry entry must be presentable: AllLockNames is the
	// complete ordering.
	if len(AllLockNames()) != len(builders) {
		t.Fatalf("AllLockNames has %d entries, registry %d", len(AllLockNames()), len(builders))
	}
}

func TestSortedNameLists(t *testing.T) {
	// The sorted listings back error messages: they must cover the
	// same sets as the presentation orders and actually be sorted.
	sortedLocks := SortedLockNames()
	if !sort.StringsAreSorted(sortedLocks) {
		t.Fatalf("SortedLockNames not sorted: %v", sortedLocks)
	}
	if len(sortedLocks) != len(AllLockNames()) {
		t.Fatalf("SortedLockNames has %d entries, AllLockNames %d",
			len(sortedLocks), len(AllLockNames()))
	}
	sortedScenarios := SortedScenarioNames()
	if !sort.StringsAreSorted(sortedScenarios) {
		t.Fatalf("SortedScenarioNames not sorted: %v", sortedScenarios)
	}
	if len(sortedScenarios) != len(ScenarioNames()) {
		t.Fatalf("SortedScenarioNames has %d entries, ScenarioNames %d",
			len(sortedScenarios), len(ScenarioNames()))
	}
}

func TestSelectLockNamesCanonicalOrder(t *testing.T) {
	got, err := SelectLockNames([]string{"MWSF/bounded", "MWSF"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "MWSF" || got[1] != "MWSF/bounded" {
		t.Fatalf("SelectLockNames = %v, want canonical [MWSF MWSF/bounded]", got)
	}
	if _, err := SelectLockNames(nil); err != nil {
		t.Fatal(err)
	}
}

func TestOversubscribedSweep(t *testing.T) {
	sc, _ := ScenarioByName("oversub")
	sc.ReadFractions = []float64{0.9}
	sc.Duration = 20 * time.Millisecond
	res, err := RunScenario(sc, ScenarioOptions{Seed: 1,
		Locks: []string{"MWSF", "sync.RWMutex"}, Workers: []int{16}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("got %d points, want 2", len(res.Points))
	}
	for _, p := range res.Points {
		if p.OpsPerSec <= 0 {
			t.Fatalf("lock %s reported no throughput", p.Lock)
		}
		if p.Workers != 16 {
			t.Fatalf("point kept workers=%d, want 16", p.Workers)
		}
	}
	out := ScenarioTable(res).Render()
	if !strings.Contains(out, "MWSF") {
		t.Fatalf("table missing MWSF row:\n%s", out)
	}
}

// TestNativeLocksWithStats pins the -metrics seam: a WithStats extra
// must reach every layer of every registry row that is inside the
// stats seam — one acquire counted per passage, nothing
// double-counted — while the documented outside rows (Slim, the
// classical baselines, sync.RWMutex) stay silent without erroring.
func TestNativeLocksWithStats(t *testing.T) {
	outside := map[string]bool{
		"SlimBravo": true, "SlimEpoch": true,
		"CentralizedRW": true, "PhaseFairRW": true, "TaskFairRW": true,
		"sync.RWMutex": true,
	}
	for name := range NativeLocks() {
		st := new(rwlock.LockStats)
		l := NativeLocksWith(rwlock.WithStats(st))[name]()
		for i := 0; i < 3; i++ {
			tok := l.Lock()
			l.Unlock(tok)
			rt := l.RLock()
			l.RUnlock(rt)
		}
		snap := st.Snapshot()
		if err := snap.CheckCoherence(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if outside[name] {
			if snap.ReadAcquires != 0 || snap.WriteAcquires != 0 {
				t.Errorf("%s: outside the stats seam but counted %d/%d acquires",
					name, snap.ReadAcquires, snap.WriteAcquires)
			}
			continue
		}
		if snap.ReadAcquires != 3 || snap.WriteAcquires != 3 {
			t.Errorf("%s: counted %d reads / %d writes, want 3/3",
				name, snap.ReadAcquires, snap.WriteAcquires)
		}
	}
}

// TestRunScenarioMetrics pins the engine-level contract: a Metrics run
// carries one coherent counter block per point (validated against the
// op counts by the runner itself) and records the metrics bit.
func TestRunScenarioMetrics(t *testing.T) {
	sc, ok := ScenarioByName("throughput")
	if !ok {
		t.Fatal("throughput scenario not registered")
	}
	res, err := RunScenario(sc, ScenarioOptions{
		Seed:    1,
		Quick:   true,
		Metrics: true,
		Ops:     200,
		Workers: []int{2},
		Locks:   []string{"MWSF/combine", "sync.RWMutex"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Metrics {
		t.Fatal("metrics bit not recorded on the result")
	}
	var combined uint64
	for _, p := range res.Points {
		if p.Counters == nil {
			t.Fatalf("lock %s: no counters", p.Lock)
		}
		if p.Lock == "MWSF/combine" {
			combined = p.Counters.CombinedOps
		}
	}
	// The combining row's closure writes must have flowed through the
	// combiner's counters, not just the wrapper's.
	if combined == 0 {
		t.Fatal("MWSF/combine cell counted no combined ops")
	}
}
