package harness

import (
	"sort"
	"strings"
	"testing"
	"time"

	"rwsync/rwlock"
)

func TestRMRSweepFlatForFig1(t *testing.T) {
	builders := Builders()
	rows, err := RMRSweep(builders["fig1-swwp"], [][2]int{{1, 2}, {1, 16}}, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	// Theorem 1: the writer's worst RMR must not grow with readers.
	if rows[1].Writer.Max > rows[0].Writer.Max+2 {
		t.Fatalf("fig1 writer RMR grew: %d -> %d", rows[0].Writer.Max, rows[1].Writer.Max)
	}
}

func TestRMRSweepGrowsForCentralized(t *testing.T) {
	builders := Builders()
	rows, err := RMRSweep(builders["centralized"], [][2]int{{1, 2}, {8, 64}}, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rows[1].Reader.Max <= rows[0].Reader.Max {
		t.Fatalf("centralized reader RMR did not grow: %d -> %d", rows[0].Reader.Max, rows[1].Reader.Max)
	}
}

func TestRMRSweepDSMExceedsCC(t *testing.T) {
	builders := Builders()
	pts := [][2]int{{1, 16}}
	cc, err := RMRSweep(builders["fig1-swwp"], pts, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	dsm, err := RMRSweepDSM(builders["fig1-swwp"], pts, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	if dsm[0].Reader.Max <= cc[0].Reader.Max {
		t.Fatalf("DSM reader RMR (%d) should exceed CC (%d)", dsm[0].Reader.Max, cc[0].Reader.Max)
	}
}

func TestRMRTableShape(t *testing.T) {
	builders := Builders()
	rows, err := RMRSweep(builders["mwsf"], [][2]int{{2, 2}}, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	out := RMRTable("title", rows).Render()
	if !strings.Contains(out, "title") || !strings.Contains(out, "writer RMR max") {
		t.Fatalf("table malformed:\n%s", out)
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

func TestThroughputSweepAndTable(t *testing.T) {
	pts := ThroughputSweep([]int{2}, []float64{0.9}, 300, 1)
	if len(pts) != len(LockNames()) {
		t.Fatalf("got %d points, want %d", len(pts), len(LockNames()))
	}
	for _, p := range pts {
		if p.OpsPerSec <= 0 {
			t.Fatalf("lock %s reported no throughput", p.Lock)
		}
	}
	out := ThroughputTable("tp", pts).Render()
	for _, name := range LockNames() {
		if !strings.Contains(out, name) {
			t.Fatalf("table missing %s:\n%s", name, out)
		}
	}
}

func TestPrioritySweepAndTable(t *testing.T) {
	pts := PrioritySweep(2, 300, 1)
	if len(pts) != len(LockNames()) {
		t.Fatalf("got %d points, want %d", len(pts), len(LockNames()))
	}
	for _, p := range pts {
		if p.WriteP50Ns <= 0 || p.ReadP50Ns <= 0 {
			t.Fatalf("lock %s missing latencies: %+v", p.Lock, p)
		}
	}
	out := PriorityTable("prio", pts).Render()
	if !strings.Contains(out, "write p99 ns") {
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
	pts := OversubscribedSweepLocks([]string{"MWSF", "sync.RWMutex"},
		[]int{16}, []float64{0.9}, 20*time.Millisecond, 1)
	if len(pts) != 2 {
		t.Fatalf("got %d points, want 2", len(pts))
	}
	for _, p := range pts {
		if p.OpsPerSec <= 0 {
			t.Fatalf("lock %s reported no throughput", p.Lock)
		}
		if p.Workers != 16 {
			t.Fatalf("point kept workers=%d, want 16", p.Workers)
		}
	}
	out := ThroughputTable("oversub", pts).Render()
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
