package harness

import (
	"sort"
	"strings"
	"testing"

	"rwsync/rwlock"
)

func TestShardedScenarioNames(t *testing.T) {
	names := ShardedScenarioNames()
	if len(names) == 0 {
		t.Fatal("no sharded scenarios registered")
	}
	if !sort.StringsAreSorted(names) {
		t.Fatalf("ShardedScenarioNames not sorted: %v", names)
	}
	found := false
	for _, n := range names {
		sc, ok := ScenarioByName(n)
		if !ok || len(sc.Stripes) == 0 {
			t.Fatalf("listed scenario %q has no stripe axis", n)
		}
		if n == "zipf-grid" {
			found = true
		}
	}
	if !found {
		t.Fatalf("zipf-grid missing from sharded listing: %v", names)
	}
}

func TestShardedLockNamesResolve(t *testing.T) {
	builders := NativeLocks()
	for _, name := range ShardedLockNames() {
		if builders[name] == nil {
			t.Errorf("sharded lock %q not in the registry", name)
		}
	}
}

func TestMeasureBytesPerLock(t *testing.T) {
	slim := measureBytesPerLock(func() rwlock.RWLock { return rwlock.NewSlimBravo() }, 2048)
	priv := measureBytesPerLock(func() rwlock.RWLock { return rwlock.NewBravoMWSF() }, 256)
	if slim <= 0 || priv <= 0 {
		t.Fatalf("non-positive footprints: slim=%.0f priv=%.0f", slim, priv)
	}
	if priv <= slim {
		t.Fatalf("private Bravo (%.0f B) not larger than slim (%.0f B)", priv, slim)
	}
}

// TestRunShardedScenarioShape: every point of a sharded run carries
// the grid-size, skew, footprint, and hot-key columns — the invariant
// the CI shape check rests on.
func TestRunShardedScenarioShape(t *testing.T) {
	res, err := RunScenario(Scenario{
		Name:          "sharded-shape",
		Title:         "shape probe",
		Locks:         []string{"SlimBravo", "sync.RWMutex"},
		Workers:       []int{4},
		ReadFractions: []float64{0.9},
		OpsPerWorker:  400,
		Stripes:       []int{4, 64},
		ZipfS:         []float64{1.07},
		Keys:          512,
		SampleEvery:   4,
		MeasureAge:    true,
	}, ScenarioOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 4 { // 2 locks x 2 stripe counts x 1 skew x 1 workers x 1 fraction
		t.Fatalf("got %d points, want 4", len(res.Points))
	}
	for i, p := range res.Points {
		if p.Stripes != 4 && p.Stripes != 64 {
			t.Errorf("point %d: stripes = %d", i, p.Stripes)
		}
		if p.ZipfS != 1.07 {
			t.Errorf("point %d: zipf_s = %v", i, p.ZipfS)
		}
		if p.BytesPerLock <= 0 {
			t.Errorf("point %d: bytes_per_lock = %v", i, p.BytesPerLock)
		}
		if p.HotReadOps <= 0 || p.HotReadOps > p.ReadOps {
			t.Errorf("point %d: hot_read_ops = %d of %d reads", i, p.HotReadOps, p.ReadOps)
		}
		if p.OpsPerSec <= 0 || p.ReadWait == nil || p.WriteWait == nil {
			t.Errorf("point %d: missing core measurements (%+v)", i, p)
		}
	}
	out := ScenarioTable(res).Render()
	for _, col := range []string{"stripes", "zipf s", "B/lock", "hot rd/s"} {
		if !strings.Contains(out, col) {
			t.Fatalf("sharded table missing %q column:\n%s", col, out)
		}
	}
}

func TestRunShardedScenarioRejectsBadGrids(t *testing.T) {
	grid := func(stripes int, lock string, workers int) Scenario {
		return Scenario{Name: "bad", Stripes: []int{stripes}, Locks: []string{lock},
			Workers: []int{workers}, ReadFractions: []float64{0.9}}
	}
	if _, err := RunScenario(grid(0, "SlimBravo", 2), ScenarioOptions{Seed: 1}); err == nil ||
		!strings.Contains(err.Error(), "stripe count 0") {
		t.Errorf("stripe count 0: err = %v", err)
	}
	if _, err := RunScenario(grid(4, "NoSuchLock", 2), ScenarioOptions{Seed: 1}); err == nil ||
		!strings.Contains(err.Error(), "NoSuchLock") {
		t.Errorf("unknown lock on the sharded path: err = %v", err)
	}
	if _, err := RunScenario(grid(4, "SlimBravo", 0), ScenarioOptions{Seed: 1}); err == nil ||
		!strings.Contains(err.Error(), "worker count 0") {
		t.Errorf("worker count 0 on the sharded path: err = %v", err)
	}
}

// TestQuickTrimKeepsStripeAxis: -quick must keep more than one grid
// size (the CI shape check sweeps the axis) while dropping the
// 10^5-and-up grids, and must trim the skew axis to one value.
func TestQuickTrimKeepsStripeAxis(t *testing.T) {
	sc := Scenario{
		Stripes: []int{1, 1 << 10, 1 << 20},
		ZipfS:   []float64{1.07, 1.5},
	}
	q := quickTrim(sc)
	if len(q.Stripes) != 2 || q.Stripes[0] != 1 || q.Stripes[1] != 1<<10 {
		t.Fatalf("quick stripes = %v, want [1 1024]", q.Stripes)
	}
	if len(q.ZipfS) != 1 {
		t.Fatalf("quick skews = %v, want one", q.ZipfS)
	}
	// All-huge grids still leave a smoke-sized one to run.
	q = quickTrim(Scenario{Stripes: []int{1 << 20}})
	if len(q.Stripes) != 1 || q.Stripes[0] != 1024 {
		t.Fatalf("quick all-huge stripes = %v, want [1024]", q.Stripes)
	}
}

// TestScenarioOptionsStripeOverride: the CLI's -stripes/-skew land on
// sharded scenarios and are ignored for flat ones.
func TestScenarioOptionsStripeOverride(t *testing.T) {
	res, err := RunScenario(Scenario{
		Name:          "override-probe",
		Locks:         []string{"SlimEpoch"},
		Workers:       []int{2},
		ReadFractions: []float64{0.9},
		OpsPerWorker:  200,
		Stripes:       []int{1 << 20},
		Keys:          64,
	}, ScenarioOptions{Seed: 1, Stripes: []int{8}, ZipfS: []float64{0.5}})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Points {
		if p.Stripes != 8 || p.ZipfS != 0.5 {
			t.Fatalf("override not applied: stripes=%d zipf=%v", p.Stripes, p.ZipfS)
		}
	}
	flat, err := RunScenario(Scenario{
		Name:          "flat-probe",
		Locks:         []string{"MWSF"},
		Workers:       []int{2},
		ReadFractions: []float64{0.9},
		OpsPerWorker:  200,
	}, ScenarioOptions{Seed: 1, Stripes: []int{8}})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range flat.Points {
		if p.Stripes != 0 || p.ZipfS != 0 || p.BytesPerLock != 0 || p.HotReadOps != 0 {
			t.Fatalf("flat scenario grew sharded columns: %+v", p)
		}
	}
}
