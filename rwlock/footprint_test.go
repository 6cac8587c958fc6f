package rwlock

import (
	"runtime"
	"runtime/debug"
	"testing"
)

// TestLockFootprint pins measured bytes/instance for the private and
// Slim builds of the two reader-fast-path protocols — the
// number the serving tier's 10^6-stripe grids stand on.  The measure
// is heap growth across n constructions PLUS one warm passage each
// (a read and a write), so lazily-allocated state — Epoch's pool
// locals and stamp slots, Bravo's first drain — is charged to the
// lock that owns it, exactly as the harness's bytes/lock metric
// charges it.
//
// The pinned bounds are deliberately loose (allocator size classes
// and Go-version drift must not flake this test); the ratio bound is
// the load-bearing one: the arena-backed slim builds must stay two
// orders of magnitude under the private builds, or the 10^6-stripe
// story in README.md is broken.
func TestLockFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("heap measurement in -short")
	}
	const n = 4096
	measure := func(build func() RWLock) float64 {
		// Warm shared machinery (the Slim arena, lazy globals) outside
		// the window, and the measurement slice too.
		w := build()
		rt := w.RLock()
		w.RUnlock(rt)
		wt := w.Lock()
		w.Unlock(wt)
		locks := make([]RWLock, n)
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := range locks {
			locks[i] = build()
		}
		for _, l := range locks {
			rt := l.RLock()
			l.RUnlock(rt)
			wt := l.Lock()
			l.Unlock(wt)
		}
		runtime.ReadMemStats(&after)
		per := float64(after.HeapAlloc-before.HeapAlloc) / n
		runtime.KeepAlive(locks)
		runtime.KeepAlive(w)
		return per
	}

	privBravo := measure(func() RWLock { return NewBravoMWSF() })
	slimBravo := measure(func() RWLock { return NewSlimBravo() })
	privEpoch := measure(func() RWLock { return NewEpochMWSF() })
	slimEpoch := measure(func() RWLock { return NewSlimEpoch() })

	t.Logf("bytes/instance: Bravo(MWSF) private=%.0f slim=%.0f", privBravo, slimBravo)
	t.Logf("bytes/instance: Epoch(MWSF) private=%.0f slim=%.0f", privEpoch, slimEpoch)

	// The slim builds are one 16-byte object; allow allocator slack.
	if slimBravo > 64 {
		t.Errorf("SlimBravo %.0f bytes/instance, want <= 64", slimBravo)
	}
	if slimEpoch > 64 {
		t.Errorf("SlimEpoch %.0f bytes/instance, want <= 64", slimEpoch)
	}
	// The acceptance ratio: the slim builds >= 100x under the
	// private-table wrappers.
	if privBravo < 100*slimBravo {
		t.Errorf("private Bravo %.0f vs slim %.0f: ratio %.1fx, want >= 100x", privBravo, slimBravo, privBravo/slimBravo)
	}
	if privEpoch < 100*slimEpoch {
		t.Errorf("private Epoch %.0f vs slim %.0f: ratio %.1fx, want >= 100x", privEpoch, slimEpoch, privEpoch/slimEpoch)
	}
}
