package rwmap

import (
	"fmt"
	"testing"

	"rwsync/rwlock"
)

// TestHeatmapNonAdaptive checks the entry-count ranking, the
// reported-stripes entry sum, and the kind naming for a
// WithLockFactory grid.
func TestHeatmapNonAdaptive(t *testing.T) {
	m := New[int, int](
		WithStripes(8),
		WithLockFactory(func() rwlock.RWLock { return rwlock.NewMWSF() }),
	)
	for i := 0; i < 200; i++ {
		m.Put(i, i)
	}
	h := m.Heatmap(0) // all stripes
	if len(h.Top) != 8 {
		t.Fatalf("len(Top) = %d, want all 8 stripes", len(h.Top))
	}
	if h.Entries != m.Len() {
		t.Errorf("Entries = %d, want Len() = %d", h.Entries, m.Len())
	}
	for i := 1; i < len(h.Top); i++ {
		if h.Top[i].Entries > h.Top[i-1].Entries {
			t.Errorf("Top not sorted by entries at %d: %d > %d", i, h.Top[i].Entries, h.Top[i-1].Entries)
		}
	}
	for _, sh := range h.Top {
		if sh.LockKind != "MWSF" {
			t.Errorf("stripe %d LockKind = %q, want MWSF", sh.Index, sh.LockKind)
		}
	}
	top3 := m.Heatmap(3)
	if len(top3.Top) != 3 {
		t.Fatalf("len(Top) = %d, want 3", len(top3.Top))
	}
	if want := h.Top[0].Entries + h.Top[1].Entries + h.Top[2].Entries; top3.Entries != want {
		t.Errorf("Heatmap(3).Entries = %d, want the 3 reported stripes' %d", top3.Entries, want)
	}
}

// TestHeatmapConcurrent races Heatmap against live traffic; run under
// -race this pins that the snapshot takes the stripe locks it needs.
func TestHeatmapConcurrent(t *testing.T) {
	m := New[string, int](WithStripes(8))
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			k := fmt.Sprintf("k%d", i%32)
			m.Put(k, i)
			m.Get(k)
		}
	}()
	for i := 0; i < 50; i++ {
		h := m.Heatmap(3)
		if len(h.Top) != 3 {
			t.Fatalf("len(Top) = %d, want 3", len(h.Top))
		}
	}
	close(stop)
	<-done
}
