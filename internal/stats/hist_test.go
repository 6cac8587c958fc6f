package stats

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// TestHistogramQuantileWithinOneBucket: on random data, every
// headline quantile must land in the same log bucket as (or one
// adjacent to) the exact sorted-sample quantile — the accuracy
// contract the scenario engine's reported percentiles rest on.
func TestHistogramQuantileWithinOneBucket(t *testing.T) {
	for _, dist := range []struct {
		name string
		gen  func(r *rand.Rand) int64
	}{
		{"uniform", func(r *rand.Rand) int64 { return r.Int63n(1_000_000) }},
		{"exponentialish", func(r *rand.Rand) int64 { return int64(1) << uint(r.Intn(40)) }},
		{"small", func(r *rand.Rand) int64 { return r.Int63n(50) }},
		{"heavy-tail", func(r *rand.Rand) int64 {
			if r.Intn(100) == 0 {
				return r.Int63n(1_000_000_000)
			}
			return r.Int63n(1000)
		}},
	} {
		t.Run(dist.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(7))
			var h Histogram
			xs := make([]int64, 20000)
			for i := range xs {
				xs[i] = dist.gen(r)
				h.Record(xs[i])
			}
			sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
			for _, p := range []float64{0.5, 0.9, 0.99, 0.999} {
				exact := percentile(xs, p)
				got := h.Quantile(p)
				bGot, bExact := histIndex(got), histIndex(exact)
				if bGot < bExact-1 || bGot > bExact+1 {
					t.Errorf("p%v: hist %d (bucket %d) vs exact %d (bucket %d)",
						p, got, bGot, exact, bExact)
				}
			}
			if h.Min() != xs[0] || h.Max() != xs[len(xs)-1] {
				t.Errorf("min/max not exact: hist [%d,%d] vs [%d,%d]",
					h.Min(), h.Max(), xs[0], xs[len(xs)-1])
			}
		})
	}
}

// TestHistogramMergeAssociative: ((a+b)+c) and (a+(b+c)) — and the
// one-shot histogram of all the samples — must agree exactly, bucket
// for bucket, so per-worker histograms can be folded in any order.
func TestHistogramMergeAssociative(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	parts := make([]*Histogram, 3)
	var all Histogram
	for i := range parts {
		parts[i] = new(Histogram)
		for j := 0; j < 5000+i*777; j++ {
			v := r.Int63n(1 << uint(10+i*10))
			parts[i].Record(v)
			all.Record(v)
		}
	}
	var left Histogram // (a+b)+c
	left.Merge(parts[0])
	left.Merge(parts[1])
	left.Merge(parts[2])
	var bc Histogram // a+(b+c)
	bc.Merge(parts[1])
	bc.Merge(parts[2])
	var right Histogram
	right.Merge(parts[0])
	right.Merge(&bc)
	for _, got := range []*Histogram{&left, &right} {
		if got.counts != all.counts {
			t.Fatal("merged bucket counts differ from one-shot recording")
		}
		if got.n != all.n || got.min != all.min || got.max != all.max ||
			got.sum != all.sum || got.sumSq != all.sumSq {
			t.Fatalf("merged moments differ: %+v vs %+v", got.Summary(), all.Summary())
		}
	}
	// Merging an empty or nil histogram is a no-op.
	before := left.Summary()
	left.Merge(nil)
	left.Merge(new(Histogram))
	if left.Summary() != before {
		t.Fatal("merging empty changed the histogram")
	}
}

// TestHistogramRecordDoesNotAllocate: Record is on the workload's
// sampled hot path; it must never touch the allocator.
func TestHistogramRecordDoesNotAllocate(t *testing.T) {
	h := new(Histogram)
	v := int64(0)
	if n := testing.AllocsPerRun(1000, func() {
		h.Record(v)
		v += 997
	}); n != 0 {
		t.Fatalf("Record allocates %.1f objects per call", n)
	}
	var sink Histogram
	if n := testing.AllocsPerRun(100, func() { sink.Merge(h) }); n != 0 {
		t.Fatalf("Merge allocates %.1f objects per call", n)
	}
}

func TestHistogramEmptyAndNegative(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 || h.N() != 0 || h.Snapshot() != nil {
		t.Fatalf("empty histogram not inert: %v", h.String())
	}
	if h.Summary() != (Summary{}) {
		t.Fatal("empty summary not zero")
	}
	h.Record(-5) // clock skew clamps to 0
	if h.Min() != 0 || h.Max() != 0 || h.N() != 1 {
		t.Fatalf("negative not clamped: %s", h.String())
	}
}

func TestHistogramSummaryMatchesSummarize(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	xs := make([]int64, 5000)
	var h Histogram
	for i := range xs {
		xs[i] = r.Int63n(100000)
		h.Record(xs[i])
	}
	exact := Summarize(xs)
	got := h.Summary()
	if got.N != exact.N || got.Min != exact.Min || got.Max != exact.Max {
		t.Fatalf("order stats differ: %+v vs %+v", got, exact)
	}
	if diff := got.Mean - exact.Mean; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("mean differs: %f vs %f", got.Mean, exact.Mean)
	}
	if diff := got.StdDev - exact.StdDev; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("stddev differs: %f vs %f", got.StdDev, exact.StdDev)
	}
}

func TestHistSnapshotRoundTrip(t *testing.T) {
	var h Histogram
	for i := int64(0); i < 1000; i++ {
		h.Record(i * i)
	}
	s := h.Snapshot()
	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back HistSnapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&back, s) {
		t.Fatalf("round trip lost data: %+v vs %+v", back, s)
	}
	// The sparse buckets carry every observation.
	var sum int64
	for _, b := range back.Bucket {
		sum += b[1]
	}
	if sum != back.Count || back.Count != 1000 {
		t.Fatalf("buckets hold %d of %d observations", sum, back.Count)
	}
}
