package stats

import (
	"fmt"
	"math"
	"math/bits"
)

// Histogram bucket geometry: values are binned logarithmically with
// histSubBuckets linear sub-buckets per octave (the HDR-histogram
// layout).  Bucket width is at most 1/histSubBuckets of the value, so
// any quantile read back from the histogram is within ~3.1% of the
// exact sample quantile — far below run-to-run latency noise — while
// the whole structure is one fixed array, allocation- and
// comparison-free to record into, and mergeable across workers by
// element-wise addition.
const (
	histSubBits    = 5
	histSubBuckets = 1 << histSubBits // 32 linear sub-buckets per octave
	// Index layout: values below 2*histSubBuckets map to themselves
	// (exact); above that, octave e >= 1 holds indices
	// (e+1)*histSubBuckets .. (e+1)*histSubBuckets+histSubBuckets-1.
	// The largest int64 (63 significant bits) lands in octave 58, so:
	histBuckets = (58+2)*histSubBuckets - 1 + 1 // 1920
)

// Histogram is a fixed-footprint log-bucketed histogram of int64
// observations (latencies in nanoseconds, RMR counts, ...).  The zero
// value is ready to use.  Record never allocates, so per-worker
// histograms can sit on a measurement hot path; Merge folds one
// worker's histogram into another, and quantiles come out of the
// bucket counts without sorting, so footprint and extraction cost are
// independent of how many operations were recorded.
//
// Histogram is not safe for concurrent use; give each worker its own
// and Merge after the workers join.
type Histogram struct {
	counts [histBuckets]int64
	n      int64
	sum    float64
	sumSq  float64
	min    int64
	max    int64
}

// histIndex maps a non-negative value to its bucket.
func histIndex(v int64) int {
	if v < 2*histSubBuckets {
		return int(v)
	}
	// Octave = how many doublings past the exact range; mantissa keeps
	// the top histSubBits+1 bits.
	e := bits.Len64(uint64(v)) - 1 - histSubBits
	return e*histSubBuckets + int(v>>uint(e))
}

// histBucketBounds returns the [lo, hi] value range of bucket idx.
func histBucketBounds(idx int) (lo, hi int64) {
	if idx < 2*histSubBuckets {
		return int64(idx), int64(idx)
	}
	e := idx/histSubBuckets - 1
	m := int64(idx - e*histSubBuckets)
	lo = m << uint(e)
	hi = lo + (1 << uint(e)) - 1
	return lo, hi
}

// Record adds one observation.  Negative values are clamped to zero
// (a latency sample can come out negative only through clock
// weirdness; losing its sign beats crashing the measurement).
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	if h.n == 0 {
		h.min, h.max = v, v
	} else {
		if v < h.min {
			h.min = v
		}
		if v > h.max {
			h.max = v
		}
	}
	h.counts[histIndex(v)]++
	h.n++
	f := float64(v)
	h.sum += f
	h.sumSq += f * f
}

// Merge folds o into h.  Merging is commutative and associative, so
// per-worker histograms can be combined in any order.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil || o.n == 0 {
		return
	}
	if h.n == 0 {
		h.min, h.max = o.min, o.max
	} else {
		if o.min < h.min {
			h.min = o.min
		}
		if o.max > h.max {
			h.max = o.max
		}
	}
	for i, c := range o.counts {
		if c != 0 {
			h.counts[i] += c
		}
	}
	h.n += o.n
	h.sum += o.sum
	h.sumSq += o.sumSq
}

// N returns the number of recorded observations.
func (h *Histogram) N() int64 { return h.n }

// Min returns the smallest recorded observation (exact, not bucketed).
func (h *Histogram) Min() int64 { return h.min }

// Max returns the largest recorded observation (exact, not bucketed).
func (h *Histogram) Max() int64 { return h.max }

// Mean returns the exact mean of the recorded observations (the sum
// is tracked alongside the buckets).
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// StdDev returns the population standard deviation (exact: sum and
// sum-of-squares are tracked alongside the buckets).
func (h *Histogram) StdDev() float64 {
	if h.n == 0 {
		return 0
	}
	n := float64(h.n)
	mean := h.sum / n
	variance := h.sumSq/n - mean*mean
	if variance < 0 {
		variance = 0
	}
	return math.Sqrt(variance)
}

// Quantile returns the p-quantile (0 < p <= 1) by nearest rank over
// the buckets: the midpoint of the bucket holding the rank-th
// observation, clamped to the exact observed [min, max].  The result
// is within one bucket width (<= value/histSubBuckets) of the exact
// sample quantile.
func (h *Histogram) Quantile(p float64) int64 {
	if h.n == 0 {
		return 0
	}
	rank := int64(math.Ceil(p * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	if rank > h.n {
		rank = h.n
	}
	var cum int64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		cum += c
		if cum >= rank {
			lo, hi := histBucketBounds(i)
			v := lo + (hi-lo)/2
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}

// Summary converts the histogram to the package's order-statistics
// Summary.  N, Min, Max, Mean and StdDev are exact; the percentiles
// are bucket-resolution (see Quantile).
func (h *Histogram) Summary() Summary {
	if h.n == 0 {
		return Summary{}
	}
	return Summary{
		N:      int(h.n),
		Min:    h.min,
		Max:    h.max,
		Mean:   h.Mean(),
		StdDev: h.StdDev(),
		P50:    h.Quantile(0.50),
		P90:    h.Quantile(0.90),
		P99:    h.Quantile(0.99),
	}
}

// String renders the key quantiles compactly.
func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d min=%d p50=%d p90=%d p99=%d p99.9=%d max=%d mean=%.2f",
		h.n, h.min, h.Quantile(0.50), h.Quantile(0.90), h.Quantile(0.99),
		h.Quantile(0.999), h.max, h.Mean())
}

// HistSnapshot is the serializable form of a Histogram: headline
// quantiles plus the sparse bucket counts, so a consumer can re-derive
// any quantile (or merge snapshots) without the raw samples.  The
// Buckets pairs are [bucket index, count] in the package's fixed
// geometry (histSubBits linear bits per octave).
type HistSnapshot struct {
	Count  int64      `json:"count"`
	Min    int64      `json:"min"`
	Max    int64      `json:"max"`
	Mean   float64    `json:"mean"`
	P50    int64      `json:"p50"`
	P90    int64      `json:"p90"`
	P99    int64      `json:"p99"`
	P999   int64      `json:"p999"`
	Bucket [][2]int64 `json:"buckets,omitempty"`
}

// Snapshot extracts the serializable form.  Returns nil for an empty
// histogram so optional metrics marshal as absent rather than as a
// zero report.
func (h *Histogram) Snapshot() *HistSnapshot {
	if h == nil || h.n == 0 {
		return nil
	}
	s := &HistSnapshot{
		Count: h.n,
		Min:   h.min,
		Max:   h.max,
		Mean:  h.Mean(),
		P50:   h.Quantile(0.50),
		P90:   h.Quantile(0.90),
		P99:   h.Quantile(0.99),
		P999:  h.Quantile(0.999),
	}
	for i, c := range h.counts {
		if c != 0 {
			s.Bucket = append(s.Bucket, [2]int64{int64(i), c})
		}
	}
	return s
}
