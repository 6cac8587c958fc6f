package main

import "math/bits"

// hist is a log-linear latency histogram: 1 ns buckets below 2048 ns,
// then 1024 buckets per power of two (under 0.1% relative width), up
// to 2^40 ns.  Quantiles interpolate linearly inside the bucket.
type hist struct {
	n int64
	b [32 << 10]int64
}

const histMax = 1<<40 - 1

func histIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	if v > histMax {
		v = histMax
	}
	if v < 2048 {
		return int(v)
	}
	shift := bits.Len64(uint64(v)) - 11
	return shift<<10 + int(v>>shift)
}

// histBucket returns the low edge and width of bucket i.
func histBucket(i int) (lo, width float64) {
	if i < 2048 {
		return float64(i), 1
	}
	shift := i>>10 - 1
	return float64((i - shift<<10) << shift), float64(int64(1) << shift)
}

func (h *hist) add(v int64) {
	h.b[histIndex(v)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.b {
		h.b[i] += c
	}
	h.n += o.n
}

func (h *hist) reset() { *h = hist{} }

// quantile returns the q-quantile (0 <= q <= 1), or 0 when empty.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	target := q * float64(h.n)
	cum := 0.0
	last := 0
	for i, c := range h.b {
		if c == 0 {
			continue
		}
		last = i
		if cum+float64(c) >= target {
			lo, w := histBucket(i)
			return lo + w*(target-cum)/float64(c)
		}
		cum += float64(c)
	}
	lo, w := histBucket(last)
	return lo + w
}
