package main

import (
	"math"
	"sort"
)

// The benchmark's inputs come only from this file: a seeded
// splitmix64 generator and an inverse-CDF Zipf sampler.  Streams are
// generated before any clock starts, so the timed loop only calls the
// system under test.

// streamLen is the length of each client's pre-generated operation
// stream; clients cycle through it.  It is small (256 KiB of 4-byte
// words) so the stream does not evict the system's own data from the
// cache, and odd so the 1-in-64 sampled positions shift on every pass.
const streamLen = 1<<16 + 1

// splitmix64 is Steele, Lea & Flood's 64-bit mixer used as a stream
// generator: every seed gives a distinct, reproducible sequence.
type splitmix64 struct{ s uint64 }

func (r *splitmix64) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform value in [0, 1).
func (r *splitmix64) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// zipf samples ranks 0..n-1 with P(rank r) proportional to (r+1)^-s,
// by binary search over the cumulative distribution.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for i := range cdf {
		sum += math.Pow(float64(i+1), -s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &zipf{cdf: cdf}
}

func (z *zipf) sample(r *splitmix64) uint64 {
	i := sort.SearchFloat64s(z.cdf, r.float())
	if i == len(z.cdf) {
		i--
	}
	return uint64(i)
}

// An operation word packs one call: the key in the high bits and the
// write flag in bit 0.
func opWord(key uint64, write bool) uint32 {
	if write {
		return uint32(key<<1 | 1)
	}
	return uint32(key << 1)
}

// genStream builds one client's stream.  Keys follow z (all zero when
// z is nil); each call is a write with probability writeFrac.
func genStream(seed uint64, client int, z *zipf, writeFrac float64) []uint32 {
	r := splitmix64{s: seed*0x2545f4914f6cdd1d + uint64(client)*0x9e3779b97f4a7c15 + 1}
	s := make([]uint32, streamLen)
	for i := range s {
		var key uint64
		if z != nil {
			key = z.sample(&r)
		}
		s[i] = opWord(key, r.float() < writeFrac)
	}
	return s
}
