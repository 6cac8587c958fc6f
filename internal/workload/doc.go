// Package workload generates reproducible reader/writer workloads
// against the native rwlock implementations and measures throughput,
// per-operation latency distributions and writer-visibility age.  It
// is the measurement substrate of the scenario engine
// (internal/harness.RunScenario) and, through it, of rwbench's native
// scenarios (writer-churn, writer-shed, age-frontier and, over a
// striped map, zipf-grid).
//
// A Config fixes the goroutine count, read fraction, per-worker
// operation count, busy-work inside and outside the critical section,
// and a seed, so any measurement can be replayed exactly.  The
// protected datum is a plain (non-atomic) cell mutated by writers and
// read by readers: running any workload under `go test -race`
// therefore doubles as a mutual-exclusion check on the lock under test
// — the native counterpart of the P1 verification that internal/check
// and internal/mc perform on the simulator, and the reason the BRAVO
// wrappers (which have no simulator model) are still race-verified.
//
// # Sampling design
//
// Latency is measured by sampling, not exhaustively: every k-th
// operation per worker (Config.SampleEvery, default DefaultSampleEvery)
// is timed at three points — request, acquire, release — and its
// request→acquire (wait) and acquire→release (hold) durations are
// recorded into histograms preallocated per worker before the clock
// starts.  Recording is allocation-free (stats.Histogram is one fixed
// array; see the AllocsPerRun test in internal/stats), per-worker
// state shares nothing, and the workers' histograms are merged only
// after the last worker has stopped — so the hot path the measurement
// observes is the same hot path that runs with measurement off, and
// the reported numbers stay honest.
//
// Sampling does not bias the percentiles it reports: whether op i is
// sampled is fixed by the worker id and op index alone, *before* the
// op runs, so the sampling decision cannot correlate with the op's
// eventual duration — the sample is a systematic 1-in-k slice, at a
// per-worker phase derived from the seed, of a latency sequence that
// cannot see the slice's phase, which makes the sampled distribution
// an unbiased estimate of the full one.  (The phase offset also keeps
// the guaranteed-cold op 0 — goroutine start, cache-cold lock — out
// of most workers' samples, so small smoke runs aren't dominated by
// startup cost.)  The caveat is periodicity: a workload whose latency
// oscillated with a period dividing k could alias.  The scenarios whose
// product is a tail (writer-churn, writer-shed, age-frontier) set
// SampleEvery to 1 and pay the overhead instead.
//
// # The age probe
//
// Config.MeasureAge measures the other side of writer latency: not
// how long a write takes to land, but how stale the values readers
// observe are.  Every write stamps the protected cell with a
// monotonic timestamp under the write lock; every sampled read
// subtracts that stamp from its own clock while still holding the
// read lock.  The result — Result.AgeNs — is the distribution of the
// "age" of the data served, the freshness lens of the RCU age-memory
// trade-off literature (arXiv:2402.06860) applied to lock-based
// readers: a writer-priority lock bounds the tail of this
// distribution under storms, a reader-priority lock lets it stretch.
// The probe adds one clock read to every write's critical section, so
// it is opt-in rather than folded silently into unrelated numbers.
package workload
