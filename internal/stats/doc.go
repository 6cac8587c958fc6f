// Package stats provides the summary statistics and rendering the
// experiment harness reports RMR counts, latencies and throughput
// with: exact order statistics over small samples (Summarize), a
// fixed-footprint log-bucketed histogram for large ones (Histogram),
// and aligned-text/markdown tables (Table).
//
// # Histogram design
//
// Histogram is the measurement substrate of the scenario engine
// (internal/harness.RunScenario): each workload worker records its
// sampled latencies into a private Histogram, and the workers'
// histograms are merged after the join.  Three properties make that
// safe to put next to a lock hot path:
//
//   - Fixed footprint: one array of log-spaced buckets (32 linear
//     sub-buckets per octave, HDR-histogram layout), about 15 KiB,
//     regardless of how many observations are recorded.  Sorting a
//     sample of every op, by contrast, grows with the run.
//   - Allocation-free recording: Record is bit-twiddling plus an
//     array increment; TestHistogramRecordDoesNotAllocate pins this
//     with testing.AllocsPerRun.
//   - Exact merging: Merge adds bucket counts element-wise and is
//     commutative and associative, so per-worker results fold in any
//     order with no precision loss relative to one shared histogram
//     (which would have needed atomics on the hot path).
//
// Quantiles (p50/p90/p99/p99.9) come out of the bucket counts by
// nearest rank; the bucket geometry bounds their error at ~3.1% of
// the value (one part in 32), far below run-to-run latency noise.
// Min, max, mean and standard deviation are tracked exactly alongside
// the buckets.  HistSnapshot is the serializable form carried by
// rwbench -json: headline quantiles plus sparse bucket counts, so a
// consumer can re-derive any quantile from the output.
package stats
