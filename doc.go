// Package rwsync reproduces Bhatt & Jayanti, "Constant RMR Solutions
// to Reader Writer Synchronization" (Dartmouth TR2010-662, PODC 2010)
// as a production-quality Go library.
//
// The importable artifact is the rwlock subpackage: reader-writer
// locks with O(1) remote-memory-reference complexity on
// cache-coherent machines, in writer-priority, reader-priority and
// no-priority (starvation-free) flavors — plus rwlock.Bravo, a
// BRAVO-style sharded reader fast path (Dice & Kogan, arXiv:1810.01553)
// that layers multicore reader scalability over any of them, a
// pluggable writer-arbitration layer (an unbounded MCS queue by
// default, the paper's bounded Anderson array via
// rwlock.WithBoundedWriters, and a flat-combining batcher via
// rwlock.WithCombiningWriters that retires whole batches of
// closure-path writes per lock handoff), and one waiting layer that
// realizes each of the paper's busy-waits as bounded spinning on a
// locally cached word followed by parking the goroutine.
//
// The internal packages form the research substrate: a
// cache-coherent-machine simulator with exact RMR accounting
// (internal/ccsim), step-accurate encodings of the paper's Figures 1-4
// plus baselines and deliberately broken variants (internal/core), an
// explicit-state model checker (internal/mc), trace- and probe-based
// property checkers (internal/check), and the experiment harness
// (internal/harness) behind cmd/rmrbench, cmd/rwbench, cmd/rwcheck and
// the repository-level benchmarks in bench_test.go.
//
// See README.md for a tour of the layout, the quickstart, and how to
// run the benchmarks and the model checker.
package rwsync
