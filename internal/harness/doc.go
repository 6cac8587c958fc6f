// Package harness assembles the repository's numbered experiments
// (E1-E9; the rwcheck native stress E10, the BenchmarkReadHeavy grid
// E11 and the oversubscription grid E12 build on its registries) and
// owns the registries that name every algorithm under test.  The
// cmd/rmrbench and cmd/rwbench tools and the repository-root
// bench_test.go entry points are thin wrappers over this package.
//
// # The scenario engine
//
// Every measurement the repo runs is a Scenario: a declarative record
// naming the lock set (or simulator systems), the workload shape
// (worker grid, read-ratio grid or dedicated-writer storm, op budget
// or deadline, critical-section and think work, writer burstiness), a
// GOMAXPROCS pin, and the probes to enable (latency sampling rate,
// writer-visibility age).  RunScenario is the one sweep core: it
// resolves the grids, pins the scheduler if asked, and measures every
// cell — native cells through internal/workload with per-worker
// latency histograms (internal/stats.Histogram), simulator cells
// through internal/ccsim RMR accounting.  A new experiment is a
// RegisterScenario call of ~20 lines, selectable by name via rwbench
// -scenario, rendered by ScenarioTable, and carried losslessly
// (full histograms) by the rwbench -json schema.
//
// The numbered experiments are registry entries run through the same
// core — "throughput" (E7) and "priority" (E8), rwbench's default
// selection, "oversub" (E12) and "rmr"/"rmr-dsm" (E1-E4/E9) — and
// there is no other entry point: cmd/rmrbench runs each of its RMR
// experiments as a one-system SimShape scenario and renders it with
// RMRTable.  The other scenarios measure what a plain throughput
// sweep cannot: "bursty-writers" (an administrative writer's update
// wait latency and readers' view age under a storm — the kvstore
// example's measurement, promoted), "starvation" (the reader
// wait-latency tail under a writer flood), and "latency-grid" (full
// per-class latency distributions across the read-ratio axis).
//
// # Registries
//
// Simulator side (Builders): named constructors for the step-accurate
// encodings of Figures 1-4 and the baselines, validating the paper's
// Theorems 1-5 against centralized/phase-fair/task-fair/tournament
// locks whose RMRs grow with the process count, plus the DSM-model
// contrast where no constant bound can exist.
//
// Native side (NativeLocks): real goroutines over sync/atomic.  The
// native registry carries every rwlock implementation, including the
// Bravo(...) wrappers — the BRAVO sharded reader fast path
// (arXiv:1810.01553) layered over the constant-RMR locks — which only
// exist natively: their whole point is real cache-line traffic, which
// the CC simulator already charges at one RMR per reader regardless.
// Use SelectLockNames to validate user-supplied subsets of the
// registry (the cmd/rwbench -locks flag) and SelectScenarios for the
// -scenario flag.
package harness
