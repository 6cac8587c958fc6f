// Package harness runs the repository's scenarios — the simulator RMR
// experiments (E1-E4, E9) and the native measurements — and owns the
// registries that name every algorithm under test.  The rwcheck
// native stress (E10) and bench_test.go's Go benchmarks (E7, E8, E11,
// E12) build on those registries.  The cmd/rmrbench and cmd/rwbench
// tools are thin wrappers over this package.
//
// # The scenario engine
//
// Every measurement the repo runs is a Scenario: a declarative record
// naming the lock set (or simulator systems), the workload shape
// (worker grid, read-ratio grid, op budget, critical-section and think
// work, churned or deadline-bound writers, versioned writes, a stripe
// grid), a GOMAXPROCS pin, and the probes to enable (latency sampling
// rate, writer-visibility age).  RunScenario is the one sweep core: it
// resolves the grids, pins the scheduler if asked, and measures every
// cell — native cells through internal/workload with per-worker
// latency histograms (internal/stats.Histogram), simulator cells
// through internal/ccsim RMR accounting.  A new experiment is a
// RegisterScenario call of ~20 lines, selectable by name via rwbench
// -scenario, rendered by ScenarioTable, and carried losslessly (full
// histograms) by rwbench -json.
//
// The registry holds six scenarios, and there is no other entry
// point.  "rmr" and "rmr-dsm" count RMRs per passage on the simulator;
// cmd/rmrbench runs each of its RMR experiments as a one-system
// SimShape scenario and renders it with RMRTable.  The four native
// scenarios measure what bench_test.go's throughput and latency
// benchmarks do not: "writer-churn" (thousands of one-shot writers
// over each writer arbitration), "writer-shed" (the same churn with a
// per-write deadline), "age-frontier" (update age against the
// versions deferred reclamation retains) and "zipf-grid" (the serving
// tier: striped maps under Zipfian keys).
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
