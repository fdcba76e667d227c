#!/usr/bin/env bash
# The race-detector pass over every package with concurrent state: the
# real executor and the GEMM kernel whose packing-buffer pool its
# workers share, the tree builders, the measurement stack, the
# distributed stack, the sweep server and its store, the simulator
# core, the parallel experiment driver and the model. scripts/check.sh
# and `make race` both run this script, so the two cannot drift apart.
set -euo pipefail
cd "$(dirname "$0")/.."

go test -race ./internal/sched/... ./internal/kernel/... ./internal/obs/...
# The tree builders: a build is single-threaded by contract, but its
# trees are executed and simulated concurrently. The per-build arena's
# overlap detector is a plain counter, so here the race detector also
# reports any overlapping build calls the counter misses.
go test -race ./internal/task/... ./internal/strassen/... ./internal/caps/...
# The measurement stack: device poll hooks, PAPI meters, the polling
# monitor, fault injector and trace resampling.
go test -race ./internal/rapl/... ./internal/papi/... ./internal/trace/... ./internal/monitor/... ./internal/faults/...
# The distributed stack: the simulated MPI layer, the rank programs
# and the comms/cluster model feed the same concurrent driver, so they
# get the same race pass.
go test -race ./internal/mpi/... ./internal/dmm/... ./internal/cluster/...
# Concurrent traced runs share one list of recycled rank logs: runs that
# take and return logs at once, one of them beyond the list's bound,
# must each stay bit-identical to a sequential run, so that test runs
# ten times over.
go test -race -count=10 -run 'TestConcurrentRunTracedShareLogs' ./internal/mpi/
# The sweep server: concurrent HTTP subscribers, sweep-level
# single-flight and the drain path all live on shared state — and the
# store it persists to: journals and lease claim files are mutated by
# racing replicas by design. The lease's own lock is what keeps racing
# acquirers apart, so its two contention tests run twenty times over.
go test -race ./internal/serve/... ./internal/store/...
go test -race -count=20 -run 'TestAcquireLeaseExclusive|TestLeaseLockNotBrokenUnderLiveHolder' ./internal/store/
# The event-driven simulator core: concurrent Runs must be race-free
# (-short skips the 48-cell bit-identicality pin, which the plain
# `go test ./...` of scripts/check.sh runs in full).
go test -race -short ./internal/sim/...
# The parallel experiment driver: the concurrent sweep must be race-free
# and bit-identical to the sequential one, including under cache churn
# and live metric/span reads from the observability layer — and the
# chaos sweep (fault injection + containment + checkpoint) must hold
# its determinism invariants under the race detector too, as must two
# journaled sweeps sharing one run cache, each committing its cache
# hits together while they single-flight the cells neither has. Two
# sweeps on one journal path are kept apart by its lease alone, and a
# journaled guided sweep commits through the same path as an
# exhaustive one: both stay in the race pass.
go test -race -run 'TestExecuteParallelBitIdenticalToSequential|TestConcurrentExecuteCacheChurnAndMetricsRace|TestChaosSweepInvariants|TestCheckpointResume|TestGuidedSweepDeterminism|TestConcurrentSweepsCommitHitsTogether|TestConcurrentExecuteSharedCheckpointPath|TestGuidedCheckpointPredictions' -count=1 ./internal/workload/
# The driver's workers share two pools: released trees' record storage
# (internal/task) and the simulator's executor buffers (internal/sim).
# Cells that take and return storage at once must stay bit-identical to
# a sequential run, so the concurrent pool test runs ten times over.
go test -race -count=10 -run 'TestPooledCellsBitIdenticalUnderConcurrency' ./internal/workload/
# The energy-complexity model the guided planner fits is pure math,
# but it rides the concurrent driver: keep its own tests in the gate.
go test -race ./internal/model/
