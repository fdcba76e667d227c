#!/usr/bin/env bash
# Repo verify gate: formatting, vet, build, full tests, a race pass
# over the concurrent packages (the real executor and the parallel GEMM
# kernel) and the measurement stack (device poll hooks, PAPI meters,
# the polling monitor, fault injector and trace resampling), a named
# monitor reconciliation smoke (measured energy must match device
# ground truth, and deliberately undersampled runs must be flagged for
# wrap loss), and binary-boundary smokes: Perfetto trace export, the
# seeded chaos sweep with checkpoint resume, the distributed comm
# sweep, the model-guided planner, and the sweep service daemon —
# plus a focused errcheck pass over the durability-owning packages
# and a crash smoke that SIGKILLs a leaseholder replica mid-sweep and
# makes a survivor finish the sweep from the shared store.
set -euo pipefail
cd "$(dirname "$0")/.."

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

go vet ./...
# A second, focused copylocks pass: the fault/monitor layer passes
# hook closures and small structs across goroutines, where an
# accidentally copied mutex is easy to introduce and hard to spot.
# (The shadow analyzer would ride here too, but it ships as a separate
# binary this container does not have.)
go vet -copylocks ./...
# Focused errcheck pass: a dropped Close/Sync/Rename error in the
# packages that own on-disk state is how a torn journal masquerades as
# a clean shutdown (scripts/errcheck/main.go).
go run ./scripts/errcheck
go build ./...
go test ./...
go test -race ./internal/sched/... ./internal/kernel/... ./internal/obs/...
# The tree builders: a build is single-threaded by contract, but its
# trees are executed and simulated concurrently, and the per-build
# arena's overlap detector must itself stay race-free.
go test -race ./internal/task/... ./internal/strassen/... ./internal/caps/...
go test -race ./internal/rapl/... ./internal/papi/... ./internal/trace/... ./internal/monitor/... ./internal/faults/...
# The distributed stack: the simulated MPI layer, the rank programs
# and the comms/cluster model feed the same concurrent driver, so they
# get the same race pass.
go test -race ./internal/mpi/... ./internal/dmm/... ./internal/cluster/...
# The sweep server: concurrent HTTP subscribers, sweep-level
# single-flight and the drain path all live on shared state — and the
# store it persists to: journals, leases and lock files are mutated by
# racing replicas by design.
go test -race ./internal/serve/... ./internal/store/...
# The event-driven simulator core: concurrent Runs must be race-free
# (-short skips the 48-cell bit-identicality pin, which the plain
# `go test ./...` line above already ran in full).
go test -race -short ./internal/sim/...
# Scalability smoke: a 1024-node (4096-core) shape-only sweep across
# the paper's algorithms must finish inside its wall-clock budget.
go test -run 'TestSimScalabilitySmoke1024Nodes' -count=1 ./internal/workload/
# The parallel experiment driver: the concurrent sweep must be race-free
# and bit-identical to the sequential one, including under cache churn
# and live metric/span reads from the observability layer — and the
# chaos sweep (fault injection + containment + checkpoint) must hold
# its determinism invariants under the race detector too.
go test -race -run 'TestExecuteParallelBitIdenticalToSequential|TestConcurrentExecuteResetAndMetricsRace|TestChaosSweepInvariants|TestCheckpointResume|TestGuidedSweepDeterminism' -count=1 ./internal/workload/
# The energy-complexity model the guided planner fits is pure math,
# but it rides the concurrent driver: keep its own tests in the gate.
go test -race ./internal/model/
go test -run 'TestReplayReconcilesAtSaneInterval|TestReplayFlagsInjectedWrapLoss|TestReplaySameRunReconciledWhenSampledFastEnough' -count=1 ./internal/monitor/
# Trace export smoke: the real powertrace binary must emit a
# structurally valid Perfetto trace.
./scripts/trace_smoke.sh
# Chaos smoke: a seeded fault-injection sweep through the real binary
# must degrade gracefully and resume from its checkpoint bit-identically.
./scripts/chaos_smoke.sh
# Distributed smoke: a 4-node GigE sweep through the real epscale
# binary must render the comm-bound table, reconcile every cell, and
# resume from its checkpoint bit-identically.
./scripts/dist_smoke.sh
# Model smoke: a guided sweep through the real epscale binary must
# stay inside its 1/3 measurement budget, fit tightly, and render
# deterministically.
./scripts/model_smoke.sh
# Serve smoke: the real epscaled daemon must single-flight two
# overlapping identical sweeps, replay results byte-identically, and
# drain cleanly on SIGTERM.
./scripts/serve_smoke.sh
# Crash smoke: kill -9 a leaseholder replica mid-sweep; the survivor
# sharing the store must steal the lease, resume from the journal
# without re-executing journaled cells, and replay byte-identically.
./scripts/crash_smoke.sh
echo "check.sh: all green"
