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
# The benchmark module (bench/) compiles against internal/task, sim and
# workload but is its own module, outside ./...: vet it so an API
# break shows here rather than when the benchmark runs.
(cd bench && go vet ./...)
go test ./...
# The race-detector pass, shared with `make race`.
./scripts/race.sh
# Scalability smoke: a 1024-node (4096-core) shape-only sweep across
# the paper's algorithms must finish inside its wall-clock budget.
go test -run 'TestSimScalabilitySmoke1024Nodes' -count=1 ./internal/workload/
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
