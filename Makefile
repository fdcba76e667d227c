.PHONY: check test race bench bench-kernels bench-driver bench-sim bench-model trace-smoke chaos-smoke dist-smoke model-smoke serve-smoke crash-smoke errcheck

# Full verify gate: gofmt, vet, build, tests, race pass on the
# concurrent packages.
check:
	./scripts/check.sh

test:
	go test ./...

# The race-detector pass check.sh runs (scripts/race.sh).
race:
	./scripts/race.sh

# Run a small sweep through the powertrace CLI with -trace-out and
# validate the emitted Perfetto trace structurally.
trace-smoke:
	./scripts/trace_smoke.sh

# Seeded fault-injection sweep through the powertrace CLI: asserts the
# pipeline degrades gracefully (exit 0, degradation flagged on stderr,
# deterministic per seed, checkpoint resume bit-identical).
chaos-smoke:
	./scripts/chaos_smoke.sh

# 4-node GigE sweep through the epscale CLI: comm table rendered,
# every distributed cell reconciled against ground truth, checkpoint
# resume bit-identical.
dist-smoke:
	./scripts/dist_smoke.sh

# Model-guided sweep through the epscale CLI: the planner must stay
# inside its 1/3 measurement budget, fit tightly, and be deterministic.
model-smoke:
	./scripts/model_smoke.sh

# Sweep-service smoke through the epscaled daemon: two overlapping
# identical sweeps execute each shared cell once, results replay
# byte-identically by fingerprint, SIGTERM drains cleanly.
serve-smoke:
	./scripts/serve_smoke.sh

# Crash-recovery smoke: kill -9 a leaseholder replica mid-sweep; the
# surviving replica sharing the store steals the lease, resumes from
# the journal, and streams exactly the missing cells — no re-execution
# of journaled work, byte-identical replay.
crash-smoke:
	./scripts/crash_smoke.sh

# Focused errcheck pass: dropped Close/Sync/Rename/Remove/Truncate/
# Flush error returns in the packages that own on-disk state.
errcheck:
	go run ./scripts/errcheck

# -run '^$' keeps the package's tests (here the Table II–IV repro
# gates) out of benchmark runs.
bench:
	go test -run '^$$' -bench=. -benchmem

# The perf-trajectory benchmarks this repo tracks across PRs.
bench-kernels:
	go test ./internal/kernel/ -run '^$$' -bench 'BenchmarkGemm' -benchmem
	go test ./internal/sched/ -run '^$$' -bench 'BenchmarkSchedDispatch' -benchmem
	go test ./internal/sim/ -run '^$$' -bench 'BenchmarkSimulatorThroughput' -benchmem

# Experiment-driver trajectory: sequential vs parallel vs memoized
# sweeps and dense, shape-only and CAPS tree builds, recorded to
# BENCH_driver.json.
bench-driver:
	./scripts/bench_driver.sh

# Simulator-core trajectory: the event-driven scheduler's worker-count
# sweep (4 → 262144) and its throughput on the paper's largest trees
# (Strassen and CAPS at n=4096), recorded to BENCH_sim.json. ns/leaf
# should stay near-flat across the worker sweep.
bench-sim:
	./scripts/bench_sim.sh

# Measurement-avoidance trajectory: guided vs exhaustive executed
# cells and wall time on the same matrix, recorded to BENCH_model.json.
bench-model:
	./scripts/bench_model.sh
