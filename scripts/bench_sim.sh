#!/usr/bin/env bash
# Runs the event-driven simulator core benchmarks and records ns/op,
# ns/leaf, B/op and allocs/op in BENCH_sim.json so the scheduler's perf
# trajectory is comparable across changes:
#
#   - BenchmarkSimRun, the worker-count sweep (4 → 262144). ns/leaf is
#     the per-event dispatch figure: it should stay near-flat across the
#     sweep (O(log workers) scheduling). Its trees stay in L1.
#   - BenchmarkSimulatorThroughput, shape-only Strassen and CAPS at
#     n=4096 on 4 workers: ns/leaf on trees of several hundred thousand
#     nodes, which is what a paper-sweep cell pays.
set -euo pipefail
cd "$(dirname "$0")/.."

out=BENCH_sim.json
# -run '^$' matches no tests ('XXX' was a substring match that still
# ran any test whose name contains it).
raw=$(go test ./internal/sim/ -run '^$' -bench 'BenchmarkSimRun|BenchmarkSimulatorThroughput' -benchmem "$@")
echo "$raw"

echo "$raw" | awk '
BEGIN { print "{"; first = 1 }
/^Benchmark(SimRun|SimulatorThroughput)\// {
    name = $1
    sub(/-[0-9]+$/, "", name)
    sub(/^Benchmark/, "", name)
    if (!first) printf ",\n"
    first = 0
    printf "  \"%s\": {\"iters\": %s, \"ns_per_op\": %s, \"ns_per_leaf\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}",
        name, $2, $3, $5, $7, $9
}
END { print "\n}" }
' > "$out"
echo "bench_sim.sh: wrote $out"
