#!/usr/bin/env bash
# Runs the simulator core benchmarks and the traced MPI layer's, and
# records them in BENCH_sim.json so their perf trajectory is comparable
# across changes:
#
#   - BenchmarkSimRun, the worker-count sweep (4 → 262144). ns/leaf is
#     the per-event dispatch figure: it should stay near-flat across the
#     sweep (O(log workers) scheduling). Its trees stay in L1.
#   - BenchmarkSimulatorThroughput, shape-only Strassen and CAPS at
#     n=4096 on 4 workers: ns/leaf on trees of several hundred thousand
#     nodes, which is what a paper-sweep cell pays. Its n=2048 rows on
#     256 workers of a 64-node cluster are scale-sweep's cells: the
#     >64-worker path, where CAPS's ownership masks fill many per-mask
#     ready queues and power integration runs on aggregate sums.
#   - BenchmarkRunTraced, mpi.RunTraced on DStrassen (64 ranks) and
#     dCAPS (49 ranks) at n=2048 on a 64-node FDR cluster: ns/message is
#     what a distributed cell pays per message to schedule its ranks and
#     fold their power deltas into the timeline.
set -euo pipefail
cd "$(dirname "$0")/.."

out=BENCH_sim.json
# -run '^$' matches no tests ('XXX' was a substring match that still
# ran any test whose name contains it).
raw=$(go test ./internal/sim/ -run '^$' -bench 'BenchmarkSimRun|BenchmarkSimulatorThroughput' -benchmem "$@")
raw+=$'\n'$(go test ./internal/dmm/ -run '^$' -bench 'BenchmarkRunTraced' -benchmem "$@")
echo "$raw"

echo "$raw" | awk '
BEGIN { print "{"; first = 1 }
/^Benchmark(SimRun|SimulatorThroughput|RunTraced)\// {
    name = $1
    sub(/-[0-9]+$/, "", name)
    sub(/^Benchmark/, "", name)
    if (!first) printf ",\n"
    first = 0
    # Fields 5 and 6 are the per-unit metric and its unit (ns/leaf or
    # ns/message), which names the JSON key.
    unit = $6
    gsub(/\//, "_per_", unit)
    printf "  \"%s\": {\"iters\": %s, \"ns_per_op\": %s, \"%s\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}",
        name, $2, $3, unit, $5, $7, $9
}
END { print "\n}" }
' > "$out"
echo "bench_sim.sh: wrote $out"
