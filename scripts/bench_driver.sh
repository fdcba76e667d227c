#!/usr/bin/env bash
# Runs the experiment-driver benchmarks (BenchmarkExecuteMatrix's
# sequential/parallel/memoized variants, BenchmarkBuildTree's
# dense/shape/caps variants, plus BenchmarkExecuteDistributed's cluster
# sweep) and records ns/op, B/op and allocs/op in BENCH_driver.json so
# the perf trajectory is comparable across PRs.
set -euo pipefail
cd "$(dirname "$0")/.."

out=BENCH_driver.json
# -run '^$' matches no tests ('XXX' was a substring match that still
# ran any test whose name contains it).
raw=$(go test . -run '^$' -bench 'BenchmarkExecuteMatrix|BenchmarkBuildTree|BenchmarkExecuteDistributed' -benchmem "$@")
echo "$raw"

echo "$raw" | awk '
BEGIN { print "{"; first = 1 }
/^Benchmark(ExecuteMatrix|BuildTree|ExecuteDistributed)\// {
    name = $1
    sub(/-[0-9]+$/, "", name)
    sub(/^Benchmark/, "", name)
    if (!first) printf ",\n"
    first = 0
    printf "  \"%s\": {\"iters\": %s, \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}",
        name, $2, $3, $5, $7
}
END { print "\n}" }
' > "$out"
echo "bench_driver.sh: wrote $out"
