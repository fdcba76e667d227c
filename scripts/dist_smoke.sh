#!/usr/bin/env bash
# Distributed smoke: the cluster axis at the real binary boundary.
# Sweeps a 4-node gigabit-Ethernet cluster at n=256 through epscale
# with the fault injector armed, and asserts the distributed pipeline
# holds the same contract as the single-node one:
#   - the sweep exits 0 and renders the comm table (measured wire
#     volume against the Eq. 8 / Ballard–Demmel lower bound) with a
#     row per distributed algorithm,
#   - every distributed cell reconciles measured joules against the
#     simulator ground truth inside the monitor (a divergence panics
#     the sweep, so exit 0 is the assertion),
#   - a checkpointed re-run restores completed cells instead of
#     re-simulating them, and renders identical tables,
#   - the default artifact (-what all) of the same sweep renders the
#     paper's node tables beside the comm table.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

go build -o "$tmp/epscale" ./cmd/epscale

run() {
    "$tmp/epscale" -cluster 4x1GbE -sizes 256 -threads 1 \
        -faults 42 -fault-rate 0.5 "$@"
}

run -what comm -checkpoint "$tmp/sweep.ck" > "$tmp/out1.txt" 2> "$tmp/err1.txt" \
    || { echo "dist_smoke.sh: distributed sweep exited non-zero" >&2; cat "$tmp/err1.txt" >&2; exit 1; }

for alg in SUMMA 2.5D DStrassen dCAPS; do
    grep -q "$alg" "$tmp/out1.txt" \
        || { echo "dist_smoke.sh: comm table missing $alg row" >&2; cat "$tmp/out1.txt" >&2; exit 1; }
done

# Resume from the journal: completed cells restored, tables unchanged.
run -what comm -checkpoint "$tmp/sweep.ck" > "$tmp/out2.txt" 2> "$tmp/err2.txt" \
    || { echo "dist_smoke.sh: resumed sweep exited non-zero" >&2; cat "$tmp/err2.txt" >&2; exit 1; }
grep -q "restored" "$tmp/err2.txt" \
    || { echo "dist_smoke.sh: checkpoint resume restored nothing" >&2; cat "$tmp/err2.txt" >&2; exit 1; }
cmp -s "$tmp/out1.txt" "$tmp/out2.txt" \
    || { echo "dist_smoke.sh: resumed sweep differs from the original" >&2; exit 1; }

# The default artifact of the same matrix: node tables and the comm
# table side by side.
run -checkpoint "$tmp/sweep.ck" > "$tmp/all.txt" 2> "$tmp/err3.txt" \
    || { echo "dist_smoke.sh: -what all exited non-zero" >&2; cat "$tmp/err3.txt" >&2; exit 1; }
for want in "Table III" "Communication volume"; do
    grep -q "$want" "$tmp/all.txt" \
        || { echo "dist_smoke.sh: -what all lacks $want" >&2; cat "$tmp/all.txt" >&2; exit 1; }
done

echo "dist_smoke.sh: distributed pipeline green"
