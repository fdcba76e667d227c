#!/usr/bin/env bash
# Settles a capbench gain claim between two commits with alternating
# pairs of runs:
#
#   scripts/pairs.sh PARENT CHANGE WORKLOAD N [SECONDS [METRIC]]
#
# PARENT and CHANGE are commits of this repository; WORKLOAD is a
# capbench workload (paper-sweep, scale-sweep, serve-cold, serve-hot);
# N is the number of pairs, fixed before the first run; SECONDS is each
# run's window (default 20); METRIC is the claimed end-to-end metric
# (sweep_s_p50, cells_per_s, setup_s or peak_rss_mb; default
# sweep_s_p50).
#
# Each commit is checked out once, into sibling directories whose
# names have the same length (parent-<hash12>, change-<hash12>), since
# the checkout's path alone can shift served timings by several
# percent. The checkouts are shared clones, not `git worktree`s: they
# leave no administrative entries in this repository and go with
# `rm -rf`. A checkout already at its commit is reused, with its build
# cache. Every run goes through the checkout's own bench/run.sh, which
# builds capbench and epscaled from that checkout's source.
#
# Each side first makes one discarded warm-up run. Then pair i (1..N)
# runs both sides with seed BASE+i, the parent first in odd pairs and
# the change first in even ones. The script prints every run's four
# end-to-end metrics, each side's median and quartiles per metric with
# the quartile spread relative to the side's median, and two verdicts.
# BASE comes from the clock and is printed with the seeds.
#
# The claim verdict is on METRIC, in the direction ("better")
# BENCHMARK.json gives it: the change is better in at least 9 pairs in
# 10, and its median is better than the parent's by more than the
# parent's quartile spread (q3 - q1).
#
# The bounds verdict is on every end-to-end metric, with the direction
# ("better") and relative bound ("bound") BENCHMARK.json gives it. Each
# metric prints the change/parent ratio of the medians and one status:
#   within bound        the median is not worse by more than the bound;
#   WORSE beyond bound  it is;
#   unresolved          either side's quartile spread over its median
#                       exceeds the bound, and not every change run
#                       beats every parent run.
#
# Every run must be correct with no failed operation. The exit status
# is 0 when the claim holds and no metric is worse beyond its bound,
# 3 when a metric is worse beyond its bound, and 1 otherwise.
#
# Environment:
#   PAIRS_DIR  where the checkouts and logs go
#              (default ${TMPDIR:-/tmp}/capscale-pairs)
set -euo pipefail

usage() {
    echo "usage: scripts/pairs.sh PARENT CHANGE WORKLOAD N [SECONDS [METRIC]]" >&2
    exit 2
}
[ $# -ge 4 ] && [ $# -le 6 ] || usage
workload=$3
pairs=$4
seconds=${5:-20}
claim=${6:-sweep_s_p50}
metrics="sweep_s_p50 cells_per_s setup_s peak_rss_mb"
[[ " $metrics " == *" $claim "* ]] || usage
[[ $pairs =~ ^[1-9][0-9]*$ ]] || usage
case $workload in
paper-sweep | scale-sweep | serve-cold | serve-hot) ;;
*) usage ;;
esac
[[ $seconds =~ ^[0-9]+([.][0-9]+)?$ ]] || usage

repo=$(cd "$(dirname "$0")/.." && pwd)
parent=$(git -C "$repo" rev-parse --verify "$1^{commit}")
change=$(git -C "$repo" rev-parse --verify "$2^{commit}")
dir=${PAIRS_DIR:-${TMPDIR:-/tmp}/capscale-pairs}
base=$(($(date +%s) % 1000000))
mkdir -p "$dir/logs"
dir=$(cd "$dir" && pwd)

# checkout NAME COMMIT prints the path of a clean checkout of COMMIT.
checkout() {
    local path=$dir/$1-${2:0:12}
    if [ -d "$path/.git" ] && [ "$(git -C "$path" rev-parse HEAD)" = "$2" ] &&
        [ -z "$(git -C "$path" status --porcelain)" ]; then
        echo "$path"
        return
    fi
    rm -rf "$path"
    git clone --quiet --shared --no-checkout "$repo" "$path" >&2
    git -C "$path" checkout --quiet --detach "$2" >&2
    echo "$path"
}
pdir=$(checkout parent "$parent")
cdir=$(checkout change "$change")

results=$dir/logs/results.tsv

# bounds holds "metric:better:bound;" for each end-to-end metric of
# BENCHMARK.json.
bounds=$(awk '
function field(obj, key,    v) {
    if (!match(obj, "\"" key "\"[ \t]*:[ \t]*(\"[^\"]*\"|[-+0-9.eE]+)")) return ""
    v = substr(obj, RSTART, RLENGTH)
    sub(/^[^:]*:[ \t]*/, "", v)
    gsub(/"/, "", v)
    return v
}
{ doc = doc $0 " " }
END {
    doc = substr(doc, index(doc, "\"end_to_end\""))
    doc = substr(doc, 1, index(doc, "]"))
    while (match(doc, /[{][^}]*[}]/)) {
        obj = substr(doc, RSTART, RLENGTH)
        doc = substr(doc, RSTART + RLENGTH)
        printf "%s:%s:%s;", field(obj, "name"), field(obj, "better"), field(obj, "bound")
    }
}' "$repo/BENCHMARK.json")
for m in $metrics; do
    re=";$m:(lower|higher):[0-9.]+;"
    if ! [[ ";$bounds" =~ $re ]]; then
        echo "pairs.sh: BENCHMARK.json gives no direction and bound for $m" >&2
        exit 2
    fi
done
: >"$results"

# run SIDE PAIR SEED runs one capbench window and, for a numbered pair,
# appends "pair side correct failed <metrics>" to the results file.
run() {
    local side=$1 pair=$2 seed=$3 path log line
    path=$pdir
    [ "$side" = change ] && path=$cdir
    log=$dir/logs/$workload-$side-$pair
    if ! (cd "$path" && bash bench/run.sh --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace 0 >"$log.out" 2>"$log.err"); then
        echo "pairs.sh: $side run $pair exited non-zero (see $log.err)" >&2
    fi
    line=$(tail -n 1 "$log.out")
    [ "$pair" = warm-up ] && return
    echo "$line" | awk -v pair="$pair" -v side="$side" -v metrics="$metrics" '
    function num(key,    m) {
        if (match($0, "\"" key "\":\\{\"value\":[-+0-9.eE]+")) {
            m = substr($0, RSTART, RLENGTH)
            sub(/.*:/, "", m)
            return m
        }
        return "NaN"
    }
    {
        correct = ($0 ~ /"correct":true/) ? "true" : "false"
        failed = "?"
        if (match($0, /"failed":[0-9]+/)) failed = substr($0, RSTART + 9, RLENGTH - 9)
        n = split(metrics, ms, " ")
        printf "%s\t%s\t%s\t%s", pair, side, correct, failed
        for (i = 1; i <= n; i++) printf "\t%s", num(ms[i])
        printf "\n"
    }' >>"$results"
}

echo "pairs.sh: $workload, $pairs pairs of ${seconds}s windows, seeds $((base + 1))..$((base + pairs)), claimed metric $claim"
echo "  parent $parent  $pdir"
echo "  change $change  $cdir"
run parent warm-up "$base"
run change warm-up "$base"
printf '%-5s %-7s %-6s %-8s %-7s %12s %12s %10s %12s\n' pair side seed correct failed $metrics
for ((i = 1; i <= pairs; i++)); do
    seed=$((base + i))
    if ((i % 2 == 1)); then order="parent change"; else order="change parent"; fi
    for side in $order; do
        run "$side" "$i" "$seed"
        awk -F '\t' -v seed="$seed" 'END {
            printf "%-5s %-7s %-6s %-8s %-7s %12.6g %12.6g %10.4g %12.5g\n", $1, $2, seed, $3, $4, $5, $6, $7, $8
        }' "$results"
    done
done

awk -F '\t' -v metrics="$metrics" -v bounds="$bounds" -v claim="$claim" -v pairs="$pairs" '
function quantile(a, n, p,    h, lo) {
    h = (n - 1) * p
    lo = int(h)
    if (lo + 1 >= n) return a[n - 1]
    return a[lo] + (h - lo) * (a[lo + 1] - a[lo])
}
function sorted(side, col, out,    n, i, j, t) {
    n = 0
    for (i = 1; i <= pairs; i++) if ((i, side) in val) out[n++] = val[i, side, col]
    for (i = 1; i < n; i++) {
        t = out[i]
        for (j = i - 1; j >= 0 && out[j] > t; j--) out[j + 1] = out[j]
        out[j + 1] = t
    }
    return n
}
{
    val[$1, $2] = 1
    if ($3 != "true" || $4 != "0") bad++
    for (c = 5; c <= NF; c++) val[$1, $2, c] = $c + 0
}
END {
    nm = split(metrics, ms, " ")
    nb = split(bounds, bs, ";")
    for (i = 1; i <= nb; i++) if (split(bs[i], f, ":") == 3) { better[f[1]] = f[2]; bound[f[1]] = f[3] + 0 }
    print ""
    printf "%-12s %-7s %12s %12s %12s %8s\n", "metric", "side", "median", "q1", "q3", "iqr/med"
    for (k = 1; k <= nm; k++) {
        col = k + 4
        for (s = 0; s < 2; s++) {
            side = s ? "change" : "parent"
            delete xs
            n = sorted(side, col, xs)
            if (n == 0) continue
            med = quantile(xs, n, 0.5); q1 = quantile(xs, n, 0.25); q3 = quantile(xs, n, 0.75)
            printf "%-12s %-7s %12.6g %12.6g %12.6g %8.3f\n", ms[k], side, med, q1, q3, med ? (q3 - q1) / med : 0
            if (ms[k] == claim) { m[side] = med; iqr[side] = q3 - q1 }
            medof[k, side] = med; spread[k, side] = med ? (q3 - q1) / med : 0
            least[k, side] = xs[0]; most[k, side] = xs[n - 1]
        }
        if (ms[k] == claim) ccol = col
    }
    # The second rule: no metric worse than the parent beyond its bound.
    print ""
    printf "%-12s %-7s %6s %14s  %s\n", "metric", "better", "bound", "change/parent", "status"
    worse = ""; unresolved = ""
    for (k = 1; k <= nm; k++) {
        p = medof[k, "parent"]; c = medof[k, "change"]; b = bound[ms[k]]
        ratio = p ? c / p : 0
        if (better[ms[k]] == "lower") {
            loss = ratio - 1; beats = most[k, "change"] < least[k, "parent"]
        } else {
            loss = 1 - ratio; beats = least[k, "change"] > most[k, "parent"]
        }
        if ((spread[k, "parent"] > b || spread[k, "change"] > b) && !beats) {
            status = "unresolved"; unresolved = unresolved " " ms[k]
        } else if (loss > b) {
            status = "WORSE beyond bound"; worse = worse " " ms[k]
        } else {
            status = "within bound"
        }
        printf "%-12s %-7s %6.2f %14.3f  %s\n", ms[k], better[ms[k]], b, ratio, status
    }
    # The claim, in the direction of the claimed metric: the change
    # better in 9 pairs of 10, and its median better by more than the
    # parent quartile spread.
    lower = better[claim] == "lower"
    wins = 0; both = 0
    for (i = 1; i <= pairs; i++) {
        if (!((i, "parent") in val) || !((i, "change") in val)) continue
        both++
        p = val[i, "parent", ccol]; c = val[i, "change", ccol]
        if (lower ? c < p : c > p) wins++
    }
    gap = lower ? m["parent"] - m["change"] : m["change"] - m["parent"]
    printf "\n%s: change better in %d of %d pairs; median %g -> %g (%+.1f%%), parent quartile spread %g\n",
        claim, wins, both, m["parent"], m["change"], m["parent"] ? 100 * (m["change"] - m["parent"]) / m["parent"] : 0, iqr["parent"]
    ok = 1
    if (bad) { print "verdict: FAIL, " bad " run(s) incorrect or with failed operations"; ok = 0 }
    if (both < pairs) { print "verdict: FAIL, only " both " of " pairs " pairs completed"; ok = 0 }
    if (wins * 10 < 9 * pairs) { print "verdict: FAIL, the change must win at least 9 pairs in 10"; ok = 0 }
    if (!(gap > iqr["parent"])) { print "verdict: FAIL, the median gap does not exceed the parent quartile spread"; ok = 0 }
    if (ok) print "verdict: PASS"
    if (bad) print "bounds verdict: FAIL, " bad " run(s) incorrect or with failed operations"
    else if (worse != "") print "bounds verdict: FAIL, worse beyond bound:" worse
    else if (unresolved != "") print "bounds verdict: UNRESOLVED, spread too wide to tell:" unresolved
    else print "bounds verdict: PASS"
    if (worse != "") exit 3
    exit ok ? 0 : 1
}' "$results"
