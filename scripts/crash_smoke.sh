#!/usr/bin/env bash
# Crash-recovery smoke: the replica-takeover contract at the real
# binary boundary. Two epscaled replicas share one store directory.
# A client streams a sweep from replica A; mid-sweep A is killed with
# SIGKILL — no drain, no checkpoint flush beyond what the journal
# already fsynced. The client then follows its documented retry
# contract: re-POST the same sweep to the surviving replica with
# ?from=<records already held>. The smoke asserts the crash oracle:
#   - the survivor steals the dead replica's lease and finishes the
#     sweep, streaming exactly the missing records plus a complete
#     trailer (no gap, no overlap: the two stream halves union to
#     every cell exactly once),
#   - the survivor re-executes only the cells the journal had not yet
#     captured (cells_executed < total: journaled work is never redone),
#   - GET /v1/result/{fingerprint} replays byte-identically, and every
#     record the client streamed — before and after the crash —
#     appears verbatim in the replay,
#   - the survivor drains cleanly on SIGTERM, and the store holds no
#     lock file: the lease's claim file is its own lock, and a killed
#     holder's lock goes with its process.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"; for p in "${pidA:-}" "${pidB:-}"; do [ -n "$p" ] && kill -9 "$p" 2>/dev/null || true; done' EXIT

go build -o "$tmp/epscaled" ./cmd/epscaled

store="$tmp/store"
addrA=127.0.0.1:18431
addrB=127.0.0.1:18432
"$tmp/epscaled" -addr "$addrA" -store "$store" -id replica-a -parallel 1 > "$tmp/a.log" 2>&1 &
pidA=$!
disown "$pidA" # deliberately SIGKILLed below; keep bash from reporting it
"$tmp/epscaled" -addr "$addrB" -store "$store" -id replica-b -parallel 1 > "$tmp/b.log" 2>&1 &
pidB=$!

wait_ready() {
    local addr=$1 name=$2 pid=$3
    for _ in $(seq 1 50); do
        curl -sf "http://$addr/v1/status" > /dev/null 2>&1 && return 0
        kill -0 "$pid" 2>/dev/null || { echo "crash_smoke.sh: replica $name died on startup" >&2; cat "$tmp/$name.log" >&2; exit 1; }
        sleep 0.1
    done
    echo "crash_smoke.sh: replica $name never became ready" >&2; cat "$tmp/$name.log" >&2; exit 1
}
wait_ready "$addrA" a "$pidA"
wait_ready "$addrB" b "$pidB"

# A sweep slow enough (~4 s single-threaded) to be killed mid-flight:
# 18 cells of large sizes with a dense measurement poll.
req='{"algorithms":["OpenBLAS","Strassen"],"sizes":[2048,3072,4096],"threads":[1,2,4],"poll_interval":0.002}'
cells=18

curl -s -N -X POST -H 'X-Client-ID: smoke' -d "$req" "http://$addrA/v1/sweep" > "$tmp/part1.ndjson" &
curlpid=$!

# Kill replica A once its journal holds at least two durable cell
# records (header + 2 lines) but the sweep is still running.
journal=
for _ in $(seq 1 300); do
    journal=$(ls "$store"/*.jsonl 2>/dev/null | head -1 || true)
    if [ -n "$journal" ] && [ "$(wc -l < "$journal")" -ge 3 ]; then break; fi
    journal=
    sleep 0.02
done
[ -n "$journal" ] || { echo "crash_smoke.sh: no journal appeared in the shared store" >&2; cat "$tmp/a.log" >&2; exit 1; }
kill -9 "$pidA"
pidA=
wait "$curlpid" 2>/dev/null || true # the stream dies with the replica

# SIGKILL can land mid-line on the client side; drop a torn final line
# so the record count below is exact.
if [ -s "$tmp/part1.ndjson" ] && [ -n "$(tail -c 1 "$tmp/part1.ndjson")" ]; then
    sed -i '$ d' "$tmp/part1.ndjson"
fi
got=$(grep -c '"key"' "$tmp/part1.ndjson" || true)
[ "$got" -ge 1 ] || { echo "crash_smoke.sh: client held no records before the crash" >&2; exit 1; }
[ "$got" -lt "$cells" ] || { echo "crash_smoke.sh: sweep finished before the kill; nothing to take over" >&2; exit 1; }

# The documented client retry: re-POST to the survivor with the resume
# token. Replica B must steal the dead replica's lease, resume from
# the journal, and stream exactly the records after the token.
curl -sf -N -X POST -H 'X-Client-ID: smoke' -d "$req" "http://$addrB/v1/sweep?from=$got" > "$tmp/part2.ndjson" \
    || { echo "crash_smoke.sh: resume POST to the survivor failed" >&2; cat "$tmp/b.log" >&2; exit 1; }
grep -q '"done":true' "$tmp/part2.ndjson" && grep -q '"complete":true' "$tmp/part2.ndjson" \
    || { echo "crash_smoke.sh: survivor stream has no complete trailer" >&2; tail -3 "$tmp/part2.ndjson" >&2; exit 1; }
rest=$(grep -c '"key"' "$tmp/part2.ndjson")
[ $((got + rest)) -eq "$cells" ] \
    || { echo "crash_smoke.sh: stream halves cover $got + $rest records, want $cells (gap or overlap)" >&2; exit 1; }

# No cell appears twice across the two halves, and together they cover
# every cell exactly once.
sed -n 's/.*"key":"\([^"]*\)".*/\1/p' "$tmp/part1.ndjson" "$tmp/part2.ndjson" | sort > "$tmp/keys"
dups=$(uniq -d < "$tmp/keys")
[ -z "$dups" ] || { echo "crash_smoke.sh: duplicate cells across the crash boundary:" >&2; echo "$dups" >&2; exit 1; }
[ "$(wc -l < "$tmp/keys")" -eq "$cells" ] \
    || { echo "crash_smoke.sh: union covers $(wc -l < "$tmp/keys") cells, want $cells" >&2; exit 1; }

# Exactly-once execution: the survivor restored the dead replica's
# journaled cells instead of re-running them.
status=$(curl -sf "http://$addrB/v1/status")
executed=$(echo "$status" | sed -n 's/.*"cells_executed":\([0-9]*\).*/\1/p')
[ -n "$executed" ] && [ "$executed" -ge 1 ] && [ "$executed" -lt "$cells" ] \
    || { echo "crash_smoke.sh: survivor executed $executed cells of $cells (journaled cells must not re-run)" >&2; echo "$status" >&2; exit 1; }

# Byte-identical replay of the completed sweep, and both stream halves
# appear verbatim inside it.
fp=$(sed -n 's/.*"fingerprint":"\([0-9a-f]\{16\}\)".*/\1/p' "$tmp/part2.ndjson" | head -1)
[ -n "$fp" ] || { echo "crash_smoke.sh: no fingerprint in survivor trailer" >&2; exit 1; }
curl -sf "http://$addrB/v1/result/$fp" > "$tmp/replay1.ndjson"
curl -sf "http://$addrB/v1/result/$fp" > "$tmp/replay2.ndjson"
cmp -s "$tmp/replay1.ndjson" "$tmp/replay2.ndjson" \
    || { echo "crash_smoke.sh: two replays of one result differ" >&2; exit 1; }
[ "$(grep -c '"key"' "$tmp/replay1.ndjson")" -eq "$cells" ] \
    || { echo "crash_smoke.sh: replay is missing records" >&2; exit 1; }
grep '"key"' "$tmp/part1.ndjson" "$tmp/part2.ndjson" | sed 's/^[^:]*://' | while IFS= read -r line; do
    grep -qF "$line" "$tmp/replay1.ndjson" \
        || { echo "crash_smoke.sh: streamed record not byte-identical in the replay:" >&2; echo "$line" >&2; exit 1; }
done

# The survivor still drains cleanly.
kill -TERM "$pidB"
for _ in $(seq 1 100); do
    kill -0 "$pidB" 2>/dev/null || break
    sleep 0.1
done
if wait "$pidB"; then :; else
    echo "crash_smoke.sh: survivor exited non-zero on SIGTERM" >&2; cat "$tmp/b.log" >&2; exit 1
fi
grep -q "drained cleanly" "$tmp/b.log" \
    || { echo "crash_smoke.sh: survivor did not drain cleanly" >&2; cat "$tmp/b.log" >&2; exit 1; }
pidB=
locks=$(find "$store" -name '*.lock')
[ -z "$locks" ] || { echo "crash_smoke.sh: the store holds lock files:" >&2; echo "$locks" >&2; exit 1; }

echo "crash_smoke.sh: crash recovery green"
