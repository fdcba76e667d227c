#!/usr/bin/env bash
# Sweep-server smoke: the service contract at the real binary boundary.
# Boots epscaled on an ephemeral port, fires two overlapping identical
# sweeps at it, and asserts what the HTTP layer promises:
#   - both clients stream every cell record plus a complete trailer
#     whose "next_from" is the exact journal position (4),
#   - the shared cells execute exactly once across the two requests
#     (single-flight: the dedup counters in /v1/status prove it),
#   - GET /v1/result/{fingerprint} replays the stored sweep
#     byte-identically, replay after replay,
#   - SIGTERM drains the daemon cleanly (exit 0).
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"; [ -n "${pid:-}" ] && kill "$pid" 2>/dev/null || true' EXIT

go build -o "$tmp/epscaled" ./cmd/epscaled

addr=127.0.0.1:18420
"$tmp/epscaled" -addr "$addr" -store "$tmp/store" > "$tmp/daemon.log" 2>&1 &
pid=$!

for _ in $(seq 1 50); do
    curl -sf "http://$addr/v1/status" > /dev/null 2>&1 && break
    kill -0 "$pid" 2>/dev/null || { echo "serve_smoke.sh: daemon died on startup" >&2; cat "$tmp/daemon.log" >&2; exit 1; }
    sleep 0.1
done
curl -sf "http://$addr/v1/status" > /dev/null \
    || { echo "serve_smoke.sh: daemon never became ready" >&2; cat "$tmp/daemon.log" >&2; exit 1; }

req='{"algorithms":["OpenBLAS","Strassen"],"sizes":[64,128],"threads":[1]}'

# Two overlapping identical sweeps. Each must stream all 4 cell
# records and a trailer with "complete":true and "next_from":4: every
# stream is read from the journal, so its token is a journal position.
curl -sf -X POST -H 'X-Client-ID: a' -d "$req" "http://$addr/v1/sweep" > "$tmp/a.ndjson" &
curl -sf -X POST -H 'X-Client-ID: b' -d "$req" "http://$addr/v1/sweep" > "$tmp/b.ndjson" &
wait %2 %3 2>/dev/null || wait

for c in a b; do
    n=$(grep -c '"key"' "$tmp/$c.ndjson")
    [ "$n" -eq 4 ] || { echo "serve_smoke.sh: client $c streamed $n records, want 4" >&2; cat "$tmp/$c.ndjson" >&2; exit 1; }
    grep -q '"done":true' "$tmp/$c.ndjson" && grep -q '"complete":true' "$tmp/$c.ndjson" \
        || { echo "serve_smoke.sh: client $c got no complete trailer" >&2; cat "$tmp/$c.ndjson" >&2; exit 1; }
    grep -q '"next_from":4' "$tmp/$c.ndjson" \
        || { echo "serve_smoke.sh: client $c trailer lacks the exact resume token \"next_from\":4" >&2; tail -1 "$tmp/$c.ndjson" >&2; exit 1; }
done

# Single-flight: across both requests the 4 shared cells executed
# exactly once each — whether the second client attached to the live
# sweep or resumed from the store, nothing re-executes.
status=$(curl -sf "http://$addr/v1/status")
executed=$(echo "$status" | sed -n 's/.*"cells_executed":\([0-9]*\).*/\1/p')
started=$(echo "$status" | sed -n 's/.*"sweeps_started":\([0-9]*\).*/\1/p')
[ "$executed" = "4" ] \
    || { echo "serve_smoke.sh: overlapping sweeps executed $executed cells, want 4 (single-flight broken)" >&2; echo "$status" >&2; exit 1; }
[ -n "$started" ] && [ "$started" -le 2 ] \
    || { echo "serve_smoke.sh: $started sweeps started for one fingerprint" >&2; echo "$status" >&2; exit 1; }

# Byte-identical replay from the store, twice.
fp=$(sed -n 's/.*"fingerprint":"\([0-9a-f]\{16\}\)".*/\1/p' "$tmp/a.ndjson" | head -1)
[ -n "$fp" ] || { echo "serve_smoke.sh: no fingerprint in trailer" >&2; exit 1; }
curl -sf "http://$addr/v1/result/$fp" > "$tmp/replay1.ndjson"
curl -sf "http://$addr/v1/result/$fp" > "$tmp/replay2.ndjson"
cmp -s "$tmp/replay1.ndjson" "$tmp/replay2.ndjson" \
    || { echo "serve_smoke.sh: two replays of one result differ" >&2; exit 1; }
[ "$(grep -c '"key"' "$tmp/replay1.ndjson")" -eq 4 ] \
    || { echo "serve_smoke.sh: replay is missing records" >&2; cat "$tmp/replay1.ndjson" >&2; exit 1; }
# Every replayed record line appeared verbatim in the live stream.
while IFS= read -r line; do
    grep -qF "$line" "$tmp/a.ndjson" \
        || { echo "serve_smoke.sh: replayed record not byte-identical to streamed record:" >&2; echo "$line" >&2; exit 1; }
done < "$tmp/replay1.ndjson"

# Graceful drain on SIGTERM.
kill -TERM "$pid"
for _ in $(seq 1 100); do
    kill -0 "$pid" 2>/dev/null || break
    sleep 0.1
done
if wait "$pid"; then :; else
    echo "serve_smoke.sh: daemon exited non-zero on SIGTERM" >&2; cat "$tmp/daemon.log" >&2; exit 1
fi
grep -q "drained cleanly" "$tmp/daemon.log" \
    || { echo "serve_smoke.sh: daemon did not drain cleanly" >&2; cat "$tmp/daemon.log" >&2; exit 1; }
pid=

echo "serve_smoke.sh: sweep service green"
