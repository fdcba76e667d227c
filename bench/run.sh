#!/usr/bin/env bash
# Builds capbench and the epscaled daemon from this checkout's source,
# then runs capbench with the given arguments, for example
#
#   bash bench/run.sh --workload serve-hot --seed 3 --seconds 15 --trace 0
#
# Everything the build and the runs write (Go build cache, binaries,
# temp stores, result files, traces) stays under .bench_build/ at the
# root of the checkout. See bench/README.md.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export TMPDIR="$out/tmp" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

cd "$root/bench"
go build -o "$out/capbench" ./capbench >&2
go build -o "$out/epscaled" capscale/cmd/epscaled >&2

cd "$root"
exec "$out/capbench" -epscaled "$out/epscaled" "$@"
