#!/usr/bin/env bash
# Builds predictd and the benchmark program from the tree under test, then
# runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload steady-point --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Everything it builds or writes lands in
# .bench_build/ (the Go build cache included), so the tree stays clean.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/predictd" ]]; then
	echo "perfbench: run from the repository root (no cmd/predictd here)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/modcache" TMPDIR="$out/tmp" \
	GOTELEMETRY=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOSUMDB=off
go build -o "$out/predictd" ./cmd/predictd
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -predictd "$out/predictd" -workdir "$out" "$@"
