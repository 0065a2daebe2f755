#!/usr/bin/env bash
# Builds the benchmark and eulerd from the sources of this checkout, then
# runs one workload.  Run it from the repository root:
#
#   bash perfbench/run.sh --workload solve-rmat --seed 1 --seconds 15 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C perfbench build -o "$out/perfbench" .
go -C perfbench build -o "$out/eulerd" repro/cmd/eulerd
exec "$out/perfbench" -eulerd "$out/eulerd" -work "$out/work" -traces "$out/traces" "$@"
