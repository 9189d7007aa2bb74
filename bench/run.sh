#!/usr/bin/env bash
# Builds the benchmark harness from this checkout and runs it; the harness
# builds cmd/domserved itself.  Run from the repository root:
#
#   bash bench/run.sh --workload serve --seed 1 --seconds 10 --trace 0
#
# Every build product, Go cache and temporary file stays under .bench_build/
# in the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/domserved || ! -f bench/go.mod ]]; then
	echo "bench/run.sh: run from the repository root (needs go.mod, cmd/domserved and bench/go.mod)" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOENV=off GOWORK=off GOTOOLCHAIN=local GOFLAGS=

(cd bench && go build -o "$out/bench" .)
exec "$out/bench" -root "$PWD" "$@"
