#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every flag is passed through (see bench/README.md), e.g.
#   bash bench/run.sh --workload session --seed 3 --seconds 10 --trace 0
# The binary, the Go build cache and traced-run artifacts all go under
# .bench_build/ in the repository root, so nothing is written elsewhere.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d internal ] || [ ! -f bench/go.mod ]; then
	echo "bench/run.sh: run from the repository root (go.mod, internal/ and bench/ must be present)" >&2
	exit 2
fi

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off

(cd bench && go build -o "$build/nymixbench" .)
exec "$build/nymixbench" -out "$build/trace" "$@"
