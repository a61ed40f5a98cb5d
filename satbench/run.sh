#!/usr/bin/env bash
# Builds the satserved end-to-end benchmark from the checkout it is run in
# and runs it with the given arguments:
#
#   bash satbench/run.sh --workload warm-first --seed 1 --seconds 25 --trace 0
#
# Run from the repository root. Build outputs, the Go build cache and the
# benchmark's scratch stores all stay under .bench_build/.
set -euo pipefail
if [[ ! -f go.mod || ! -d internal/server || ! -f satbench/go.mod ]]; then
	echo "satbench: run from the root of a repository checkout" >&2
	exit 2
fi
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
# Keep every file the toolchain writes inside the checkout, and never reach
# for the network: the module has no dependencies outside the repository.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off \
	GOFLAGS= GOWORK=off
(cd satbench && go build -o "$out/satbench" .)
exec "$out/satbench" -workdir "$out" "$@"
