#!/usr/bin/env bash
# Builds cmd/imrdmd-bench from source and runs it with the given flags.
# Run from the repository root:
#
#   bash cmd/imrdmd-bench/run.sh --workload sclog_stream --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (the Go build cache and the binary) goes
# under .bench_build/ in the current directory, so the run touches nothing
# outside the checkout. Without the repository's go.mod next to it the
# build fails and the script exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
bench_dir=$(cd "$(dirname "$0")" && pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ]; then
	echo "imrdmd-bench: run from the repository root (no go.mod/internal in $root)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOENV=off
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=readonly

go -C "$bench_dir" build -o "$build/imrdmd-bench" .
exec "$build/imrdmd-bench" "$@"
