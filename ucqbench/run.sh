#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash ucqbench/run.sh --workload cold-bind --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the binary, the Go build cache, temporary files and the per-run
# working directories.
set -euo pipefail
cd "$(dirname "$0")/.."
root="$PWD/.bench_build"
mkdir -p "$root/tmp" "$root/config"
export GOCACHE="$root/gocache" GOTMPDIR="$root/tmp" TMPDIR="$root/tmp"
export GOPATH="$root/gopath" XDG_CONFIG_HOME="$root/config" GOTOOLCHAIN=local GOFLAGS=
# Fall back to the standard install location when go is not on PATH.
command -v go >/dev/null || PATH="$PATH:/usr/local/go/bin"
go build -o "$root/ucqbench" ./ucqbench
exec "$root/ucqbench" --dir "$root/runs" "$@"
