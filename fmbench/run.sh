#!/usr/bin/env bash
# Builds the benchmark from the surrounding checkout and runs it:
#
#   bash fmbench/run.sh --workload identify-nation --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (binary, Go build cache, temp files) stays
# under .bench_build in the checkout root. The build fails, and the
# script exits non-zero without a result, when the filtermap sources are
# not next to this directory.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOPATH="$build/gopath" GOENV=off
export GOTOOLCHAIN=local GOFLAGS= GOMAXPROCS=2
(cd "$root/fmbench" && go build -o "$build/fmbench" .)
exec "$build/fmbench" "$@"
