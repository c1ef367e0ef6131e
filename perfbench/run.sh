#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload replay-bin --seed 1 --seconds 15 --trace 0
#
# Every file the build writes (Go build cache, temporary files, the
# binary) lands under .bench_build in the repository root. Without the
# repository's sources next to perfbench/ the build fails and so does
# the run.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config" "$build/modcache"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/modcache"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go -C "$root/perfbench" build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
