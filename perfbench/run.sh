#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ under the current
# directory (the repository root) and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload placement --seed 1 --seconds 10 --trace 0
#
# The Go build cache lives in .bench_build/ too, so a run reads and writes
# nothing outside the checkout. Outside a full checkout the build fails and
# the script exits non-zero without printing a result.
set -euo pipefail
root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS=-buildvcs=false GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" -build-dir "$build" "$@"
