#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload zipf-serve --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and every file a run writes stay under
# .bench_build at the checkout's root. Without the repository's sources
# next to perfbench/ the build fails and no result is printed.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
# The go command keeps its telemetry counters under the user config
# directory; point that into the checkout too.
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off GOFLAGS=
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
