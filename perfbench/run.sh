#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload tpch9-agg --seed 1 --seconds 10 --trace 0
#
# Run from the root of a checkout. Build outputs, the Go build cache, spill
# files and span files all stay under the build directory
# ($CARGO_TARGET_DIR if set, else .bench_build), so the run writes nothing
# outside the checkout. The build fails, and so does the run, when the
# engine's sources are not there.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/tmp" "$build/config" "$build/cache"

# Fall back to the standard install location when go is not on PATH.
if ! command -v go >/dev/null 2>&1 && [ -x /usr/local/go/bin/go ]; then
	PATH="/usr/local/go/bin:$PATH"
fi
# The Go command keeps its caches, settings and usage counters under these
# directories; point them all into the build directory.
export XDG_CONFIG_HOME="$build/config"
export XDG_CACHE_HOME="$build/cache"
export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOPATH="$build/gopath"
export TMPDIR="$build/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=mod
export GOWORK=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
cd "$root"
exec "$build/perfbench" --out "$build" "$@"
