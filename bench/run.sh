#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it with the given flags. Everything the build and the
# run write (Go build cache, temp files, the go command's own counter
# files, WAL directories, span files) stays under .bench_build/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local
export BENCH_ROOT="$root"
export BENCH_COMMIT="${BENCH_COMMIT:-$(git -C "$root" describe --always --dirty 2>/dev/null || echo unknown)}"
XDG_CONFIG_HOME="$out/config" go build -C "$root/bench" -buildvcs=false -o "$out/epochbench" .
exec "$out/epochbench" "$@"
