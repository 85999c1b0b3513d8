#!/usr/bin/env bash
# Build and run the repository benchmark from the repository root:
#
#   bash perfbench/run.sh --workload paper --seed 1 --seconds 20 --trace 0
#
# Everything the Go toolchain and the benchmark write (build cache,
# temporary files, the binary, the serve workloads' data directories)
# stays under the build directory inside the checkout
# ($CARGO_TARGET_DIR, default .bench_build).
set -euo pipefail

root=$(pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
dir="$build/perfbench"
mkdir -p "$dir/home" "$dir/tmp"
export HOME="$dir/home" XDG_CONFIG_HOME="$dir/home/.config" XDG_CACHE_HOME="$dir/home/.cache"
export GOCACHE="$dir/gocache" GOPATH="$dir/gopath" GOTMPDIR="$dir/tmp" TMPDIR="$dir/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off

go -C "$root/perfbench" build -o "$dir/perfbench" .
exec "$dir/perfbench" "$@"
