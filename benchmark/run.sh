#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every build, cache and run file stays under the build directory
# ($CARGO_TARGET_DIR when set, else .bench_build).
#
#   bash benchmark/run.sh --workload suite|sweep|serve --seed N --seconds S --trace 0|1
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp"

# Keep the Go toolchain's caches, temporary files and config inside the
# build directory, need no C toolchain, and never reach for the network.
export GOCACHE=$out/go-cache GOMODCACHE=$out/go-mod GOPATH=$out/go-path \
    GOTMPDIR=$out/tmp TMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config \
    CGO_ENABLED=0 GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd benchmark && go build -o "$out/lpmem-bench" .)
exec "$out/lpmem-bench" --out "$out" "$@"
