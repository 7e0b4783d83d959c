#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from and
# runs it with the given arguments (see bench/README.md). Run it from the
# repository root:
#
#   bash bench/run.sh --workload table4-batch --seed 1 --seconds 30 --trace 0
#
# Every build product and Go cache lives under $CARGO_TARGET_DIR (default
# .bench_build), so a run writes nothing outside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/go-cache" "$out/go-tmp" "$out/go-mod" "$out/config"

export GOCACHE=$out/go-cache GOTMPDIR=$out/go-tmp GOMODCACHE=$out/go-mod
export XDG_CONFIG_HOME=$out/config GOPROXY=off GOTOOLCHAIN=local GOFLAGS=

go -C "$root/bench" build -o "$out/adhocbench" .
exec "$out/adhocbench" "$@"
