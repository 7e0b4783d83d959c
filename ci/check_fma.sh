#!/usr/bin/env bash
# Fails when any non-test package compiles a fused multiply-add on a
# backend that fuses. Go may fuse x*y + z into one FMA instruction, which
# skips the product's rounding; amd64 never does, but arm64, ppc64le,
# s390x and riscv64 do, so a fused site would give those hosts different
# result bytes for the same seed and spec. An explicit float64() around a
# product forbids the fusion (DESIGN.md, "Determinism contract"). Needs
# only the Go toolchain: the packages are cross-compiled with -gcflags=-S
# and the assembly listing is searched for each backend's FMA mnemonics.
#
# Usage: ci/check_fma.sh
set -euo pipefail

fused='\b(FMADDD|FMSUBD|FNMADDD|FNMSUBD|FMADD|FMSUB|FNMADD|FNMSUB)\b'
listing="$(mktemp)"
trap 'rm -f "$listing"' EXIT

fail=0
for arch in arm64 ppc64le s390x riscv64; do
    if ! GOARCH="$arch" go build -gcflags=-S ./... > "$listing" 2>&1; then
        cat "$listing"
        echo "fma: GOARCH=$arch build failed" >&2
        exit 1
    fi
    if grep -E "$fused" "$listing"; then
        echo "fma: GOARCH=$arch fuses the multiply-adds above; round each product with float64()" >&2
        fail=1
    fi
done
exit "$fail"
