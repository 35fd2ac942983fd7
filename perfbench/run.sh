#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument is passed to the benchmark, e.g.
#   bash perfbench/run.sh --workload walk --seed 1 --seconds 20 --trace 0
# Build outputs, the Go build cache and run files stay under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOTOOLCHAIN=local
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" --out "$out/perfbench" "$@"
