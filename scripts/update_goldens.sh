#!/usr/bin/env bash
# Regenerates the committed goldens under ci/golden/. Run after any
# intentional change to the simulator's metrics or to the reproduce
# output format, and commit the result. The goldens are produced by the
# serial sweep (--jobs 1). Two readers diff against them byte for byte:
# the CI `determinism` job (every --jobs / --mmap leg) and the benchmark
# (perfbench/), which checks each `reproduce --workloads fft` run
# against the fft subset.
set -euo pipefail
cd "$(dirname "$0")/.."

SCALE="${SCALE:-0.05}"

cargo build --release -p dsm-bench --bin reproduce

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
target/release/reproduce --scale "$SCALE" --jobs 1 \
  --out "$out" > "$out/stdout.txt"

# The fft subset golden: the run the benchmark repeats.
mkdir -p "$out/fft"
target/release/reproduce --scale "$SCALE" --workloads fft \
  --jobs 1 --out "$out/fft" > "$out/fft/stdout.txt"

mkdir -p ci/golden
cp "$out/reproduce_full.json" "ci/golden/reproduce_full.scale${SCALE}.json"
cp "$out/stdout.txt" "ci/golden/reproduce_stdout.scale${SCALE}.txt"
cp "$out/fft/reproduce_full.json" "ci/golden/reproduce_full.scale${SCALE}.fft.json"
cp "$out/fft/stdout.txt" "ci/golden/reproduce_stdout.scale${SCALE}.fft.txt"
echo "goldens updated under ci/golden/ (scale ${SCALE})"
