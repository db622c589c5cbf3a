#!/usr/bin/env bash
# Prints the console report of every qdiam driver on a 5 x 5 grid (seed 5,
# --verbose), then the exact and classical drivers healing a crash under
# --recover. results/qdiam_reports.txt is this script's committed output,
# and scripts/check.sh diffs a fresh run against it.
# Usage: scripts/qdiam_reports.sh > results/qdiam_reports.txt
set -euo pipefail
cd "$(dirname "$0")/.."

qdiam() {
  echo "\$ qdiam $*"
  cargo run -q --release --offline -p congest-diameter --bin qdiam -- "$@"
}

for algo in exact simple approx classical classical-approx two-approx girth; do
  qdiam "$algo" --family grid --n 25 --seed 5 --verbose
done
for algo in exact classical; do
  qdiam "$algo" --family grid --n 25 --seed 5 --verbose \
    --faults drop=0.002,crash=7@3,seed=4 --recover
done
