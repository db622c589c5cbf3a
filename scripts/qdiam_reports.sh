#!/usr/bin/env bash
# Prints the console report of every qdiam driver on a 5 x 5 grid (seed 5,
# --verbose), then the four recovering drivers healing a crash under
# --recover, then the quantum drivers healing message drops by whole-run
# retries, then the trace summary of a --trace run of each quantum driver
# (every trace span, oracle count and value event). Each healing run is
# traced too, and its summary pins every retry, re-root, restart and
# retransmit event and every `wasted attempt k` span.
# results/qdiam_reports.txt is this script's committed output, and
# scripts/check.sh diffs a fresh run against it.
# Usage: scripts/qdiam_reports.sh > results/qdiam_reports.txt
set -euo pipefail
cd "$(dirname "$0")/.."

run() {
  cargo run -q --release --offline -p congest-diameter --bin qdiam -- "$@"
}

qdiam() {
  echo "\$ qdiam $*"
  run "$@"
}

for algo in exact simple approx classical classical-approx two-approx girth; do
  qdiam "$algo" --family grid --n 25 --seed 5 --verbose
done
tdir=$(mktemp -d)
trap 'rm -rf "$tdir"' EXIT

# A --trace run of `qdiam "$@"` into $tdir/$name.jsonl, then its summary.
traced() {
  local name=$1
  shift
  echo "\$ qdiam $* --trace $name.jsonl"
  run "$@" --trace "$tdir/$name.jsonl" | sed "s#$tdir/##"
  echo "\$ qdiam trace-summary $name.jsonl"
  run trace-summary "$tdir/$name.jsonl"
}

for algo in exact simple approx classical; do
  traced "$algo-crash" "$algo" --family grid --n 25 --seed 5 --verbose \
    --faults drop=0.002,crash=7@3,seed=4 --recover
done
for algo in exact approx; do
  traced "$algo-drop" "$algo" --family grid --n 25 --seed 5 --verbose \
    --faults drop=0.01,seed=1 --recover
done
for algo in exact simple approx; do
  echo "\$ qdiam $algo --family grid --n 25 --seed 5 --trace $algo.jsonl"
  run "$algo" --family grid --n 25 --seed 5 --trace "$tdir/$algo.jsonl" >/dev/null
  echo "\$ qdiam trace-summary $algo.jsonl"
  run trace-summary "$tdir/$algo.jsonl"
done
