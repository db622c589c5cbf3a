#!/usr/bin/env bash
# Regenerates every table/figure experiment and collects the outputs under
# results/. Scale up the sweeps with: QD_SCALE=4 scripts/run_experiments.sh
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p results
cargo build --release -p bench --bins
cargo build --release --bin qdiam

failures=0
for bin in table1_exact table1_approx table1_lower_bounds \
           fig1_bfs fig2_evaluation fig3_approx_phases fig4_hw_gadget \
           fig5_7_simulation fig8_stretched_gadget \
           ablation_window memory_scaling qdisj_protocol; do
  echo "=== $bin ==="
  if ! ./target/release/$bin | tee "results/$bin.txt"; then
    echo "FAILED: $bin" >&2
    failures=$((failures + 1))
  fi
done

echo "=== crossover ==="
if ! ./target/release/qdiam crossover --families sparse,tree \
     --ns 16,24,32,48,64,96,128,160,192 --seed 7 --out results; then
  echo "FAILED: crossover" >&2
  failures=$((failures + 1))
fi

# The structured-output harnesses must also have written machine-readable
# results (bench::write_results_json); a missing file means the run died
# before its sweep finished.
for name in table1_exact table1_approx table1_lower_bounds fig2_evaluation; do
  if [ ! -s "results/$name.json" ]; then
    echo "FAILED: results/$name.json missing or empty" >&2
    failures=$((failures + 1))
  fi
done

if [ "$failures" -ne 0 ]; then
  echo "$failures experiment(s) failed" >&2
  exit 1
fi
echo "all experiment outputs written to results/ (*.txt tables, *.json structured)"
