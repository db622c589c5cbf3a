#!/usr/bin/env bash
# Repo health gate: formatting, lints, and the tier-1 test suite.
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

status=0

if cargo fmt --version >/dev/null 2>&1; then
  echo "=== cargo fmt --check ==="
  cargo fmt --all --check || status=1
else
  echo "=== cargo fmt not installed; skipping format check ==="
fi

if cargo clippy --version >/dev/null 2>&1; then
  echo "=== cargo clippy ==="
  cargo clippy --workspace --all-targets --offline -- -D warnings || status=1
else
  echo "=== cargo clippy not installed; skipping lint check ==="
fi

echo "=== rustdoc (warnings are errors) ==="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline --quiet || status=1

echo "=== tier-1: cargo build --release && cargo test ==="
cargo build --release --offline || status=1
cargo test -q --offline || status=1

echo "=== workspace tests ==="
# The root package's tests ran in the tier-1 step above; this pass runs
# every other workspace member's, so each test runs exactly once.
cargo test -q --offline --workspace --exclude congest-diameter || status=1

echo "=== perfbench unit tests ==="
# perfbench is its own workspace. Its gen::tests::matches_the_sparse_family
# is the check that graphs::generators::random_sparse returns the same graph
# as an independent sampler.
cargo test -q --release --offline --manifest-path perfbench/Cargo.toml || status=1

echo "=== fault matrix smoke (detection latency + recovery cost) ==="
fdir=$(mktemp -d)
QD_RESULTS_DIR="$fdir" cargo run -q --release --offline -p bench \
  --bin fault_matrix >/dev/null || status=1
if ! test -s "$fdir/fault_matrix.json"; then
  echo "fault_matrix.json missing" >&2
  status=1
else
  for key in '"experiment":"fault_matrix"' '"recovery_policy"' '"recovery_cells"' \
    '"recovered"' '"unsound"' '"mean_retries"' '"mean_recovery_rounds"' \
    '"wasted_wire_bits"'; do
    grep -qF "$key" "$fdir/fault_matrix.json" \
      || { echo "fault_matrix.json missing key $key" >&2; status=1; }
  done
  # Recovery-cost means must be finite numbers, never NaN/null.
  if grep -qE '"mean_(retries|recovery_rounds)":(null|NaN)' "$fdir/fault_matrix.json"; then
    echo "fault_matrix.json has non-finite recovery-cost fields" >&2
    status=1
  fi
fi
rm -rf "$fdir"

echo "=== scheduler bench smoke (<5% overhead gates) + BENCH_scheduler.json schema ==="
# The vendored criterion stub runs every group once in --test mode; the
# Instant-based gates (disabled_path_overhead, scheduler_hot_loop, and the
# flight-recorder <5% overhead gate on the n = 10^5 path flood) always
# run, and scheduler_sparse writes BENCH_scheduler.json, here into a
# scratch directory so the committed artifact stays as it is.
# disabled_path_overhead bounds tracing and metrics together (<5% for both
# thread-local lookups per round), so this smoke doubles as the cost-metrics
# gate.
bdir=$(mktemp -d)
QD_RESULTS_DIR="$bdir" cargo bench -q --offline -p bench --bench bench_substrate -- --test \
  || status=1
for f in "$bdir/BENCH_scheduler.json" BENCH_scheduler.json; do
  if ! test -s "$f"; then
    echo "$f missing" >&2
    status=1
    continue
  fi
  for key in '"experiment":"scheduler_sparse"' '"workloads"' '"rounds_per_sec"' \
    '"active_node_fraction"'; do
    grep -qF "$key" "$f" || { echo "$f missing key $key" >&2; status=1; }
  done
done

echo "=== cut-traffic meter: fig5_7_simulation matches its committed output ==="
# Deterministic output, including the boundary traffic the CutTraffic trace
# sink measures (288 bits per boundary per round against a cap of 324).
cargo run -q --release --offline -p bench --bin fig5_7_simulation \
  | diff - results/fig5_7_simulation.txt || status=1

echo "=== qdiam reports match their committed output ==="
# Every driver's console report, fault-free, healing a crash and healing
# drops by retries; see the generator script for the exact command lines.
scripts/qdiam_reports.sh | diff - results/qdiam_reports.txt || status=1

echo "=== fault grammar: only synchronous fault kinds parse ==="
# A message either arrives the round after it is sent or never does, so
# there is no jitter clause, and no corruption clause (a discarded message
# is a drop). Either spec must be a usage error, not a panic.
for spec in corrupt=0.1 delay=0.1:2; do
  set +e
  out=$(./target/release/qdiam classical --n 16 --faults "$spec" 2>&1)
  code=$?
  set -e
  if [ "$code" -ne 2 ] || ! grep -qF 'unknown fault clause key' <<<"$out"; then
    echo "--faults $spec: expected exit 2 and 'unknown fault clause key', got $code: $out" >&2
    status=1
  fi
done

echo "=== Theorem 1 drivers on a disconnected graph: Initialization's error ==="
# The eccentricity table runs beside Initialization and is None on this
# graph too; the error reported must stay the one leader election raises.
gdir=$(mktemp -d)
printf '6 4\n0 1\n1 2\n3 4\n4 5\n' >"$gdir/two_components.txt"
for algo in exact simple; do
  set +e
  out=$(./target/release/qdiam "$algo" --family file --file "$gdir/two_components.txt" 2>&1)
  code=$?
  set -e
  if [ "$code" -ne 1 ] || ! grep -qF 'graph is not connected' <<<"$out"; then
    echo "qdiam $algo on two components: expected exit 1 and 'graph is not connected', got $code: $out" >&2
    status=1
  fi
done
rm -rf "$gdir"

echo "=== crossovers are measured, never projected ==="
# Where two fitted power laws intersect moves by orders of magnitude with
# the sweep's range, so no committed output may quote such a crossover.
# The sweep has one price list and always runs every algorithm, so the
# flags that once changed either must be usage errors.
if grep -rniF -e project -e extrapolat -e 'n*' results/; then
  echo "results/ quotes a projected or extrapolated crossover" >&2
  status=1
fi
odir=$(mktemp -d)
for flag in "--qubit-factor 10" "--header-bits 32" "--no-approx"; do
  set +e
  # shellcheck disable=SC2086 # the flag and its value are two words
  out=$(./target/release/qdiam crossover --families path --ns 8 --out "$odir" $flag 2>&1)
  code=$?
  set -e
  if [ "$code" -ne 2 ] || ! grep -qF 'unknown option' <<<"$out"; then
    echo "qdiam crossover $flag: expected exit 2 and 'unknown option', got $code: $out" >&2
    status=1
  fi
done
rm -rf "$odir"

echo "=== deterministic experiments match their committed output ==="
# Each is deterministic. table1_lower_bounds and fig2_evaluation take well
# under a second; the Theorem 1 and Theorem 4 artifacts (table1_exact,
# table1_approx, fig3_approx_phases, ablation_window, memory_scaling) run
# the quantum search and the eccentricity table, ≈8 s together on two
# cores, ≈7 s of it table1_exact, most of that its classical baseline
# (Θ(n) rounds up to n = 8192). fault_matrix (≈0.07 s) pins the classical
# recovering driver's retries, checkpoint restarts and re-roots. Their JSON
# goes to a scratch directory, whose path the "results JSON ->" line names.
adir=$(mktemp -d)
for bin in table1_lower_bounds fig2_evaluation table1_exact table1_approx \
  fig3_approx_phases ablation_window memory_scaling fault_matrix; do
  QD_RESULTS_DIR="$adir" cargo run -q --release --offline -p bench --bin "$bin" \
    | sed "s#$adir/#results/#" | diff - "results/$bin.txt" || status=1
done
rm -rf "$adir"

echo "=== table1_approx under faults: failed rows and exit 1, not a panic ==="
# Under 1% message loss the classical baseline fails every point; each must
# print as a failed row, and the run must exit 1 without its JSON.
tdir=$(mktemp -d)
set +e
out=$(QD_RESULTS_DIR="$tdir" QD_FAULTS=drop=0.01,seed=1 cargo run -q --release --offline \
  -p bench --bin table1_approx 2>&1)
code=$?
set -e
if [ "$code" -ne 1 ] || ! grep -qE '^ +[0-9]+ +[0-9]+ failed: ' <<<"$out" \
  || test -e "$tdir/table1_approx.json"; then
  echo "QD_FAULTS table1_approx: expected exit 1, failed rows and no JSON, got $code: $out" >&2
  status=1
fi
rm -rf "$tdir"

echo "=== crossover smoke (artifacts + schema) ==="
xdir=$(mktemp -d)
cargo run -q --release --offline -p congest-diameter --bin qdiam -- \
  crossover --families sparse --ns 16,24 --seed 1 --out "$xdir" \
  --metrics "$xdir/metrics.prom" >/dev/null || status=1
test -s "$xdir/crossover.json" || { echo "crossover.json missing" >&2; status=1; }
test -s "$xdir/CROSSOVER.md" || { echo "CROSSOVER.md missing" >&2; status=1; }
test -s "$xdir/metrics.prom" || { echo "metrics.prom missing" >&2; status=1; }
for key in '"experiment":"crossover"' '"points"' '"fits"' '"crossings"'; do
  grep -qF "$key" "$xdir/crossover.json" \
    || { echo "crossover.json missing key $key" >&2; status=1; }
done
grep -qF '### Crossovers vs `classical-apsp`' "$xdir/CROSSOVER.md" \
  || { echo "CROSSOVER.md missing verdict section" >&2; status=1; }
grep -q '^# TYPE qd_messages_total counter' "$xdir/metrics.prom" \
  || { echo "metrics.prom missing qd_messages_total" >&2; status=1; }
rm -rf "$xdir"

echo "=== committed crossover sweep (≈50 ms) ==="
xdir=$(mktemp -d)
cargo run -q --release --offline -p congest-diameter --bin qdiam -- \
  crossover --families sparse,tree --ns 16,24,32,48,64,96,128,160,192 \
  --seed 7 --out "$xdir" >/dev/null || status=1
diff "$xdir/CROSSOVER.md" results/CROSSOVER.md || status=1
rm -rf "$xdir"

echo "=== scale smoke (n = 10⁴) + BENCH_scale.json schema ==="
sdir=$(mktemp -d)
QD_MAX_N=10000 QD_RESULTS_DIR="$sdir" cargo run -q --release --offline -p bench \
  --bin scale >/dev/null || status=1
# The smoke output proves the generator works; the repo-root artifact is
# the committed full sweep (n up to 10⁶). Both must carry the schema.
for f in "$sdir/BENCH_scale.json" BENCH_scale.json; do
  if ! test -s "$f"; then
    echo "$f missing" >&2
    status=1
    continue
  fi
  for key in '"experiment":"scale"' '"points"' '"rounds_per_sec"' '"bytes_per_node"'; do
    grep -qF "$key" "$f" || { echo "$f missing key $key" >&2; status=1; }
  done
done

echo "=== driver throughput smoke (n = 1024) + BENCH_drivers.json, BENCH_phases.json schema ==="
ddir=$(mktemp -d)
QD_MAX_N=1024 QD_RESULTS_DIR="$ddir" cargo run -q --release --offline -p bench \
  --bin drivers >/dev/null || status=1
# The smoke output proves the generator works; the repo-root artifact is
# the committed full sweep (n up to 16384). Both must carry the schema.
for f in "$ddir/BENCH_drivers.json" BENCH_drivers.json; do
  if ! test -s "$f"; then
    echo "$f missing" >&2
    status=1
    continue
  fi
  for key in '"experiment":"drivers"' '"points"' '"rounds_per_sec"' '"active_fraction"'; do
    grep -qF "$key" "$f" || { echo "$f missing key $key" >&2; status=1; }
  done
done
# The same run's registry-instrumented phase pass: the smoke's capped one
# and the committed one both hold the apsp_sparse point at n = 512.
for f in "$ddir/BENCH_phases.json" BENCH_phases.json; do
  if ! test -s "$f"; then
    echo "$f missing" >&2
    status=1
    continue
  fi
  for key in '"experiment":"phases"' '"workload":"apsp_sparse","n":512' '"phases"' \
    '"phase":"commit"' '"phase":"execute"' '"ns_per_round"' '"ns_per_msg"'; do
    grep -qF "$key" "$f" || { echo "$f missing key $key" >&2; status=1; }
  done
done

echo "=== qdiam report schema smoke ==="
rdir=$(mktemp -d)
cargo run -q --release --offline -p congest-diameter --bin qdiam -- \
  report classical --family path --n 64 --out "$rdir" >/dev/null || status=1
rpt="$rdir/REPORT_classical_path_n64.md"
if ! test -s "$rpt"; then
  echo "$rpt missing" >&2
  status=1
else
  for key in '# qdiam run report' '## Run summary' '## Critical path' \
    '- longest causal message chain:' '## Timeline' 'flight recorder:' \
    '## Cost totals' 'qd_messages_total' '## Recovery'; do
    grep -qF -- "$key" "$rpt" || { echo "$rpt missing section $key" >&2; status=1; }
  done
fi
rm -rf "$rdir"

echo "=== benchdiff: committed artifacts vs fresh smoke runs ==="
# The capped smokes above rerun a subset of the committed sweeps; benchdiff
# compares the intersection. Tolerance 75%: the gate is for order-of-
# magnitude regressions, and the single-vCPU containers this runs on are
# far too noisy for anything tighter.
scripts/benchdiff -t 75 BENCH_scale.json "$sdir/BENCH_scale.json" || status=1
scripts/benchdiff -t 75 BENCH_drivers.json "$ddir/BENCH_drivers.json" || status=1
# Phase costs are a few ns per message, and the smallest phases are mostly
# the clock laps themselves, so one noisy run moves them past 75%; this
# gate catches only a several-fold regression.
scripts/benchdiff -t 400 BENCH_phases.json "$ddir/BENCH_phases.json" || status=1
scripts/benchdiff -t 75 BENCH_scheduler.json "$bdir/BENCH_scheduler.json" || status=1
rm -rf "$sdir" "$ddir" "$bdir"

if [ "$status" -ne 0 ]; then
  echo "CHECK FAILED" >&2
  exit 1
fi
echo "all checks passed"
