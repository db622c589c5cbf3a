//! **Fault matrix: detection latency and recovery cost.** How many rounds
//! pass between the first injected fault and the driver raising
//! `FaultDetected` — and, once self-healing is switched on, what does it
//! cost to *recover* instead of merely detect?
//!
//! The fault layer (see `congest::faults`) injects deterministically from
//! the plan seed; drivers detect degradation through protocol invariants
//! (an underfed wave node, a lost DFS token, a blown round cap). The
//! detection half sweeps fault rates over two detection-style extremes:
//!
//! * `dfs_walk` — a single token carries the whole protocol, so any hit is
//!   fatal, but the loss is only *noticed* once the network goes quiescent:
//!   detection latency is the tail of the schedule after the hit.
//! * `bfs` — redundant flooding absorbs most drops; the runs that do
//!   degrade are caught by the explicit parent/child echo validation.
//!
//! The recovery half reruns the same fault shapes through the full
//! classical APSP pipeline wrapped in
//! `classical::recovery::exact_diameter_recovering` under the standard
//! [`congest::RecoveryPolicy`]: faulted runs that would have surfaced
//! `FaultDetected` are healed by reseeded retries, checkpoint restarts,
//! and (for crash-stops) partial-network re-rooting. Each recovery cell
//! reports how many faulted runs were healed to the *correct* answer and
//! what the healing cost beyond a clean run: retries, wasted rounds, and
//! wasted wire bits.
//!
//! Latency is measured from the trace stream: the injection round is the
//! first `Fault` event the scheduler emits, the detection round is carried
//! by [`classical::AlgoError::FaultDetected`]. Results go to
//! `fault_matrix.json` under `QD_RESULTS_DIR` (default `results/`).

use classical::apsp::ExactDiameterOutcome;
use classical::recovery::{carve_survivors, exact_diameter_recovering, Recovered};
use classical::AlgoError;
use congest::{Config, FaultPlan, RecoveryPolicy};
use graphs::{Graph, NodeId};
use trace::{Json, TraceEvent};

/// Aggregated outcomes of one (driver, fault-plan shape) cell.
#[derive(Default)]
struct Cell {
    runs: u64,
    /// Runs in which the scheduler injected at least one fault.
    faulted: u64,
    /// Faulted runs the driver flagged via `FaultDetected`.
    detected: u64,
    /// Faulted runs that still produced a (correct-looking) result — the
    /// protocol absorbed the hit.
    absorbed: u64,
    latencies: Vec<f64>,
}

impl Cell {
    fn record(&mut self, injected: Option<u64>, outcome: Result<(), AlgoError>) {
        self.runs += 1;
        let Some(inject) = injected else {
            assert!(
                outcome.is_ok(),
                "fault-free run failed: {:?}",
                outcome.err()
            );
            return;
        };
        self.faulted += 1;
        match outcome {
            Ok(()) => self.absorbed += 1,
            Err(AlgoError::FaultDetected { round, .. }) => {
                self.detected += 1;
                self.latencies.push(round.saturating_sub(inject) as f64);
            }
            Err(e) => panic!("driver raised a non-fault error under faults: {e}"),
        }
    }

    fn json(&self, driver: &str, plan: &str) -> Json {
        let mean = if self.latencies.is_empty() {
            Json::Null
        } else {
            Json::Float(bench::mean(&self.latencies))
        };
        let max = self.latencies.iter().cloned().fold(f64::NAN, f64::max);
        Json::obj([
            ("driver", Json::Str(driver.into())),
            ("plan", Json::Str(plan.into())),
            ("runs", Json::Int(i128::from(self.runs))),
            ("faulted", Json::Int(i128::from(self.faulted))),
            ("detected", Json::Int(i128::from(self.detected))),
            ("absorbed", Json::Int(i128::from(self.absorbed))),
            ("mean_latency_rounds", mean),
            (
                "max_latency_rounds",
                if max.is_nan() {
                    Json::Null
                } else {
                    Json::Float(max)
                },
            ),
        ])
    }

    fn print(&self, driver: &str, plan: &str) {
        let mean = if self.latencies.is_empty() {
            "-".to_string()
        } else {
            format!("{:.1}", bench::mean(&self.latencies))
        };
        let max = self.latencies.iter().cloned().fold(f64::NAN, f64::max);
        let max = if max.is_nan() {
            "-".to_string()
        } else {
            format!("{max:.0}")
        };
        println!(
            "{driver:>10} {plan:>24} {:>5} {:>8} {:>9} {:>9} {mean:>14} {max:>12}",
            self.runs, self.faulted, self.detected, self.absorbed
        );
    }
}

/// Aggregated outcomes of one self-healing (driver, fault-plan shape) cell.
#[derive(Default)]
struct RecoveryCell {
    runs: u64,
    /// Runs in which the scheduler injected at least one fault.
    faulted: u64,
    /// Faulted runs healed to the correct answer (for crash-stops: the
    /// surviving component's diameter).
    recovered: u64,
    /// Healed runs that answered via partial-network semantics.
    partial: u64,
    /// Healed runs whose answer did not match the reference — the
    /// guarantee-class residue documented in `classical::recovery`.
    unsound: u64,
    /// Faulted runs recovery could not heal (the typed error surfaced).
    failed: u64,
    /// Bounded re-executions per healed faulted run.
    retries: Vec<f64>,
    /// Wasted rounds per healed faulted run (rounds spent on attempts
    /// that were thrown away — the recovery cost beyond a clean run).
    recovery_rounds: Vec<f64>,
    /// Wire bits moved by discarded attempts, summed over the cell.
    wasted_wire_bits: u64,
}

impl RecoveryCell {
    fn record(
        &mut self,
        faulted: bool,
        outcome: &Result<Recovered<ExactDiameterOutcome>, AlgoError>,
        reference: u32,
    ) {
        self.runs += 1;
        match outcome {
            Ok(healed) => {
                self.wasted_wire_bits += healed.recovery.wasted_bits;
                if !faulted {
                    assert_eq!(
                        healed.run.diameter, reference,
                        "fault-free recovering run answered wrong"
                    );
                    return;
                }
                self.faulted += 1;
                if healed.surviving.is_some() {
                    self.partial += 1;
                }
                if healed.run.diameter == reference {
                    self.recovered += 1;
                } else {
                    self.unsound += 1;
                }
                self.retries.push(healed.recovery.retries as f64);
                self.recovery_rounds
                    .push(healed.recovery.wasted_rounds as f64);
            }
            Err(AlgoError::FaultDetected { .. }) => {
                assert!(faulted, "fault-free recovering run raised FaultDetected");
                self.faulted += 1;
                self.failed += 1;
            }
            Err(e) => panic!("recovering driver raised a non-fault error: {e}"),
        }
    }

    fn json(&self, driver: &str, plan: &str, policy: &RecoveryPolicy) -> Json {
        let stat = |xs: &[f64]| {
            if xs.is_empty() {
                Json::Null
            } else {
                Json::Float(bench::mean(xs))
            }
        };
        Json::obj([
            ("driver", Json::Str(driver.into())),
            ("plan", Json::Str(plan.into())),
            ("policy", Json::Str(policy.to_string())),
            ("runs", Json::Int(i128::from(self.runs))),
            ("faulted", Json::Int(i128::from(self.faulted))),
            ("recovered", Json::Int(i128::from(self.recovered))),
            ("partial", Json::Int(i128::from(self.partial))),
            ("unsound", Json::Int(i128::from(self.unsound))),
            ("failed", Json::Int(i128::from(self.failed))),
            ("mean_retries", stat(&self.retries)),
            ("mean_recovery_rounds", stat(&self.recovery_rounds)),
            (
                "wasted_wire_bits",
                Json::Int(i128::from(self.wasted_wire_bits)),
            ),
        ])
    }

    fn print(&self, driver: &str, plan: &str) {
        let stat = |xs: &[f64]| {
            if xs.is_empty() {
                "-".to_string()
            } else {
                format!("{:.1}", bench::mean(xs))
            }
        };
        println!(
            "{driver:>12} {plan:>24} {:>5} {:>8} {:>9} {:>7} {:>7} {:>6} {:>8} {:>10} {:>11}",
            self.runs,
            self.faulted,
            self.recovered,
            self.partial,
            self.unsound,
            self.failed,
            stat(&self.retries),
            stat(&self.recovery_rounds),
            self.wasted_wire_bits,
        );
    }
}

/// Runs `body` with a fresh recorder installed; returns the first injected
/// fault's round (if any) and the driver outcome.
fn observed<T>(body: impl FnOnce() -> Result<T, AlgoError>) -> (Option<u64>, Result<T, AlgoError>) {
    let recorder = trace::Recorder::shared();
    let outcome = {
        let _guard = trace::install(recorder.clone());
        body()
    };
    let injected = recorder.borrow().events().iter().find_map(|e| match e {
        TraceEvent::Fault { round, .. } => Some(*round),
        _ => None,
    });
    (injected, outcome)
}

fn faulted_config(g: &Graph, plan: FaultPlan) -> Config {
    Config::for_graph(g).with_faults(plan)
}

fn main() {
    let scale = bench::scale();
    let n = 96;
    let seeds = 12 * scale as u64;

    bench::rule("Fault matrix: rounds from injection to FaultDetected");
    println!(
        "{:>10} {:>24} {:>5} {:>8} {:>9} {:>9} {:>14} {:>12}",
        "driver", "plan", "runs", "faulted", "detected", "absorbed", "mean latency", "max latency"
    );

    let mut cells: Vec<(String, String, Cell)> = Vec::new();

    // DFS token walk under message loss: every delivered-token drop is
    // fatal and detection waits for quiescence.
    for &drop in &[0.002f64, 0.01, 0.05] {
        let mut cell = Cell::default();
        for seed in 0..seeds {
            let g = graphs::generators::random_sparse(n, 5.0, seed);
            let clean = Config::for_graph(&g);
            let tree = classical::TreeView::from(
                &classical::bfs::build(&g, NodeId::new(0), clean).expect("clean bfs"),
            );
            let steps = 2 * (g.len() as u64 - 1);
            let cfg = faulted_config(&g, FaultPlan::new(seed ^ 0xD1F5).with_drop(drop));
            let (injected, outcome) = observed(|| {
                classical::dfs_walk::walk(&g, &tree, tree.root(), steps, cfg).map(|_| ())
            });
            cell.record(injected, outcome);
        }
        cells.push(("dfs_walk".into(), format!("drop={drop}"), cell));
    }

    // BFS under message loss (redundant flooding: most runs absorb it) and
    // under a mid-build crash-stop (echo validation catches the hole).
    for &drop in &[0.01f64, 0.05] {
        let mut cell = Cell::default();
        for seed in 0..seeds {
            let g = graphs::generators::random_sparse(n, 5.0, seed);
            let cfg = faulted_config(&g, FaultPlan::new(seed ^ 0xBF5).with_drop(drop));
            let (injected, outcome) =
                observed(|| classical::bfs::build(&g, NodeId::new(0), cfg).map(|_| ()));
            cell.record(injected, outcome);
        }
        cells.push(("bfs".into(), format!("drop={drop}"), cell));
    }
    {
        let mut cell = Cell::default();
        for seed in 0..seeds {
            let g = graphs::generators::random_sparse(n, 5.0, seed);
            let crash_at = 1 + seed % 4;
            let cfg = faulted_config(&g, FaultPlan::new(seed).with_crash(n / 2, crash_at));
            let (injected, outcome) =
                observed(|| classical::bfs::build(&g, NodeId::new(0), cfg).map(|_| ()));
            cell.record(injected, outcome);
        }
        cells.push(("bfs".into(), format!("crash node {}", n / 2), cell));
    }

    let mut rows = Vec::new();
    for (driver, plan, cell) in &cells {
        cell.print(driver, plan);
        rows.push(cell.json(driver, plan));
    }

    println!("\nlatency counts rounds between the scheduler's first Fault trace event");
    println!("and the round carried by the driver's FaultDetected error; absorbed runs");
    println!("finished despite injection (flooding redundancy), so they have no latency.");

    // Recovery cost: the same fault shapes, but the full APSP pipeline
    // healed under the standard policy instead of surfacing the error.
    // Smaller instances: every faulted run re-executes up to 1 + retries
    // times.
    let n_rec = 48;
    let policy = RecoveryPolicy::standard();
    bench::rule("Fault matrix: recovery cost under the standard policy");
    println!(
        "{:>12} {:>24} {:>5} {:>8} {:>9} {:>7} {:>7} {:>6} {:>8} {:>10} {:>11}",
        "driver",
        "plan",
        "runs",
        "faulted",
        "recovered",
        "partial",
        "unsound",
        "failed",
        "retries",
        "rec rounds",
        "wasted bits"
    );

    let mut recovery_cells: Vec<(String, String, RecoveryCell)> = Vec::new();
    let drop_plans: [(&str, f64); 2] = [("drop=0.002", 0.002), ("drop=0.005", 0.005)];
    for (plan_name, drop) in drop_plans {
        let mut cell = RecoveryCell::default();
        for seed in 0..seeds {
            let g = graphs::generators::random_sparse(n_rec, 5.0, seed);
            let reference = graphs::metrics::diameter(&g).expect("connected");
            let cfg = faulted_config(&g, FaultPlan::new(seed ^ 0x2EC).with_drop(drop))
                .with_recovery(policy);
            let (injected, outcome) = observed(|| exact_diameter_recovering(&g, cfg));
            cell.record(injected.is_some(), &outcome, reference);
        }
        recovery_cells.push(("apsp+recover".into(), plan_name.into(), cell));
    }
    {
        let mut cell = RecoveryCell::default();
        for seed in 0..seeds {
            let g = graphs::generators::random_sparse(n_rec, 5.0, seed);
            let crash_at = 1 + seed % 4;
            let plan = FaultPlan::new(seed).with_crash(n_rec / 2, crash_at);
            // The reference for a crash-stop is the surviving component's
            // diameter — exactly what partial-network semantics promise.
            let reference = graphs::metrics::diameter(
                &carve_survivors(&g, &plan).expect("survivors remain").graph,
            )
            .expect("surviving component is connected");
            let cfg = faulted_config(&g, plan).with_recovery(policy);
            let (injected, outcome) = observed(|| exact_diameter_recovering(&g, cfg));
            cell.record(injected.is_some(), &outcome, reference);
        }
        recovery_cells.push((
            "apsp+recover".into(),
            format!("crash node {}", n_rec / 2),
            cell,
        ));
    }

    let mut recovery_rows = Vec::new();
    for (driver, plan, cell) in &recovery_cells {
        cell.print(driver, plan);
        recovery_rows.push(cell.json(driver, plan, &policy));
    }

    println!("\nrecovered counts faulted runs healed to the reference answer (for");
    println!("crash-stops: the surviving component's diameter); retries / rec rounds /");
    println!("wasted bits are the healing cost beyond a clean run.");

    let payload = Json::obj([
        ("experiment", Json::Str("fault_matrix".into())),
        ("nodes", Json::Int(n as i128)),
        ("recovery_nodes", Json::Int(n_rec as i128)),
        ("recovery_policy", Json::Str(policy.to_string())),
        ("seeds_per_cell", Json::Int(i128::from(seeds))),
        ("cells", Json::Arr(rows)),
        ("recovery_cells", Json::Arr(recovery_rows)),
    ]);
    bench::write_results_json("fault_matrix", payload).expect("write fault_matrix.json");
}
