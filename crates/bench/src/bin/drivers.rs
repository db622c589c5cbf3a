//! **Driver throughput gate**: forced-`Dense` vs `ActiveSet` +
//! fast-forward on two Table 1 driver workloads, writing
//! `BENCH_drivers.json` at the repo root.
//!
//! The workloads are the two frontier-shaped extremes of the paper's
//! classical toolbox:
//!
//! * **waves** — the Figure 2 pipelined wave phase on a path, with ~32
//!   staggered sources. Between wave fronts every node is quiet, and the
//!   sources' `quiet_until` declarations let fast-forward jump the long
//!   silent prefix before each start round.
//! * **apsp** — the full classical exact-diameter pipeline (leader
//!   election, BFS, DFS token walk, eccentricity waves, aggregation) on a
//!   random tree. The DFS walk keeps exactly one node busy per round, the
//!   worst case for dense scheduling.
//!
//! Both modes must produce byte-identical outputs and protocol stats (the
//! bin asserts it); only the wall clock may differ. `scripts/check.sh`
//! gates on the committed artifact: waves at the largest swept `n` must
//! run ≥ 2× faster under `ActiveSet` + fast-forward, and no workload may
//! be more than 5% slower than its dense twin.
//!
//! `QD_MAX_N` caps the sweep and `QD_RESULTS_DIR` redirects the artifact
//! (the `check.sh` smoke uses both, leaving the committed sweep
//! untouched).

use congest::{Config, Scheduling};
use graphs::{Graph, NodeId};
use std::time::Instant;

/// One workload × n measurement: the dense reference timing, the
/// active-set timing, and the active-set run's scheduling telemetry.
struct Point {
    workload: &'static str,
    n: usize,
    rounds: u64,
    dense_secs: f64,
    active_secs: f64,
    dense_rounds_per_sec: f64,
    active_rounds_per_sec: f64,
    speedup: f64,
    active_fraction: f64,
}

/// The Figure 2 wave workload: a path with ~32 evenly spaced sources.
/// `τ'(u) = u` is the DFS first-visit time of the path rooted at node 0,
/// so any subset of `{(u, u)}` satisfies the Lemma 2 schedule (waves
/// never collide). The last wave starts at round `2(n−1)` and needs at
/// most `n−1` rounds to cross, so `3n + 4` rounds cover full propagation.
fn wave_workload(n: usize) -> (Graph, Vec<(NodeId, u64)>, u64) {
    let g = graphs::generators::path(n);
    let step = (n / 32).max(1);
    let sources: Vec<(NodeId, u64)> = (0..n)
        .step_by(step)
        .map(|u| (NodeId::new(u), u as u64))
        .collect();
    (g, sources, 3 * n as u64 + 4)
}

fn config(g: &Graph, scheduling: Scheduling) -> Config {
    Config::for_graph(g).with_scheduling(scheduling)
}

/// Runs the wave phase under `scheduling`, returning a comparison key
/// covering outputs and protocol stats, plus the telemetry the gate needs.
fn run_waves(
    g: &Graph,
    sources: &[(NodeId, u64)],
    duration: u64,
    scheduling: Scheduling,
) -> (String, u64, f64, f64) {
    let start = Instant::now();
    let out = classical::waves::run(g, sources, duration, config(g, scheduling)).expect("waves");
    let secs = start.elapsed().as_secs_f64().max(1e-9);
    let key = format!(
        "{:?}|{:?}|{}|{}|{}",
        out.max_dist, out.processed, out.stats.rounds, out.stats.messages, out.stats.total_bits
    );
    (key, out.stats.rounds, out.stats.active_fraction(), secs)
}

/// Runs the classical exact-diameter pipeline under `scheduling`.
fn run_apsp(g: &Graph, scheduling: Scheduling) -> (String, u64, f64, f64) {
    let start = Instant::now();
    let out = classical::apsp::exact_diameter(g, config(g, scheduling)).expect("apsp");
    let secs = start.elapsed().as_secs_f64().max(1e-9);
    let key = format!(
        "{}|{:?}|{}|{}|{}",
        out.diameter,
        out.eccentricities,
        out.ledger.total_rounds(),
        out.ledger.total_messages(),
        out.ledger.total_bits()
    );
    (
        key,
        out.ledger.total_rounds(),
        out.ledger.active_fraction(),
        secs,
    )
}

/// Measures one workload in both modes and asserts output identity.
fn measure(
    workload: &'static str,
    n: usize,
    run: impl Fn(Scheduling) -> (String, u64, f64, f64),
) -> Point {
    let (dense_key, dense_rounds, _, dense_secs) = run(Scheduling::Dense);
    let (active_key, active_rounds, active_fraction, active_secs) = run(Scheduling::ActiveSet);
    assert_eq!(
        dense_key, active_key,
        "{workload} n={n}: active-set output diverged from the dense reference"
    );
    assert_eq!(dense_rounds, active_rounds);
    Point {
        workload,
        n,
        rounds: dense_rounds,
        dense_secs,
        active_secs,
        dense_rounds_per_sec: dense_rounds as f64 / dense_secs,
        active_rounds_per_sec: active_rounds as f64 / active_secs,
        speedup: dense_secs / active_secs,
        active_fraction,
    }
}

fn max_n() -> usize {
    std::env::var("QD_MAX_N")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(16_384)
        .max(1)
}

fn main() {
    let max_n = max_n();
    let ns: Vec<usize> = [1024, 4096, 16_384]
        .into_iter()
        .filter(|&n| n <= max_n)
        .collect();
    assert!(!ns.is_empty(), "QD_MAX_N below the smallest sweep point");

    bench::rule("driver throughput: forced Dense vs ActiveSet + fast-forward");
    println!(
        "{:>8} {:>7} {:>8} {:>13} {:>14} {:>8} {:>9}",
        "workload", "n", "rounds", "dense r/s", "active r/s", "speedup", "active%"
    );
    let mut points = Vec::new();
    for &n in &ns {
        let (g, sources, duration) = wave_workload(n);
        let waves = measure("waves", n, |s| run_waves(&g, &sources, duration, s));
        let tree = graphs::generators::random_tree(n, 11);
        let apsp = measure("apsp", n, |s| run_apsp(&tree, s));
        for p in [waves, apsp] {
            println!(
                "{:>8} {:>7} {:>8} {:>13.0} {:>14.0} {:>8.2} {:>9.3}",
                p.workload,
                p.n,
                p.rounds,
                p.dense_rounds_per_sec,
                p.active_rounds_per_sec,
                p.speedup,
                p.active_fraction
            );
            points.push(p);
        }
    }

    let top_n = *ns.last().unwrap();
    let waves_speedup_at_max_n = points
        .iter()
        .find(|p| p.workload == "waves" && p.n == top_n)
        .map(|p| p.speedup)
        .expect("waves point at the largest swept n");
    println!("\nwaves speedup at n = {top_n}: {waves_speedup_at_max_n:.2}× (gate: ≥ 2×)");

    let payload = trace::Json::obj([
        ("experiment", trace::Json::Str("drivers".into())),
        ("max_n", trace::Json::Int(top_n as i128)),
        (
            "points",
            trace::Json::Arr(
                points
                    .iter()
                    .map(|p| {
                        trace::Json::obj([
                            ("workload", trace::Json::Str(p.workload.into())),
                            ("n", trace::Json::Int(p.n as i128)),
                            ("rounds", trace::Json::Int(p.rounds as i128)),
                            ("dense_secs", trace::Json::Float(p.dense_secs)),
                            ("active_secs", trace::Json::Float(p.active_secs)),
                            (
                                "dense_rounds_per_sec",
                                trace::Json::Float(p.dense_rounds_per_sec),
                            ),
                            (
                                "active_rounds_per_sec",
                                trace::Json::Float(p.active_rounds_per_sec),
                            ),
                            ("speedup", trace::Json::Float(p.speedup)),
                            ("active_fraction", trace::Json::Float(p.active_fraction)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "waves_speedup_at_max_n",
            trace::Json::Float(waves_speedup_at_max_n),
        ),
    ]);
    // Full runs publish the gate artifact at the repo root (like
    // BENCH_scale.json); QD_RESULTS_DIR redirects it so the check.sh smoke
    // can validate the schema without clobbering the committed sweep.
    let dir = std::env::var("QD_RESULTS_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|_| bench::repo_root());
    bench::write_results_json_in(dir, "BENCH_drivers", payload).expect("write BENCH_drivers.json");
}
