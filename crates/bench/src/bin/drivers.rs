//! **Driver throughput**: rounds/sec of two Table 1 driver workloads,
//! writing `BENCH_drivers.json` at the repo root.
//!
//! The workloads are the two frontier-shaped extremes of the paper's
//! classical toolbox:
//!
//! * **waves** — the Figure 2 pipelined wave phase on a path, with ~32
//!   staggered sources. Between wave fronts every node is quiet, and the
//!   sources' `Sleep` votes let fast-forward jump the long silent prefix
//!   before each start round.
//! * **apsp** — the full classical exact-diameter pipeline (leader
//!   election, BFS, DFS token walk, eccentricity waves, aggregation) on a
//!   random tree. The DFS walk keeps exactly one node busy per round.
//! * **apsp_sparse** — the same pipeline on the `sparse` family
//!   (`random_sparse`, expected degree 8), the graphs the Table 1 sweeps
//!   draw. There every wave reaches each node over ≈8 edges, so most
//!   deliveries are stale waves the receiver ignores, and the run prices
//!   the per-delivery cost of the message path, where a tree prices the
//!   per-round one.
//!
//! `scripts/benchdiff` compares the `rounds_per_sec` of a fresh run with
//! the committed artifact. `QD_MAX_N` caps the sweep and `QD_RESULTS_DIR`
//! redirects the artifact (the `check.sh` smoke uses both, leaving the
//! committed sweep untouched).

use congest::Config;
use graphs::{Graph, NodeId};
use std::time::Instant;

/// One workload × n measurement.
struct Point {
    workload: &'static str,
    n: usize,
    rounds: u64,
    secs: f64,
    active_fraction: f64,
}

impl Point {
    fn rounds_per_sec(&self) -> f64 {
        self.rounds as f64 / self.secs
    }
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

/// Times the wave phase.
fn run_waves(g: &Graph, sources: &[(NodeId, u64)], duration: u64) -> Point {
    let start = Instant::now();
    let out = classical::waves::run(g, sources, duration, Config::for_graph(g)).expect("waves");
    Point {
        workload: "waves",
        n: g.len(),
        rounds: out.stats.rounds,
        secs: start.elapsed().as_secs_f64().max(1e-9),
        active_fraction: out.stats.active_fraction(),
    }
}

/// Times the classical exact-diameter pipeline as `workload`.
fn run_apsp(workload: &'static str, g: &Graph) -> Point {
    let start = Instant::now();
    let out = classical::apsp::exact_diameter(g, Config::for_graph(g)).expect("apsp");
    Point {
        workload,
        n: g.len(),
        rounds: out.ledger.total_rounds(),
        secs: start.elapsed().as_secs_f64().max(1e-9),
        active_fraction: out.ledger.active_fraction(),
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

    bench::rule("driver throughput: active-set scheduling + fast-forward");
    println!(
        "{:>8} {:>7} {:>8} {:>13} {:>9}",
        "workload", "n", "rounds", "rounds/s", "active%"
    );
    // One untimed run first, so the first timed point does not pay the
    // process's cold caches and page faults.
    let (g, sources, duration) = wave_workload(ns[0]);
    run_waves(&g, &sources, duration);
    let mut points = Vec::new();
    for &n in &ns {
        let (g, sources, duration) = wave_workload(n);
        let tree = graphs::generators::random_tree(n, 11);
        let sparse = graphs::generators::random_sparse(n, 8.0, 11);
        for p in [
            run_waves(&g, &sources, duration),
            run_apsp("apsp", &tree),
            run_apsp("apsp_sparse", &sparse),
        ] {
            println!(
                "{:>8} {:>7} {:>8} {:>13.0} {:>9.3}",
                p.workload,
                p.n,
                p.rounds,
                p.rounds_per_sec(),
                p.active_fraction
            );
            points.push(p);
        }
    }

    let payload = trace::Json::obj([
        ("experiment", trace::Json::Str("drivers".into())),
        ("max_n", trace::Json::Int(*ns.last().unwrap() as i128)),
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
                            ("secs", trace::Json::Float(p.secs)),
                            ("rounds_per_sec", trace::Json::Float(p.rounds_per_sec())),
                            ("active_fraction", trace::Json::Float(p.active_fraction)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    // Full runs publish the artifact at the repo root (like
    // BENCH_scale.json); QD_RESULTS_DIR redirects it so the check.sh smoke
    // can validate the schema without clobbering the committed sweep.
    let dir = std::env::var("QD_RESULTS_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|_| bench::repo_root());
    bench::write_results_json_in(dir, "BENCH_drivers", payload).expect("write BENCH_drivers.json");
}
