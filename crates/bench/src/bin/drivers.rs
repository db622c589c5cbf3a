//! **Driver throughput**: rounds/sec of the Table 1 driver workloads,
//! writing `BENCH_drivers.json` at the repo root.
//!
//! The first three are the two frontier-shaped extremes of the paper's
//! classical toolbox and APSP on the sparse family; the last is Theorem 1:
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
//! * **exact_sparse** — Theorem 1 (`diameter_quantum::exact::diameter`) on
//!   the same sparse graphs. Its rounds are the charged ones
//!   (Initialization plus the quantum phase priced by Theorem 7), and
//!   only a few hundred of them are simulated. Those simulated networks
//!   (Initialization, the schedule probes and the verified Figure 2 runs)
//!   still take most of its time: ≈90% at n = 1024, ≈70% at 4096 and
//!   ≈55% at 16384, on two cores. The rest is the eccentricity table
//!   behind `f(u) = max_{v∈S(u)} ecc(v)`, whose passes run on every core
//!   and start beside Initialization, and the DFS windows; the maximum
//!   finding takes 2% or less.
//!
//! After the timed sweep, a second pass reruns `apsp_sparse` at n = 512
//! and 8192 and `exact_sparse` at n = 1024 with a metrics registry
//! installed (the two small points five times, keeping the fastest), and
//! writes `BENCH_phases.json`: for every `congest/<phase>` profiler span
//! of `Network::step`, the nanoseconds per stepped round and per simulated
//! message. The timed pass runs with no registry, so its throughput is not
//! charged for the spans.
//!
//! `scripts/benchdiff` compares the `rounds_per_sec` of a fresh run with
//! the committed `BENCH_drivers.json`, and the per-message phase costs
//! with the committed `BENCH_phases.json`. `QD_MAX_N` caps both sweeps and
//! `QD_RESULTS_DIR` redirects both artifacts (the `check.sh` smoke uses
//! both, leaving the committed sweeps untouched).

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

/// Times Theorem 1's exact diameter. Its active fraction is that of the
/// networks it simulates (Initialization, probes and verification).
fn run_exact(g: &Graph) -> Point {
    let start = Instant::now();
    let run = diameter_quantum::exact::diameter(
        g,
        diameter_quantum::exact::ExactParams::new(1),
        Config::for_graph(g),
    )
    .expect("exact");
    let secs = start.elapsed().as_secs_f64().max(1e-9);
    let mut simulated = run.init_ledger.clone();
    simulated.extend_prefixed("", &run.probe_ledger);
    Point {
        workload: "exact_sparse",
        n: g.len(),
        rounds: run.rounds(),
        secs,
        active_fraction: simulated.active_fraction(),
    }
}

/// Registry-instrumented runs of a point at or below this n are repeated
/// and the fastest kept: one of them lasts milliseconds, and a single run
/// moves with the host by a third.
const REPEAT_BELOW: usize = 1024;

/// The `congest/<phase>` spans of a registry-instrumented run of
/// `workload` on `g`, per stepped round and per simulated message.
fn phase_point(workload: &'static str, g: &Graph) -> trace::Json {
    let step_nanos = |r: &metrics::Registry| -> u64 {
        let spans = r.spans().iter();
        spans
            .filter(|(path, _)| path.starts_with("congest/"))
            .map(|(_, s)| s.nanos)
            .sum()
    };
    let repeats = if g.len() <= REPEAT_BELOW { 5 } else { 1 };
    let registry = (0..repeats)
        .map(|_| {
            let registry = metrics::Registry::shared();
            let _meter = metrics::install(registry.clone());
            match workload {
                "exact_sparse" => run_exact(g),
                _ => run_apsp(workload, g),
            };
            registry
        })
        .min_by_key(|r| step_nanos(&r.borrow()))
        .expect("at least one run");
    let registry = registry.borrow();
    let messages = registry.counter(metrics::names::MESSAGES);
    let spans: Vec<(&str, metrics::SpanStats)> = registry
        .spans()
        .iter()
        .filter_map(|(path, &stats)| Some((path.strip_prefix("congest/")?, stats)))
        .collect();
    // Every stepped round records each phase once (a failed validation
    // stops before the commit, and these runs have none).
    let rounds = spans.iter().map(|(_, s)| s.calls).max().unwrap_or(0);
    let per = |nanos: u64, count: u64| nanos as f64 / count.max(1) as f64;
    println!(
        "{:>12} {:>7} {:>8} {:>9}",
        workload,
        g.len(),
        rounds,
        messages
    );
    let phases = spans
        .iter()
        .map(|&(phase, stats)| {
            let (round, msg) = (per(stats.nanos, rounds), per(stats.nanos, messages));
            println!(
                "{:>30} {:>10} {:>11.0} {:>9.2}",
                phase, stats.nanos, round, msg
            );
            trace::Json::obj([
                ("phase", trace::Json::Str(phase.into())),
                ("nanos", trace::Json::Int(i128::from(stats.nanos))),
                ("ns_per_round", trace::Json::Float(round)),
                ("ns_per_msg", trace::Json::Float(msg)),
            ])
        })
        .collect();
    trace::Json::obj([
        ("workload", trace::Json::Str(workload.into())),
        ("n", trace::Json::Int(g.len() as i128)),
        ("rounds", trace::Json::Int(i128::from(rounds))),
        ("messages", trace::Json::Int(i128::from(messages))),
        ("phases", trace::Json::Arr(phases)),
    ])
}

/// The registry-instrumented pass behind `BENCH_phases.json`.
fn phases_pass(max_n: usize) {
    bench::rule("step phases: congest/<phase> spans per round and per message");
    println!(
        "{:>12} {:>7} {:>8} {:>9}\n{:>30} {:>10} {:>11} {:>9}",
        "workload", "n", "rounds", "messages", "phase", "ns", "ns/round", "ns/msg"
    );
    let runs: Vec<(&str, usize)> = [
        ("apsp_sparse", 512),
        ("exact_sparse", 1024),
        ("apsp_sparse", 8192),
    ]
    .into_iter()
    .filter(|&(_, n)| n <= max_n)
    .collect();
    let Some(largest) = runs.iter().map(|&(_, n)| n).max() else {
        return;
    };
    let points = runs
        .into_iter()
        .map(|(workload, n)| phase_point(workload, &graphs::generators::random_sparse(n, 8.0, 11)))
        .collect();
    let payload = trace::Json::obj([
        ("experiment", trace::Json::Str("phases".into())),
        ("max_n", trace::Json::Int(largest as i128)),
        ("points", trace::Json::Arr(points)),
    ]);
    bench::write_bench_json("BENCH_phases", payload).expect("write BENCH_phases.json");
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
        "{:>12} {:>7} {:>8} {:>13} {:>9}",
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
            run_exact(&sparse),
        ] {
            println!(
                "{:>12} {:>7} {:>8} {:>13.0} {:>9.3}",
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
    bench::write_bench_json("BENCH_drivers", payload).expect("write BENCH_drivers.json");
    phases_pass(max_n);
}
