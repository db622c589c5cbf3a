//! **Substrate scale gate**: rounds/sec and bytes/node at n up to 10⁶.
//!
//! Runs a bounded-round broadcast flood (32-bit distance tokens, the
//! CONGEST `O(log n)`-bit regime) on three topology families — `path`
//! (diameter n−1, single-node frontiers), `tree` (random Prüfer tree,
//! diameter ~√n) and `random` (degree-8 sparse, diameter ~log n) — at
//! n ∈ {10⁴, 10⁵, 10⁶}, and writes `BENCH_scale.json` at the repo root.
//! The driver diffs that artifact, so the columnar-arena scheduler has a
//! standing throughput gate at the scale ROADMAP's "Million-node
//! simulator core" item targets.
//!
//! `QD_MAX_N=10000` caps the sweep and `QD_RESULTS_DIR` redirects the
//! artifact (the `scripts/check.sh` smoke uses both, leaving the
//! committed full-sweep JSON untouched).

use congest::{Network, NodeProgram, Payload, RoundCtx, Status};
use graphs::{Graph, NodeId};
use std::time::Instant;

/// A BFS-flood token carrying the sender's hop distance from the root.
#[derive(Clone, Debug)]
struct Hop(u32);

impl Payload for Hop {
    fn size_bits(&self) -> usize {
        32
    }
}

/// Broadcast flood: node 0 seeds distance 0; every node adopts the first
/// distance it hears, rebroadcasts `d + 1`, and halts. Quiesces after
/// ecc(0) + 1 rounds having delivered one message per directed edge.
///
/// Every vote is `Halted` — an unreached node has nothing to do until the
/// token arrives, and message delivery wakes it (the active-set contract).
/// Voting `Active` while waiting would keep all n nodes scheduled every
/// round and measure all n nodes instead of the frontier.
struct Flood {
    dist: Option<u32>,
}

impl NodeProgram for Flood {
    type Msg = Hop;
    type Output = Option<u32>;

    fn on_round(&mut self, ctx: &mut RoundCtx<'_, Hop>) -> Status {
        if self.dist.is_none() {
            if ctx.node() == NodeId::new(0) && ctx.round() == 0 {
                self.dist = Some(0);
                ctx.broadcast(Hop(1));
            } else if let Some(&(_, Hop(d))) = ctx.inbox().first() {
                self.dist = Some(d);
                ctx.broadcast(Hop(d + 1));
            }
        }
        Status::Halted
    }

    fn finish(self, _node: NodeId) -> Option<u32> {
        self.dist
    }
}

struct Point {
    family: &'static str,
    n: usize,
    rounds: u64,
    messages: u64,
    elapsed_secs: f64,
    rounds_per_sec: f64,
    bytes_per_node: f64,
}

fn measure(family: &'static str, g: &Graph) -> Point {
    let n = g.len();
    let cfg = bench::config_for(g);
    let mut net = Network::new(g, cfg, |_| Flood { dist: None });
    let start = Instant::now();
    let stats = net
        .run_until_quiescent(n as u64 + 16)
        .expect("flood quiesces within n + 16 rounds");
    let elapsed_secs = start.elapsed().as_secs_f64().max(1e-9);
    let outputs = net.into_outputs();
    assert!(
        outputs.iter().all(|d| d.is_some()),
        "{family} n={n}: flood failed to reach every node"
    );
    Point {
        family,
        n,
        rounds: stats.rounds,
        messages: stats.messages,
        elapsed_secs,
        rounds_per_sec: stats.rounds as f64 / elapsed_secs,
        bytes_per_node: stats.total_bits as f64 / 8.0 / n as f64,
    }
}

fn max_n() -> usize {
    std::env::var("QD_MAX_N")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1_000_000)
        .max(1)
}

fn main() {
    let max_n = max_n();
    let ns: Vec<usize> = [10_000, 100_000, 1_000_000]
        .into_iter()
        .filter(|&n| n <= max_n)
        .collect();
    assert!(!ns.is_empty(), "QD_MAX_N below the smallest sweep point");

    bench::rule("substrate scale: broadcast flood, rounds/sec and bytes/node");
    println!(
        "{:>8} {:>9} {:>9} {:>11} {:>10} {:>13} {:>11}",
        "family", "n", "rounds", "messages", "secs", "rounds/sec", "bytes/node"
    );
    let mut points = Vec::new();
    for &n in &ns {
        let seed = 11;
        for (family, g) in [
            ("path", graphs::generators::path(n)),
            ("tree", graphs::generators::random_tree(n, seed)),
            ("random", graphs::generators::random_sparse(n, 8.0, seed)),
        ] {
            let p = measure(family, &g);
            println!(
                "{:>8} {:>9} {:>9} {:>11} {:>10.3} {:>13.0} {:>11.1}",
                p.family,
                p.n,
                p.rounds,
                p.messages,
                p.elapsed_secs,
                p.rounds_per_sec,
                p.bytes_per_node
            );
            points.push(p);
        }
    }

    let payload = trace::Json::obj([
        ("experiment", trace::Json::Str("scale".into())),
        ("max_n", trace::Json::Int(*ns.last().unwrap() as i128)),
        (
            "points",
            trace::Json::Arr(
                points
                    .iter()
                    .map(|p| {
                        trace::Json::obj([
                            ("family", trace::Json::Str(p.family.into())),
                            ("n", trace::Json::Int(p.n as i128)),
                            ("rounds", trace::Json::Int(p.rounds as i128)),
                            ("messages", trace::Json::Int(p.messages as i128)),
                            ("elapsed_secs", trace::Json::Float(p.elapsed_secs)),
                            ("rounds_per_sec", trace::Json::Float(p.rounds_per_sec)),
                            ("bytes_per_node", trace::Json::Float(p.bytes_per_node)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    // Full runs publish the gate artifact at the repo root (like
    // BENCH_scheduler.json); QD_RESULTS_DIR redirects it so the check.sh
    // smoke can validate the schema without clobbering the committed sweep.
    let dir = std::env::var("QD_RESULTS_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|_| bench::repo_root());
    bench::write_results_json_in(dir, "BENCH_scale", payload).expect("write BENCH_scale.json");
}
