//! The classical `3/2`-approximation of the diameter
//! (Holzer–Peleg–Roditty–Wattenhofer, DISC 2014) in `Õ(√n + D)` rounds —
//! the classical column of **Table 1, row 3**, and the *preparation phase*
//! (steps 1–3) of the paper's **Figure 3**.
//!
//! Algorithm (Figure 3, with the classical final phase):
//!
//! 1. every vertex joins `S` with probability `(log n)/s`; abort if more
//!    than `n(log n)²/s` vertices join;
//! 2. every vertex `v` computes `d(v, S)` (multi-source BFS) and the network
//!    selects `w = argmax_v d(v, S)`;
//! 3. a BFS tree is grown from `w` and the `s` closest nodes to `w` join
//!    `R` (selected by a distance threshold plus an id cutoff, found with
//!    `O(log n)` counting convergecasts);
//! 4. the eccentricity of every node in `R` is computed with pipelined
//!    waves over a DFS tour of the `R`-subtree (`O(s + D)` rounds), and the
//!    maximum is the estimate `D̂`.
//!
//! With `s = Θ(√(n log n))` the total is `Õ(√n + D)` rounds, and w.h.p.
//! `⌊2D/3⌋ ≤ D̂ ≤ D`. The quantum algorithm of the paper's Theorem 4 reuses
//! steps 1–3 verbatim ([`prepare`]) and replaces step 4 with quantum
//! optimization over `R`.
//!
//! One deviation from the figure: the leader always joins `S`, so `S` is
//! never empty even at small `n` (this can only improve the estimate and
//! does not affect the w.h.p. analysis).

use congest::{bits, Config, Network, NodeProgram, Payload, RoundCtx, RoundsLedger, Status};
use graphs::{Dist, Graph, NodeId};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::aggregate::{self, Op};
use crate::bfs;
use crate::dfs_walk;
use crate::error::AlgoError;
use crate::leader;
use crate::tree_view::TreeView;
use crate::waves;

/// Parameters of the HPRW approximation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HprwParams {
    /// The cluster size `s` of Figure 3 (clamped to `[1, n]`).
    pub s: usize,
    /// Seed for the per-node sampling coins.
    pub seed: u64,
    /// Multiplier on `ln n` in the sampling probability `(ln n)/s`.
    pub sample_factor: f64,
}

impl HprwParams {
    /// Parameters with the paper's classical choice `s = ⌈√(n ln n)⌉`.
    pub fn classical(n: usize, seed: u64) -> Self {
        let nf = (n.max(2)) as f64;
        HprwParams {
            s: (nf * nf.ln()).sqrt().ceil() as usize,
            seed,
            sample_factor: 1.0,
        }
    }

    /// Parameters with an explicit cluster size `s`.
    pub fn with_s(s: usize, seed: u64) -> Self {
        HprwParams {
            s,
            seed,
            sample_factor: 1.0,
        }
    }
}

/// Multi-source BFS message: the sender's distance-plus-one from the set.
#[derive(Clone, Debug)]
struct MsMsg {
    dist: Dist,
    /// Wire width of a distance in this network.
    dist_bits: u8,
}

impl Payload for MsMsg {
    fn size_bits(&self) -> usize {
        usize::from(self.dist_bits)
    }
}

struct MsBfs {
    is_source: bool,
    dist: Option<Dist>,
}

impl NodeProgram for MsBfs {
    type Msg = MsMsg;
    type Output = Option<Dist>;

    fn on_round(&mut self, ctx: &mut RoundCtx<'_, MsMsg>) -> Status {
        if ctx.round() == 0 && self.is_source {
            self.dist = Some(0);
            ctx.broadcast(MsMsg {
                dist: 1,
                dist_bits: bits::for_dist(ctx.num_nodes()) as u8,
            });
        } else if self.dist.is_none() {
            if let Some(d) = ctx.inbox().iter().map(|(_, m)| m.dist).min() {
                self.dist = Some(d);
                ctx.broadcast(MsMsg {
                    dist: d + 1,
                    dist_bits: bits::for_dist(ctx.num_nodes()) as u8,
                });
            }
        }
        // Multi-source BFS relaying is message-driven after the round-0
        // source broadcasts (initial `Active` status).
        Status::Halted
    }

    fn finish(self, _node: NodeId) -> Option<Dist> {
        self.dist
    }
}

/// Outcome of the preparation phase (Figure 3 steps 1–3).
#[derive(Clone, Debug)]
pub struct Preparation {
    /// The elected leader.
    pub leader: NodeId,
    /// `BFS(leader)` tree (used for network-wide aggregation).
    pub leader_tree: TreeView,
    /// `ecc(leader)` — the quantity `d` with `d ≤ D ≤ 2d`.
    pub leader_depth: Dist,
    /// The sampled set `S`.
    pub sample: Vec<NodeId>,
    /// The far node `w = argmax_v d(v, S)`.
    pub w: NodeId,
    /// `BFS(w)` tree.
    pub w_tree: TreeView,
    /// Per-node distances from `w`.
    pub w_dists: Vec<Dist>,
    /// `ecc(w)`.
    pub w_depth: Dist,
    /// The `s` closest nodes to `w` (the set `R`), sorted by id.
    pub r_set: Vec<NodeId>,
    /// Per-node membership in `R`.
    pub r_member: Vec<bool>,
    /// Per-phase accounting so far.
    pub ledger: RoundsLedger,
}

/// Runs Figure 3 steps 1–3 in `Õ(n/s + D)` rounds.
///
/// # Errors
///
/// [`AlgoError::Aborted`] if the sample-size guard fires,
/// [`AlgoError::Disconnected`] on disconnected graphs, or a wrapped
/// simulator error.
pub fn prepare(
    graph: &Graph,
    params: HprwParams,
    config: Config,
) -> Result<Preparation, AlgoError> {
    let n = graph.len();
    if n == 0 {
        return Err(AlgoError::InvalidParameter {
            reason: "empty graph".into(),
        });
    }
    let s = params.s.clamp(1, n);
    let mut ledger = RoundsLedger::new();

    // Phase 0: leader + BFS(leader).
    let elect = leader::elect(graph, config)?;
    ledger.add("leader election", elect.stats);
    let bl = bfs::build(graph, elect.leader, config)?;
    ledger.add("bfs(leader)", bl.stats);
    let leader_tree = TreeView::from(&bl);
    let dist_bits = bits::for_dist(n);
    let count_bits = bits::for_value(n as u64);

    // Step 1: sampling (each node flips a local coin; computed here with a
    // per-node derived RNG, which is equivalent) + size guard.
    let p = (params.sample_factor * (n.max(2) as f64).ln() / s as f64).clamp(0.0, 1.0);
    let mut rng = StdRng::seed_from_u64(params.seed);
    let mut in_sample: Vec<bool> = (0..n).map(|_| rng.random_bool(p)).collect();
    in_sample[elect.leader.index()] = true;
    let sample_values: Vec<u64> = in_sample.iter().map(|&b| u64::from(b)).collect();
    let count = aggregate::convergecast(
        graph,
        &leader_tree,
        &sample_values,
        count_bits,
        Op::Sum,
        config,
    )?;
    ledger.add("sample count", count.stats);
    // The figure's guard: abort if more than n(log n)²/s vertices joined.
    let guard = (n as f64 * (n.max(2) as f64).ln().powi(2) / s as f64).ceil() as u64;
    if count.value > guard.max(4) {
        return Err(AlgoError::Aborted {
            reason: format!("sample size {} exceeds guard {}", count.value, guard),
        });
    }
    let sample: Vec<NodeId> = (0..n).filter(|&i| in_sample[i]).map(NodeId::new).collect();

    // Step 2: d(v, S) by multi-source BFS, then select w = argmax.
    let mut net = Network::new(graph, config, |v| MsBfs {
        is_source: in_sample[v.index()],
        dist: None,
    });
    let ms_stats = net.run_until_quiescent(2 * n as u64 + 16)?;
    ledger.add("multi-source bfs", ms_stats);
    let dist_s: Vec<Dist> = net
        .into_outputs()
        .into_iter()
        .collect::<Option<Vec<_>>>()
        .ok_or(AlgoError::Disconnected)?;
    let values: Vec<u64> = dist_s.iter().map(|&d| d as u64).collect();
    let far = aggregate::convergecast(graph, &leader_tree, &values, dist_bits, Op::Max, config)?;
    ledger.add("argmax d(v, S)", far.stats);
    let w = far.witness;
    let bc = aggregate::broadcast(
        graph,
        &leader_tree,
        u32::from(w) as u64,
        bits::for_node(n),
        config,
    )?;
    ledger.add("broadcast w", bc.stats);

    // Step 3: BFS(w) and the s closest nodes.
    let bw = bfs::build(graph, w, config)?;
    ledger.add("bfs(w)", bw.stats);
    let w_tree = TreeView::from(&bw);
    let w_dists = bw.dists.clone();

    // Distance threshold: smallest ρ with |{v : d(v,w) ≤ ρ}| ≥ s.
    let count_within = |rho: Dist, ledger: &mut RoundsLedger| -> Result<u64, AlgoError> {
        let values: Vec<u64> = w_dists.iter().map(|&d| u64::from(d <= rho)).collect();
        let out = aggregate::convergecast(graph, &w_tree, &values, count_bits, Op::Sum, config)?;
        ledger.add(format!("count d<={rho}"), out.stats);
        Ok(out.value)
    };
    let (mut lo, mut hi) = (0 as Dist, bw.depth);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if count_within(mid, &mut ledger)? >= s as u64 {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    let rho = lo;
    let below = if rho == 0 {
        0
    } else {
        count_within(rho - 1, &mut ledger)?
    };
    let needed_at_rho = s as u64 - below;

    // Id cutoff within the distance-ρ shell: smallest id cut with
    // |{v : d = ρ, id ≤ cut}| ≥ needed_at_rho.
    let count_shell = |cut: u32, ledger: &mut RoundsLedger| -> Result<u64, AlgoError> {
        let values: Vec<u64> = w_dists
            .iter()
            .enumerate()
            .map(|(i, &d)| u64::from(d == rho && (i as u32) <= cut))
            .collect();
        let out = aggregate::convergecast(graph, &w_tree, &values, count_bits, Op::Sum, config)?;
        ledger.add(format!("count shell id<={cut}"), out.stats);
        Ok(out.value)
    };
    let (mut lo_id, mut hi_id) = (0u32, n as u32 - 1);
    while lo_id < hi_id {
        let mid = lo_id + (hi_id - lo_id) / 2;
        if count_shell(mid, &mut ledger)? >= needed_at_rho {
            hi_id = mid;
        } else {
            lo_id = mid + 1;
        }
    }
    let cut = lo_id;

    let r_member: Vec<bool> = w_dists
        .iter()
        .enumerate()
        .map(|(i, &d)| d < rho || (d == rho && (i as u32) <= cut))
        .collect();
    let r_set: Vec<NodeId> = (0..n).filter(|&i| r_member[i]).map(NodeId::new).collect();
    debug_assert_eq!(r_set.len(), s, "R selection must produce exactly s nodes");

    Ok(Preparation {
        leader: elect.leader,
        leader_tree,
        leader_depth: bl.depth,
        sample,
        w,
        w_tree,
        w_dists,
        w_depth: bw.depth,
        r_set,
        r_member,
        ledger,
    })
}

/// Result of the full classical approximation.
#[derive(Clone, Debug)]
pub struct ApproxOutcome {
    /// The estimate `D̂` (`⌊2D/3⌋ ≤ D̂ ≤ D` w.h.p., the HPRW guarantee).
    pub estimate: Dist,
    /// Size of the cluster `R` whose eccentricities were computed.
    pub r_size: usize,
    /// The far node `w`.
    pub w: NodeId,
    /// Per-phase accounting.
    pub ledger: RoundsLedger,
}

impl ApproxOutcome {
    /// Total rounds across all phases.
    pub fn rounds(&self) -> u64 {
        self.ledger.total_rounds()
    }
}

/// The full classical `3/2`-approximation: [`prepare`] + the classical
/// `O(s + D)`-round eccentricity phase over `R`.
///
/// # Errors
///
/// As for [`prepare`].
///
/// # Example
///
/// ```
/// use classical::hprw::{self, HprwParams};
/// use congest::Config;
/// use graphs::{generators, metrics};
///
/// let g = generators::grid(6, 6);
/// let out = hprw::approx_diameter(&g, HprwParams::classical(36, 7), Config::for_graph(&g))?;
/// let d = metrics::diameter(&g).unwrap();
/// assert!(out.estimate <= d && out.estimate >= (2 * d) / 3);
/// # Ok::<(), classical::AlgoError>(())
/// ```
pub fn approx_diameter(
    graph: &Graph,
    params: HprwParams,
    config: Config,
) -> Result<ApproxOutcome, AlgoError> {
    let prep = prepare(graph, params, config)?;
    let mut ledger = prep.ledger.clone();
    let r_size = prep.r_set.len();

    // Step 4 (classical): eccentricity of every node in R via pipelined
    // waves over the DFS tour of the R-subtree of BFS(w).
    let r_member = prep.r_member.clone();
    let r_tree = prep.w_tree.restrict(|v| r_member[v.index()])?;
    let steps = 2 * (r_size as u64).saturating_sub(1);
    let dfs = dfs_walk::walk(graph, &r_tree, prep.w, steps, config)?;
    ledger.add("dfs tour of R", dfs.stats);
    let sources: Vec<(NodeId, u64)> = dfs
        .tau
        .iter()
        .enumerate()
        .filter_map(|(i, t)| t.map(|t| (NodeId::new(i), t)))
        .collect();
    debug_assert_eq!(sources.len(), r_size, "tour must visit exactly R");
    let duration = 2 * steps + 2 * u64::from(prep.w_depth) + 2;
    let wave = waves::run(graph, &sources, duration, config)?;
    ledger.add("eccentricity waves over R", wave.stats);

    let values: Vec<u64> = wave.max_dist.iter().map(|&d| d as u64).collect();
    let agg = aggregate::convergecast(
        graph,
        &prep.w_tree,
        &values,
        bits::for_dist(graph.len()),
        Op::Max,
        config,
    )?;
    ledger.add("max convergecast", agg.stats);

    Ok(ApproxOutcome {
        estimate: agg.value as Dist,
        r_size,
        w: prep.w,
        ledger,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::differential::{self, Run};
    use graphs::{generators, metrics};

    fn check_bounds(g: &Graph, params: HprwParams) {
        let d = metrics::diameter(g).unwrap();
        let out = approx_diameter(g, params, Config::for_graph(g)).unwrap();
        assert!(
            out.estimate <= d,
            "estimate {} exceeds diameter {d}",
            out.estimate
        );
        // HPRW's guarantee is the floor form: ⌊2D/3⌋ ≤ D̄.
        assert!(
            out.estimate >= (2 * d) / 3,
            "estimate {} below ⌊2D/3⌋ (D = {d})",
            out.estimate
        );
    }

    #[test]
    fn preparation_selects_exactly_s_closest() {
        let g = generators::random_connected(40, 0.1, 3);
        let params = HprwParams::with_s(10, 5);
        let prep = prepare(&g, params, Config::for_graph(&g)).unwrap();
        assert_eq!(prep.r_set.len(), 10);
        // Every selected node is at least as close to w as every excluded one
        // (up to the id cutoff within the threshold shell).
        let max_in = prep
            .r_set
            .iter()
            .map(|v| prep.w_dists[v.index()])
            .max()
            .unwrap();
        let min_out = (0..40)
            .filter(|&i| !prep.r_member[i])
            .map(|i| prep.w_dists[i])
            .min()
            .unwrap();
        assert!(max_in <= min_out.max(max_in)); // shell boundary may overlap
        assert!(prep.sample.contains(&prep.leader));
        assert!(prep.r_member[prep.w.index()], "w itself is in R");
    }

    #[test]
    fn approximation_bounds_on_families() {
        for (g, seed) in [
            (generators::cycle(48), 1u64),
            (generators::grid(6, 8), 2),
            (generators::lollipop(12, 24), 3),
            (generators::barbell(10, 20), 4),
            (generators::balanced_tree(2, 5), 5),
        ] {
            let n = g.len();
            check_bounds(&g, HprwParams::classical(n, seed));
        }
    }

    #[test]
    fn approximation_bounds_on_random_graphs() {
        for seed in 0..5 {
            let g = generators::random_connected(50, 0.08, seed);
            check_bounds(&g, HprwParams::classical(50, seed + 100));
        }
    }

    #[test]
    fn extreme_s_values() {
        let g = generators::cycle(20);
        // s = 1: R = {w} only; estimate = ecc(w) — still within [2D/3, D]
        // on a cycle (every ecc equals D).
        let out = approx_diameter(&g, HprwParams::with_s(1, 2), Config::for_graph(&g)).unwrap();
        assert_eq!(out.r_size, 1);
        assert_eq!(out.estimate, 10);
        // s >= n: R = V; the estimate is exact.
        let out = approx_diameter(&g, HprwParams::with_s(99, 2), Config::for_graph(&g)).unwrap();
        assert_eq!(out.r_size, 20);
        assert_eq!(out.estimate, 10);
    }

    #[test]
    fn rounds_scale_sublinearly_at_fixed_diameter() {
        // Hypercube-like low-diameter graphs: classical exact needs Θ(n),
        // HPRW needs Õ(√n + D).
        let g = generators::random_connected(120, 0.1, 9);
        let out =
            approx_diameter(&g, HprwParams::classical(120, 1), Config::for_graph(&g)).unwrap();
        let exact = crate::apsp::exact_diameter(&g, Config::for_graph(&g)).unwrap();
        assert!(
            out.rounds() < exact.rounds(),
            "approx {} rounds vs exact {}",
            out.rounds(),
            exact.rounds()
        );
    }

    #[test]
    fn sample_guard_aborts_on_oversampling() {
        // sample_factor = 20 with s = n makes p = 1 (all 30 nodes join S)
        // while the guard stays at n·ln²n/s ≈ 12 — the abort must fire.
        let g = generators::complete(30);
        let params = HprwParams {
            s: 30,
            seed: 0,
            sample_factor: 20.0,
        };
        let err = prepare(&g, params, Config::for_graph(&g)).unwrap_err();
        assert!(matches!(err, AlgoError::Aborted { .. }), "got {err:?}");
    }

    #[test]
    fn disconnected_fails() {
        let g = Graph::from_edges(6, [(0, 1), (2, 3), (4, 5)]).unwrap();
        assert!(approx_diameter(&g, HprwParams::with_s(2, 0), Config::for_graph(&g)).is_err());
    }

    #[test]
    fn multi_source_bfs_matches_the_reference() {
        for (seed, g) in differential::graphs() {
            let in_sample: Vec<bool> = (0..g.len() as u64).map(|i| (i + seed) % 5 == 0).collect();
            for cfg in differential::configs(&g, seed) {
                let cap = Run::Quiescent(2 * g.len() as u64 + 16);
                differential::check(&g, cfg, cap, |v| MsBfs {
                    is_source: in_sample[v.index()],
                    dist: None,
                });
            }
        }
    }
}
