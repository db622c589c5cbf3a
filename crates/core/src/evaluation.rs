//! The Evaluation procedure of **Figure 2** (Proposition 4): given `u₀`
//! known to every node, the leader learns
//! `f(u₀) = max_{v ∈ S(u₀)} ecc(v)` in `O(d)` rounds.
//!
//! The five steps, as real message-passing phases on the CONGEST simulator:
//!
//! 1. a `2d`-move DFS token walk starting at `u₀` marks the set `S` and
//!    assigns offsets `τ'(v)` ([`classical::dfs_walk`]);
//! 2. pipelined eccentricity waves for `6d` rounds, each `v ∈ S` starting
//!    at round `2τ'(v)` ([`classical::waves`], Lemmas 2–4);
//! 3. a max-convergecast up `BFS(leader)`;
//! 4. the leader takes the maximum (free);
//! 5. steps 1–3 are *reverted* to clean all registers — in the quantum
//!    execution this is the uncompute pass that keeps the procedure a
//!    unitary `|u₀, 0⟩|data⟩ ↦ |u₀, f(u₀)⟩|data⟩`; it costs the same round
//!    schedule again.
//!
//! Every phase's round count depends only on `d` and the tree depth — not
//! on `u₀` — which is what allows the procedure to run *in superposition*
//! over all `u₀` simultaneously: all branches follow the same schedule.

use classical::aggregate::{self, Op};
use classical::{dfs_walk, waves, AlgoError, TreeView};
use congest::{bits, Config, RoundsLedger};
use graphs::{Dist, Graph, NodeId};

/// Result of one (classically instantiated) run of the Figure 2 procedure.
#[derive(Clone, Debug)]
pub struct EvaluationRun {
    /// The branch input `u₀`.
    pub u0: NodeId,
    /// The computed value `f(u₀) = max_{v ∈ S(u₀)} ecc(v)`.
    pub value: Dist,
    /// The nodes of `S(u₀)` with their offsets `τ'`, in visit order.
    pub window: Vec<(NodeId, u64)>,
    /// Per-phase accounting, including the uncompute pass.
    pub ledger: RoundsLedger,
}

impl EvaluationRun {
    /// Total rounds of the procedure (forward + uncompute).
    pub fn rounds(&self) -> u64 {
        self.ledger.total_rounds()
    }

    /// Rounds of the forward pass alone (steps 1–3). This is the schedule
    /// `T_eval` of one `Evaluation` application in Theorem 7's accounting:
    /// the inverse application (step 5) is charged separately by
    /// [`OracleCost`](quantum::OracleCost), which counts forward and
    /// inverse applications individually.
    pub fn forward_rounds(&self) -> u64 {
        self.ledger.total_rounds() / 2
    }

    /// Payload bits delivered by the forward pass alone. In superposed
    /// execution each of these bits is a communicated qubit, so this is the
    /// per-application qubit traffic of one `Evaluation` operator (the
    /// derived uncompute phase mirrors steps 1–3 exactly, hence the halved
    /// total).
    pub fn forward_bits(&self) -> u64 {
        self.ledger.total_bits() / 2
    }

    /// Messages sent by the forward pass alone.
    pub fn forward_messages(&self) -> u64 {
        self.ledger.total_messages() / 2
    }
}

/// Runs Figure 2 for a concrete `u₀` over the window width `2d`.
///
/// `tree` must be `BFS(leader)` and `d` its depth (`= ecc(leader)`); these
/// are the Initialization outputs of Proposition 1.
///
/// # Errors
///
/// Returns a wrapped simulator error or a `Protocol` error on inconsistent
/// inputs.
pub fn run_figure2(
    graph: &Graph,
    tree: &TreeView,
    d: Dist,
    u0: NodeId,
    config: Config,
) -> Result<EvaluationRun, AlgoError> {
    run_windowed(graph, tree, tree, d, u0, config)
}

/// The generalized Figure 2 run used by the `3/2`-approximation
/// (Section 4): the DFS walk runs on `walk_tree` (the `R`-subtree of
/// `BFS(w)`, restricted via [`TreeView::restrict`]) while the final
/// convergecast runs on `agg_tree` (a spanning tree of the whole network —
/// wave distances accumulate at *all* nodes, not just `R`).
///
/// [`run_figure2`] is the special case `walk_tree == agg_tree`.
///
/// # Errors
///
/// Returns a wrapped simulator error or a `Protocol` error on inconsistent
/// inputs.
pub fn run_windowed(
    graph: &Graph,
    walk_tree: &TreeView,
    agg_tree: &TreeView,
    d: Dist,
    u0: NodeId,
    config: Config,
) -> Result<EvaluationRun, AlgoError> {
    // Evaluation models a *reversible* oracle procedure run in
    // superposition: drop-triggered retransmission is not meaningful
    // inside it, and extra resend rounds would detach the measured
    // schedule from the closed form of [`figure2_schedule_rounds`]. Strip
    // it; one-shot classical phases (Initialization, HPRW preparation)
    // keep theirs.
    let config = config.with_recovery(config.recovery().with_retransmit(0));
    let mut ledger = RoundsLedger::new();
    let d64 = u64::from(d);

    // Step 1: partial DFS walk of 2d moves from u0.
    let walk = dfs_walk::walk(graph, walk_tree, u0, 2 * d64, config)?;
    ledger.add("step 1: dfs walk (2d moves)", walk.stats);
    let window: Vec<(NodeId, u64)> = {
        let mut w: Vec<(u64, NodeId)> = walk
            .tau
            .iter()
            .enumerate()
            .filter_map(|(i, t)| t.map(|t| (t, NodeId::new(i))))
            .collect();
        w.sort_unstable();
        w.into_iter().map(|(t, v)| (v, t)).collect()
    };

    // Step 2: pipelined waves for 6d rounds (2·max τ' ≤ 4d starts plus ≤ 2d
    // propagation, as in the figure).
    let sources: Vec<(NodeId, u64)> = window.iter().map(|&(v, t)| (v, t)).collect();
    let wave = waves::run(graph, &sources, 6 * d64 + 1, config)?;
    ledger.add("step 2: waves (6d rounds)", wave.stats);
    if config.has_faults() {
        // Lemmas 2-4: exactly one wave per (source, node) pair survives.
        // Any shortfall means f(u0) would be an undetected under-estimate.
        wave.verify_complete(&sources)?;
    }

    // Step 3: bottom-up max on the aggregation tree.
    let values: Vec<u64> = wave.max_dist.iter().map(|&x| x as u64).collect();
    let agg = aggregate::convergecast(
        graph,
        agg_tree,
        &values,
        bits::for_dist(graph.len()),
        Op::Max,
        config,
    )?;
    ledger.add("step 3: max convergecast", agg.stats);

    // Step 4 is local to the leader. Step 5: revert steps 1-3 (uncompute) —
    // identical schedule run in reverse. Charged as a derived phase: it
    // mirrors the measured stats of steps 1-3 without re-running the
    // network, so traces must not expect its messages on the wire again,
    // and it schedules no node program.
    let mut uncompute = walk.stats;
    uncompute.absorb(&wave.stats);
    uncompute.absorb(&agg.stats);
    (uncompute.scheduled_nodes, uncompute.node_rounds) = (0, 0);
    ledger.add_derived("step 5: uncompute (revert 1-3)", uncompute);

    let value = agg.value as Dist;
    trace::emit_with(|| trace::TraceEvent::Value {
        label: format!("figure 2: f({u0})"),
        value: u64::from(value),
    });
    Ok(EvaluationRun {
        u0,
        value,
        window,
        ledger,
    })
}

/// The fixed round schedule of one Evaluation application, as a function of
/// `d` and the tree depth — identical across branches `u₀`, which is the
/// property that lets the procedure run in superposition.
///
/// Forward pass: `(2d + 1) + (6d + 1) + (depth + 1)`; the uncompute pass
/// doubles it.
pub fn figure2_schedule_rounds(d: Dist, tree_depth: Dist) -> u64 {
    let d = u64::from(d);
    let forward = (2 * d + 1) + (6 * d + 1) + (u64::from(tree_depth) + 1);
    2 * forward
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dfs_window::Windows;
    use classical::bfs;
    use graphs::tree::{EulerTour, RootedTree};
    use graphs::{generators, metrics, Graph};

    struct Setup {
        g: Graph,
        tree: TreeView,
        d: Dist,
        tour: EulerTour,
        eccs: Vec<Dist>,
    }

    fn setup(g: Graph, root: usize) -> Setup {
        let cfg = Config::for_graph(&g);
        let b = bfs::build(&g, NodeId::new(root), cfg).unwrap();
        let tree = TreeView::from(&b);
        let rooted = RootedTree::from_parents(&b.parents).unwrap();
        let tour = EulerTour::new(&rooted);
        let eccs = metrics::eccentricities(&g).unwrap();
        Setup {
            d: b.depth,
            g,
            tree,
            tour,
            eccs,
        }
    }

    /// The distributed Figure 2 run must agree with the centralized
    /// closed-form window maximum for every u0.
    #[test]
    fn distributed_equals_closed_form_everywhere() {
        for seed in 0..3 {
            let s = setup(generators::random_connected(22, 0.12, seed), 0);
            let cfg = Config::for_graph(&s.g);
            let windows = Windows::new(&s.tour, 2 * s.d as usize);
            let reference = windows.window_max(&s.eccs);
            for u0 in s.g.nodes() {
                let run = run_figure2(&s.g, &s.tree, s.d, u0, cfg).unwrap();
                assert_eq!(
                    run.value,
                    reference[u0.index()],
                    "figure-2 value mismatch at u0={u0} seed={seed}"
                );
            }
        }
    }

    /// The window S(u0) computed by Step 1 must match the centralized
    /// window structure.
    #[test]
    fn window_matches_centralized() {
        let s = setup(generators::random_tree(20, 9), 0);
        let cfg = Config::for_graph(&s.g);
        let windows = Windows::new(&s.tour, 2 * s.d as usize);
        for u0 in [NodeId::new(0), NodeId::new(7), NodeId::new(19)] {
            let run = run_figure2(&s.g, &s.tree, s.d, u0, cfg).unwrap();
            let mut got: Vec<NodeId> = run.window.iter().map(|&(v, _)| v).collect();
            got.sort_unstable();
            assert_eq!(got, windows.members(u0));
            // Offsets start at 0 for u0 itself.
            assert_eq!(run.window.first(), Some(&(u0, 0)));
        }
    }

    /// The schedule is branch-independent: every u0 takes the same rounds.
    #[test]
    fn schedule_is_branch_independent() {
        let s = setup(generators::random_connected(18, 0.15, 4), 0);
        let cfg = Config::for_graph(&s.g);
        let rounds: Vec<u64> =
            s.g.nodes()
                .map(|u0| run_figure2(&s.g, &s.tree, s.d, u0, cfg).unwrap().rounds())
                .collect();
        assert!(
            rounds.windows(2).all(|w| w[0] == w[1]),
            "rounds vary by branch: {rounds:?}"
        );
        assert_eq!(rounds[0], figure2_schedule_rounds(s.d, s.d));
    }

    /// Rounds scale linearly in d: Θ(d) per evaluation (Proposition 4's
    /// O(D), given d ≤ D ≤ 2d).
    #[test]
    fn rounds_scale_linearly_in_d() {
        let small = setup(generators::path(16), 0);
        let big = setup(generators::path(64), 0);
        let cfg_s = Config::for_graph(&small.g);
        let cfg_b = Config::for_graph(&big.g);
        let r_small = run_figure2(&small.g, &small.tree, small.d, NodeId::new(3), cfg_s)
            .unwrap()
            .rounds();
        let r_big = run_figure2(&big.g, &big.tree, big.d, NodeId::new(3), cfg_b)
            .unwrap()
            .rounds();
        let ratio = r_big as f64 / r_small as f64;
        // d grows 15 → 63 (×4.2); rounds should grow by roughly the same factor.
        assert!((3.0..=6.0).contains(&ratio), "ratio {ratio}");
    }

    /// Maximizing the evaluated values over all u0 yields the diameter.
    #[test]
    fn max_over_branches_is_diameter() {
        let s = setup(generators::lollipop(6, 8), 0);
        let cfg = Config::for_graph(&s.g);
        let max =
            s.g.nodes()
                .map(|u0| run_figure2(&s.g, &s.tree, s.d, u0, cfg).unwrap().value)
                .max()
                .unwrap();
        assert_eq!(max, metrics::diameter(&s.g).unwrap());
    }

    /// run_windowed with a restricted walk tree: waves start only from the
    /// restricted window, but the aggregation still covers everyone.
    #[test]
    fn windowed_run_on_restricted_tree() {
        let s = setup(generators::grid(4, 5), 0);
        let cfg = Config::for_graph(&s.g);
        // Restrict to nodes within distance 2 of the root (downward closed).
        let b = classical::bfs::build(&s.g, NodeId::new(0), cfg).unwrap();
        let member: Vec<bool> = b.dists.iter().map(|&d| d <= 2).collect();
        let walk_tree = s.tree.restrict(|v| member[v.index()]).unwrap();
        let run = super::run_windowed(&s.g, &walk_tree, &s.tree, s.d, NodeId::new(0), cfg).unwrap();
        // Every window member is inside the restriction…
        assert!(run.window.iter().all(|&(v, _)| member[v.index()]));
        // …and the value is the max eccentricity over the visited window.
        let expect = run
            .window
            .iter()
            .map(|&(v, _)| s.eccs[v.index()])
            .max()
            .unwrap();
        assert_eq!(run.value, expect);
    }

    #[test]
    fn single_node_evaluation() {
        let s = setup(Graph::from_edges(1, []).unwrap(), 0);
        let cfg = Config::for_graph(&s.g);
        let run = run_figure2(&s.g, &s.tree, s.d, NodeId::new(0), cfg).unwrap();
        assert_eq!(run.value, 0);
        assert_eq!(run.window, vec![(NodeId::new(0), 0)]);
    }
}
