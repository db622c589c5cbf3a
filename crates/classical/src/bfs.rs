//! Distributed BFS-tree construction — **Figure 1** of the paper.
//!
//! The root activates itself in round 0 and floods activation messages; a
//! node activated by a message at distance `d` adopts the (smallest-id)
//! sender as parent, records distance `d + 1`, and activates its own
//! neighbours in the next round. On top of Figure 1, each node also sends a
//! one-bit *claim* to its chosen parent, so that parents learn their
//! children — the DFS token walk (Figure 2 Step 1) needs child lists.
//!
//! Round complexity: `ecc(root) + 2` (the paper's `O(D)`), memory
//! `O(log n)` bits per node plus the child list.

use congest::{bits, Config, Network, NodeProgram, Payload, RoundCtx, RunStats, Status};
use graphs::{Dist, Graph, NodeId};

use crate::error::AlgoError;

/// BFS protocol messages.
#[derive(Clone, Debug)]
enum Msg {
    /// "I am at distance `dist` from the root; activate." `dist_bits` is
    /// the wire width of a distance in this network.
    Activate { dist: Dist, dist_bits: u8 },
    /// "You are my parent in the BFS tree."
    Claim,
}

impl Payload for Msg {
    fn size_bits(&self) -> usize {
        match self {
            Msg::Activate { dist_bits, .. } => 1 + usize::from(*dist_bits),
            Msg::Claim => 1,
        }
    }
}

struct BfsProgram {
    root: NodeId,
    parent: Option<NodeId>,
    dist: Option<Dist>,
    children: Vec<NodeId>,
    /// With a fault plan active, schedule violations are recorded rather
    /// than trusted away: a BFS activation adopting distance `d` must
    /// happen exactly in round `d` (the flood advances one hop per round),
    /// so a late activation betrays lost activate messages.
    fault_aware: bool,
    violation: Option<(u64, String)>,
    /// Extra rounds to repeat the claim send (`RecoveryPolicy::retransmit`;
    /// 0 keeps the single-shot protocol byte-identical). Claims carry no
    /// schedule invariant, so duplicates are harmless — receivers dedup —
    /// and an independently dropped claim no longer kills the tree.
    /// Activates are *never* retransmitted: a late activate violates the
    /// one-hop-per-round flood invariant the fault check depends on.
    resend: u32,
    resends_left: u32,
    resent: u64,
}

impl NodeProgram for BfsProgram {
    type Msg = Msg;
    type Output = (BfsNode, Option<(u64, String)>, u64);

    fn on_round(&mut self, ctx: &mut RoundCtx<'_, Msg>) -> Status {
        // Record child claims (dedup: retransmission may repeat them).
        for (from, msg) in ctx.inbox() {
            if matches!(msg, Msg::Claim) && !self.children.contains(from) {
                self.children.push(*from);
            }
        }
        if self.resends_left > 0 {
            if let Some(parent) = self.parent {
                ctx.send(parent, Msg::Claim);
                self.resent += 1;
            }
            self.resends_left -= 1;
        }
        if ctx.node() == self.root && ctx.round() == 0 {
            self.dist = Some(0);
            ctx.broadcast(Msg::Activate {
                dist: 0,
                dist_bits: bits::for_dist(ctx.num_nodes()) as u8,
            });
        } else if self.dist.is_none() {
            // Not yet activated: adopt the smallest-id activator, if any.
            let activator = ctx
                .inbox()
                .iter()
                .filter_map(|(from, msg)| match msg {
                    Msg::Activate { dist, .. } => Some((*from, *dist)),
                    Msg::Claim => None,
                })
                .min_by_key(|&(from, _)| from);
            if let Some((parent, d)) = activator {
                self.parent = Some(parent);
                self.dist = Some(d + 1);
                if self.fault_aware && ctx.round() != u64::from(d + 1) {
                    self.violation = Some((
                        ctx.round(),
                        format!(
                            "BFS activation at {} adopted distance {} in round {}: \
                             activate messages were lost or rerouted",
                            ctx.node(),
                            d + 1,
                            ctx.round()
                        ),
                    ));
                }
                ctx.broadcast_except(
                    parent,
                    Msg::Activate {
                        dist: d + 1,
                        dist_bits: bits::for_dist(ctx.num_nodes()) as u8,
                    },
                );
                ctx.send(parent, Msg::Claim);
                self.resends_left = self.resend;
            }
        }
        // Activation/claim handling is purely message-driven; the root's
        // round-0 start rides on the initial `Active` status. A node with
        // pending claim retransmissions must keep itself scheduled.
        if self.resends_left > 0 {
            Status::Active
        } else {
            Status::Halted
        }
    }

    fn finish(mut self, _node: NodeId) -> (BfsNode, Option<(u64, String)>, u64) {
        self.children.sort_unstable();
        (
            BfsNode {
                parent: self.parent,
                dist: self.dist,
                children: self.children,
            },
            self.violation,
            self.resent,
        )
    }
}

/// A node's local view of the constructed BFS tree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BfsNode {
    /// Parent in the tree (`None` for the root).
    pub parent: Option<NodeId>,
    /// Distance from the root.
    pub dist: Option<Dist>,
    /// Children in the tree, sorted by id.
    pub children: Vec<NodeId>,
}

/// The constructed BFS tree, gathered across all nodes, plus accounting.
#[derive(Clone, Debug)]
pub struct BfsOutcome {
    /// The root the tree was grown from.
    pub root: NodeId,
    /// Per-node parent pointers.
    pub parents: Vec<Option<NodeId>>,
    /// Per-node distances from the root.
    pub dists: Vec<Dist>,
    /// Per-node sorted child lists.
    pub children: Vec<Vec<NodeId>>,
    /// Tree depth = `ecc(root)`.
    pub depth: Dist,
    /// Round/bit accounting.
    pub stats: RunStats,
    /// Claim messages re-sent under `RecoveryPolicy::retransmit` (0 when
    /// retransmission is off).
    pub retransmissions: u64,
}

/// The Figure 1 program at each node, as [`build`] starts it.
fn program(root: NodeId, config: Config) -> impl Fn(NodeId) -> BfsProgram {
    let (fault_aware, resend) = (config.has_faults(), config.recovery().retransmit());
    move |_| BfsProgram {
        root,
        parent: None,
        dist: None,
        children: Vec::new(),
        fault_aware,
        violation: None,
        resend,
        resends_left: 0,
        resent: 0,
    }
}

/// Builds a BFS tree from `root` (Figure 1), in `ecc(root) + 2` rounds.
///
/// # Errors
///
/// Returns [`AlgoError::InvalidParameter`] if `root` is not a node of
/// `graph`, [`AlgoError::Disconnected`] if some node is not reached, or a
/// wrapped simulator error.
///
/// # Example
///
/// ```
/// use classical::bfs;
/// use congest::Config;
/// use graphs::{generators, NodeId};
///
/// let g = generators::path(6);
/// let out = bfs::build(&g, NodeId::new(0), Config::for_graph(&g))?;
/// assert_eq!(out.depth, 5);
/// assert_eq!(out.dists[4], 4);
/// assert_eq!(out.stats.rounds, 5 + 2);
/// # Ok::<(), classical::AlgoError>(())
/// ```
pub fn build(graph: &Graph, root: NodeId, config: Config) -> Result<BfsOutcome, AlgoError> {
    if root.index() >= graph.len() {
        return Err(AlgoError::InvalidParameter {
            reason: format!("root {root} out of range for {} nodes", graph.len()),
        });
    }
    let fault_aware = config.has_faults();
    let resend = config.recovery().retransmit();
    let mut net = Network::new(graph, config, program(root, config));
    let cap = 2 * graph.len() as u64 + 16 + u64::from(resend);
    let stats = net
        .run_until_quiescent(cap)
        .map_err(|e| AlgoError::from_congest(e, fault_aware))?;
    let outcomes = net.into_outputs();
    if let Some((round, detail)) = outcomes
        .iter()
        .filter_map(|(_, v, _)| v.clone())
        .min_by_key(|&(round, _)| round)
    {
        return Err(AlgoError::FaultDetected { round, detail });
    }
    let retransmissions: u64 = outcomes.iter().map(|&(_, _, r)| r).sum();
    if retransmissions > 0 {
        // Honest accounting at the source: resends are recovery actions
        // wherever they happen (here or under a quantum driver) — one bulk
        // trace event per phase, one metrics charge per resent message.
        congest::recovery::note_recovery(
            trace::RecoveryAction::Retransmit,
            0,
            "bfs claims",
            0,
            retransmissions,
        );
    }
    let mut parents = Vec::with_capacity(outcomes.len());
    let mut dists = Vec::with_capacity(outcomes.len());
    let mut children = Vec::with_capacity(outcomes.len());
    let mut depth = 0;
    for (i, (node, _, _)) in outcomes.into_iter().enumerate() {
        let dist = node.dist.ok_or(if fault_aware {
            // On a connected graph an unreached node means the flood was
            // severed, not that the graph is disconnected.
            AlgoError::FaultDetected {
                round: stats.rounds,
                detail: format!("node {i} was never activated: the BFS flood was cut off"),
            }
        } else {
            AlgoError::Disconnected
        })?;
        depth = depth.max(dist);
        parents.push(node.parent);
        dists.push(dist);
        children.push(node.children);
    }
    if fault_aware {
        // Lost Claim messages leave a parent ignorant of a child — fatal
        // for the DFS token walk built on these child lists.
        for (i, parent) in parents.iter().enumerate() {
            if let Some(p) = parent {
                if !children[p.index()].contains(&NodeId::new(i)) {
                    return Err(AlgoError::FaultDetected {
                        round: stats.rounds,
                        detail: format!(
                            "parent {p} never learned of child {i}: a claim message was lost"
                        ),
                    });
                }
            }
        }
    }
    Ok(BfsOutcome {
        root,
        parents,
        dists,
        children,
        depth,
        stats,
        retransmissions,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::differential::{self, Run};
    use graphs::{generators, metrics, traversal::Bfs};

    fn check_tree(g: &Graph, out: &BfsOutcome) {
        let reference = Bfs::run(g, out.root);
        for v in g.nodes() {
            assert_eq!(
                Some(out.dists[v.index()]),
                reference.dist(v),
                "distance mismatch at {v}"
            );
            match out.parents[v.index()] {
                Some(p) => {
                    assert!(g.has_edge(p, v));
                    assert_eq!(out.dists[p.index()] + 1, out.dists[v.index()]);
                    assert!(out.children[p.index()].contains(&v), "parent missing child");
                }
                None => assert_eq!(v, out.root),
            }
        }
        // Child lists partition the non-root nodes.
        let total_children: usize = out.children.iter().map(Vec::len).sum();
        assert_eq!(total_children, g.len() - 1);
    }

    #[test]
    fn grid_tree_is_correct() {
        let g = generators::grid(5, 6);
        let out = build(&g, NodeId::new(7), Config::for_graph(&g)).unwrap();
        check_tree(&g, &out);
    }

    #[test]
    fn random_graphs_various_roots() {
        for seed in 0..4 {
            let g = generators::random_connected(40, 0.08, seed);
            for root in [0usize, 13, 39] {
                let out = build(&g, NodeId::new(root), Config::for_graph(&g)).unwrap();
                check_tree(&g, &out);
            }
        }
    }

    #[test]
    fn rounds_are_ecc_plus_two() {
        for (g, root) in [
            (generators::path(30), 0usize),
            (generators::cycle(21), 3),
            (generators::star(9), 1),
        ] {
            let root = NodeId::new(root);
            let ecc = metrics::eccentricity(&g, root).unwrap() as u64;
            let out = build(&g, root, Config::for_graph(&g)).unwrap();
            assert_eq!(out.stats.rounds, ecc + 2, "rounds vs ecc mismatch");
            assert_eq!(out.depth as u64, ecc);
        }
    }

    #[test]
    fn parent_ties_break_to_smallest_id() {
        // Node 3 in C4 (0-1-2-3-0) is reached from both 2 and 0 at the same
        // round when rooted at 1; it must choose... rooted at 1: dists are
        // 1:0, 0:1, 2:1, 3:2 reached from 0 and 2 simultaneously → parent 0.
        let g = generators::cycle(4);
        let out = build(&g, NodeId::new(1), Config::for_graph(&g)).unwrap();
        assert_eq!(out.parents[3], Some(NodeId::new(0)));
    }

    #[test]
    fn disconnected_is_an_error() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        let err = build(&g, NodeId::new(0), Config::for_graph(&g)).unwrap_err();
        assert_eq!(err, AlgoError::Disconnected);
    }

    #[test]
    fn out_of_range_root_is_a_typed_error_not_a_panic() {
        for (n, root) in [(4, 4), (4, 100), (0, 0)] {
            let g = Graph::from_edges(n, (1..n).map(|i| (i - 1, i))).unwrap();
            let err = build(&g, NodeId::new(root), Config::for_graph(&g)).unwrap_err();
            assert!(
                matches!(err, AlgoError::InvalidParameter { .. }),
                "n {n}, root {root}: {err:?}"
            );
        }
    }

    #[test]
    fn single_node_tree() {
        let g = Graph::from_edges(1, []).unwrap();
        let out = build(&g, NodeId::new(0), Config::for_graph(&g)).unwrap();
        assert_eq!(out.depth, 0);
        assert!(out.children[0].is_empty());
    }

    #[test]
    fn program_matches_the_reference() {
        for (seed, g) in differential::graphs() {
            let root = NodeId::new(seed as usize);
            for cfg in differential::configs(&g, seed) {
                let cap = 2 * g.len() as u64 + 16 + u64::from(cfg.recovery().retransmit());
                differential::check(&g, cfg, Run::Quiescent(cap), program(root, cfg));
            }
        }
    }
}
