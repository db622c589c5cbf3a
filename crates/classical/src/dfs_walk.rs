//! The distributed depth-first token walk — Step 1 of the paper's Figure 2.
//!
//! A token walks the edges of a rooted spanning tree, one edge per round,
//! reproducing the Euler tour of `BFS(leader)` *starting at an arbitrary
//! node `u0`* and wrapping past the end of the tour ("if it reaches the end
//! of the DFS, it starts again from leader"). Every visited node records
//! `τ'(v)`, the move index of its first visit; these are the wave start
//! offsets of Figure 2 Step 2.
//!
//! The walk is memoryless: a node receiving the token from its parent
//! descends into its smallest child (or bounces back up); receiving it from
//! child `c`, it continues with the next child after `c` (or moves up; the
//! root wraps around). This is exactly the resumption rule of the global
//! tour, so no per-node iteration state survives between visits.

use congest::{bits, Config, Network, NodeProgram, Payload, Round, RoundCtx, RunStats, Status};
use graphs::{Graph, NodeId};

use crate::error::AlgoError;
use crate::tree_view::TreeView;

#[derive(Clone, Debug)]
struct Token {
    /// Move index of the position the token is arriving at.
    t: u64,
    /// Wire width: enough for the step budget.
    t_bits: u8,
}

impl Payload for Token {
    fn size_bits(&self) -> usize {
        usize::from(self.t_bits)
    }
}

struct WalkProgram<'t> {
    parent: Option<NodeId>,
    /// The node's children, borrowed from the tree the walk follows.
    children: &'t [NodeId],
    is_start: bool,
    steps: u64,
    t_bits: u8,
    tau: Option<u64>,
    /// Largest move index this node has ever seen the token carry. A
    /// completed walk ends with some node observing `t == steps`; under
    /// injected faults a lost token leaves every node short of that, which
    /// is how the driver detects the loss.
    max_t: u64,
}

enum Arrival {
    /// Came down from the parent (or the walk just started here).
    Descend,
    /// Came up from this child.
    Up(NodeId),
}

impl WalkProgram<'_> {
    fn forward(&self, ctx: &mut RoundCtx<'_, Token>, t: u64, arrival: Arrival) {
        if t >= self.steps {
            return;
        }
        let next = match arrival {
            Arrival::Descend => self.children.first().copied().or(self.parent),
            Arrival::Up(c) => {
                let after = self.children.iter().copied().find(|&k| k > c);
                match (after, self.parent) {
                    (Some(k), _) => Some(k),
                    (None, Some(p)) => Some(p),
                    // Root exhausted its children: the tour is complete;
                    // wrap around by restarting the descent.
                    (None, None) => self.children.first().copied(),
                }
            }
        };
        if let Some(next) = next {
            ctx.send(
                next,
                Token {
                    t: t + 1,
                    t_bits: self.t_bits,
                },
            );
        }
    }
}

impl NodeProgram for WalkProgram<'_> {
    type Msg = Token;
    type Output = (Option<u64>, u64);

    fn on_round(&mut self, ctx: &mut RoundCtx<'_, Token>) -> Status {
        if self.is_start && ctx.round() == 0 {
            self.tau = Some(0);
            self.forward(ctx, 0, Arrival::Descend);
        }
        debug_assert!(ctx.inbox().len() <= 1, "more than one token in flight");
        if let Some(&(from, Token { t, .. })) = ctx.inbox().first() {
            if self.tau.is_none() {
                self.tau = Some(t);
            }
            self.max_t = self.max_t.max(t);
            let arrival = if Some(from) == self.parent {
                Arrival::Descend
            } else {
                Arrival::Up(from)
            };
            self.forward(ctx, t, arrival);
        }
        // Token-driven: only the start node acts without a message, and
        // only in round 0 (initial `Active` status) — `Halted` is precise.
        Status::Halted
    }

    fn finish(self, _node: NodeId) -> (Option<u64>, u64) {
        (self.tau, self.max_t)
    }
}

/// Result of a DFS token walk.
#[derive(Clone, Debug)]
pub struct DfsWalkOutcome {
    /// Per node: the move index `τ'(v)` of its first visit, or `None` if the
    /// walk never reached it within its step budget.
    pub tau: Vec<Option<u64>>,
    /// Round/bit accounting.
    pub stats: RunStats,
}

impl DfsWalkOutcome {
    /// The visited nodes in visit order.
    pub fn visited(&self) -> Vec<NodeId> {
        let mut v: Vec<(u64, NodeId)> = self
            .tau
            .iter()
            .enumerate()
            .filter_map(|(i, t)| t.map(|t| (t, NodeId::new(i))))
            .collect();
        v.sort_unstable();
        v.into_iter().map(|(_, v)| v).collect()
    }
}

/// The token-walk program at each node, as [`walk`] starts it.
fn program<'t>(
    tree: &'t TreeView,
    start: NodeId,
    steps: u64,
) -> impl Fn(NodeId) -> WalkProgram<'t> + 't {
    // At most 64 bits, so the width fits a byte.
    let t_bits = bits::for_value(steps.max(1)) as u8;
    move |v| WalkProgram {
        parent: tree.parent(v),
        children: tree.children(v),
        is_start: v == start,
        steps,
        t_bits,
        tau: None,
        max_t: 0,
    }
}

/// Runs a `steps`-move DFS token walk on `tree` starting at `start`
/// (Figure 2 Step 1), in `steps + 1` rounds.
///
/// Pass `steps = 2·(len − 1)` with `start = tree.root()` for the full tour
/// used by the classical exact-diameter algorithm, or `steps = 2d` with an
/// arbitrary start for the paper's windowed evaluation.
///
/// # Errors
///
/// Returns a wrapped simulator error.
///
/// # Example
///
/// ```
/// use classical::{bfs, dfs_walk, TreeView};
/// use congest::Config;
/// use graphs::{generators, NodeId};
///
/// let g = generators::star(3);
/// let cfg = Config::for_graph(&g);
/// let tree = TreeView::from(&bfs::build(&g, NodeId::new(0), cfg)?);
/// let out = dfs_walk::walk(&g, &tree, NodeId::new(0), 6, cfg)?;
/// // Tour 0 1 0 2 0 3: first visits at moves 0, 1, 3, 5.
/// assert_eq!(out.tau, vec![Some(0), Some(1), Some(3), Some(5)]);
/// # Ok::<(), classical::AlgoError>(())
/// ```
pub fn walk(
    graph: &Graph,
    tree: &TreeView,
    start: NodeId,
    steps: u64,
    config: Config,
) -> Result<DfsWalkOutcome, AlgoError> {
    if tree.len() != graph.len() {
        return Err(AlgoError::Protocol {
            reason: "tree/graph size mismatch".into(),
        });
    }
    if start.index() >= graph.len() {
        return Err(AlgoError::Protocol {
            reason: "walk start out of range".into(),
        });
    }
    let fault_aware = config.has_faults();
    let mut net = Network::new(graph, config, program(tree, start, steps));
    let cap: Round = steps + 4;
    let stats = net
        .run_until_quiescent(cap)
        .map_err(|e| AlgoError::from_congest(e, fault_aware))?;
    let (tau, max_t): (Vec<Option<u64>>, Vec<u64>) = net.into_outputs().into_iter().unzip();
    if fault_aware {
        // A single token carries the whole walk, so any lost message ends
        // it early: the network goes quiescent without any node ever seeing
        // move index `steps`. (The start node making zero moves — an
        // isolated restricted view — legitimately ends at 0.)
        let walk_can_move = tree.parent(start).is_some() || !tree.children(start).is_empty();
        let reached = max_t.iter().copied().max().unwrap_or(0);
        if walk_can_move && reached < steps {
            return Err(AlgoError::FaultDetected {
                round: stats.rounds,
                detail: format!(
                    "DFS token lost after move {reached} of {steps}: the walk \
                     went quiescent before completing its tour"
                ),
            });
        }
    }
    Ok(DfsWalkOutcome { tau, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs;
    use crate::differential::{self, Run};
    use graphs::tree::{EulerTour, RootedTree};
    use graphs::{generators, Graph};

    /// Builds the distributed tree and the matching centralized Euler tour
    /// (from the *same* parent pointers, so child orders agree).
    fn setup(g: &Graph, root: usize) -> (TreeView, EulerTour) {
        let out = bfs::build(g, NodeId::new(root), Config::for_graph(g)).unwrap();
        let view = TreeView::from(&out);
        let tree = RootedTree::from_parents(&out.parents).unwrap();
        (view, EulerTour::new(&tree))
    }

    #[test]
    fn full_tour_matches_euler_tour() {
        for seed in 0..4 {
            let g = generators::random_connected(24, 0.12, seed);
            let (view, tour) = setup(&g, 0);
            let steps = 2 * (g.len() as u64 - 1);
            let out = walk(&g, &view, NodeId::new(0), steps, Config::for_graph(&g)).unwrap();
            for v in g.nodes() {
                assert_eq!(
                    out.tau[v.index()],
                    Some(tour.tau(v) as u64),
                    "tau mismatch at {v}"
                );
            }
            assert_eq!(out.stats.rounds, steps + 1);
        }
    }

    #[test]
    fn segment_from_arbitrary_start_matches_tour_segment() {
        let g = generators::random_connected(20, 0.15, 9);
        let (view, tour) = setup(&g, 0);
        for start in [3usize, 7, 19] {
            let start = NodeId::new(start);
            let steps = 10u64;
            let out = walk(&g, &view, start, steps, Config::for_graph(&g)).unwrap();
            let expected = tour.segment_first_visits(tour.tau(start), steps as usize);
            let mut expect_tau = vec![None; g.len()];
            for (v, offset) in expected {
                expect_tau[v.index()] = Some(offset as u64);
            }
            assert_eq!(out.tau, expect_tau, "segment mismatch from {start}");
        }
    }

    #[test]
    fn wrapping_past_the_tour_end_restarts_at_root() {
        // Path 0-1-2; tour from root 0: 0 1 2 1 0 (moves 0..4, cyclic len 4).
        // Start at node 2 (tau=2) and take 4 moves: positions 2,1,0,1... wait
        // cyclic: node_at(2..=6) = 2,1,0,1,2 — first visits 2@0, 1@1, 0@2.
        let g = generators::path(3);
        let (view, _) = setup(&g, 0);
        let out = walk(&g, &view, NodeId::new(2), 4, Config::for_graph(&g)).unwrap();
        assert_eq!(out.tau, vec![Some(2), Some(1), Some(0)]);
    }

    #[test]
    fn short_walk_visits_prefix_only() {
        let g = generators::path(6);
        let (view, _) = setup(&g, 0);
        let out = walk(&g, &view, NodeId::new(0), 3, Config::for_graph(&g)).unwrap();
        assert_eq!(
            out.visited(),
            vec![
                NodeId::new(0),
                NodeId::new(1),
                NodeId::new(2),
                NodeId::new(3)
            ]
        );
        assert_eq!(out.tau[4], None);
        assert_eq!(out.tau[5], None);
    }

    #[test]
    fn single_node_walk() {
        let g = Graph::from_edges(1, []).unwrap();
        let (view, _) = setup(&g, 0);
        let out = walk(&g, &view, NodeId::new(0), 10, Config::for_graph(&g)).unwrap();
        assert_eq!(out.tau, vec![Some(0)]);
        assert_eq!(out.visited(), vec![NodeId::new(0)]);
    }

    #[test]
    fn restricted_tree_walk_stays_inside() {
        // Restrict a star tree to the hub and two leaves; the walk must
        // never visit the third leaf.
        let g = generators::star(3);
        let out = bfs::build(&g, NodeId::new(0), Config::for_graph(&g)).unwrap();
        let view = TreeView::from(&out).restrict(|v| v.index() <= 2).unwrap();
        let res = walk(&g, &view, NodeId::new(0), 100, Config::for_graph(&g)).unwrap();
        assert!(res.tau[3].is_none());
        assert_eq!(res.visited().len(), 3);
    }

    #[test]
    fn program_matches_the_reference() {
        for (seed, g) in differential::graphs() {
            let root = NodeId::new(0);
            let view = TreeView::from(&bfs::build(&g, root, Config::for_graph(&g)).unwrap());
            let steps = 2 * (g.len() as u64 - 1);
            for cfg in differential::configs(&g, seed) {
                let cap = Run::Quiescent(steps + 4);
                differential::check(&g, cfg, cap, program(&view, root, steps));
            }
        }
    }
}
