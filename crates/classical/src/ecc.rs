//! Eccentricity of a single node, and the trivial 2-approximation of the
//! diameter.
//!
//! `ecc(v)` is computed the way the paper's Proposition 3 describes: build
//! `BFS(v)` so every node learns its distance to `v`, then convergecast the
//! maximum back to `v`. Both phases take `O(D)` rounds. Since
//! `ecc(v) ≤ D ≤ 2·ecc(v)` for every `v`, the same procedure run from any
//! node is a 2-approximation of the diameter (the baseline in the paper's
//! introduction).

use congest::{bits, Config, RoundsLedger, RunStats};
use graphs::{Dist, Graph, NodeId};

use crate::aggregate::{self, Op};
use crate::bfs;
use crate::error::AlgoError;
use crate::leader;
use crate::tree_view::TreeView;

/// Result of a distributed eccentricity computation.
#[derive(Clone, Debug)]
pub struct EccOutcome {
    /// The node whose eccentricity was computed.
    pub node: NodeId,
    /// Its eccentricity.
    pub ecc: Dist,
    /// Combined round/bit accounting (BFS + convergecast).
    pub stats: RunStats,
}

/// Computes `ecc(v)` in `O(ecc(v))` rounds (BFS + convergecast).
///
/// # Errors
///
/// Returns [`AlgoError::Disconnected`] on disconnected graphs, or a wrapped
/// simulator error.
///
/// # Example
///
/// ```
/// use classical::ecc;
/// use congest::Config;
/// use graphs::{generators, NodeId};
///
/// let g = generators::path(9);
/// let out = ecc::compute(&g, NodeId::new(4), Config::for_graph(&g))?;
/// assert_eq!(out.ecc, 4);
/// # Ok::<(), classical::AlgoError>(())
/// ```
pub fn compute(graph: &Graph, node: NodeId, config: Config) -> Result<EccOutcome, AlgoError> {
    let b = bfs::build(graph, node, config)?;
    let tree = TreeView::from(&b);
    let values: Vec<u64> = b.dists.iter().map(|&d| d as u64).collect();
    let agg = aggregate::convergecast(
        graph,
        &tree,
        &values,
        bits::for_dist(graph.len()),
        Op::Max,
        config,
    )?;
    let mut stats = b.stats;
    stats.absorb(&agg.stats);
    Ok(EccOutcome {
        node,
        ecc: agg.value as Dist,
        stats,
    })
}

/// Result of the trivial 2-approximation.
#[derive(Clone, Debug)]
pub struct TwoApproxOutcome {
    /// The estimate `E = ecc(leader)`; the true diameter satisfies
    /// `E ≤ D ≤ 2E`.
    pub estimate: Dist,
    /// The node whose eccentricity was used.
    pub node: NodeId,
    /// Per-phase round/bit accounting: leader election, then the
    /// eccentricity run (BFS + convergecast).
    pub ledger: RoundsLedger,
}

impl TwoApproxOutcome {
    /// Total rounds across all phases.
    pub fn rounds(&self) -> u64 {
        self.ledger.total_rounds()
    }
}

/// The trivial 2-approximation: elect a leader and compute its
/// eccentricity, in `O(D)` rounds.
///
/// # Errors
///
/// Returns [`AlgoError::Disconnected`] on disconnected graphs, or a wrapped
/// simulator error.
pub fn two_approx(graph: &Graph, config: Config) -> Result<TwoApproxOutcome, AlgoError> {
    if graph.is_empty() {
        return Err(AlgoError::InvalidParameter {
            reason: "empty graph".into(),
        });
    }
    let mut ledger = RoundsLedger::new();
    let elect = leader::elect(graph, config)?;
    ledger.add("leader election", elect.stats);
    let out = compute(graph, elect.leader, config)?;
    ledger.add("ecc(leader)", out.stats);
    Ok(TwoApproxOutcome {
        estimate: out.ecc,
        node: elect.leader,
        ledger,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::{generators, metrics};

    #[test]
    fn matches_reference_on_random_graphs() {
        for seed in 0..4 {
            let g = generators::random_connected(30, 0.1, seed);
            for v in [0usize, 11, 29] {
                let v = NodeId::new(v);
                let out = compute(&g, v, Config::for_graph(&g)).unwrap();
                assert_eq!(out.ecc, metrics::eccentricity(&g, v).unwrap());
            }
        }
    }

    #[test]
    fn rounds_are_linear_in_ecc() {
        let g = generators::path(50);
        let out = compute(&g, NodeId::new(0), Config::for_graph(&g)).unwrap();
        assert_eq!(out.ecc, 49);
        // BFS (ecc+2) + convergecast (ecc+1-ish).
        assert!(
            out.stats.rounds <= 2 * 49 + 6,
            "rounds = {}",
            out.stats.rounds
        );
    }

    #[test]
    fn two_approx_bounds_hold() {
        for (g, _) in [
            (generators::cycle(17), 0),
            (generators::grid(5, 8), 0),
            (generators::random_connected(40, 0.08, 2), 0),
            (generators::barbell(6, 10), 0),
        ] {
            let d = metrics::diameter(&g).unwrap();
            let out = two_approx(&g, Config::for_graph(&g)).unwrap();
            assert!(out.estimate <= d, "estimate exceeds diameter");
            assert!(2 * out.estimate >= d, "estimate below D/2");
        }
    }

    #[test]
    fn disconnected_two_approx_fails() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        assert!(two_approx(&g, Config::for_graph(&g)).is_err());
    }
}
