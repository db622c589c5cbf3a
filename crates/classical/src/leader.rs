//! Leader election by min-id flooding.
//!
//! The paper assumes the network "has elected a node `leader`", which
//! standard methods achieve in `O(D)` rounds with `O(log n)` memory. This is
//! the textbook method: every node floods the smallest identifier it has
//! seen; after `D` rounds everyone agrees on the global minimum.
//!
//! Termination is detected by the simulator's quiescence check (in a real
//! network one composes this with an `O(D)`-round termination-detection
//! phase; the asymptotics are unchanged).

use congest::{bits, Config, Network, NodeProgram, Payload, RoundCtx, RunStats, Status};
use graphs::{Graph, NodeId};

use crate::error::AlgoError;

/// Message carrying a candidate leader identifier.
#[derive(Clone, Debug)]
struct Candidate {
    id: u32,
    /// Wire width of a node identifier in this network.
    node_bits: u8,
}

impl Payload for Candidate {
    fn size_bits(&self) -> usize {
        usize::from(self.node_bits)
    }
}

struct Elect {
    best: u32,
}

impl NodeProgram for Elect {
    type Msg = Candidate;
    type Output = NodeId;

    fn on_round(&mut self, ctx: &mut RoundCtx<'_, Candidate>) -> Status {
        let mut improved = ctx.round() == 0;
        for &(_, Candidate { id, .. }) in ctx.inbox() {
            if id < self.best {
                self.best = id;
                improved = true;
            }
        }
        if improved {
            ctx.broadcast(Candidate {
                id: self.best,
                node_bits: bits::for_node(ctx.num_nodes()) as u8,
            });
        }
        // Purely message-driven (round-0 start is covered by the initial
        // `Active` status), so `Halted` is the precise active-set vote.
        Status::Halted
    }

    fn finish(self, _node: NodeId) -> NodeId {
        NodeId::from(self.best)
    }
}

/// Result of a leader election.
#[derive(Clone, Debug)]
pub struct LeaderOutcome {
    /// The elected leader (the minimum node id).
    pub leader: NodeId,
    /// Round/bit accounting of the election.
    pub stats: RunStats,
}

/// Elects a leader on `graph` in `O(D)` rounds.
///
/// # Errors
///
/// Returns [`AlgoError::Disconnected`] if the components did not agree on a
/// single leader, or a wrapped simulator error.
///
/// # Example
///
/// ```
/// use classical::leader;
/// use congest::Config;
/// use graphs::{generators, NodeId};
///
/// let g = generators::grid(4, 4);
/// let out = leader::elect(&g, Config::for_graph(&g))?;
/// assert_eq!(out.leader, NodeId::new(0));
/// # Ok::<(), classical::AlgoError>(())
/// ```
pub fn elect(graph: &Graph, config: Config) -> Result<LeaderOutcome, AlgoError> {
    let fault_aware = config.has_faults();
    let mut net = Network::new(graph, config, |v| Elect { best: u32::from(v) });
    let cap = 4 * graph.len() as u64 + 16;
    let stats = net
        .run_until_quiescent(cap)
        .map_err(|e| AlgoError::from_congest(e, fault_aware))?;
    let outputs = net.into_outputs();
    let leader = outputs[0];
    if let Some(dissenter) = outputs.iter().position(|&l| l != leader) {
        // On a connected fault-free graph disagreement means the graph was
        // not connected after all; under faults it means the min-id flood
        // was severed before every node heard the winner.
        return Err(if fault_aware {
            AlgoError::FaultDetected {
                round: stats.rounds,
                detail: format!(
                    "leader election disagrees: node {dissenter} elected {}, node 0 elected \
                     {leader}",
                    outputs[dissenter]
                ),
            }
        } else {
            AlgoError::Disconnected
        });
    }
    Ok(LeaderOutcome { leader, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::differential::{self, Run};
    use graphs::{generators, metrics};

    #[test]
    fn elects_minimum_id() {
        let g = generators::random_connected(30, 0.12, 5);
        let out = elect(&g, Config::for_graph(&g)).unwrap();
        assert_eq!(out.leader, NodeId::new(0));
    }

    #[test]
    fn rounds_scale_with_diameter_not_n() {
        let g = generators::path(64);
        let out = elect(&g, Config::for_graph(&g)).unwrap();
        let d = metrics::diameter(&g).unwrap() as u64;
        assert!(out.stats.rounds >= d, "needs at least D rounds");
        assert!(
            out.stats.rounds <= d + 3,
            "rounds {} far above D={d}",
            out.stats.rounds
        );

        let g2 = generators::complete(64); // same n, tiny D
        let out2 = elect(&g2, Config::for_graph(&g2)).unwrap();
        assert!(out2.stats.rounds <= 4);
    }

    #[test]
    fn single_node() {
        let g = Graph::from_edges(1, []).unwrap();
        let out = elect(&g, Config::for_graph(&g)).unwrap();
        assert_eq!(out.leader, NodeId::new(0));
    }

    #[test]
    fn disconnected_graph_fails() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        let err = elect(&g, Config::for_graph(&g)).unwrap_err();
        assert_eq!(err, AlgoError::Disconnected);
    }

    #[test]
    fn program_matches_the_reference() {
        for (seed, g) in differential::graphs() {
            for cfg in differential::configs(&g, seed) {
                let cap = Run::Quiescent(4 * g.len() as u64 + 16);
                differential::check(&g, cfg, cap, |v| Elect { best: u32::from(v) });
            }
        }
    }
}
