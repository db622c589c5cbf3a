//! Distributed source detection with limited bandwidth — Lenzen & Peleg,
//! PODC 2013 \[LP13\], the algorithm behind the classical
//! `Õ(√n + D)`-round `3/2`-approximation row of the paper's Table 1.
//!
//! **`(S, γ, σ)`-detection**: given a set `S` of sources, every node must
//! learn its `γ` closest sources within distance `σ` (ties broken toward
//! smaller source ids), using only one `O(log n)`-bit message per edge per
//! round.
//!
//! The algorithm is a lexicographically-ordered pipeline: every node
//! repeatedly broadcasts the smallest `(dist, src)` pair it knows and has
//! not sent yet (re-sending on improvement), and only ever forwards pairs
//! inside its own top-`γ` — a pair outside `v`'s top-`γ` cannot enter any
//! neighbour's top-`γ` *through `v`*. LP13's pipelining argument shows the
//! pair ranked `r` at `v` arrives by round `dist + r`, so `γ + σ` rounds
//! suffice; the driver runs `γ + σ + 2` for slack.
//!
//! Holzer et al.'s `3/2`-approximation ([`hprw`](crate::hprw)) uses the
//! same "closest source" primitive with `γ = 1`; this module provides the
//! general-`γ` machinery (and with `γ = |S|`, `σ = n`, a bandwidth-optimal
//! `S`-to-all distance computation).

use congest::{bits, Config, Network, NodeProgram, Payload, Round, RoundCtx, RunStats, Status};
use graphs::{Dist, Graph, NodeId};

use crate::error::AlgoError;

#[derive(Clone, Debug)]
struct PairMsg {
    dist: Dist,
    src: NodeId,
    /// Wire width of the pair in this network: a distance and a node id.
    dist_bits: u8,
    node_bits: u8,
}

impl Payload for PairMsg {
    fn size_bits(&self) -> usize {
        usize::from(self.dist_bits) + usize::from(self.node_bits)
    }
}

struct DetectProgram {
    gamma: usize,
    sigma: Dist,
    /// Known pairs, kept sorted lexicographically by (dist, src id).
    known: Vec<(Dist, NodeId)>,
    /// Pairs already broadcast (kept sorted the same way).
    sent: Vec<(Dist, NodeId)>,
}

impl DetectProgram {
    /// Inserts/improves a pair; returns whether anything changed.
    fn learn(&mut self, dist: Dist, src: NodeId) -> bool {
        if let Some(entry) = self.known.iter_mut().find(|(_, s)| *s == src) {
            if entry.0 <= dist {
                return false;
            }
            entry.0 = dist;
        } else {
            self.known.push((dist, src));
        }
        self.known.sort_unstable_by_key(|&(d, s)| (d, s));
        true
    }

    /// The smallest known pair within the top-γ/σ filter not yet sent.
    fn next_to_send(&self) -> Option<(Dist, NodeId)> {
        self.known
            .iter()
            .take(self.gamma)
            .filter(|&&(d, _)| d < self.sigma) // a forwarded copy costs +1
            .find(|p| self.sent.binary_search(p).is_err())
            .copied()
    }
}

impl NodeProgram for DetectProgram {
    type Msg = PairMsg;
    type Output = Vec<(Dist, NodeId)>;

    fn on_round(&mut self, ctx: &mut RoundCtx<'_, PairMsg>) -> Status {
        for &(_, PairMsg { dist, src, .. }) in ctx.inbox() {
            // Senders only forward pairs with dist < σ, so the candidate
            // dist + 1 never exceeds σ.
            self.learn(dist + 1, src);
        }
        if let Some((dist, src)) = self.next_to_send() {
            ctx.broadcast(PairMsg {
                dist,
                src,
                dist_bits: bits::for_dist(ctx.num_nodes()) as u8,
                node_bits: bits::for_node(ctx.num_nodes()) as u8,
            });
            let at = self.sent.binary_search(&(dist, src)).unwrap_err();
            self.sent.insert(at, (dist, src));
            Status::Active
        } else {
            Status::Halted
        }
    }

    fn finish(self, _node: NodeId) -> Vec<(Dist, NodeId)> {
        self.known
            .into_iter()
            .filter(|&(d, _)| d <= self.sigma)
            .take(self.gamma)
            .collect()
    }
}

/// Result of an `(S, γ, σ)`-detection run.
#[derive(Clone, Debug)]
pub struct DetectionOutcome {
    /// Per node: its `γ` closest sources within distance `σ`, sorted by
    /// `(distance, source id)`.
    pub lists: Vec<Vec<(Dist, NodeId)>>,
    /// Round/bit accounting.
    pub stats: RunStats,
}

/// The detection program at each node, as [`detect`] starts it.
fn program(is_source: &[bool], gamma: usize, sigma: Dist) -> impl Fn(NodeId) -> DetectProgram + '_ {
    move |v| DetectProgram {
        gamma,
        sigma,
        known: if is_source[v.index()] {
            vec![(0, v)]
        } else {
            Vec::new()
        },
        sent: Vec::new(),
    }
}

/// Runs `(S, γ, σ)`-source detection in `γ + σ + 2` rounds.
///
/// # Errors
///
/// Returns `Protocol` errors on malformed inputs, or a wrapped simulator
/// error.
///
/// # Example
///
/// ```
/// use classical::source_detection;
/// use congest::Config;
/// use graphs::{generators, NodeId};
///
/// let g = generators::path(8);
/// let sources = [NodeId::new(0), NodeId::new(7)];
/// let out = source_detection::detect(&g, &sources, 2, 7, Config::for_graph(&g))?;
/// // Node 3: source 0 at distance 3, source 7 at distance 4.
/// assert_eq!(out.lists[3], vec![(3, NodeId::new(0)), (4, NodeId::new(7))]);
/// # Ok::<(), classical::AlgoError>(())
/// ```
pub fn detect(
    graph: &Graph,
    sources: &[NodeId],
    gamma: usize,
    sigma: Dist,
    config: Config,
) -> Result<DetectionOutcome, AlgoError> {
    if gamma == 0 {
        return Err(AlgoError::InvalidParameter {
            reason: "gamma must be positive".into(),
        });
    }
    let mut is_source = vec![false; graph.len()];
    for &s in sources {
        if s.index() >= graph.len() {
            return Err(AlgoError::Protocol {
                reason: format!("source {s} out of range"),
            });
        }
        is_source[s.index()] = true;
    }
    let mut net = Network::new(graph, config, program(&is_source, gamma, sigma));
    let duration: Round = gamma as Round + u64::from(sigma) + 2;
    let stats = net.run_rounds(duration)?;
    Ok(DetectionOutcome {
        lists: net.into_outputs(),
        stats,
    })
}

/// Centralized reference for `(S, γ, σ)`-detection.
pub fn reference(
    graph: &Graph,
    sources: &[NodeId],
    gamma: usize,
    sigma: Dist,
) -> Vec<Vec<(Dist, NodeId)>> {
    use graphs::traversal::Bfs;
    let mut per_node: Vec<Vec<(Dist, NodeId)>> = vec![Vec::new(); graph.len()];
    let mut sorted: Vec<NodeId> = sources.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    for &s in &sorted {
        let bfs = Bfs::run(graph, s);
        for v in graph.nodes() {
            if let Some(d) = bfs.dist(v) {
                if d <= sigma {
                    per_node[v.index()].push((d, s));
                }
            }
        }
    }
    for list in &mut per_node {
        list.sort_unstable_by_key(|&(d, s)| (d, s));
        list.truncate(gamma);
    }
    per_node
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::differential::{self, Run};
    use graphs::generators;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn check(g: &Graph, sources: &[NodeId], gamma: usize, sigma: Dist) {
        let out = detect(g, sources, gamma, sigma, Config::for_graph(g)).unwrap();
        let expect = reference(g, sources, gamma, sigma);
        assert_eq!(
            out.lists, expect,
            "γ={gamma} σ={sigma} S={sources:?} on {g:?}"
        );
    }

    #[test]
    fn matches_reference_on_families() {
        let g = generators::grid(4, 5);
        let sources = [NodeId::new(0), NodeId::new(19), NodeId::new(7)];
        for gamma in [1usize, 2, 3] {
            for sigma in [1, 3, 10] {
                check(&g, &sources, gamma, sigma);
            }
        }
    }

    #[test]
    fn matches_reference_on_random_graphs() {
        for seed in 0..5 {
            let g = generators::random_connected(30, 0.1, seed);
            let mut rng = StdRng::seed_from_u64(seed);
            let sources: Vec<NodeId> = (0..6)
                .map(|_| NodeId::new(rng.random_range(0..30)))
                .collect();
            for gamma in [1usize, 3, 6] {
                check(&g, &sources, gamma, 29);
            }
            check(&g, &sources, 2, 3);
        }
    }

    #[test]
    fn gamma_one_is_closest_source() {
        // γ = 1 recovers the HPRW "closest node in S" primitive.
        let g = generators::path(10);
        let sources = [NodeId::new(0), NodeId::new(9)];
        let out = detect(&g, &sources, 1, 9, Config::for_graph(&g)).unwrap();
        assert_eq!(out.lists[2], vec![(2, NodeId::new(0))]);
        assert_eq!(out.lists[7], vec![(2, NodeId::new(9))]);
        assert_eq!(out.lists[4], vec![(4, NodeId::new(0))]);
        assert_eq!(out.lists[5], vec![(4, NodeId::new(9))]);
    }

    #[test]
    fn sigma_truncates_the_horizon() {
        let g = generators::path(12);
        let sources = [NodeId::new(0)];
        let out = detect(&g, &sources, 1, 4, Config::for_graph(&g)).unwrap();
        assert_eq!(out.lists[4], vec![(4, NodeId::new(0))]);
        assert!(out.lists[5].is_empty(), "beyond σ must be empty");
    }

    #[test]
    fn rounds_are_gamma_plus_sigma() {
        let g = generators::grid(6, 6);
        let sources: Vec<NodeId> = (0..8).map(NodeId::new).collect();
        let out = detect(&g, &sources, 4, 10, Config::for_graph(&g)).unwrap();
        assert_eq!(out.stats.rounds, 4 + 10 + 2);
    }

    #[test]
    fn all_sources_everywhere() {
        // γ = |S|, σ = n: full S-to-all distances.
        let g = generators::random_connected(20, 0.15, 7);
        let sources: Vec<NodeId> = vec![NodeId::new(1), NodeId::new(8), NodeId::new(15)];
        check(&g, &sources, 3, 19);
    }

    #[test]
    fn empty_source_set_yields_empty_lists() {
        let g = generators::cycle(6);
        let out = detect(&g, &[], 2, 5, Config::for_graph(&g)).unwrap();
        assert!(out.lists.iter().all(Vec::is_empty));
    }

    #[test]
    fn rejects_bad_parameters() {
        let g = generators::cycle(6);
        assert!(detect(&g, &[NodeId::new(9)], 1, 3, Config::for_graph(&g)).is_err());
        assert!(detect(&g, &[NodeId::new(0)], 0, 3, Config::for_graph(&g)).is_err());
    }

    #[test]
    fn program_matches_the_reference() {
        for (seed, g) in differential::graphs() {
            let is_source: Vec<bool> = (0..g.len() as u64).map(|i| (i + seed) % 3 == 0).collect();
            let (gamma, sigma) = (3, 4);
            for cfg in differential::configs(&g, seed) {
                let rounds = Run::Rounds(gamma as Round + u64::from(sigma) + 2);
                differential::check(&g, cfg, rounds, program(&is_source, gamma, sigma));
            }
        }
    }
}
