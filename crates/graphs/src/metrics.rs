//! Distance metrics: eccentricities, diameter, radius.
//!
//! These are the centralized ground-truth quantities the paper's distributed
//! algorithms compute. Every all-sources quantity here ([`eccentricities`],
//! and through it [`diameter`], [`radius`] and [`peripheral_node`], plus
//! [`bipartite_delta`]) comes from one bit-parallel BFS kernel. It runs the
//! BFS of 64 sources at once, one bit per source in a `u64` word per node,
//! and advances a level by a pull over the CSR adjacency:
//! `next[v] = (OR_{u ∈ N(v)} frontier[u]) & !seen[v]`. A source's
//! eccentricity is the last level at which its bit appears. The cost is
//! `⌈n/64⌉ · (D + 1) · (n + 2m)` word operations with `3n` words of
//! scratch, against `n · (n + m)` queue operations for one BFS per node.
//!
//! The single-source [`eccentricity`] runs the plain [`Bfs`] and shares no
//! code with the kernel.

use crate::traversal::Bfs;
use crate::{Dist, Graph, NodeId};

/// Sources per kernel pass: one bit of a `u64` each.
const LANES: usize = 64;

/// Scratch for the bit-parallel BFS: bit `i` of a node's word stands for
/// source `i` of the current batch.
struct BitBfs<'g> {
    graph: &'g Graph,
    /// Sources that have reached each node so far.
    seen: Vec<u64>,
    /// Sources that reached each node at the previous level.
    frontier: Vec<u64>,
    /// Sources that reach each node at the current level.
    next: Vec<u64>,
}

impl<'g> BitBfs<'g> {
    fn new(graph: &'g Graph) -> Self {
        let n = graph.len();
        BitBfs {
            graph,
            seen: vec![0; n],
            frontier: vec![0; n],
            next: vec![0; n],
        }
    }

    /// Runs the BFS of every source in `batch` (at most [`LANES`]; bit `i`
    /// is `batch[i]`) and calls `level(d, words, reached)` for each level
    /// `d ≥ 1` that reaches a new node: `words[v]` holds the sources at
    /// distance exactly `d` from `v`, and `reached` is the OR of all words.
    ///
    /// Returns the final `seen` words: bit `i` of `seen[v]` is set iff `v`
    /// is reachable from `batch[i]`.
    fn run(&mut self, batch: &[NodeId], mut level: impl FnMut(Dist, &[u64], u64)) -> &[u64] {
        debug_assert!(!batch.is_empty() && batch.len() <= LANES);
        let full = lane_mask(batch.len());
        self.seen.fill(0);
        self.frontier.fill(0);
        for (i, v) in batch.iter().enumerate() {
            self.seen[v.index()] |= 1 << i;
            self.frontier[v.index()] |= 1 << i;
        }
        let n = self.seen.len();
        let mut complete = self.seen.iter().filter(|&&s| s == full).count();
        let mut d: Dist = 0;
        while complete < n {
            d += 1;
            let mut reached = 0;
            for (v, (seen, next)) in self.seen.iter_mut().zip(&mut self.next).enumerate() {
                let s = *seen;
                if s == full {
                    *next = 0;
                    continue;
                }
                let mut pulled = 0;
                for u in self.graph.neighbors(NodeId::new(v)) {
                    pulled |= self.frontier[u.index()];
                }
                let new = pulled & !s;
                *next = new;
                *seen = s | new;
                reached |= new;
                complete += usize::from(s | new == full);
            }
            if reached == 0 {
                break;
            }
            level(d, &self.next, reached);
            std::mem::swap(&mut self.frontier, &mut self.next);
        }
        &self.seen
    }
}

/// The low `lanes` bits set.
fn lane_mask(lanes: usize) -> u64 {
    if lanes == LANES {
        u64::MAX
    } else {
        (1 << lanes) - 1
    }
}

/// Eccentricity of `v`: the largest distance from `v` to any node.
///
/// Returns `None` if the graph is disconnected (the eccentricity is then
/// infinite) or empty.
pub fn eccentricity(graph: &Graph, v: NodeId) -> Option<Dist> {
    Bfs::run(graph, v).eccentricity()
}

/// Eccentricities of all nodes, or `None` if the graph is disconnected or
/// empty.
///
/// # Example
///
/// ```
/// use graphs::{generators, metrics};
///
/// assert_eq!(metrics::eccentricities(&generators::path(4)), Some(vec![3, 2, 2, 3]));
/// ```
pub fn eccentricities(graph: &Graph) -> Option<Vec<Dist>> {
    if graph.is_empty() {
        return None;
    }
    let sources: Vec<NodeId> = graph.nodes().collect();
    let mut eccs = vec![0; sources.len()];
    let mut bfs = BitBfs::new(graph);
    for (batch, ecc) in sources.chunks(LANES).zip(eccs.chunks_mut(LANES)) {
        let seen = bfs.run(batch, |d, _, mut reached| {
            while reached != 0 {
                ecc[reached.trailing_zeros() as usize] = d;
                reached &= reached - 1;
            }
        });
        let full = lane_mask(batch.len());
        if seen.iter().any(|&s| s != full) {
            return None;
        }
    }
    Some(eccs)
}

/// Diameter: the maximum eccentricity.
///
/// Returns `None` if the graph is disconnected or empty. The single-node
/// graph has diameter 0.
///
/// # Example
///
/// ```
/// use graphs::{generators, metrics};
///
/// assert_eq!(metrics::diameter(&generators::path(10)), Some(9));
/// assert_eq!(metrics::diameter(&generators::complete(10)), Some(1));
/// ```
pub fn diameter(graph: &Graph) -> Option<Dist> {
    eccentricities(graph)?.into_iter().max()
}

/// Radius: the minimum eccentricity.
///
/// Returns `None` if the graph is disconnected or empty.
pub fn radius(graph: &Graph) -> Option<Dist> {
    eccentricities(graph)?.into_iter().min()
}

/// A node of maximum eccentricity (a "peripheral" node) together with the
/// diameter, or `None` if disconnected/empty.
///
/// Ties break toward the smallest node id.
pub fn peripheral_node(graph: &Graph) -> Option<(NodeId, Dist)> {
    let eccs = eccentricities(graph)?;
    let (idx, &max) = eccs
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))?;
    Some((NodeId::new(idx), max))
}

/// Girth: the length of a shortest cycle, or `None` for forests.
///
/// Uses the standard edge-removal characterization: the shortest cycle
/// through an edge `{u, v}` has length `d_{G−uv}(u, v) + 1`, so the girth
/// is the minimum over edges. `O(m · (n + m))`.
///
/// # Example
///
/// ```
/// use graphs::{generators, metrics};
///
/// assert_eq!(metrics::girth(&generators::cycle(7)), Some(7));
/// assert_eq!(metrics::girth(&generators::path(7)), None);
/// assert_eq!(metrics::girth(&generators::complete(5)), Some(3));
/// ```
pub fn girth(graph: &Graph) -> Option<Dist> {
    use std::collections::VecDeque;
    let mut best: Option<Dist> = None;
    for (u, v) in graph.edges() {
        // BFS from u avoiding the edge {u, v}.
        let mut dist = vec![crate::INFINITY; graph.len()];
        let mut queue = VecDeque::new();
        dist[u.index()] = 0;
        queue.push_back(u);
        'bfs: while let Some(a) = queue.pop_front() {
            let da = dist[a.index()];
            if let Some(b) = best {
                // Cycles through this edge can no longer beat the best.
                if da + 1 >= b {
                    break 'bfs;
                }
            }
            for &c in graph.neighbors(a) {
                if (a == u && c == v) || (a == v && c == u) {
                    continue;
                }
                if dist[c.index()] == crate::INFINITY {
                    dist[c.index()] = da + 1;
                    queue.push_back(c);
                }
            }
        }
        if dist[v.index()] != crate::INFINITY {
            let cycle = dist[v.index()] + 1;
            best = Some(best.map_or(cycle, |b| b.min(cycle)));
        }
    }
    best
}

/// The largest distance between a node of `left` and a node of `right` —
/// the quantity `Δ(G)` of the paper's Section 5 (used by the
/// disjointness-to-diameter reductions, Definition 3).
///
/// Returns `None` if some pair is disconnected or either side is empty.
pub fn bipartite_delta(graph: &Graph, left: &[NodeId], right: &[NodeId]) -> Option<Dist> {
    if left.is_empty() || right.is_empty() {
        return None;
    }
    let mut best = 0;
    let mut bfs = BitBfs::new(graph);
    for batch in left.chunks(LANES) {
        let seen = bfs.run(batch, |d, words, _| {
            if right.iter().any(|v| words[v.index()] != 0) {
                best = best.max(d);
            }
        });
        let full = lane_mask(batch.len());
        if right.iter().any(|v| seen[v.index()] != full) {
            return None;
        }
    }
    Some(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::Graph;

    #[test]
    fn path_metrics() {
        let g = generators::path(9);
        assert_eq!(diameter(&g), Some(8));
        assert_eq!(radius(&g), Some(4));
        assert_eq!(eccentricity(&g, NodeId::new(4)), Some(4));
        assert_eq!(eccentricity(&g, NodeId::new(0)), Some(8));
    }

    #[test]
    fn cycle_metrics() {
        let g = generators::cycle(10);
        assert_eq!(diameter(&g), Some(5));
        assert_eq!(radius(&g), Some(5));
    }

    #[test]
    fn complete_graph_diameter_one() {
        let g = generators::complete(6);
        assert_eq!(diameter(&g), Some(1));
        assert_eq!(radius(&g), Some(1));
    }

    #[test]
    fn single_node() {
        let g = Graph::from_edges(1, []).unwrap();
        assert_eq!(diameter(&g), Some(0));
        assert_eq!(radius(&g), Some(0));
        assert_eq!(peripheral_node(&g), Some((NodeId::new(0), 0)));
    }

    #[test]
    fn disconnected_metrics_are_none() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        assert_eq!(diameter(&g), None);
        assert_eq!(radius(&g), None);
        assert_eq!(eccentricities(&g), None);
        assert_eq!(peripheral_node(&g), None);
    }

    #[test]
    fn peripheral_node_on_star() {
        let g = generators::star(5);
        let (v, ecc) = peripheral_node(&g).unwrap();
        assert_eq!(ecc, 2);
        assert_ne!(v, NodeId::new(0)); // the hub has eccentricity 1
        assert_eq!(v, NodeId::new(1)); // smallest id among the leaves
    }

    #[test]
    fn girth_on_families() {
        assert_eq!(girth(&generators::cycle(3)), Some(3));
        assert_eq!(girth(&generators::cycle(11)), Some(11));
        assert_eq!(girth(&generators::complete(4)), Some(3));
        assert_eq!(girth(&generators::grid(3, 4)), Some(4));
        assert_eq!(girth(&generators::hypercube(4)), Some(4));
        assert_eq!(girth(&generators::path(9)), None);
        assert_eq!(girth(&generators::star(6)), None);
        assert_eq!(girth(&generators::random_tree(30, 1)), None);
        // Subdividing multiplies the girth.
        let g = generators::subdivide(&generators::cycle(4), 2);
        assert_eq!(girth(&g), Some(12));
        // Barbell: the cliques contain triangles.
        assert_eq!(girth(&generators::barbell(4, 6)), Some(3));
    }

    #[test]
    fn girth_of_disconnected_graph_sees_each_component() {
        // Triangle plus a separate path: girth 3 despite disconnection.
        let g = Graph::from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5)]).unwrap();
        assert_eq!(girth(&g), Some(3));
    }

    #[test]
    fn bipartite_delta_on_path() {
        let g = generators::path(6);
        let left = [NodeId::new(0), NodeId::new(1)];
        let right = [NodeId::new(4), NodeId::new(5)];
        assert_eq!(bipartite_delta(&g, &left, &right), Some(5));
        assert_eq!(bipartite_delta(&g, &left, &[]), None);
    }

    #[test]
    fn diameter_equals_max_bipartite_delta_over_all_nodes() {
        let g = generators::grid(3, 4);
        let all: Vec<NodeId> = g.nodes().collect();
        assert_eq!(bipartite_delta(&g, &all, &all), diameter(&g));
    }
}
