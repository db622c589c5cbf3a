use std::fmt;

use crate::{GraphBuilder, GraphError, NodeId};

/// An immutable, simple, undirected graph in CSR (compressed sparse row)
/// form.
///
/// Nodes are the dense indices `0..n`. Neighbour lists are sorted, which
/// makes iteration deterministic — important because the CONGEST simulator
/// and all experiments must be reproducible from a seed.
///
/// Use [`Graph::from_edges`] or [`GraphBuilder`] to construct a graph, or
/// one of the family constructors in [`generators`](crate::generators).
///
/// # Example
///
/// ```
/// use graphs::{Graph, NodeId};
///
/// let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)])?;
/// assert_eq!(g.len(), 4);
/// assert_eq!(g.num_edges(), 3);
/// assert_eq!(g.degree(NodeId::new(1)), 2);
/// # Ok::<(), graphs::GraphError>(())
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Graph {
    /// CSR row offsets; length `n + 1`.
    offsets: Vec<u32>,
    /// Concatenated sorted neighbour lists; length `2 * num_edges`.
    neighbors: Vec<NodeId>,
}

impl Graph {
    /// Builds a graph with `n` nodes from an iterator of undirected edges.
    ///
    /// The CSR arrays are built in bulk: one validating pass collects the
    /// edges and counts degrees, a prefix sum places the rows, one scatter
    /// writes both directions of every edge, and each row is sorted, which
    /// puts a repeated edge's two entries side by side. The cost is
    /// `O(n + m + Σ deg·log deg)` time and a fixed set of allocations (the
    /// CSR arrays, the edge list and one row cursor per node).
    ///
    /// # Errors
    ///
    /// Returns an error if an endpoint is out of range, an edge is a
    /// self-loop, or an edge appears twice, and [`GraphError::TooLarge`]
    /// if the valid edges overflow the `u32` CSR offsets. The error is the
    /// one a [`GraphBuilder`] reports when fed the edges one by one: that
    /// of the first offending edge in input order, so a duplicate beats any
    /// later out-of-range edge or self-loop, and `TooLarge` comes only when
    /// no edge is invalid.
    pub fn from_edges<I>(n: usize, edges: I) -> Result<Self, GraphError>
    where
        I: IntoIterator<Item = (usize, usize)>,
    {
        let edges = edges.into_iter();
        let mut pairs: Vec<(NodeId, NodeId)> = Vec::with_capacity(edges.size_hint().0);
        let mut offsets = vec![0u32; n + 1];
        for (u, v) in edges {
            if u >= n || v >= n || u == v {
                return Err(Graph::first_error(n, &pairs, Some((u, v))));
            }
            // A count wraps only past `u32::MAX` entries, which the size
            // check below rejects before any count is read.
            offsets[u + 1] = offsets[u + 1].wrapping_add(1);
            offsets[v + 1] = offsets[v + 1].wrapping_add(1);
            pairs.push((NodeId::new(u), NodeId::new(v)));
        }
        let total = 2 * pairs.len();
        if Graph::check_csr_size(total).is_err() {
            return Err(Graph::first_error(n, &pairs, None));
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor = offsets[..n].to_vec();
        let mut neighbors = vec![NodeId::default(); total];
        for &(u, v) in &pairs {
            let cu = &mut cursor[u.index()];
            neighbors[*cu as usize] = v;
            *cu += 1;
            let cv = &mut cursor[v.index()];
            neighbors[*cv as usize] = u;
            *cv += 1;
        }
        let mut duplicate = false;
        for w in offsets.windows(2) {
            let row = &mut neighbors[w[0] as usize..w[1] as usize];
            row.sort_unstable();
            duplicate |= row.windows(2).any(|p| p[0] == p[1]);
        }
        if duplicate {
            return Err(Graph::first_error(n, &pairs, None));
        }
        Ok(Graph { offsets, neighbors })
    }

    /// The error [`Graph::from_edges`] reports when its bulk build fails:
    /// the first error of a [`GraphBuilder`] fed the accepted edges and then
    /// `offending`, the edge that stopped the validating pass, if any. With
    /// neither an offending edge nor a duplicate, the edges overflow the CSR
    /// offsets.
    #[cold]
    fn first_error(
        n: usize,
        accepted: &[(NodeId, NodeId)],
        offending: Option<(usize, usize)>,
    ) -> GraphError {
        let mut builder = GraphBuilder::new(n);
        let replay = accepted.iter().map(|&(u, v)| (u.index(), v.index()));
        for (u, v) in replay.chain(offending) {
            if let Err(e) = builder.try_edge(u, v) {
                return e;
            }
        }
        GraphError::TooLarge {
            entries: 2 * accepted.len(),
        }
    }

    /// Checks that `entries` directed adjacency entries fit the `u32` CSR
    /// offset space, before any proportional allocation happens.
    pub(crate) fn check_csr_size(entries: usize) -> Result<u32, GraphError> {
        u32::try_from(entries).map_err(|_| GraphError::TooLarge { entries })
    }

    pub(crate) fn from_adjacency(adj: Vec<Vec<NodeId>>) -> Result<Self, GraphError> {
        let total: usize = adj.iter().map(Vec::len).sum();
        Graph::check_csr_size(total)?;
        let mut offsets = Vec::with_capacity(adj.len() + 1);
        let mut neighbors = Vec::with_capacity(total);
        offsets.push(0);
        for mut row in adj {
            row.sort_unstable();
            neighbors.extend_from_slice(&row);
            offsets.push(neighbors.len() as u32);
        }
        Ok(Graph { offsets, neighbors })
    }

    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Returns `true` if the graph has no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.neighbors.len() / 2
    }

    /// The sorted neighbours of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        let lo = self.offsets[v.index()] as usize;
        let hi = self.offsets[v.index() + 1] as usize;
        &self.neighbors[lo..hi]
    }

    /// The CSR row offsets, of length `n + 1`: the neighbours of node `v`
    /// occupy positions `offsets[v]..offsets[v + 1]` of the concatenated
    /// neighbour lists, so `offsets[n]` is `2 * num_edges`. Callers can lay
    /// out per-directed-edge data in the same rows.
    #[inline]
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// Degree of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.neighbors(v).len()
    }

    /// Returns `true` if `{u, v}` is an edge.
    ///
    /// Runs in `O(log deg(u))`.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Iterates over all nodes.
    pub fn nodes(&self) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        (0..self.len()).map(NodeId::new)
    }

    /// Iterates over all undirected edges as `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.nodes().flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// Maximum degree over all nodes, or 0 for the empty graph.
    pub fn max_degree(&self) -> usize {
        self.nodes().map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// The bandwidth `⌈log₂(n+1)⌉` in bits that the CONGEST model grants per
    /// edge per round for this graph (at least 1).
    pub fn congest_bandwidth_bits(&self) -> usize {
        let n = self.len().max(1) as u64;
        (u64::BITS - n.leading_zeros()).max(1) as usize
    }
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Graph")
            .field("nodes", &self.len())
            .field("edges", &self.num_edges())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        Graph::from_edges(3, [(0, 1), (1, 2), (0, 2)]).unwrap()
    }

    #[test]
    fn basic_accessors() {
        let g = triangle();
        assert_eq!(g.len(), 3);
        assert!(!g.is_empty());
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.degree(NodeId::new(0)), 2);
        assert_eq!(g.max_degree(), 2);
    }

    #[test]
    fn neighbors_are_sorted() {
        let g = Graph::from_edges(4, [(2, 0), (2, 3), (2, 1)]).unwrap();
        let ns: Vec<usize> = g
            .neighbors(NodeId::new(2))
            .iter()
            .map(|v| v.index())
            .collect();
        assert_eq!(ns, vec![0, 1, 3]);
    }

    #[test]
    fn has_edge_is_symmetric() {
        let g = triangle();
        for (u, v) in g.edges() {
            assert!(g.has_edge(u, v));
            assert!(g.has_edge(v, u));
        }
        assert!(!g.has_edge(NodeId::new(0), NodeId::new(0)));
    }

    #[test]
    fn edges_iterates_each_edge_once() {
        let g = triangle();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 3);
        for (u, v) in edges {
            assert!(u < v);
        }
    }

    #[test]
    fn rejects_self_loop() {
        let err = Graph::from_edges(2, [(0, 0)]).unwrap_err();
        assert_eq!(err, GraphError::SelfLoop { node: 0 });
    }

    #[test]
    fn rejects_out_of_range() {
        let err = Graph::from_edges(2, [(0, 5)]).unwrap_err();
        assert_eq!(err, GraphError::NodeOutOfRange { node: 5, len: 2 });
    }

    #[test]
    fn rejects_duplicate_edge() {
        let err = Graph::from_edges(3, [(0, 1), (1, 0)]).unwrap_err();
        assert_eq!(err, GraphError::DuplicateEdge { u: 1, v: 0 });
    }

    #[test]
    fn empty_graph() {
        let g = Graph::from_edges(0, []).unwrap();
        assert!(g.is_empty());
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.max_degree(), 0);
    }

    /// The u32 overflow check is a typed error, not a panic. (Actually
    /// materializing ≥ 2³² adjacency entries would need tens of gigabytes,
    /// so the guard itself is what gets exercised.)
    #[test]
    fn oversized_csr_is_a_typed_error() {
        let entries = (u32::MAX as usize) + 1;
        assert_eq!(
            Graph::check_csr_size(entries).unwrap_err(),
            GraphError::TooLarge { entries }
        );
        assert_eq!(Graph::check_csr_size(6).unwrap(), 6);
    }

    #[test]
    fn bandwidth_grows_logarithmically() {
        let g = Graph::from_edges(1024, []).unwrap();
        assert_eq!(g.congest_bandwidth_bits(), 11); // ceil(log2(1025))
        let g1 = Graph::from_edges(1, []).unwrap();
        assert!(g1.congest_bandwidth_bits() >= 1);
    }
}
