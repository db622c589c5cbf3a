//! Breadth-first search and connectivity: the centralized reference
//! algorithms against which the distributed programs are verified.

use std::collections::VecDeque;

use crate::{Dist, Graph, NodeId, INFINITY};

/// The result of a breadth-first search from a single source: distances and
/// the BFS tree (parent pointers).
///
/// # Example
///
/// ```
/// use graphs::{generators, traversal::Bfs, NodeId};
///
/// let g = generators::path(5);
/// let bfs = Bfs::run(&g, NodeId::new(0));
/// assert_eq!(bfs.dist(NodeId::new(4)), Some(4));
/// assert_eq!(bfs.parent(NodeId::new(4)), Some(NodeId::new(3)));
/// ```
#[derive(Clone, Debug)]
pub struct Bfs {
    source: NodeId,
    dist: Vec<Dist>,
    parent: Vec<Option<NodeId>>,
}

impl Bfs {
    /// Runs BFS from `source`.
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of range.
    pub fn run(graph: &Graph, source: NodeId) -> Self {
        assert!(source.index() < graph.len(), "source out of range");
        let mut dist = vec![INFINITY; graph.len()];
        let mut parent = vec![None; graph.len()];
        let mut queue = VecDeque::new();
        dist[source.index()] = 0;
        queue.push_back(source);
        while let Some(u) = queue.pop_front() {
            let du = dist[u.index()];
            for &v in graph.neighbors(u) {
                if dist[v.index()] == INFINITY {
                    dist[v.index()] = du + 1;
                    parent[v.index()] = Some(u);
                    queue.push_back(v);
                }
            }
        }
        Bfs {
            source,
            dist,
            parent,
        }
    }

    /// The source node of this search.
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// Distance from the source to `v`, or `None` if unreachable.
    pub fn dist(&self, v: NodeId) -> Option<Dist> {
        let d = self.dist[v.index()];
        (d != INFINITY).then_some(d)
    }

    /// The dense distance array (`INFINITY` marks unreachable nodes).
    pub fn dists(&self) -> &[Dist] {
        &self.dist
    }

    /// Parent of `v` in the BFS tree (`None` for the source and for
    /// unreachable nodes).
    pub fn parent(&self, v: NodeId) -> Option<NodeId> {
        self.parent[v.index()]
    }

    /// The dense parent array of the BFS tree.
    pub fn parents(&self) -> &[Option<NodeId>] {
        &self.parent
    }

    /// Eccentricity of the source: the largest finite distance.
    ///
    /// Returns `None` if some node is unreachable (eccentricity is infinite)
    /// or the graph is empty.
    pub fn eccentricity(&self) -> Option<Dist> {
        let mut max = 0;
        for &d in &self.dist {
            if d == INFINITY {
                return None;
            }
            max = max.max(d);
        }
        if self.dist.is_empty() {
            None
        } else {
            Some(max)
        }
    }

    /// Depth of the BFS tree — identical to the source eccentricity when the
    /// graph is connected.
    pub fn depth(&self) -> Option<Dist> {
        self.eccentricity()
    }
}

/// Distance between two nodes, or `None` if disconnected.
pub fn distance(graph: &Graph, u: NodeId, v: NodeId) -> Option<Dist> {
    Bfs::run(graph, u).dist(v)
}

/// Returns `true` if the graph is connected (the empty graph counts as
/// connected).
pub fn is_connected(graph: &Graph) -> bool {
    if graph.is_empty() {
        return true;
    }
    let bfs = Bfs::run(graph, NodeId::new(0));
    bfs.dists().iter().all(|&d| d != INFINITY)
}

/// Labels connected components; returns `(labels, count)` where labels are
/// `0..count` in order of smallest contained node id.
pub fn connected_components(graph: &Graph) -> (Vec<usize>, usize) {
    let mut label = vec![usize::MAX; graph.len()];
    let mut count = 0;
    let mut queue = VecDeque::new();
    for s in graph.nodes() {
        if label[s.index()] != usize::MAX {
            continue;
        }
        label[s.index()] = count;
        queue.push_back(s);
        while let Some(u) = queue.pop_front() {
            for &v in graph.neighbors(u) {
                if label[v.index()] == usize::MAX {
                    label[v.index()] = count;
                    queue.push_back(v);
                }
            }
        }
        count += 1;
    }
    (label, count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn bfs_on_path() {
        let g = generators::path(6);
        let bfs = Bfs::run(&g, NodeId::new(0));
        for v in g.nodes() {
            assert_eq!(bfs.dist(v), Some(v.index() as Dist));
        }
        assert_eq!(bfs.eccentricity(), Some(5));
        assert_eq!(bfs.source(), NodeId::new(0));
    }

    #[test]
    fn bfs_parents_form_tree() {
        let g = generators::grid(4, 5);
        let bfs = Bfs::run(&g, NodeId::new(0));
        for v in g.nodes() {
            match bfs.parent(v) {
                Some(p) => {
                    assert!(g.has_edge(p, v));
                    assert_eq!(bfs.dist(v).unwrap(), bfs.dist(p).unwrap() + 1);
                }
                None => assert_eq!(v, NodeId::new(0)),
            }
        }
    }

    #[test]
    fn disconnected_graph() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        let bfs = Bfs::run(&g, NodeId::new(0));
        assert_eq!(bfs.dist(NodeId::new(2)), None);
        assert_eq!(bfs.dist(NodeId::new(3)), None);
        assert_eq!(bfs.eccentricity(), None);
        assert!(!is_connected(&g));
        let (labels, count) = connected_components(&g);
        assert_eq!(count, 2);
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[2], labels[3]);
        assert_ne!(labels[0], labels[2]);
    }

    #[test]
    fn distance_helper() {
        let g = generators::cycle(10);
        assert_eq!(distance(&g, NodeId::new(0), NodeId::new(5)), Some(5));
        assert_eq!(distance(&g, NodeId::new(0), NodeId::new(7)), Some(3));
    }

    #[test]
    fn empty_graph_is_connected() {
        let g = Graph::from_edges(0, []).unwrap();
        assert!(is_connected(&g));
        let (labels, count) = connected_components(&g);
        assert!(labels.is_empty());
        assert_eq!(count, 0);
    }
}
