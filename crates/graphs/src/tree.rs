//! Rooted trees and Euler (depth-first) tours.
//!
//! The paper's exact algorithm numbers nodes by a depth-first traversal of
//! `BFS(leader)` (Definition 1): `τ(v)` is the number of tree-edge moves made
//! when `v` is first reached. The traversal visits every tree edge twice, so
//! it has `2(n-1)` moves; Lemma 1 treats it as a *circle* by attaching its
//! extremities, which is what [`EulerTour::node_at`] implements.

use crate::traversal::Bfs;
use crate::{Dist, GraphError, NodeId};

/// A rooted tree on nodes `0..n`, stored as parent pointers plus sorted
/// children lists.
///
/// # Example
///
/// ```
/// use graphs::{generators, traversal::Bfs, tree::RootedTree, NodeId};
///
/// let g = generators::path(4);
/// let bfs = Bfs::run(&g, NodeId::new(0));
/// let tree = RootedTree::from_bfs(&bfs)?;
/// assert_eq!(tree.root(), NodeId::new(0));
/// assert_eq!(tree.depth(), 3);
/// # Ok::<(), graphs::GraphError>(())
/// ```
#[derive(Clone, Debug)]
pub struct RootedTree {
    root: NodeId,
    parent: Vec<Option<NodeId>>,
    children: Vec<Vec<NodeId>>,
    depth: Vec<Dist>,
}

impl RootedTree {
    /// Builds a rooted tree from parent pointers.
    ///
    /// Exactly one entry must be `None` (the root); every other node must
    /// reach the root by following parents.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidParameter`] if there is not exactly one
    /// root, and [`GraphError::Disconnected`] if some node does not reach the
    /// root (including parent cycles).
    pub fn from_parents(parents: &[Option<NodeId>]) -> Result<Self, GraphError> {
        let n = parents.len();
        let roots: Vec<usize> = parents
            .iter()
            .enumerate()
            .filter(|(_, p)| p.is_none())
            .map(|(i, _)| i)
            .collect();
        if roots.len() != 1 {
            return Err(GraphError::InvalidParameter {
                reason: format!("expected exactly one root, found {}", roots.len()),
            });
        }
        let root = NodeId::new(roots[0]);
        let mut children: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        for (i, p) in parents.iter().enumerate() {
            if let Some(p) = *p {
                if p.index() >= n {
                    return Err(GraphError::NodeOutOfRange {
                        node: p.index(),
                        len: n,
                    });
                }
                children[p.index()].push(NodeId::new(i));
            }
        }
        for row in &mut children {
            row.sort_unstable();
        }
        // Compute depths top-down; any node left unvisited is in a cycle or
        // otherwise detached from the root.
        let mut depth = vec![Dist::MAX; n];
        let mut stack = vec![root];
        depth[root.index()] = 0;
        while let Some(u) = stack.pop() {
            for &c in &children[u.index()] {
                depth[c.index()] = depth[u.index()] + 1;
                stack.push(c);
            }
        }
        if depth.contains(&Dist::MAX) {
            return Err(GraphError::Disconnected);
        }
        Ok(RootedTree {
            root,
            parent: parents.to_vec(),
            children,
            depth,
        })
    }

    /// Builds the BFS tree of a completed search.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Disconnected`] if the BFS did not reach every
    /// node.
    pub fn from_bfs(bfs: &Bfs) -> Result<Self, GraphError> {
        Self::from_parents(bfs.parents())
    }

    /// The root node.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Returns `true` if the tree has no nodes (never constructible; kept for
    /// API completeness).
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Parent of `v` (`None` for the root).
    pub fn parent(&self, v: NodeId) -> Option<NodeId> {
        self.parent[v.index()]
    }

    /// Sorted children of `v`.
    pub fn children(&self, v: NodeId) -> &[NodeId] {
        &self.children[v.index()]
    }

    /// Height of the tree: the maximum depth.
    pub fn depth(&self) -> Dist {
        self.depth.iter().copied().max().unwrap_or(0)
    }
}

/// The Euler tour of a [`RootedTree`]: the cyclic sequence of nodes occupied
/// by a depth-first traversal that starts and ends at the root.
///
/// A tree with `n ≥ 2` nodes yields a cyclic tour of length `2(n-1)` moves;
/// `tour.node_at(t)` is the node occupied after `t` moves, indices taken
/// cyclically ("attaching the extremities", Lemma 1). The single-node tree
/// has the degenerate tour `[root]`.
///
/// `τ(v)` (Definition 1) is the first index at which `v` appears.
///
/// # Example
///
/// ```
/// use graphs::{generators, traversal::Bfs, tree::{EulerTour, RootedTree}, NodeId};
///
/// let g = generators::star(3); // hub 0, leaves 1..=3
/// let tree = RootedTree::from_bfs(&Bfs::run(&g, NodeId::new(0)))?;
/// let tour = EulerTour::new(&tree);
/// assert_eq!(tour.len(), 6); // 2 * (4 - 1)
/// assert_eq!(tour.tau(NodeId::new(0)), 0);
/// assert_eq!(tour.tau(NodeId::new(1)), 1);
/// # Ok::<(), graphs::GraphError>(())
/// ```
#[derive(Clone, Debug)]
pub struct EulerTour {
    /// Node occupied after `t` moves, `t ∈ 0..len` (cyclic).
    cycle: Vec<NodeId>,
    /// First-visit time per node.
    tau: Vec<usize>,
}

impl EulerTour {
    /// Computes the Euler tour of `tree`, visiting children in sorted order.
    pub fn new(tree: &RootedTree) -> Self {
        let n = tree.len();
        assert!(n > 0, "cannot tour an empty tree");
        if n == 1 {
            return EulerTour {
                cycle: vec![tree.root()],
                tau: vec![0],
            };
        }
        let mut cycle = Vec::with_capacity(2 * (n - 1));
        let mut tau = vec![usize::MAX; n];
        // Iterative DFS emitting the node after each move. `frame` holds the
        // index of the next child to descend into.
        let mut stack: Vec<(NodeId, usize)> = vec![(tree.root(), 0)];
        tau[tree.root().index()] = 0;
        let mut t = 0usize;
        while let Some(&mut (u, ref mut next_child)) = stack.last_mut() {
            let kids = tree.children(u);
            if *next_child < kids.len() {
                let c = kids[*next_child];
                *next_child += 1;
                t += 1;
                cycle.push(c);
                if tau[c.index()] == usize::MAX {
                    tau[c.index()] = t;
                }
                stack.push((c, 0));
            } else {
                stack.pop();
                if let Some(&(p, _)) = stack.last() {
                    t += 1;
                    cycle.push(p);
                }
            }
        }
        debug_assert_eq!(cycle.len(), 2 * (n - 1));
        // Shift so index 0 is the root (the loop above records positions
        // 1..=2(n-1); position 2(n-1) is the root again, i.e. cyclic index 0).
        cycle.rotate_right(1);
        debug_assert_eq!(cycle[0], tree.root());
        EulerTour { cycle, tau }
    }

    /// Length of the cyclic tour (`2(n-1)` for `n ≥ 2`, else 1).
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.cycle.len()
    }

    /// Number of nodes of the underlying tree.
    pub fn num_nodes(&self) -> usize {
        self.tau.len()
    }

    /// The node occupied after `t` moves; `t` is taken modulo the cyclic
    /// tour length.
    pub fn node_at(&self, t: usize) -> NodeId {
        self.cycle[t % self.cycle.len()]
    }

    /// First-visit time `τ(v)` of Definition 1 (`τ(root) = 0`).
    pub fn tau(&self, v: NodeId) -> usize {
        self.tau[v.index()]
    }

    /// The dense `τ` array.
    pub fn taus(&self) -> &[usize] {
        &self.tau
    }

    /// The nodes *first reached* during the `steps`-move segment starting at
    /// cyclic position `start`, together with the move offset at which each
    /// was first reached.
    ///
    /// The node occupying position `start` itself is reported at offset 0.
    /// This is exactly the set `S` with timestamps `τ'` computed by Step 1 of
    /// the paper's Figure 2.
    pub fn segment_first_visits(&self, start: usize, steps: usize) -> Vec<(NodeId, usize)> {
        let mut seen = vec![false; self.tau.len()];
        let mut out = Vec::new();
        for offset in 0..=steps.min(self.cycle.len().saturating_sub(1)) {
            let v = self.node_at(start + offset);
            if !seen[v.index()] {
                seen[v.index()] = true;
                out.push((v, offset));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generators, traversal::Bfs, Graph};

    fn tour_of(g: &Graph, root: usize) -> (RootedTree, EulerTour) {
        let bfs = Bfs::run(g, NodeId::new(root));
        let tree = RootedTree::from_bfs(&bfs).unwrap();
        let tour = EulerTour::new(&tree);
        (tree, tour)
    }

    #[test]
    fn from_parents_rejects_multiple_roots() {
        let err = RootedTree::from_parents(&[None, None]).unwrap_err();
        assert!(matches!(err, GraphError::InvalidParameter { .. }));
    }

    #[test]
    fn from_parents_rejects_cycle() {
        let parents = [Some(NodeId::new(1)), Some(NodeId::new(0)), None];
        let err = RootedTree::from_parents(&parents).unwrap_err();
        assert_eq!(err, GraphError::Disconnected);
    }

    #[test]
    fn depths_on_path() {
        let g = generators::path(5);
        let (tree, _) = tour_of(&g, 0);
        assert_eq!(tree.depth(), 4);
        for v in 1..5 {
            assert_eq!(tree.parent(NodeId::new(v)), Some(NodeId::new(v - 1)));
        }
        assert_eq!(tree.children(NodeId::new(2)), &[NodeId::new(3)]);
        assert_eq!(tree.parent(NodeId::new(0)), None);
        assert!(!tree.is_empty());
    }

    #[test]
    fn tour_length_and_tau_root() {
        let g = generators::grid(3, 3);
        let (tree, tour) = tour_of(&g, 0);
        assert_eq!(tour.len(), 2 * (tree.len() - 1));
        assert_eq!(tour.tau(tree.root()), 0);
        assert_eq!(tour.num_nodes(), 9);
    }

    #[test]
    fn tour_consecutive_positions_are_tree_edges() {
        let g = generators::random_connected(40, 0.1, 7);
        let (tree, tour) = tour_of(&g, 0);
        for t in 0..tour.len() {
            let a = tour.node_at(t);
            let b = tour.node_at(t + 1); // cyclic
            assert!(
                tree.parent(a) == Some(b) || tree.parent(b) == Some(a),
                "tour move {t} is not a tree edge"
            );
        }
    }

    #[test]
    fn every_node_visited_and_tau_is_first_visit() {
        let g = generators::random_tree(30, 3);
        let (_, tour) = tour_of(&g, 0);
        for v in 0..30 {
            let v = NodeId::new(v);
            let tau = tour.tau(v);
            assert!(tau < tour.len());
            assert_eq!(tour.node_at(tau), v);
            for t in 0..tau {
                assert_ne!(tour.node_at(t), v, "node visited before tau");
            }
        }
    }

    #[test]
    fn single_node_tour() {
        let g = Graph::from_edges(1, []).unwrap();
        let (_, tour) = tour_of(&g, 0);
        assert_eq!(tour.len(), 1);
        assert_eq!(tour.node_at(12345), NodeId::new(0));
        assert_eq!(tour.tau(NodeId::new(0)), 0);
    }

    #[test]
    fn star_tour_shape() {
        // Star with hub 0 and leaves 1, 2, 3: tour 0 1 0 2 0 3 (cyclic).
        let g = generators::star(3);
        let (_, tour) = tour_of(&g, 0);
        let seq: Vec<usize> = (0..tour.len()).map(|t| tour.node_at(t).index()).collect();
        assert_eq!(seq, vec![0, 1, 0, 2, 0, 3]);
    }

    #[test]
    fn segment_first_visits_matches_figure2_step1() {
        let g = generators::star(3);
        let (_, tour) = tour_of(&g, 0);
        // Start at position tau(2) = 3 and take 4 moves: positions 3,4,5,0,1
        // wait: 4 moves = offsets 0..=4 → nodes 2,0,3,0,1.
        let visits = tour.segment_first_visits(3, 4);
        let nodes: Vec<(usize, usize)> = visits.iter().map(|&(v, o)| (v.index(), o)).collect();
        assert_eq!(nodes, vec![(2, 0), (0, 1), (3, 2), (1, 4)]);
    }

    #[test]
    fn segment_longer_than_tour_visits_everything_once() {
        let g = generators::random_tree(12, 2);
        let (_, tour) = tour_of(&g, 0);
        let visits = tour.segment_first_visits(5, 10 * tour.len());
        assert_eq!(visits.len(), 12);
    }
}
