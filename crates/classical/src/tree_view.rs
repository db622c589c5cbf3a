//! A distributed tree: the per-node knowledge (parent, children) left behind
//! by a BFS construction, packaged for the tree-based protocols
//! (aggregation, DFS token walk).

use graphs::NodeId;

use crate::bfs::BfsOutcome;
use crate::error::AlgoError;

/// Global snapshot of a rooted spanning tree as the nodes know it: each node
/// its parent and its sorted children.
///
/// Protocol drivers take a `TreeView` plus per-node inputs and wire both
/// into the per-node programs — mirroring how, on a real network, each node
/// would retain its own row of this table from an earlier phase.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TreeView {
    root: NodeId,
    parents: Vec<Option<NodeId>>,
    children: Vec<Vec<NodeId>>,
}

impl TreeView {
    /// Builds a view from explicit per-node data, sorting each children
    /// list (the DFS walk resumes at the first child above the one it came
    /// back from, so it needs them sorted).
    ///
    /// # Errors
    ///
    /// Returns [`AlgoError::Protocol`] if the root is out of range, has a
    /// parent, or a non-root lacks one, or if children lists disagree with
    /// parents.
    pub fn new(
        root: NodeId,
        parents: Vec<Option<NodeId>>,
        mut children: Vec<Vec<NodeId>>,
    ) -> Result<Self, AlgoError> {
        let n = parents.len();
        if children.len() != n || root.index() >= n {
            return Err(AlgoError::Protocol {
                reason: "tree arrays size mismatch".into(),
            });
        }
        for (i, p) in parents.iter().enumerate() {
            match p {
                None if i != root.index() => {
                    return Err(AlgoError::Protocol {
                        reason: format!("non-root node v{i} has no parent"),
                    });
                }
                Some(p) if !children[p.index()].contains(&NodeId::new(i)) => {
                    return Err(AlgoError::Protocol {
                        reason: format!("parent of v{i} does not list it as a child"),
                    });
                }
                _ => {}
            }
        }
        if parents[root.index()].is_some() {
            return Err(AlgoError::Protocol {
                reason: "root has a parent".into(),
            });
        }
        for kids in &mut children {
            kids.sort_unstable();
        }
        Ok(TreeView {
            root,
            parents,
            children,
        })
    }

    /// The tree root.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.parents.len()
    }

    /// Returns `true` if the view covers no nodes.
    pub fn is_empty(&self) -> bool {
        self.parents.is_empty()
    }

    /// Parent of `v` (`None` for the root).
    pub fn parent(&self, v: NodeId) -> Option<NodeId> {
        self.parents[v.index()]
    }

    /// Sorted children of `v`.
    pub fn children(&self, v: NodeId) -> &[NodeId] {
        &self.children[v.index()]
    }

    /// Restricts the tree to the nodes selected by `member`, which must be
    /// *downward closed* (every selected node's parent is selected): the
    /// children lists are filtered, non-members keep empty entries.
    ///
    /// This is how the HPRW/quantum 3/2-approximation walks only the subtree
    /// of the `s` nodes closest to `w`.
    ///
    /// # Errors
    ///
    /// Returns [`AlgoError::Protocol`] if the root is excluded or the set is
    /// not downward closed.
    pub fn restrict(&self, member: impl Fn(NodeId) -> bool) -> Result<TreeView, AlgoError> {
        if !member(self.root) {
            return Err(AlgoError::Protocol {
                reason: "restriction excludes the root".into(),
            });
        }
        for v in 0..self.len() {
            let v = NodeId::new(v);
            if member(v) {
                if let Some(p) = self.parent(v) {
                    if !member(p) {
                        return Err(AlgoError::Protocol {
                            reason: format!("restriction is not downward closed at {v}"),
                        });
                    }
                }
            }
        }
        let children = self
            .children
            .iter()
            .enumerate()
            .map(|(i, kids)| {
                if member(NodeId::new(i)) {
                    kids.iter().copied().filter(|&c| member(c)).collect()
                } else {
                    Vec::new()
                }
            })
            .collect();
        Ok(TreeView {
            root: self.root,
            parents: self.parents.clone(),
            children,
        })
    }
}

impl From<&BfsOutcome> for TreeView {
    fn from(out: &BfsOutcome) -> Self {
        TreeView {
            root: out.root,
            parents: out.parents.clone(),
            children: out.children.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs;
    use congest::Config;
    use graphs::generators;

    fn view(n: usize, seed: u64) -> (graphs::Graph, TreeView) {
        let g = generators::random_connected(n, 0.1, seed);
        let out = bfs::build(&g, NodeId::new(0), Config::for_graph(&g)).unwrap();
        let view = TreeView::from(&out);
        (g, view)
    }

    #[test]
    fn from_bfs_is_consistent() {
        let (_, view) = view(30, 1);
        assert_eq!(view.root(), NodeId::new(0));
        assert_eq!(view.len(), 30);
        let edges: usize = (0..30).map(|v| view.children(NodeId::new(v)).len()).sum();
        assert_eq!(edges, 29);
        for v in 1..30 {
            let v = NodeId::new(v);
            let p = view.parent(v).unwrap();
            assert!(view.children(p).contains(&v));
        }
    }

    #[test]
    fn new_validates() {
        // Root with a parent.
        let err = TreeView::new(
            NodeId::new(0),
            vec![Some(NodeId::new(1)), None],
            vec![vec![], vec![NodeId::new(0)]],
        )
        .unwrap_err();
        assert!(matches!(err, AlgoError::Protocol { .. }));
        // Parent missing child.
        let err = TreeView::new(
            NodeId::new(0),
            vec![None, Some(NodeId::new(0))],
            vec![vec![], vec![]],
        )
        .unwrap_err();
        assert!(matches!(err, AlgoError::Protocol { .. }));
        // Valid two-node tree.
        let t = TreeView::new(
            NodeId::new(0),
            vec![None, Some(NodeId::new(0))],
            vec![vec![NodeId::new(1)], vec![]],
        )
        .unwrap();
        assert!(!t.is_empty());
    }

    /// Children given out of order are sorted, so the DFS walk, which
    /// resumes at the first child above the one it returned from, still
    /// visits every leaf of a star whose hub lists them descending.
    #[test]
    fn new_sorts_children() {
        let g = generators::star(2);
        let (hub, one, two) = (NodeId::new(0), NodeId::new(1), NodeId::new(2));
        let parents = vec![None, Some(hub), Some(hub)];
        let t = TreeView::new(hub, parents, vec![vec![two, one], vec![], vec![]]).unwrap();
        assert_eq!(t.children(hub), &[one, two]);
        let out = crate::dfs_walk::walk(&g, &t, hub, 4, Config::for_graph(&g)).unwrap();
        assert_eq!(out.tau, vec![Some(0), Some(1), Some(3)]);
    }

    #[test]
    fn restrict_filters_children() {
        let g = generators::path(6);
        let out = bfs::build(&g, NodeId::new(0), Config::for_graph(&g)).unwrap();
        let view = TreeView::from(&out);
        let small = view.restrict(|v| v.index() < 3).unwrap();
        assert_eq!(small.children(NodeId::new(0)), &[NodeId::new(1)]);
        assert_eq!(small.children(NodeId::new(1)), &[NodeId::new(2)]);
        assert!(small.children(NodeId::new(2)).is_empty());
        // Not downward closed: {0, 2} misses 1 (parent of 2).
        assert!(view.restrict(|v| v.index() != 1).is_err());
        // Excluding the root.
        assert!(view.restrict(|v| v.index() > 0).is_err());
    }
}
