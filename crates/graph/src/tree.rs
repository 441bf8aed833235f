//! Communication trees (c-trees) and the binary-tree transformation.
//!
//! The paper (§4.1) solves Filter Placement exactly on *c-trees*:
//! graphs that become a (rooted, directed) tree once the source node is
//! removed. The source may inject the item at any subset of tree nodes,
//! which is where multiplicity comes from — a node can receive one copy
//! from its tree parent and one directly from the source.
//!
//! The dynamic program runs over a binary transformation of the tree:
//! a node with `r > 2` children is expanded into a right-leaning spine
//! of *dump* nodes, each relaying copies unchanged. Dump nodes are not
//! filter candidates and do not count receptions (they do not exist in
//! the real graph).

use crate::{DiGraph, GraphError, NodeId};

/// A communication tree: a rooted directed tree plus per-node flags for
/// direct source injection.
#[derive(Clone, Debug)]
pub struct CTree {
    root: NodeId,
    /// `children[v.index()]` — tree children of `v`.
    children: Vec<Vec<NodeId>>,
    /// `injects[v.index()]` — whether the source has a direct edge to `v`.
    injects: Vec<bool>,
}

impl CTree {
    /// Build from explicit parts.
    ///
    /// `parent[v] = Some(u)` gives the tree edge `u → v`; the root is
    /// the unique node with `parent[v] = None`.
    pub fn new(parent: &[Option<NodeId>], injects: Vec<bool>) -> Result<Self, GraphError> {
        let n = parent.len();
        if injects.len() != n {
            return Err(GraphError::NotATree {
                reason: format!("parent has {n} entries but injects has {}", injects.len()),
            });
        }
        let mut roots = Vec::new();
        let mut children: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        for (vi, p) in parent.iter().enumerate() {
            match p {
                None => roots.push(NodeId::new(vi)),
                Some(u) => {
                    if u.index() >= n {
                        return Err(GraphError::NodeOutOfRange {
                            node: *u,
                            node_count: n,
                        });
                    }
                    children[u.index()].push(NodeId::new(vi));
                }
            }
        }
        if roots.len() != 1 {
            return Err(GraphError::NotATree {
                reason: format!("expected exactly one root, found {}", roots.len()),
            });
        }
        let tree = Self {
            root: roots[0],
            children,
            injects,
        };
        tree.check_connected_acyclic()?;
        Ok(tree)
    }

    fn check_connected_acyclic(&self) -> Result<(), GraphError> {
        let n = self.children.len();
        let mut seen = vec![false; n];
        let mut stack = vec![self.root];
        seen[self.root.index()] = true;
        let mut count = 1;
        while let Some(u) = stack.pop() {
            for &c in &self.children[u.index()] {
                if seen[c.index()] {
                    return Err(GraphError::NotATree {
                        reason: format!("node {c} reached twice (cycle or shared child)"),
                    });
                }
                seen[c.index()] = true;
                count += 1;
                stack.push(c);
            }
        }
        if count != n {
            return Err(GraphError::NotATree {
                reason: format!("only {count} of {n} nodes reachable from root"),
            });
        }
        Ok(())
    }

    /// Interpret `g` as a c-tree with the given source node.
    ///
    /// Requires: `source` has no incoming edges; every non-source node
    /// has exactly one non-source parent except one root (which has
    /// none); the tree is connected. Tree node ids are the original ids
    /// compacted by removing the source.
    pub fn from_digraph(g: &DiGraph, source: NodeId) -> Result<(Self, Vec<NodeId>), GraphError> {
        if source.index() >= g.node_count() {
            return Err(GraphError::NodeOutOfRange {
                node: source,
                node_count: g.node_count(),
            });
        }
        if g.in_degree(source) != 0 {
            return Err(GraphError::NotATree {
                reason: "source has incoming edges".into(),
            });
        }
        // Compact ids: original id → tree id.
        let tree_nodes: Vec<NodeId> = g.nodes().filter(|&v| v != source).collect();
        let mut compact: Vec<Option<NodeId>> = vec![None; g.node_count()];
        for (i, &v) in tree_nodes.iter().enumerate() {
            compact[v.index()] = Some(NodeId::new(i));
        }
        let n = tree_nodes.len();
        let mut parent: Vec<Option<NodeId>> = vec![None; n];
        let mut injects = vec![false; n];
        let mut has_parent = vec![false; n];
        for (u, v) in g.edges() {
            if v == source {
                unreachable!("source has no incoming edges");
            }
            let cv = compact[v.index()].expect("non-source node compacted");
            if u == source {
                injects[cv.index()] = true;
            } else {
                if has_parent[cv.index()] {
                    return Err(GraphError::NotATree {
                        reason: format!("node {v} has multiple tree parents"),
                    });
                }
                has_parent[cv.index()] = true;
                parent[cv.index()] = Some(compact[u.index()].expect("non-source node compacted"));
            }
        }
        let tree = Self::new(&parent, injects)?;
        Ok((tree, tree_nodes))
    }

    /// Number of tree nodes (excluding the implicit source).
    pub fn node_count(&self) -> usize {
        self.children.len()
    }

    /// The tree root.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Children of `v`.
    pub fn children(&self, v: NodeId) -> &[NodeId] {
        &self.children[v.index()]
    }

    /// Whether the source injects directly at `v`.
    pub fn injects(&self, v: NodeId) -> bool {
        self.injects[v.index()]
    }

    /// Render as a c-graph: tree nodes `0..n`, plus a source node `n`
    /// with an edge to every injected node. Returns the graph and the
    /// source id. Used to cross-check the tree DP against the general
    /// DAG machinery.
    pub fn to_digraph(&self) -> (DiGraph, NodeId) {
        let n = self.node_count();
        let mut g = DiGraph::with_nodes(n + 1);
        let s = NodeId::new(n);
        for v in 0..n {
            let v = NodeId::new(v);
            for &c in self.children(v) {
                g.add_edge(v, c);
            }
            if self.injects(v) {
                g.add_edge(s, v);
            }
        }
        (g, s)
    }

    /// The binary transformation of §4.1.
    pub fn to_binary(&self) -> BinaryTree {
        let n = self.node_count();
        let mut nodes: Vec<BinaryTreeNode> = (0..n)
            .map(|v| BinaryTreeNode {
                left: None,
                right: None,
                real: Some(NodeId::new(v)),
                injects: self.injects[v],
            })
            .collect();
        for v in 0..n {
            let kids = &self.children[v];
            match kids.len() {
                0 => {}
                1 => nodes[v].left = Some(kids[0].index() as u32),
                2 => {
                    nodes[v].left = Some(kids[0].index() as u32);
                    nodes[v].right = Some(kids[1].index() as u32);
                }
                r => {
                    // v → (c0, dump d1); d_i → (c_i, d_{i+1}); last dump
                    // gets the final two children.
                    nodes[v].left = Some(kids[0].index() as u32);
                    let mut attach = v;
                    for &kid in &kids[1..r - 1] {
                        let dump = nodes.len() as u32;
                        nodes.push(BinaryTreeNode {
                            left: Some(kid.index() as u32),
                            right: None,
                            real: None,
                            injects: false,
                        });
                        nodes[attach].right = Some(dump);
                        attach = dump as usize;
                    }
                    nodes[attach].right = Some(kids[r - 1].index() as u32);
                }
            }
        }
        BinaryTree {
            nodes,
            root: self.root.index() as u32,
        }
    }
}

/// A node of the binary transformation.
#[derive(Clone, Debug)]
pub struct BinaryTreeNode {
    /// Left child (index into [`BinaryTree::nodes`]).
    pub left: Option<u32>,
    /// Right child.
    pub right: Option<u32>,
    /// The original tree node, or `None` for a dump node.
    pub real: Option<NodeId>,
    /// Whether the source injects here (never true for dump nodes).
    pub injects: bool,
}

impl BinaryTreeNode {
    /// Whether this is an artificial dump node.
    pub fn is_dump(&self) -> bool {
        self.real.is_none()
    }
}

/// The binary transformation of a [`CTree`].
#[derive(Clone, Debug)]
pub struct BinaryTree {
    /// All nodes; indices `0..original_n` are the real nodes.
    pub nodes: Vec<BinaryTreeNode>,
    /// Index of the root.
    pub root: u32,
}

impl BinaryTree {
    /// Total node count including dump nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the transformation is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// root 0 with children 1,2,3; 2 has children 4,5; injections at 0 and 4.
    fn sample() -> CTree {
        let parent = [
            None,
            Some(NodeId::new(0)),
            Some(NodeId::new(0)),
            Some(NodeId::new(0)),
            Some(NodeId::new(2)),
            Some(NodeId::new(2)),
        ];
        let injects = vec![true, false, false, false, true, false];
        CTree::new(&parent, injects).unwrap()
    }

    #[test]
    fn construction_and_accessors() {
        let t = sample();
        assert_eq!(t.node_count(), 6);
        assert_eq!(t.root(), NodeId::new(0));
        assert_eq!(t.children(NodeId::new(0)).len(), 3);
        assert!(t.injects(NodeId::new(0)));
        assert!(t.injects(NodeId::new(4)));
        assert!(!t.injects(NodeId::new(1)));
    }

    #[test]
    fn rejects_two_roots() {
        let parent = [None, None];
        assert!(matches!(
            CTree::new(&parent, vec![false, false]),
            Err(GraphError::NotATree { .. })
        ));
    }

    #[test]
    fn rejects_cycle() {
        // 0 → 1 → 0 cannot be expressed via parent pointers with one
        // root, but a shared child can: both 0 and 1 parent node 2 is
        // also impossible. Test disconnection instead: 2's parent is 3,
        // 3's parent is 2 — two nodes unreachable from root 0 and a
        // parent cycle.
        let parent = [
            None,
            Some(NodeId::new(0)),
            Some(NodeId::new(3)),
            Some(NodeId::new(2)),
        ];
        assert!(matches!(
            CTree::new(&parent, vec![false; 4]),
            Err(GraphError::NotATree { .. })
        ));
    }

    #[test]
    fn binary_transform_shape() {
        let t = sample();
        let b = t.to_binary();
        // Node 0 has 3 children → one dump node added.
        assert_eq!(b.len(), 7);
        let root = &b.nodes[b.root as usize];
        assert_eq!(root.left, Some(1));
        let dump_idx = root.right.unwrap();
        let dump = &b.nodes[dump_idx as usize];
        assert!(dump.is_dump());
        assert!(!dump.injects);
        assert_eq!(dump.left, Some(2));
        assert_eq!(dump.right, Some(3));
        // Node 2 has exactly two children — no dump needed.
        let two = &b.nodes[2];
        assert_eq!(two.left, Some(4));
        assert_eq!(two.right, Some(5));
    }

    #[test]
    fn binary_transform_wide_node() {
        // Root with 5 children → 3 dump nodes (spine of r-2).
        let parent: Vec<Option<NodeId>> = std::iter::once(None)
            .chain((0..5).map(|_| Some(NodeId::new(0))))
            .collect();
        let t = CTree::new(&parent, vec![false; 6]).unwrap();
        let b = t.to_binary();
        assert_eq!(b.len(), 6 + 3);
        // Every real child appears exactly once as someone's left/right.
        let mut seen = vec![0u32; b.len()];
        for node in &b.nodes {
            for c in [node.left, node.right].into_iter().flatten() {
                seen[c as usize] += 1;
            }
        }
        for (i, &count) in seen.iter().enumerate() {
            if i as u32 == b.root {
                assert_eq!(count, 0);
            } else {
                assert_eq!(count, 1, "node {i} should have exactly one parent");
            }
        }
    }

    #[test]
    fn from_digraph_roundtrip() {
        let t = sample();
        let (g, s) = t.to_digraph();
        let (t2, mapping) = CTree::from_digraph(&g, s).unwrap();
        assert_eq!(t2.node_count(), t.node_count());
        assert_eq!(t2.root(), t.root());
        for v in 0..t.node_count() {
            let v = NodeId::new(v);
            assert_eq!(t2.injects(v), t.injects(v));
            assert_eq!(t2.children(v), t.children(v));
        }
        assert_eq!(mapping.len(), t.node_count());
    }

    #[test]
    fn from_digraph_rejects_dags_with_diamonds() {
        // 0 → 1, 0 → 2, 1 → 3, 2 → 3 is a DAG but not a tree.
        let mut g = DiGraph::from_pairs(4, [(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
        let s = g.add_node();
        g.add_edge(s, NodeId::new(0));
        assert!(CTree::from_digraph(&g, s).is_err());
    }

    #[test]
    fn from_digraph_rejects_source_with_incoming() {
        let mut g = DiGraph::from_pairs(2, [(0, 1)]).unwrap();
        let s = g.add_node();
        g.add_edge(s, NodeId::new(0));
        g.add_edge(NodeId::new(1), s);
        assert!(CTree::from_digraph(&g, s).is_err());
    }
}
