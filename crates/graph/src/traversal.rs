//! Depth-first traversal.
//!
//! The Acyclic extraction (paper §4.3) needs a DFS from the source with
//! discovery times and the set of tree edges. It is iterative (no
//! recursion — paper-scale graphs are ~100k nodes deep in the worst
//! case).

use crate::{Csr, NodeId};

/// Result of a DFS from a single root.
#[derive(Clone, Debug)]
pub struct DfsResult {
    /// Discovery order: `discovery[i]` is the i-th node first visited.
    pub discovery: Vec<NodeId>,
    /// `discovery_time[v] = Some(i)` iff `v` was the i-th discovered;
    /// `None` for unreached nodes.
    pub discovery_time: Vec<Option<u32>>,
    /// DFS tree edges `(parent, child)` in the order they were used.
    pub tree_edges: Vec<(NodeId, NodeId)>,
    /// `parent[v]` in the DFS tree (`None` for the root and unreached).
    pub parent: Vec<Option<NodeId>>,
}

impl DfsResult {
    /// Whether `v` was reached.
    pub fn reached(&self, v: NodeId) -> bool {
        self.discovery_time[v.index()].is_some()
    }

    /// Number of reached nodes.
    pub fn reached_count(&self) -> usize {
        self.discovery.len()
    }
}

/// Iterative preorder DFS from `root`, exploring children in adjacency
/// order (first-listed child explored first, matching the recursive
/// formulation in the paper).
pub fn dfs_from(g: &Csr, root: NodeId) -> DfsResult {
    let n = g.node_count();
    let mut discovery = Vec::new();
    let mut discovery_time: Vec<Option<u32>> = vec![None; n];
    let mut tree_edges = Vec::new();
    let mut parent: Vec<Option<NodeId>> = vec![None; n];
    // Stack of (node, index of next child to try).
    let mut stack: Vec<(NodeId, usize)> = Vec::new();

    discovery_time[root.index()] = Some(0);
    discovery.push(root);
    stack.push((root, 0));

    while let Some(&mut (u, ref mut next)) = stack.last_mut() {
        let children = g.children(u);
        if *next >= children.len() {
            stack.pop();
            continue;
        }
        let v = children[*next];
        *next += 1;
        if discovery_time[v.index()].is_none() {
            discovery_time[v.index()] = Some(discovery.len() as u32);
            discovery.push(v);
            tree_edges.push((u, v));
            parent[v.index()] = Some(u);
            stack.push((v, 0));
        }
    }

    DfsResult {
        discovery,
        discovery_time,
        tree_edges,
        parent,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DiGraph;

    fn graph(n: usize, edges: &[(usize, usize)]) -> Csr {
        Csr::from_digraph(&DiGraph::from_pairs(n, edges.iter().copied()).unwrap())
    }

    #[test]
    fn dfs_discovery_order_follows_adjacency() {
        // 0 → {1, 2}; 1 → 3; 2 → 3.
        let g = graph(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let dfs = dfs_from(&g, NodeId::new(0));
        let order: Vec<usize> = dfs.discovery.iter().map(|v| v.index()).collect();
        assert_eq!(order, vec![0, 1, 3, 2]);
        assert_eq!(dfs.discovery_time[3], Some(2));
        assert_eq!(dfs.tree_edges.len(), 3);
        assert_eq!(dfs.parent[3], Some(NodeId::new(1)), "3 first reached via 1");
        assert!(dfs.reached(NodeId::new(2)));
        assert_eq!(dfs.reached_count(), 4);
    }

    #[test]
    fn dfs_ignores_unreachable_components() {
        let g = graph(4, &[(0, 1), (2, 3)]);
        let dfs = dfs_from(&g, NodeId::new(0));
        assert_eq!(dfs.reached_count(), 2);
        assert!(!dfs.reached(NodeId::new(2)));
        assert_eq!(dfs.discovery_time[3], None);
    }

    #[test]
    fn dfs_handles_cycles() {
        let g = graph(3, &[(0, 1), (1, 2), (2, 0)]);
        let dfs = dfs_from(&g, NodeId::new(0));
        assert_eq!(dfs.reached_count(), 3);
        assert_eq!(dfs.tree_edges.len(), 2, "back edge is not a tree edge");
    }

    #[test]
    fn tree_edges_form_a_spanning_tree_of_reached() {
        let g = graph(6, &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (1, 4)]);
        let dfs = dfs_from(&g, NodeId::new(0));
        assert_eq!(dfs.tree_edges.len(), dfs.reached_count() - 1);
    }
}
