//! Forward reachability over a [`crate::BitSet`].

use crate::{BitSet, Csr, NodeId};

/// The set of nodes reachable from `root` (including `root`).
pub fn reachable_from(g: &Csr, root: NodeId) -> BitSet {
    let mut seen = BitSet::new(g.node_count());
    let mut stack = vec![root];
    seen.insert(root.index());
    while let Some(u) = stack.pop() {
        for &v in g.children(u) {
            if seen.insert(v.index()) {
                stack.push(v);
            }
        }
    }
    seen
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DiGraph;

    fn graph(n: usize, edges: &[(usize, usize)]) -> Csr {
        Csr::from_digraph(&DiGraph::from_pairs(n, edges.iter().copied()).unwrap())
    }

    #[test]
    fn forward_reachability() {
        let g = graph(6, &[(0, 1), (1, 2), (3, 4)]);
        let r = reachable_from(&g, NodeId::new(0));
        let got: Vec<usize> = r.iter().collect();
        assert_eq!(got, vec![0, 1, 2]);
    }

    #[test]
    fn cycles_do_not_loop_forever() {
        let g = graph(3, &[(0, 1), (1, 2), (2, 0)]);
        assert_eq!(reachable_from(&g, NodeId::new(1)).len(), 3);
    }
}
