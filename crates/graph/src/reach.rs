//! Forward reachability over a [`crate::BitSet`].

use crate::{BitSet, Csr, NodeId};

/// The set of nodes reachable from `root` (including `root`).
pub fn reachable_from(g: &Csr, root: NodeId) -> BitSet {
    walk(g, root, None)
}

/// The set of nodes reachable from `root` with one occurrence of the
/// edge `from → to` left out: what [`reachable_from`] answers after
/// [`Csr::unsplice_edge`]`(from, to)`, without editing `g`.
pub fn reachable_without_edge(g: &Csr, root: NodeId, (from, to): (NodeId, NodeId)) -> BitSet {
    walk(g, root, Some((from, to)))
}

fn walk(g: &Csr, root: NodeId, skip: Option<(NodeId, NodeId)>) -> BitSet {
    let mut seen = BitSet::new(g.node_count());
    let mut stack = vec![root];
    seen.insert(root.index());
    while let Some(u) = stack.pop() {
        let children = g.children(u);
        // Each node is expanded once, so this drops exactly the first
        // occurrence, as `unsplice_edge` would.
        let cut = skip
            .filter(|&(from, _)| from == u)
            .and_then(|(_, to)| children.iter().position(|&c| c == to));
        for (i, &v) in children.iter().enumerate() {
            if cut != Some(i) && seen.insert(v.index()) {
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

    #[test]
    fn leaving_out_one_edge_matches_unsplicing_it() {
        // 0 → 1 twice, 1 → 2, 0 → 3 → 2: only leaving out 0 → 3 loses
        // a node, and leaving out one copy of 0 → 1 keeps the other.
        let g = graph(4, &[(0, 1), (0, 1), (1, 2), (0, 3), (3, 2)]);
        for (from, to) in [(0, 1), (1, 2), (0, 3), (3, 2)] {
            let edge = (NodeId::new(from), NodeId::new(to));
            let mut cut = g.clone();
            assert!(cut.unsplice_edge(edge.0, edge.1));
            let want: Vec<usize> = reachable_from(&cut, NodeId::new(0)).iter().collect();
            let got: Vec<usize> = reachable_without_edge(&g, NodeId::new(0), edge)
                .iter()
                .collect();
            assert_eq!(got, want, "{from} -> {to}");
            assert_eq!(got.len(), if (from, to) == (0, 3) { 3 } else { 4 });
        }
    }
}
