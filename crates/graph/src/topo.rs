//! Topological ordering.
//!
//! Every propagation pass iterates nodes in a topological order of the
//! DAG; [`topo_order`] computes one and doubles as the cycle check used
//! by the Acyclic extraction tests.

use crate::{Csr, GraphError, NodeId};

/// A topological order of `g`, or a node on a cycle if `g` is cyclic.
///
/// When every edge goes from a smaller id to a larger one — as in the
/// graphs of generators that label edges old → new, such as the
/// power-law stream — the identity order is already topological and
/// is returned as is, so passes that walk the order read id-indexed
/// arrays sequentially. Otherwise the order
/// is Kahn's FIFO layering, seeded with the sources in id order.
/// Either way it is deterministic, and every propagation value is a
/// per-node sum over the CSR lists, so no value depends on which of
/// the two orders a pass walks.
///
/// ```
/// use fp_graph::{topo_order, Csr, DiGraph, NodeId};
///
/// let g = DiGraph::from_pairs(3, [(2, 1), (1, 0)]).unwrap();
/// let order = topo_order(&Csr::from_digraph(&g)).unwrap();
/// assert_eq!(order, vec![NodeId::new(2), NodeId::new(1), NodeId::new(0)]);
/// ```
pub fn topo_order(g: &Csr) -> Result<Vec<NodeId>, GraphError> {
    let n = g.node_count();
    let labels_ascend = g
        .nodes()
        .all(|u| g.children(u).iter().all(|v| v.index() > u.index()));
    if labels_ascend {
        return Ok(g.nodes().collect());
    }
    let mut in_deg: Vec<u32> = (0..n).map(|v| g.in_degree(NodeId::new(v)) as u32).collect();
    let mut order = Vec::with_capacity(n);
    let mut queue: std::collections::VecDeque<NodeId> = (0..n)
        .map(NodeId::new)
        .filter(|&v| in_deg[v.index()] == 0)
        .collect();
    while let Some(u) = queue.pop_front() {
        order.push(u);
        for &v in g.children(u) {
            in_deg[v.index()] -= 1;
            if in_deg[v.index()] == 0 {
                queue.push_back(v);
            }
        }
    }
    if order.len() == n {
        return Ok(order);
    }
    // A node left with residual in-degree may sit downstream of the
    // cycle rather than on it. Every such node has a parent that is
    // also left over, so walking those parents must revisit a node,
    // and the first one revisited lies on a cycle.
    let mut on_cycle = (0..n)
        .map(NodeId::new)
        .find(|&v| in_deg[v.index()] > 0)
        .expect("some node has residual in-degree when a cycle exists");
    let mut seen = vec![false; n];
    while !seen[on_cycle.index()] {
        seen[on_cycle.index()] = true;
        on_cycle = *g
            .parents(on_cycle)
            .iter()
            .find(|p| in_deg[p.index()] > 0)
            .expect("a node left over by Kahn has a parent left over too");
    }
    Err(GraphError::CycleDetected { on_cycle })
}

/// Whether `order` is a permutation of `g`'s nodes with every edge
/// pointing from an earlier to a later position.
pub fn is_topological_order(g: &Csr, order: &[NodeId]) -> bool {
    let n = g.node_count();
    if order.len() != n {
        return false;
    }
    let mut pos = vec![usize::MAX; n];
    for (i, &v) in order.iter().enumerate() {
        if v.index() >= n || pos[v.index()] != usize::MAX {
            return false;
        }
        pos[v.index()] = i;
    }
    g.edges().all(|(u, v)| pos[u.index()] < pos[v.index()])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DiGraph;

    #[test]
    fn orders_a_dag() {
        let g = DiGraph::from_pairs(5, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]).unwrap();
        let csr = Csr::from_digraph(&g);
        let order = topo_order(&csr).unwrap();
        assert!(is_topological_order(&csr, &order));
        assert_eq!(order[0], NodeId::new(0));
        assert_eq!(order[4], NodeId::new(4));
    }

    #[test]
    fn detects_cycles() {
        let g = DiGraph::from_pairs(3, [(0, 1), (1, 2), (2, 0)]).unwrap();
        let err = topo_order(&Csr::from_digraph(&g)).unwrap_err();
        assert!(matches!(err, GraphError::CycleDetected { .. }));
    }

    #[test]
    fn cycle_witness_lies_on_the_cycle() {
        // Node 0 is left over by Kahn but hangs below the 1 ⇄ 2 cycle.
        let g = DiGraph::from_pairs(3, [(1, 2), (2, 1), (2, 0)]).unwrap();
        match topo_order(&Csr::from_digraph(&g)) {
            Err(GraphError::CycleDetected { on_cycle }) => {
                assert!(
                    matches!(on_cycle.index(), 1 | 2),
                    "{on_cycle} is off the cycle"
                );
            }
            other => panic!("expected a cycle, got {other:?}"),
        }
    }

    #[test]
    fn self_loops_are_cycles() {
        // 0 → 1, 1 → 1, 1 → 2, built directly: DiGraph refuses loops.
        let ids = |v: &[usize]| v.iter().map(|&i| NodeId::new(i)).collect::<Vec<_>>();
        let csr = Csr::from_parts(
            vec![0, 1, 3, 3],
            ids(&[1, 1, 2]),
            vec![0, 0, 2, 3],
            ids(&[0, 1, 1]),
        );
        assert_eq!(
            topo_order(&csr),
            Err(GraphError::CycleDetected {
                on_cycle: NodeId::new(1)
            })
        );
    }

    #[test]
    fn ascending_labels_keep_the_identity_order() {
        // Nodes 3 and 4 are isolated; every edge goes up.
        let g = DiGraph::from_pairs(6, [(0, 2), (2, 5), (1, 5), (0, 5)]).unwrap();
        let order = topo_order(&Csr::from_digraph(&g)).unwrap();
        assert_eq!(order, (0..6).map(NodeId::new).collect::<Vec<_>>());
    }

    #[test]
    fn any_descending_edge_falls_back_to_kahn() {
        let kahn = |n, pairs: &[(usize, usize)]| {
            let g = DiGraph::from_pairs(n, pairs.iter().copied()).unwrap();
            let order = topo_order(&Csr::from_digraph(&g)).unwrap();
            order.iter().map(|v| v.index()).collect::<Vec<_>>()
        };
        // The doc example: a path labelled backwards.
        assert_eq!(kahn(3, &[(2, 1), (1, 0)]), vec![2, 1, 0]);
        // One descending edge (3 → 1) among ascending ones: the FIFO
        // layering, not the identity, even though only 3 and 1 swap.
        assert_eq!(
            kahn(5, &[(0, 3), (3, 1), (1, 4), (2, 4)]),
            vec![0, 2, 3, 1, 4]
        );
    }

    #[test]
    fn isolated_nodes_are_ordered() {
        let g = DiGraph::with_nodes(3);
        let csr = Csr::from_digraph(&g);
        let order = topo_order(&csr).unwrap();
        assert_eq!(order.len(), 3);
        assert!(is_topological_order(&csr, &order));
    }

    #[test]
    fn checker_rejects_bad_orders() {
        let g = DiGraph::from_pairs(3, [(0, 1), (1, 2)]).unwrap();
        let csr = Csr::from_digraph(&g);
        // Wrong direction.
        assert!(!is_topological_order(
            &csr,
            &[NodeId::new(2), NodeId::new(1), NodeId::new(0)]
        ));
        // Not a permutation (duplicate).
        assert!(!is_topological_order(
            &csr,
            &[NodeId::new(0), NodeId::new(0), NodeId::new(2)]
        ));
        // Too short.
        assert!(!is_topological_order(&csr, &[NodeId::new(0)]));
    }

    #[test]
    fn deterministic_tie_breaking() {
        let g = DiGraph::from_pairs(4, [(0, 3), (1, 3), (2, 3)]).unwrap();
        let csr = Csr::from_digraph(&g);
        assert_eq!(
            topo_order(&csr).unwrap(),
            vec![
                NodeId::new(0),
                NodeId::new(1),
                NodeId::new(2),
                NodeId::new(3)
            ]
        );
    }
}
