//! Greedy_1: the degree-product heuristic.

use crate::{top_k_by_count, RankedSession, Solver, SolverSession};
use fp_graph::NodeId;
use fp_num::{Count, Wide128};
use fp_propagation::CGraph;

/// Greedy_1 (§4.2): score every node by the local copy lower bound
/// `m(v) = din(v) × dout(v)` and pick the top `k`.
///
/// O(|E| + n log n). Purely local — the paper's Figure 2 shows it can
/// prefer a well-connected node whose filtering saves nothing.
#[derive(Default)]
pub struct GreedyOne;

impl GreedyOne {
    /// Construct the solver.
    pub fn new() -> Self {
        Self
    }
}

impl Solver for GreedyOne {
    fn session<'a>(&'a self, cg: &'a CGraph, _seed: u64) -> Box<dyn SolverSession + 'a> {
        // The degree products are static, so the whole ladder is the
        // descending-m(v) order; every prefix is the top-k placement
        // (one-shot `place` comes from the trait default).
        let csr = cg.csr();
        let scores: Vec<Wide128> = cg
            .nodes()
            .map(|v| {
                if v == cg.source() {
                    Wide128::zero()
                } else {
                    Wide128::from_u64(csr.in_degree(v) as u64)
                        .mul(&Wide128::from_u64(csr.out_degree(v) as u64))
                }
            })
            .collect();
        let ranked = top_k_by_count(&scores, cg.node_count())
            .into_iter()
            .map(NodeId::new)
            .collect();
        Box::new(RankedSession::<Wide128>::new(cg, ranked))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fp_graph::DiGraph;

    #[test]
    fn picks_by_degree_product() {
        // m: x = y = z2 = 2 (1×2, 1×2, 2×1); z1 = z3 = 1; w = 3×0 = 0.
        let g = DiGraph::from_pairs(
            7,
            [
                (0, 1),
                (0, 2),
                (1, 3),
                (1, 4),
                (2, 4),
                (2, 5),
                (3, 6),
                (4, 6),
                (5, 6),
            ],
        )
        .unwrap();
        let cg = CGraph::new(&g, NodeId::new(0)).unwrap();
        let placement = GreedyOne::new().place(&cg, 3, 0);
        // The three m=2 nodes, ties broken by id.
        assert_eq!(
            placement.nodes(),
            &[NodeId::new(1), NodeId::new(2), NodeId::new(4)]
        );
        // The sink w never makes the cut even with a huge budget.
        let big = GreedyOne::new().place(&cg, 10, 0);
        assert!(!big.contains(NodeId::new(6)));
    }

    #[test]
    fn figure2_shows_the_weakness() {
        // B (din 1, dout 4) outranks A (din 3, dout 1) even though
        // filtering B saves nothing — the paper's Figure 2.
        let g = DiGraph::from_pairs(
            12,
            [
                (0, 1),
                (0, 2),
                (0, 3),
                (1, 4),
                (2, 4),
                (3, 4),
                (4, 5),
                (0, 6),
                (6, 7),
                (7, 8),
                (7, 9),
                (7, 10),
                (7, 11),
            ],
        )
        .unwrap();
        let cg = CGraph::new(&g, NodeId::new(0)).unwrap();
        let placement = GreedyOne::new().place(&cg, 1, 0);
        assert_eq!(placement.nodes(), &[NodeId::new(7)], "G_1 falls for B");
        let f: fp_num::Wide128 = fp_propagation::f_value(&cg, &placement);
        assert!(f.is_zero(), "and gains exactly nothing");
    }

    #[test]
    fn sinks_and_sources_score_zero() {
        let g = DiGraph::from_pairs(3, [(0, 1), (1, 2)]).unwrap();
        let cg = CGraph::new(&g, NodeId::new(0)).unwrap();
        // Only node 1 has positive m; k=3 still returns just {1}.
        let placement = GreedyOne::new().place(&cg, 3, 0);
        assert_eq!(placement.nodes(), &[NodeId::new(1)]);
    }
}
