//! Greedy_All (Algorithm 1): the `(1 − 1/e)`-approximation.

use crate::lazy_greedy::celf_session;
use crate::{argmax_count, Solver, SolverSession};
use fp_graph::NodeId;
use fp_num::Count;
use fp_propagation::{impacts, CGraph, FilterSet};

/// Greedy_All: each round, take the argmax over every node's exact
/// marginal impact `I(v|A)` under the filters already chosen.
///
/// Because `F` is nonnegative, monotone, and submodular, this enjoys
/// the Nemhauser–Wolsey–Fisher `(1 − 1/e)` guarantee (Theorem 3), and
/// is *optimal* for `k = 1`.
///
/// The argmax is found CELF-style, in the session
/// [`crate::LazyGreedyAll`] runs too: submodularity makes a stale
/// impact an upper bound, so each round re-scores only the candidates
/// that can still win, each through a
/// [`fp_propagation::DeferredEngine`] that settles the forward pass
/// only through the candidate it scores. Ties break toward the smaller
/// node id, so the picks are the eager argmax's — the paper's
/// two fresh O(|E|) sweeps per round live on as
/// [`GreedyAll::place_full_recompute`], the equivalence oracle. Rounds
/// stop early once no candidate has positive impact — extra filters
/// would be dead weight.
///
/// ```
/// use fp_algorithms::{GreedyAll, Solver};
/// use fp_graph::{DiGraph, NodeId};
/// use fp_num::Wide128;
/// use fp_propagation::CGraph;
///
/// // The paper's Figure 1: the only useful filter is z2 (node 4).
/// let g = DiGraph::from_pairs(
///     7,
///     [(0, 1), (0, 2), (1, 3), (1, 4), (2, 4), (2, 5), (3, 6), (4, 6), (5, 6)],
/// ).unwrap();
/// let cg = CGraph::new(&g, NodeId::new(0)).unwrap();
/// let placement = GreedyAll::<Wide128>::new().place(&cg, 1, 0);
/// assert_eq!(placement.nodes(), &[NodeId::new(4)]);
/// ```
pub struct GreedyAll<C> {
    _count: core::marker::PhantomData<C>,
}

impl<C: Count> GreedyAll<C> {
    /// Construct the solver.
    pub fn new() -> Self {
        Self {
            _count: core::marker::PhantomData,
        }
    }

    /// Reference implementation: fresh [`impacts`] sweeps every round,
    /// O(k·|E|) total. Bit-identical placements to [`Solver::place`];
    /// the equivalence proptests and the `ablation_engine` bench run
    /// both paths side by side.
    pub fn place_full_recompute(cg: &CGraph, k: usize) -> FilterSet {
        let mut filters = FilterSet::empty(cg.node_count());
        for _ in 0..k {
            let scores: Vec<C> = impacts(cg, &filters);
            match argmax_count(&scores) {
                Some(best) => {
                    filters.insert(NodeId::new(best));
                }
                None => break,
            }
        }
        filters
    }
}

impl<C: Count> Default for GreedyAll<C> {
    fn default() -> Self {
        Self::new()
    }
}

impl<C: Count> Solver for GreedyAll<C> {
    fn session<'a>(&'a self, cg: &'a CGraph, _seed: u64) -> Box<dyn SolverSession + 'a> {
        celf_session::<C>(cg, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fp_graph::DiGraph;
    use fp_num::{Sat64, Wide128};
    use fp_propagation::{f_value, phi_total};

    fn figure1() -> CGraph {
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
        CGraph::new(&g, NodeId::new(0)).unwrap()
    }

    #[test]
    fn figure1_first_pick_is_z2() {
        let cg = figure1();
        let placement = GreedyAll::<Sat64>::new().place(&cg, 1, 0);
        assert_eq!(placement.nodes(), &[NodeId::new(4)]);
    }

    #[test]
    fn stops_early_when_nothing_left_to_gain() {
        let cg = figure1();
        // One filter (z2) already achieves F(V); further picks have
        // zero impact and are skipped.
        let placement = GreedyAll::<Sat64>::new().place(&cg, 5, 0);
        assert_eq!(placement.len(), 1);
        let f: Sat64 = f_value(&cg, &placement);
        let fv: Sat64 = f_value(&cg, &FilterSet::all(7));
        assert_eq!(f, fv);
    }

    #[test]
    fn optimal_for_k1_on_a_tricky_graph() {
        // Figure 2's lesson: the high-degree-product node is not the
        // best filter. A: 3 parents, 1 child; B: 1 parent, 4 children.
        // ids: s=0, p1..p3=1..3, A=4, a-sink=5, q=6, B=7, b-sinks=8..11.
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
        let placement = GreedyAll::<Sat64>::new().place(&cg, 1, 0);
        assert_eq!(placement.nodes(), &[NodeId::new(4)], "A is optimal, not B");
        // And the gain matches the worked arithmetic: A saves (3-1)×1 = 2.
        let phi0: Sat64 = phi_total(&cg, &FilterSet::empty(12));
        let phi1: Sat64 = phi_total(&cg, &placement);
        assert_eq!(phi0.get() - phi1.get(), 2);
    }

    #[test]
    fn engine_path_matches_the_full_recompute_oracle() {
        let cg = figure1();
        for k in 0..=5 {
            assert_eq!(
                GreedyAll::<Sat64>::new().place(&cg, k, 0).nodes(),
                GreedyAll::<Sat64>::place_full_recompute(&cg, k).nodes(),
                "k={k}"
            );
        }
    }

    #[test]
    fn wide_and_sat_counters_choose_identically() {
        let cg = figure1();
        let a = GreedyAll::<Sat64>::new().place(&cg, 3, 0);
        let b = GreedyAll::<Wide128>::new().place(&cg, 3, 0);
        assert_eq!(a.nodes(), b.nodes());
    }
}
