//! Greedy_All (Algorithm 1): the `(1 − 1/e)`-approximation.

use crate::celf::celf_session;
use crate::{argmax_count, Solver, SolverSession};
use fp_graph::NodeId;
use fp_num::Count;
use fp_propagation::{impacts, phi_total, CGraph, FilterSet};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Greedy_All: each round, take the argmax over every node's exact
/// marginal impact `I(v|A)` under the filters already chosen.
///
/// Because `F` is nonnegative, monotone, and submodular, this enjoys
/// the Nemhauser–Wolsey–Fisher `(1 − 1/e)` guarantee (Theorem 3), and
/// is *optimal* for `k = 1`.
///
/// The argmax is found CELF-style [Leskovec et al., KDD'07], one of
/// the "computational speedups" the paper calls for: submodularity
/// makes a stale impact an upper bound, so each round re-scores only
/// the candidates that can still win, each through a
/// [`fp_propagation::DeferredEngine`] that settles the forward pass
/// only through the candidate it scores. Ties break toward the smaller
/// node id, so the picks are the eager argmax's — the paper's
/// two fresh O(|E|) sweeps per round live on as
/// [`GreedyAll::place_full_recompute`], the equivalence oracle, and the
/// pre-engine CELF loop as [`GreedyAll::place_celf_full_recompute`].
/// Rounds stop early once no candidate has positive impact — extra
/// filters would be dead weight.
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

    /// Reference implementation of the CELF loop (the pre-engine
    /// session): the same lazy queue, but every re-score is a fresh
    /// `Φ(A) − Φ(A ∪ {v})` forward sweep and every pick re-runs
    /// `phi_total`. Places identically to [`Solver::place`] except when
    /// a *saturating* counter has clamped: there a Φ difference
    /// collapses to zero while the impact formula still ranks
    /// candidates, so the engine path keeps placing where this oracle
    /// stops. That regime needs source path counts beyond the counter's
    /// ceiling (2⁶⁴/2¹²⁸); the production counter is `Wide128` and the
    /// cross-validation suite pins its agreement with exact `BigCount`
    /// on every dataset.
    pub fn place_celf_full_recompute(cg: &CGraph, k: usize) -> FilterSet {
        let n = cg.node_count();
        let mut filters = FilterSet::empty(n);
        if k == 0 {
            return filters;
        }
        let initial: Vec<C> = impacts(cg, &FilterSet::empty(n));
        let mut heap: BinaryHeap<(C, Reverse<usize>)> = initial
            .into_iter()
            .enumerate()
            .filter(|(_, g)| !g.is_zero())
            .map(|(v, g)| (g, Reverse(v)))
            .collect();

        let mut phi_current: C = phi_total(cg, &filters);
        let mut fresh_round = vec![0u32; n];
        let mut round: u32 = 1;

        while filters.len() < k {
            let Some((gain, Reverse(v))) = heap.pop() else {
                break;
            };
            if gain.is_zero() {
                break;
            }
            if fresh_round[v] == round {
                filters.insert(NodeId::new(v));
                phi_current = phi_total(cg, &filters);
                round += 1;
                continue;
            }
            let mut with_v = filters.clone();
            with_v.insert(NodeId::new(v));
            let phi_v: C = phi_total(cg, &with_v);
            let exact = phi_current.saturating_sub(&phi_v);
            fresh_round[v] = round;
            if exact.is_zero() {
                continue;
            }
            let take = match heap.peek() {
                None => true,
                Some((next, Reverse(u))) => exact > *next || (exact == *next && v < *u),
            };
            if take {
                filters.insert(NodeId::new(v));
                phi_current = phi_v;
                round += 1;
            } else {
                heap.push((exact, Reverse(v)));
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
        celf_session::<C>(cg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fp_graph::DiGraph;
    use fp_num::{Sat64, Wide128};
    use fp_propagation::f_value;

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
    fn engine_path_matches_both_full_recompute_oracles() {
        let cg = figure1();
        for k in 0..=5 {
            let placed = GreedyAll::<Sat64>::new().place(&cg, k, 0);
            assert_eq!(
                placed.nodes(),
                GreedyAll::<Sat64>::place_full_recompute(&cg, k).nodes(),
                "k={k}"
            );
            assert_eq!(
                placed.nodes(),
                GreedyAll::<Sat64>::place_celf_full_recompute(&cg, k).nodes(),
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
