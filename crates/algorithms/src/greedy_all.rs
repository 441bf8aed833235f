//! Greedy_All (Algorithm 1): the `(1 − 1/e)`-approximation.

use crate::{argmax_count, FrCache, Solver, SolverSession};
use fp_graph::NodeId;
use fp_num::Count;
use fp_propagation::{impacts, CGraph, FilterSet, ImpactEngine};

/// Greedy_All: each round, take the argmax over every node's exact
/// marginal impact `I(v|A)` under the filters already chosen.
///
/// Because `F` is nonnegative, monotone, and submodular, this enjoys
/// the Nemhauser–Wolsey–Fisher `(1 − 1/e)` guarantee (Theorem 3), and
/// is *optimal* for `k = 1`.
///
/// Marginals come from the [`ImpactEngine`], which keeps prefix and
/// suffix state up to date incrementally: after the initial O(|E|)
/// sweeps a round costs an O(n) argmax scan plus an
/// O(affected ∪ ancestors-of-pick) update, with zero per-round
/// allocation — instead of the two fresh O(|E|) sweeps per round the
/// naive path pays (kept as [`GreedyAll::place_full_recompute`], the
/// equivalence oracle). Rounds stop early once no candidate has
/// positive impact — extra filters would be dead weight.
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

/// The anytime session behind [`GreedyAll`]: one persistent
/// [`ImpactEngine`] whose state survives across budget rungs, so a
/// whole k-ladder costs one engine initialization plus one
/// O(n + affected) round per rung — and `fr()` is an O(1) read of the
/// engine's live `Φ`.
pub struct GreedyAllSession<'a, C: Count> {
    engine: ImpactEngine<'a, C>,
    fr: FrCache<C>,
}

impl<'a, C: Count> GreedyAllSession<'a, C> {
    fn new(cg: &'a CGraph) -> Self {
        Self {
            engine: ImpactEngine::new(cg, FilterSet::empty(cg.node_count())),
            fr: FrCache::new(),
        }
    }
}

impl<C: Count> SolverSession for GreedyAllSession<'_, C> {
    fn next_filter(&mut self) -> Option<NodeId> {
        let best = self.engine.best_candidate()?;
        self.engine.insert_filter(best);
        Some(best)
    }

    fn placement(&self) -> &FilterSet {
        self.engine.filters()
    }

    fn fr(&mut self) -> f64 {
        let phi = self.engine.phi().clone();
        self.fr.fr(self.engine.cgraph(), &phi)
    }

    fn into_placement(self: Box<Self>) -> FilterSet {
        self.engine.into_filters()
    }
}

impl<C: Count> Solver for GreedyAll<C> {
    fn name(&self) -> &'static str {
        "G_ALL"
    }

    fn session<'a>(&'a self, cg: &'a CGraph, _seed: u64) -> Box<dyn SolverSession + 'a> {
        Box::new(GreedyAllSession::<C>::new(cg))
    }

    fn place(&self, cg: &CGraph, k: usize, _seed: u64) -> FilterSet {
        // Same picks as a session walked `k` rungs, but the final pick
        // skips the engine's two update passes — nobody reads the
        // engine again on the one-shot path.
        let mut engine = ImpactEngine::<C>::new(cg, FilterSet::empty(cg.node_count()));
        for round in 0..k {
            let Some(best) = engine.best_candidate() else {
                break;
            };
            if round + 1 == k {
                let mut filters = engine.into_filters();
                filters.insert(best);
                return filters;
            }
            engine.insert_filter(best);
        }
        engine.into_filters()
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
