//! Greedy_Max: impacts computed once, top-k.

use crate::{top_k_by_count, RankedSession, Solver, SolverSession};
use fp_graph::NodeId;
use fp_num::Count;
use fp_propagation::{impacts, CGraph, FilterSet, ImpactEngine};

/// Greedy_Max (§4.2 "computational speedups"): compute the impact
/// `I(v) = (Prefix(v) − 1) × Suffix(v)` of every node *once* (no
/// filters placed) and select the `k` highest.
///
/// O(|E|) total. Matches Greedy_All whenever the top-k impacts are
/// spread across independent paths, but "fails to capture the
/// correlation between filters placed on the same path" — the paper's
/// Figure 10 pathology, reproduced in the citation-like dataset tests.
///
/// Scores come off a freshly initialized [`ImpactEngine`].
pub struct GreedyMax<C> {
    _count: core::marker::PhantomData<C>,
}

impl<C: Count> GreedyMax<C> {
    /// Construct the solver.
    pub fn new() -> Self {
        Self {
            _count: core::marker::PhantomData,
        }
    }

    /// Reference implementation: one fresh [`impacts`] sweep.
    /// Bit-identical placements to [`Solver::place`].
    pub fn place_full_recompute(cg: &CGraph, k: usize) -> FilterSet {
        let scores: Vec<C> = impacts(cg, &FilterSet::empty(cg.node_count()));
        FilterSet::from_nodes(
            cg.node_count(),
            top_k_by_count(&scores, k).into_iter().map(NodeId::new),
        )
    }
}

impl<C: Count> Default for GreedyMax<C> {
    fn default() -> Self {
        Self::new()
    }
}

impl<C: Count> Solver for GreedyMax<C> {
    fn name(&self) -> &'static str {
        "G_Max"
    }

    fn session<'a>(&'a self, cg: &'a CGraph, _seed: u64) -> Box<dyn SolverSession + 'a> {
        // Scores never change (Greedy_Max ignores already-placed
        // filters), so the whole ladder is the descending-score order:
        // ranking every positive candidate once makes each prefix the
        // solver's top-k placement.
        let engine = ImpactEngine::<C>::new(cg, FilterSet::empty(cg.node_count()));
        let mut scores = Vec::new();
        engine.impacts_into(&mut scores);
        let ranked = top_k_by_count(&scores, cg.node_count())
            .into_iter()
            .map(NodeId::new)
            .collect();
        Box::new(RankedSession::<C>::new(cg, ranked))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GreedyAll;
    use fp_graph::DiGraph;
    use fp_num::Sat64;

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
    fn agrees_with_greedy_all_for_k1() {
        let cg = figure1();
        let a = GreedyAll::<Sat64>::new().place(&cg, 1, 0);
        let b = GreedyMax::<Sat64>::new().place(&cg, 1, 0);
        assert_eq!(a.nodes(), b.nodes());
    }

    #[test]
    fn chain_pathology_overcounts_correlated_nodes() {
        // s → a → c1 → c2 → c3 → {t1, t2}; s → b → c1.
        // c1, c2, c3 all look impactful (recv 2 after the join? no —
        // only c1 has recv 2; c2, c3 have recv 2 as well because they
        // relay what c1 relays... recv(c2) = emit(c1) = 2). Filtering
        // c1 collapses the chain, but Greedy_Max picks several chain
        // nodes whose joint value is no better than one of them.
        let g = DiGraph::from_pairs(
            8,
            [
                (0, 1),
                (0, 2),
                (1, 3),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 6),
                (5, 7),
            ],
        )
        .unwrap();
        let cg = CGraph::new(&g, NodeId::new(0)).unwrap();
        let gm = GreedyMax::<Sat64>::new().place(&cg, 2, 0);
        // Both of Greedy_Max's picks lie on the same chain …
        let chain = [3usize, 4, 5];
        assert!(gm.nodes().iter().all(|v| chain.contains(&v.index())));
        // … so two filters achieve exactly what the best single filter
        // achieves (the chain head), while Greedy_All spends one.
        let ga = GreedyAll::<Sat64>::new().place(&cg, 2, 0);
        assert_eq!(ga.len(), 1, "Greedy_All stops after the chain head");
        let f_ga: Sat64 = fp_propagation::f_value(&cg, &ga);
        let f_gm: Sat64 = fp_propagation::f_value(&cg, &gm);
        assert_eq!(f_ga, f_gm, "second correlated filter added nothing");
    }

    #[test]
    fn respects_budget() {
        let cg = figure1();
        assert!(GreedyMax::<Sat64>::new().place(&cg, 0, 0).is_empty());
    }

    #[test]
    fn engine_path_matches_the_full_recompute_oracle() {
        let cg = figure1();
        for k in 0..=4 {
            assert_eq!(
                GreedyMax::<Sat64>::new().place(&cg, k, 0).nodes(),
                GreedyMax::<Sat64>::place_full_recompute(&cg, k).nodes(),
                "k={k}"
            );
        }
    }
}
