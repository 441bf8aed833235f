//! Solvers for the probabilistic-relay extension (§3).
//!
//! Under probabilistic relaying, the natural objective is the expected
//! saving `E[F(A)]` over edge realizations. Expectation preserves
//! monotonicity and submodularity (both are closed under convex
//! combinations), so greedy keeps its `(1 − 1/e)` guarantee w.r.t. the
//! sampled objective. [`MonteCarloGreedy`] runs Greedy_All against the
//! *average impact across a fixed bundle of sampled realizations* — the
//! sample-average-approximation of the stochastic problem.

use crate::{argmax_count, FrCache, Solver, SolverSession};
use fp_graph::{DiGraph, NodeId};
use fp_num::{Approx64, Count, Wide128};
use fp_propagation::probabilistic::{sample_realization, RelayProb};
use fp_propagation::{impacts, CGraph, FilterSet};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Greedy placement against a sample-average of random edge
/// realizations.
pub struct MonteCarloGreedy {
    realizations: Vec<CGraph>,
}

impl MonteCarloGreedy {
    /// Sample `trials` realizations of `g` with uniform relay
    /// probability `p` (a subgraph of a DAG is a DAG, so each is a
    /// valid c-graph).
    pub fn new(g: &DiGraph, source: NodeId, p: f64, trials: usize, seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let probs = RelayProb::Uniform(p);
        let realizations = (0..trials.max(1))
            .map(|_| {
                let real = sample_realization(g, &probs, &mut rng);
                CGraph::new(&real, source).expect("realization of a DAG is a DAG")
            })
            .collect();
        Self { realizations }
    }

    /// Number of sampled realizations.
    pub fn trials(&self) -> usize {
        self.realizations.len()
    }

    /// Place `k` filters maximizing the sampled expected saving: the
    /// solver's own session walked to `k`. The bundle drives the picks;
    /// the first realization stands in for the c-graph a session reads
    /// only for [`SolverSession::fr`].
    pub fn place_sampled(&self, k: usize) -> FilterSet {
        self.place(&self.realizations[0], k, 0)
    }
}

/// The anytime session behind [`MonteCarloGreedy`]: the filter set
/// grows round by round against the sampled bundle (greedy on a
/// submodular sample-average is prefix-nested), with the combine
/// buffers allocated once. `fr()` reports the *deterministic* FR on
/// the session's c-graph — the sampled bundle has no single FR.
struct MonteCarloSession<'a> {
    solver: &'a MonteCarloGreedy,
    cg: &'a CGraph,
    filters: FilterSet,
    avg: Vec<Approx64>,
    imp: Vec<Approx64>,
    fr: FrCache<Wide128>,
}

impl SolverSession for MonteCarloSession<'_> {
    fn next_filter(&mut self) -> Option<NodeId> {
        for a in self.avg.iter_mut() {
            *a = Approx64::zero();
        }
        for cg in &self.solver.realizations {
            self.imp.clear();
            self.imp.extend(impacts::<Approx64>(cg, &self.filters));
            for (a, i) in self.avg.iter_mut().zip(&self.imp) {
                a.add_assign(i);
            }
        }
        let best = NodeId::new(argmax_count(&self.avg)?);
        self.filters.insert(best);
        Some(best)
    }

    fn placement(&self) -> &FilterSet {
        &self.filters
    }

    fn fr(&mut self) -> f64 {
        self.fr.fr_of(self.cg, &self.filters)
    }

    fn into_placement(self: Box<Self>) -> FilterSet {
        self.filters
    }
}

impl Solver for MonteCarloGreedy {
    fn session<'a>(&'a self, cg: &'a CGraph, _seed: u64) -> Box<dyn SolverSession + 'a> {
        // The realization bundle was sampled at construction (the
        // session seed is unused); the bundle, not `cg`, drives the
        // picks.
        let n = self.realizations.first().map_or(0, |cg| cg.node_count());
        Box::new(MonteCarloSession {
            solver: self,
            cg,
            filters: FilterSet::empty(n),
            avg: vec![Approx64::zero(); n],
            imp: Vec::with_capacity(n),
            fr: FrCache::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GreedyAll, Solver};
    use fp_num::Wide128;
    use fp_propagation::probabilistic::expected_filter_ratio;

    fn figure1() -> (DiGraph, NodeId) {
        (
            DiGraph::from_pairs(
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
            .unwrap(),
            NodeId::new(0),
        )
    }

    #[test]
    fn probability_one_reduces_to_greedy_all() {
        let (g, s) = figure1();
        let mc = MonteCarloGreedy::new(&g, s, 1.0, 4, 7);
        let cg = CGraph::new(&g, s).unwrap();
        let det = GreedyAll::<Wide128>::new().place(&cg, 2, 0);
        let sto = mc.place_sampled(2);
        assert_eq!(det.nodes(), sto.nodes());
    }

    #[test]
    fn sampled_placement_helps_in_expectation() {
        let (g, s) = figure1();
        let p = 0.8;
        let mc = MonteCarloGreedy::new(&g, s, p, 60, 11);
        assert_eq!(mc.trials(), 60);
        let placement = mc.place_sampled(2);
        let probs = RelayProb::Uniform(p);
        let fr = expected_filter_ratio(&g, s, &probs, &placement, 400, 3);
        let empty = FilterSet::empty(7);
        let fr0 = expected_filter_ratio(&g, s, &probs, &empty, 400, 3);
        assert!(
            fr > fr0,
            "placement must beat no filters: {fr:.3} vs {fr0:.3}"
        );
    }

    #[test]
    fn zero_probability_places_nothing() {
        let (g, s) = figure1();
        let mc = MonteCarloGreedy::new(&g, s, 0.0, 10, 1);
        assert!(mc.place_sampled(3).is_empty(), "no flow, no useful filter");
    }
}
