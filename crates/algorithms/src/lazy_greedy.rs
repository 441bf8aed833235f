//! CELF-style lazy Greedy_All.

use crate::session::{unfiltered_forward, Forward};
use crate::{FrCache, Solver, SolverSession};
use fp_graph::NodeId;
use fp_num::Count;
use fp_propagation::incremental::IncrementalPropagation;
use fp_propagation::{impacts, phi_total, CGraph, FilterSet, ImpactEngine, ObjectiveCache};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Lazy (CELF) Greedy_All: identical selections to [`crate::GreedyAll`],
/// usually far fewer marginal-gain evaluations.
///
/// Submodularity of `F` means a node's marginal gain can only shrink as
/// filters are added, so a stale gain is a valid upper bound. The solver
/// keeps a max-heap of `(stale gain, node)`; each round it pops the top,
/// re-evaluates that single node's exact gain, and either confirms it is
/// still on top or re-inserts it. This is the classic CELF speedup
/// [Leskovec et al., KDD'07] — one of the "computational speedups" the
/// paper calls for.
///
/// Re-scoring goes through the [`ImpactEngine`], which keeps exact
/// prefix/suffix state under the filters chosen so far: one stale entry
/// costs O(1) (a subtraction and a multiplication on current state)
/// instead of the full O(|E|) forward pass the pre-engine implementation
/// paid (kept as [`LazyGreedyAll::place_full_recompute`], the
/// equivalence oracle). Engine impacts only shrink as filters are
/// inserted — received counts and suffixes are both non-increasing and
/// the product is monotone even for saturating counters — so the CELF
/// upper-bound invariant holds on this path too.
pub struct LazyGreedyAll<C> {
    evaluations: AtomicU64,
    _count: core::marker::PhantomData<C>,
}

impl<C: Count> LazyGreedyAll<C> {
    /// Construct the solver.
    pub fn new() -> Self {
        Self {
            evaluations: AtomicU64::new(0),
            _count: core::marker::PhantomData,
        }
    }

    /// Number of single-node exact evaluations performed by the most
    /// recent [`Solver::place`] call (for the ablation bench).
    pub fn evaluations(&self) -> u64 {
        self.evaluations.load(Ordering::Relaxed)
    }

    /// Reference implementation (the pre-engine solver): the same CELF
    /// queue, but every re-score is a fresh `Φ(A) − Φ(A ∪ {v})` forward
    /// sweep and every pick re-runs `phi_total`. Places identically to
    /// [`Solver::place`] except when a *saturating* counter has clamped:
    /// there a Φ difference collapses to zero while the impact formula
    /// still ranks candidates, so the engine path — like eager
    /// [`crate::GreedyAll`], which always used the impact formula —
    /// keeps placing where this oracle stops. That regime needs source
    /// path counts beyond the counter's ceiling (2⁶⁴/2¹²⁸); the
    /// production counter is `Wide128` and the cross-validation suite
    /// pins its agreement with exact `BigCount` on every dataset.
    pub fn place_full_recompute(cg: &CGraph, k: usize) -> FilterSet {
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

impl<C: Count> Default for LazyGreedyAll<C> {
    fn default() -> Self {
        Self::new()
    }
}

/// The anytime session behind [`LazyGreedyAll`]: the CELF max-heap and
/// the incremental [`ImpactEngine`] both persist across budget rungs,
/// so a k-ladder pays the heap seeding once and each rung costs only
/// the pops-and-rescores that rung genuinely needs.
pub struct LazyGreedySession<'a, C: Count> {
    engine: ImpactEngine<'a, C>,
    heap: BinaryHeap<(C, Reverse<usize>)>,
    /// Round in which each node's gain was last computed.
    fresh_round: Vec<u32>,
    round: u32,
    evals: u64,
    /// The owning solver's evaluation counter, kept current so
    /// [`LazyGreedyAll::evaluations`] reports mid-ladder numbers too.
    evaluations: &'a AtomicU64,
    fr: FrCache<C>,
}

impl<'a, C: Count> LazyGreedySession<'a, C> {
    fn new(cg: &'a CGraph, fwd: IncrementalPropagation<C>, evaluations: &'a AtomicU64) -> Self {
        let n = cg.node_count();
        let fr = FrCache::seeded(ObjectiveCache::from_forward(cg, &fwd));
        let engine = ImpactEngine::from_forward(cg, fwd);
        // Seed the heap with the exact round-0 impacts, straight off
        // the freshly initialized engine (one batch — counted as 1).
        // Heap orders by (gain, Reverse(node)) so ties break toward the
        // smaller node id, matching the eager implementation.
        let heap: BinaryHeap<(C, Reverse<usize>)> = cg
            .nodes()
            .filter_map(|v| {
                let g = engine.impact(v);
                (!g.is_zero()).then_some((g, Reverse(v.index())))
            })
            .collect();
        evaluations.store(1, Ordering::Relaxed);
        Self {
            engine,
            heap,
            fresh_round: vec![0; n],
            round: 1,
            evals: 1,
            evaluations,
            fr,
        }
    }
}

impl<C: Count> SolverSession for LazyGreedySession<'_, C> {
    fn next_filter(&mut self) -> Option<NodeId> {
        loop {
            let (gain, Reverse(v)) = self.heap.pop()?;
            if gain.is_zero() {
                return None;
            }
            if self.fresh_round[v] == self.round {
                // Fresh for this round — by the upper-bound invariant it
                // dominates everything below it.
                self.engine.insert_filter(NodeId::new(v));
                self.round += 1;
                return Some(NodeId::new(v));
            }
            // Stale: re-score exactly from engine state, O(1).
            let exact = self.engine.impact(NodeId::new(v));
            self.evals += 1;
            self.evaluations.store(self.evals, Ordering::Relaxed);
            self.fresh_round[v] = self.round;
            if exact.is_zero() {
                continue;
            }
            // If it still beats the next-best stale bound, take it now.
            let take = match self.heap.peek() {
                None => true,
                Some((next, Reverse(u))) => exact > *next || (exact == *next && v < *u),
            };
            if take {
                self.engine.insert_filter(NodeId::new(v));
                self.round += 1;
                return Some(NodeId::new(v));
            }
            self.heap.push((exact, Reverse(v)));
        }
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

impl<C: Count> Solver for LazyGreedyAll<C> {
    fn session<'a>(&'a self, cg: &'a CGraph, _seed: u64) -> Box<dyn SolverSession + 'a> {
        let evaluations = &self.evaluations;
        match unfiltered_forward::<C>(cg) {
            Forward::U64(fwd) => Box::new(LazyGreedySession::new(cg, fwd, evaluations)),
            Forward::Declared(fwd) => Box::new(LazyGreedySession::new(cg, fwd, evaluations)),
        }
    }

    fn place(&self, cg: &CGraph, k: usize, seed: u64) -> FilterSet {
        if k == 0 {
            // No rounds means no evaluations — skip the session's
            // engine initialization and heap seeding entirely.
            self.evaluations.store(0, Ordering::Relaxed);
            return FilterSet::empty(cg.node_count());
        }
        let mut session = self.session(cg, seed);
        session.advance_to(k);
        session.into_placement()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GreedyAll;
    use fp_graph::DiGraph;
    use fp_num::Sat64;

    fn lattice() -> CGraph {
        // Two ranks of three, fully connected, then a joint sink rank.
        let mut pairs = vec![(0usize, 1usize), (0, 2), (0, 3)];
        for a in 1..=3 {
            for b in 4..=6 {
                pairs.push((a, b));
            }
        }
        for a in 4..=6 {
            for b in 7..=9 {
                pairs.push((a, b));
            }
        }
        let g = DiGraph::from_pairs(10, pairs).unwrap();
        CGraph::new(&g, NodeId::new(0)).unwrap()
    }

    #[test]
    fn matches_eager_greedy_all() {
        let cg = lattice();
        for k in 0..=6 {
            let eager = GreedyAll::<Sat64>::new().place(&cg, k, 0);
            let lazy_solver = LazyGreedyAll::<Sat64>::new();
            let lazy = lazy_solver.place(&cg, k, 0);
            assert_eq!(eager.nodes(), lazy.nodes(), "k={k}");
        }
    }

    #[test]
    fn matches_the_full_recompute_oracle() {
        let cg = lattice();
        for k in 0..=6 {
            let engine = LazyGreedyAll::<Sat64>::new().place(&cg, k, 0);
            let oracle = LazyGreedyAll::<Sat64>::place_full_recompute(&cg, k);
            assert_eq!(engine.nodes(), oracle.nodes(), "k={k}");
        }
    }

    #[test]
    fn matches_eager_on_figure1() {
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
        for k in 0..=4 {
            let eager = GreedyAll::<Sat64>::new().place(&cg, k, 0);
            let lazy = LazyGreedyAll::<Sat64>::new().place(&cg, k, 0);
            assert_eq!(eager.nodes(), lazy.nodes(), "k={k}");
        }
    }

    #[test]
    fn reports_evaluation_counts() {
        let cg = lattice();
        let solver = LazyGreedyAll::<Sat64>::new();
        let _ = solver.place(&cg, 4, 0);
        assert!(solver.evaluations() >= 1);
        // The whole point: far fewer than n evaluations per round.
        assert!(solver.evaluations() < 4 * 10);
    }
}
