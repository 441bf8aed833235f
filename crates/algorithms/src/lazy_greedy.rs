//! CELF-style lazy Greedy_All, and the CELF session both Greedy_All
//! solvers run.

use fp_graph::NodeId;
use fp_num::Count;
use fp_propagation::incremental::{unfiltered_forward, Forward, IncrementalPropagation};
use fp_propagation::{
    impacts, phi_total, CGraph, DeferredEngine, FilterSet, ImpactEngine, ObjectiveCache,
};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::{Solver, SolverSession};

/// Lazy (CELF) Greedy_All: identical selections to [`crate::GreedyAll`],
/// with an evaluation count.
///
/// Submodularity of `F` means a node's marginal gain can only shrink as
/// filters are added, so a stale gain is a valid upper bound. The solver
/// keeps a max-heap of `(stale gain, node)`; each round it pops the top,
/// re-evaluates that single node's exact gain, and either confirms it is
/// still on top or re-inserts it. This is the classic CELF speedup
/// [Leskovec et al., KDD'07] — one of the "computational speedups" the
/// paper calls for.
///
/// Both Greedy_All solvers run this one session; this one also reports
/// how many exact evaluations its last solve made
/// ([`LazyGreedyAll::evaluations`]). Re-scoring goes through a
/// [`DeferredEngine`], which keeps exact prefix/suffix state under the
/// filters chosen so far and settles the forward pass only through the
/// node it scores, instead of the full O(|E|) forward pass the
/// pre-engine implementation paid (kept as
/// [`LazyGreedyAll::place_full_recompute`], the equivalence oracle).
/// Engine impacts only shrink as filters are inserted — received counts
/// and suffixes are both non-increasing and the product is monotone
/// even for saturating counters — so the CELF upper-bound invariant
/// holds on this path too.
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

/// A CELF heap entry: `(gain bound, node, picks made when it was
/// scored)`. Entries order by bound, then toward the smaller node id —
/// exactly the eager argmax's tie-break; the third field never decides,
/// since a node appears at most once. It marks an entry re-scored since
/// the last pick, which is therefore exact.
type Entry<C> = (C, Reverse<u32>, u32);

/// The anytime session behind [`crate::GreedyAll`] and
/// [`LazyGreedyAll`]: CELF over a [`DeferredEngine`], both persisting
/// across budget rungs.
///
/// * The bound heap is seeded at the first pick, from the engine's
///   unfiltered impacts, so budget 0 costs the engine init alone.
/// * A pick re-scores stale candidates until one beats the next bound
///   (ties toward the smaller node id, as the eager argmax breaks
///   them). Each re-score settles the forward pass only through that
///   candidate.
/// * `fr()` needs `Φ(A,V)`, which the session keeps as
///   `Φ(∅,V) − Σ I(pick | picks before it)` — the marginal-gain
///   identity `Φ(A ∪ v) = Φ(A) − I(v|A)` — so no read settles the
///   frontier. While `Φ(∅,V)` is unsaturated every count of an exact
///   counter is exact, and this is the engine's `Φ` bit for bit; where
///   `Φ(∅,V)` saturates, `fr()` settles fully and reads the engine's
///   `Φ` instead.
pub(crate) struct CelfSession<'a, C: Count> {
    engine: DeferredEngine<'a, C>,
    heap: Option<BinaryHeap<Entry<C>>>,
    picks: u32,
    denominators: ObjectiveCache<C>,
    /// `Φ(A,V)` from the picks' gains; `None` where `Φ(∅,V)` saturates.
    phi: Option<C>,
    /// Exact evaluations so far (the heap seed counts as one), mirrored
    /// into the owning solver's counter when it keeps one.
    evals: u64,
    evaluations: Option<&'a AtomicU64>,
}

/// Count one exact evaluation into `evals` and the solver's counter.
fn count_eval(evals: &mut u64, evaluations: Option<&AtomicU64>) {
    *evals += 1;
    if let Some(counter) = evaluations {
        counter.store(*evals, Ordering::Relaxed);
    }
}

impl<'a, C: Count> CelfSession<'a, C> {
    fn new(
        cg: &'a CGraph,
        fwd: IncrementalPropagation<C>,
        evaluations: Option<&'a AtomicU64>,
    ) -> Self {
        let denominators = ObjectiveCache::from_forward(cg, &fwd);
        let phi_empty = denominators.phi_empty();
        let phi = (!phi_empty.is_saturated()).then(|| phi_empty.clone());
        if let Some(counter) = evaluations {
            counter.store(0, Ordering::Relaxed);
        }
        Self {
            engine: DeferredEngine::new(ImpactEngine::from_forward(cg, fwd)),
            heap: None,
            picks: 0,
            denominators,
            phi,
            evals: 0,
            evaluations,
        }
    }

    /// The heap of every positive unfiltered impact (one batch of
    /// evaluations), sized exactly: it is the session's largest buffer
    /// after the engine.
    fn seed(&mut self) -> BinaryHeap<Entry<C>> {
        let engine = self.engine.settle();
        let positive = engine.positive_impacts().count();
        let mut entries = Vec::with_capacity(positive);
        entries.extend(
            engine
                .positive_impacts()
                .map(|(v, gain)| (gain, Reverse(v.index() as u32), 0)),
        );
        count_eval(&mut self.evals, self.evaluations);
        BinaryHeap::from(entries)
    }
}

impl<C: Count> SolverSession for CelfSession<'_, C> {
    fn next_filter(&mut self) -> Option<NodeId> {
        if self.heap.is_none() {
            self.heap = Some(self.seed());
        }
        let heap = self.heap.as_mut().expect("seeded");
        loop {
            let (mut gain, Reverse(id), scored) = heap.pop()?;
            let v = NodeId::new(id as usize);
            if scored != self.picks {
                // Stale: re-score exactly, settling only through `v`.
                gain = self.engine.impact(v);
                count_eval(&mut self.evals, self.evaluations);
                if gain.is_zero() {
                    continue;
                }
                // Take it now if it still beats the next-best bound.
                let beaten = heap.peek().is_some_and(|(next, Reverse(u), _)| {
                    gain < *next || (gain == *next && *u < id)
                });
                if beaten {
                    heap.push((gain, Reverse(id), self.picks));
                    continue;
                }
            }
            // Fresh for this pick: by the upper-bound invariant it
            // dominates everything below it.
            self.engine.insert_filter(v);
            self.picks += 1;
            if let Some(phi) = &mut self.phi {
                *phi = phi.saturating_sub(&gain);
            }
            return Some(v);
        }
    }

    fn placement(&self) -> &FilterSet {
        self.engine.filters()
    }

    fn fr(&mut self) -> f64 {
        match &self.phi {
            Some(phi) => self.denominators.filter_ratio_from_phi(phi),
            None => self
                .denominators
                .filter_ratio_from_phi(self.engine.settle().phi()),
        }
    }

    fn into_placement(self: Box<Self>) -> FilterSet {
        self.engine.into_filters()
    }
}

/// A CELF session on `cg` for a solver declared at `C`, counting its
/// evaluations into `evaluations` when given.
pub(crate) fn celf_session<'a, C: Count>(
    cg: &'a CGraph,
    evaluations: Option<&'a AtomicU64>,
) -> Box<dyn SolverSession + 'a> {
    match unfiltered_forward::<C>(cg) {
        Forward::U64(fwd) => Box::new(CelfSession::new(cg, fwd, evaluations)),
        Forward::Declared(fwd) => Box::new(CelfSession::new(cg, fwd, evaluations)),
    }
}

impl<C: Count> Solver for LazyGreedyAll<C> {
    fn session<'a>(&'a self, cg: &'a CGraph, _seed: u64) -> Box<dyn SolverSession + 'a> {
        celf_session::<C>(cg, Some(&self.evaluations))
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
