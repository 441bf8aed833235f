//! Greedy_L (Algorithm 2): prefix × out-degree, recomputed per round.

use crate::{argmax_count, Celf, Gains, Solver, SolverSession};
use fp_graph::NodeId;
use fp_num::Count;
use fp_propagation::incremental::{unfiltered_forward, Forward, IncrementalPropagation};
use fp_propagation::{propagate, CGraph, FilterSet, ObjectiveCache, Propagation};

/// Greedy_L (§4.2): score candidates by the *local* impact
/// `I'(v) = Prefix(v) × dout(v)` — the number of copies `v` pushes to
/// its immediate children — re-evaluated after each pick with the
/// filter-aware prefix.
///
/// Two refinements over the paper's literal text, both discussed in
/// DESIGN.md:
///
/// * the score is `(Prefix(v) − 1) × dout(v)` so nodes that no longer
///   receive duplicates score zero and the algorithm can stop early
///   instead of placing dead filters;
/// * prefixes are maintained *incrementally* ("the only nodes whose
///   value of I' changes are those after v in the topological order …
///   clever bookkeeping allows us to make these updates in,
///   practically, constant time" — §5), and picked by the [`Celf`]
///   loop: a prefix only shrinks as filters are added, so a stale score
///   bounds the current one, and a round re-scores a few candidates
///   instead of all n nodes, each settling the pending forward pass
///   only through itself.
///
/// The prefix factor grows exponentially with distance from the source,
/// so Greedy_L "tends to pick nodes further away from the source" — the
/// cause of its slower FR convergence on the Twitter-like dataset.
pub struct GreedyL<C> {
    _count: core::marker::PhantomData<C>,
}

impl<C: Count> GreedyL<C> {
    /// Construct the solver.
    pub fn new() -> Self {
        Self {
            _count: core::marker::PhantomData,
        }
    }

    /// Reference implementation with a full forward pass per round
    /// (used by tests and the incremental-bookkeeping ablation bench).
    pub fn place_full_recompute(cg: &CGraph, k: usize) -> FilterSet {
        let mut filters = FilterSet::empty(cg.node_count());
        for _ in 0..k {
            let prop: Propagation<C> = propagate(cg, &filters);
            let scores: Vec<C> = cg
                .nodes()
                .map(|v| local_score(cg, &filters, v, &prop.received[v.index()]))
                .collect();
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

impl<C: Count> Default for GreedyL<C> {
    fn default() -> Self {
        Self::new()
    }
}

/// Greedy_L's gain, `(recv − 1)₊ · dout`, read from a forward kernel
/// ([`IncrementalPropagation`], the engine's forward half without its
/// suffix side) whose inserts leave the pass pending and whose reads
/// settle it only through the node read.
struct LocalGains<'a, C> {
    cg: &'a CGraph,
    fwd: IncrementalPropagation<C>,
}

/// `v`'s Greedy_L score from its reception: zero for the source and for
/// filters.
fn local_score<C: Count>(cg: &CGraph, filters: &FilterSet, v: NodeId, recv: &C) -> C {
    if v == cg.source() || filters.contains(v) {
        return C::zero();
    }
    recv.saturating_sub(&C::one())
        .mul(&C::from_u64(cg.csr().out_degree(v) as u64))
}

impl<C: Count> Gains for LocalGains<'_, C> {
    type Gain = C;

    fn positive(&mut self) -> impl Iterator<Item = (NodeId, C)> + '_ {
        self.fwd.settle(self.cg);
        let (cg, fwd) = (self.cg, &self.fwd);
        cg.nodes().filter_map(move |v| {
            let score = local_score(cg, fwd.filters(), v, fwd.received(v));
            (!score.is_zero()).then_some((v, score))
        })
    }

    fn gain(&mut self, v: NodeId) -> C {
        let recv = self.fwd.received_settled(self.cg, v).clone();
        local_score(self.cg, self.fwd.filters(), v, &recv)
    }

    fn take(&mut self, v: NodeId) {
        self.fwd.insert_filter_deferred(self.cg, v);
    }
}

/// The anytime session behind [`GreedyL`]: the [`Celf`] loop over the
/// filter-aware prefixes of one forward kernel, both persisting across
/// budget rungs. A stale score bounds the current one, because
/// receptions only shrink as filters are added, so a pick re-scores a
/// few candidates (each settling the pending pass only through itself)
/// instead of scanning every node. `fr()` settles the pass and reads
/// its `Φ` against denominators taken from the kernel's init. Like
/// Greedy_All's session it counts in `u64` when a [`fp_num::Wide128`]
/// solver's `Φ(∅,V)` fits.
pub struct GreedyLSession<'a, C: Count> {
    celf: Celf<LocalGains<'a, C>>,
    denominators: ObjectiveCache<C>,
}

impl<'a, C: Count> GreedyLSession<'a, C> {
    fn new(cg: &'a CGraph, fwd: IncrementalPropagation<C>) -> Self {
        Self {
            denominators: ObjectiveCache::from_forward(cg, &fwd),
            celf: Celf::new(LocalGains { cg, fwd }),
        }
    }
}

impl<C: Count> SolverSession for GreedyLSession<'_, C> {
    fn next_filter(&mut self) -> Option<NodeId> {
        self.celf.next().map(|(v, _)| v)
    }

    fn placement(&self) -> &FilterSet {
        self.celf.gains().fwd.filters()
    }

    fn fr(&mut self) -> f64 {
        let gains = self.celf.gains_mut();
        gains.fwd.settle(gains.cg);
        self.denominators.filter_ratio_from_phi(gains.fwd.phi())
    }

    fn into_placement(self: Box<Self>) -> FilterSet {
        self.celf.into_gains().fwd.into_filters()
    }
}

impl<C: Count> Solver for GreedyL<C> {
    fn session<'a>(&'a self, cg: &'a CGraph, _seed: u64) -> Box<dyn SolverSession + 'a> {
        match unfiltered_forward::<C>(cg) {
            Forward::U64(inc) => Box::new(GreedyLSession::new(cg, inc)),
            Forward::Declared(inc) => Box::new(GreedyLSession::new(cg, inc)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fp_graph::DiGraph;
    use fp_num::Sat64;

    #[test]
    fn prefers_deep_high_prefix_nodes() {
        // Diamond into a relay with two children: s→{a,b}→c; c→d; d→{e,f}.
        let g = DiGraph::from_pairs(7, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (4, 5), (4, 6)])
            .unwrap();
        let cg = CGraph::new(&g, NodeId::new(0)).unwrap();
        let gl = GreedyL::<Sat64>::new().place(&cg, 1, 0);
        assert_eq!(gl.nodes(), &[NodeId::new(4)], "G_L takes the deeper node");
        let ga = crate::GreedyAll::<Sat64>::new().place(&cg, 1, 0);
        assert_eq!(ga.nodes(), &[NodeId::new(3)], "G_ALL takes the join");
    }

    #[test]
    fn recomputes_prefix_after_each_pick() {
        let g = DiGraph::from_pairs(7, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (4, 5), (4, 6)])
            .unwrap();
        let cg = CGraph::new(&g, NodeId::new(0)).unwrap();
        let placement = GreedyL::<Sat64>::new().place(&cg, 3, 0);
        // d (4) first, then c (3); afterwards nothing has recv > 1.
        assert_eq!(placement.nodes(), &[NodeId::new(4), NodeId::new(3)]);
    }

    #[test]
    fn incremental_matches_full_recompute() {
        // Deterministic pseudo-random DAGs, several budgets.
        for seed in 0..8usize {
            let n = 16;
            let mut pairs = Vec::new();
            let mut state = seed.wrapping_mul(0x9E3779B9) | 1;
            for i in 0..n {
                for j in (i + 1)..n {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    if state >> 33 & 3 == 0 {
                        pairs.push((i, j));
                    }
                }
            }
            let mut g = DiGraph::from_pairs(n, pairs).unwrap();
            let s = g.add_node();
            let csr = fp_graph::Csr::from_digraph(&g);
            for v in fp_graph::sources(&csr) {
                if v != s {
                    g.add_edge(s, v);
                }
            }
            let cg = CGraph::new(&g, s).unwrap();
            for k in [1usize, 3, 6] {
                let fast = GreedyL::<Sat64>::new().place(&cg, k, 0);
                let slow = GreedyL::<Sat64>::place_full_recompute(&cg, k);
                assert_eq!(fast.nodes(), slow.nodes(), "seed {seed} k {k}");
            }
        }
    }

    #[test]
    fn zero_budget_returns_empty() {
        let g = DiGraph::from_pairs(2, [(0, 1)]).unwrap();
        let cg = CGraph::new(&g, NodeId::new(0)).unwrap();
        assert!(GreedyL::<Sat64>::new().place(&cg, 0, 0).is_empty());
    }
}
