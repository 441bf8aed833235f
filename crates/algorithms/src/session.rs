//! Shared [`SolverSession`] building blocks.
//!
//! Three shapes cover every solver in the registry:
//!
//! * engine-backed round-by-round sessions (Greedy_All, CELF, Greedy_L)
//!   live next to their solvers — they own an incremental engine;
//! * [`RankedSession`] — solvers whose whole ladder is known up front
//!   as a ranked candidate list (Greedy_Max, Greedy_1, betweenness,
//!   Rand_K's shuffle): `next_filter` just pops the next candidate;
//! * the threshold draw of Rand_I/Rand_W (private to `random.rs`):
//!   `advance_to(k)` redraws the placement at budget `k` from the trial
//!   seed and `next_filter` reports `None`.
//!
//! All of them share the FR denominator pair (`Φ(∅,V)`, `F(V)`): a
//! session holds it once and every evaluation reuses it — this is what
//! retired the full `ObjectiveCache::f_of` pass per curve point that
//! the pre-session sweep paid. Engine-backed sessions take the pair
//! from their own engine init; the others compute it on the first
//! [`SolverSession::fr`] call ([`FrCache`]).
//!
//! Engine-backed sessions pick their counter with
//! [`fp_propagation::incremental::unfiltered_forward`]: a solver
//! declared at [`fp_num::Wide128`] counts in `u64` whenever `Φ(∅,V)`
//! fits.

use crate::{Solver, SolverSession};
use fp_graph::NodeId;
use fp_num::Count;
use fp_propagation::{phi_total, CGraph, FilterSet, ObjectiveCache};

/// A session's FR denominators (`Φ(∅,V)`, `F(V)`), held once for the
/// session's lifetime: either seeded from the session's own engine init
/// ([`FrCache::seeded`]) or computed on the first
/// [`SolverSession::fr`] call. All arithmetic lives in
/// [`ObjectiveCache`] itself, so session FRs are bit-identical to the
/// pass-based path by construction.
#[derive(Clone, Debug, Default)]
pub struct FrCache<C> {
    cache: Option<ObjectiveCache<C>>,
}

impl<C: Count> FrCache<C> {
    /// An empty cache (denominators computed on first use).
    pub fn new() -> Self {
        Self { cache: None }
    }

    /// A cache holding denominators already computed — what an
    /// engine-backed session takes from its forward kernel
    /// ([`ObjectiveCache::from_forward`]), so its first `fr()` runs no
    /// pass.
    pub fn seeded(cache: ObjectiveCache<C>) -> Self {
        Self { cache: Some(cache) }
    }

    /// `FR(A)` given the live `Φ(A, V)` (what engine-backed sessions
    /// hold); one forward pass for the denominators unless seeded,
    /// O(1) after that.
    pub fn fr(&mut self, cg: &CGraph, phi_current: &C) -> f64 {
        self.cache
            .get_or_insert_with(|| ObjectiveCache::new(cg))
            .filter_ratio_from_phi(phi_current)
    }

    /// `FR(A)` for a placement with no live Φ available (one forward
    /// pass per call, plus the one-time denominators).
    pub fn fr_of(&mut self, cg: &CGraph, filters: &FilterSet) -> f64 {
        let phi: C = phi_total(cg, filters);
        self.fr(cg, &phi)
    }
}

/// A ladder known in full at session start: candidates in pick order.
///
/// `next_filter` pops the next candidate, so the placement after `k`
/// steps is exactly the top-`k` prefix — bit-identical to the solver's
/// one-shot `top_k_by_count` (or shuffle-prefix) placement at every
/// budget. `C` is the counter used for FR evaluation.
pub struct RankedSession<'a, C> {
    cg: &'a CGraph,
    ranked: Vec<NodeId>,
    cursor: usize,
    placement: FilterSet,
    fr: FrCache<C>,
}

impl<'a, C: Count> RankedSession<'a, C> {
    /// Wrap a ranked candidate list (best first, already deduplicated).
    pub fn new(cg: &'a CGraph, ranked: Vec<NodeId>) -> Self {
        Self::with_fr(cg, ranked, FrCache::new())
    }

    /// [`RankedSession::new`] with denominators the ranking already
    /// produced (Greedy_Max ranks off an engine init).
    pub fn with_fr(cg: &'a CGraph, ranked: Vec<NodeId>, fr: FrCache<C>) -> Self {
        Self {
            cg,
            ranked,
            cursor: 0,
            placement: FilterSet::empty(cg.node_count()),
            fr,
        }
    }
}

impl<C: Count> SolverSession for RankedSession<'_, C> {
    fn next_filter(&mut self) -> Option<NodeId> {
        let &v = self.ranked.get(self.cursor)?;
        self.cursor += 1;
        self.placement.insert(v);
        Some(v)
    }

    fn placement(&self) -> &FilterSet {
        &self.placement
    }

    fn fr(&mut self) -> f64 {
        self.fr.fr_of(self.cg, &self.placement)
    }

    fn into_placement(self: Box<Self>) -> FilterSet {
        self.placement
    }
}

/// Walk `session` up the (ascending, deduplicated) interesting budgets
/// of `ks`, recording `(k, placement, FR)` at each; results come back
/// in `ks`'s original order (duplicates included). This is the shared
/// ladder walk behind `Problem::solve_ladder` and the sweep's curve
/// cells: one session, one engine, zero re-solves.
pub fn walk_ladder(session: &mut dyn SolverSession, ks: &[usize]) -> Vec<(usize, FilterSet, f64)> {
    let mut sorted: Vec<usize> = ks.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    let mut at: Vec<(usize, FilterSet, f64)> = Vec::with_capacity(sorted.len());
    for &k in &sorted {
        let _span = fp_obs::span("ladder.rung").arg("k", k as i64);
        session.advance_to(k);
        at.push((k, session.placement().clone(), session.fr()));
    }
    ks.iter()
        .map(|&k| {
            let i = at.binary_search_by_key(&k, |&(k, _, _)| k).expect("walked");
            at[i].clone()
        })
        .collect()
}

/// [`walk_ladder`] from a fresh session of `solver`.
pub fn solve_ladder_with(
    solver: &dyn Solver,
    cg: &CGraph,
    ks: &[usize],
    seed: u64,
) -> Vec<(usize, FilterSet, f64)> {
    let mut session = solver.session(cg, seed);
    walk_ladder(session.as_mut(), ks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fp_graph::DiGraph;
    use fp_num::{Sat64, Wide128};
    use fp_propagation::filter_ratio;

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
    fn ranked_session_walks_its_list_and_reports_fr() {
        let cg = figure1();
        let mut s = RankedSession::<Sat64>::new(&cg, vec![NodeId::new(4), NodeId::new(6)]);
        assert_eq!(s.fr(), 0.0, "budget 0 removes nothing");
        assert_eq!(s.next_filter(), Some(NodeId::new(4)));
        assert_eq!(s.placement().nodes(), &[NodeId::new(4)]);
        assert_eq!(
            s.fr().to_bits(),
            filter_ratio::<Sat64>(&cg, s.placement()).to_bits(),
            "session FR must match the one-shot objective"
        );
        assert_eq!(s.next_filter(), Some(NodeId::new(6)));
        assert_eq!(s.next_filter(), None, "ladder exhausted");
        assert_eq!(Box::new(s).into_placement().len(), 2);
    }

    #[test]
    fn a_solve_too_deep_for_u64_counts_a_fallback() {
        // 70 diamonds in a row: the last join receives 2^70 copies.
        let mut g = DiGraph::with_nodes(1);
        let mut tail = NodeId::new(0);
        for _ in 0..70 {
            let (a, b, join) = (g.add_node(), g.add_node(), g.add_node());
            for (u, v) in [(tail, a), (tail, b), (a, join), (b, join)] {
                g.add_edge(u, v);
            }
            tail = join;
        }
        let cg = CGraph::new(&g, NodeId::new(0)).unwrap();
        // Other tests share the registry, so compare deltas.
        let fallbacks = fp_obs::counter("fp_engine_u64_fallbacks_total");
        let before = fallbacks.get();
        crate::GreedyAll::<Wide128>::new().place(&cg, 2, 0);
        assert!(fallbacks.get() > before, "the u64 init saturated");
    }

    #[test]
    fn walk_ladder_emits_in_input_order_with_duplicates() {
        let cg = figure1();
        let mut s = RankedSession::<Sat64>::new(&cg, vec![NodeId::new(4), NodeId::new(1)]);
        let out = walk_ladder(&mut s, &[2, 0, 1, 1]);
        let ks: Vec<usize> = out.iter().map(|&(k, _, _)| k).collect();
        assert_eq!(ks, vec![2, 0, 1, 1]);
        assert_eq!(out[1].1.len(), 0);
        assert_eq!(out[2].1.nodes(), &[NodeId::new(4)]);
        assert_eq!(out[0].1.len(), 2);
        assert_eq!(out[2].1.nodes(), out[3].1.nodes());
        assert_eq!(out[2].2.to_bits(), out[3].2.to_bits());
    }
}
