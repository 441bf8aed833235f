//! Shared [`SolverSession`] building blocks.
//!
//! Three shapes cover every solver in the registry:
//!
//! * engine-backed round-by-round sessions (Greedy_All, CELF, Greedy_L)
//!   live next to their solvers — they own an incremental engine;
//! * [`RankedSession`] — solvers whose whole ladder is known up front
//!   as a ranked candidate list (Greedy_Max, Greedy_1, betweenness,
//!   Rand_K's shuffle): `next_filter` just pops the next candidate;
//! * the threshold draw of Rand_I/Rand_W (private to `random.rs`): the
//!   session draws once, `advance_to(k)` compares that draw against
//!   budget `k`'s thresholds, and `next_filter` reports `None`.
//!
//! Every session reads FR from a live forward kernel, against the FR
//! denominators (`Φ(∅,V)`, `F(V)`) of that kernel's unfiltered init —
//! no session runs a forward pass per read. Engine-backed sessions read
//! their own engine; the others hold a kernel in a [`FrCache`], which
//! flips the filters their placement changed since the last read.
//!
//! Kernels pick their counter with
//! [`fp_propagation::incremental::unfiltered_forward`]: a session
//! declared at [`fp_num::Wide128`] counts in `u64` whenever `Φ(∅,V)`
//! fits.

use crate::{Solver, SolverSession};
use fp_graph::NodeId;
use fp_num::Count;
use fp_propagation::incremental::{unfiltered_forward, Forward};
use fp_propagation::{phi_total, CGraph, FilterSet, ObjectiveCache};

/// The FR of a placement built by a session with no forward kernel of
/// its own (ranked, threshold and Monte-Carlo sessions), read from a
/// kernel this cache holds for the session's lifetime.
///
/// The kernel is built unfiltered on the first read — so a one-shot
/// `place`, which reads no FR, never builds one — at the counter
/// [`unfiltered_forward`] picks, and its init gives the denominators
/// ([`ObjectiveCache::from_unfiltered`]). Each read flips only the
/// filters that differ from the placement it read last
/// ([`IncrementalPropagation::follow`]): on a ladder, the picks
/// appended since; on a threshold draw, the nodes a new budget added or
/// dropped, each batch in one walk, so no read costs more than a pass
/// per direction. Wherever the counter does not clamp, the kernel's `Φ`
/// is a fresh pass's, so FRs are bit-identical to
/// [`ObjectiveCache::filter_ratio`]; where the declared counter
/// saturates, every read runs that pass instead.
///
/// [`IncrementalPropagation::follow`]: fp_propagation::incremental::IncrementalPropagation::follow
#[derive(Clone, Debug, Default)]
pub struct FrCache<C> {
    /// The kernel and the denominators of its unfiltered init.
    kernel: Option<(Forward<C>, ObjectiveCache<C>)>,
}

impl<C: Count> FrCache<C> {
    /// A cache that builds its kernel on the first read.
    pub fn new() -> Self {
        Self { kernel: None }
    }

    /// A cache around an unfiltered kernel the session already built
    /// and the denominators of its init (Greedy_Max ranks off an
    /// engine's), so no read runs a pass to build it. The kernel must
    /// hold no filter.
    pub fn with_kernel(fwd: Forward<C>, denominators: ObjectiveCache<C>) -> Self {
        Self {
            kernel: Some((fwd, denominators)),
        }
    }

    /// `FR(placement)`: the kernel follows `placement`, then `Φ` is
    /// read off it (one forward pass to build the kernel on first use).
    pub fn fr_of(&mut self, cg: &CGraph, placement: &FilterSet) -> f64 {
        let (fwd, denominators) = self.kernel.get_or_insert_with(|| {
            let fwd = unfiltered_forward::<C>(cg);
            let denominators = ObjectiveCache::from_unfiltered(cg, &fwd);
            (fwd, denominators)
        });
        let phi = match fwd {
            Forward::U64(fwd) => {
                fwd.follow(cg, placement);
                C::from_u64(fwd.phi().get())
            }
            // A clamped kernel Φ (the ceiling minus deltas) can differ
            // from a pass's re-clamped sum; the pass is the definition.
            Forward::Declared(_) if denominators.phi_empty().is_saturated() => {
                phi_total(cg, placement)
            }
            Forward::Declared(fwd) => {
                fwd.follow(cg, placement);
                fwd.phi().clone()
            }
        };
        denominators.filter_ratio_from_phi(&phi)
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

    /// [`RankedSession::new`] with the kernel the ranking already built
    /// (Greedy_Max ranks off an engine init).
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
    use crate::SolverKind;
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
        // A session with no engine of its own builds its FR kernel by
        // the same rule, on its first read.
        for kind in [
            SolverKind::GreedyOne,
            SolverKind::RandK,
            SolverKind::RandI,
            SolverKind::RandW,
            SolverKind::Betweenness,
        ] {
            let solver = kind.build::<Wide128>();
            let mut session = solver.session(&cg, 0);
            let before = fallbacks.get();
            session.fr();
            assert!(fallbacks.get() > before, "{} read in u64", kind.label());
        }
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
