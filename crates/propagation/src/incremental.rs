//! The forward propagation kernel: received/emitted/Φ kept up to date
//! under filter and edge mutations.
//!
//! The paper's running-time discussion notes that after Greedy_L picks
//! a filter "the only nodes whose value … changes are those that are
//! after v in the topological order. Since there is a small number of
//! such nodes, clever bookkeeping allows us to make these updates in,
//! practically, constant time." This module is that bookkeeping, done
//! exactly: [`IncrementalPropagation`] keeps the received/emitted
//! vectors and `Φ(A, V)` up to date, reprocessing only the nodes whose
//! inputs actually changed (in topological order, each at most once
//! per update).
//!
//! It is the crate's one forward kernel. Greedy_L's session holds it
//! alone; [`crate::ImpactEngine`] holds it as its forward half, beside
//! the suffix side Greedy_All also needs. The kernel never borrows the
//! graph — every method that walks edges takes the [`CGraph`] — so an
//! engine can own its graph and still hold the kernel.
//!
//! The dirty frontier is *resumable*: a filter insert can flip the
//! node's emission and mark its children without walking them, and a
//! later settle walks the frontier only through a given topological
//! position. That is how [`crate::DeferredEngine`] answers a read of
//! `received(v)` without the rest of a dense pass, and how Greedy_L's
//! CELF session re-scores a candidate
//! ([`IncrementalPropagation::insert_filter_deferred`],
//! [`IncrementalPropagation::received_settled`]). Every other public
//! method of the kernel drains to the end, so its reads see settled
//! values once [`IncrementalPropagation::settle`] has run.

use crate::engine::{DirtyFrontier, Drift};
use crate::{propagate_into, CGraph, FilterSet};
use fp_graph::NodeId;
use fp_num::{Count, Sat64};

/// Received/emitted/Φ state that updates in `O(affected)` per filter
/// insertion instead of `O(|E|)` per evaluation.
///
/// The dirty frontier persists across updates, so every update after
/// construction is allocation-free.
///
/// ```
/// use fp_graph::{DiGraph, NodeId};
/// use fp_num::Wide128;
/// use fp_propagation::incremental::IncrementalPropagation;
/// use fp_propagation::{phi_total, CGraph, FilterSet};
///
/// // The paper's Figure 1: filtering z2 (node 4) leaves w one copy.
/// let g = DiGraph::from_pairs(
///     7,
///     [(0, 1), (0, 2), (1, 3), (1, 4), (2, 4), (2, 5), (3, 6), (4, 6), (5, 6)],
/// ).unwrap();
/// let cg = CGraph::new(&g, NodeId::new(0)).unwrap();
/// let mut inc = IncrementalPropagation::<Wide128>::new(&cg, FilterSet::empty(7));
/// assert!(inc.insert_filter(&cg, NodeId::new(4)));
/// assert_eq!(*inc.phi(), phi_total::<Wide128>(&cg, inc.filters()));
/// ```
#[derive(Clone, Debug)]
pub struct IncrementalPropagation<C> {
    filters: FilterSet,
    received: Vec<C>,
    emitted: Vec<C>,
    phi: C,
    frontier: DirtyFrontier,
}

impl<C: Count> IncrementalPropagation<C> {
    /// Initialize from an existing filter set (one full forward pass).
    pub fn new(cg: &CGraph, filters: FilterSet) -> Self {
        let (mut received, mut emitted) = (Vec::new(), Vec::new());
        propagate_into(cg, &filters, &mut received, &mut emitted);
        let mut phi = C::zero();
        for r in &received {
            phi.add_assign(r);
        }
        Self {
            filters,
            received,
            emitted,
            phi,
            frontier: DirtyFrontier::new(cg.node_count()),
        }
    }

    /// Current filter set.
    pub fn filters(&self) -> &FilterSet {
        &self.filters
    }

    /// Surrender the filter set (what a finished solver returns).
    pub fn into_filters(self) -> FilterSet {
        self.filters
    }

    /// Current `Φ(A, V)`.
    ///
    /// Maintained by exact addition/subtraction of reception deltas:
    /// equal to a fresh [`crate::phi_total`] whenever Φ fits the
    /// counter, but once a *saturating* counter has clamped, the
    /// incremental value (`MAX − deltas`) and a re-clamped fresh sum can
    /// differ. Use an exact counter where Φ may exceed the ceiling.
    pub fn phi(&self) -> &C {
        debug_assert!(
            self.frontier.is_idle(),
            "Φ read before the frontier settled"
        );
        &self.phi
    }

    /// Copies received by `v` under the current set.
    #[inline]
    pub fn received(&self, v: NodeId) -> &C {
        &self.received[v.index()]
    }

    /// Copies emitted (per out-edge) by `v` under the current set.
    pub fn emitted(&self, v: NodeId) -> &C {
        &self.emitted[v.index()]
    }

    /// Add `v` as a filter, updating only affected descendants of `v`
    /// in `cg` (the graph the kernel was built on). Returns `true` if
    /// `v` was newly inserted.
    pub fn insert_filter(&mut self, cg: &CGraph, v: NodeId) -> bool {
        if self.filters.contains(v) {
            return false;
        }
        self.flip_filter(cg, v, Drift::Shrink);
        true
    }

    /// Add `v` as a filter like [`IncrementalPropagation::insert_filter`],
    /// but walk the forward pass only through `v` (whose reception must
    /// be final before its emission flips) and leave the rest pending.
    /// Until [`IncrementalPropagation::settle`] runs, read receptions
    /// through [`IncrementalPropagation::received_settled`]. Returns
    /// `true` if `v` was newly inserted.
    pub fn insert_filter_deferred(&mut self, cg: &CGraph, v: NodeId) -> bool {
        if self.filters.contains(v) {
            return false;
        }
        self.settle_through(cg, cg.topo_position(v), Drift::Shrink);
        self.flip(cg, v, Drift::Shrink);
        true
    }

    /// Copies received by `v`, walking a pending forward pass only
    /// through `v`'s topological position: a reception depends only on
    /// the nodes before it.
    pub fn received_settled(&mut self, cg: &CGraph, v: NodeId) -> &C {
        self.settle_through(cg, cg.topo_position(v), Drift::Shrink);
        &self.received[v.index()]
    }

    /// Walk a pending forward pass to the end.
    pub fn settle(&mut self, cg: &CGraph) {
        self.settle_through(cg, usize::MAX, Drift::Shrink);
    }

    /// Drop every filter in one forward walk, returning the dropped
    /// nodes in insertion order and `(nodes reprocessed, whether the
    /// walk went dense)`: the batched form of one
    /// [`IncrementalPropagation::follow`] to the empty set.
    pub(crate) fn clear_filters(&mut self, cg: &CGraph) -> (Vec<NodeId>, (usize, bool)) {
        let dropped = self.filters.nodes().to_vec();
        self.filters.retain(|_| false);
        let walk = self.reemit_all(cg, &dropped, Drift::Grow);
        (dropped, walk)
    }

    /// Bring the filter set to `placement`'s, updating only affected
    /// descendants, and return the number of nodes reprocessed.
    ///
    /// Past the common prefix of the two insertion orders — all the
    /// kernel holds, when `placement` only appended to it, as a ladder
    /// does — the filters `placement` lacks are dropped, then the ones
    /// it adds are inserted. Each batch re-emits in one forward walk,
    /// so a node is reprocessed at most once per direction however many
    /// filters differ: at most two passes' worth. Kept filters keep
    /// their order; added ones follow in `placement`'s.
    pub fn follow(&mut self, cg: &CGraph, placement: &FilterSet) -> usize {
        let held = self.filters.nodes();
        let common = held
            .iter()
            .zip(placement.nodes())
            .take_while(|(a, b)| a == b)
            .count();
        let dropped: Vec<NodeId> = held[common..]
            .iter()
            .copied()
            .filter(|&v| !placement.contains(v))
            .collect();
        if !dropped.is_empty() {
            self.filters.retain(|v| placement.contains(v));
        }
        // Drops only raise receptions and inserts only lower them, so
        // each batch walks on its own, the inserts' membership flipping
        // only once the drops have settled.
        let processed = self.reemit_all(cg, &dropped, Drift::Grow).0;
        let added: Vec<NodeId> = placement.nodes()[common..]
            .iter()
            .copied()
            .filter(|&v| self.filters.insert(v))
            .collect();
        processed + self.reemit_all(cg, &added, Drift::Shrink).0
    }

    /// Re-emit `flipped`, whose filter membership already flipped, in
    /// one forward walk: each is marked dirty, so the walk reaches it in
    /// topological order, after every earlier flip of the batch, and
    /// reprocesses it like any node whose inputs changed. Returns
    /// `(nodes reprocessed, whether the walk went dense)`.
    fn reemit_all(&mut self, cg: &CGraph, flipped: &[NodeId], drift: Drift) -> (usize, bool) {
        // The first node in the order has no parents: filtered or not,
        // it emits one (the source) or nothing, so no walk reaches it.
        let marked = flipped.iter().filter(|&&v| cg.topo_position(v) > 0);
        let Some(first) = marked.clone().map(|&v| cg.topo_position(v)).min() else {
            return (0, false);
        };
        self.frontier.begin(first - 1);
        for &v in marked {
            self.frontier.mark(v);
        }
        self.settle_through(cg, usize::MAX, drift)
    }

    /// Insert (`Shrink`) or remove (`Grow`) the filter at `v` — the
    /// caller has checked that membership flips — and run the forward
    /// pass to the end: `v`'s reception is unchanged, only its emission
    /// can flip. Returns `(nodes reprocessed, whether the pass went
    /// dense)`.
    pub(crate) fn flip_filter(&mut self, cg: &CGraph, v: NodeId, drift: Drift) -> (usize, bool) {
        self.flip(cg, v, drift);
        self.settle_through(cg, usize::MAX, drift)
    }

    /// Flip `v`'s filter membership and mark what its new emission
    /// dirties, without walking it; the frontier must be settled
    /// through `v`, so that `v`'s own reception is final.
    pub(crate) fn flip(&mut self, cg: &CGraph, v: NodeId, drift: Drift) {
        let flipped = match drift {
            Drift::Shrink => self.filters.insert(v),
            Drift::Grow => self.filters.remove(v),
        };
        debug_assert!(flipped, "filter membership must flip");
        let recv = self.received[v.index()].clone();
        self.reemit(cg, v, &recv);
    }

    /// Forward pass for an *edge* mutation whose head is `v` (the graph
    /// already mutated): `v`'s reception itself changed, so it is
    /// re-summed from its (already final) parents before the downstream
    /// walk starts.
    pub(crate) fn update_edge_head(
        &mut self,
        cg: &CGraph,
        v: NodeId,
        drift: Drift,
    ) -> (usize, bool) {
        let recv = self.resum(cg, v, drift);
        self.reemit(cg, v, &recv);
        self.settle_through(cg, usize::MAX, drift)
    }

    /// What `v` emits per out-edge given its reception `recv`.
    #[inline]
    fn emission_of(&self, cg: &CGraph, v: NodeId, recv: &C) -> C {
        if v == cg.source() {
            C::one()
        } else if self.filters.contains(v) {
            if recv.is_zero() {
                C::zero()
            } else {
                C::one()
            }
        } else {
            recv.clone()
        }
    }

    /// Recompute `u`'s reception from its (partially updated) parents
    /// and fold the change into Φ, checking the drift invariant: shrink
    /// mutations may only decrease receptions, grow mutations may only
    /// increase them.
    #[inline]
    fn resum(&mut self, cg: &CGraph, u: NodeId, drift: Drift) -> C {
        let mut recv = C::zero();
        for &p in cg.csr().parents(u) {
            recv.add_assign(&self.emitted[p.index()]);
        }
        let old = std::mem::replace(&mut self.received[u.index()], recv.clone());
        if recv != old {
            match drift {
                Drift::Shrink => {
                    debug_assert!(recv <= old, "a shrink mutation cannot increase receptions");
                    self.phi = self.phi.saturating_sub(&old.saturating_sub(&recv));
                }
                Drift::Grow => {
                    debug_assert!(recv >= old, "a grow mutation cannot decrease receptions");
                    self.phi.add_assign(&recv.saturating_sub(&old));
                }
            }
        }
        recv
    }

    /// Set `v`'s emission for reception `recv`; if it changed, mark
    /// `v`'s children dirty, starting (or widening) the frontier at
    /// `v`'s position.
    fn reemit(&mut self, cg: &CGraph, v: NodeId, recv: &C) {
        let new_emit = self.emission_of(cg, v, recv);
        if new_emit == self.emitted[v.index()] {
            return;
        }
        self.emitted[v.index()] = new_emit;
        self.frontier.begin(cg.topo_position(v));
        for &c in cg.csr().children(v) {
            self.frontier.mark(c);
        }
    }

    /// Walk the dirty frontier in topological order through position
    /// `through` (`usize::MAX`: to the end), so every reception and
    /// emission up to there is final; work past it stays pending.
    /// Returns `(nodes reprocessed, whether the walk went dense)`.
    pub(crate) fn settle_through(
        &mut self,
        cg: &CGraph,
        through: usize,
        drift: Drift,
    ) -> (usize, bool) {
        let (csr, topo) = (cg.csr(), cg.topo());
        let mut processed = 0usize;
        let mut dense = false;
        while let Some(u) = self.frontier.next_up(topo, through) {
            processed += 1;
            dense |= self.frontier.is_dense();
            let recv = self.resum(cg, u, drift);
            let new_emit = self.emission_of(cg, u, &recv);
            if new_emit != self.emitted[u.index()] {
                self.emitted[u.index()] = new_emit;
                if !self.frontier.is_dense() {
                    for &c in csr.children(u) {
                        self.frontier.mark(c);
                    }
                }
            }
        }
        (processed, dense)
    }
}

/// An unfiltered forward kernel, at the counter a solve declared at `C`
/// runs at.
#[derive(Clone, Debug)]
pub enum Forward<C> {
    /// `Φ(∅,V)` fits `u64`, so every count of the solve does (see
    /// [`Count::NARROWS_TO_U64`]).
    U64(IncrementalPropagation<Sat64>),
    /// The declared counter `C`.
    Declared(IncrementalPropagation<C>),
}

/// The unfiltered forward kernel of a solve declared at `C`: the one
/// narrowing rule the engine-backed solvers and [`crate::ObjectiveCache`]
/// share.
///
/// A counter that narrows ([`Count::NARROWS_TO_U64`]) first runs the
/// pass in `u64`: unsaturated, that kernel is the solve's; saturated,
/// the pass is redone at `C` and `fp_engine_u64_fallbacks_total`
/// counts the fallback. Other counters run at `C` directly.
pub fn unfiltered_forward<C: Count>(cg: &CGraph) -> Forward<C> {
    let empty = || FilterSet::empty(cg.node_count());
    if C::NARROWS_TO_U64 {
        // Looked up before the pass so `/metrics` lists it from the
        // first narrowable solve on, at zero until a fallback.
        let fallbacks = fp_obs::counter("fp_engine_u64_fallbacks_total");
        let fwd = IncrementalPropagation::<Sat64>::new(cg, empty());
        if !fwd.phi().is_saturated() {
            return Forward::U64(fwd);
        }
        fallbacks.inc();
    }
    Forward::Declared(IncrementalPropagation::new(cg, empty()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{phi_total, propagate};
    use fp_graph::DiGraph;
    use fp_num::Wide128;

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
    fn matches_full_recompute_after_each_insertion() {
        let cg = figure1();
        let mut inc = IncrementalPropagation::<Wide128>::new(&cg, FilterSet::empty(7));
        for v in [4usize, 1, 6, 2, 3] {
            inc.insert_filter(&cg, NodeId::new(v));
            let full: Wide128 = phi_total(&cg, inc.filters());
            assert_eq!(*inc.phi(), full, "after inserting {v}");
            let fresh = propagate::<Wide128>(&cg, inc.filters());
            assert_eq!(inc.received, fresh.received);
            assert_eq!(inc.emitted, fresh.emitted);
        }
    }

    /// The kernel after `follow` must be a fresh pass over `placement`.
    fn assert_follows(
        cg: &CGraph,
        inc: &mut IncrementalPropagation<Wide128>,
        placement: &FilterSet,
    ) {
        inc.follow(cg, placement);
        let fresh = propagate::<Wide128>(cg, placement);
        assert_eq!(
            inc.received, fresh.received,
            "after following {placement:?}"
        );
        assert_eq!(inc.emitted, fresh.emitted);
        assert_eq!(*inc.phi(), phi_total::<Wide128>(cg, placement));
        assert!(inc.filters().nodes().iter().all(|&v| placement.contains(v)));
        assert_eq!(inc.filters().len(), placement.len());
    }

    #[test]
    fn follow_matches_full_recompute_as_placements_grow_shrink_and_reorder() {
        let cg = figure1();
        let mut inc = IncrementalPropagation::<Wide128>::new(&cg, FilterSet::empty(7));
        for nodes in [
            vec![4],
            vec![4, 1, 6, 2, 3],
            vec![1, 3],
            vec![3, 5, 1],
            vec![6, 2],
            vec![0, 6],
            vec![],
        ] {
            let placement = FilterSet::from_nodes(7, nodes.into_iter().map(NodeId::new));
            assert_follows(&cg, &mut inc, &placement);
        }
    }

    #[test]
    fn follow_walks_each_node_once_per_direction() {
        // Node i is fed by i−1 and i−2, so one filter flip changes every
        // later reception. Flipped one at a time, filters inserted
        // first-first, or dropped last-first, would walk the tail once
        // per filter.
        let n = 64;
        let pairs =
            (1..n).flat_map(|i| [(i - 1, i)].into_iter().chain((i >= 2).then(|| (i - 2, i))));
        let g = DiGraph::from_pairs(n, pairs).unwrap();
        let cg = CGraph::new(&g, NodeId::new(0)).unwrap();
        let ascending = FilterSet::from_nodes(n, (1..n).map(NodeId::new));
        let mut inc = IncrementalPropagation::<Wide128>::new(&cg, FilterSet::empty(n));
        assert!(inc.follow(&cg, &ascending) < n, "one walk inserts them all");
        assert_follows(&cg, &mut inc, &ascending);
        let descending = FilterSet::from_nodes(n, (1..n).rev().map(NodeId::new));
        let mut inc = IncrementalPropagation::<Wide128>::new(&cg, descending);
        let none = FilterSet::empty(n);
        assert!(inc.follow(&cg, &none) < n, "one walk drops them all");
        assert_follows(&cg, &mut inc, &none);
    }

    #[test]
    fn duplicate_insertions_are_noops() {
        let cg = figure1();
        let mut inc = IncrementalPropagation::<Wide128>::new(&cg, FilterSet::empty(7));
        assert!(inc.insert_filter(&cg, NodeId::new(4)));
        let phi = *inc.phi();
        assert!(!inc.insert_filter(&cg, NodeId::new(4)));
        assert_eq!(*inc.phi(), phi);
    }

    #[test]
    fn starting_from_a_nonempty_set_works() {
        let cg = figure1();
        let base = FilterSet::from_nodes(7, [NodeId::new(1)]);
        let mut inc = IncrementalPropagation::<Wide128>::new(&cg, base);
        inc.insert_filter(&cg, NodeId::new(4));
        let full: Wide128 = phi_total(&cg, inc.filters());
        assert_eq!(*inc.phi(), full);
    }

    #[test]
    fn filters_at_sinks_change_nothing_downstream() {
        let cg = figure1();
        let mut inc = IncrementalPropagation::<Wide128>::new(&cg, FilterSet::empty(7));
        let before = *inc.phi();
        inc.insert_filter(&cg, NodeId::new(6)); // w is a sink
        assert_eq!(*inc.phi(), before);
    }

    #[test]
    fn deep_chain_update_touches_only_descendants() {
        // Long chain with a diamond at the head: filtering the join
        // must update the whole chain, and phi must stay consistent.
        let mut g = DiGraph::with_nodes(1);
        let s = NodeId::new(0);
        let a = g.add_node();
        let b = g.add_node();
        let join = g.add_node();
        g.add_edge(s, a);
        g.add_edge(s, b);
        g.add_edge(a, join);
        g.add_edge(b, join);
        let mut tail = join;
        for _ in 0..50 {
            let next = g.add_node();
            g.add_edge(tail, next);
            tail = next;
        }
        let cg = CGraph::new(&g, s).unwrap();
        let mut inc = IncrementalPropagation::<Wide128>::new(&cg, FilterSet::empty(g.node_count()));
        assert_eq!(inc.received(tail).get(), 2);
        inc.insert_filter(&cg, join);
        assert_eq!(inc.received(tail).get(), 1);
        let full: Wide128 = phi_total(&cg, inc.filters());
        assert_eq!(*inc.phi(), full);
    }
}
