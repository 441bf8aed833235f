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

use crate::engine::{DirtyFrontier, Drift};
use crate::{propagate_into, CGraph, FilterSet};
use fp_graph::NodeId;
use fp_num::Count;

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
        let mut frontier = DirtyFrontier::default();
        frontier.reset(cg.node_count());
        Self {
            filters,
            received,
            emitted,
            phi,
            frontier,
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

    /// Insert (`Shrink`) or remove (`Grow`) the filter at `v` — the
    /// caller has checked that membership flips — and run the forward
    /// pass: `v`'s reception is unchanged, only its emission can flip.
    /// Returns `(nodes reprocessed, whether the pass went dense)`.
    pub(crate) fn flip_filter(&mut self, cg: &CGraph, v: NodeId, drift: Drift) -> (usize, bool) {
        let flipped = match drift {
            Drift::Shrink => self.filters.insert(v),
            Drift::Grow => self.filters.remove(v),
        };
        debug_assert!(flipped, "filter membership must flip");
        let recv = self.received[v.index()].clone();
        self.reemit(cg, v, &recv, drift)
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
        self.reemit(cg, v, &recv, drift)
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

    /// Set `v`'s emission for reception `recv`; if it changed, walk the
    /// dirty frontier downstream of `v` in topological order.
    fn reemit(&mut self, cg: &CGraph, v: NodeId, recv: &C, drift: Drift) -> (usize, bool) {
        let new_emit = self.emission_of(cg, v, recv);
        if new_emit == self.emitted[v.index()] {
            return (0, false);
        }
        self.emitted[v.index()] = new_emit;
        let csr = cg.csr();
        self.frontier.begin(cg.topo_position(v));
        for &c in csr.children(v) {
            self.frontier.mark(c);
        }
        let mut processed = 0usize;
        while let Some(u) = self.frontier.next_up(cg.topo()) {
            processed += 1;
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
        (processed, self.frontier.is_dense())
    }
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
