//! The objective `F(A) = Φ(∅,V) − Φ(A,V)` and the Filter Ratio.

use crate::incremental::{unfiltered_forward, Forward, IncrementalPropagation};
use crate::{propagate, CGraph, FilterSet};
use fp_num::{ratio_or, Count, Sat64};

/// `Φ(A, v)` for every node: the copies each node receives under `A`.
pub fn phi_per_node<C: Count>(cg: &CGraph, filters: &FilterSet) -> Vec<C> {
    propagate::<C>(cg, filters).received
}

/// `Φ(A, V) = Σ_v Φ(A, v)`: total receptions in the network.
pub fn phi_total<C: Count>(cg: &CGraph, filters: &FilterSet) -> C {
    let prop = propagate::<C>(cg, filters);
    let mut total = C::zero();
    for r in &prop.received {
        total.add_assign(r);
    }
    total
}

/// `F(A) = Φ(∅,V) − Φ(A,V)`: receptions saved by the filter set.
pub fn f_value<C: Count>(cg: &CGraph, filters: &FilterSet) -> C {
    let empty = FilterSet::empty(cg.node_count());
    phi_total::<C>(cg, &empty).saturating_sub(&phi_total::<C>(cg, filters))
}

/// Precomputed `Φ(∅,V)` and `F(V)` for a c-graph, so that evaluating
/// many filter sets (greedy iterations, FR curves) costs one forward
/// pass each instead of two. Where `Φ(∅,V)` fits `u64`, so does every
/// `Φ(A,V) ≤ Φ(∅,V)`, and a counter that narrows
/// ([`Count::NARROWS_TO_U64`]) runs those passes in `u64`.
///
/// `F(V) = Φ(∅,V) − Φ(V,V)` needs no pass of its own: with every node
/// filtered, each node that holds the item — the source, and every node
/// receiving a copy — emits exactly one copy per out-edge, so `Φ(V,V)`
/// is the number of edges leaving those nodes. Which nodes receive a
/// copy does not depend on the filter set, so the unfiltered pass
/// already tells.
///
/// ```
/// use fp_graph::{DiGraph, NodeId};
/// use fp_num::Sat64;
/// use fp_propagation::{CGraph, FilterSet, ObjectiveCache};
///
/// let g = DiGraph::from_pairs(4, [(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
/// let cg = CGraph::new(&g, NodeId::new(0)).unwrap();
/// let cache = ObjectiveCache::<Sat64>::new(&cg);
/// // Filtering the join removes all removable redundancy.
/// let filters = FilterSet::from_nodes(4, [NodeId::new(3)]);
/// assert_eq!(cache.filter_ratio(&cg, &filters), 1.0);
/// ```
#[derive(Clone, Debug)]
pub struct ObjectiveCache<C> {
    phi_empty: C,
    f_all: C,
}

impl<C: Count> ObjectiveCache<C> {
    /// Build the cache (one forward pass). A counter that narrows
    /// ([`Count::NARROWS_TO_U64`]) runs it in `u64` by the rule the
    /// engine-backed solvers use ([`unfiltered_forward`]) and widens
    /// the exact pair.
    pub fn new(cg: &CGraph) -> Self {
        Self::from_unfiltered(cg, &unfiltered_forward::<C>(cg))
    }

    /// [`ObjectiveCache::from_forward`] of the kernel
    /// [`unfiltered_forward`] built, with a `u64` kernel's exact pair
    /// widened to `C`.
    ///
    /// # Panics
    /// Panics if the kernel holds any filter.
    pub fn from_unfiltered(cg: &CGraph, fwd: &Forward<C>) -> Self {
        match fwd {
            Forward::U64(fwd) => {
                let narrow = ObjectiveCache::from_forward(cg, fwd);
                Self {
                    phi_empty: C::from_u64(narrow.phi_empty.get()),
                    f_all: C::from_u64(narrow.f_all.get()),
                }
            }
            Forward::Declared(fwd) => Self::from_forward(cg, fwd),
        }
    }

    /// The cache of an unfiltered forward kernel's state — what an
    /// engine-backed session holds right after its init — with no pass:
    /// the kernel's `Φ` is `Φ(∅,V)`, and `Φ(V,V)` is the number of
    /// out-edges of the source and of every node receiving a copy.
    ///
    /// # Panics
    /// Panics if the kernel holds any filter.
    pub fn from_forward(cg: &CGraph, fwd: &IncrementalPropagation<C>) -> Self {
        assert!(
            fwd.filters().is_empty(),
            "FR denominators need the unfiltered state"
        );
        let csr = cg.csr();
        let source = cg.source();
        let phi_all: u64 = cg
            .nodes()
            .filter(|&v| v == source || !fwd.received(v).is_zero())
            .map(|v| csr.out_degree(v) as u64)
            .sum();
        Self {
            f_all: fwd.phi().saturating_sub(&C::from_u64(phi_all)),
            phi_empty: fwd.phi().clone(),
        }
    }

    /// `Φ(∅, V)`.
    pub fn phi_empty(&self) -> &C {
        &self.phi_empty
    }

    /// `F(V)` — the best any filter set can achieve (FR denominator).
    pub fn f_all(&self) -> &C {
        &self.f_all
    }

    /// `F(A)` for the given filter set (one forward pass, in `u64`
    /// where `Φ(∅,V)` fits and the counter narrows).
    pub fn f_of(&self, cg: &CGraph, filters: &FilterSet) -> C {
        let phi = if C::NARROWS_TO_U64 && self.phi_empty < C::from_u64(u64::MAX) {
            C::from_u64(phi_total::<Sat64>(cg, filters).get())
        } else {
            phi_total::<C>(cg, filters)
        };
        self.phi_empty.saturating_sub(&phi)
    }

    /// `FR(A) = F(A) / F(V)` (§5 of the paper).
    ///
    /// Returns 1.0 when `F(V) = 0` (a graph with no redundancy at all:
    /// nothing to remove means any placement is trivially perfect).
    pub fn filter_ratio(&self, cg: &CGraph, filters: &FilterSet) -> f64 {
        ratio_or(&self.f_of(cg, filters), &self.f_all, 1.0)
    }

    /// [`ObjectiveCache::filter_ratio`] from an externally maintained
    /// `Φ(A, V)` — what the incremental engines hold live — skipping
    /// the forward pass entirely. The one home for the FR arithmetic:
    /// solver sessions evaluate through this, so their curves stay
    /// bit-identical to the pass-based path by construction.
    pub fn filter_ratio_from_phi(&self, phi_current: &C) -> f64 {
        ratio_or(
            &self.phi_empty.saturating_sub(phi_current),
            &self.f_all,
            1.0,
        )
    }
}

/// One-shot `FR(A)`; builds the cache internally.
pub fn filter_ratio<C: Count>(cg: &CGraph, filters: &FilterSet) -> f64 {
    ObjectiveCache::<C>::new(cg).filter_ratio(cg, filters)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fp_graph::{DiGraph, NodeId};
    use fp_num::{BigCount, Sat64};

    /// Figure 1 of the paper (s=0, x=1, y=2, z1=3, z2=4, z3=5, w=6).
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
    fn figure1_phi_and_the_papers_claim() {
        let cg = figure1();
        let phi0: Sat64 = phi_total(&cg, &FilterSet::empty(7));
        // 1+1 (x,y) + 1+2+1 (z1,z2,z3) + 4 (w) = 10.
        assert_eq!(phi0.get(), 10);

        // "placing two filters at z2 and w completely alleviates
        // redundancy" — with {z2, w}, every node receives at most one
        // copy except z2 (which still receives 2 but relays 1) and w
        // (receives 3, relays —). Under relay-dedup semantics the
        // remaining duplicates are exactly those *received by* the
        // filters themselves, which no filter placement can remove.
        let filters = FilterSet::from_nodes(7, [NodeId::new(4), NodeId::new(6)]);
        let f: Sat64 = f_value(&cg, &filters);
        let cache = ObjectiveCache::<Sat64>::new(&cg);
        assert_eq!(f, cache.f_of(&cg, &filters));
        assert_eq!(cache.filter_ratio(&cg, &filters), 1.0, "FR = 1: optimal");
    }

    #[test]
    fn f_is_monotone_under_additions() {
        let cg = figure1();
        let mut filters = FilterSet::empty(7);
        let mut last: Sat64 = f_value(&cg, &filters);
        for v in [4usize, 6, 1, 2, 3, 5] {
            filters.insert(NodeId::new(v));
            let cur: Sat64 = f_value(&cg, &filters);
            assert!(cur >= last, "F must be monotone");
            last = cur;
        }
    }

    #[test]
    fn fr_is_zero_for_empty_and_one_for_all() {
        let cg = figure1();
        let cache = ObjectiveCache::<Sat64>::new(&cg);
        assert_eq!(cache.filter_ratio(&cg, &FilterSet::empty(7)), 0.0);
        assert_eq!(cache.filter_ratio(&cg, &FilterSet::all(7)), 1.0);
    }

    #[test]
    fn redundancy_free_graph_has_fr_one() {
        // A path: no node has in-degree > 1, F(V) = 0.
        let g = DiGraph::from_pairs(3, [(0, 1), (1, 2)]).unwrap();
        let cg = CGraph::new(&g, NodeId::new(0)).unwrap();
        let cache = ObjectiveCache::<Sat64>::new(&cg);
        assert!(cache.f_all().is_zero());
        assert_eq!(cache.filter_ratio(&cg, &FilterSet::empty(3)), 1.0);
    }

    #[test]
    fn bigcount_and_sat64_agree_on_small_graphs() {
        let cg = figure1();
        for fs in [vec![], vec![4], vec![4, 6], vec![1, 2, 3]] {
            let filters = FilterSet::from_nodes(7, fs.iter().map(|&i| NodeId::new(i)));
            let a: Sat64 = phi_total(&cg, &filters);
            let b: BigCount = phi_total(&cg, &filters);
            assert!(b.eq_u128(a.get() as u128));
        }
    }
}
