//! The backward suffix-sensitivity pass.

use crate::{CGraph, FilterSet};
use fp_num::Count;

/// For every node `v`, the number of *additional receptions* caused
/// anywhere downstream when `v` emits one extra copy, given the filters
/// already in `A`:
///
/// ```text
/// S_A(v) = Σ_{c ∈ children(v)} ( 1 + [c ∉ A and c ≠ source] · S_A(c) )
/// ```
///
/// With `A = ∅` this equals the number of directed paths of length ≥ 1
/// leaving `v` — the paper's `Suffix(v)`. The `[c ∉ A]` gate encodes
/// that a filter absorbs marginal copies (its emission is pinned at one)
/// while still *receiving* them, and the `c ≠ source` gate encodes that
/// the source never relays.
///
/// One O(|E|) reverse-topological sweep.
pub fn suffix_sensitivity<C: Count>(cg: &CGraph, filters: &FilterSet) -> Vec<C> {
    let mut suffix = Vec::new();
    suffix_sensitivity_into(cg, filters, &mut suffix);
    suffix
}

/// [`suffix_sensitivity`] into a caller-owned buffer (cleared and
/// resized).
pub fn suffix_sensitivity_into<C: Count>(cg: &CGraph, filters: &FilterSet, suffix: &mut Vec<C>) {
    let n = cg.node_count();
    let csr = cg.csr();
    let source = cg.source();
    suffix.clear();
    suffix.resize_with(n, C::zero);
    for &v in cg.topo().iter().rev() {
        let mut s = C::zero();
        for &c in csr.children(v) {
            s.add_assign(&C::one());
            if !filters.contains(c) && c != source {
                s.add_assign(&suffix[c.index()]);
            }
        }
        suffix[v.index()] = s;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{propagate, FilterSet, Propagation};
    use fp_graph::{DiGraph, NodeId};
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
    fn figure1_suffixes_without_filters() {
        let cg = figure1();
        let s: Vec<Sat64> = suffix_sensitivity(&cg, &FilterSet::empty(7));
        // w (node 6) is a sink.
        assert_eq!(s[6].get(), 0);
        // z1 (3): one path z1→w.
        assert_eq!(s[3].get(), 1);
        // x (1): paths x→z1, x→z2, x→z1→w, x→z2→w.
        assert_eq!(s[1].get(), 4);
        // s (0): 2 one-hop + 4 two-hop + 4 three-hop = 10 paths.
        assert_eq!(s[0].get(), 10);
    }

    #[test]
    fn filters_absorb_marginal_copies() {
        let cg = figure1();
        // Filter at z2 (4): x's sensitivity loses the continuation
        // through z2 but keeps the direct delivery into it.
        let s: Vec<Sat64> = suffix_sensitivity(&cg, &FilterSet::from_nodes(7, [NodeId::new(4)]));
        // x: deliver to z1 (1) + continue z1→w (1) + deliver to z2 (1) = 3.
        assert_eq!(s[1].get(), 3);
    }

    /// The suffix sensitivity must equal the discrete derivative of
    /// Φ with respect to an injected copy at v. We verify by brute
    /// force: add a phantom parallel source edge... equivalently,
    /// compare Φ when v's emission is artificially incremented. We
    /// emulate that by re-running propagation on a modified graph where
    /// a fresh source-like node feeds v.
    #[test]
    fn suffix_is_the_phi_derivative() {
        let base = DiGraph::from_pairs(
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
        let cg = CGraph::new(&base, NodeId::new(0)).unwrap();
        for fset in [vec![], vec![4usize], vec![4, 6], vec![1, 2]] {
            let filters = FilterSet::from_nodes(7, fset.iter().map(|&i| NodeId::new(i)));
            let suffix: Vec<Sat64> = suffix_sensitivity(&cg, &filters);
            let prop: Propagation<Sat64> = propagate(&cg, &filters);
            let phi = |p: &Propagation<Sat64>| -> u64 { p.received.iter().map(|c| c.get()).sum() };
            let phi0 = phi(&prop);
            for (v, suffix_v) in suffix.iter().enumerate().skip(1) {
                // Re-run with one extra copy flowing out of v: splice an
                // auxiliary emitter u* → children(v).
                let mut g2 = base.clone();
                let aux = g2.add_node();
                for &c in base.out_neighbors(NodeId::new(v)) {
                    g2.add_edge(aux, c);
                }
                // aux must emit exactly 1: feed it from the source via a
                // dedicated filter chain — simplest is making aux a
                // filter fed by the source.
                g2.add_edge(NodeId::new(0), aux);
                let cg2 = CGraph::new(&g2, NodeId::new(0)).unwrap();
                let mut filters2 =
                    FilterSet::from_nodes(g2.node_count(), fset.iter().map(|&i| NodeId::new(i)));
                filters2.insert(aux);
                let prop2: Propagation<Sat64> = propagate(&cg2, &filters2);
                // Δ = (aux's own reception) + suffix(v); subtract the former.
                let aux_recv = prop2.received[aux.index()].get();
                let phi1 = phi(&prop2) - aux_recv;
                assert_eq!(
                    phi1 - phi0,
                    suffix_v.get(),
                    "suffix derivative mismatch at node {v} with filters {fset:?}"
                );
            }
        }
    }
}
