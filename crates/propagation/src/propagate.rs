//! The forward propagation pass.

use crate::{CGraph, FilterSet};
use fp_num::Count;

/// Per-node received/emitted copy counts for one item.
///
/// `received` is the paper's `Prefix` (the number of copies of the item
/// the node receives, i.e. `#paths(s, v)` when `A = ∅`); `emitted` is
/// the count each outgoing edge carries.
#[derive(Clone, Debug)]
pub struct Propagation<C> {
    /// Copies received by each node.
    pub received: Vec<C>,
    /// Copies emitted along *each* outgoing edge of each node.
    pub emitted: Vec<C>,
}

/// Run the deterministic propagation model over `cg` with filter set
/// `filters`, in one O(|E|) topological sweep.
///
/// Model (§3 of the paper, with the Proposition-1-consistent filter
/// semantics — see DESIGN.md §1.1):
///
/// * the source emits exactly one copy (it relays nothing it receives);
/// * a plain node emits everything it receives;
/// * a filter emits one copy if it received anything, else nothing.
///
/// ```
/// use fp_graph::{DiGraph, NodeId};
/// use fp_num::Sat64;
/// use fp_propagation::{propagate, CGraph, FilterSet};
///
/// // Diamond: both branches deliver a copy to the join.
/// let g = DiGraph::from_pairs(4, [(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
/// let cg = CGraph::new(&g, NodeId::new(0)).unwrap();
/// let prop = propagate::<Sat64>(&cg, &FilterSet::empty(4));
/// assert_eq!(prop.received[3].get(), 2);
/// ```
pub fn propagate<C: Count>(cg: &CGraph, filters: &FilterSet) -> Propagation<C> {
    let mut received = Vec::new();
    let mut emitted = Vec::new();
    propagate_into(cg, filters, &mut received, &mut emitted);
    Propagation { received, emitted }
}

/// [`propagate`] into caller-owned buffers (cleared and resized); the
/// forward kernel ([`crate::incremental::IncrementalPropagation`])
/// initializes through it.
pub fn propagate_into<C: Count>(
    cg: &CGraph,
    filters: &FilterSet,
    received: &mut Vec<C>,
    emitted: &mut Vec<C>,
) {
    let n = cg.node_count();
    let csr = cg.csr();
    let source = cg.source();
    received.clear();
    received.resize_with(n, C::zero);
    emitted.clear();
    emitted.resize_with(n, C::zero);
    for &v in cg.topo() {
        let mut r = C::zero();
        for &p in csr.parents(v) {
            r.add_assign(&emitted[p.index()]);
        }
        let e = if v == source {
            C::one()
        } else if filters.contains(v) {
            if r.is_zero() {
                C::zero()
            } else {
                C::one()
            }
        } else {
            r.clone()
        };
        received[v.index()] = r;
        emitted[v.index()] = e;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fp_graph::{DiGraph, NodeId};
    use fp_num::Sat64;

    /// The paper's Figure 1: s → {x, y}; x → {z1, z2}; y → {z2, z3};
    /// z1, z2, z3 → w.
    pub(crate) fn figure1() -> (CGraph, Vec<NodeId>) {
        // ids: s=0 x=1 y=2 z1=3 z2=4 z3=5 w=6
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
        let ids = (0..7).map(NodeId::new).collect();
        (CGraph::new(&g, NodeId::new(0)).unwrap(), ids)
    }

    #[test]
    fn figure1_without_filters() {
        let (cg, id) = figure1();
        let prop: Propagation<Sat64> = propagate(&cg, &FilterSet::empty(7));
        // x,y receive 1; z1,z3 receive 1; z2 receives 2; w receives 1+2+1=4.
        assert_eq!(prop.received[id[1].index()].get(), 1);
        assert_eq!(prop.received[id[2].index()].get(), 1);
        assert_eq!(prop.received[id[3].index()].get(), 1);
        assert_eq!(prop.received[id[4].index()].get(), 2);
        assert_eq!(prop.received[id[5].index()].get(), 1);
        assert_eq!(prop.received[id[6].index()].get(), 4);
        assert_eq!(
            prop.received[id[0].index()].get(),
            0,
            "source receives nothing"
        );
        assert_eq!(prop.emitted[id[0].index()].get(), 1);
    }

    #[test]
    fn figure1_with_filter_at_z2() {
        let (cg, id) = figure1();
        let filters = FilterSet::from_nodes(7, [id[4]]);
        let prop: Propagation<Sat64> = propagate(&cg, &filters);
        // z2 still *receives* 2 (filters dedupe what they relay).
        assert_eq!(prop.received[id[4].index()].get(), 2);
        assert_eq!(prop.emitted[id[4].index()].get(), 1);
        // w now receives 1 + 1 + 1 = 3.
        assert_eq!(prop.received[id[6].index()].get(), 3);
    }

    #[test]
    fn filter_with_no_input_emits_nothing() {
        // 0(source) → 1; 2 is isolated and a filter.
        let g = DiGraph::from_pairs(3, [(0, 1)]).unwrap();
        let cg = CGraph::new(&g, NodeId::new(0)).unwrap();
        let filters = FilterSet::from_nodes(3, [NodeId::new(2)]);
        let prop: Propagation<Sat64> = propagate(&cg, &filters);
        assert_eq!(prop.emitted[2].get(), 0);
    }

    #[test]
    fn source_as_filter_still_emits_one() {
        let g = DiGraph::from_pairs(2, [(0, 1)]).unwrap();
        let cg = CGraph::new(&g, NodeId::new(0)).unwrap();
        let filters = FilterSet::from_nodes(2, [NodeId::new(0)]);
        let prop: Propagation<Sat64> = propagate(&cg, &filters);
        assert_eq!(prop.emitted[0].get(), 1);
        assert_eq!(prop.received[1].get(), 1);
    }

    #[test]
    fn counts_multiply_along_diamonds() {
        // Chain of d diamonds: received at the end = 2^d.
        let d = 10;
        let mut g = DiGraph::with_nodes(1);
        let mut tail = NodeId::new(0);
        for _ in 0..d {
            let a = g.add_node();
            let b = g.add_node();
            let join = g.add_node();
            g.add_edge(tail, a);
            g.add_edge(tail, b);
            g.add_edge(a, join);
            g.add_edge(b, join);
            tail = join;
        }
        let cg = CGraph::new(&g, NodeId::new(0)).unwrap();
        let prop: Propagation<Sat64> = propagate(&cg, &FilterSet::empty(g.node_count()));
        assert_eq!(prop.received[tail.index()].get(), 1 << d);
    }
}
