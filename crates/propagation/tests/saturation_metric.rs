//! `fp_count_saturated_total`: a declared counter whose `Φ(∅,V)` is
//! still saturated after the `u64` fallback is counted, not silent.
//!
//! The only test in this binary, so the process-global metrics registry
//! it reads holds its own solves' counts alone (tests of one binary run
//! in parallel and share the registry).

use fp_graph::{DiGraph, NodeId};
use fp_num::{Count, Wide128};
use fp_propagation::{CGraph, ObjectiveCache};

/// `diamonds` diamonds in a chain from node 0: `2^diamonds` paths reach
/// the last node.
fn diamond_chain(diamonds: usize) -> CGraph {
    let mut edges = Vec::new();
    for i in 0..diamonds {
        let (top, bottom) = (3 * i, 3 * i + 3);
        edges.extend([
            (top, top + 1),
            (top, top + 2),
            (top + 1, bottom),
            (top + 2, bottom),
        ]);
    }
    let g = DiGraph::from_pairs(3 * diamonds + 1, edges).unwrap();
    CGraph::new(&g, NodeId::new(0)).unwrap()
}

#[test]
fn a_declared_counter_saturated_after_the_u64_fallback_is_counted() {
    let saturated = fp_obs::counter("fp_count_saturated_total");
    let fallbacks = fp_obs::counter("fp_engine_u64_fallbacks_total");
    let read = || (saturated.get(), fallbacks.get());

    // The paper's Figure 1 fits u64: no fallback, nothing saturated.
    let figure1 = DiGraph::from_pairs(
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
    let before = read();
    let cache = ObjectiveCache::<Wide128>::new(&CGraph::new(&figure1, NodeId::new(0)).unwrap());
    assert_eq!(cache.phi_empty().get(), 10);
    assert_eq!(read(), before, "Figure 1");

    // 2^130 paths saturate u64, and then u128: one fallback, counted
    // once as saturated.
    let before = read();
    let cache = ObjectiveCache::<Wide128>::new(&diamond_chain(130));
    assert!(cache.phi_empty().is_saturated());
    assert_eq!(read(), (before.0 + 1, before.1 + 1), "130 diamonds");

    // 2^100 paths saturate u64 only: the fallback is exact.
    let before = read();
    let cache = ObjectiveCache::<Wide128>::new(&diamond_chain(100));
    assert!(!cache.phi_empty().is_saturated());
    assert_eq!(read(), (before.0, before.1 + 1), "100 diamonds");
}
