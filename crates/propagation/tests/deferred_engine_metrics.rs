//! What a `DeferredEngine` reports to the engine metrics.
//!
//! The only test in this binary, so the process-global metrics registry
//! it reads holds its own engine's observations alone (tests of one
//! binary run in parallel and share the registry).

use fp_graph::{DiGraph, NodeId};
use fp_num::Wide128;
use fp_propagation::{CGraph, DeferredEngine, FilterSet, ImpactEngine};

#[test]
fn the_walks_after_the_last_insert_are_reported_when_the_wrapper_drops() {
    // The paper's Figure 1: s x y z1 z2 z3 w = 0..=6.
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
    let buckets = fp_obs::metrics::SIZE_BUCKETS;
    let forward = fp_obs::histogram("fp_engine_forward_frontier_nodes", buckets);
    let dense_flips = fp_obs::counter("fp_engine_dense_flips_total");
    let mutations = fp_obs::counter("fp_engine_mutations_total");
    let read = || (forward.sum(), dense_flips.get(), mutations.get());

    // The eager engine walks z2's downstream as part of the insert.
    let before = read();
    let mut eager = ImpactEngine::<Wide128>::new(&cg, FilterSet::empty(7));
    assert!(eager.insert_filter(NodeId::new(4)));
    let after = read();
    let eager_walk = (after.0 - before.0, after.1 - before.1);
    assert!(eager_walk.0 > 0);
    assert_eq!(after.2 - before.2, 1);

    // The deferred insert settles nothing (nothing is pending) and
    // leaves that walk to the settle after it, the last one it makes.
    let before = read();
    let mut engine = ImpactEngine::<Wide128>::new(&cg, FilterSet::empty(7));
    let mut deferred = DeferredEngine::new(&mut engine);
    assert!(deferred.insert_filter(NodeId::new(4)));
    assert_eq!(deferred.settle().phi().get(), 9);
    drop(deferred);
    let after = read();
    assert_eq!(
        (after.0 - before.0, after.1 - before.1),
        eager_walk,
        "the walk after the last insert is reported when the wrapper drops"
    );
    assert_eq!(after.2 - before.2, 1, "as a walk of no mutation");
    assert_eq!(engine.filters().nodes(), eager.filters().nodes());
}
