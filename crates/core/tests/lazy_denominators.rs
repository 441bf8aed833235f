//! `Problem` fills its FR denominators on first use, once.
//!
//! The only test in this binary, so the process-global metrics registry
//! it reads holds its own problems' counts alone (tests of one binary
//! run in parallel and share the registry).

use fp_core::prelude::*;
use std::sync::Barrier;

/// 70 diamonds in a chain from node 0: the last join receives `2^70`
/// copies, so a `u64` denominator pass saturates and falls back.
fn diamond_chain() -> DiGraph {
    let edges = (0..70).flat_map(|i| {
        let (top, bottom) = (3 * i, 3 * i + 3);
        [
            (top, top + 1),
            (top, top + 2),
            (top + 1, bottom),
            (top + 2, bottom),
        ]
    });
    DiGraph::from_pairs(211, edges).unwrap()
}

#[test]
fn denominators_are_filled_by_the_first_read_alone() {
    let fallbacks = fp_obs::counter("fp_engine_u64_fallbacks_total");
    let g = diamond_chain();
    let source = NodeId::new(0);
    let join = FilterSet::from_nodes(211, [NodeId::new(3)]);

    let before = fallbacks.get();
    let problem = Problem::from_cgraph(CGraph::new(&g, source).unwrap());
    let built = Problem::new(&g, source).unwrap();
    assert_eq!(fallbacks.get(), before, "building runs no pass");
    let fr = problem.filter_ratio(&join);
    assert_eq!(fallbacks.get(), before + 1, "the first read fills the pair");
    assert_eq!(problem.filter_ratio(&join).to_bits(), fr.to_bits());
    assert_eq!(fallbacks.get(), before + 1, "the second read reuses it");
    assert_eq!(built.filter_ratio(&join).to_bits(), fr.to_bits());

    // Two threads race on a fresh problem's first read: one pass, and
    // both read the same bits.
    let problem = Problem::from_cgraph(CGraph::new(&g, source).unwrap());
    let before = fallbacks.get();
    let start = Barrier::new(2);
    let frs: Vec<u64> = std::thread::scope(|scope| {
        let readers: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(|| {
                    start.wait();
                    problem.filter_ratio(&join).to_bits()
                })
            })
            .collect();
        readers.into_iter().map(|r| r.join().unwrap()).collect()
    });
    assert_eq!(frs, vec![fr.to_bits(); 2]);
    assert_eq!(fallbacks.get(), before + 1, "one fill for both readers");
}
