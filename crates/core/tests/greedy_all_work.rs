//! How much forward work a Greedy_All ladder does.
//!
//! The only test in this binary, so the process-global metrics registry
//! it reads holds its own engines' observations alone (tests of one
//! binary run in parallel and share the registry).

use fp_algorithms::{solve_ladder_with, SolverKind};
use fp_datasets::power_law::{self, PowerLawParams};
use fp_num::Wide128;
use fp_propagation::{CGraph, FilterSet, ImpactEngine};

#[test]
fn a_greedy_all_ladder_settles_a_small_part_of_a_power_law_graph() {
    let (g, source) = power_law::generate(&PowerLawParams {
        nodes: 20_000,
        mean_degree: 3,
        seed: 7,
    });
    let cg = CGraph::new(&g, source).unwrap();
    let n = cg.node_count();
    // Every pick observes the forward nodes settled since the previous
    // one, so the histogram's sum is the ladder's forward work.
    let forward = fp_obs::histogram(
        "fp_engine_forward_frontier_nodes",
        fp_obs::metrics::SIZE_BUCKETS,
    );
    let (count0, sum0) = (forward.count(), forward.sum());

    let ks: Vec<usize> = (0..=10).collect();
    let solver = SolverKind::GreedyAll.build::<Wide128>();
    let ladder = solve_ladder_with(solver.as_ref(), &cg, &ks, 0);
    let placement = &ladder.last().unwrap().1;
    assert_eq!(placement.len(), 10);
    assert_eq!(forward.count() - count0, 10, "one observation per pick");
    let settled = forward.sum() - sum0;
    assert!(
        settled <= n as u64 / 4,
        "the CELF ladder settled {settled} nodes of {n}"
    );

    // The eager engine makes the same picks and reprocesses far more:
    // each pick drains its whole forward frontier.
    let mut eager = ImpactEngine::<Wide128>::new(&cg, FilterSet::empty(n));
    for _ in 0..10 {
        let v = eager.best_candidate().unwrap();
        eager.insert_filter(v);
    }
    assert_eq!(eager.filters().nodes(), placement.nodes());
    let eager_work = forward.sum() - sum0 - settled;
    assert!(
        eager_work > n as u64,
        "the eager ladder reprocessed only {eager_work} nodes of {n}"
    );
}
