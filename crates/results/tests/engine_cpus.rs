//! Runner workers hold their CPUs, so an engine started inside a pool
//! at one job per core runs its backward sweep inline, and one started
//! beside a single job takes the free CPU for its helper (DESIGN.md §8).
//! Its own binary: it records the global tracer's spans.

use fp_graph::{DiGraph, NodeId};
use fp_num::Sat64;
use fp_propagation::{CGraph, FilterSet, ImpactEngine, INIT_HELPER_MIN_EDGES};
use fp_results::{available_cores, run_parallel, RunnerOptions};
use std::sync::Barrier;

/// A chain of diamonds with exactly [`INIT_HELPER_MIN_EDGES`] edges.
fn large_graph() -> CGraph {
    let edges = (0..INIT_HELPER_MIN_EDGES / 4).flat_map(|i| {
        let (top, bottom) = (3 * i, 3 * i + 3);
        [
            (top, top + 1),
            (top, top + 2),
            (top + 1, bottom),
            (top + 2, bottom),
        ]
    });
    let g = DiGraph::from_pairs(3 * INIT_HELPER_MIN_EDGES / 4 + 1, edges).unwrap();
    CGraph::new(&g, NodeId::new(0)).unwrap()
}

/// Start one engine per item on `jobs` workers; every worker reaches
/// its start before any start ends, and none leaves before all ended.
/// Returns the `helper` arg of every backward sweep, sorted.
fn helper_args(cg: &CGraph, jobs: usize) -> Vec<i64> {
    let tracer = fp_obs::tracer();
    tracer.enable();
    let (before, after) = (Barrier::new(jobs), Barrier::new(jobs));
    let items: Vec<usize> = (0..jobs).collect();
    run_parallel(&items, &RunnerOptions::with_jobs(jobs), |_, _| {
        before.wait();
        let _engine = ImpactEngine::<Sat64>::new(cg, FilterSet::empty(cg.node_count()));
        after.wait();
    });
    tracer.disable();
    let mut args: Vec<i64> = tracer
        .records()
        .iter()
        .filter(|r| r.name == "engine.init.backward")
        .filter_map(|r| r.args.iter().find(|(k, _)| *k == "helper"))
        .map(|&(_, v)| v)
        .collect();
    args.sort_unstable();
    args
}

#[test]
fn engines_take_a_helper_only_beside_a_free_cpu() {
    let cg = large_graph();
    assert_eq!(cg.edge_count(), INIT_HELPER_MIN_EDGES);
    let cpus = available_cores();
    assert_eq!(helper_args(&cg, cpus), vec![0; cpus], "one job per core");
    assert_eq!(
        helper_args(&cg, 1),
        vec![i64::from(cpus > 1)],
        "one job leaves a CPU free"
    );
}
