//! Ablation: engine-backed greedy rounds versus full-recompute rounds.
//!
//! Greedy_All needs every node's exact marginal impact each round. The
//! full-recompute path pays two fresh O(|E|) sweeps and three vector
//! allocations per round; the `ImpactEngine` pays the sweeps once and
//! then only O(affected ∪ ancestors-of-pick) incremental updates per
//! round, with zero per-round allocation. This bench quantifies the gap
//! on the layered-graph ladder [`fp_bench::SCALING_LADDER`], k = 10.
//! Placements are asserted identical across the two paths before
//! anything is timed, so a run is also an engine-vs-oracle check.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use fp_core::algorithms::{GreedyAll, Solver};
use fp_core::datasets::layered::{self, LayeredParams};
use fp_core::prelude::*;
use std::hint::black_box;

fn bench_engine_ablation(c: &mut Criterion) {
    for per_level in fp_bench::SCALING_LADDER {
        let lg = layered::generate(&LayeredParams {
            levels: 10,
            expected_per_level: per_level,
            x: 1.0,
            y: 4.0,
            seed: fp_bench::SEED,
        });
        let cg = CGraph::new(&lg.graph, lg.source).expect("DAG");

        // Equivalence cross-check before timing anything.
        let engine = GreedyAll::<Wide128>::new().place(&cg, 10, 0);
        let oracle = GreedyAll::<Wide128>::place_full_recompute(&cg, 10);
        assert_eq!(
            engine.nodes(),
            oracle.nodes(),
            "paths must place identically"
        );

        let mut group = c.benchmark_group(format!("greedy_all_rounds_n{}", lg.graph.node_count()));
        group.sample_size(10);
        group.throughput(Throughput::Elements(lg.graph.edge_count() as u64));
        group.bench_with_input(BenchmarkId::from_parameter("engine"), &cg, |b, cg| {
            b.iter(|| black_box(GreedyAll::<Wide128>::new().place(cg, black_box(10), 0)))
        });
        group.bench_with_input(
            BenchmarkId::from_parameter("full_recompute"),
            &cg,
            |b, cg| {
                b.iter(|| {
                    black_box(GreedyAll::<Wide128>::place_full_recompute(
                        cg,
                        black_box(10),
                    ))
                })
            },
        );
        group.finish();
    }
}

criterion_group!(benches, bench_engine_ablation);
criterion_main!(benches);
