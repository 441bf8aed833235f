//! Ablation: incremental Φ bookkeeping versus full recomputation.
//!
//! The paper's §5 notes that after a Greedy_L pick "clever bookkeeping
//! allows us to make these updates in, practically, constant time".
//! This bench quantifies that: inserting ten filters one at a time with
//! (a) a full O(|E|) forward pass after each insertion vs (b) the
//! forward kernel `IncrementalPropagation`, which reprocesses only
//! affected descendants. Also measures Greedy_L end to end in both modes.

use criterion::{criterion_group, criterion_main, Criterion};
use fp_core::algorithms::{GreedyAll, GreedyL, Solver};
use fp_core::datasets::twitter_like::{self, TwitterLikeParams};
use fp_core::prelude::*;
use fp_core::propagation::incremental::IncrementalPropagation;
use fp_core::propagation::phi_total;
use std::hint::black_box;

fn bench_incremental(c: &mut Criterion) {
    let t = twitter_like::generate(&TwitterLikeParams {
        scale: 0.5,
        seed: fp_bench::SEED,
    });
    let cg = CGraph::new(&t.graph, t.source).expect("DAG");
    let n = t.graph.node_count();
    // A realistic insertion sequence: what Greedy_All actually picks.
    let picks: Vec<_> = GreedyAll::<Wide128>::new()
        .place(&cg, 10, 0)
        .nodes()
        .to_vec();

    // Correctness cross-check before timing.
    let mut inc = IncrementalPropagation::<Wide128>::new(&cg, FilterSet::empty(n));
    for &v in &picks {
        inc.insert_filter(&cg, v);
    }
    let full: Wide128 = phi_total(&cg, inc.filters());
    assert_eq!(*inc.phi(), full);

    let mut group = c.benchmark_group("phi_maintenance_10_insertions");
    group.sample_size(20);
    group.bench_function("full_recompute", |b| {
        b.iter(|| {
            let mut filters = FilterSet::empty(n);
            let mut phi = Wide128::zero();
            for &v in &picks {
                filters.insert(v);
                phi = phi_total(&cg, &filters);
            }
            black_box(phi)
        })
    });
    group.bench_function("incremental", |b| {
        b.iter(|| {
            let mut inc = IncrementalPropagation::<Wide128>::new(&cg, FilterSet::empty(n));
            for &v in &picks {
                inc.insert_filter(&cg, v);
            }
            black_box(*inc.phi())
        })
    });
    group.finish();

    let mut group = c.benchmark_group("greedy_l_modes_k10");
    group.sample_size(10);
    group.bench_function("incremental_bookkeeping", |b| {
        b.iter(|| black_box(GreedyL::<Wide128>::new().place(&cg, black_box(10), 0)))
    });
    group.bench_function("full_recompute", |b| {
        b.iter(|| black_box(GreedyL::<Wide128>::place_full_recompute(&cg, black_box(10))))
    });
    group.finish();
}

criterion_group!(benches, bench_incremental);
criterion_main!(benches);
