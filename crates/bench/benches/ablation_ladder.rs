//! Ablation: session-walked FR curves versus per-k re-solves.
//!
//! A sweep's curve cell needs `(k, FR)` for every budget on the axis.
//! The per-k baseline re-solves each budget from scratch and pays a
//! fresh `ObjectiveCache::f_of` forward pass per FR readout —
//! O(Σₖ solve(k)). The session path walks one
//! `SolverSession` up the axis: one engine initialization, one greedy
//! round per rung, FR read from the live Φ — O(solve(k_max)). This
//! bench quantifies the gap for Greedy_All on the layered-graph ladder
//! [`fp_bench::SCALING_LADDER`], ks = 0..=10.
//!
//! Placements and FR bits are asserted identical across the two paths
//! before anything is timed.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use fp_core::datasets::layered::{self, LayeredParams};
use fp_core::prelude::*;
use std::hint::black_box;

/// The per-k baseline: solve every budget from scratch and evaluate FR
/// through the problem's objective cache (one pass per point).
fn per_k_curve(problem: &Problem, ks: &[usize]) -> Vec<(usize, f64)> {
    ks.iter()
        .map(|&k| {
            let placement = problem.solve(SolverKind::GreedyAll, k);
            (k, problem.filter_ratio(&placement))
        })
        .collect()
}

/// The session path: one ladder walk (what `deterministic_curve` runs).
fn session_curve(problem: &Problem, ks: &[usize]) -> Vec<(usize, f64)> {
    problem
        .solve_ladder(SolverKind::GreedyAll, ks, 0)
        .into_iter()
        .map(|(k, _, fr)| (k, fr))
        .collect()
}

fn bench_ladder_ablation(c: &mut Criterion) {
    let ks: Vec<usize> = (0..=10).collect();
    for per_level in fp_bench::SCALING_LADDER {
        let lg = layered::generate(&LayeredParams {
            levels: 10,
            expected_per_level: per_level,
            x: 1.0,
            y: 4.0,
            seed: fp_bench::SEED,
        });
        let problem = Problem::new(&lg.graph, lg.source).expect("DAG");

        // Equivalence cross-check before timing anything: identical
        // budgets, identical FR bits, identical placements.
        let session = problem.solve_ladder(SolverKind::GreedyAll, &ks, 0);
        for (k, placement, fr) in &session {
            let one_shot = problem.solve(SolverKind::GreedyAll, *k);
            assert_eq!(placement.nodes(), one_shot.nodes(), "k={k}");
            assert_eq!(
                fr.to_bits(),
                problem.filter_ratio(&one_shot).to_bits(),
                "k={k}"
            );
        }

        let mut group = c.benchmark_group(format!("curve_cell_n{}", lg.graph.node_count()));
        group.sample_size(10);
        group.throughput(Throughput::Elements(lg.graph.edge_count() as u64));
        group.bench_with_input(BenchmarkId::from_parameter("session"), &problem, |b, p| {
            b.iter(|| black_box(session_curve(p, black_box(&ks))))
        });
        group.bench_with_input(BenchmarkId::from_parameter("per_k"), &problem, |b, p| {
            b.iter(|| black_box(per_k_curve(p, black_box(&ks))))
        });
        group.finish();
    }
}

criterion_group!(benches, bench_ladder_ablation);
criterion_main!(benches);
