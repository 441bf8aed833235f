//! Integration tests for the beyond-the-paper extensions at dataset
//! scale: branch-and-bound exactness, incremental bookkeeping,
//! Monte-Carlo greedy, multi-source greedy, and the CLI pipeline.

use fp_core::algorithms::{
    optimal_placement_bb, Celf, Gains, GreedyAll, MonteCarloGreedy, MultiGreedy, Solver,
};
use fp_core::datasets::quote_like::{self, QuoteLikeParams};
use fp_core::datasets::twitter_like::{self, TwitterLikeParams};
use fp_core::prelude::*;
use fp_core::propagation::incremental::IncrementalPropagation;
use fp_core::propagation::probabilistic::{expected_filter_ratio, RelayProb};
use fp_core::propagation::{f_value, phi_total, DeferredEngine, ImpactEngine};

#[test]
fn branch_and_bound_certifies_greedy_on_a_real_dataset() {
    // On the quote-like graph the greedy solution is provably optimal
    // (the hub structure has no correlation traps): branch and bound
    // certifies it exactly.
    let q = quote_like::generate(&QuoteLikeParams {
        nodes: 150,
        seed: 21,
    });
    let cg = CGraph::new(&q.graph, q.source).unwrap();
    for k in 1..=3 {
        let exact = optimal_placement_bb::<Wide128>(&cg, k);
        let greedy = GreedyAll::<Wide128>::new().place(&cg, k, 0);
        let f_greedy: Wide128 = f_value(&cg, &greedy);
        assert!(
            exact.f_value >= f_greedy,
            "exact can never be worse (k={k})"
        );
        let ratio = fp_core::num::ratio(&f_greedy, &exact.f_value).unwrap_or(1.0);
        assert!(
            ratio >= 1.0 - 1e-9,
            "on the hub-structured graph greedy should be optimal (k={k}, ratio {ratio})"
        );
    }
}

#[test]
fn incremental_phi_matches_full_recompute_on_twitter_like() {
    let t = twitter_like::generate(&TwitterLikeParams {
        scale: 0.05,
        seed: 33,
    });
    let cg = CGraph::new(&t.graph, t.source).unwrap();
    let n = t.graph.node_count();
    let picks = GreedyAll::<Wide128>::new().place(&cg, 8, 0);
    let mut inc = IncrementalPropagation::<Wide128>::new(&cg, FilterSet::empty(n));
    let mut reference = FilterSet::empty(n);
    for &v in picks.nodes() {
        inc.insert_filter(&cg, v);
        reference.insert(v);
        let full: Wide128 = phi_total(&cg, &reference);
        assert_eq!(*inc.phi(), full, "divergence after inserting {v}");
    }
}

#[test]
fn monte_carlo_greedy_beats_deterministic_placement_under_heavy_loss() {
    // With lossy relaying the deterministic graph overestimates deep
    // multiplicities; the sampled placement must be at least
    // competitive under the true (sampled) objective.
    let q = quote_like::generate(&QuoteLikeParams {
        nodes: 200,
        seed: 14,
    });
    let p = 0.5;
    let k = 4;
    let cg = CGraph::new(&q.graph, q.source).unwrap();
    let det = GreedyAll::<Wide128>::new().place(&cg, k, 0);
    let mc = MonteCarloGreedy::new(&q.graph, q.source, p, 40, 5).place_sampled(k);
    let probs = RelayProb::Uniform(p);
    let fr_det = expected_filter_ratio(&q.graph, q.source, &probs, &det, 300, 77);
    let fr_mc = expected_filter_ratio(&q.graph, q.source, &probs, &mc, 300, 77);
    assert!(
        fr_mc >= fr_det - 0.05,
        "sampled placement must be competitive: {fr_mc:.3} vs {fr_det:.3}"
    );
    assert!(fr_mc > 0.1, "and actually useful: {fr_mc:.3}");
}

#[test]
fn multi_source_greedy_handles_competing_cascades() {
    // Two posters start separate cascades in the twitter-like graph;
    // the combined objective is served by a single placement.
    let t = twitter_like::generate(&TwitterLikeParams {
        scale: 0.02,
        seed: 8,
    });
    let second_source = t.celebrities[0];
    let sources = [(t.source, 1u64), (second_source, 2u64)];
    let multi = MultiGreedy::new(&t.graph, &sources).unwrap();
    let placement = multi.place::<Wide128>(8);
    assert!(!placement.is_empty());
    let f: Wide128 = multi.f_value(&t.graph, &sources, &placement);
    // Must at least match running single-source greedy and evaluating
    // on the combined objective.
    let cg = CGraph::new(&t.graph, t.source).unwrap();
    let single = GreedyAll::<Wide128>::new().place(&cg, 8, 0);
    let f_single: Wide128 = multi.f_value(&t.graph, &sources, &single);
    assert!(f >= f_single, "{f} vs {f_single}");
}

/// Gains that count their exact evaluations: the seed as one, and each
/// re-score as one more.
struct Counted<G> {
    gains: G,
    evaluations: u64,
}

impl<G: Gains> Gains for Counted<G> {
    type Gain = G::Gain;

    fn positive(&mut self) -> impl Iterator<Item = (NodeId, G::Gain)> + '_ {
        self.evaluations += 1;
        self.gains.positive()
    }

    fn gain(&mut self, v: NodeId) -> G::Gain {
        self.evaluations += 1;
        self.gains.gain(v)
    }

    fn take(&mut self, v: NodeId) {
        self.gains.take(v);
    }
}

#[test]
fn lazy_greedy_matches_eager_at_dataset_scale() {
    let t = twitter_like::generate(&TwitterLikeParams {
        scale: 0.05,
        seed: 2,
    });
    let cg = CGraph::new(&t.graph, t.source).unwrap();
    let eager = GreedyAll::<Wide128>::place_full_recompute(&cg, 10);
    assert_eq!(
        GreedyAll::<Wide128>::new().place(&cg, 10, 0).nodes(),
        eager.nodes()
    );
    // The CELF loop Greedy_All runs, with its evaluations counted.
    let engine = ImpactEngine::<Wide128>::new(&cg, FilterSet::empty(cg.node_count()));
    let mut celf = Celf::new(Counted {
        gains: DeferredEngine::new(engine),
        evaluations: 0,
    });
    let lazy: Vec<NodeId> = celf.by_ref().take(10).map(|(v, _)| v).collect();
    assert_eq!(eager.nodes(), lazy);
    // Laziness's whole point: far fewer than n·k evaluations.
    let evaluations = celf.gains().evaluations;
    assert!(
        evaluations < (t.graph.node_count() as u64) / 2,
        "evaluations: {evaluations}"
    );
}

#[test]
fn cli_pipeline_generate_stats_solve_sweep() {
    use fp_core::cli::run_with_input;
    let argv = |list: &[&str]| -> Vec<String> { list.iter().map(|s| s.to_string()).collect() };

    let edges = run_with_input(
        &argv(&[
            "generate",
            "--dataset",
            "twitter",
            "--scale",
            "0.01",
            "--seed",
            "4",
        ]),
        "",
    )
    .unwrap();

    let stats = run_with_input(&argv(&["stats"]), &edges).unwrap();
    assert!(stats.contains("nodes:"), "{stats}");

    let solved = run_with_input(
        &argv(&["solve", "--source", "0", "--solver", "G_ALL", "--k", "6"]),
        &edges,
    )
    .unwrap();
    assert!(
        solved.contains("1.0000"),
        "six filters reach FR 1: {solved}"
    );

    let sweep = run_with_input(
        &argv(&[
            "sweep", "--source", "0", "--kmax", "6", "--trials", "3", "--format", "csv",
        ]),
        &edges,
    )
    .unwrap();
    assert!(sweep.lines().count() == 8, "{sweep}");
}
