//! The engine-backed solvers' counter choice changes no answer.
//!
//! Solvers declared at `Wide128` (Greedy_All's session and `place`,
//! CELF, Greedy_L, Greedy_Max) count in `u64` whenever a `u64` forward
//! pass finds `Φ(∅,V)` unsaturated, and their sessions take the FR
//! denominators from that pass instead of running passes of their own.
//! These tests pin both against un-narrowed references:
//!
//! * `ObjectiveCache::new` (one pass plus an edge count) and
//!   `ObjectiveCache::from_forward` equal the two-pass definition, kept
//!   verbatim below, bit for bit at every counter — on random DAGs
//!   whose source has in-edges and does not reach every node, and on a
//!   diamond chain where `Sat64` saturates;
//! * narrowed solvers give the placements and FR bits of the same
//!   solvers built at exact `BigCount`, at every budget of a ladder, on
//!   the generated graphs whose `Φ(∅,V)` comes nearest `u64::MAX` and
//!   on a graph too deep for `u64`, where the solvers fall back to
//!   `Wide128`;
//! * the sessions with no engine of their own (Greedy_1, Rand_K,
//!   Rand_I, Rand_W, betweenness), which read FR from a forward kernel
//!   that follows their placement, read a `Wide128` pass's FR bits at
//!   every stop of a walk up and back down the same ladders — and, with
//!   Greedy_Max, on a chain deep enough that `Wide128` saturates too,
//!   where the kernel's own `Φ` would be wrong and reads fall back to
//!   the pass.

use fp_core::algorithms::{Solver, SolverKind};
use fp_core::datasets::layered::{self, LayeredParams};
use fp_core::num::{ratio_or, Approx64, Sat64};
use fp_core::prelude::*;
use fp_core::propagation::incremental::IncrementalPropagation;
use fp_core::propagation::{phi_total, ObjectiveCache};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// The engine-backed solvers whose counter narrows.
const NARROWING_KINDS: [SolverKind; 3] = [
    SolverKind::GreedyAll,
    SolverKind::GreedyL,
    SolverKind::GreedyMax,
];

/// The sessions with no engine of their own, whose FR comes from a
/// kernel beside the session (all declared at `Wide128`).
const KERNEL_READ_KINDS: [SolverKind; 5] = [
    SolverKind::GreedyOne,
    SolverKind::RandK,
    SolverKind::RandI,
    SolverKind::RandW,
    SolverKind::Betweenness,
];

/// `(Φ(∅,V), F(V))` as `ObjectiveCache::new` computed them before it
/// counted `Φ(V,V)` from the unfiltered pass: two forward passes.
fn two_pass<C: Count>(cg: &CGraph) -> (C, C) {
    let n = cg.node_count();
    let phi_empty = phi_total::<C>(cg, &FilterSet::empty(n));
    let phi_all = phi_total::<C>(cg, &FilterSet::all(n));
    (phi_empty.clone(), phi_empty.saturating_sub(&phi_all))
}

/// Bit equality: `==` plus the `Debug` rendering, which also tells
/// `Approx64`'s `0.0` from `-0.0`.
fn same_bits<C: Count>(a: &C, b: &C) -> bool {
    a == b && format!("{a:?}") == format!("{b:?}")
}

fn assert_cache_matches_two_pass<C: Count>(cg: &CGraph) {
    let (phi_empty, f_all) = two_pass::<C>(cg);
    let fwd = IncrementalPropagation::<C>::new(cg, FilterSet::empty(cg.node_count()));
    for (how, cache) in [
        ("new", ObjectiveCache::<C>::new(cg)),
        ("from_forward", ObjectiveCache::from_forward(cg, &fwd)),
    ] {
        assert!(
            same_bits(cache.phi_empty(), &phi_empty),
            "{} {how}: Φ(∅,V) {} != {phi_empty}",
            C::type_name(),
            cache.phi_empty()
        );
        assert!(
            same_bits(cache.f_all(), &f_all),
            "{} {how}: F(V) {} != {f_all}",
            C::type_name(),
            cache.f_all()
        );
    }
}

/// A random DAG on `n` nodes (edges only from smaller to larger ids)
/// whose source sits anywhere: nodes before it are never reached, and
/// some of them feed the source.
fn random_dag(n: usize, p: f64, seed: u64) -> CGraph {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut g = DiGraph::with_nodes(n);
    for u in 0..n {
        for v in u + 1..n {
            if rng.random::<f64>() < p {
                g.add_edge(NodeId::new(u), NodeId::new(v));
            }
        }
    }
    let source = NodeId::new(rng.random_range(0..n));
    CGraph::new(&g, source).unwrap()
}

/// `d` diamonds in a row behind the source, each join fanning out to
/// two leaves: the last join receives `2^d` copies.
fn diamond_chain(d: usize) -> CGraph {
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
        for _ in 0..2 {
            let leaf = g.add_node();
            g.add_edge(join, leaf);
        }
        tail = join;
    }
    CGraph::new(&g, NodeId::new(0)).unwrap()
}

/// `(placement, FR bits)` at every budget `0..=kmax` of one session.
fn session_ladder(solver: &dyn Solver, cg: &CGraph, kmax: usize) -> Vec<(Vec<NodeId>, u64)> {
    let mut session = solver.session(cg, 0);
    (0..=kmax)
        .map(|k| {
            session.advance_to(k);
            (session.placement().nodes().to_vec(), session.fr().to_bits())
        })
        .collect()
}

/// Each narrowing solver built at `Wide128` answers like the same
/// solver built at `BigCount`: session rungs (placements and FR bits)
/// at every budget in `0..=kmax`, and one-shot `place` at `place_ks`.
fn assert_wide128_matches_bigcount(cg: &CGraph, kmax: usize, place_ks: &[usize]) {
    for kind in NARROWING_KINDS {
        let wide = kind.build::<Wide128>();
        let exact = kind.build::<BigCount>();
        let got = session_ladder(wide.as_ref(), cg, kmax);
        let want = session_ladder(exact.as_ref(), cg, kmax);
        for (k, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g.0, w.0, "{} session placement at k={k}", kind.label());
            assert_eq!(g.1, w.1, "{} session FR bits at k={k}", kind.label());
        }
        for &k in place_ks {
            assert_eq!(
                wide.place(cg, k, 0).nodes(),
                want[k].0.as_slice(),
                "{} place at k={k}",
                kind.label()
            );
            assert_eq!(
                wide.place(cg, k, 0).nodes(),
                exact.place(cg, k, 0).nodes(),
                "{} place vs BigCount place at k={k}",
                kind.label()
            );
        }
    }
}

/// Each kind's `Wide128` session, walked up `0..=kmax` and back down,
/// reads at every stop the FR of one `Wide128` pass over its placement
/// against the two-pass denominators, bit for bit.
fn assert_kernel_reads_match_the_pass(cg: &CGraph, kinds: &[SolverKind], kmax: usize) {
    let (phi_empty, f_all) = two_pass::<Wide128>(cg);
    for &kind in kinds {
        let solver = kind.build::<Wide128>();
        let mut session = solver.session(cg, 5);
        for k in (0..=kmax).chain((0..=kmax).rev()) {
            session.advance_to(k);
            let phi: Wide128 = phi_total(cg, session.placement());
            let want = ratio_or(&phi_empty.saturating_sub(&phi), &f_all, 1.0);
            assert_eq!(
                session.fr().to_bits(),
                want.to_bits(),
                "{} FR bits at k={k} ({} filters)",
                kind.label(),
                session.placement().len()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn objective_cache_equals_the_two_pass_definition_on_random_dags(
        n in 1usize..40,
        p in 0.02f64..0.4,
        seed in 0u64..100_000,
    ) {
        let cg = random_dag(n, p, seed);
        assert_cache_matches_two_pass::<Sat64>(&cg);
        assert_cache_matches_two_pass::<Wide128>(&cg);
        assert_cache_matches_two_pass::<BigCount>(&cg);
        assert_cache_matches_two_pass::<Approx64>(&cg);
    }
}

#[test]
fn objective_cache_equals_the_two_pass_definition_where_u64_saturates() {
    let cg = diamond_chain(70);
    assert!(two_pass::<Sat64>(&cg).0.is_saturated(), "Φ(∅,V) ≈ 2^72");
    assert_cache_matches_two_pass::<Sat64>(&cg);
    assert_cache_matches_two_pass::<Wide128>(&cg);
    assert_cache_matches_two_pass::<BigCount>(&cg);
    assert_cache_matches_two_pass::<Approx64>(&cg);
}

#[test]
fn narrowed_solvers_match_bigcount_on_the_generated_graphs_nearest_u64_max() {
    // Layered-dense has the largest Φ(∅,V) of the generated graphs:
    // 7.3·10^18 at seed 2012 and 7.6·10^18 at seed 99. Both fit u64, so
    // the Wide128 solvers run in u64.
    for (seed, kmax) in [(2012, 60), (99, 20)] {
        let gen = layered::generate(&LayeredParams::paper_dense(seed));
        let cg = CGraph::new(&gen.graph, gen.source).unwrap();
        let phi = ObjectiveCache::<BigCount>::new(&cg).phi_empty().to_f64();
        assert!((7.0e18..u64::MAX as f64).contains(&phi), "Φ(∅,V) = {phi:e}");
        assert_wide128_matches_bigcount(&cg, kmax, &[0, 1, 2, 10, kmax - 1, kmax]);
        assert_kernel_reads_match_the_pass(&cg, &KERNEL_READ_KINDS, kmax);
    }
}

#[test]
fn solvers_fall_back_to_wide128_where_u64_saturates_and_match_bigcount() {
    let cg = diamond_chain(70);
    // The fallback engages exactly when the u64 pass saturates.
    assert!(ObjectiveCache::<Sat64>::new(&cg).phi_empty().is_saturated());
    assert_wide128_matches_bigcount(&cg, 12, &[0, 1, 5, 12]);
    assert_kernel_reads_match_the_pass(&cg, &KERNEL_READ_KINDS, 12);
    // Counting in u64 here would give other answers: this is why the
    // solvers must fall back.
    let exact = session_ladder(SolverKind::GreedyAll.build::<BigCount>().as_ref(), &cg, 12);
    let sat = session_ladder(SolverKind::GreedyAll.build::<Sat64>().as_ref(), &cg, 12);
    assert_ne!(sat, exact, "u64 saturates and diverges on this graph");
}

#[test]
fn kernel_reads_fall_back_to_the_pass_where_wide128_saturates() {
    // 130 diamonds: the last join alone receives 2^130 copies.
    let cg = diamond_chain(130);
    let (phi_empty, _) = two_pass::<Wide128>(&cg);
    assert!(phi_empty.is_saturated(), "Φ(∅,V) ≈ 2^133");
    // The kernel's Φ, ceiling minus deltas, is not the pass's here.
    let mut fwd = IncrementalPropagation::<Wide128>::new(&cg, FilterSet::empty(cg.node_count()));
    fwd.insert_filter(&cg, NodeId::new(3));
    assert_ne!(
        *fwd.phi(),
        phi_total::<Wide128>(&cg, fwd.filters()),
        "a clamped kernel drifts from the pass"
    );
    let mut kinds = vec![SolverKind::GreedyMax];
    kinds.extend(KERNEL_READ_KINDS);
    assert_kernel_reads_match_the_pass(&cg, &kinds, 12);
}
