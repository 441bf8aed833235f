//! Session ↔ one-shot ↔ oracle equivalence on random inputs.
//!
//! The session API promises that walking one
//! [`fp_core::algorithms::SolverSession`] up the budget axis visits
//! exactly the placements the one-shot API would produce — that is
//! what lets `deterministic_curve` evaluate a whole ks-axis through a
//! single engine while stored run directories stay byte-identical.
//! These properties pin it on random DAGs:
//!
//! * for **every** `SolverKind` and both `Sat64`/`Wide128`, the
//!   session's placement after advancing to `k` is bit-identical to
//!   one-shot `place(cg, k, seed)` and to the full-recompute oracle
//!   (`SolverKind::place_oracle`);
//! * prefix-nested solvers reach the same states when stepped one
//!   `next_filter` rung at a time;
//! * the session's live-state `fr()` is bit-identical to the
//!   `ObjectiveCache` ratio of the same placement, at every rung;
//! * `Problem::solve_ladder` agrees with per-k `solve_seeded` +
//!   `filter_ratio`, budget for budget;
//! * Rand_I's and Rand_W's threshold draws nest in `k`, equal the draw
//!   loops they replaced bit for bit, and do not depend on the budgets
//!   a session visited before — placements and FR bits alike, on a
//!   walk up the budgets and back down;
//! * the CELF session both Greedy_All solvers run, walked over unsorted
//!   budgets with duplicates, sits on the eager full-recompute
//!   placement with its pass-based FR at every rung — on random DAGs
//!   and on a deep diamond chain whose candidates sit last in the
//!   topological order.

use fp_core::algorithms::{solve_ladder_with, GreedyAll, RandW};
use fp_core::datasets::erdos_renyi;
use fp_core::num::Sat64;
use fp_core::prelude::*;
use fp_core::propagation::{filter_ratio, ObjectiveCache};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Every registry entry — the paper's seven plus Betweenness.
const ALL_KINDS: [SolverKind; 8] = [
    SolverKind::GreedyAll,
    SolverKind::GreedyMax,
    SolverKind::GreedyOne,
    SolverKind::GreedyL,
    SolverKind::RandW,
    SolverKind::RandI,
    SolverKind::RandK,
    SolverKind::Betweenness,
];

/// Rand_I's draw loop before Rand_I and Rand_W shared one threshold
/// session, kept verbatim as the reference for that session.
fn reference_rand_i(cg: &CGraph, k: usize, seed: u64) -> FilterSet {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let n = cg.node_count();
    let p = if n == 0 { 0.0 } else { k as f64 / n as f64 };
    let mut filters = FilterSet::empty(n);
    for v in cg.nodes() {
        if v != cg.source() && rng.random::<f64>() < p {
            filters.insert(v);
        }
    }
    filters
}

/// Rand_W's draw loop before the shared threshold session, verbatim.
fn reference_rand_w(cg: &CGraph, k: usize, seed: u64) -> FilterSet {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let n = cg.node_count();
    let scale = if n == 0 { 0.0 } else { k as f64 / n as f64 };
    let mut filters = FilterSet::empty(n);
    for v in cg.nodes() {
        if v == cg.source() {
            continue;
        }
        let p = (RandW::weight(cg, v) * scale).min(1.0);
        if rng.random::<f64>() < p {
            filters.insert(v);
        }
    }
    filters
}

/// A reference draw: the placement at budget `k` under `seed`.
type Draw = fn(&CGraph, usize, u64) -> FilterSet;

/// The threshold solvers with their reference draw loops.
const THRESHOLD_KINDS: [(SolverKind, Draw); 2] = [
    (SolverKind::RandI, reference_rand_i),
    (SolverKind::RandW, reference_rand_w),
];

/// Every budget in `0..=2n`, then a few at or above 2³⁰, ascending.
fn threshold_budgets(cg: &CGraph) -> Vec<usize> {
    let mut ks: Vec<usize> = (0..=2 * cg.node_count()).collect();
    ks.extend([1 << 30, (1 << 30) + 1, 1 << 40, usize::MAX]);
    ks
}

/// One session advanced to each `k ≤ k_max` must match the one-shot
/// and oracle placements bit for bit, and report the cache-identical
/// FR at every stop.
fn ladder_matches_for<C: Count>(
    seed: u64,
    p: f64,
    k_max: usize,
) -> Result<(), proptest::TestCaseError> {
    let (g, s) = erdos_renyi::generate(14, p, seed);
    let cg = CGraph::new(&g, s).unwrap();
    let cache = ObjectiveCache::<C>::new(&cg);
    for kind in ALL_KINDS {
        let solver = kind.build::<C>();
        let mut session = solver.session(&cg, seed);
        for k in 0..=k_max {
            session.advance_to(k);
            let one_shot = solver.place(&cg, k, seed);
            prop_assert_eq!(
                session.placement().nodes(),
                one_shot.nodes(),
                "{:?} session diverged from place at k={}",
                kind,
                k
            );
            let oracle = kind.place_oracle::<C>(&cg, k, seed);
            prop_assert_eq!(
                one_shot.nodes(),
                oracle.nodes(),
                "{:?} diverged from its oracle at k={}",
                kind,
                k
            );
            let fr = session.fr();
            let expect = cache.filter_ratio(&cg, session.placement());
            prop_assert_eq!(
                fr.to_bits(),
                expect.to_bits(),
                "{:?} fr diverged at k={} ({} vs {})",
                kind,
                k,
                fr,
                expect
            );
        }
    }
    Ok(())
}

/// Greedy_All's ladder over `ks` against
/// [`GreedyAll::place_full_recompute`] and [`filter_ratio`]:
/// `(k, placement, FR bits)` equal at every rung, in `ks`'s order.
fn greedy_all_ladders_match<C: Count>(
    cg: &CGraph,
    ks: &[usize],
) -> Result<(), proptest::TestCaseError> {
    let ladder = solve_ladder_with(SolverKind::GreedyAll.build::<C>().as_ref(), cg, ks, 0);
    prop_assert_eq!(ladder.len(), ks.len());
    for ((k, placement, fr), &asked) in ladder.iter().zip(ks) {
        prop_assert_eq!(*k, asked);
        let oracle = GreedyAll::<C>::place_full_recompute(cg, asked);
        prop_assert_eq!(
            placement.nodes(),
            oracle.nodes(),
            "placement diverged at k={}",
            asked
        );
        let expect = filter_ratio::<C>(cg, &oracle);
        prop_assert_eq!(
            fr.to_bits(),
            expect.to_bits(),
            "FR diverged at k={} ({} vs {})",
            asked,
            fr,
            expect
        );
    }
    Ok(())
}

/// `diamonds` diamonds in a row, each join also feeding a sink, after
/// `leaves` sinks hanging off the source. The chain is labelled
/// backwards, so the order is Kahn's layering with every candidate
/// behind the leaves: the last nodes of the order.
fn diamond_chain_after_leaves(leaves: usize, diamonds: usize) -> CGraph {
    let n = 1 + leaves + 4 * diamonds;
    // Chain node `i` (0-based, in chain order) gets the `i`-th largest id.
    let chain = |i: usize| NodeId::new(n - 1 - i);
    let mut pairs: Vec<(usize, usize)> = (1..=leaves).map(|l| (0, l)).collect();
    let mut tail = NodeId::new(0);
    for d in 0..diamonds {
        let (a, b, join, sink) = (
            chain(4 * d),
            chain(4 * d + 1),
            chain(4 * d + 2),
            chain(4 * d + 3),
        );
        for (u, v) in [(tail, a), (tail, b), (a, join), (b, join), (join, sink)] {
            pairs.push((u.index(), v.index()));
        }
        tail = join;
    }
    let g = DiGraph::from_pairs(n, pairs).unwrap();
    CGraph::new(&g, NodeId::new(0)).unwrap()
}

/// Twelve budgets, unsorted, with duplicates, past the early stop.
const CHAIN_BUDGETS: [usize; 12] = [7, 0, 3, 3, 12, 1, 200, 5, 2, 12, 40, 9];

#[test]
fn greedy_all_ladders_match_the_eager_oracle_on_a_diamond_chain() {
    // Φ(∅,V) near 2^31 fits every counter; Sat64 and Wide128 both run
    // the session in u64.
    let cg = diamond_chain_after_leaves(25, 30);
    let order = cg.topo().to_vec();
    assert!(
        order[..26].iter().all(|v| v.index() <= 25),
        "the source and the leaves come first"
    );
    assert!(
        order.iter().enumerate().any(|(i, v)| v.index() != i),
        "Kahn's order, not the identity"
    );
    greedy_all_ladders_match::<Sat64>(&cg, &CHAIN_BUDGETS).unwrap();
    greedy_all_ladders_match::<Wide128>(&cg, &CHAIN_BUDGETS).unwrap();
    // 70 diamonds: Φ(∅,V) passes u64::MAX, so the Wide128 solvers fall
    // back to Wide128, where the FR still comes from the picks' gains.
    let deep = diamond_chain_after_leaves(25, 70);
    greedy_all_ladders_match::<Wide128>(&deep, &CHAIN_BUDGETS).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn greedy_all_ladders_match_the_eager_oracle_on_random_dags(
        seed in 0u64..4000,
        p in 0.08f64..0.35,
        ks in proptest::collection::vec(0usize..18, 1..10),
    ) {
        let (g, s) = erdos_renyi::generate(16, p, seed);
        let cg = CGraph::new(&g, s).unwrap();
        greedy_all_ladders_match::<Sat64>(&cg, &ks)?;
        greedy_all_ladders_match::<Wide128>(&cg, &ks)?;
    }

    #[test]
    fn sessions_match_one_shot_and_oracle_sat64(
        seed in 0u64..4000,
        p in 0.08f64..0.35,
        k_max in 0usize..6,
    ) {
        ladder_matches_for::<Sat64>(seed, p, k_max)?;
    }

    #[test]
    fn sessions_match_one_shot_and_oracle_wide128(
        seed in 0u64..4000,
        p in 0.08f64..0.35,
        k_max in 0usize..6,
    ) {
        ladder_matches_for::<Wide128>(seed, p, k_max)?;
    }

    #[test]
    fn sessions_still_match_after_graph_mutations(
        seed in 0u64..4000,
        p in 0.08f64..0.35,
        k_max in 0usize..5,
        gap in 1usize..6,
    ) {
        // The serve daemon re-solves on a *mutated* CGraph after every
        // accepted mutation; the session ↔ one-shot ↔ oracle promise
        // must hold on those graphs too, not just freshly-frozen ones.
        // Insert one absent forward edge (topo positions i, i+gap) and
        // remove one existing edge, then re-pin every solver kind.
        let (g, s) = erdos_renyi::generate(14, p, seed);
        let mut cg = CGraph::new(&g, s).unwrap();
        let topo = cg.topo().to_vec();
        let mut inserted = false;
        'outer: for (i, &u) in topo.iter().enumerate() {
            for &v in topo.iter().skip(i + gap) {
                if !cg.csr().children(u).contains(&v) {
                    prop_assert_eq!(cg.insert_edge(u, v), Ok(false));
                    inserted = true;
                    break 'outer;
                }
            }
        }
        let first_edge = cg.csr().edges().next();
        if let Some((eu, ev)) = first_edge {
            prop_assert!(cg.remove_edge(eu, ev));
        }
        prop_assert!(inserted || cg.edge_count() == 0);
        let cache = ObjectiveCache::<Wide128>::new(&cg);
        for kind in ALL_KINDS {
            let solver = kind.build::<Wide128>();
            let mut session = solver.session(&cg, seed);
            for k in 0..=k_max {
                session.advance_to(k);
                let one_shot = solver.place(&cg, k, seed);
                prop_assert_eq!(
                    session.placement().nodes(),
                    one_shot.nodes(),
                    "{:?} session diverged on mutated graph at k={}",
                    kind,
                    k
                );
                let oracle = kind.place_oracle::<Wide128>(&cg, k, seed);
                prop_assert_eq!(one_shot.nodes(), oracle.nodes());
                prop_assert_eq!(
                    session.fr().to_bits(),
                    cache.filter_ratio(&cg, session.placement()).to_bits()
                );
            }
        }
    }

    #[test]
    fn nested_solvers_step_through_identical_prefixes(
        seed in 0u64..4000,
        p in 0.08f64..0.35,
    ) {
        // Rung-by-rung next_filter (not advance_to): after k successful
        // steps a prefix-nested session must sit exactly on place(k).
        let (g, s) = erdos_renyi::generate(14, p, seed);
        let cg = CGraph::new(&g, s).unwrap();
        for kind in [
            SolverKind::GreedyAll,
            SolverKind::GreedyMax,
            SolverKind::GreedyOne,
            SolverKind::GreedyL,
            SolverKind::RandK,
            SolverKind::Betweenness,
        ] {
            let solver = kind.build::<Wide128>();
            let mut session = solver.session(&cg, seed);
            let mut k = 0usize;
            loop {
                let stepped = session.next_filter();
                if let Some(v) = stepped {
                    k += 1;
                    prop_assert_eq!(
                        session.placement().nodes().last().copied(),
                        Some(v),
                        "{:?}: returned filter must be the appended one",
                        kind
                    );
                }
                let one_shot = solver.place(&cg, k, seed);
                prop_assert_eq!(
                    session.placement().nodes(),
                    one_shot.nodes(),
                    "{:?} prefix diverged after {} steps",
                    kind,
                    k
                );
                if stepped.is_none() || k > 14 {
                    break;
                }
            }
        }
    }

    #[test]
    fn problem_ladder_matches_per_k_solves(
        seed in 0u64..4000,
        p in 0.08f64..0.35,
        k_max in 0usize..6,
    ) {
        let (g, s) = erdos_renyi::generate(14, p, seed);
        let problem = Problem::new(&g, s).unwrap();
        let ks: Vec<usize> = (0..=k_max).collect();
        for kind in ALL_KINDS {
            let ladder = problem.solve_ladder(kind, &ks, seed);
            prop_assert_eq!(ladder.len(), ks.len());
            for (k, placement, fr) in ladder {
                let one_shot = problem.solve_seeded(kind, k, seed);
                prop_assert_eq!(
                    placement.nodes(),
                    one_shot.nodes(),
                    "{:?} ladder placement diverged at k={}",
                    kind,
                    k
                );
                prop_assert_eq!(
                    fr.to_bits(),
                    problem.filter_ratio(&one_shot).to_bits(),
                    "{:?} ladder FR diverged at k={}",
                    kind,
                    k
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn rand_threshold_draws_nest_in_k(seed in 0u64..4000, p in 0.08f64..0.35) {
        let (g, s) = erdos_renyi::generate(14, p, seed);
        let cg = CGraph::new(&g, s).unwrap();
        let ks = threshold_budgets(&cg);
        for (kind, _) in THRESHOLD_KINDS {
            let solver = kind.build::<Wide128>();
            let draws: Vec<FilterSet> = ks.iter().map(|&k| solver.place(&cg, k, seed)).collect();
            for (i, small) in draws.iter().enumerate() {
                for (large, &k) in draws[i..].iter().zip(&ks[i..]) {
                    prop_assert!(
                        small.nodes().iter().all(|&v| large.contains(v)),
                        "{:?}: the draw at k={} misses part of the draw at k={}",
                        kind,
                        k,
                        ks[i]
                    );
                }
            }
        }
    }

    #[test]
    fn rand_threshold_draws_match_the_reference_loops(
        seed in 0u64..4000,
        p in 0.08f64..0.35,
    ) {
        let (g, s) = erdos_renyi::generate(14, p, seed);
        let cg = CGraph::new(&g, s).unwrap();
        for (kind, reference) in THRESHOLD_KINDS {
            let solver = kind.build::<Wide128>();
            for k in threshold_budgets(&cg) {
                let (placed, expect) = (solver.place(&cg, k, seed), reference(&cg, k, seed));
                prop_assert_eq!(
                    placed.nodes(),
                    expect.nodes(),
                    "{:?} diverged from its reference draw at k={}",
                    kind,
                    k
                );
            }
        }
    }

    #[test]
    fn rand_threshold_sessions_walked_up_and_down_land_on_place(
        seed in 0u64..4000,
        p in 0.08f64..0.35,
    ) {
        let (g, s) = erdos_renyi::generate(14, p, seed);
        let cg = CGraph::new(&g, s).unwrap();
        let ks = threshold_budgets(&cg);
        let cache = ObjectiveCache::<Wide128>::new(&cg);
        for (kind, _) in THRESHOLD_KINDS {
            let solver = kind.build::<Wide128>();
            let mut session = solver.session(&cg, seed);
            for &k in ks.iter().chain(ks.iter().rev()) {
                session.advance_to(k);
                let one_shot = solver.place(&cg, k, seed);
                prop_assert_eq!(
                    session.placement().nodes(),
                    one_shot.nodes(),
                    "{:?} session diverged from place at k={}",
                    kind,
                    k
                );
                // The way down drops filters from the session's kernel.
                let expect = cache.filter_ratio(&cg, session.placement());
                prop_assert_eq!(
                    session.fr().to_bits(),
                    expect.to_bits(),
                    "{:?} fr diverged at k={}",
                    kind,
                    k
                );
            }
        }
    }
}
