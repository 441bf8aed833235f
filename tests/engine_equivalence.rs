//! Engine ↔ oracle equivalence on random inputs.
//!
//! The `ImpactEngine` keeps prefix, suffix, and Φ state up to date
//! incrementally; these properties pin it to the naive full-recompute
//! path on random DAGs and random filter-insertion sequences:
//!
//! * engine scores (received/emitted/suffix/impacts/Φ) equal a fresh
//!   `propagate` / `suffix_sensitivity` / `impacts` / `phi_total` after
//!   *every* insertion, for both `Sat64` and `Wide128` — and so does
//!   the standalone forward kernel Greedy_L runs, driven through the
//!   same insertions beside the engine;
//! * every engine-backed solver places identically to its
//!   full-recompute oracle (`SolverKind::place_oracle`), which is what
//!   keeps stored run directories byte-stable across the engine
//!   rewrite;
//! * a `DeferredEngine` driven through random interleavings of deferred
//!   filter inserts and settling reads answers every read like a fresh
//!   `propagate`/`impacts`, and once fully settled equals an eager
//!   engine fed the same inserts bit for bit;
//! * the batched drop of every filter (`ImpactEngine::clear_filters`),
//!   applied at random points of the random mutation sequences, equals
//!   both a fresh rebuild and the same drop made one `RemoveFilter` at
//!   a time;
//! * an `OnlinePlacement` replaying `mutation_stream` repairs onto
//!   Greedy_All's full-recompute placement of the current graph, with
//!   the outcomes, stats and drift bits of the drop-then-argmax loop
//!   its repairs replaced;
//! * on a power-law graph past `INIT_HELPER_MIN_EDGES`, whose engines
//!   start their backward sweep on a helper thread wherever a second
//!   CPU is available, the Greedy_All and Greedy_Max ladders place as
//!   their oracles do, with `Problem::filter_ratio`'s FR bits.

use fp_core::algorithms::{GreedyAll, MultiGreedy, Solver};
use fp_core::datasets::{erdos_renyi, power_law};
use fp_core::num::Sat64;
use fp_core::online::{mutation_stream, EventOutcome, OnlineConfig, OnlinePlacement, OnlineStats};
use fp_core::prelude::*;
use fp_core::propagation::incremental::IncrementalPropagation;
use fp_core::propagation::{
    impacts, phi_total, propagate, suffix_sensitivity, DeferredEngine, ImpactEngine, Mutation,
    INIT_HELPER_MIN_EDGES,
};
use proptest::prelude::*;

/// Check the engine against every oracle quantity under `filters`.
fn assert_engine_matches_oracle<C: Count>(
    engine: &ImpactEngine<C>,
    cg: &CGraph,
    context: &str,
) -> Result<(), proptest::TestCaseError> {
    let fresh = propagate::<C>(cg, engine.filters());
    let suffix: Vec<C> = suffix_sensitivity(cg, engine.filters());
    let oracle: Vec<C> = impacts(cg, engine.filters());
    for v in cg.nodes() {
        let i = v.index();
        prop_assert_eq!(
            engine.received(v),
            &fresh.received[i],
            "received({}) diverged {}",
            i,
            context
        );
        prop_assert_eq!(
            engine.emitted(v),
            &fresh.emitted[i],
            "emitted({}) diverged {}",
            i,
            context
        );
        prop_assert_eq!(
            engine.suffix(v),
            &suffix[i],
            "suffix({}) diverged {}",
            i,
            context
        );
        prop_assert_eq!(
            engine.impact(v),
            oracle[i].clone(),
            "impact({}) diverged {}",
            i,
            context
        );
    }
    prop_assert_eq!(
        engine.phi().clone(),
        phi_total::<C>(cg, engine.filters()),
        "phi diverged {}",
        context
    );
    Ok(())
}

/// Random insertion order over all node ids, derived from a seed.
fn insertion_sequence(n: usize, seed: u64) -> Vec<NodeId> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    for i in (1..n).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = (state >> 33) as usize % (i + 1);
        order.swap(i, j);
    }
    order.into_iter().map(NodeId::new).collect()
}

/// Check two engines against each other on every score and `Φ`.
fn assert_engines_agree<C: Count>(
    engine: &ImpactEngine<C>,
    other: &ImpactEngine<C>,
    context: &str,
) -> Result<(), proptest::TestCaseError> {
    prop_assert_eq!(engine.filters().nodes(), other.filters().nodes());
    for v in engine.cgraph().nodes() {
        let i = v.index();
        prop_assert_eq!(
            engine.received(v),
            other.received(v),
            "received({}) {}",
            i,
            context
        );
        prop_assert_eq!(
            engine.emitted(v),
            other.emitted(v),
            "emitted({}) {}",
            i,
            context
        );
        prop_assert_eq!(
            engine.suffix(v),
            other.suffix(v),
            "suffix({}) {}",
            i,
            context
        );
        prop_assert_eq!(
            engine.impact(v),
            other.impact(v),
            "impact({}) {}",
            i,
            context
        );
    }
    prop_assert_eq!(engine.phi(), other.phi(), "phi {}", context);
    Ok(())
}

/// Drive `steps` random mutations (all four [`Mutation`] kinds, plus
/// the batched drop of every filter) through the engine while
/// mirroring each accepted one onto a plain `CGraph`/`FilterSet` pair,
/// checking the engine against a fresh oracle recompute on the mirror
/// after every step, and each batched drop against the same drop made
/// one `RemoveFilter` at a time.
fn mutation_sequence_matches_rebuild<C: Count>(
    seed: u64,
    p: f64,
    steps: usize,
) -> Result<(), proptest::TestCaseError> {
    let (g, s) = erdos_renyi::generate(16, p, seed);
    let cg = CGraph::new(&g, s).unwrap();
    let n = cg.node_count();
    let mut mirror_cg = cg.clone();
    let mut mirror_filters = FilterSet::empty(n);
    let mut engine = ImpactEngine::<C>::new(&cg, FilterSet::empty(n));
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state
    };
    for step in 0..steps {
        if next() % 5 == 0 {
            let context = format!("after step {step} (batched drop) [seed {seed}]");
            let mut sequential = engine.clone();
            for &w in mirror_filters.nodes() {
                sequential.apply(Mutation::RemoveFilter(w)).unwrap();
            }
            let out = engine.clear_filters();
            prop_assert_eq!(out.changed, !mirror_filters.is_empty());
            mirror_filters = FilterSet::empty(n);
            assert_engines_agree(&engine, &sequential, &context)?;
            assert_engine_matches_oracle(&engine, &mirror_cg, &context)?;
            continue;
        }
        let r = next();
        let u = NodeId::new((r >> 8) as usize % n);
        let v = NodeId::new((r >> 32) as usize % n);
        let m = match r % 4 {
            0 => Mutation::InsertFilter(u),
            1 => Mutation::RemoveFilter(u),
            2 if u != v && !engine.cgraph().csr().children(u).contains(&v) => {
                Mutation::InsertEdge { from: u, to: v }
            }
            _ => {
                // Remove a random existing edge (or skip on an
                // edgeless graph).
                let edges: Vec<_> = engine.cgraph().csr().edges().collect();
                if edges.is_empty() {
                    continue;
                }
                let (eu, ev) = edges[(r >> 16) as usize % edges.len()];
                Mutation::RemoveEdge { from: eu, to: ev }
            }
        };
        match engine.apply(m) {
            Ok(_) => match m {
                Mutation::InsertFilter(w) => {
                    mirror_filters.insert(w);
                }
                Mutation::RemoveFilter(w) => {
                    mirror_filters.remove(w);
                }
                Mutation::InsertEdge { from, to } => {
                    mirror_cg.insert_edge(from, to).unwrap();
                }
                Mutation::RemoveEdge { from, to } => {
                    assert!(mirror_cg.remove_edge(from, to));
                }
            },
            // The only rejection a candidate can still hit is a
            // would-be cycle on a backward edge insert; skip it.
            Err(e) => prop_assert!(
                matches!(m, Mutation::InsertEdge { .. }),
                "unexpected rejection of {}: {}",
                m,
                e
            ),
        }
        prop_assert_eq!(engine.filters().nodes(), mirror_filters.nodes());
        prop_assert_eq!(engine.cgraph().edge_count(), mirror_cg.edge_count());
        assert_engine_matches_oracle(
            &engine,
            &mirror_cg,
            &format!("after step {step} ({m}) [seed {seed}]"),
        )?;
    }
    // And the endpoint in one shot: a fresh engine built on the final
    // mirror state agrees with the mutated one on every score.
    let fresh = ImpactEngine::<C>::new(&mirror_cg, mirror_filters);
    assert_engines_agree(&engine, &fresh, "against a fresh engine")
}

/// Check the standalone forward kernel against the engine's forward
/// half and against a fresh `propagate` / `phi_total`.
fn assert_kernel_matches<C: Count>(
    kernel: &IncrementalPropagation<C>,
    engine: &ImpactEngine<C>,
    cg: &CGraph,
    context: &str,
) -> Result<(), proptest::TestCaseError> {
    prop_assert_eq!(kernel.filters().nodes(), engine.filters().nodes());
    let fresh = propagate::<C>(cg, kernel.filters());
    for v in cg.nodes() {
        let i = v.index();
        prop_assert_eq!(
            kernel.received(v),
            engine.received(v),
            "kernel received({}) left the engine {}",
            i,
            context
        );
        prop_assert_eq!(
            kernel.received(v),
            &fresh.received[i],
            "kernel received({}) diverged {}",
            i,
            context
        );
        prop_assert_eq!(
            kernel.emitted(v),
            engine.emitted(v),
            "kernel emitted({}) left the engine {}",
            i,
            context
        );
        prop_assert_eq!(
            kernel.emitted(v),
            &fresh.emitted[i],
            "kernel emitted({}) diverged {}",
            i,
            context
        );
    }
    prop_assert_eq!(
        kernel.phi(),
        engine.phi(),
        "kernel phi left the engine {}",
        context
    );
    prop_assert_eq!(
        kernel.phi().clone(),
        phi_total::<C>(cg, kernel.filters()),
        "kernel phi diverged {}",
        context
    );
    Ok(())
}

fn scores_match_for<C: Count>(
    seed: u64,
    p: f64,
    inserts: usize,
) -> Result<(), proptest::TestCaseError> {
    let (g, s) = erdos_renyi::generate(16, p, seed);
    let cg = CGraph::new(&g, s).unwrap();
    let n = g.node_count();
    let mut engine = ImpactEngine::<C>::new(&cg, FilterSet::empty(n));
    let mut kernel = IncrementalPropagation::<C>::new(&cg, FilterSet::empty(n));
    assert_engine_matches_oracle(&engine, &cg, "before any insertion")?;
    assert_kernel_matches(&kernel, &engine, &cg, "before any insertion")?;
    for (step, &v) in insertion_sequence(n, seed ^ 0xABCD)
        .iter()
        .take(inserts)
        .enumerate()
    {
        let fresh = engine.insert_filter(v);
        prop_assert_eq!(kernel.insert_filter(&cg, v), fresh);
        let context = format!("after step {step} (node {v:?})");
        assert_engine_matches_oracle(&engine, &cg, &context)?;
        assert_kernel_matches(&kernel, &engine, &cg, &context)?;
    }
    Ok(())
}

/// A random DAG whose labels are shuffled, so its topological order is
/// Kahn's layering rather than the identity (`relabel`), or kept as
/// generated (identity order).
fn random_cgraph(seed: u64, p: f64, relabel: bool) -> CGraph {
    let (g, s) = erdos_renyi::generate(18, p, seed);
    if !relabel {
        return CGraph::new(&g, s).unwrap();
    }
    let n = g.node_count();
    let perm = insertion_sequence(n, seed ^ 0x7E7E);
    let edges: Vec<(usize, usize)> = g
        .edges()
        .map(|(u, v)| (perm[u.index()].index(), perm[v.index()].index()))
        .collect();
    let shuffled = DiGraph::from_pairs(n, edges).unwrap();
    CGraph::new(&shuffled, perm[s.index()]).unwrap()
}

/// Interleave deferred inserts with settling reads of `received` and
/// `impact`, each checked against a fresh pass under the filters placed
/// so far; then settle fully and compare every value with an eager
/// engine that took the same inserts.
fn deferred_reads_match_for<C: Count>(
    cg: &CGraph,
    ops: &[(u32, usize)],
) -> Result<(), proptest::TestCaseError> {
    let n = cg.node_count();
    let mut deferred = DeferredEngine::new(ImpactEngine::<C>::new(cg, FilterSet::empty(n)));
    let mut eager = ImpactEngine::<C>::new(cg, FilterSet::empty(n));
    for (step, &(op, node)) in ops.iter().enumerate() {
        let v = NodeId::new(node % n);
        match op % 3 {
            0 => {
                prop_assert_eq!(deferred.insert_filter(v), eager.insert_filter(v));
            }
            1 => {
                let fresh = propagate::<C>(cg, deferred.filters());
                prop_assert_eq!(
                    deferred.received(v),
                    &fresh.received[v.index()],
                    "received({:?}) at step {}",
                    v,
                    step
                );
            }
            _ => {
                let oracle: Vec<C> = impacts(cg, deferred.filters());
                prop_assert_eq!(
                    deferred.impact(v),
                    oracle[v.index()].clone(),
                    "impact({:?}) at step {}",
                    v,
                    step
                );
            }
        }
    }
    let settled = deferred.settle();
    prop_assert_eq!(settled.filters().nodes(), eager.filters().nodes());
    for v in cg.nodes() {
        prop_assert_eq!(settled.received(v), eager.received(v), "received({:?})", v);
        prop_assert_eq!(settled.emitted(v), eager.emitted(v), "emitted({:?})", v);
        prop_assert_eq!(settled.suffix(v), eager.suffix(v), "suffix({:?})", v);
        prop_assert_eq!(settled.impact(v), eager.impact(v), "impact({:?})", v);
    }
    prop_assert_eq!(settled.phi(), eager.phi());
    assert_engine_matches_oracle(settled, cg, "after the full settle")
}

/// The online repair as it was before it became one batched drop plus
/// CELF re-picks, replayed here as the reference: every filter removed
/// with its own `RemoveFilter`, then one eager argmax scan per pick.
struct DropThenArgmax {
    engine: ImpactEngine<'static, Wide128>,
    cfg: OnlineConfig,
    phi_ref: f64,
    stats: OnlineStats,
}

impl DropThenArgmax {
    fn new(cg: CGraph, cfg: OnlineConfig) -> Self {
        let n = cg.node_count();
        let mut driver = Self {
            engine: ImpactEngine::from_owned(cg, FilterSet::empty(n)),
            cfg,
            phi_ref: 0.0,
            stats: OnlineStats::default(),
        };
        driver.fill();
        driver.phi_ref = driver.engine.phi().to_f64();
        driver
    }

    fn fill(&mut self) -> usize {
        let mut picks = 0;
        while self.engine.filters().len() < self.cfg.k {
            let Some(v) = self.engine.best_candidate() else {
                break;
            };
            self.engine.insert_filter(v);
            picks += 1;
        }
        picks
    }

    fn drift(&self) -> f64 {
        (self.engine.phi().to_f64() - self.phi_ref).abs() / self.phi_ref.max(1.0)
    }

    fn repair(&mut self) -> usize {
        for v in self.engine.filters().nodes().to_vec() {
            self.engine.apply(Mutation::RemoveFilter(v)).unwrap();
        }
        let picks = self.fill();
        self.phi_ref = self.engine.phi().to_f64();
        self.stats.repairs += 1;
        self.stats.repair_picks += picks;
        picks
    }

    fn apply_event(&mut self, m: Mutation) -> EventOutcome {
        let changed = self.engine.apply(m).unwrap().changed;
        self.stats.applied += usize::from(changed);
        let drift = self.drift();
        let (repaired, repair_picks) = if drift > self.cfg.drift_threshold {
            (true, self.repair())
        } else {
            (false, 0)
        };
        EventOutcome {
            changed,
            drift: self.drift(),
            repaired,
            repair_picks,
        }
    }
}

/// Replay `mutation_stream` through an `OnlinePlacement` and the
/// drop-then-argmax reference side by side: every event's outcome
/// (drift bits included) and placement agree, every repair lands on
/// Greedy_All's full-recompute placement of the current graph and
/// leaves the engine settled and exact, and so does a final forced
/// repair.
fn online_repairs_match_for(
    cg: CGraph,
    cfg: OnlineConfig,
    events: usize,
    seed: u64,
) -> Result<(), proptest::TestCaseError> {
    let stream = mutation_stream(&cg, events, seed);
    let mut live = OnlinePlacement::new(cg.clone(), cfg);
    let mut reference = DropThenArgmax::new(cg, cfg);
    let check = |live: &OnlinePlacement, context: &str| {
        let current = live.engine().cgraph();
        let oracle = GreedyAll::<Wide128>::place_full_recompute(current, cfg.k);
        prop_assert_eq!(live.placement().nodes(), oracle.nodes(), "{}", context);
        assert_engine_matches_oracle(live.engine(), current, context)
    };
    check(&live, "initial placement")?;
    for (i, &m) in stream.iter().enumerate() {
        let context = format!("event {i} ({m})");
        let got = live.apply_event(m).unwrap();
        let want = reference.apply_event(m);
        prop_assert_eq!(got.changed, want.changed, "{}", context);
        prop_assert_eq!(got.repaired, want.repaired, "{}", context);
        prop_assert_eq!(got.repair_picks, want.repair_picks, "{}", context);
        prop_assert_eq!(got.drift.to_bits(), want.drift.to_bits(), "{}", context);
        prop_assert_eq!(
            live.placement().nodes(),
            reference.engine.filters().nodes(),
            "{}",
            context
        );
        if got.repaired {
            check(&live, &context)?;
        }
    }
    prop_assert_eq!(live.stats(), reference.stats);
    prop_assert_eq!(live.repair(), reference.repair());
    prop_assert_eq!(live.drift().to_bits(), reference.drift().to_bits());
    check(&live, "forced repair")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn online_repairs_match_the_drop_then_argmax_loop(
        seed in 0u64..4000,
        p in 0.08f64..0.4,
        shape in 0usize..24,
        events in 0usize..40,
    ) {
        // Identity and shuffled-label orders, budgets 1..=4, and each
        // threshold of {0, 0.01, ∞}.
        let relabel = shape % 2 == 1;
        let cfg = OnlineConfig {
            k: 1 + shape / 2 % 4,
            drift_threshold: [0.0, 0.01, f64::INFINITY][shape / 8],
        };
        online_repairs_match_for(random_cgraph(seed, p, relabel), cfg, events, seed)?;
    }

    #[test]
    fn deferred_inserts_and_settled_reads_match_sat64(
        seed in 0u64..4000,
        p in 0.08f64..0.4,
        relabel in any::<bool>(),
        ops in proptest::collection::vec((any::<u32>(), any::<usize>()), 0..40),
    ) {
        deferred_reads_match_for::<Sat64>(&random_cgraph(seed, p, relabel), &ops)?;
    }

    #[test]
    fn deferred_inserts_and_settled_reads_match_wide128(
        seed in 0u64..4000,
        p in 0.08f64..0.4,
        relabel in any::<bool>(),
        ops in proptest::collection::vec((any::<u32>(), any::<usize>()), 0..40),
    ) {
        deferred_reads_match_for::<Wide128>(&random_cgraph(seed, p, relabel), &ops)?;
    }

    #[test]
    fn engine_scores_equal_the_oracle_sat64(
        seed in 0u64..4000,
        p in 0.08f64..0.4,
        inserts in 0usize..10,
    ) {
        scores_match_for::<Sat64>(seed, p, inserts)?;
    }

    #[test]
    fn engine_scores_equal_the_oracle_wide128(
        seed in 0u64..4000,
        p in 0.08f64..0.4,
        inserts in 0usize..10,
    ) {
        scores_match_for::<Wide128>(seed, p, inserts)?;
    }

    #[test]
    fn random_mutation_sequences_match_a_fresh_rebuild_sat64(
        seed in 0u64..4000,
        p in 0.08f64..0.4,
        steps in 0usize..24,
    ) {
        mutation_sequence_matches_rebuild::<Sat64>(seed, p, steps)?;
    }

    #[test]
    fn random_mutation_sequences_match_a_fresh_rebuild_wide128(
        seed in 0u64..4000,
        p in 0.08f64..0.4,
        steps in 0usize..24,
    ) {
        mutation_sequence_matches_rebuild::<Wide128>(seed, p, steps)?;
    }

    #[test]
    fn insert_then_remove_edge_is_identity(
        seed in 0u64..4000,
        p in 0.08f64..0.4,
        inserts in 0usize..8,
    ) {
        // Against an arbitrary filter state, inserting any absent
        // forward edge and removing it again must restore every score
        // bit for bit.
        let (g, s) = erdos_renyi::generate(16, p, seed);
        let cg = CGraph::new(&g, s).unwrap();
        let n = cg.node_count();
        let mut engine = ImpactEngine::<Wide128>::new(&cg, FilterSet::empty(n));
        for &v in insertion_sequence(n, seed ^ 0x5151).iter().take(inserts) {
            engine.insert_filter(v);
        }
        let topo = engine.cgraph().topo().to_vec();
        let mut pair = None;
        'outer: for (i, &u) in topo.iter().enumerate() {
            for &v in &topo[i + 1..] {
                if !engine.cgraph().csr().children(u).contains(&v) {
                    pair = Some((u, v));
                    break 'outer;
                }
            }
        }
        let Some((u, v)) = pair else { return Ok(()) };
        let received: Vec<_> = cg.nodes().map(|w| *engine.received(w)).collect();
        let suffix: Vec<_> = cg.nodes().map(|w| *engine.suffix(w)).collect();
        let phi = *engine.phi();
        let ins = engine.apply(Mutation::InsertEdge { from: u, to: v }).unwrap();
        prop_assert!(ins.changed && !ins.reordered);
        let rm = engine.apply(Mutation::RemoveEdge { from: u, to: v }).unwrap();
        prop_assert!(rm.changed);
        prop_assert_eq!(engine.cgraph().edge_count(), cg.edge_count());
        for w in cg.nodes() {
            prop_assert_eq!(engine.received(w), &received[w.index()]);
            prop_assert_eq!(engine.suffix(w), &suffix[w.index()]);
        }
        prop_assert_eq!(engine.phi(), &phi);
        assert_engine_matches_oracle(&engine, &cg, "after insert+remove round-trip")?;
    }

    #[test]
    fn every_solver_places_identically_on_both_paths(
        seed in 0u64..4000,
        p in 0.08f64..0.35,
        k in 0usize..6,
    ) {
        let (g, s) = erdos_renyi::generate(14, p, seed);
        let cg = CGraph::new(&g, s).unwrap();
        for kind in [
            SolverKind::GreedyAll,
            SolverKind::GreedyMax,
            SolverKind::GreedyL,
        ] {
            let engine = kind.build::<Wide128>().place(&cg, k, 0);
            let oracle = kind.place_oracle::<Wide128>(&cg, k, 0);
            prop_assert_eq!(
                engine.nodes(),
                oracle.nodes(),
                "{:?} diverged from its oracle at k={}",
                kind,
                k
            );
            // And across count types, engine path only.
            let engine_sat = kind.build::<Sat64>().place(&cg, k, 0);
            prop_assert_eq!(engine.nodes(), engine_sat.nodes());
        }
    }

    #[test]
    fn multi_greedy_places_identically_on_both_paths(
        seed in 0u64..4000,
        p in 0.08f64..0.3,
        k in 0usize..5,
        rate in 1u64..20,
    ) {
        let (g, s) = erdos_renyi::generate(12, p, seed);
        // Two sources: the DAG root plus its first child (if any), one
        // of them rate-skewed; plus a zero-rate source that must be a
        // no-op on both paths.
        let second = g
            .out_neighbors(s)
            .first()
            .copied()
            .unwrap_or(s);
        let sources = [(s, 1), (second, rate), (s, 0)];
        let multi = MultiGreedy::new(&g, &sources).unwrap();
        let engine = multi.place::<Wide128>(k);
        let oracle = multi.place_full_recompute::<Wide128>(k);
        prop_assert_eq!(
            engine.nodes(),
            oracle.nodes(),
            "multi-greedy diverged at k={}",
            k
        );
    }

    #[test]
    fn lazy_and_eager_agree_with_the_eager_oracle(
        seed in 0u64..4000,
        p in 0.08f64..0.35,
        k in 0usize..6,
    ) {
        // The strongest cross-check: the CELF session on the engine,
        // CELF on fresh sweeps and eager argmax on fresh sweeps all land
        // on the same placement.
        let (g, s) = erdos_renyi::generate(14, p, seed);
        let cg = CGraph::new(&g, s).unwrap();
        let eager_oracle = GreedyAll::<Wide128>::place_full_recompute(&cg, k);
        let lazy_oracle = GreedyAll::<Wide128>::place_celf_full_recompute(&cg, k);
        let session = GreedyAll::<Wide128>::new().place(&cg, k, 0);
        prop_assert_eq!(session.nodes(), eager_oracle.nodes());
        prop_assert_eq!(session.nodes(), lazy_oracle.nodes());
    }
}

#[test]
fn ladders_past_the_helper_threshold_match_the_oracles() {
    let (g, s) = power_law::generate(&power_law::PowerLawParams {
        nodes: 50_000,
        mean_degree: 3,
        seed: 7,
    });
    let problem = Problem::new(&g, s).unwrap();
    let cg = problem.cgraph();
    assert!(
        cg.edge_count() >= INIT_HELPER_MIN_EDGES,
        "{} edges",
        cg.edge_count()
    );
    let ks: Vec<usize> = (0..=5).collect();
    for kind in [SolverKind::GreedyAll, SolverKind::GreedyMax] {
        for (k, placement, fr) in problem.solve_ladder(kind, &ks, 0) {
            let oracle = kind.place_oracle::<Wide128>(cg, k, 0);
            assert_eq!(placement.nodes(), oracle.nodes(), "{kind:?} k={k}");
            assert_eq!(
                fr.to_bits(),
                problem.filter_ratio(&oracle).to_bits(),
                "{kind:?} k={k}"
            );
        }
    }
}
