//! `online-churn`: `OnlinePlacement` (k = 8, drift threshold 0.002)
//! replaying 20 000 events of `mutation_stream` on the citation-like
//! graph. It is the one workload on the engine's write path
//! (`ImpactEngine::apply` edge inserts and removes) beside its read
//! path (the repairs, on a few percent of events); serve mutations
//! clone and rebuild instead.
//!
//! The events come as 20 bursts of 1 000, each from its own seed and
//! each on a fresh `OnlinePlacement` over the original graph. One long stream
//! drifts the graph far from where it started, so how much repair work
//! it triggers depends on its one seed; bursts spread that over twenty.

use crate::harness::{derive, ms, seeds, Args, Phase, Reference, Report, Scratch};
use crate::sweeps::{citation_edge_list, load_edge_file};
use fp_core::num::Wide128;
use fp_core::online::{greedy_rebuild, mutation_stream, OnlineConfig, OnlinePlacement};
use fp_core::propagation::{ImpactEngine, Mutation};
use std::collections::BTreeMap;
use std::time::Instant;

const K: usize = 8;
const DRIFT: f64 = 0.002;
const BURSTS: usize = 20;
const BURST_EVENTS: usize = 1_000;
/// Set-ups per phase, timed in one window: one lasts about ten
/// milliseconds.
const SETUPS_PER_PHASE: usize = 8;

pub fn online_churn(args: &Args, scratch: &Scratch) -> Result<Report, String> {
    let (text, source_label) = citation_edge_list();
    let path = scratch.path().join("citation.edges");
    std::fs::write(&path, &text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    let (cg, edges) = load_edge_file(&path, &source_label)?;
    let stream_seed = derive(args.seed, seeds::STREAM);
    let streams: Vec<Vec<Mutation>> = (0..BURSTS)
        .map(|b| mutation_stream(&cg, BURST_EVENTS, derive(stream_seed, b as u64)))
        .collect();
    let cfg = OnlineConfig {
        k: K,
        drift_threshold: DRIFT,
    };
    let mut report = Report::default();
    // Set-up: read, parse and freeze the graph, then place the first k
    // filters (the placement's cold greedy solve).
    let setup = || -> Result<OnlinePlacement, String> {
        let (cg, _) = load_edge_file(&path, &source_label)?;
        let _span = fp_obs::span("online.init");
        Ok(OnlinePlacement::new(cg, cfg))
    };

    report.measure(args, Reference::CoreCache, |_, traced, tracing| {
        let (built, setups) = tracing.window(traced, || {
            for _ in 0..SETUPS_PER_PHASE {
                setup()?;
            }
            Ok::<_, String>(())
        })?;
        built?;
        let setup_s = vec![setups.elapsed_s / SETUPS_PER_PHASE as f64];
        // Every burst starts on a fresh placement over the original
        // graph; they are built before the timed window.
        let mut placements: Vec<OnlinePlacement> = (0..BURSTS)
            .map(|_| OnlinePlacement::new(cg.clone(), cfg))
            .collect();
        let mut ops_ms = Vec::with_capacity(BURSTS * BURST_EVENTS);
        let mut failed = 0u64;
        let (_, window) = tracing.window(traced, || {
            for (live, burst) in placements.iter_mut().zip(&streams) {
                for &m in burst {
                    let t = Instant::now();
                    if live.apply_event(m).is_err() {
                        failed += 1;
                    }
                    ops_ms.push(ms(t));
                }
            }
        })?;

        // Checks, outside the timed window: a final repair must land on
        // exactly the cold greedy solve of the final graph.
        let mut errors = Vec::new();
        let (mut repairs, mut repair_picks) = (0, 0);
        for live in &mut placements {
            let stats = live.stats();
            repairs += stats.repairs;
            repair_picks += stats.repair_picks;
            live.repair();
            let rebuilt = greedy_rebuild(live.engine().cgraph(), K);
            if rebuilt.nodes() != live.placement().nodes() {
                errors.push(format!(
                    "online-churn: repaired placement {:?} != greedy_rebuild {:?}",
                    live.placement().nodes(),
                    rebuilt.nodes()
                ));
            }
        }
        if failed > 0 {
            errors.push(format!("online-churn: {failed} events were rejected"));
        }
        let mut counts = BTreeMap::new();
        window.counters.engine_counts(&mut counts);
        counts.insert(
            "online.events",
            window.counters.get("fp_online_events_total"),
        );
        counts.insert("online.repairs", repairs as u64);
        counts.insert("online.repair_picks", repair_picks as u64);
        Ok(Phase {
            traced,
            setup_s,
            ops_ms,
            failed,
            counts,
            errors,
            window,
        })
    })?;

    if args.trace {
        // The write path alone: the same events applied straight to an
        // engine holding the initial placement, with no repairs.
        let initial = greedy_rebuild(&cg, K);
        report
            .tracing
            .window(true, || {
                for burst in &streams {
                    let mut engine =
                        ImpactEngine::<Wide128>::from_owned(cg.clone(), initial.clone());
                    for &m in burst {
                        let _span = fp_obs::span("engine.apply");
                        engine.apply(m).map_err(|e| format!("{m:?}: {e:?}"))?;
                    }
                }
                Ok::<_, String>(())
            })?
            .0?;
        let d = report.tracing.digest();
        let fp = report.fingerprint.clone();
        let count = |name: &str| fp.get(name).copied().unwrap_or(0) as f64;
        let l = &mut report.ledger;
        l.set("ingest.parse_s", d.median_s("ingest.parse"));
        l.set("ingest.edges", edges as f64);
        l.set("freeze.s", d.median_s("freeze"));
        l.set("engine.apply_ms", d.median_ms("engine.apply"));
        l.set("online.events", count("online.events"));
        l.set("online.repairs", count("online.repairs"));
        l.set("online.repair_picks", count("online.repair_picks"));
        l.set("online.repair_ms", d.median_ms("online.repair"));
    }
    Ok(report)
}
