//! Observation is a side channel: enabling the span recorder must
//! leave every solver-visible bit untouched. These gates run the full
//! paper solver set traced and untraced and require identical
//! placements and FR bits — the contract that lets `--trace` ship on
//! production sweeps without a determinism caveat.

use fp_algorithms::SolverKind;
use fp_core::propagation::CGraph;
use fp_core::scale::{Csr32, MemBudget, VecStream};
use fp_core::Problem;
use fp_graph::{DiGraph, NodeId};
use proptest::prelude::*;

/// Tests that toggle the process-global tracer hold this lock so a
/// concurrent `enable()` (which clears the ring) cannot race another
/// test's span-count assertion.
static TRACER_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Every (k, placement, FR-bits) triple a full paper-set ladder walk
/// produces — the complete solver-visible output of a sweep cell.
fn all_ladders(g: &DiGraph, seed: u64) -> Vec<(usize, Vec<NodeId>, u64)> {
    let p = Problem::new(g, NodeId::new(0)).unwrap();
    let ks: Vec<usize> = (0..=4).collect();
    SolverKind::PAPER_SET
        .iter()
        .flat_map(|&kind| {
            p.solve_ladder(kind, &ks, seed)
                .into_iter()
                .map(|(k, placement, fr)| (k, placement.nodes().to_vec(), fr.to_bits()))
        })
        .collect()
}

fn figure1() -> DiGraph {
    DiGraph::from_pairs(
        7,
        [
            (0, 1),
            (0, 2),
            (1, 3),
            (1, 4),
            (2, 4),
            (2, 5),
            (3, 6),
            (4, 6),
            (5, 6),
        ],
    )
    .unwrap()
}

#[test]
fn traced_solves_match_untraced_bit_for_bit_on_figure1() {
    let _guard = TRACER_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let g = figure1();
    fp_obs::tracer().disable();
    let untraced = all_ladders(&g, 11);
    fp_obs::tracer().enable();
    let traced = all_ladders(&g, 11);
    fp_obs::tracer().disable();
    assert!(
        !fp_obs::tracer().is_empty(),
        "the traced run records spans (tracing was live)"
    );
    assert_eq!(untraced, traced);
}

/// Every freeze records a `cgraph.freeze` span with the node count and
/// whether the label order was kept (`identity`), so a trace shows
/// which path each freeze took.
#[test]
fn freeze_span_records_which_order_was_kept() {
    let _guard = TRACER_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let backwards = DiGraph::from_pairs(3, [(2, 1), (1, 0)]).unwrap();
    fp_obs::tracer().enable();
    CGraph::new(&figure1(), NodeId::new(0)).unwrap();
    CGraph::new(&backwards, NodeId::new(2)).unwrap();
    fp_obs::tracer().disable();
    let freezes: Vec<_> = fp_obs::tracer()
        .records()
        .into_iter()
        .filter(|r| r.name == "cgraph.freeze")
        .map(|r| r.args)
        .collect();
    assert_eq!(
        freezes,
        vec![
            vec![("nodes", 7), ("identity", 1)],
            vec![("nodes", 3), ("identity", 0)],
        ]
    );
}

/// Every streamed build records a `stream.build` span with the node
/// and edge counts its first pass found, and how many passes it read:
/// one for targets that never decrease, two otherwise.
#[test]
fn stream_build_span_records_nodes_and_edges() {
    let _guard = TRACER_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let budget = MemBudget::unlimited();
    fp_obs::tracer().enable();
    for edges in [vec![(0, 1), (1, 2), (0, 2)], vec![(0, 2), (0, 1), (1, 2)]] {
        let csr = Csr32::from_stream(&mut VecStream::new(edges, Some(5)), &budget).unwrap();
        budget.release(csr.bytes());
    }
    fp_obs::tracer().disable();
    let builds: Vec<_> = fp_obs::tracer()
        .records()
        .into_iter()
        .filter(|r| r.name == "stream.build")
        .map(|r| r.args)
        .collect();
    assert_eq!(
        builds,
        vec![
            vec![("nodes", 5), ("edges", 3), ("passes", 1)],
            vec![("nodes", 5), ("edges", 3), ("passes", 2)],
        ]
    );
}

#[test]
fn dumped_chrome_trace_is_valid_json() {
    // A local tracer keeps this independent of the global-tracer tests.
    let t = fp_obs::trace::Tracer::new(16);
    t.enable();
    {
        let _outer = t.span("outer").arg("k", 3);
        let _inner = t.span("inner");
    }
    let json = t.chrome_trace_json();
    let doc = fp_results::Json::parse(&json).unwrap();
    let events = doc
        .get("traceEvents")
        .and_then(fp_results::Json::as_array)
        .expect("traceEvents array");
    assert_eq!(events.len(), 2);
    for event in events {
        assert!(event
            .get("name")
            .and_then(fp_results::Json::as_str)
            .is_some());
        assert_eq!(
            event.get("ph").and_then(fp_results::Json::as_str),
            Some("X")
        );
        assert!(event.get("ts").and_then(fp_results::Json::as_f64).is_some());
        assert!(event
            .get("dur")
            .and_then(fp_results::Json::as_f64)
            .is_some());
    }
    assert_eq!(
        doc.get("overwrittenSpans")
            .and_then(fp_results::Json::as_u64),
        Some(0)
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn traced_and_untraced_ladders_agree_on_random_dags(
        edges in proptest::collection::vec((0usize..10, 0usize..10), 1..40),
        seed in 0u64..1000,
    ) {
        let edges: Vec<(usize, usize)> = edges.into_iter().filter(|(a, b)| a != b).collect();
        let mut g = DiGraph::from_pairs(10, edges).unwrap();
        g.dedup_edges();
        let _guard = TRACER_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        fp_obs::tracer().disable();
        let untraced = all_ladders(&g, seed);
        fp_obs::tracer().enable();
        let traced = all_ladders(&g, seed);
        fp_obs::tracer().disable();
        prop_assert_eq!(untraced, traced);
    }
}
