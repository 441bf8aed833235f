//! The two batch workloads.
//!
//! * `sweep-1m` — the streamed 10^6-node path: `Csr32::from_stream` →
//!   `CGraph::from_csr` → `Problem::from_cgraph`, then one Greedy_All
//!   session walked over k = 0..=10. Ingest and the dense engine pass
//!   do nearly all the work; the runner and transport do none.
//! * `paper-sweep` — the paper's seven-solver FR sweep (Fig. 9 shape)
//!   on the ~10^4-node citation-like graph read from an edge-list file,
//!   k = 0..=50, 25 trials, two runner jobs, then `RunStore::save` and
//!   `load`. Cache-resident and bound by FR readouts of trial cells.

use crate::harness::{
    derive, median, ms, seeds, Args, Digest, Fnv, Phase, Reference, Report, Scratch,
};
use fp_core::algorithms::{SolverKind, SolverSession};
use fp_core::datasets::{citation_like, power_law};
use fp_core::experiment::run_sweep_with;
use fp_core::graph::{from_edge_list, to_edge_list, NodeId};
use fp_core::num::Wide128;
use fp_core::propagation::{CGraph, FilterSet, ImpactEngine};
use fp_core::results::sweep::{run_sweep_cells, sweep_cells, Cell, SweepBackend};
use fp_core::results::{
    DatasetFingerprint, RunManifest, RunStore, RunnerOptions, SweepConfig, SweepResult,
};
use fp_core::scale::{Csr32, MemBudget};
use fp_core::Problem;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

const SWEEP_1M_NODES: usize = 1_000_000;
const SWEEP_1M_DEGREE: usize = 3;
const SWEEP_1M_KMAX: usize = 10;
/// Phases per build: one build lasts about a third of a phase, so
/// building every phase would leave five phases in a 28 s run.
const SWEEP_1M_PHASES_PER_SETUP: usize = 2;

const PAPER_KMAX: usize = 50;
const PAPER_TRIALS: usize = 25;
const PAPER_JOBS: usize = 2;
const PAPER_SETUPS_PER_PHASE: usize = 8;

/// A hash of the FR bits and placement nodes: two phases that answered
/// identically hash identically.
fn answer_hash(rungs: &[(usize, f64)], placement: &[NodeId]) -> u64 {
    let mut h = Fnv::default();
    for &(k, fr) in rungs {
        h.eat(k as u64);
        h.eat(fr.to_bits());
    }
    for v in placement {
        h.eat(v.index() as u64);
    }
    h.finish()
}

/// The streamed ingest → freeze → denominators path; returns the
/// problem, its edge count and the `MemBudget` peak of the build.
fn build_1m(params: &power_law::PowerLawParams) -> Result<(Problem, usize, u64), String> {
    let budget = MemBudget::unlimited();
    let csr32 = {
        let _span = fp_obs::span("ingest.build");
        let mut stream = power_law::PowerLawStream::new(params);
        Csr32::from_stream(&mut stream, &budget).map_err(|e| e.to_string())?
    };
    let edges = csr32.edge_count();
    let bytes = csr32.bytes();
    let cg = {
        let _span = fp_obs::span("freeze");
        CGraph::from_csr(csr32.into_csr(), NodeId::new(0)).map_err(|e| e.to_string())?
    };
    let problem = {
        let _span = fp_obs::span("denominators.problem");
        Problem::from_cgraph(cg)
    };
    let peak = budget.peak();
    // The graph now belongs to the problem; hand the ledger back as the
    // CLI does once a solve is over.
    budget.release(bytes);
    Ok((problem, edges, peak))
}

pub fn sweep_1m(args: &Args) -> Result<Report, String> {
    let params = power_law::PowerLawParams {
        nodes: SWEEP_1M_NODES,
        mean_degree: SWEEP_1M_DEGREE,
        seed: derive(args.seed, seeds::GRAPH),
    };
    let solver = SolverKind::GreedyAll.build::<Wide128>();
    let mut report = Report::default();
    let mut problem: Option<Problem> = None;
    let mut edges = 0usize;
    let mut ledger_peak = 0u64;
    let mut last_placement = FilterSet::empty(0);

    report.measure(args, Reference::SharedCache, |i, traced, tracing| {
        // A fresh build every few phases, so set-up samples spread over
        // the run like phase samples do. The previous graph is freed
        // first: the peak RSS is one graph's, not two. Builds are traced
        // on every phase of a traced run: they fall on untraced phases,
        // and their layers are ledger rows.
        let mut setup_s = Vec::new();
        if i % SWEEP_1M_PHASES_PER_SETUP == 0 {
            drop(problem.take());
            let (built, setup) = tracing.window(args.trace, || build_1m(&params))?;
            let (p, m, peak) = built?;
            edges = m;
            ledger_peak = ledger_peak.max(peak);
            problem = Some(p);
            setup_s.push(setup.elapsed_s);
        }
        let problem = problem.as_ref().expect("built on phase 0");
        let cg = problem.cgraph();

        let mut ops_ms = Vec::with_capacity(SWEEP_1M_KMAX + 1);
        let mut rungs = Vec::with_capacity(SWEEP_1M_KMAX + 1);
        let (placement, window) = tracing.window(traced, || {
            let mut op = Instant::now();
            let mut session: Box<dyn SolverSession + '_> = {
                let _span = fp_obs::span("engine.init");
                solver.session(cg, 0)
            };
            for k in 0..=SWEEP_1M_KMAX {
                session.advance_to(k);
                let fr = if k == 0 {
                    let _span = fp_obs::span("denominators.session");
                    session.fr()
                } else {
                    session.fr()
                };
                rungs.push((session.placement().len(), fr));
                ops_ms.push(ms(op));
                op = Instant::now();
            }
            session.into_placement()
        })?;

        // Checks, outside the timed window.
        let mut errors = Vec::new();
        if rungs.windows(2).any(|w| w[1].1 < w[0].1) {
            errors.push(format!("sweep-1m: FR decreased along the ladder: {rungs:?}"));
        }
        let expected = problem.filter_ratio(&placement);
        let got = rungs.last().map_or(f64::NAN, |r| r.1);
        if got.to_bits() != expected.to_bits() {
            errors.push(format!(
                "sweep-1m: session FR {got} at k={SWEEP_1M_KMAX} != Problem::filter_ratio {expected}"
            ));
        }
        if placement.len() != SWEEP_1M_KMAX {
            errors.push(format!(
                "sweep-1m: ladder stopped at {} filters, expected {SWEEP_1M_KMAX}",
                placement.len()
            ));
        }
        let mut counts = BTreeMap::new();
        window.counters.engine_counts(&mut counts);
        counts.insert("answer_hash", answer_hash(&rungs, placement.nodes()));
        last_placement = placement;
        Ok(Phase {
            traced,
            setup_s,
            ops_ms,
            failed: errors.len() as u64,
            counts,
            errors,
            window,
        })
    })?;
    report.ledger_peak_bytes = ledger_peak;

    if args.trace {
        let problem = problem.expect("measured at least once");
        let cg = problem.cgraph();
        // The calls `GreedyAllSession::next_filter` makes, made directly,
        // so the argmax scan and the frontier update time apart.
        let (picks, _) = report.tracing.window(true, || {
            let mut engine = {
                let _span = fp_obs::span("engine.init");
                ImpactEngine::<Wide128>::new(cg, FilterSet::empty(cg.node_count()))
            };
            for _ in 0..SWEEP_1M_KMAX {
                let Some(v) = ({
                    let _span = fp_obs::span("engine.scan");
                    engine.best_candidate()
                }) else {
                    break;
                };
                engine.insert_filter(v);
            }
            engine.into_filters()
        })?;
        if last_placement.nodes() != picks.nodes() {
            report
                .errors
                .push("sweep-1m: direct engine picks differ from the session's".into());
        }
        sweep_1m_ledger(&mut report, edges);
    }
    Ok(report)
}

fn sweep_1m_ledger(report: &mut Report, edges: usize) {
    let d = report.tracing.digest();
    let l = &mut report.ledger;
    l.set("ingest.build_s", d.median_s("ingest.build"));
    l.set("ingest.edges", edges as f64);
    l.set("freeze.s", d.median_s("freeze"));
    l.set("denominators.problem_s", d.median_s("denominators.problem"));
    l.set("denominators.session_s", d.median_s("denominators.session"));
    l.set("engine.init_s", d.median_s("engine.init"));
    l.set("engine.scan_ms", d.median_ms("engine.scan"));
    l.set("engine.insert_ms", d.median_ms("engine.insert"));
}

// ---------------------------------------------------------------------
// paper-sweep
// ---------------------------------------------------------------------

/// The sweep backend `run_sweep_with` uses (`Problem`), called through
/// unchanged, with each cell's wall-clock latency recorded.
struct TimedCells<'a> {
    problem: &'a Problem,
    cell_ms: Mutex<Vec<f64>>,
}

impl TimedCells<'_> {
    fn cell<T>(&self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let latency = ms(start);
        self.cell_ms
            .lock()
            .expect("cell latency lock")
            .push(latency);
        out
    }
}

impl SweepBackend for TimedCells<'_> {
    fn randomized_fr(&self, solver: SolverKind, k: usize, seed: u64) -> f64 {
        self.cell(|| SweepBackend::randomized_fr(self.problem, solver, k, seed))
    }

    fn deterministic_curve(&self, solver: SolverKind, ks: &[usize]) -> Vec<(usize, f64)> {
        self.cell(|| SweepBackend::deterministic_curve(self.problem, solver, ks))
    }
}

/// The citation-like graph as edge-list text plus its source label.
///
/// This is the dataset the paper's Fig. 9 uses, at its canonical
/// generator seed, not a graph derived from `--seed`: between two
/// generator seeds the work of one phase moved by more than the
/// benchmark's bounds, so `--seed` varies what runs on the graph (trial
/// seeds, mutation streams, client scripts) and not the graph itself.
pub fn citation_edge_list() -> (String, String) {
    let params = citation_like::CitationLikeParams::default();
    let g = citation_like::generate(&params);
    (to_edge_list(&g.graph), g.source.index().to_string())
}

/// Read and freeze an edge-list file the way `fp sweep --input` does
/// (`Problem::new` is `CGraph::new` plus the denominators; the two are
/// spanned apart here). Cyclic inputs are refused: every workload graph
/// is a DAG, so a cycle means the input generator changed.
pub fn load_edge_file(path: &Path, source_label: &str) -> Result<(CGraph, usize), String> {
    let (g, labels) = {
        let _span = fp_obs::span("ingest.parse");
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        from_edge_list(&text).map_err(|e| e.to_string())?
    };
    let source = labels
        .iter()
        .position(|l| l == source_label)
        .map(NodeId::new)
        .ok_or_else(|| format!("source {source_label:?} is not in the edge list"))?;
    let edges = g.edge_count();
    let cg = {
        let _span = fp_obs::span("freeze");
        CGraph::new(&g, source).map_err(|e| e.to_string())?
    };
    Ok((cg, edges))
}

fn points_equal(a: &SweepResult, b: &SweepResult) -> bool {
    a.series.len() == b.series.len()
        && a.series.iter().zip(&b.series).all(|(x, y)| {
            x.label == y.label
                && x.points.len() == y.points.len()
                && x.points
                    .iter()
                    .zip(&y.points)
                    .all(|(p, q)| p.0 == q.0 && p.1.to_bits() == q.1.to_bits())
        })
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .map(|e| match e.metadata() {
                    Ok(m) if m.is_dir() => dir_bytes(&e.path()),
                    Ok(m) => m.len(),
                    Err(_) => 0,
                })
                .sum()
        })
        .unwrap_or(0)
}

pub fn paper_sweep(args: &Args, scratch: &Scratch) -> Result<Report, String> {
    let (text, source_label) = citation_edge_list();
    let path = scratch.path().join("citation.edges");
    std::fs::write(&path, &text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    let mut report = Report::default();
    let setup = || {
        let (cg, m) = load_edge_file(&path, &source_label)?;
        let _span = fp_obs::span("denominators.problem");
        Ok::<_, String>((Problem::from_cgraph(cg), m))
    };
    let (problem, edges) = setup()?;
    let cfg = SweepConfig {
        ks: (0..=PAPER_KMAX).collect(),
        trials: PAPER_TRIALS,
        seed: derive(args.seed, seeds::STREAM),
        solvers: SolverKind::PAPER_SET.to_vec(),
    };
    let opts = RunnerOptions::with_jobs(PAPER_JOBS);
    let (g, labels) = from_edge_list(&text).map_err(|e| e.to_string())?;
    let source = labels
        .iter()
        .position(|l| *l == source_label)
        .map(NodeId::new)
        .expect("the generator's source is in its edge list");
    let dataset = DatasetFingerprint::of_graph("citation-like", &g, source, &source_label);
    let reference = run_sweep_with(&problem, &cfg, &opts).expect("no deadline");
    let expected_cells: usize = cfg
        .solvers
        .iter()
        .map(|k| {
            if k.is_randomized() {
                cfg.ks.len() * cfg.trials
            } else {
                1
            }
        })
        .sum();
    let mut runner_busy = Vec::new();
    let mut runner_idle = Vec::new();
    let mut runner_tail = Vec::new();

    report.measure(args, Reference::CoreCache, |i, traced, tracing| {
        // One set-up lasts about ten milliseconds, so a phase times
        // several in one window and records their mean.
        let (built, setups) = tracing.window(traced, || {
            for _ in 0..PAPER_SETUPS_PER_PHASE {
                setup()?;
            }
            Ok::<_, String>(())
        })?;
        built?;
        let setup_s = vec![setups.elapsed_s / PAPER_SETUPS_PER_PHASE as f64];
        let backend = TimedCells {
            problem: &problem,
            cell_ms: Mutex::new(Vec::new()),
        };
        let dir = scratch.path().join(format!("runs-{i}"));
        let (stored, window) = tracing.window(traced, || {
            let result = {
                let _span = fp_obs::span("runner.sweep");
                run_sweep_cells(&backend, &cfg, &opts).expect("no deadline")
            };
            let store = RunStore::open(&dir)?;
            let manifest = RunManifest::new(cfg.clone(), dataset.clone());
            {
                let _span = fp_obs::span("store.save");
                store.save(&manifest, &result)?;
            }
            let loaded = {
                let _span = fp_obs::span("store.load");
                store.load(&manifest.id)?
            };
            Ok::<_, String>((result, loaded))
        })?;
        let (result, loaded) = stored?;

        // Checks, outside the timed window.
        let mut errors = Vec::new();
        let mut failed = 0u64;
        for s in &result.series {
            let bad = s
                .points
                .iter()
                .filter(|p| !(0.0..=1.0).contains(&p.1))
                .count();
            if bad > 0 {
                failed += bad as u64;
                errors.push(format!(
                    "paper-sweep: {bad} FR values of {} outside [0, 1]",
                    s.label
                ));
            }
            let greedy = SolverKind::PAPER_SET
                .iter()
                .any(|k| k.label() == s.label && !k.is_randomized());
            if greedy && s.points.windows(2).any(|w| w[1].1 < w[0].1) {
                errors.push(format!(
                    "paper-sweep: the {} curve is not monotone",
                    s.label
                ));
            }
        }
        if !points_equal(&result, &reference) {
            errors.push("paper-sweep: the timed sweep differs from run_sweep_with".into());
        }
        match &loaded {
            Some(run) if points_equal(&run.result, &result) => {}
            _ => errors.push("paper-sweep: RunStore::load did not return the saved result".into()),
        }
        let store_bytes = dir_bytes(&dir);
        let _ = std::fs::remove_dir_all(&dir);
        let ops_ms = backend.cell_ms.into_inner().expect("cell latency lock");
        if ops_ms.len() != expected_cells {
            errors.push(format!("paper-sweep: {} cells ran", ops_ms.len()));
        }

        if traced {
            let d = Digest::of(&window.spans);
            let busy_ns: f64 = ["sweep.cell.curve", "sweep.cell.trial"]
                .iter()
                .flat_map(|n| d.durations(n))
                .sum();
            let sweep_ns = d.durations("runner.sweep").first().copied().unwrap_or(0.0);
            runner_busy.push(busy_ns / 1e9);
            runner_idle.push(1.0 - busy_ns / (PAPER_JOBS as f64 * sweep_ns));
            // From the last cell's end to the sweep's return: joining the
            // workers and reducing the cells.
            let sweep_end = window
                .spans
                .iter()
                .find(|r| r.name == "runner.sweep")
                .map_or(0, |r| r.start_ns + r.dur_ns);
            let last_cell_end = window
                .spans
                .iter()
                .filter(|r| r.name.starts_with("sweep.cell."))
                .map(|r| r.start_ns + r.dur_ns)
                .max()
                .unwrap_or(sweep_end);
            runner_tail.push(sweep_end.saturating_sub(last_cell_end) as f64 / 1e9);
        }

        let mut counts = BTreeMap::new();
        window.counters.engine_counts(&mut counts);
        counts.insert("runner.cells", window.counters.get("fp_sweep_cells_total"));
        counts.insert("store.bytes", store_bytes);
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
        // The readout calls a trial cell makes, made directly over one
        // phase's trial cells, so drawing a placement and reading its FR
        // time apart.
        let cells = sweep_cells(&cfg);
        report.tracing.window(true, || {
            for cell in &cells {
                if let Cell::Trial { solver, k, seed } = *cell {
                    let placement = {
                        let _span = fp_obs::span("readout.draw");
                        problem.solve_seeded(solver, k, seed)
                    };
                    let _span = fp_obs::span("readout.fr");
                    std::hint::black_box(problem.filter_ratio(&placement));
                }
            }
        })?;
        let d = report.tracing.digest();
        let fp = report.fingerprint.clone();
        let l = &mut report.ledger;
        l.set("ingest.parse_s", d.median_s("ingest.parse"));
        l.set("ingest.edges", edges as f64);
        l.set("freeze.s", d.median_s("freeze"));
        l.set("denominators.problem_s", d.median_s("denominators.problem"));
        l.set("readout.fr_ms", d.median_ms("readout.fr"));
        l.set("readout.draw_ms", d.median_ms("readout.draw"));
        l.set("readout.calls", d.durations("readout.fr").len() as f64);
        l.set(
            "runner.cells",
            fp.get("runner.cells").copied().unwrap_or(0) as f64,
        );
        l.set("runner.busy_s", median(&runner_busy));
        l.set("runner.idle_ratio", median(&runner_idle));
        l.set("runner.curve_cell_s", d.median_s("sweep.cell.curve"));
        l.set("runner.reduce_s", median(&runner_tail));
        l.set("store.save_s", d.median_s("store.save"));
        l.set("store.load_s", d.median_s("store.load"));
        l.set(
            "store.bytes",
            fp.get("store.bytes").copied().unwrap_or(0) as f64,
        );
    }
    Ok(report)
}
