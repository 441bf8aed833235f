//! Shared figure-regeneration logic for the benchmark harnesses and
//! the `repro` binary.
//!
//! Each `figNN` function computes the data series of the corresponding
//! figure in the paper's §5 and returns it as a formatted table.
//! EXPERIMENTS.md records the expected shapes and how they compare to
//! the paper.
//!
//! Figures run inside a [`ReproSession`], which carries the
//! experiment-results subsystem end to end:
//!
//! * `--out DIR` persists every figure's numbers — sweep figures go
//!   through the content-addressed [`RunStore`] (so re-running a figure
//!   with unchanged config+dataset is a **cache hit** that loads from
//!   disk), CDF/runtime tables are written as plain `*.csv`;
//! * `--jobs N` sizes the work-stealing sweep runner;
//! * `--budget SECS` caps wall time: figures that would start after the
//!   budget is spent are skipped, and a sweep the deadline interrupts
//!   is discarded rather than stored half-done.
//!
//! The zero-argument `figNN()` wrappers (used by the `cargo bench`
//! harnesses) run an ephemeral session: no store, no budget, one
//! worker per core.

use fp_core::datasets::citation_like::{self, CitationLikeParams};
use fp_core::datasets::layered::{self, LayeredParams};
use fp_core::datasets::quote_like::{self, QuoteLikeParams};
use fp_core::datasets::stats::DegreeStats;
use fp_core::datasets::twitter_like::{self, TwitterLikeParams};
use fp_core::prelude::*;
use fp_core::report::{cdf_table, sweep_table};
use fp_results::{Json, ToJson};
use std::cell::Cell;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Seed used by every figure harness (the paper's year).
pub const SEED: u64 = 2012;

/// Every figure `repro` knows, in paper order.
pub const FIGURES: [&str; 7] = [
    "fig04", "fig05", "fig06", "fig07", "fig08", "fig09", "fig11",
];

/// Knobs for a repro run.
#[derive(Clone, Debug)]
pub struct ReproOptions {
    /// Twitter-like graph scale (1.0 = the paper's ~90k nodes).
    pub scale: f64,
    /// In-process sweep threads (0 = one per core).
    pub jobs: usize,
    /// Where to persist results; `None` = print-only.
    pub out: Option<PathBuf>,
    /// Wall-clock cap for the whole run.
    pub budget: Option<Duration>,
}

impl Default for ReproOptions {
    fn default() -> Self {
        Self {
            scale: 1.0,
            jobs: 0,
            out: None,
            budget: None,
        }
    }
}

/// One repro invocation: options, the open store (if any), and the
/// budget clock.
pub struct ReproSession {
    opts: ReproOptions,
    store: Option<RunStore>,
    started: Instant,
    sweeps_run: Cell<usize>,
    cache_hits: Cell<usize>,
}

impl ReproSession {
    /// Open the store (when `--out` is set) and start the clock.
    pub fn new(opts: ReproOptions) -> Result<Self, String> {
        let store = match &opts.out {
            Some(dir) => Some(RunStore::open(dir)?),
            None => None,
        };
        Ok(Self {
            opts,
            store,
            started: Instant::now(),
            sweeps_run: Cell::new(0),
            cache_hits: Cell::new(0),
        })
    }

    /// Print-only session at the given scale (what the zero-argument
    /// `figNN()` wrappers and the bench harnesses use).
    pub fn ephemeral(scale: f64) -> Self {
        Self::new(ReproOptions {
            scale,
            ..ReproOptions::default()
        })
        .expect("no store to open")
    }

    /// The options this session runs under.
    pub fn options(&self) -> &ReproOptions {
        &self.opts
    }

    /// (sweeps computed, sweeps answered from the store).
    pub fn stats(&self) -> (usize, usize) {
        (self.sweeps_run.get(), self.cache_hits.get())
    }

    /// Whether the time budget is already spent.
    pub fn out_of_budget(&self) -> bool {
        self.opts
            .budget
            .is_some_and(|b| self.started.elapsed() >= b)
    }

    fn deadline(&self) -> Option<Instant> {
        self.opts.budget.map(|b| self.started + b)
    }

    fn runner_options(&self) -> RunnerOptions {
        RunnerOptions {
            jobs: self.opts.jobs,
            deadline: self.deadline(),
        }
    }

    /// Run (or load) one sweep figure. `Ok(None)` means the time
    /// budget cut it off; nothing is stored in that case.
    fn sweep_figure(
        &self,
        slug: &str,
        g: &DiGraph,
        source: NodeId,
        cfg: SweepConfig,
    ) -> Result<Option<Table>, String> {
        let dataset = DatasetFingerprint::of_graph(slug, g, source, &source.index().to_string());
        if let Some(store) = &self.store {
            let id = RunStore::run_id(&cfg, &dataset);
            if let Some(stored) = store.load(&id)? {
                self.cache_hits.set(self.cache_hits.get() + 1);
                return Ok(Some(sweep_table(&stored.result)));
            }
        }
        if self.out_of_budget() {
            return Ok(None);
        }
        let problem = Problem::new(g, source).map_err(|e| e.to_string())?;
        let Some(result) = run_sweep_with(&problem, &cfg, &self.runner_options()) else {
            return Ok(None); // deadline interrupted: discard, don't store
        };
        self.sweeps_run.set(self.sweeps_run.get() + 1);
        if let Some(store) = &self.store {
            let manifest = RunManifest::new(cfg, dataset);
            store.save(&manifest, &result)?;
        }
        Ok(Some(sweep_table(&result)))
    }

    /// Persist a non-sweep table (degree CDFs, runtime tables) as
    /// `<slug>.csv` under the output directory.
    fn persist_csv(&self, slug: &str, table: &Table) -> Result<(), String> {
        let Some(store) = &self.store else {
            return Ok(());
        };
        let path = store.root().join(format!("{slug}.csv"));
        std::fs::write(&path, table.to_csv())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))
    }

    /// Run one figure by name.
    pub fn run_figure(&self, name: &str) -> Result<Vec<(String, Table)>, String> {
        match name {
            "fig04" => fig04_with(self),
            "fig05" => fig05_with(self),
            "fig06" => fig06_with(self),
            "fig07" => fig07_with(self),
            "fig08" => fig08_with(self),
            "fig09" => fig09_with(self),
            "fig11" => fig11_with(self),
            other => Err(format!(
                "unknown figure {other:?}; expected one of {}",
                FIGURES.join(", ")
            )),
        }
    }
}

/// The title given to a figure the budget skipped (the table is empty).
fn skipped(name: &str) -> (String, Table) {
    (
        format!("{name}: skipped (time budget exhausted)"),
        Table::new(["skipped"]),
    )
}

/// Figure 4: in-degree CDFs of the two synthetic layered graphs.
pub fn fig04_with(s: &ReproSession) -> Result<Vec<(String, Table)>, String> {
    let mut out = Vec::new();
    for (slug, name, params) in [
        ("fig04a", "fig4a x/y=1/4", LayeredParams::paper_sparse(SEED)),
        ("fig04b", "fig4b x/y=3/4", LayeredParams::paper_dense(SEED)),
    ] {
        let lg = layered::generate(&params);
        let stats = DegreeStats::in_degrees(&lg.graph);
        let table = cdf_table(&stats.cdf());
        s.persist_csv(slug, &table)?;
        out.push((
            format!(
                "{name}: {} nodes, {} edges",
                lg.graph.node_count(),
                lg.graph.edge_count()
            ),
            table,
        ));
    }
    Ok(out)
}

/// Figure 5: FR vs number of filters (0..=50) on the synthetic graphs,
/// all seven algorithms.
pub fn fig05_with(s: &ReproSession) -> Result<Vec<(String, Table)>, String> {
    let mut out = Vec::new();
    for (slug, name, params) in [
        ("fig05a", "fig5a x/y=1/4", LayeredParams::paper_sparse(SEED)),
        ("fig05b", "fig5b x/y=3/4", LayeredParams::paper_dense(SEED)),
    ] {
        let lg = layered::generate(&params);
        match s.sweep_figure(slug, &lg.graph, lg.source, SweepConfig::paper(50))? {
            Some(table) => out.push((name.to_string(), table)),
            None => out.push(skipped(name)),
        }
    }
    Ok(out)
}

/// Figure 6: in-degree CDF of the quote-like graph.
pub fn fig06_with(s: &ReproSession) -> Result<Vec<(String, Table)>, String> {
    let q = quote_like::generate(&QuoteLikeParams::default());
    let stats = DegreeStats::in_degrees(&q.graph);
    let table = cdf_table(&stats.cdf());
    s.persist_csv("fig06", &table)?;
    Ok(vec![(
        format!(
            "fig6 G_Phrase-like: {} nodes, {} edges, {:.0}% sinks",
            q.graph.node_count(),
            q.graph.edge_count(),
            DegreeStats::out_degrees(&q.graph).zero_fraction() * 100.0
        ),
        table,
    )])
}

/// The paper's k = 0..=10 sweep config used by Figures 7, 8 and 9.
fn small_k_config() -> SweepConfig {
    SweepConfig {
        ks: (0..=10).collect(),
        trials: 25,
        seed: SEED,
        solvers: SolverKind::PAPER_SET.to_vec(),
    }
}

/// Figure 7: FR vs k (0..=10) on the quote-like graph.
pub fn fig07_with(s: &ReproSession) -> Result<Vec<(String, Table)>, String> {
    let q = quote_like::generate(&QuoteLikeParams::default());
    Ok(
        match s.sweep_figure("fig07", &q.graph, q.source, small_k_config())? {
            Some(table) => vec![("fig7 G_Phrase-like".into(), table)],
            None => vec![skipped("fig7 G_Phrase-like")],
        },
    )
}

/// Figure 8: FR vs k (0..=10) on the twitter-like graph (the session's
/// `scale` trades fidelity for speed; 1.0 = the paper's ~90k nodes).
pub fn fig08_with(s: &ReproSession) -> Result<Vec<(String, Table)>, String> {
    let scale = s.options().scale;
    let t = twitter_like::generate(&TwitterLikeParams { scale, seed: SEED });
    let name = format!(
        "fig8 Twitter-like (scale {scale}): {} nodes, {} edges",
        t.graph.node_count(),
        t.graph.edge_count()
    );
    Ok(
        match s.sweep_figure("fig08", &t.graph, t.source, small_k_config())? {
            Some(table) => vec![(name, table)],
            None => vec![skipped(&name)],
        },
    )
}

/// Figure 9: FR vs k (0..=10) on the citation-like graph.
pub fn fig09_with(s: &ReproSession) -> Result<Vec<(String, Table)>, String> {
    let c = citation_like::generate(&CitationLikeParams::default());
    let name = format!(
        "fig9 APS-like: {} nodes, {} edges",
        c.graph.node_count(),
        c.graph.edge_count()
    );
    Ok(
        match s.sweep_figure("fig09", &c.graph, c.source, small_k_config())? {
            Some(table) => vec![(name, table)],
            None => vec![skipped(&name)],
        },
    )
}

/// Figure 11's workload: the four deterministic solvers placing k = 10
/// filters on the twitter-like graph. Returns wall-clock per solver as
/// a table (the Criterion bench measures the same closures precisely).
pub fn fig11_with(s: &ReproSession) -> Result<Vec<(String, Table)>, String> {
    let scale = s.options().scale;
    let t = twitter_like::generate(&TwitterLikeParams { scale, seed: SEED });
    let name = format!(
        "fig11 runtimes, k=10, Twitter-like (scale {scale}): {} nodes, {} edges",
        t.graph.node_count(),
        t.graph.edge_count()
    );
    if s.out_of_budget() {
        return Ok(vec![skipped(&name)]);
    }
    let problem = Problem::new(&t.graph, t.source).expect("DAG");
    let mut table = Table::new(["algorithm", "seconds", "FR@10"]);
    for kind in [
        SolverKind::GreedyOne,
        SolverKind::GreedyMax,
        SolverKind::GreedyL,
        SolverKind::GreedyAll,
    ] {
        let start = Instant::now();
        let placement = problem.solve(kind, 10);
        let secs = start.elapsed().as_secs_f64();
        table.row([
            kind.label().to_string(),
            format!("{secs:.4}"),
            format!("{:.4}", problem.filter_ratio(&placement)),
        ]);
    }
    s.persist_csv("fig11", &table)?;
    Ok(vec![(name, table)])
}

/// Figure 4 via an ephemeral session (bench-harness entry point).
pub fn fig04() -> Vec<(String, Table)> {
    fig04_with(&ReproSession::ephemeral(1.0)).expect("print-only session cannot fail")
}

/// Figure 5 via an ephemeral session (bench-harness entry point).
pub fn fig05() -> Vec<(String, Table)> {
    fig05_with(&ReproSession::ephemeral(1.0)).expect("print-only session cannot fail")
}

/// Figure 6 via an ephemeral session (bench-harness entry point).
pub fn fig06() -> Vec<(String, Table)> {
    fig06_with(&ReproSession::ephemeral(1.0)).expect("print-only session cannot fail")
}

/// Figure 7 via an ephemeral session (bench-harness entry point).
pub fn fig07() -> Vec<(String, Table)> {
    fig07_with(&ReproSession::ephemeral(1.0)).expect("print-only session cannot fail")
}

/// Figure 8 via an ephemeral session (bench-harness entry point).
pub fn fig08(scale: f64) -> Vec<(String, Table)> {
    fig08_with(&ReproSession::ephemeral(scale)).expect("print-only session cannot fail")
}

/// Figure 9 via an ephemeral session (bench-harness entry point).
pub fn fig09() -> Vec<(String, Table)> {
    fig09_with(&ReproSession::ephemeral(1.0)).expect("print-only session cannot fail")
}

/// Figure 11 via an ephemeral session (bench-harness entry point).
pub fn fig11(scale: f64) -> Vec<(String, Table)> {
    fig11_with(&ReproSession::ephemeral(scale)).expect("print-only session cannot fail")
}

/// A figure's tables as text, each under an `== title ==` line.
pub fn figure_text(tables: &[(String, Table)]) -> String {
    tables
        .iter()
        .map(|(title, table)| format!("== {title} ==\n{table}\n"))
        .collect()
}

/// Print a figure's tables to stdout.
pub fn print_figure(tables: &[(String, Table)]) {
    print!("{}", figure_text(tables));
}

/// The layered-graph ladder `benches/scaling.rs` climbs (nodes per
/// level; 10 levels, x/y = 1/4, the paper's sparse shape).
pub const SCALING_LADDER: [usize; 4] = [25, 50, 100, 200];

/// Wall-clock Greedy_All (k = 10) on one `SCALING_LADDER` rung, both
/// paths: the incremental `ImpactEngine` solver and the full-recompute
/// oracle. Placements are asserted identical before anything is timed;
/// each path is timed `reps` times and the minimum is reported (the
/// usual wall-clock floor estimator — ambient noise only ever adds).
pub fn scaling_entry(per_level: usize, reps: usize) -> Json {
    use fp_core::algorithms::{GreedyAll, Solver};
    let lg = layered::generate(&LayeredParams {
        levels: 10,
        expected_per_level: per_level,
        x: 1.0,
        y: 4.0,
        seed: SEED,
    });
    let cg = CGraph::new(&lg.graph, lg.source).expect("DAG");
    let engine = GreedyAll::<Wide128>::new().place(&cg, 10, 0);
    let oracle = GreedyAll::<Wide128>::place_full_recompute(&cg, 10);
    assert_eq!(
        engine.nodes(),
        oracle.nodes(),
        "paths must place identically"
    );

    let time_min = |f: &dyn Fn() -> usize| -> f64 {
        (0..reps.max(1))
            .map(|_| {
                let start = Instant::now();
                let len = f();
                let wall = start.elapsed().as_secs_f64();
                assert!(len <= 10);
                wall
            })
            .fold(f64::INFINITY, f64::min)
    };
    let engine_secs = time_min(&|| GreedyAll::<Wide128>::new().place(&cg, 10, 0).len());
    let oracle_secs = time_min(&|| GreedyAll::<Wide128>::place_full_recompute(&cg, 10).len());
    Json::object([
        ("per_level", per_level.to_json()),
        ("nodes", lg.graph.node_count().to_json()),
        ("edges", lg.graph.edge_count().to_json()),
        ("engine_secs", Json::Float(engine_secs)),
        ("oracle_secs", Json::Float(oracle_secs)),
        ("speedup", Json::Float(oracle_secs / engine_secs)),
    ])
}

/// Wall-clock for one whole Greedy_All FR **curve cell** (ks = 0..=10)
/// on one `SCALING_LADDER` rung, both paths: the session walk behind
/// `deterministic_curve` (one engine, FR from live Φ) and the per-k
/// baseline (a fresh solve plus a fresh `f_of` pass per budget).
/// Curves are asserted identical — budgets, placements, FR bits —
/// before anything is timed; each path is timed `reps` times and the
/// minimum is reported.
pub fn ladder_entry(per_level: usize, reps: usize) -> Json {
    let lg = layered::generate(&LayeredParams {
        levels: 10,
        expected_per_level: per_level,
        x: 1.0,
        y: 4.0,
        seed: SEED,
    });
    let problem = Problem::new(&lg.graph, lg.source).expect("DAG");
    let ks: Vec<usize> = (0..=10).collect();

    let session = |p: &Problem| -> Vec<(usize, f64)> {
        p.solve_ladder(SolverKind::GreedyAll, &ks, 0)
            .into_iter()
            .map(|(k, _, fr)| (k, fr))
            .collect()
    };
    let per_k = |p: &Problem| -> Vec<(usize, f64)> {
        ks.iter()
            .map(|&k| (k, p.filter_ratio(&p.solve(SolverKind::GreedyAll, k))))
            .collect()
    };
    let a = session(&problem);
    let b = per_k(&problem);
    assert_eq!(a.len(), b.len());
    for ((ka, fra), (kb, frb)) in a.iter().zip(&b) {
        assert_eq!(ka, kb);
        assert_eq!(fra.to_bits(), frb.to_bits(), "curves must be bit-identical");
    }

    let time_min = |f: &dyn Fn() -> usize| -> f64 {
        (0..reps.max(1))
            .map(|_| {
                let start = Instant::now();
                let len = f();
                let wall = start.elapsed().as_secs_f64();
                assert_eq!(len, ks.len());
                wall
            })
            .fold(f64::INFINITY, f64::min)
    };
    let session_secs = time_min(&|| session(&problem).len());
    let per_k_secs = time_min(&|| per_k(&problem).len());
    Json::object([
        ("per_level", per_level.to_json()),
        ("nodes", lg.graph.node_count().to_json()),
        ("edges", lg.graph.edge_count().to_json()),
        ("ks", ks.len().to_json()),
        ("session_secs", Json::Float(session_secs)),
        ("per_k_secs", Json::Float(per_k_secs)),
        ("speedup", Json::Float(per_k_secs / session_secs)),
    ])
}

/// The `serve` section of the baseline: a loadtest against an
/// in-process `fp serve` daemon — 8 concurrent clients, 50 placement
/// queries each, budgets interleaving over `0..=8` on the layered
/// sparse graph. Every response is verified bit-identical to the batch
/// ladder before any number is reported, so the recorded p50/p99 are
/// latencies of *correct* answers.
pub fn serve_entry() -> Result<Json, String> {
    let cfg = fp_core::loadtest::LoadtestConfig::default();
    let report =
        fp_core::loadtest::run_loadtest(fp_core::registry::GraphRegistry::with_builtins(), &cfg)?;
    Ok(report.to_json())
}

/// The `online` section of the baseline: a filter placement maintained
/// live under a deterministic edge-mutation stream on the layered
/// graph (per_level 200 = the n2001 scaling rung), measured two ways.
///
/// The **curve** replays the same stream once per drift threshold and
/// records repair cost (repair rounds, greedy picks) against final
/// quality (the live placement's FR vs a cold rebuild's FR on the
/// final graph) — counts and FRs only, all deterministic. The
/// **timing** compares the online path (incremental engine, repairs
/// only when drift crosses the default 0.05 threshold) against the
/// rebuild-per-mutation baseline (a cold Greedy_All solve after every
/// event); both process the identical stream, and before any timing
/// the threshold-0 driver's placement is asserted bit-identical to a
/// cold rebuild on the final graph.
pub fn online_entry(per_level: usize, events: usize, reps: usize) -> Json {
    use fp_core::online::{greedy_rebuild, mutation_stream, OnlineConfig, OnlinePlacement};
    use fp_core::propagation::{Mutation, ObjectiveCache};

    let lg = layered::generate(&LayeredParams {
        levels: 10,
        expected_per_level: per_level,
        x: 1.0,
        y: 4.0,
        seed: SEED,
    });
    let problem = Problem::new(&lg.graph, lg.source).expect("DAG");
    let base = problem.cgraph();
    let stream = mutation_stream(base, events, SEED);
    let k = 8usize;

    // Repair-cost-vs-quality curve over the threshold sweep.
    let mut curve = Vec::new();
    for t in [0.0, 0.01, 0.05, 0.25] {
        let mut driver = OnlinePlacement::new(
            base.clone(),
            OnlineConfig {
                k,
                drift_threshold: t,
            },
        );
        for &m in &stream {
            driver.apply_event(m).expect("stream is applicable");
        }
        let stats = driver.stats();
        let final_fr = driver.quality();
        let cg = driver.engine().cgraph();
        let rebuilt = greedy_rebuild(cg, k);
        let cache = ObjectiveCache::<Wide128>::new(cg);
        let rebuild_fr = cache.filter_ratio(cg, &rebuilt);
        if t == 0.0 {
            // Repair-on-anything must land exactly where a cold solve
            // on the final graph lands — the equivalence every timing
            // claim below leans on.
            assert_eq!(
                driver.placement().nodes(),
                rebuilt.nodes(),
                "threshold-0 online placement diverged from a cold rebuild"
            );
        }
        curve.push(Json::object([
            ("threshold", Json::Float(t)),
            ("repairs", stats.repairs.to_json()),
            ("repair_picks", stats.repair_picks.to_json()),
            ("final_fr", Json::Float(final_fr)),
            ("rebuild_fr", Json::Float(rebuild_fr)),
        ]));
    }

    let time_min = |f: &dyn Fn() -> usize| -> f64 {
        (0..reps.max(1))
            .map(|_| {
                let start = Instant::now();
                let len = f();
                let wall = start.elapsed().as_secs_f64();
                assert!(len > 0);
                wall
            })
            .fold(f64::INFINITY, f64::min)
    };
    let online_secs = time_min(&|| {
        let mut driver = OnlinePlacement::new(base.clone(), OnlineConfig::default());
        for &m in &stream {
            driver.apply_event(m).expect("stream is applicable");
        }
        driver.placement().len()
    });
    let rebuild_secs = time_min(&|| {
        let mut cg = base.clone();
        let mut placed = 0;
        for &m in &stream {
            match m {
                Mutation::InsertEdge { from, to } => {
                    cg.insert_edge(from, to).expect("stream is applicable");
                }
                Mutation::RemoveEdge { from, to } => {
                    assert!(cg.remove_edge(from, to), "stream is applicable");
                }
                _ => unreachable!("mutation_stream emits edge events only"),
            }
            placed += greedy_rebuild(&cg, k).len();
        }
        placed
    });

    Json::object([
        ("per_level", per_level.to_json()),
        ("nodes", lg.graph.node_count().to_json()),
        ("edges", lg.graph.edge_count().to_json()),
        ("events", events.to_json()),
        ("k", k.to_json()),
        ("curve", Json::Array(curve)),
        ("online_secs", Json::Float(online_secs)),
        ("rebuild_secs", Json::Float(rebuild_secs)),
        ("speedup", Json::Float(rebuild_secs / online_secs)),
    ])
}

/// Default memory budget for the baseline's `large_scale` cell:
/// 256 MiB, roughly 8× the compact-CSR footprint of the 10^6-node,
/// mean-degree-3 reference graph — tight enough that an accidental
/// materialized edge list at that scale would trip it.
pub const LARGE_SCALE_BUDGET: u64 = 256 * 1024 * 1024;

/// The `large_scale` baseline cell: a power-law DAG streamed straight
/// into the compact u32 CSR — generator chunks feeding the two-pass
/// [`Csr32`] build, never a materialized edge `Vec` — then Greedy_All
/// k = 10 on the result, all charged against a declared [`MemBudget`].
/// Reports build and solve wall-clock plus the accountant's peak, the
/// number the ROADMAP's million-node target is judged by. The checked-in
/// baseline runs `nodes = 10^6`; the smoke test and CI use smaller
/// graphs, same code path.
///
/// [`Csr32`]: fp_core::scale::Csr32
/// [`MemBudget`]: fp_core::scale::MemBudget
pub fn large_scale_entry(nodes: usize, mean_degree: usize, budget_bytes: u64) -> Json {
    use fp_core::algorithms::{GreedyAll, Solver};
    use fp_core::datasets::power_law::{PowerLawParams, PowerLawStream};
    use fp_core::scale::{Csr32, MemBudget};

    let budget = MemBudget::new(Some(budget_bytes));
    let mut stream = PowerLawStream::new(&PowerLawParams {
        nodes,
        mean_degree,
        seed: SEED,
    });
    let start = Instant::now();
    let csr32 = Csr32::from_stream(&mut stream, &budget)
        .expect("declared budget must cover the streamed build");
    let build_secs = start.elapsed().as_secs_f64();
    let graph_bytes = csr32.bytes();
    let (n, m) = (csr32.node_count(), csr32.edge_count());

    let csr = csr32.into_csr();
    let cg = CGraph::from_csr(csr, NodeId::new(0)).expect("power-law graphs are DAGs");
    let start = Instant::now();
    let placement = GreedyAll::<Wide128>::new().place(&cg, 10, 0);
    let solve_secs = start.elapsed().as_secs_f64();
    let peak_bytes = budget.peak();
    budget.release(graph_bytes);

    Json::object([
        ("nodes", n.to_json()),
        ("edges", m.to_json()),
        ("budget_bytes", budget_bytes.to_json()),
        ("graph_bytes", graph_bytes.to_json()),
        ("peak_bytes", peak_bytes.to_json()),
        ("build_secs", Json::Float(build_secs)),
        ("solve_secs", Json::Float(solve_secs)),
        ("filters", placement.len().to_json()),
    ])
}

/// Time every figure at the given scale and render the measurements as
/// the `BENCH_baseline.json` document (see that file at the repo root
/// for the checked-in reference run). Schema 2 added the `scaling`
/// section: Greedy_All k = 10 on the `benches/scaling.rs` layered
/// ladder, engine vs full-recompute oracle (the ROADMAP's named
/// hot-path target, so speedup claims cite this file like-for-like).
/// Schema 3 adds the `ladder` section: the whole-curve cell, session
/// walk vs per-k re-solves (the numbers behind the anytime-session
/// redesign). Schema 4 adds the `serve` section: daemon latency under
/// concurrent clients (see [`serve_entry`] and `fp loadtest`). Schema
/// 5 adds the `online` section: live-graph maintenance, online engine
/// vs rebuild-per-mutation, plus the repair-cost-vs-quality threshold
/// curve (see [`online_entry`] and `fp online`). Schema 6 adds the
/// `large_scale` section: a 10^6-node power-law graph streamed into
/// the compact CSR and solved under a memory budget (see
/// [`large_scale_entry`]; always the full million nodes — the streamed
/// path is cheap enough that `--fast` doesn't scale it down —
/// `mem_budget` overrides the default [`LARGE_SCALE_BUDGET`] cap).
pub fn baseline_json(scale: f64, mem_budget: Option<u64>) -> Result<Json, String> {
    let mut entries = Vec::new();
    for name in FIGURES {
        let session = ReproSession::ephemeral(scale);
        let start = Instant::now();
        let tables = session.run_figure(name)?;
        let wall = start.elapsed().as_secs_f64();
        entries.push(Json::object([
            ("name", name.to_string().to_json()),
            ("wall_secs", Json::Float(wall)),
            ("tables", tables.len().to_json()),
        ]));
    }
    let scaling: Vec<Json> = SCALING_LADDER
        .iter()
        .map(|&per_level| scaling_entry(per_level, 5))
        .collect();
    let ladder: Vec<Json> = SCALING_LADDER
        .iter()
        .map(|&per_level| ladder_entry(per_level, 5))
        .collect();
    let serve = serve_entry()?;
    let online = online_entry(200, 64, 3);
    let large_scale = large_scale_entry(1_000_000, 3, mem_budget.unwrap_or(LARGE_SCALE_BUDGET));
    Ok(Json::object([
        ("schema", "fp-bench-baseline/6".to_string().to_json()),
        (
            "tool",
            concat!("fp-bench ", env!("CARGO_PKG_VERSION"))
                .to_string()
                .to_json(),
        ),
        (
            "note",
            "wall-clock per repro figure; compare like-for-like scale and cores only"
                .to_string()
                .to_json(),
        ),
        (
            "created_unix",
            std::time::SystemTime::now()
                .duration_since(std::time::SystemTime::UNIX_EPOCH)
                .map(|d| d.as_secs())
                .unwrap_or(0)
                .to_json(),
        ),
        ("cores", fp_results::available_cores().to_json()),
        ("scale", Json::Float(scale)),
        ("entries", Json::Array(entries)),
        ("scaling", Json::Array(scaling)),
        ("ladder", Json::Array(ladder)),
        ("serve", serve),
        ("online", online),
        ("large_scale", large_scale),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_entry_reports_curve_and_speedup() {
        let entry = online_entry(25, 16, 1);
        let curve = entry.expect("curve").unwrap().as_array().unwrap();
        assert_eq!(curve.len(), 4, "one row per threshold");
        // Threshold 0 tracks rebuild quality exactly.
        let zero = &curve[0];
        assert_eq!(
            zero.expect("final_fr").unwrap().as_f64().unwrap().to_bits(),
            zero.expect("rebuild_fr")
                .unwrap()
                .as_f64()
                .unwrap()
                .to_bits()
        );
        // Repair cost is monotone non-increasing in the threshold.
        let picks: Vec<usize> = curve
            .iter()
            .map(|row| row.expect("repair_picks").unwrap().as_usize().unwrap())
            .collect();
        assert!(picks.windows(2).all(|w| w[0] >= w[1]), "{picks:?}");
        assert!(entry.expect("speedup").unwrap().as_f64().unwrap() > 0.0);
    }

    #[test]
    fn large_scale_entry_stays_within_its_declared_budget() {
        let budget = 4 * 1024 * 1024;
        let entry = large_scale_entry(20_000, 3, budget);
        assert_eq!(entry.expect("nodes").unwrap().as_usize().unwrap(), 20_000);
        let edges = entry.expect("edges").unwrap().as_usize().unwrap();
        assert!(edges >= 20_000, "power-law graph is connected: {edges}");
        let peak = entry.expect("peak_bytes").unwrap().as_u64().unwrap();
        let graph = entry.expect("graph_bytes").unwrap().as_u64().unwrap();
        assert!(peak <= budget, "peak {peak} must respect the cap {budget}");
        assert!(peak >= graph, "peak covers at least the retained graph");
        assert!(entry.expect("filters").unwrap().as_usize().unwrap() <= 10);
    }
}
