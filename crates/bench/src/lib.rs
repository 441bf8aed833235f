//! Figure regeneration for the `repro` binary.
//!
//! Each `figNN_with` function computes the data series of the
//! corresponding figure in the paper's §5 and returns it as a formatted
//! table. EXPERIMENTS.md records the expected shapes and how they
//! compare to the paper. [`baseline_json`] times every figure
//! [`BASELINE_REPEATS`] times (`repro baseline`); the speed of the
//! system itself is measured by
//! the `perfbench/` workloads, not here.
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

    /// Print-only session at the given scale (what [`baseline_json`]
    /// times each figure in).
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

/// A figure's tables as text, each under an `== title ==` line.
pub fn figure_text(tables: &[(String, Table)]) -> String {
    tables
        .iter()
        .map(|(title, table)| format!("== {title} ==\n{table}\n"))
        .collect()
}

/// The layered-graph ladder the `ablation_engine` and `ablation_ladder`
/// benches climb (nodes per level; 10 levels, x/y = 1/4, the paper's
/// sparse shape).
pub const SCALING_LADDER: [usize; 4] = [25, 50, 100, 200];

/// How many times [`baseline_json`] runs each figure. One wall moved
/// by up to 2× between identical runs, so the document keeps the
/// median with the minimum and maximum beside it.
pub const BASELINE_REPEATS: usize = 5;

/// Time every figure at the given scale, [`BASELINE_REPEATS`] times
/// each, and render the walls as the `BENCH_baseline.json` document
/// (schema 8; see that file at the repo root for the checked-in
/// reference run): per figure the median wall (`wall_secs`) and the
/// fastest and slowest run. Each run is a fresh ephemeral session: no
/// store, no budget, one sweep thread per core.
pub fn baseline_json(scale: f64) -> Result<Json, String> {
    let mut entries = Vec::new();
    for name in FIGURES {
        let mut walls = Vec::with_capacity(BASELINE_REPEATS);
        let mut tables = 0;
        for _ in 0..BASELINE_REPEATS {
            let session = ReproSession::ephemeral(scale);
            let start = Instant::now();
            tables = session.run_figure(name)?.len();
            walls.push(start.elapsed().as_secs_f64());
        }
        walls.sort_by(f64::total_cmp);
        entries.push(Json::object([
            ("name", name.to_string().to_json()),
            ("wall_secs", Json::Float(walls[BASELINE_REPEATS / 2])),
            ("min_secs", Json::Float(walls[0])),
            ("max_secs", Json::Float(walls[BASELINE_REPEATS - 1])),
            ("tables", tables.to_json()),
        ]));
    }
    Ok(Json::object([
        ("schema", "fp-bench-baseline/8".to_string().to_json()),
        (
            "tool",
            concat!("fp-bench ", env!("CARGO_PKG_VERSION"))
                .to_string()
                .to_json(),
        ),
        (
            "note",
            "median wall-clock per repro figure over `repeats` runs, with the min and max; \
             compare like-for-like scale and cores only"
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
        ("repeats", BASELINE_REPEATS.to_json()),
        ("entries", Json::Array(entries)),
    ]))
}
