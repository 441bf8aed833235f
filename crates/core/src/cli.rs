//! The `fp` command-line tool (logic; the binary is a thin wrapper).
//!
//! ```text
//! fp solve    --input edges.txt --source <label> --solver G_ALL --k 10
//!             [--seed N] [--format table|csv|dot]
//! fp sweep    --input edges.txt --source <label> --kmax 10
//!             [--trials 25] [--seed N] [--format table|csv]
//!             [--out DIR] [--jobs N] [--listen ADDR --token T]
//! fp sweep    --dataset power-law:1000000:3:7 --kmax 10 [--mem-budget 512M]
//! fp dataset  (--input edges.txt | --gen SPEC) [--stats true]
//!             [--out FILE] [--mem-budget BYTES]
//! fp report   --run DIR [--format table|csv|json]
//! fp report   --list DIR
//! fp diff     --a DIR --b DIR [--epsilon E]
//! fp gc       --out DIR --keep N | --max-age SECS
//! fp worker   --connect HOST:PORT --token T [--retries N]
//! fp stats    --input edges.txt
//! fp generate --dataset layered-sparse|layered-dense|quote|twitter|citation
//!             [--seed N] [--scale F]
//! fp serve    [--addr HOST:PORT] [--ttl-secs N] [--trace FILE]
//! fp loadtest [--graph NAME] [--solver NAME] [--seed N] [--clients N]
//!             [--requests N] [--kmax N] [--transport frame|http]
//!             [--mutations N]
//! fp online   --input edges.txt --source <label> [--k N] [--events N]
//!             [--seed N] [--thresholds F,F,...] [--format table|csv]
//!             [--out DIR]
//! fp trace    --summary FILE
//! ```
//!
//! Edge lists are whitespace-separated `source target` lines (`#`
//! comments allowed); node labels are free-form tokens. Everything is
//! returned as a string so the logic is unit-testable; only `main`
//! touches stdout and the process exit code.
//!
//! `sweep --out DIR` persists the run under `DIR/<id>/` as
//! `manifest.json`, `result.json`, and `result.csv`, where `id` is a
//! hash of config and dataset; re-running the identical sweep is a
//! cache hit that loads from disk instead of recomputing.
//! `report --run DIR/<id>` re-renders a stored run, byte-for-byte
//! identical to the table the sweep printed; `report --list DIR`
//! enumerates every run stored under `DIR`; `diff --a DIR --b DIR`
//! compares two stored runs per (solver, k), flags FR deltas beyond an
//! epsilon, and exits non-zero when any budget regressed (the
//! store-growth companion to the determinism gate: rerun a sweep after
//! a change, diff against the archived run); `gc --out DIR` evicts
//! stored runs least-recently-used first (`--keep N` bounds the count,
//! `--max-age SECS` the age) — cache hits count as uses, so a run that
//! keeps answering sweeps stays young however old its bytes are.
//!
//! `sweep --listen ADDR --token T` evaluates the sweep on worker
//! *processes* instead of in-process threads: `fp worker --connect`
//! processes dial in over TCP, authenticate with the shared token, and
//! are fed cells over the `fp-results::protocol` frame protocol
//! (DESIGN.md §7, §13). The stored bytes are identical to an
//! in-process run's — `--jobs`/`--listen` are scheduling knobs, never
//! part of the result.
//!
//! `serve` runs the long-lived placement daemon (see [`crate::serve`]
//! and DESIGN.md §10); `loadtest` drives an in-process daemon with
//! concurrent clients, verifies every answer bit-for-bit against the
//! batch ladder, and reports p50/p99 latency and throughput (see
//! [`crate::loadtest`]).
//!
//! Every subcommand's flag vocabulary lives in one `FLAG_SPEC` table;
//! a flag outside it — a typo like `--solvr` — is an error, not
//! silently ignored, and the help-audit test keeps [`USAGE`] and the
//! table in lockstep.

use crate::experiment::{run_sweep_with, SweepConfig, SweepResult};
use crate::loadtest::{run_loadtest, LoadtestConfig, Transport};
use crate::registry::GraphRegistry;
use crate::report::{cdf_table, sweep_table, Table};
use crate::serve::{ApiState, Server, DEFAULT_ADDR};
use crate::Problem;
use fp_algorithms::SolverKind;
use fp_datasets::stats::DegreeStats;
use fp_graph::{from_edge_list, to_dot, to_edge_list, DiGraph, NodeId};
use fp_propagation::CGraph;
use fp_results::{
    csv::sweep_csv, DatasetFingerprint, GcPolicy, NetOptions, RunManifest, RunStore, RunnerOptions,
    SweepListener, ToJson,
};
use fp_scale::{
    parse_bytes, stream_stats, Csr32, EdgeStream, FileEdgeStream, MemBudget, ScaleError,
};
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;

/// Parse `--key value` pairs after the subcommand.
fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut it = args.iter();
    while let Some(key) = it.next() {
        let Some(name) = key.strip_prefix("--") else {
            return Err(format!("expected a --flag, got {key:?}"));
        };
        let Some(value) = it.next() else {
            return Err(format!("flag --{name} is missing a value"));
        };
        flags.insert(name.to_string(), value.clone());
    }
    Ok(flags)
}

/// Per-command flag vocabulary: the single source of truth for what
/// each subcommand accepts. Dispatch rejects any flag not listed here
/// (a typo'd `--solvr` is an error, never silently ignored), and the
/// help-audit test asserts [`USAGE`] documents exactly this set.
const FLAG_SPEC: &[(&str, &[&str])] = &[
    (
        "solve",
        &["input", "source", "solver", "k", "seed", "format"],
    ),
    (
        "sweep",
        &[
            "input",
            "source",
            "kmax",
            "trials",
            "seed",
            "format",
            "out",
            "jobs",
            "listen",
            "token",
            "trace",
            "dataset",
            "mem-budget",
        ],
    ),
    ("worker", &["connect", "token", "retries"]),
    ("report", &["run", "list", "format"]),
    ("diff", &["a", "b", "epsilon"]),
    ("gc", &["out", "keep", "max-age"]),
    ("stats", &["input"]),
    ("generate", &["dataset", "seed", "scale"]),
    ("dataset", &["input", "gen", "stats", "mem-budget", "out"]),
    (
        "serve",
        &["addr", "ttl-secs", "max-sessions", "trace", "mem-budget"],
    ),
    (
        "loadtest",
        &[
            "graph",
            "solver",
            "seed",
            "clients",
            "requests",
            "kmax",
            "transport",
            "mutations",
        ],
    ),
    (
        "online",
        &[
            "input",
            "source",
            "k",
            "events",
            "seed",
            "thresholds",
            "format",
            "out",
        ],
    ),
    ("trace", &["summary"]),
];

/// Refuse flags outside the command's [`FLAG_SPEC`] vocabulary.
fn reject_unknown_flags(command: &str, flags: &HashMap<String, String>) -> Result<(), String> {
    let Some((_, allowed)) = FLAG_SPEC.iter().find(|(name, _)| *name == command) else {
        return Ok(()); // unknown commands are reported by the dispatcher
    };
    let mut unknown: Vec<&str> = flags
        .keys()
        .map(String::as_str)
        .filter(|name| !allowed.contains(name))
        .collect();
    unknown.sort_unstable();
    if let Some(first) = unknown.first() {
        let accepts: Vec<String> = allowed.iter().map(|f| format!("--{f}")).collect();
        return Err(format!(
            "unknown flag --{first} for {command} (accepts: {})",
            accepts.join(", ")
        ));
    }
    Ok(())
}

/// The most cells one `fp sweep` may ask for through `--kmax` and
/// `--trials` (the paper's sweep is 3,829).
const MAX_SWEEP_CELLS: usize = 1 << 20;

/// The most mutation events `fp online --events` may ask for (the
/// default is 200).
const MAX_EVENTS: usize = 1 << 22;

/// The most threads `--jobs` and `--clients` may start (`fp sweep`,
/// `fp loadtest` and `repro`).
pub const MAX_PARALLEL: usize = 256;

/// The most requests one `fp loadtest` phase may issue over all its
/// clients (`--clients` × `--requests`); it keeps every latency.
const MAX_REQUESTS: usize = 1 << 20;

/// The highest `fp loadtest --kmax`: the batch reference ladder holds
/// one placement per budget in `0..=kmax`, at most 4,096 of them, the
/// most budgets one serve query may ask for.
const MAX_LOADTEST_KMAX: usize = 4095;

/// The most edge insertions `fp loadtest --mutations` may drive.
const MAX_MUTATIONS: usize = 1 << 16;

/// Parse `text` as the count flag `--name`, refusing values above
/// `max`: every count that sizes an allocation or a thread pool is
/// checked here, before anything is allocated or started.
pub fn parse_count(name: &str, text: &str, max: usize) -> Result<usize, String> {
    let n: usize = text
        .parse()
        .map_err(|_| format!("--{name} must be a non-negative integer"))?;
    if n > max {
        return Err(format!("--{name} {n} is over its cap of {max}"));
    }
    Ok(n)
}

/// The count flag `--name` through [`parse_count`]: `default` when the
/// flag is absent, or a missing-flag error when there is no default.
fn count_flag(
    flags: &HashMap<String, String>,
    name: &str,
    default: Option<usize>,
    max: usize,
) -> Result<usize, String> {
    match flags.get(name) {
        Some(text) => parse_count(name, text, max),
        None => default.ok_or_else(|| format!("missing required flag --{name}")),
    }
}

/// How many cells `fp sweep` runs for the paper's solvers at `kmax` and
/// `trials` (one curve per deterministic solver, one cell per budget
/// and trial per randomized one), refused past [`MAX_SWEEP_CELLS`].
fn sweep_cell_count(kmax: usize, trials: usize) -> Result<usize, String> {
    let randomized = SolverKind::PAPER_SET
        .iter()
        .filter(|kind| kind.is_randomized())
        .count();
    let curves = SolverKind::PAPER_SET.len() - randomized;
    kmax.checked_add(1)
        .and_then(|ks| ks.checked_mul(trials.max(1)))
        .and_then(|draws| draws.checked_mul(randomized))
        .and_then(|cells| cells.checked_add(curves))
        .filter(|&cells| cells <= MAX_SWEEP_CELLS)
        .ok_or_else(|| {
            format!(
                "--kmax {kmax} with --trials {trials} asks for more than \
                 {MAX_SWEEP_CELLS} sweep cells"
            )
        })
}

/// How many requests one `fp loadtest` phase issues for `clients` and
/// `requests` per client, refused past [`MAX_REQUESTS`].
fn loadtest_request_count(clients: usize, requests: usize) -> Result<usize, String> {
    clients
        .checked_mul(requests)
        .filter(|&total| total <= MAX_REQUESTS)
        .ok_or_else(|| {
            format!(
                "--clients {clients} with --requests {requests} asks for more than \
                 {MAX_REQUESTS} requests"
            )
        })
}

fn required<'a>(flags: &'a HashMap<String, String>, name: &str) -> Result<&'a str, String> {
    flags
        .get(name)
        .map(String::as_str)
        .ok_or_else(|| format!("missing required flag --{name}"))
}

fn load_graph(text: &str, source_label: &str) -> Result<(DiGraph, Vec<String>, NodeId), String> {
    let (g, labels) = from_edge_list(text).map_err(|e| e.to_string())?;
    let source = labels
        .iter()
        .position(|l| l == source_label)
        .map(NodeId::new)
        .ok_or_else(|| format!("source {source_label:?} does not appear in the edge list"))?;
    Ok((g, labels, source))
}

fn cmd_solve(flags: &HashMap<String, String>, input: &str) -> Result<String, String> {
    let (g, labels, source) = load_graph(input, required(flags, "source")?)?;
    let solver = SolverKind::from_label(required(flags, "solver")?)?;
    let k = count_flag(flags, "k", None, usize::MAX)?;
    let seed: u64 = flags.get("seed").map_or(Ok(0), |s| {
        s.parse()
            .map_err(|_| "--seed must be an integer".to_string())
    })?;
    let problem = Problem::new(&g, source).map_err(|e| e.to_string())?;
    let placement = problem.solve_seeded(solver, k, seed);
    let format = flags.get("format").map_or("table", String::as_str);
    match format {
        "dot" => Ok(to_dot(&g, "placement", placement.nodes())),
        "table" | "csv" => {
            let mut table = Table::new(["rank", "node", "FR so far"]);
            let mut running = fp_propagation::FilterSet::empty(g.node_count());
            for (i, &v) in placement.nodes().iter().enumerate() {
                running.insert(v);
                table.row([
                    (i + 1).to_string(),
                    labels[v.index()].clone(),
                    format!("{:.4}", problem.filter_ratio(&running)),
                ]);
            }
            let mut out = format!(
                "graph: {} nodes, {} edges{}\nsolver: {}  k: {}\nphi(empty) = {}  F(V) = {}\n",
                g.node_count(),
                g.edge_count(),
                if problem.was_cyclic() {
                    " (cycles removed via Acyclic)"
                } else {
                    ""
                },
                solver.label(),
                k,
                problem.phi_empty(),
                problem.f_all(),
            );
            out.push_str(&if format == "csv" {
                table.to_csv()
            } else {
                table.to_string()
            });
            Ok(out)
        }
        other => Err(format!("unknown --format {other:?} (table, csv, dot)")),
    }
}

/// The sweep's store protocol, shared by the edge-list and streamed
/// paths: no `--out` computes directly; with `--out`, an identical
/// stored run is a cache hit and a miss computes then persists.
fn sweep_with_store(
    flags: &HashMap<String, String>,
    cfg: &SweepConfig,
    dataset: DatasetFingerprint,
    header: &mut String,
    compute: impl FnOnce() -> Result<SweepResult, String>,
) -> Result<SweepResult, String> {
    match flags.get("out") {
        None => compute(),
        Some(out) => {
            let store = RunStore::open(out)?;
            let id = RunStore::run_id(cfg, &dataset);
            match store.load(&id)? {
                Some(stored) => {
                    *header = format!(
                        "run {id}: cache hit, loaded from {}\n",
                        store.run_dir(&id).display()
                    );
                    Ok(stored.result)
                }
                None => {
                    let result = compute()?;
                    let manifest = RunManifest::new(cfg.clone(), dataset);
                    let dir = store.save(&manifest, &result)?;
                    *header = format!("run {id}: saved to {}\n", dir.display());
                    Ok(result)
                }
            }
        }
    }
}

fn cmd_sweep(flags: &HashMap<String, String>, input: Option<&str>) -> Result<String, String> {
    let streamed = flags.get("dataset");
    if streamed.is_some() {
        for incompatible in ["input", "source", "listen", "token"] {
            if flags.contains_key(incompatible) {
                return Err(format!(
                    "--dataset streams a generated graph into an in-process solve; \
                     it cannot be combined with --{incompatible}"
                ));
            }
        }
    } else if flags.contains_key("mem-budget") {
        return Err(
            "--mem-budget caps the streamed graph build; it requires --dataset SPEC".to_string(),
        );
    }
    let kmax = count_flag(flags, "kmax", None, usize::MAX)?;
    let trials = count_flag(flags, "trials", Some(25), usize::MAX)?;
    sweep_cell_count(kmax, trials)?;
    let seed: u64 = flags.get("seed").map_or(Ok(0), |s| {
        s.parse()
            .map_err(|_| "--seed must be an integer".to_string())
    })?;
    let jobs = count_flag(flags, "jobs", Some(0), MAX_PARALLEL)?;
    let listen = flags.get("listen").map(String::as_str);
    if listen.is_some() {
        if flags.contains_key("jobs") {
            return Err(
                "--listen hands every cell to remote workers over TCP; it cannot be \
                 combined with --jobs"
                    .to_string(),
            );
        }
        if required(flags, "token")?.is_empty() {
            return Err("--listen requires a non-empty --token".to_string());
        }
    } else if flags.contains_key("token") {
        return Err("--token only applies with --listen".to_string());
    }
    let format = flags.get("format").map_or("table", String::as_str);
    if !matches!(format, "table" | "csv") {
        return Err(format!("unknown --format {format:?} (table, csv)"));
    }
    let cfg = SweepConfig {
        ks: (0..=kmax).collect(),
        trials,
        seed,
        solvers: SolverKind::PAPER_SET.to_vec(),
    };

    let trace = trace_enable(flags);
    let mut header = String::new();
    let result = if let Some(spec) = streamed {
        // Streamed path: generator → compact CSR under the memory
        // budget (one pass when the targets never decrease, else two)
        // → c-graph, no intermediate edge list. The
        // fingerprint hashes the CSR, which is bit-identical to the
        // materialized generator graph (each `generate` replays the
        // same stream into a DiGraph), so stored runs are
        // interchangeable with ones computed from the equivalent
        // edge-list file.
        let budget = parse_mem_budget(flags)?;
        let (mut stream, source) = parse_gen_spec(spec)?;
        let csr32 = Csr32::from_stream(&mut *stream, &budget).map_err(|e| e.to_string())?;
        let graph_bytes = csr32.bytes();
        drop(stream);
        let csr = csr32.into_csr();
        let dataset = DatasetFingerprint::of_csr(spec, &csr, source, &source.index().to_string());
        let cg = CGraph::from_csr(csr, source).map_err(|e| e.to_string())?;
        let problem = Problem::from_cgraph(cg);
        let result = sweep_with_store(flags, &cfg, dataset, &mut header, || {
            Ok(
                run_sweep_with(&problem, &cfg, &RunnerOptions::with_jobs(jobs))
                    .expect("no deadline"),
            )
        });
        // The CSR's bytes stay reserved until the solve is over; hand
        // them back so the process-wide gauges read zero at exit.
        budget.release(graph_bytes);
        result?
    } else {
        let source_label = required(flags, "source")?;
        let input = input.ok_or_else(|| "missing required flag --input".to_string())?;
        let (g, _, source) = load_graph(input, source_label)?;
        // The two sweep backends: in-process threads (--jobs), or
        // worker processes dialing into --listen over TCP. Identical
        // bits either way.
        let compute = || -> Result<SweepResult, String> {
            if let Some(addr) = listen {
                let token = required(flags, "token")?;
                let listener = SweepListener::bind(addr, NetOptions::new(token).from_env()?)?;
                eprintln!(
                    "fp sweep: listening on {} for remote workers \
                     (join with `fp worker --connect ADDR --token ...`)",
                    listener.local_addr()
                );
                listener.run(&g, source, &cfg)
            } else {
                let problem = Problem::new(&g, source).map_err(|e| e.to_string())?;
                Ok(
                    run_sweep_with(&problem, &cfg, &RunnerOptions::with_jobs(jobs))
                        .expect("no deadline"),
                )
            }
        };
        let dataset = DatasetFingerprint::of_graph("edge-list", &g, source, source_label);
        sweep_with_store(flags, &cfg, dataset, &mut header, compute)?
    };
    if let Some(path) = trace {
        header.push_str(&trace_dump(path)?);
    }
    let table = sweep_table(&result);
    // CSV output must stay machine-clean: the run-status and trace
    // lines are only prepended to the human-readable table (`report
    // --format csv` and `sweep --out --format csv` emit
    // interchangeable bytes); the trace file is written either way.
    Ok(if format == "csv" {
        table.to_csv()
    } else {
        header + &table.to_string()
    })
}

/// Dial a `fp sweep --listen` dispatcher and serve cells until it says
/// shutdown.
fn cmd_worker(flags: &HashMap<String, String>) -> Result<String, String> {
    let addr = required(flags, "connect")?;
    let token = required(flags, "token")?;
    let retries: u32 = flags.get("retries").map_or(Ok(5), |s| {
        s.parse()
            .map_err(|_| "--retries must be a non-negative integer".to_string())
    })?;
    let summary = crate::worker::serve_connect(addr, token, retries)?;
    Ok(summary + "\n")
}

fn cmd_report(flags: &HashMap<String, String>) -> Result<String, String> {
    if let Some(root) = flags.get("list") {
        if flags.contains_key("run") {
            return Err("--list and --run are mutually exclusive".to_string());
        }
        if flags.contains_key("format") {
            return Err("--list renders a table only; --format applies to --run".to_string());
        }
        return cmd_report_list(root);
    }
    let dir = required(flags, "run")?;
    let stored = RunStore::load_dir(Path::new(dir))?;
    let result: SweepResult = stored.result;
    match flags.get("format").map_or("table", String::as_str) {
        "table" => Ok(sweep_table(&result).to_string()),
        "csv" => Ok(sweep_csv(&result)),
        "json" => Ok(result.to_json().to_pretty()),
        other => Err(format!("unknown --format {other:?} (table, csv, json)")),
    }
}

/// `fp report --list DIR`: one row per stored run.
fn cmd_report_list(root: &str) -> Result<String, String> {
    if !Path::new(root).is_dir() {
        return Err(format!("{root:?} is not a directory"));
    }
    let store = RunStore::open(root)?;
    let runs = store.list()?;
    let mut table = Table::new([
        "run",
        "dataset",
        "solvers",
        "k max",
        "trials",
        "used (unix)",
    ]);
    for run in &runs {
        table.row([
            run.id.clone(),
            run.manifest.dataset.name.clone(),
            run.manifest.config.solvers.len().to_string(),
            run.manifest
                .config
                .ks
                .iter()
                .max()
                .map_or("-".to_string(), |k| k.to_string()),
            run.manifest.config.trials.to_string(),
            run.modified_unix.to_string(),
        ]);
    }
    Ok(format!("{} run(s) under {root}\n{table}", runs.len()))
}

/// `fp diff --a DIR --b DIR [--epsilon E]`: compare two stored runs
/// per (solver, k).
///
/// `DIR` is a run directory (what `report --run` takes). Every FR
/// delta with `|Δ| > epsilon` is listed; the command *errors* (so the
/// binary exits non-zero) when any budget **regresses** — `FR_b <
/// FR_a − epsilon` — or when the two runs are incomparable: different
/// dataset fingerprints (FRs from different graphs mean nothing side
/// by side), different trial counts (different estimators), or
/// different solver sets / budget axes. Seeds may differ — comparing
/// seeds is a legitimate robustness check. Improvements are reported
/// but are not failures, so the tool gates "no solver got worse" in
/// CI while tolerating genuine gains.
fn cmd_diff(flags: &HashMap<String, String>) -> Result<String, String> {
    let a_dir = required(flags, "a")?;
    let b_dir = required(flags, "b")?;
    let epsilon: f64 = flags.get("epsilon").map_or(Ok(1e-12), |s| {
        s.parse()
            .map_err(|_| "--epsilon must be a number".to_string())
    })?;
    if !epsilon.is_finite() || epsilon < 0.0 {
        return Err("--epsilon must be non-negative".to_string());
    }
    let a = RunStore::load_dir(Path::new(a_dir)).map_err(|e| format!("--a: {e}"))?;
    let b = RunStore::load_dir(Path::new(b_dir)).map_err(|e| format!("--b: {e}"))?;

    // FR pairs only mean something on the same experiment: same graph
    // (structural fingerprint, not just the display name) and the same
    // trial count (a different estimator is not a regression). Seeds
    // MAY differ — comparing seeds is a legitimate robustness check.
    let (da, db) = (&a.manifest.dataset, &b.manifest.dataset);
    if (&da.edge_hash, da.nodes, da.edges, &da.source)
        != (&db.edge_hash, db.nodes, db.edges, &db.source)
    {
        return Err(format!(
            "runs are not comparable: --a ran on {} ({} nodes, {} edges, source {:?}, hash {}), \
             --b on {} ({} nodes, {} edges, source {:?}, hash {})",
            da.name,
            da.nodes,
            da.edges,
            da.source,
            da.edge_hash,
            db.name,
            db.nodes,
            db.edges,
            db.source,
            db.edge_hash
        ));
    }
    if a.manifest.config.trials != b.manifest.config.trials {
        return Err(format!(
            "runs are not comparable: --a averaged {} trial(s) per point, --b {}",
            a.manifest.config.trials, b.manifest.config.trials
        ));
    }

    let labels = |run: &fp_results::StoredRun| -> Vec<String> {
        run.result.series.iter().map(|s| s.label.clone()).collect()
    };
    if labels(&a) != labels(&b) {
        return Err(format!(
            "runs are not comparable: --a has solvers [{}], --b has [{}]",
            labels(&a).join(", "),
            labels(&b).join(", ")
        ));
    }

    let mut table = Table::new(["solver", "k", "FR a", "FR b", "delta"]);
    let mut flagged = 0usize;
    let mut regressions = 0usize;
    for (sa, sb) in a.result.series.iter().zip(&b.result.series) {
        let ka: Vec<usize> = sa.points.iter().map(|&(k, _)| k).collect();
        let kb: Vec<usize> = sb.points.iter().map(|&(k, _)| k).collect();
        if ka != kb {
            return Err(format!(
                "runs are not comparable: {} has budgets {ka:?} in --a but {kb:?} in --b",
                sa.label
            ));
        }
        for (&(k, fra), &(_, frb)) in sa.points.iter().zip(&sb.points) {
            let delta = frb - fra;
            if delta.abs() > epsilon {
                flagged += 1;
                if delta < 0.0 {
                    regressions += 1;
                }
                table.row([
                    sa.label.clone(),
                    k.to_string(),
                    format!("{fra:.6}"),
                    format!("{frb:.6}"),
                    format!("{delta:+.6}"),
                ]);
            }
        }
    }
    let header = format!(
        "{} vs {}: {} delta(s) beyond epsilon {epsilon:e}, {} regression(s)\n",
        a.manifest.id, b.manifest.id, flagged, regressions
    );
    let body = if flagged == 0 {
        header
    } else {
        header + &table.to_string()
    };
    if regressions > 0 {
        // Error so `fp` exits non-zero — the report still reaches the
        // operator (on stderr), which is what a CI gate wants.
        return Err(body);
    }
    Ok(body)
}

/// `fp gc --out DIR --keep N | --max-age SECS`: evict stored runs,
/// least recently *used* first.
fn cmd_gc(flags: &HashMap<String, String>) -> Result<String, String> {
    let root = required(flags, "out")?;
    let keep = flags
        .get("keep")
        .map(|s| {
            s.parse::<usize>()
                .map_err(|_| "--keep must be a non-negative integer".to_string())
        })
        .transpose()?;
    let max_age = flags
        .get("max-age")
        .map(|s| {
            s.parse::<u64>()
                .map_err(|_| "--max-age must be seconds".to_string())
        })
        .transpose()?;
    let policy = match (keep, max_age) {
        (Some(n), None) => GcPolicy::KeepNewest(n),
        (None, Some(secs)) => GcPolicy::MaxAge(std::time::Duration::from_secs(secs)),
        (Some(_), Some(_)) => return Err("--keep and --max-age are mutually exclusive".to_string()),
        (None, None) => return Err("gc needs a policy: --keep N or --max-age SECS".to_string()),
    };
    if !Path::new(root).is_dir() {
        return Err(format!("{root:?} is not a directory"));
    }
    let store = RunStore::open(root)?;
    let total = store.list()?.len();
    let evicted = store.gc(policy)?;
    let mut out = format!("evicted {} of {total} run(s) under {root}\n", evicted.len());
    for run in &evicted {
        out.push_str(&format!(
            "  {}  {}  last used {}\n",
            run.id, run.manifest.dataset.name, run.modified_unix
        ));
    }
    Ok(out)
}

fn cmd_stats(input: &str) -> Result<String, String> {
    let (g, _) = from_edge_list(input).map_err(|e| e.to_string())?;
    let indeg = DegreeStats::in_degrees(&g);
    let outdeg = DegreeStats::out_degrees(&g);
    let mut out = format!(
        "nodes: {}\nedges: {}\nsinks: {:.1}%\nsources: {:.1}%\nmean in-degree: {:.2}\nmax in-degree: {}\n\nin-degree CDF:\n",
        g.node_count(),
        g.edge_count(),
        outdeg.zero_fraction() * 100.0,
        indeg.zero_fraction() * 100.0,
        indeg.mean(),
        indeg.max_degree(),
    );
    out.push_str(&cdf_table(&indeg.cdf()).to_string());
    Ok(out)
}

fn cmd_generate(flags: &HashMap<String, String>) -> Result<String, String> {
    let seed: u64 = flags.get("seed").map_or(Ok(2012), |s| {
        s.parse()
            .map_err(|_| "--seed must be an integer".to_string())
    })?;
    let scale: f64 = flags.get("scale").map_or(Ok(1.0), |s| {
        s.parse().map_err(|_| "--scale must be a float".to_string())
    })?;
    let g = match required(flags, "dataset")? {
        "layered-sparse" => {
            fp_datasets::layered::generate(&fp_datasets::layered::LayeredParams::paper_sparse(seed))
                .graph
        }
        "layered-dense" => {
            fp_datasets::layered::generate(&fp_datasets::layered::LayeredParams::paper_dense(seed))
                .graph
        }
        "quote" => {
            fp_datasets::quote_like::generate(&fp_datasets::quote_like::QuoteLikeParams {
                nodes: (932.0 * scale) as usize,
                seed,
            })
            .graph
        }
        "twitter" => {
            fp_datasets::twitter_like::generate(&fp_datasets::twitter_like::TwitterLikeParams {
                scale,
                seed,
            })
            .graph
        }
        "citation" => {
            let mut params = fp_datasets::citation_like::CitationLikeParams::default();
            if scale < 1.0 {
                params = fp_datasets::citation_like::test_params(seed);
            }
            params.seed = seed;
            fp_datasets::citation_like::generate(&params).graph
        }
        other => {
            return Err(format!(
            "unknown dataset {other:?} (layered-sparse, layered-dense, quote, twitter, citation)"
        ))
        }
    };
    Ok(to_edge_list(&g))
}

/// The `--gen` spec grammar shared by `fp dataset` and `fp sweep
/// --dataset` (kept in one place so the two error messages agree).
const GEN_SPEC_GRAMMAR: &str = "power-law:NODES:DEGREE:SEED, erdos:NODES:P:SEED, \
     layered-sparse:SEED, layered-dense:SEED, citation:SEED, twitter:SCALE:SEED";

/// The most coin flips an `erdos:` spec may ask for. Its generator flips
/// one per node pair on every replay, n(n−1)/2 of them, so this caps
/// the node count at 23,170.
const MAX_ERDOS_FLIPS: u128 = 1 << 28;

/// Parse a `--gen SPEC` into a boxed [`EdgeStream`] plus the graph's
/// propagation source. Each generator's `generate` replays this same
/// stream into a `DiGraph`, so a CSR built from it is bit-identical to
/// freezing the materialized graph.
fn parse_gen_spec(spec: &str) -> Result<(Box<dyn EdgeStream>, NodeId), String> {
    let bad = |what: String| format!("invalid --gen spec {spec:?}: {what}");
    let usize_of = |tok: &str, what: &str| {
        tok.parse::<usize>()
            .map_err(|_| bad(format!("{what} {tok:?} is not a non-negative integer")))
    };
    let u64_of = |tok: &str, what: &str| {
        tok.parse::<u64>()
            .map_err(|_| bad(format!("{what} {tok:?} is not a non-negative integer")))
    };
    let f64_of = |tok: &str, what: &str| {
        tok.parse::<f64>()
            .map_err(|_| bad(format!("{what} {tok:?} is not a number")))
    };
    let parts: Vec<&str> = spec.split(':').collect();
    match parts.as_slice() {
        ["power-law", nodes, degree, seed] => {
            let params = fp_datasets::power_law::PowerLawParams {
                nodes: usize_of(nodes, "node count")?,
                mean_degree: usize_of(degree, "mean degree")?,
                seed: u64_of(seed, "seed")?,
            };
            if params.nodes < 1 || params.mean_degree < 1 {
                return Err(bad("node count and mean degree must be at least 1".into()));
            }
            let s = fp_datasets::power_law::PowerLawStream::new(&params);
            Ok((Box::new(s), NodeId::new(0)))
        }
        ["erdos", n, p, seed] => {
            let p = f64_of(p, "edge probability")?;
            if !(0.0..=1.0).contains(&p) {
                return Err(bad("edge probability must be in [0, 1]".into()));
            }
            let n = usize_of(n, "node count")?;
            let flips = n as u128 * n.saturating_sub(1) as u128 / 2;
            if flips > MAX_ERDOS_FLIPS {
                return Err(bad(format!(
                    "node count {n} asks for {flips} coin flips (one per node pair), \
                     over the limit of {MAX_ERDOS_FLIPS} (2^28, at most 23170 nodes)"
                )));
            }
            let s = fp_datasets::erdos_renyi::ErdosRenyiStream::new(n, p, u64_of(seed, "seed")?);
            let source = s.source();
            Ok((Box::new(s), source))
        }
        ["layered-sparse", seed] | ["layered-dense", seed] => {
            let seed = u64_of(seed, "seed")?;
            let params = if parts[0] == "layered-sparse" {
                fp_datasets::layered::LayeredParams::paper_sparse(seed)
            } else {
                fp_datasets::layered::LayeredParams::paper_dense(seed)
            };
            let s = fp_datasets::layered::LayeredStream::new(&params);
            Ok((Box::new(s), NodeId::new(0)))
        }
        ["citation", seed] => {
            let params = fp_datasets::citation_like::CitationLikeParams {
                seed: u64_of(seed, "seed")?,
                ..Default::default()
            };
            let s = fp_datasets::citation_like::CitationLikeStream::new(&params);
            Ok((Box::new(s), NodeId::new(0)))
        }
        ["twitter", scale, seed] => {
            let scale = f64_of(scale, "scale")?;
            if !(scale.is_finite() && scale > 0.0) {
                return Err(bad("scale must be positive".into()));
            }
            let params = fp_datasets::twitter_like::TwitterLikeParams {
                scale,
                seed: u64_of(seed, "seed")?,
            };
            let s = fp_datasets::twitter_like::TwitterLikeStream::new(&params);
            Ok((Box::new(s), NodeId::new(0)))
        }
        _ => Err(bad(format!("expected {GEN_SPEC_GRAMMAR}"))),
    }
}

/// `--mem-budget BYTES`: a hard cap on tracked graph memory (suffixes
/// `K`/`M`/`G`, 1024-based). Without the flag, an accounting-only
/// budget that never rejects.
fn parse_mem_budget(flags: &HashMap<String, String>) -> Result<MemBudget, String> {
    let cap = flags
        .get("mem-budget")
        .map(|s| parse_bytes(s))
        .transpose()?;
    Ok(MemBudget::new(cap))
}

/// `fp dataset (--input FILE | --gen SPEC) [--stats true|false]
/// [--out FILE] [--mem-budget BYTES]`: streamed dataset plumbing —
/// every path holds one bounded chunk of edges plus O(nodes) counters,
/// never the edge list.
///
/// `--stats true` reports streaming statistics (nodes, edges, degree
/// maxima, depth); otherwise the edges are streamed to `--out FILE` as
/// numeric `source target` lines, the dialect `--input` and
/// `fp sweep --dataset` read back.
fn cmd_dataset(flags: &HashMap<String, String>) -> Result<String, String> {
    let budget = parse_mem_budget(flags)?;
    let (mut stream, label): (Box<dyn EdgeStream>, String) =
        match (flags.get("input"), flags.get("gen")) {
            (Some(_), Some(_)) => {
                return Err("--input and --gen are mutually exclusive".to_string())
            }
            (Some(path), None) => (
                Box::new(FileEdgeStream::open(path).map_err(|e| e.to_string())?),
                path.clone(),
            ),
            (None, Some(spec)) => (parse_gen_spec(spec)?.0, spec.clone()),
            (None, None) => return Err("dataset needs --input FILE or --gen SPEC".to_string()),
        };
    let stats = match flags.get("stats").map(String::as_str) {
        None | Some("false") => false,
        Some("true") => true,
        Some(other) => return Err(format!("--stats must be true or false, got {other:?}")),
    };
    if stats {
        if flags.contains_key("out") {
            return Err("--stats reports statistics; it cannot be combined with --out".to_string());
        }
        let s = stream_stats(&mut *stream, &budget).map_err(|e| e.to_string())?;
        return Ok(format!(
            "dataset: {label}\nnodes: {}\nedges: {}\nmax in-degree: {}\nmax out-degree: {}\n\
             max degree: {}\ndepth: {}\nstream passes: {}\n",
            s.nodes, s.edges, s.max_in_degree, s.max_out_degree, s.max_degree, s.depth, s.passes
        ));
    }
    let out_path = flags.get("out").ok_or_else(|| {
        "dataset needs --out FILE (or --stats true); edges are streamed, never buffered".to_string()
    })?;
    let file =
        std::fs::File::create(out_path).map_err(|e| format!("cannot write {out_path:?}: {e}"))?;
    let mut w = std::io::BufWriter::new(file);
    let mut edges: u64 = 0;
    let mut nodes: u64 = stream.node_hint().unwrap_or(0);
    let io_err = |e: std::io::Error| ScaleError::Io {
        path: out_path.clone(),
        reason: e.to_string(),
    };
    fp_scale::for_each_chunk(&mut *stream, |chunk| {
        for &(u, v) in chunk {
            nodes = nodes.max(u64::from(u.max(v)) + 1);
            writeln!(w, "{u} {v}").map_err(io_err)?;
        }
        edges += chunk.len() as u64;
        Ok(())
    })
    .map_err(|e| e.to_string())?;
    w.flush().map_err(|e| io_err(e).to_string())?;
    Ok(format!(
        "wrote {edges} edge(s) over {nodes} node(s) to {out_path}\n"
    ))
}

/// Turn on the global span recorder when `--trace FILE` was passed;
/// returns the dump path so the caller can write the ring out when the
/// command finishes. Tracing touches monotonic clocks only, so the
/// traced command's *results* are byte-identical to an untraced run
/// (the determinism gate holds this).
fn trace_enable(flags: &HashMap<String, String>) -> Option<&String> {
    let path = flags.get("trace");
    if path.is_some() {
        fp_obs::tracer().enable();
    }
    path
}

/// Stop recording and dump the ring as Chrome trace-event JSON; returns
/// a one-line status for the human-readable output.
fn trace_dump(path: &str) -> Result<String, String> {
    let tracer = fp_obs::tracer();
    tracer.disable();
    std::fs::write(path, tracer.chrome_trace_json())
        .map_err(|e| format!("cannot write {path:?}: {e}"))?;
    let overwritten = tracer.overwritten();
    let wrapped = if overwritten > 0 {
        format!(" ({overwritten} older span(s) overwritten by the ring)")
    } else {
        String::new()
    };
    Ok(format!(
        "trace: {} span(s) written to {path}{wrapped}\n",
        tracer.len()
    ))
}

/// `fp trace --summary FILE`: aggregate a dumped Chrome trace per span
/// name — count, total, mean, and max duration, heaviest first, plus
/// each integer span arg summed over the name's spans (so a
/// `cgraph.freeze` row's `identity` counts the freezes that kept the
/// label order).
fn cmd_trace(flags: &HashMap<String, String>) -> Result<String, String> {
    let path = required(flags, "summary")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
    let doc = fp_results::Json::parse(&text).map_err(|e| format!("{path:?}: {e}"))?;
    let events = doc
        .get("traceEvents")
        .and_then(fp_results::Json::as_array)
        .ok_or_else(|| format!("{path:?} has no traceEvents array (not a trace dump?)"))?;
    let mut durations = Vec::with_capacity(events.len());
    let mut arg_sums: BTreeMap<&str, BTreeMap<&str, i128>> = BTreeMap::new();
    for event in events {
        // Complete ("X") events carry name + dur; anything else (e.g.
        // metadata records) is skipped rather than rejected.
        let (Some(name), Some(dur)) = (
            event.get("name").and_then(fp_results::Json::as_str),
            event.get("dur").and_then(fp_results::Json::as_f64),
        ) else {
            continue;
        };
        if let Some(fp_results::Json::Object(args)) = event.get("args") {
            let sums = arg_sums.entry(name).or_default();
            for (key, value) in args {
                if let Some(v) = value.as_i128() {
                    *sums.entry(key).or_default() += v;
                }
            }
        }
        durations.push((name.to_string(), dur));
    }
    let rows = fp_obs::trace::summarize(&durations);
    let mut out = format!(
        "{} span(s) across {} name(s) in {path}\n",
        durations.len(),
        rows.len()
    );
    if let Some(overwritten) = doc
        .get("overwrittenSpans")
        .and_then(fp_results::Json::as_u64)
    {
        if overwritten > 0 {
            out.push_str(&format!(
                "ring overwrote {overwritten} older span(s) before the dump\n"
            ));
        }
    }
    let mut table = Table::new(["span", "count", "total us", "mean us", "max us", "arg sums"]);
    for row in &rows {
        let sums: Vec<String> = arg_sums
            .get(row.name.as_str())
            .into_iter()
            .flatten()
            .map(|(key, sum)| format!("{key}={sum}"))
            .collect();
        table.row([
            row.name.clone(),
            row.count.to_string(),
            format!("{:.1}", row.total_us),
            format!("{:.1}", row.mean_us),
            format!("{:.1}", row.max_us),
            sums.join(" "),
        ]);
    }
    out.push_str(&table.to_string());
    Ok(out)
}

/// `fp serve [--addr HOST:PORT] [--ttl-secs N]`: run the placement
/// daemon until a `stop` call arrives (DESIGN.md §10).
///
/// Blocks for the server's whole lifetime; the bound address is
/// announced on stderr up front (stdout stays machine-clean for the
/// shutdown summary). Built-in graphs are preloaded; more can be
/// uploaded over the wire. `--ttl-secs N` expires sessions idle longer
/// than `N` seconds (default: never).
fn cmd_serve(flags: &HashMap<String, String>) -> Result<String, String> {
    let addr = flags.get("addr").map_or(DEFAULT_ADDR, String::as_str);
    let ttl = flags
        .get("ttl-secs")
        .map(|s| {
            s.parse::<u64>()
                .map_err(|_| "--ttl-secs must be a non-negative integer".to_string())
        })
        .transpose()?
        .map(std::time::Duration::from_secs);
    let max_sessions = flags
        .get("max-sessions")
        .map(|s| {
            s.parse::<usize>()
                .map_err(|_| "--max-sessions must be a non-negative integer".to_string())
        })
        .transpose()?;
    // Cap the process-wide fp-scale budget before any registry exists:
    // graph uploads reserve their footprint against it and are refused
    // with 503 (never OOM-killed) once the cap is reached.
    if let Some(cap) = flags
        .get("mem-budget")
        .map(|s| parse_bytes(s))
        .transpose()?
    {
        fp_scale::set_global_cap(Some(cap));
    }
    let trace = trace_enable(flags);
    let registry = GraphRegistry::with_builtins();
    let graphs = registry.len();
    let server = Server::bind(addr, ApiState::with_limits(registry, ttl, max_sessions))?;
    let local = server.local_addr();
    eprintln!(
        "fp serve: listening on {local} ({graphs} built-in graph(s); frame + HTTP on one port; \
         POST /stop or a `stop` call shuts down)"
    );
    server.run()?;
    let mut out = format!("fp serve: stopped ({local})\n");
    if let Some(path) = trace {
        out.push_str(&trace_dump(path)?);
    }
    Ok(out)
}

/// `fp loadtest [--graph NAME] [--solver NAME] [--seed N] [--clients N]
/// [--requests N] [--kmax N] [--transport frame|http] [--mutations N]`:
/// drive an in-process daemon with concurrent clients and report
/// verified latency.
///
/// Every response is checked bit-for-bit against the batch ladder
/// before any latency is reported. `--transport http` drives the HTTP
/// endpoint instead of the frame protocol and measures a
/// `Connection: close` phase and a keep-alive phase side by side.
fn cmd_loadtest(flags: &HashMap<String, String>) -> Result<String, String> {
    let mut cfg = LoadtestConfig::default();
    if let Some(graph) = flags.get("graph") {
        cfg.graph = graph.clone();
    }
    if let Some(solver) = flags.get("solver") {
        cfg.solver = SolverKind::from_label(solver)?;
    }
    cfg.seed = flags.get("seed").map_or(Ok(cfg.seed), |s| {
        s.parse()
            .map_err(|_| "--seed must be an integer".to_string())
    })?;
    cfg.clients = count_flag(flags, "clients", Some(cfg.clients), MAX_PARALLEL)?;
    cfg.requests = count_flag(flags, "requests", Some(cfg.requests), usize::MAX)?;
    loadtest_request_count(cfg.clients, cfg.requests)?;
    cfg.kmax = count_flag(flags, "kmax", Some(cfg.kmax), MAX_LOADTEST_KMAX)?;
    cfg.transport = flags
        .get("transport")
        .map_or(Ok(cfg.transport), |s| Transport::parse(s))?;
    cfg.mutations = count_flag(flags, "mutations", Some(cfg.mutations), MAX_MUTATIONS)?;
    if cfg.clients == 0 || cfg.requests == 0 {
        return Err("--clients and --requests must be at least 1".to_string());
    }
    let report = run_loadtest(GraphRegistry::with_builtins(), &cfg)?;
    let mut out = format!(
        "loadtest: {} × {} on {} / {} (seed {}, k 0..={})\n\
         {} request(s), every answer bit-identical to the batch ladder\n\
         p50 {} µs   p99 {} µs   max {} µs   {:.0} req/s   wall {} ms\n",
        cfg.clients,
        cfg.requests,
        cfg.graph,
        cfg.solver.label(),
        cfg.seed,
        cfg.kmax,
        report.total_requests,
        report.p50_us,
        report.p99_us,
        report.max_us,
        report.throughput_rps,
        report.wall_ms,
    );
    if let Some(http) = &report.http {
        let phase = |name: &str, p: &crate::loadtest::PhaseNumbers| {
            format!(
                "  {name}: p50 {} µs   p99 {} µs   max {} µs   {:.0} req/s\n",
                p.p50_us, p.p99_us, p.max_us, p.throughput_rps,
            )
        };
        out.push_str("http phases (headline numbers are keep-alive):\n");
        out.push_str(&phase("close     ", &http.close));
        out.push_str(&phase("keep-alive", &http.keep_alive));
    }
    if let Some(m) = &report.mutation {
        out.push_str(&format!(
            "mutation phase: {} edge insert(s) applied, every rebuilt answer \
             bit-identical to the batch ladder\n  \
             mutate p50 {} µs   p99 {} µs   max {} µs\n",
            report.mutations_applied, m.p50_us, m.p99_us, m.max_us,
        ));
    }
    Ok(out)
}

/// `fp online --input FILE --source LABEL [--k N] [--events N] [--seed N]
/// [--thresholds F,F,...] [--format table|csv] [--out DIR]`: maintain a
/// `k`-filter placement under a deterministic edge-mutation stream.
///
/// The stream comes from [`crate::online::mutation_stream`] — seeded,
/// insert-forward, applicable by construction — and is replayed once
/// per drift threshold, so one run reads out the whole
/// repair-cost-vs-quality trade-off: threshold `0` repairs on any Φ
/// movement (rebuild quality, maximum repair cost), large thresholds
/// never repair (zero cost, drifting quality). Every number reported
/// is a count or an FR — no wall-clock values — so two runs over the
/// same inputs produce byte-identical output and `--out` directories
/// (`online.json`, `online.csv`) that `diff -r` clean; the CI
/// online-determinism job relies on exactly that.
fn cmd_online(flags: &HashMap<String, String>, input: &str) -> Result<String, String> {
    let k = count_flag(flags, "k", Some(8), usize::MAX)?;
    let events = count_flag(flags, "events", Some(200), MAX_EVENTS)?;
    let seed: u64 = flags.get("seed").map_or(Ok(0), |s| {
        s.parse()
            .map_err(|_| "--seed must be an integer".to_string())
    })?;
    let thresholds: Vec<f64> = flags
        .get("thresholds")
        .map_or("0,0.05,0.1", String::as_str)
        .split(',')
        .map(|s| {
            let t: f64 = s
                .trim()
                .parse()
                .map_err(|_| format!("bad threshold {s:?} in --thresholds"))?;
            if !t.is_finite() || t < 0.0 {
                return Err(format!("--thresholds must be finite and >= 0, got {s:?}"));
            }
            Ok(t)
        })
        .collect::<Result<_, _>>()?;
    if thresholds.is_empty() {
        return Err("--thresholds must name at least one drift threshold".to_string());
    }

    let (g, _labels, source) = load_graph(input, required(flags, "source")?)?;
    let problem = Problem::new(&g, source).map_err(|e| e.to_string())?;
    let base = problem.cgraph();
    let stream = crate::online::mutation_stream(base, events, seed);

    let mut table = Table::new([
        "threshold",
        "applied",
        "repairs",
        "repair picks",
        "final FR",
        "rebuild FR",
        "drift",
    ]);
    let mut rows_json = Vec::new();
    let mut edges_end = base.edge_count();
    for &t in &thresholds {
        let mut driver = crate::online::OnlinePlacement::new(
            base.clone(),
            crate::online::OnlineConfig {
                k,
                drift_threshold: t,
            },
        );
        for &m in &stream {
            driver
                .apply_event(m)
                .map_err(|e| format!("stream event rejected: {e}"))?;
        }
        let stats = driver.stats();
        let final_fr = driver.quality();
        let cg = driver.engine().cgraph();
        edges_end = cg.edge_count();
        let rebuilt = crate::online::greedy_rebuild(cg, k);
        let cache = fp_propagation::ObjectiveCache::<fp_num::Wide128>::new(cg);
        let rebuild_fr = cache.filter_ratio(cg, &rebuilt);
        let drift = driver.drift();
        table.row([
            format!("{t}"),
            stats.applied.to_string(),
            stats.repairs.to_string(),
            stats.repair_picks.to_string(),
            format!("{final_fr:.6}"),
            format!("{rebuild_fr:.6}"),
            format!("{drift:.6}"),
        ]);
        rows_json.push(fp_results::Json::object([
            ("threshold", t.to_json()),
            ("applied", stats.applied.to_json()),
            ("repairs", stats.repairs.to_json()),
            ("repair_picks", stats.repair_picks.to_json()),
            ("final_fr", final_fr.to_json()),
            ("rebuild_fr", rebuild_fr.to_json()),
            ("drift", drift.to_json()),
        ]));
    }

    let header = format!(
        "online: {} nodes, {} -> {} edges over {} event(s) (seed {}, k {})\n\
         each threshold replays the same deterministic stream; repair = drop all + re-greedy\n",
        g.node_count(),
        base.edge_count(),
        edges_end,
        events,
        seed,
        k,
    );
    let csv = {
        let mut csv = String::from("threshold,applied,repairs,repair_picks,final_fr,rebuild_fr\n");
        for row in &rows_json {
            csv.push_str(&format!(
                "{},{},{},{},{},{}\n",
                row.expect("threshold")?.as_f64().unwrap_or(0.0),
                row.expect("applied")?.as_usize().unwrap_or(0),
                row.expect("repairs")?.as_usize().unwrap_or(0),
                row.expect("repair_picks")?.as_usize().unwrap_or(0),
                row.expect("final_fr")?.as_f64().unwrap_or(0.0),
                row.expect("rebuild_fr")?.as_f64().unwrap_or(0.0),
            ));
        }
        csv
    };
    if let Some(dir) = flags.get("out") {
        let dir = Path::new(dir);
        std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir:?}: {e}"))?;
        let doc = fp_results::Json::object([
            ("schema", fp_results::Json::Str("fp-online-run/1".into())),
            (
                "graph",
                fp_results::Json::object([
                    ("nodes", g.node_count().to_json()),
                    ("edges_start", base.edge_count().to_json()),
                    ("edges_end", edges_end.to_json()),
                ]),
            ),
            ("k", k.to_json()),
            ("events", events.to_json()),
            ("seed", seed.to_json()),
            ("thresholds", fp_results::Json::Array(rows_json)),
        ]);
        std::fs::write(dir.join("online.json"), doc.to_pretty())
            .map_err(|e| format!("cannot write online.json: {e}"))?;
        std::fs::write(dir.join("online.csv"), &csv)
            .map_err(|e| format!("cannot write online.csv: {e}"))?;
    }
    let format = flags.get("format").map_or("table", String::as_str);
    match format {
        "table" => Ok(format!("{header}{table}")),
        "csv" => Ok(format!("{header}{csv}")),
        other => Err(format!("unknown format {other:?} (want table or csv)")),
    }
}

/// Usage text.
pub const USAGE: &str =
    "usage: fp <solve|sweep|worker|report|diff|gc|stats|generate|dataset|serve|loadtest|online|trace> [flags]
  solve    --input FILE --source LABEL --solver NAME --k N [--seed N] [--format table|csv|dot]
  sweep    --input FILE --source LABEL --kmax N [--trials N] [--seed N] [--format table|csv]
           [--out DIR] [--jobs N] [--listen ADDR --token T] [--trace FILE]
  sweep    --dataset SPEC --kmax N [--mem-budget BYTES] [--trials N] [--seed N]
           [--format table|csv] [--out DIR] [--jobs N] [--trace FILE]
           (--out persists the run; identical reruns are cache hits;
            --listen ADDR evaluates on `fp worker --connect` processes over TCP,
            authenticated by the shared --token — same bytes as in-process;
            --trace dumps Chrome trace-event JSON of the run;
            --dataset SPEC streams a generator straight into a compact CSR —
            no edge list is ever materialized — and solves in-process;
            --mem-budget BYTES caps tracked graph memory, failing with a typed
            error instead of the OOM killer; suffixes K/M/G, 1024-based;
            --kmax and --trials may ask for at most 1048576 sweep cells, and
            --jobs for at most 256 threads)
  worker   --connect HOST:PORT --token T [--retries N]
           (join a remote sweep as a worker: dial the dispatcher's --listen
            socket, authenticate, evaluate cells until the sweep completes;
            lost connections reconnect with capped exponential backoff, up to
            --retries consecutive failures, default 5)
  report   --run DIR [--format table|csv|json]   (re-render a stored run from disk)
  report   --list DIR                            (enumerate the runs stored under DIR)
  diff     --a DIR --b DIR [--epsilon E]         (compare two stored runs per (solver, k);
            flags FR deltas beyond epsilon, exits non-zero if any budget regressed)
  gc       --out DIR --keep N | --max-age SECS   (evict stored runs, LRU first;
            cache hits count as uses)
  stats    --input FILE
  generate --dataset layered-sparse|layered-dense|quote|twitter|citation [--seed N] [--scale F]
  dataset  (--input FILE | --gen SPEC) [--stats true|false] [--out FILE]
           [--mem-budget BYTES]
           (streamed dataset plumbing, one bounded chunk of edges resident:
            --stats true reports nodes/edges/max degree/depth, reading the
            input more than once, so a pipe is refused; otherwise edges
            stream to --out FILE as numeric `source target` lines.
            SPEC is one of power-law:NODES:DEGREE:SEED, erdos:NODES:P:SEED
            (at most 23170 nodes), layered-sparse:SEED, layered-dense:SEED,
            citation:SEED, twitter:SCALE:SEED)
  serve    [--addr HOST:PORT] [--ttl-secs N] [--max-sessions N] [--mem-budget BYTES] [--trace FILE]
           (long-running placement daemon: frame + HTTP transports on one port,
            built-in graphs preloaded, warm sessions per (graph, solver, seed),
            GET /metrics for Prometheus text or ?format=json; POST /stop or a
            `stop` call shuts it down; --max-sessions N caps live sessions,
            evicting expired-then-idlest warm ones and answering 503 with
            Retry-After when every slot is busy; --mem-budget BYTES caps
            tracked graph memory — over-budget uploads are refused with 503;
            --trace dumps spans at shutdown)
  loadtest [--graph NAME] [--solver NAME] [--seed N] [--clients N] [--requests N] [--kmax N]
           [--transport frame|http] [--mutations N]
           (drive an in-process daemon with concurrent clients, verify every answer
            against the batch ladder, report p50/p99/max/throughput; --transport http
            measures Connection: close and keep-alive phases side by side;
            --mutations N follows up with N live edge insertions, each verified
            against a batch solve on the mutated graph; --clients is at most 256,
            --clients × --requests at most 1048576, --kmax at most 4095 and
            --mutations at most 65536)
  online   --input FILE --source LABEL [--k N] [--events N] [--seed N]
           [--thresholds F,F,...] [--format table|csv] [--out DIR]
           (maintain a k-filter placement under a deterministic edge-mutation
            stream, re-running greedy repair when Phi drift crosses each
            threshold; reports repair cost vs quality per threshold — counts
            and FRs only, so --out run dirs are byte-identical across reruns;
            --events is at most 4194304)
  trace    --summary FILE  (aggregate a dumped Chrome trace per span name:
            count, total, mean, max — heaviest first — and each span arg
            summed)";

/// Run the CLI against parsed argv (without the program name); returns
/// the text to print or an error message.
pub fn run(args: &[String]) -> Result<String, String> {
    let Some((command, rest)) = args.split_first() else {
        return Err(USAGE.to_string());
    };
    let flags = parse_flags(rest)?;
    reject_unknown_flags(command, &flags)?;
    let read_input = || -> Result<String, String> {
        let path = required(&flags, "input")?;
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path:?}: {e}"))
    };
    match command.as_str() {
        "solve" => cmd_solve(&flags, &read_input()?),
        "sweep" => {
            // `--dataset` sweeps generate their graph; nothing to read.
            let input = if flags.contains_key("dataset") {
                None
            } else {
                Some(read_input()?)
            };
            cmd_sweep(&flags, input.as_deref())
        }
        "worker" => cmd_worker(&flags),
        "report" => cmd_report(&flags),
        "diff" => cmd_diff(&flags),
        "gc" => cmd_gc(&flags),
        "stats" => cmd_stats(&read_input()?),
        "generate" => cmd_generate(&flags),
        "dataset" => cmd_dataset(&flags),
        "serve" => cmd_serve(&flags),
        "loadtest" => cmd_loadtest(&flags),
        "online" => cmd_online(&flags, &read_input()?),
        "trace" => cmd_trace(&flags),
        "help" | "--help" | "-h" => Ok(USAGE.to_string()),
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    }
}

/// Like [`run`], but with the edge-list text supplied directly (used by
/// tests to avoid the filesystem).
pub fn run_with_input(args: &[String], input: &str) -> Result<String, String> {
    let Some((command, rest)) = args.split_first() else {
        return Err(USAGE.to_string());
    };
    let flags = parse_flags(rest)?;
    reject_unknown_flags(command, &flags)?;
    match command.as_str() {
        "solve" => cmd_solve(&flags, input),
        "sweep" => cmd_sweep(&flags, Some(input)),
        "report" => cmd_report(&flags),
        "diff" => cmd_diff(&flags),
        "gc" => cmd_gc(&flags),
        "stats" => cmd_stats(input),
        "generate" => cmd_generate(&flags),
        "dataset" => cmd_dataset(&flags),
        "serve" => Err("serve blocks on a live socket; use `fp serve` directly".to_string()),
        "loadtest" => cmd_loadtest(&flags),
        "online" => cmd_online(&flags, input),
        "trace" => cmd_trace(&flags),
        "worker" => Err("worker dials a live dispatcher; use `fp worker` directly".to_string()),
        other => Err(format!("unknown command {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    /// Figure 1 as a labeled edge list.
    const FIG1: &str = "s x\ns y\nx z1\nx z2\ny z2\ny z3\nz1 w\nz2 w\nz3 w\n";

    #[test]
    fn solve_places_z2_first() {
        let out = run_with_input(
            &args(&["solve", "--source", "s", "--solver", "G_ALL", "--k", "2"]),
            FIG1,
        )
        .unwrap();
        assert!(out.contains("z2"), "{out}");
        assert!(out.contains("1.0000"), "z2 alone reaches FR 1: {out}");
        assert!(out.contains("7 nodes, 9 edges"), "{out}");
    }

    #[test]
    fn solve_dot_output_highlights_filters() {
        let out = run_with_input(
            &args(&[
                "solve", "--source", "s", "--solver", "G_ALL", "--k", "1", "--format", "dot",
            ]),
            FIG1,
        )
        .unwrap();
        assert!(out.starts_with("digraph"));
        assert!(out.contains("style=filled"));
    }

    #[test]
    fn sweep_produces_all_seven_columns() {
        let out = run_with_input(
            &args(&[
                "sweep", "--source", "s", "--kmax", "3", "--trials", "3", "--format", "csv",
            ]),
            FIG1,
        )
        .unwrap();
        assert!(
            out.starts_with("k,G_ALL,G_Max,G_1,G_L,Rand_W,Rand_I,Rand_K"),
            "{out}"
        );
        assert_eq!(out.lines().count(), 5, "header + k=0..3");
    }

    #[test]
    fn stats_reports_shape() {
        let out = run_with_input(&args(&["stats"]), FIG1).unwrap();
        assert!(out.contains("nodes: 7"));
        assert!(out.contains("edges: 9"));
        assert!(out.contains("in-degree CDF"));
    }

    #[test]
    fn generate_roundtrips_through_the_parser() {
        let out = run_with_input(
            &args(&[
                "generate",
                "--dataset",
                "quote",
                "--scale",
                "0.3",
                "--seed",
                "7",
            ]),
            "",
        )
        .unwrap();
        let (g, _) = from_edge_list(&out).unwrap();
        assert!(g.node_count() > 100);
    }

    #[test]
    fn helpful_errors() {
        let e = run_with_input(&args(&["solve", "--source", "s"]), FIG1).unwrap_err();
        assert!(e.contains("--solver"), "{e}");
        let e = run_with_input(
            &args(&["solve", "--source", "nope", "--solver", "G_ALL", "--k", "1"]),
            FIG1,
        )
        .unwrap_err();
        assert!(e.contains("nope"));
        // An unknown name, `G_ALL(lazy)` among them, is refused with
        // the eight labels listed.
        for name in ["wat", "G_ALL(lazy)"] {
            let e = run_with_input(
                &args(&["solve", "--source", "s", "--solver", name, "--k", "1"]),
                FIG1,
            )
            .unwrap_err();
            assert!(e.contains("unknown solver"), "{e}");
            let (_, listed) = e.split_once("expected one of ").unwrap();
            let labels: Vec<&str> = SolverKind::ALL.iter().map(|k| k.label()).collect();
            assert_eq!(listed, labels.join(", "));
        }
        let e = run_with_input(&args(&["frobnicate"]), "").unwrap_err();
        assert!(e.contains("unknown command"));
    }

    #[test]
    fn solver_names_are_case_insensitive() {
        for (name, label) in [("g_all", "G_ALL"), ("G_MAX", "G_Max"), ("rand_k", "Rand_K")] {
            let out = run_with_input(
                &args(&["solve", "--source", "s", "--solver", name, "--k", "1"]),
                FIG1,
            )
            .unwrap();
            assert!(out.contains(&format!("solver: {label} ")), "{out}");
        }
    }

    #[test]
    fn flag_parser_rejects_malformed_input() {
        assert!(parse_flags(&args(&["positional"])).is_err());
        assert!(parse_flags(&args(&["--dangling"])).is_err());
        let ok = parse_flags(&args(&["--a", "1", "--b", "2"])).unwrap();
        assert_eq!(ok["a"], "1");
        assert_eq!(ok["b"], "2");
    }

    #[test]
    fn unknown_flags_are_rejected_not_ignored() {
        // The historical failure mode: `--solvr G_ALL` parsed fine and
        // the command ran with the default — now it names the typo and
        // lists the vocabulary.
        let e = run_with_input(
            &args(&[
                "solve", "--source", "s", "--solvr", "G_ALL", "--k", "1", "--solver", "G_ALL",
            ]),
            FIG1,
        )
        .unwrap_err();
        assert!(e.contains("unknown flag --solvr"), "{e}");
        assert!(e.contains("--solver"), "vocabulary listed: {e}");

        let e = run_with_input(&args(&["gc", "--out", "/tmp", "--kep", "2"]), "").unwrap_err();
        assert!(e.contains("unknown flag --kep for gc"), "{e}");
        // `fp loadtest` has no retry path: its daemon sends no 408/503.
        let e = run_with_input(&args(&["loadtest", "--retries", "3"]), "").unwrap_err();
        assert!(e.contains("unknown flag --retries for loadtest"), "{e}");

        // `run` (the file-reading dispatcher) gates too, before
        // touching the filesystem.
        let e = run(&args(&["stats", "--inptu", "/nonexistent"])).unwrap_err();
        assert!(e.contains("unknown flag --inptu"), "{e}");
    }

    #[test]
    fn online_reports_one_row_per_threshold_deterministically() {
        let run = || {
            run_with_input(
                &args(&[
                    "online",
                    "--source",
                    "s",
                    "--k",
                    "2",
                    "--events",
                    "20",
                    "--seed",
                    "7",
                    "--thresholds",
                    "0,0.01,1e9",
                ]),
                FIG1,
            )
            .unwrap()
        };
        let out = run();
        assert!(out.contains("online: 7 nodes"), "{out}");
        assert!(out.contains("20 event(s)"), "{out}");
        // One row per threshold; the never-repair threshold spends no
        // picks, the repair-on-anything one repairs at least once.
        let row = |prefix: &str| {
            out.lines()
                .map(str::trim_start)
                .find(|l| l.starts_with(prefix))
                .unwrap_or_else(|| panic!("no {prefix:?} row in {out}"))
                .split_whitespace()
                .map(str::to_string)
                .collect::<Vec<_>>()
        };
        let always = row("0 ");
        let small = row("0.01 ");
        let never = row("1000000000 ");
        assert!(always[2].parse::<usize>().unwrap() >= 1, "{out}");
        assert_eq!(never[2], "0", "{out}");
        assert_eq!(never[3], "0", "{out}");
        // Repair picks never rise with the threshold.
        let picks: Vec<usize> = [&always, &small, &never]
            .iter()
            .map(|row| row[3].parse().unwrap())
            .collect();
        assert!(picks.windows(2).all(|w| w[0] >= w[1]), "{picks:?} in {out}");
        assert!(out == run(), "fp online must be deterministic");
    }

    #[test]
    fn online_csv_lists_repair_cost_vs_quality() {
        let out = run_with_input(
            &args(&[
                "online",
                "--source",
                "s",
                "--k",
                "2",
                "--events",
                "16",
                "--thresholds",
                "0",
                "--format",
                "csv",
            ]),
            FIG1,
        )
        .unwrap();
        assert!(
            out.contains("threshold,applied,repairs,repair_picks,final_fr,rebuild_fr"),
            "{out}"
        );
        // Threshold 0 tracks rebuild quality exactly: the final FR
        // column equals the rebuild FR column on every row.
        let row = out
            .lines()
            .find(|l| l.starts_with("0,"))
            .unwrap_or_else(|| panic!("no threshold-0 row in {out}"));
        let cells: Vec<&str> = row.split(',').collect();
        assert_eq!(cells[4], cells[5], "{out}");
    }

    #[test]
    fn online_out_dir_is_byte_identical_across_reruns() {
        let run_into = |dir: &std::path::Path| {
            run_with_input(
                &args(&[
                    "online",
                    "--source",
                    "s",
                    "--k",
                    "2",
                    "--events",
                    "12",
                    "--out",
                    dir.to_str().unwrap(),
                ]),
                FIG1,
            )
            .unwrap();
        };
        let a = temp_dir("online-a");
        let b = temp_dir("online-b");
        run_into(&a);
        run_into(&b);
        for file in ["online.json", "online.csv"] {
            let left = std::fs::read(a.join(file)).unwrap();
            let right = std::fs::read(b.join(file)).unwrap();
            assert_eq!(left, right, "{file} differs between identical runs");
        }
        let doc = std::fs::read_to_string(a.join("online.json")).unwrap();
        assert!(doc.contains("fp-online-run/1"), "{doc}");
        std::fs::remove_dir_all(&a).ok();
        std::fs::remove_dir_all(&b).ok();
    }

    #[test]
    fn online_rejects_bad_thresholds() {
        for bad in ["nan", "-1", "inf", ""] {
            let err = run_with_input(
                &args(&["online", "--source", "s", "--thresholds", bad]),
                FIG1,
            )
            .unwrap_err();
            assert!(err.contains("threshold"), "{bad:?}: {err}");
        }
    }

    #[test]
    fn loadtest_accepts_a_mutations_flag() {
        // Flag vocabulary only — the full phase is exercised by the
        // loadtest module's own tests.
        let err = run_with_input(&args(&["loadtest", "--mutations", "x"]), "").unwrap_err();
        assert!(err.contains("--mutations"), "{err}");
    }

    #[test]
    fn serve_rejects_a_malformed_session_cap() {
        // `run` (not `run_with_input`): the flag is parsed before the
        // socket binds, so this fails fast without serving anything.
        let err = run(&args(&["serve", "--max-sessions", "lots"])).unwrap_err();
        assert!(err.contains("--max-sessions"), "{err}");
    }

    #[test]
    fn listen_excludes_local_backends_and_demands_a_token() {
        let sweep = |extra: &[&str]| {
            let mut a = args(&["sweep", "--source", "s", "--kmax", "1"]);
            a.extend(extra.iter().map(|s| s.to_string()));
            run_with_input(&a, FIG1).unwrap_err()
        };
        let err = sweep(&["--listen", "127.0.0.1:0", "--token", "t", "--jobs", "2"]);
        assert!(err.contains("--listen"), "{err}");
        let err = sweep(&["--listen", "127.0.0.1:0"]);
        assert!(err.contains("token"), "{err}");
        let err = sweep(&["--token", "t"]);
        assert!(err.contains("--token only applies with --listen"), "{err}");
    }

    #[test]
    fn sweep_has_no_workers_flag() {
        // Worker processes join a sweep through --listen only.
        let err = run_with_input(
            &args(&["sweep", "--source", "s", "--kmax", "1", "--workers", "2"]),
            FIG1,
        )
        .unwrap_err();
        assert!(err.contains("unknown flag --workers"), "{err}");
    }

    #[test]
    fn dataset_stats_match_the_materialized_generator() {
        let out = run_with_input(
            &args(&["dataset", "--gen", "erdos:40:0.12:9", "--stats", "true"]),
            "",
        )
        .unwrap();
        let (g, _) = fp_datasets::erdos_renyi::generate(40, 0.12, 9);
        assert!(out.contains(&format!("nodes: {}", g.node_count())), "{out}");
        assert!(out.contains(&format!("edges: {}", g.edge_count())), "{out}");
        assert!(out.contains("depth: "), "{out}");
    }

    #[test]
    fn dataset_streams_edges_to_a_file_that_round_trips() {
        let dir = temp_dir("dataset-out");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("edges.txt");
        let out = run_with_input(
            &args(&[
                "dataset",
                "--gen",
                "power-law:200:3:5",
                "--out",
                path.to_str().unwrap(),
            ]),
            "",
        )
        .unwrap();
        assert!(out.contains("wrote"), "{out}");
        // Statistics of the written file equal the generator stream's
        // (everything after the `dataset:` label line).
        let from_file = run_with_input(
            &args(&[
                "dataset",
                "--input",
                path.to_str().unwrap(),
                "--stats",
                "true",
            ]),
            "",
        )
        .unwrap();
        let from_gen = run_with_input(
            &args(&["dataset", "--gen", "power-law:200:3:5", "--stats", "true"]),
            "",
        )
        .unwrap();
        let tail = |s: &str| s.lines().skip(1).collect::<Vec<_>>().join("\n");
        assert_eq!(tail(&from_file), tail(&from_gen));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn erdos_specs_are_bounded_before_any_replay() {
        // 23,170 nodes is 268,412,865 pairs, the largest count under
        // 2^28; parsing builds the stream without replaying it.
        assert!(parse_gen_spec("erdos:23170:0.001:1").is_ok());
        for spec in ["erdos:23171:0.001:1", "erdos:100000:0.00001:1"] {
            let err = parse_gen_spec(spec).err().expect(spec);
            assert!(err.contains("268435456") && err.contains("23170"), "{err}");
        }
        let err = run_with_input(
            &args(&[
                "dataset",
                "--gen",
                "erdos:100000:0.00001:1",
                "--stats",
                "true",
            ]),
            "",
        )
        .unwrap_err();
        assert!(err.contains("4999950000 coin flips"), "{err}");
    }

    #[test]
    fn dataset_rejects_conflicting_and_malformed_requests() {
        for (cmd_args, needle) in [
            (vec!["dataset"], "--input FILE or --gen SPEC"),
            (
                vec!["dataset", "--input", "a", "--gen", "erdos:2:0.5:1"],
                "mutually exclusive",
            ),
            (vec!["dataset", "--gen", "erdos:2:0.5:1"], "--out FILE"),
            (
                vec!["dataset", "--gen", "erdos:2:0.5:1", "--stats", "yes"],
                "--stats must be true or false",
            ),
            (
                vec![
                    "dataset",
                    "--gen",
                    "erdos:2:0.5:1",
                    "--stats",
                    "true",
                    "--out",
                    "x",
                ],
                "cannot be combined with --out",
            ),
            (
                vec!["dataset", "--gen", "mystery:1", "--stats", "true"],
                "invalid --gen spec",
            ),
            (
                vec!["dataset", "--gen", "power-law:0:3:1", "--stats", "true"],
                "at least 1",
            ),
            (
                vec!["dataset", "--gen", "erdos:9:1.5:1", "--stats", "true"],
                "probability",
            ),
            (
                vec!["dataset", "--gen", "twitter:-1:1", "--stats", "true"],
                "scale must be positive",
            ),
            (
                vec![
                    "dataset",
                    "--gen",
                    "erdos:2:0.5:1",
                    "--stats",
                    "true",
                    "--chunk",
                    "0",
                ],
                "unknown flag --chunk for dataset",
            ),
            (
                vec![
                    "dataset",
                    "--gen",
                    "erdos:2:0.5:1",
                    "--stats",
                    "true",
                    "--mem-budget",
                    "9Z",
                ],
                "byte count",
            ),
        ] {
            let err = run_with_input(&args(&cmd_args), "").unwrap_err();
            assert!(err.contains(needle), "{cmd_args:?}: {err}");
        }
    }

    #[test]
    fn sweep_dataset_matches_the_materialized_graph() {
        let out = run_with_input(
            &args(&[
                "sweep",
                "--dataset",
                "erdos:30:0.15:9",
                "--kmax",
                "3",
                "--trials",
                "2",
                "--seed",
                "7",
                "--format",
                "csv",
            ]),
            "",
        )
        .unwrap();
        let (g, source) = fp_datasets::erdos_renyi::generate(30, 0.15, 9);
        let problem = Problem::new(&g, source).unwrap();
        let cfg = SweepConfig {
            ks: (0..=3).collect(),
            trials: 2,
            seed: 7,
            solvers: SolverKind::PAPER_SET.to_vec(),
        };
        let expected = run_sweep_with(&problem, &cfg, &RunnerOptions::with_jobs(0)).unwrap();
        assert_eq!(out, sweep_table(&expected).to_csv());
    }

    #[test]
    fn sweep_dataset_out_reruns_are_cache_hits() {
        let dir = temp_dir("sweep-dataset-store");
        let sweep_args = args(&[
            "sweep",
            "--dataset",
            "power-law:60:2:3",
            "--kmax",
            "2",
            "--trials",
            "2",
            "--out",
            dir.to_str().unwrap(),
        ]);
        let first = run_with_input(&sweep_args, "").unwrap();
        assert!(first.contains("saved to"), "{first}");
        let second = run_with_input(&sweep_args, "").unwrap();
        assert!(second.contains("cache hit"), "{second}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sweep_dataset_respects_the_memory_budget() {
        // A 10k-node graph cannot fit in 1K of tracked bytes: typed
        // refusal naming the budget, not an OOM.
        let err = run_with_input(
            &args(&[
                "sweep",
                "--dataset",
                "power-law:10000:3:1",
                "--kmax",
                "1",
                "--mem-budget",
                "1K",
            ]),
            "",
        )
        .unwrap_err();
        assert!(err.contains("memory budget exceeded"), "{err}");
        // A generous cap sails through.
        let ok = run_with_input(
            &args(&[
                "sweep",
                "--dataset",
                "erdos:20:0.2:1",
                "--kmax",
                "1",
                "--trials",
                "1",
                "--mem-budget",
                "64M",
            ]),
            "",
        )
        .unwrap();
        assert!(ok.contains("G_ALL"), "{ok}");
    }

    #[test]
    fn sweep_dataset_excludes_edge_list_and_distributed_flags() {
        for (extra, flagged) in [
            (vec!["--source", "s"], "--source"),
            (vec!["--listen", "127.0.0.1:0", "--token", "t"], "--listen"),
        ] {
            let mut a = args(&["sweep", "--dataset", "erdos:5:0.5:1", "--kmax", "1"]);
            a.extend(extra.iter().map(|s| s.to_string()));
            let err = run_with_input(&a, "").unwrap_err();
            assert!(err.contains(flagged), "{flagged}: {err}");
        }
        // --mem-budget is the streamed build's cap; it demands --dataset.
        let err = run_with_input(
            &args(&[
                "sweep",
                "--source",
                "s",
                "--kmax",
                "1",
                "--mem-budget",
                "1M",
            ]),
            FIG1,
        )
        .unwrap_err();
        assert!(err.contains("requires --dataset"), "{err}");
    }

    #[test]
    fn worker_flags_demand_a_connect_target() {
        let err = run(&args(&["worker"])).unwrap_err();
        assert!(err.contains("--connect"), "{err}");
        let err = run(&args(&["worker", "--token", "t"])).unwrap_err();
        assert!(err.contains("--connect"), "{err}");
        let err = run(&args(&[
            "worker",
            "--connect",
            "example.invalid:1",
            "--token",
            "t",
            "--retries",
            "x",
        ]))
        .unwrap_err();
        assert!(err.contains("--retries"), "{err}");
        let err = run(&args(&["worker", "--connect", "host:1"])).unwrap_err();
        assert!(err.contains("--token"), "{err}");
    }

    /// Every flag the spec allows is documented in [`USAGE`], and every
    /// `--flag` token in [`USAGE`] is allowed by some command's spec —
    /// the help text can neither under- nor over-promise.
    #[test]
    fn usage_and_flag_spec_agree() {
        use std::collections::BTreeSet;
        let documented: BTreeSet<String> = USAGE
            .split_whitespace()
            .filter_map(|tok| tok.trim_start_matches(['[', '(']).strip_prefix("--"))
            .map(|tok| {
                tok.trim_end_matches(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                    .to_string()
            })
            .collect();
        let allowed: BTreeSet<String> = FLAG_SPEC
            .iter()
            .flat_map(|(_, flags)| flags.iter().map(|f| f.to_string()))
            .collect();
        assert_eq!(
            documented, allowed,
            "USAGE and FLAG_SPEC drifted apart (left: documented, right: allowed)"
        );
        // Every public command is both documented and gated (`worker`
        // is deliberately hidden and spec-free).
        for (command, _) in FLAG_SPEC {
            assert!(
                USAGE.contains(command),
                "command {command} missing from USAGE"
            );
        }
        for command in USAGE
            .lines()
            .next()
            .unwrap()
            .trim_start_matches("usage: fp <")
            .split(['|', '>'])
            .filter(|c| !c.trim().is_empty() && !c.contains('['))
        {
            assert!(
                FLAG_SPEC.iter().any(|(name, _)| *name == command),
                "command {command} has no flag spec"
            );
        }
    }

    /// Each documented flag actually parses: passing it with a
    /// syntactically valid value never trips the unknown-flag gate.
    #[test]
    fn every_documented_flag_passes_the_gate() {
        for (command, flags) in FLAG_SPEC {
            for flag in *flags {
                let parsed = parse_flags(&args(&[&format!("--{flag}"), "1"])).unwrap();
                reject_unknown_flags(command, &parsed)
                    .unwrap_or_else(|e| panic!("{command} --{flag}: {e}"));
            }
        }
    }

    /// A unique scratch directory (removed by each test on success;
    /// stragglers land under the OS temp dir).
    fn temp_dir(tag: &str) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "fp-cli-test-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn sweep_out_persists_then_caches_then_reports_byte_identically() {
        let out_dir = temp_dir("store");
        let out_str = out_dir.to_str().unwrap();
        let sweep_args = args(&[
            "sweep", "--source", "s", "--kmax", "2", "--trials", "2", "--seed", "7", "--jobs", "2",
            "--out", out_str,
        ]);

        let first = run_with_input(&sweep_args, FIG1).unwrap();
        let (status, table) = first.split_once('\n').unwrap();
        assert!(status.contains("saved to"), "{status}");

        // Exactly one run directory, with the full file triple.
        let run_dirs: Vec<_> = std::fs::read_dir(&out_dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        assert_eq!(run_dirs.len(), 1, "{run_dirs:?}");
        let run_dir = &run_dirs[0];
        for file in ["manifest.json", "result.json", "result.csv"] {
            assert!(run_dir.join(file).exists(), "{file} missing");
        }

        // Identical command again: cache hit, identical table.
        let second = run_with_input(&sweep_args, FIG1).unwrap();
        let (status2, table2) = second.split_once('\n').unwrap();
        assert!(status2.contains("cache hit"), "{status2}");
        assert_eq!(table2, table, "cache hit must reproduce the table");

        // `report` re-renders the same bytes from disk alone.
        let report =
            run_with_input(&args(&["report", "--run", run_dir.to_str().unwrap()]), "").unwrap();
        assert_eq!(report, table);

        // CSV format matches the stored result.csv bytes.
        let report_csv = run_with_input(
            &args(&[
                "report",
                "--run",
                run_dir.to_str().unwrap(),
                "--format",
                "csv",
            ]),
            "",
        )
        .unwrap();
        assert_eq!(
            report_csv,
            std::fs::read_to_string(run_dir.join("result.csv")).unwrap()
        );

        // JSON format is valid JSON holding all seven series.
        let report_json = run_with_input(
            &args(&[
                "report",
                "--run",
                run_dir.to_str().unwrap(),
                "--format",
                "json",
            ]),
            "",
        )
        .unwrap();
        let parsed = fp_results::Json::parse(&report_json).unwrap();
        assert_eq!(
            parsed.expect("series").unwrap().as_array().unwrap().len(),
            7
        );

        let _ = std::fs::remove_dir_all(&out_dir);
    }

    #[test]
    fn sweep_out_csv_stays_machine_clean_and_distinct_sources_do_not_collide() {
        let out_dir = temp_dir("csv-clean");
        let out_str = out_dir.to_str().unwrap();
        // --format csv with --out must emit pure CSV (no status line).
        let csv = run_with_input(
            &args(&[
                "sweep", "--source", "s", "--kmax", "1", "--trials", "1", "--out", out_str,
                "--format", "csv",
            ]),
            FIG1,
        )
        .unwrap();
        assert!(csv.starts_with("k,G_ALL"), "status line leaked: {csv}");

        // Same edge structure + same source label, but the label bound
        // to a different node index: must be a fresh run, not a hit.
        let a = "s a\na b\na c\n"; // s = index 0
        let b = "x s\ns b\ns c\n"; // s = index 1, same structural edges
        let sweep = |input: &str| {
            run_with_input(
                &args(&[
                    "sweep", "--source", "s", "--kmax", "1", "--trials", "1", "--out", out_str,
                ]),
                input,
            )
            .unwrap()
        };
        assert!(sweep(a).starts_with("run "), "first run saves");
        let second = sweep(b);
        assert!(
            !second.contains("cache hit"),
            "different source index must not hit the cache: {second}"
        );
        let _ = std::fs::remove_dir_all(&out_dir);
    }

    #[test]
    fn sweep_rejects_unknown_formats() {
        let e = run_with_input(
            &args(&[
                "sweep", "--source", "s", "--kmax", "1", "--trials", "1", "--format", "json",
            ]),
            FIG1,
        )
        .unwrap_err();
        assert!(e.contains("unknown --format"), "{e}");
    }

    #[test]
    fn sweep_is_deterministic_across_job_counts() {
        let one = run_with_input(
            &args(&[
                "sweep", "--source", "s", "--kmax", "3", "--trials", "4", "--seed", "5", "--jobs",
                "1", "--format", "csv",
            ]),
            FIG1,
        )
        .unwrap();
        let eight = run_with_input(
            &args(&[
                "sweep", "--source", "s", "--kmax", "3", "--trials", "4", "--seed", "5", "--jobs",
                "8", "--format", "csv",
            ]),
            FIG1,
        )
        .unwrap();
        assert_eq!(one, eight);
    }

    #[test]
    fn report_list_enumerates_stored_runs() {
        let out_dir = temp_dir("list");
        let out_str = out_dir.to_str().unwrap();
        // Two distinct sweeps → two runs under the same store.
        for seed in ["1", "2"] {
            run_with_input(
                &args(&[
                    "sweep", "--source", "s", "--kmax", "1", "--trials", "1", "--seed", seed,
                    "--out", out_str,
                ]),
                FIG1,
            )
            .unwrap();
        }
        let listing = run_with_input(&args(&["report", "--list", out_str]), "").unwrap();
        assert!(listing.starts_with("2 run(s) under "), "{listing}");
        assert!(listing.contains("edge-list"), "{listing}");
        // Header + separator-free Table: 1 header row + 2 run rows.
        let run_rows = listing.lines().filter(|l| l.contains("edge-list")).count();
        assert_eq!(run_rows, 2, "{listing}");

        // --list and --run together are refused.
        let e = run_with_input(&args(&["report", "--list", out_str, "--run", out_str]), "")
            .unwrap_err();
        assert!(e.contains("mutually exclusive"), "{e}");

        // --format does not apply to --list (table only) — refuse it
        // rather than silently hand a script the wrong output shape.
        let e = run_with_input(&args(&["report", "--list", out_str, "--format", "csv"]), "")
            .unwrap_err();
        assert!(e.contains("--format applies to --run"), "{e}");

        // A missing directory is an error, not an empty table.
        let e =
            run_with_input(&args(&["report", "--list", "/nonexistent/fp-store"]), "").unwrap_err();
        assert!(e.contains("not a directory"), "{e}");
        let _ = std::fs::remove_dir_all(&out_dir);
    }

    #[test]
    fn gc_evicts_lru_and_cache_hits_count_as_uses() {
        let out_dir = temp_dir("gc");
        let out_str = out_dir.to_str().unwrap();
        // Three distinct runs (different seeds).
        let sweep = |seed: &str| {
            args(&[
                "sweep", "--source", "s", "--kmax", "1", "--trials", "1", "--seed", seed, "--out",
                out_str,
            ])
        };
        for seed in ["1", "2", "3"] {
            run_with_input(&sweep(seed), FIG1).unwrap();
        }
        // Spread last-use times: seed 1 oldest, then 2, then 3.
        let store = RunStore::open(out_str).unwrap();
        let mut runs = store.list().unwrap();
        runs.sort_by_key(|r| r.manifest.config.seed);
        for (i, run) in runs.iter().enumerate() {
            let manifest = store.run_dir(&run.id).join("manifest.json");
            std::fs::OpenOptions::new()
                .append(true)
                .open(&manifest)
                .unwrap()
                .set_modified(
                    std::time::SystemTime::now()
                        - std::time::Duration::from_secs(3000 - 1000 * i as u64),
                )
                .unwrap();
        }
        // Re-running the oldest sweep is a cache hit — a *use* that
        // must move it out of the eviction line.
        let again = run_with_input(&sweep("1"), FIG1).unwrap();
        assert!(again.contains("cache hit"), "{again}");

        let report = run_with_input(&args(&["gc", "--out", out_str, "--keep", "2"]), "").unwrap();
        assert!(report.starts_with("evicted 1 of 3 run(s)"), "{report}");
        let left = store.list().unwrap();
        let seeds: Vec<u64> = left.iter().map(|r| r.manifest.config.seed).collect();
        assert!(seeds.contains(&1), "cache-hit run survives: {seeds:?}");
        assert!(
            !seeds.contains(&2),
            "untouched LRU run is evicted: {seeds:?}"
        );

        // --max-age path: both survivors were used within the hour, so
        // nothing is older than the cutoff; --keep 0 then empties it.
        let report =
            run_with_input(&args(&["gc", "--out", out_str, "--max-age", "3600"]), "").unwrap();
        assert!(report.starts_with("evicted 0 of 2"), "{report}");
        let report = run_with_input(&args(&["gc", "--out", out_str, "--keep", "0"]), "").unwrap();
        assert!(report.starts_with("evicted 2 of 2"), "{report}");
        assert!(store.list().unwrap().is_empty());
        let _ = std::fs::remove_dir_all(&out_dir);
    }

    /// Persist a synthetic run with the given G_ALL curve; returns its
    /// run directory.
    fn save_synthetic_run(store: &RunStore, seed: u64, curve: &[(usize, f64)]) -> String {
        save_synthetic_run_on(store, seed, curve, "00deadbeef00cafe", 1)
    }

    /// [`save_synthetic_run`] with an explicit dataset hash and trial
    /// count (for the comparability checks).
    fn save_synthetic_run_on(
        store: &RunStore,
        seed: u64,
        curve: &[(usize, f64)],
        edge_hash: &str,
        trials: usize,
    ) -> String {
        use fp_results::{SolverSeries, SweepResult};
        let config = SweepConfig {
            ks: curve.iter().map(|&(k, _)| k).collect(),
            trials,
            seed,
            solvers: vec![SolverKind::GreedyAll],
        };
        let dataset = DatasetFingerprint {
            name: "diff-test".into(),
            nodes: 7,
            edges: 9,
            source: "s".into(),
            edge_hash: edge_hash.into(),
        };
        let result = SweepResult {
            series: vec![SolverSeries {
                label: "G_ALL".into(),
                points: curve.to_vec(),
            }],
        };
        let manifest = RunManifest::new(config, dataset);
        store
            .save(&manifest, &result)
            .unwrap()
            .to_str()
            .unwrap()
            .to_string()
    }

    #[test]
    fn diff_flags_deltas_and_exits_nonzero_on_regression() {
        let out_dir = temp_dir("diff");
        let store = RunStore::open(out_dir.to_str().unwrap()).unwrap();
        let base = save_synthetic_run(&store, 1, &[(0, 0.0), (1, 0.5), (2, 0.9)]);
        // k=1 regresses by 0.1, k=2 improves by 0.05.
        let changed = save_synthetic_run(&store, 2, &[(0, 0.0), (1, 0.4), (2, 0.95)]);

        // A run against itself: no deltas, exit zero.
        let same = run_with_input(&args(&["diff", "--a", &base, "--b", &base]), "").unwrap();
        assert!(same.contains("0 delta(s)"), "{same}");
        assert!(same.contains("0 regression(s)"), "{same}");

        // Regression present: the command errors (non-zero exit) and
        // the report names the regressing budget.
        let report =
            run_with_input(&args(&["diff", "--a", &base, "--b", &changed]), "").unwrap_err();
        assert!(report.contains("2 delta(s)"), "{report}");
        assert!(report.contains("1 regression(s)"), "{report}");
        assert!(report.contains("G_ALL"), "{report}");
        assert!(report.contains("-0.100000"), "{report}");

        // The reverse direction only *improves* at k=1 ... but the k=2
        // drop is now the regression, so it still fails.
        let reverse =
            run_with_input(&args(&["diff", "--a", &changed, "--b", &base]), "").unwrap_err();
        assert!(reverse.contains("1 regression(s)"), "{reverse}");

        // Pure improvement exits zero but still lists the delta.
        let improved = save_synthetic_run(&store, 3, &[(0, 0.0), (1, 0.6), (2, 0.9)]);
        let up = run_with_input(&args(&["diff", "--a", &base, "--b", &improved]), "").unwrap();
        assert!(up.contains("1 delta(s)"), "{up}");
        assert!(up.contains("0 regression(s)"), "{up}");
        assert!(up.contains("+0.100000"), "{up}");

        // A generous epsilon swallows every delta: exit zero again.
        let lax = run_with_input(
            &args(&["diff", "--a", &base, "--b", &changed, "--epsilon", "1.0"]),
            "",
        )
        .unwrap();
        assert!(lax.contains("0 delta(s)"), "{lax}");
        let _ = std::fs::remove_dir_all(&out_dir);
    }

    #[test]
    fn diff_rejects_incomparable_runs_and_bad_flags() {
        let out_dir = temp_dir("diff-bad");
        let out_str = out_dir.to_str().unwrap();
        run_with_input(
            &args(&[
                "sweep", "--source", "s", "--kmax", "1", "--trials", "1", "--out", out_str,
            ]),
            FIG1,
        )
        .unwrap();
        // Same store, different kmax: different budget axes.
        run_with_input(
            &args(&[
                "sweep", "--source", "s", "--kmax", "2", "--trials", "1", "--out", out_str,
            ]),
            FIG1,
        )
        .unwrap();
        let store = RunStore::open(out_str).unwrap();
        let mut runs = store.list().unwrap();
        runs.sort_by_key(|r| r.manifest.config.ks.len());
        let a = store.run_dir(&runs[0].id).to_str().unwrap().to_string();
        let b = store.run_dir(&runs[1].id).to_str().unwrap().to_string();
        let e = run_with_input(&args(&["diff", "--a", &a, "--b", &b]), "").unwrap_err();
        assert!(e.contains("not comparable"), "{e}");

        let e = run_with_input(&args(&["diff", "--a", &a]), "").unwrap_err();
        assert!(e.contains("--b"), "{e}");
        let e = run_with_input(
            &args(&["diff", "--a", &a, "--b", &b, "--epsilon", "soup"]),
            "",
        )
        .unwrap_err();
        assert!(e.contains("--epsilon"), "{e}");
        let e = run_with_input(
            &args(&["diff", "--a", &a, "--b", &b, "--epsilon", "-1"]),
            "",
        )
        .unwrap_err();
        assert!(e.contains("non-negative"), "{e}");
        let e =
            run_with_input(&args(&["diff", "--a", "/nonexistent/x", "--b", &b]), "").unwrap_err();
        assert!(e.contains("--a"), "{e}");

        // Same shape but a different dataset fingerprint: FR pairs
        // would be meaningless, so the tool must refuse.
        let curve = [(0usize, 0.0f64), (1, 0.5)];
        let ds_a = save_synthetic_run_on(&store, 50, &curve, "00deadbeef00cafe", 1);
        let ds_b = save_synthetic_run_on(&store, 51, &curve, "ffffffffffffffff", 1);
        let e = run_with_input(&args(&["diff", "--a", &ds_a, "--b", &ds_b]), "").unwrap_err();
        assert!(e.contains("not comparable"), "{e}");
        assert!(e.contains("hash"), "{e}");

        // Same dataset, different trial counts: different estimators.
        let tr_b = save_synthetic_run_on(&store, 52, &curve, "00deadbeef00cafe", 25);
        let e = run_with_input(&args(&["diff", "--a", &ds_a, "--b", &tr_b]), "").unwrap_err();
        assert!(e.contains("trial"), "{e}");
        let _ = std::fs::remove_dir_all(&out_dir);
    }

    #[test]
    fn gc_rejects_bad_flag_combinations() {
        let e = run_with_input(&args(&["gc", "--out", "/tmp"]), "").unwrap_err();
        assert!(e.contains("--keep N or --max-age SECS"), "{e}");
        let e = run_with_input(
            &args(&["gc", "--out", "/tmp", "--keep", "1", "--max-age", "2"]),
            "",
        )
        .unwrap_err();
        assert!(e.contains("mutually exclusive"), "{e}");
        let e = run_with_input(&args(&["gc", "--keep", "1"]), "").unwrap_err();
        assert!(e.contains("--out"), "{e}");
        let e = run_with_input(&args(&["gc", "--out", "/tmp", "--keep", "soup"]), "").unwrap_err();
        assert!(e.contains("--keep"), "{e}");
        let e = run_with_input(
            &args(&["gc", "--out", "/nonexistent/fp-store", "--keep", "1"]),
            "",
        )
        .unwrap_err();
        assert!(e.contains("not a directory"), "{e}");
    }

    #[test]
    fn sweep_rejects_bad_numeric_flags() {
        for (flag, value) in [
            ("--kmax", "three"),
            ("--trials", "-1"),
            ("--seed", "0x10"),
            ("--jobs", "many"),
        ] {
            let mut a = vec!["sweep", "--source", "s", "--kmax", "2"];
            if flag == "--kmax" {
                a = vec!["sweep", "--source", "s"];
            }
            a.push(flag);
            a.push(value);
            let e = run_with_input(&args(&a), FIG1).unwrap_err();
            assert!(e.contains(flag.trim_start_matches('-')), "{flag}: {e}");
        }
    }

    #[test]
    fn counts_are_capped_before_anything_starts() {
        // Each cap is accepted and cap + 1 refused at the parser, so no
        // case here starts a thread or allocates for the count.
        for (name, cap) in [
            ("jobs", MAX_PARALLEL),
            ("clients", MAX_PARALLEL),
            ("events", MAX_EVENTS),
        ] {
            assert_eq!(parse_count(name, &cap.to_string(), cap), Ok(cap));
            let e = parse_count(name, &(cap + 1).to_string(), cap).unwrap_err();
            assert!(e.contains(&format!("--{name} {}", cap + 1)), "{e}");
        }
        // Sweep cells are 3 randomized solvers × (kmax + 1) × trials plus
        // 4 curves, so the count steps by 3: the cap itself, then the
        // first count past it.
        let kmax_at_cap = (MAX_SWEEP_CELLS - 4) / 3 - 1;
        assert_eq!(sweep_cell_count(kmax_at_cap, 1), Ok(MAX_SWEEP_CELLS));
        assert_eq!(sweep_cell_count(0, kmax_at_cap + 1), Ok(MAX_SWEEP_CELLS));
        assert!(sweep_cell_count(kmax_at_cap + 1, 1).is_err());
        assert_eq!(sweep_cell_count(50, 25), Ok(3829), "the paper's sweep");
        assert_eq!(sweep_cell_count(3, 0), sweep_cell_count(3, 1));
        for (kmax, trials) in [
            (usize::MAX, 1),
            (1, usize::MAX),
            (10_000_000_000, 1),
            (3, 100_000_000_000),
        ] {
            let e = sweep_cell_count(kmax, trials).unwrap_err();
            assert!(e.contains("--kmax") && e.contains("--trials"), "{e}");
        }
        // Each command refuses cap + 1 before it reads the graph.
        for (argv, flag) in [
            (
                vec!["sweep", "--source", "s", "--kmax", "2", "--jobs", "257"],
                "--jobs",
            ),
            (
                vec!["sweep", "--source", "s", "--kmax", "10000000000"],
                "--kmax",
            ),
            (
                vec![
                    "sweep",
                    "--source",
                    "s",
                    "--kmax",
                    "3",
                    "--trials",
                    "100000000000",
                ],
                "--trials",
            ),
            (vec!["loadtest", "--clients", "257"], "--clients"),
            (
                vec!["online", "--source", "s", "--events", "4194305"],
                "--events",
            ),
        ] {
            let e = run_with_input(&args(&argv), FIG1).unwrap_err();
            assert!(e.contains(flag), "{argv:?}: {e}");
        }
    }

    #[test]
    fn loadtest_counts_are_capped_before_the_daemon_starts() {
        for (name, cap) in [("kmax", MAX_LOADTEST_KMAX), ("mutations", MAX_MUTATIONS)] {
            assert_eq!(parse_count(name, &cap.to_string(), cap), Ok(cap));
            let e = parse_count(name, &(cap + 1).to_string(), cap).unwrap_err();
            assert!(e.contains(&format!("--{name} {}", cap + 1)), "{e}");
        }
        let cap = MAX_REQUESTS;
        assert_eq!(loadtest_request_count(1, cap), Ok(cap));
        assert_eq!(
            loadtest_request_count(MAX_PARALLEL, cap / MAX_PARALLEL),
            Ok(cap)
        );
        for (clients, requests) in [
            (1, cap + 1),
            (MAX_PARALLEL, cap / MAX_PARALLEL + 1),
            (2, usize::MAX),
            (usize::MAX, usize::MAX),
        ] {
            let e = loadtest_request_count(clients, requests).unwrap_err();
            assert!(e.contains("--clients") && e.contains("--requests"), "{e}");
        }
        // cap + 1 on each flag is refused before the registry is built
        // or a client thread starts.
        for (argv, flag) in [
            (
                vec!["--clients", "1", "--requests", "1048577"],
                "--requests",
            ),
            (
                vec!["--clients", "1", "--requests", "100000000000"],
                "--requests",
            ),
            (vec!["--kmax", "4096"], "--kmax"),
            (vec!["--kmax", "10000000000"], "--kmax"),
            (vec!["--mutations", "65537"], "--mutations"),
            (vec!["--mutations", "100000000000"], "--mutations"),
        ] {
            let argv: Vec<&str> = ["loadtest"].into_iter().chain(argv).collect();
            let e = run(&args(&argv)).unwrap_err();
            assert!(e.contains(flag), "{argv:?}: {e}");
        }
    }

    #[test]
    fn malformed_edge_lists_are_rejected_with_line_numbers() {
        for bad in ["only-one-token\n", "a b extra\n", "a a\n"] {
            let e =
                run_with_input(&args(&["sweep", "--source", "a", "--kmax", "1"]), bad).unwrap_err();
            assert!(e.contains("line 1"), "{bad:?}: {e}");
        }
        let e = run_with_input(
            &args(&["solve", "--source", "a", "--solver", "G_ALL", "--k", "1"]),
            "a b\nbroken\n",
        )
        .unwrap_err();
        assert!(e.contains("line 2"), "{e}");
    }

    #[test]
    fn report_error_paths() {
        // Missing the --run flag entirely.
        let e = run_with_input(&args(&["report"]), "").unwrap_err();
        assert!(e.contains("--run"), "{e}");

        // Pointing at a directory that holds no run.
        let empty = temp_dir("no-run");
        std::fs::create_dir_all(&empty).unwrap();
        let e =
            run_with_input(&args(&["report", "--run", empty.to_str().unwrap()]), "").unwrap_err();
        assert!(e.contains("manifest.json"), "{e}");
        let _ = std::fs::remove_dir_all(&empty);

        // A stored run, but a bogus format.
        let out_dir = temp_dir("bad-format");
        run_with_input(
            &args(&[
                "sweep",
                "--source",
                "s",
                "--kmax",
                "1",
                "--trials",
                "1",
                "--out",
                out_dir.to_str().unwrap(),
            ]),
            FIG1,
        )
        .unwrap();
        let run_dir = std::fs::read_dir(&out_dir)
            .unwrap()
            .next()
            .unwrap()
            .unwrap();
        let e = run_with_input(
            &args(&[
                "report",
                "--run",
                run_dir.path().to_str().unwrap(),
                "--format",
                "xml",
            ]),
            "",
        )
        .unwrap_err();
        assert!(e.contains("unknown --format"), "{e}");
        let _ = std::fs::remove_dir_all(&out_dir);
    }

    #[test]
    fn run_requires_and_reads_the_input_file() {
        // Missing --input for a file-reading command.
        let e = run(&args(&["sweep", "--source", "s", "--kmax", "1"])).unwrap_err();
        assert!(e.contains("--input"), "{e}");
        // Unreadable --input path.
        let e = run(&args(&[
            "stats",
            "--input",
            "/nonexistent/fp-test-edges.txt",
        ]))
        .unwrap_err();
        assert!(e.contains("cannot read"), "{e}");
        // `report` does not require --input (it reads the run dir).
        let e = run(&args(&["report"])).unwrap_err();
        assert!(e.contains("--run"), "{e}");
    }

    #[test]
    fn solve_rejects_bad_k_and_seed() {
        let e = run_with_input(
            &args(&["solve", "--source", "s", "--solver", "G_ALL", "--k", "-2"]),
            FIG1,
        )
        .unwrap_err();
        assert!(e.contains("--k"), "{e}");
        let e = run_with_input(
            &args(&[
                "solve", "--source", "s", "--solver", "G_ALL", "--k", "1", "--seed", "soup",
            ]),
            FIG1,
        )
        .unwrap_err();
        assert!(e.contains("--seed"), "{e}");
        let e = run_with_input(
            &args(&[
                "solve", "--source", "s", "--solver", "G_ALL", "--k", "1", "--format", "yaml",
            ]),
            FIG1,
        )
        .unwrap_err();
        assert!(e.contains("unknown --format"), "{e}");
    }

    #[test]
    fn trace_summary_rejects_missing_and_malformed_dumps() {
        let e = run_with_input(&args(&["trace"]), "").unwrap_err();
        assert!(e.contains("--summary"), "{e}");
        let e =
            run_with_input(&args(&["trace", "--summary", "/nonexistent/t.json"]), "").unwrap_err();
        assert!(e.contains("cannot read"), "{e}");

        let dir = temp_dir("trace-bad");
        std::fs::create_dir_all(&dir).unwrap();
        let not_a_trace = dir.join("not-a-trace.json");
        std::fs::write(&not_a_trace, "{\"foo\": 1}").unwrap();
        let e = run_with_input(
            &args(&["trace", "--summary", not_a_trace.to_str().unwrap()]),
            "",
        )
        .unwrap_err();
        assert!(e.contains("traceEvents"), "{e}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn loadtest_rejects_bad_transport_and_check_combinations() {
        let e =
            run_with_input(&args(&["loadtest", "--transport", "carrier-pigeon"]), "").unwrap_err();
        assert!(e.contains("unknown transport"), "{e}");
        // `fp loadtest` prints its numbers and gates nothing: these are
        // unknown flags, refused before the registry is built or a
        // client thread starts.
        for (flag, value) in [
            ("--baseline", "b.json"),
            ("--check", "b.json"),
            ("--tolerance", "0.5"),
        ] {
            let e = run(&args(&["loadtest", flag, value])).unwrap_err();
            assert!(
                e.contains(&format!("unknown flag {flag} for loadtest")),
                "{e}"
            );
        }
    }

    #[test]
    fn generate_rejects_unknown_datasets_and_bad_scale() {
        let e = run_with_input(&args(&["generate", "--dataset", "facebook"]), "").unwrap_err();
        assert!(e.contains("unknown dataset"), "{e}");
        let e = run_with_input(
            &args(&["generate", "--dataset", "quote", "--scale", "big"]),
            "",
        )
        .unwrap_err();
        assert!(e.contains("--scale"), "{e}");
        let e = run_with_input(&args(&["generate"]), "").unwrap_err();
        assert!(e.contains("--dataset"), "{e}");
    }
}
