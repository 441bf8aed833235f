//! What every workload shares: arguments, seeds, the measured-phase
//! window (wall, CPU, counter deltas, spans), the reference kernel that
//! puts every window's times at one machine speed, the span digest with
//! self times, `/proc/self` readouts, and the result line.

use fp_obs::SpanRecord;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Seed used when `--seed` is absent (the paper's year).
pub const DEFAULT_SEED: u64 = 2012;

impl Args {
    pub const USAGE: &'static str = "usage: perfbench --workload \
        (sweep-1m|paper-sweep|serve-churn|online-churn) [--seed N] [--seconds S] [--trace 0|1]";

    pub fn parse(mut it: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut args = Args {
            workload: String::new(),
            seed: DEFAULT_SEED,
            seconds: 10.0,
            trace: false,
        };
        while let Some(flag) = it.next() {
            let value = it
                .next()
                .ok_or_else(|| format!("flag {flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => args.workload = value,
                "--seed" => {
                    args.seed = value
                        .parse()
                        .map_err(|_| format!("--seed {value:?} is not a u64"))?
                }
                "--seconds" => {
                    args.seconds = value
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s > 0.0)
                        .ok_or_else(|| format!("--seconds {value:?} is not a positive number"))?
                }
                "--trace" => {
                    args.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace {value:?} must be 0 or 1")),
                    }
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        if args.workload.is_empty() {
            return Err("missing --workload".into());
        }
        Ok(args)
    }
}

/// Independent sub-seeds derived from the one `--seed`: the graph, the
/// mutation stream and trials, and the serve client script.
pub mod seeds {
    pub const GRAPH: u64 = 1;
    pub const STREAM: u64 = 2;
    pub const SCRIPT: u64 = 3;
}

/// splitmix64 of `seed` mixed with a purpose tag.
pub fn derive(seed: u64, purpose: u64) -> u64 {
    let mut z = seed ^ purpose.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a over 64-bit words: equal answers hash equal.
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn eat(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// A per-process scratch directory under the working directory
/// (`.perfbench_tmp/<pid>`), removed on drop.
pub struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    pub fn create() -> Result<Self, String> {
        let dir = PathBuf::from(".perfbench_tmp").join(std::process::id().to_string());
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(Self { dir })
    }

    pub fn path(&self) -> &Path {
        &self.dir
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
        // Leave the parent only if another run still uses it.
        let _ = std::fs::remove_dir(".perfbench_tmp");
    }
}

// ---------------------------------------------------------------------
// Metric names
// ---------------------------------------------------------------------

/// End-to-end metrics, printed by untraced runs.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer ledger, printed by traced runs. Every workload prints
/// every name; a layer the workload bypasses reads 0.
pub const PER_LAYER: [(&str, &str); 55] = [
    ("ingest.build_s", "s"),
    ("ingest.parse_s", "s"),
    ("ingest.edges", "count"),
    ("ingest.ledger_peak_mb", "MB"),
    ("freeze.s", "s"),
    ("denominators.problem_s", "s"),
    ("denominators.session_s", "s"),
    ("engine.init_s", "s"),
    ("engine.scan_ms", "ms"),
    ("engine.insert_ms", "ms"),
    ("engine.picks", "count"),
    ("engine.forward_frontier_nodes", "nodes"),
    ("engine.backward_frontier_nodes", "nodes"),
    ("engine.dense_flip_ratio", "ratio"),
    ("engine.apply_ms", "ms"),
    ("engine.mutations", "count"),
    ("readout.fr_ms", "ms"),
    ("readout.draw_ms", "ms"),
    ("readout.calls", "count"),
    ("runner.cells", "count"),
    ("runner.busy_s", "s"),
    ("runner.idle_ratio", "ratio"),
    ("runner.curve_cell_s", "s"),
    ("runner.reduce_s", "s"),
    ("store.save_s", "s"),
    ("store.load_s", "s"),
    ("store.bytes", "bytes"),
    ("transport.upload_s", "s"),
    ("transport.frame_rtt_ms", "ms"),
    ("transport.http_rtt_ms", "ms"),
    ("transport.encode_ms", "ms"),
    ("transport.decode_ms", "ms"),
    ("transport.overhead_ms", "ms"),
    ("transport.bytes_in", "bytes"),
    ("transport.bytes_out", "bytes"),
    ("registry.put_s", "s"),
    ("serve.open_ms", "ms"),
    ("serve.cold_query_ms", "ms"),
    ("serve.warm_query_ms", "ms"),
    ("serve.mutate_ms", "ms"),
    ("serve.requery_ms", "ms"),
    ("serve.handle_ms", "ms"),
    ("serve.requests", "count"),
    ("online.events", "count"),
    ("online.repairs", "count"),
    ("online.repair_picks", "count"),
    ("online.repair_ms", "ms"),
    ("proc.cpu_s", "s"),
    ("proc.ctx_invol", "count"),
    ("proc.steal_s", "s"),
    ("proc.unledgered_mb", "MB"),
    ("proc.reference_ms", "ms"),
    ("trace.spans", "count"),
    ("trace.overwritten", "count"),
    ("trace.overhead_ratio", "ratio"),
];

// ---------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------

pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile (`pct` in (0, 100]).
pub fn percentile(values: &[f64], pct: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((pct / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

// ---------------------------------------------------------------------
// /proc/self
// ---------------------------------------------------------------------

/// Peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    status_field("/proc/self/status", "VmHWM:").unwrap_or(0) as f64 / 1024.0
}

/// User plus system CPU seconds of the whole process (all threads,
/// exited ones included), from `/proc/self/stat` at 100 ticks/s.
pub fn cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesized command name start at field 3.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (tick(11) + tick(12)) as f64 / 100.0
}

/// Seconds the host stole from all vCPUs (`/proc/stat`, 100 ticks/s).
pub fn steal_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return 0.0;
    };
    stat.lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|v| v.parse::<u64>().ok())
        .map_or(0.0, |t| t as f64 / 100.0)
}

/// Involuntary context switches summed over the live threads
/// (`/proc/self/task/*/status`; exited threads are not visible there).
pub fn ctx_invol() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|t| status_field(t.path().join("status"), "nonvoluntary_ctxt_switches:"))
        .sum()
}

fn status_field(path: impl AsRef<Path>, key: &str) -> Option<u64> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

// ---------------------------------------------------------------------
// Machine speed
// ---------------------------------------------------------------------

/// The reference kernel: this benchmark's own code (it calls nothing in
/// the program) streaming a buffer that sits where the workload's
/// working set sits, timing how fast the machine serves that cache
/// level right now. On a shared host the same phase runs at very
/// different speeds as neighbours contend for the caches: on a 2-vCPU
/// VM one `sweep-1m` phase took 2.2 s or 4.8 s, a stream over an 8 MiB
/// buffer slowed 2.3× with it, and a pure ALU loop by 15 %. The kernel
/// runs just before and just after every measured window, and the
/// window's times are scaled by [`NOMINAL_MS`] over its mean, so every
/// reported time is a time at one machine speed.
#[derive(Clone, Copy)]
pub enum Reference {
    /// 1 MiB, streamed 160 times: fits the 2 MiB per-core cache, as the
    /// engine state of the ~10^4-node citation graph does.
    CoreCache,
    /// 8 MiB, streamed 8 times: past the per-core cache, in the shared
    /// last-level one. For `sweep-1m`, whose ~100 MB working set lives
    /// there and in memory.
    SharedCache,
}

/// One repetition's time, either size, on an uncontended 2-vCPU VM.
const NOMINAL_MS: f64 = 3.0;

/// A kernel sample is its fastest of this many repetitions, so one
/// interrupt or a preempted millisecond does not move a window's scale.
const REPETITIONS: usize = 4;

impl Reference {
    /// Run the kernel: its fastest repetition's wall time in ms, and the
    /// wall and process CPU seconds spent on all of them. The buffer is
    /// filled before the clock starts: page-fault cost swings on its own
    /// and would blur the signal.
    fn sample(self) -> (f64, f64, f64) {
        let (words, passes) = match self {
            Reference::CoreCache => (1u64 << 17, 160),
            Reference::SharedCache => (1u64 << 20, 8),
        };
        let buf: Vec<u64> = std::hint::black_box((0..words).collect());
        let cpu0 = cpu_s();
        let start = Instant::now();
        let mut fastest = f64::INFINITY;
        for _ in 0..REPETITIONS {
            let t0 = Instant::now();
            let mut sum = 0u64;
            for _ in 0..passes {
                for &v in std::hint::black_box(&buf) {
                    sum = sum.wrapping_add(v);
                }
            }
            std::hint::black_box(sum);
            fastest = fastest.min(ms(t0));
        }
        (fastest, start.elapsed().as_secs_f64(), cpu_s() - cpu0)
    }
}

// ---------------------------------------------------------------------
// Program counters
// ---------------------------------------------------------------------

/// Counter values plus histogram `(sum, count)` pairs, by name.
#[derive(Clone, Default)]
pub struct Counters {
    values: BTreeMap<String, u64>,
}

impl Counters {
    pub fn take() -> Self {
        let snap = fp_obs::registry().snapshot();
        let mut values: BTreeMap<String, u64> = snap.counters.into_iter().collect();
        for h in snap.histograms {
            values.insert(format!("{}.sum", h.name), h.sum);
            values.insert(format!("{}.count", h.name), h.count);
        }
        Self { values }
    }

    /// `later − self` per name.
    pub fn delta(&self, later: &Counters) -> Counters {
        let values = later
            .values
            .iter()
            .map(|(k, &v)| (k.clone(), v - self.values.get(k).copied().unwrap_or(0)))
            .collect();
        Counters { values }
    }

    pub fn get(&self, name: &str) -> u64 {
        self.values.get(name).copied().unwrap_or(0)
    }

    /// The engine's exact work counts for the fingerprint.
    pub fn engine_counts(&self, into: &mut BTreeMap<&'static str, u64>) {
        into.insert("engine.picks", self.get("fp_engine_inserts_total"));
        into.insert("engine.mutations", self.get("fp_engine_mutations_total"));
        into.insert(
            "engine.dense_flips",
            self.get("fp_engine_dense_flips_total"),
        );
        into.insert(
            "engine.forward_frontier_sum",
            self.get("fp_engine_forward_frontier_nodes.sum"),
        );
        into.insert(
            "engine.backward_frontier_sum",
            self.get("fp_engine_backward_frontier_nodes.sum"),
        );
    }

    /// Frontier means and the dense-flip ratio into the ledger.
    pub fn engine_ledger(&self, ledger: &mut Ledger) {
        let fwd_n = self.get("fp_engine_forward_frontier_nodes.count");
        let bwd_n = self.get("fp_engine_backward_frontier_nodes.count");
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        ledger.set("engine.picks", self.get("fp_engine_inserts_total") as f64);
        ledger.set(
            "engine.mutations",
            self.get("fp_engine_mutations_total") as f64,
        );
        ledger.set(
            "engine.forward_frontier_nodes",
            ratio(self.get("fp_engine_forward_frontier_nodes.sum"), fwd_n),
        );
        ledger.set(
            "engine.backward_frontier_nodes",
            ratio(self.get("fp_engine_backward_frontier_nodes.sum"), bwd_n),
        );
        ledger.set(
            "engine.dense_flip_ratio",
            ratio(self.get("fp_engine_dense_flips_total"), fwd_n + bwd_n),
        );
    }
}

// ---------------------------------------------------------------------
// Tracing and the measured window
// ---------------------------------------------------------------------

/// Span records drained from the global ring after each traced window,
/// and the reference kernel that brackets every measured window.
#[derive(Default)]
pub struct Tracing {
    pub records: Vec<SpanRecord>,
    pub overwritten: u64,
    /// Set while [`Report::measure`] runs; other windows are not scaled.
    reference: Option<Reference>,
    /// Every kernel sample, ms.
    pub reference_ms: Vec<f64>,
    /// Wall and process CPU seconds spent while the kernels ran.
    pub reference_wall_s: f64,
    pub reference_cpu_s: f64,
}

impl Tracing {
    fn reference_sample(&mut self) -> Option<f64> {
        let (ms, wall_s, cpu_s) = self.reference?.sample();
        self.reference_ms.push(ms);
        self.reference_wall_s += wall_s;
        self.reference_cpu_s += cpu_s;
        Some(ms)
    }

    fn begin(&self, traced: bool) {
        if traced {
            fp_obs::tracer().enable();
        }
    }

    fn end(&mut self, traced: bool) -> Result<Vec<SpanRecord>, String> {
        if !traced {
            return Ok(Vec::new());
        }
        let tracer = fp_obs::tracer();
        tracer.disable();
        let lost = tracer.overwritten();
        let records = tracer.records();
        tracer.clear();
        self.overwritten += lost;
        if lost > 0 {
            return Err(format!(
                "the span ring overwrote {lost} spans; the traced window is too long"
            ));
        }
        self.records.extend(records.iter().cloned());
        Ok(records)
    }

    /// Time `f` on the wall clock as one traced (or untraced) window,
    /// with the reference kernel just before and just after it.
    pub fn window<T>(
        &mut self,
        traced: bool,
        f: impl FnOnce() -> T,
    ) -> Result<(T, Window), String> {
        let before = self.reference_sample();
        self.begin(traced);
        let counters = Counters::take();
        let (cpu0, ctx0, steal0) = (cpu_s(), ctx_invol(), steal_s());
        let t0 = Instant::now();
        let out = f();
        let wall_s = t0.elapsed().as_secs_f64();
        let (cpu1, ctx1, steal1) = (cpu_s(), ctx_invol(), steal_s());
        let counters = counters.delta(&Counters::take());
        let spans = self.end(traced)?;
        let speed = match (before, self.reference_sample()) {
            (Some(b), Some(a)) => NOMINAL_MS / ((b + a) / 2.0),
            _ => 1.0,
        };
        Ok((
            out,
            Window {
                elapsed_s: wall_s * speed,
                wall_s,
                speed,
                cpu_s: cpu1 - cpu0,
                steal_s: steal1 - steal0,
                ctx_invol: ctx1.saturating_sub(ctx0),
                counters,
                spans,
            },
        ))
    }

    /// Per-name durations and self times of everything drained so far.
    pub fn digest(&self) -> Digest {
        Digest::of(&self.records)
    }
}

/// What one measured window saw.
pub struct Window {
    /// Wall time at the reference kernel's nominal speed: `wall_s × speed`.
    pub elapsed_s: f64,
    pub wall_s: f64,
    /// [`NOMINAL_MS`] over the mean of the kernel times around the
    /// window; 1 outside [`Report::measure`].
    pub speed: f64,
    pub cpu_s: f64,
    /// Seconds the host stole from the vCPUs during the window.
    pub steal_s: f64,
    pub ctx_invol: u64,
    pub counters: Counters,
    /// The window's spans (empty when untraced).
    pub spans: Vec<SpanRecord>,
}

/// Span durations and self times (duration minus the time covered by
/// spans nested inside it on the same thread), in nanoseconds, by name.
pub struct Digest {
    by_name: BTreeMap<&'static str, Vec<(u64, u64)>>,
}

impl Digest {
    pub fn of(records: &[SpanRecord]) -> Self {
        let mut by_tid: BTreeMap<u64, Vec<&SpanRecord>> = BTreeMap::new();
        for r in records {
            by_tid.entry(r.tid).or_default().push(r);
        }
        let mut by_name: BTreeMap<&'static str, Vec<(u64, u64)>> = BTreeMap::new();
        for (_, mut spans) in by_tid {
            // Parents start no later and last no shorter than children.
            spans.sort_by_key(|r| (r.start_ns, std::cmp::Reverse(r.dur_ns)));
            let mut child_ns = vec![0u64; spans.len()];
            let mut open: Vec<usize> = Vec::new();
            for (i, r) in spans.iter().enumerate() {
                while let Some(&top) = open.last() {
                    let top_end = spans[top].start_ns + spans[top].dur_ns;
                    if top_end <= r.start_ns {
                        open.pop();
                    } else {
                        break;
                    }
                }
                if let Some(&parent) = open.last() {
                    child_ns[parent] += r.dur_ns;
                }
                open.push(i);
            }
            for (i, r) in spans.iter().enumerate() {
                by_name
                    .entry(r.name)
                    .or_default()
                    .push((r.dur_ns, r.dur_ns.saturating_sub(child_ns[i])));
            }
        }
        Self { by_name }
    }

    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.by_name
            .get(name)
            .map(|v| v.iter().map(|&(d, _)| d as f64).collect())
            .unwrap_or_default()
    }

    /// Median duration of `name`, in seconds.
    pub fn median_s(&self, name: &str) -> f64 {
        median(&self.durations(name)) / 1e9
    }

    /// Median duration of `name`, in milliseconds.
    pub fn median_ms(&self, name: &str) -> f64 {
        median(&self.durations(name)) / 1e6
    }

    /// One `name count total_ms self_ms` line per span name.
    pub fn table(&self) -> String {
        let mut out =
            String::from("# span                          count     total_ms      self_ms\n");
        for (name, v) in &self.by_name {
            let total: u64 = v.iter().map(|&(d, _)| d).sum();
            let own: u64 = v.iter().map(|&(_, s)| s).sum();
            out.push_str(&format!(
                "# {name:<28} {:>7} {:>12.3} {:>12.3}\n",
                v.len(),
                total as f64 / 1e6,
                own as f64 / 1e6
            ));
        }
        out
    }
}

// ---------------------------------------------------------------------
// Phases and the report
// ---------------------------------------------------------------------

/// The per-layer values of one run; every name of [`PER_LAYER`] starts
/// at 0.
pub struct Ledger {
    values: BTreeMap<&'static str, f64>,
}

impl Default for Ledger {
    fn default() -> Self {
        Self {
            values: PER_LAYER.iter().map(|&(n, _)| (n, 0.0)).collect(),
        }
    }
}

impl Ledger {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            self.values.contains_key(name),
            "{name} is not a per-layer metric"
        );
        self.values
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }
}

/// What one measured phase produced.
pub struct Phase {
    pub window: Window,
    pub traced: bool,
    /// Set-ups the phase ran first, each timed apart from the phase.
    pub setup_s: Vec<f64>,
    pub ops_ms: Vec<f64>,
    pub failed: u64,
    /// Exact counts; every phase of a run must agree on them.
    pub counts: BTreeMap<&'static str, u64>,
    pub errors: Vec<String>,
}

/// Everything a workload run measured. Set-up, phase and op times are
/// at the reference kernel's nominal speed; `wall_run_s` keeps the
/// clock's.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub setup_s: Vec<f64>,
    pub run_s: Vec<f64>,
    pub wall_run_s: Vec<f64>,
    /// Each phase window's speed factor.
    pub speed: Vec<f64>,
    pub traced_run_s: Vec<f64>,
    pub op_ms: Vec<f64>,
    /// Each untraced phase's 99th-percentile op latency.
    pub phase_p99_ms: Vec<f64>,
    pub fingerprint: BTreeMap<&'static str, u64>,
    pub phases: usize,
    pub cpu_s: Vec<f64>,
    pub steal_s: Vec<f64>,
    pub ctx_invol: u64,
    pub ledger: Ledger,
    /// Bytes the program's own `MemBudget` ledger peaked at.
    pub ledger_peak_bytes: u64,
    /// `VmHWM` when the measured phases ended, before any check builds
    /// its reference data.
    pub peak_rss_mb: f64,
    pub tracing: Tracing,
    /// The last phase's counter deltas (every phase's agree).
    pub counters: Counters,
}

impl Report {
    /// Run `phase` until `seconds` have passed (at least two phases),
    /// every window bracketed by the `reference` kernel. Traced runs
    /// alternate untraced and traced phases, so the tracing overhead is
    /// measured within one process.
    pub fn measure(
        &mut self,
        args: &Args,
        reference: Reference,
        mut phase: impl FnMut(usize, bool, &mut Tracing) -> Result<Phase, String>,
    ) -> Result<(), String> {
        // The first kernel runs of a process read slow (cold caches,
        // fresh pages, a just-woken vCPU).
        reference.sample();
        reference.sample();
        self.tracing.reference = Some(reference);
        let start = Instant::now();
        let mut i = 0;
        while i < 2 || start.elapsed().as_secs_f64() < args.seconds {
            let traced = args.trace && i % 2 == 1;
            let p = phase(i, traced, &mut self.tracing)?;
            self.absorb(p);
            i += 1;
        }
        self.tracing.reference = None;
        self.peak_rss_mb = peak_rss_mb();
        // The kernel is single-threaded: if the process spent much more
        // CPU than wall time while it ran, a thread the program left
        // running slowed it, and the scaled times would read too fast.
        let cpu_s = self.tracing.reference_cpu_s;
        let wall_s = self.tracing.reference_wall_s;
        if cpu_s > 1.25 * wall_s + 0.05 {
            self.errors.push(format!(
                "the process spent {cpu_s:.3} CPU s during {wall_s:.3} s of reference kernels: \
                 another thread was running"
            ));
        }
        Ok(())
    }

    fn absorb(&mut self, p: Phase) {
        self.phases += 1;
        let speed = p.window.speed;
        self.speed.push(speed);
        self.setup_s.extend(p.setup_s);
        self.attempted += p.ops_ms.len() as u64;
        self.failed += p.failed;
        self.errors.extend(p.errors);
        if self.phases == 1 {
            self.fingerprint = p.counts;
        } else if p.counts != self.fingerprint {
            self.errors.push(format!(
                "phase {} disagrees with phase 1 on exact counts: {:?} vs {:?}",
                self.phases, p.counts, self.fingerprint
            ));
        }
        self.cpu_s.push(p.window.cpu_s);
        self.steal_s.push(p.window.steal_s);
        self.counters = p.window.counters.clone();
        self.ctx_invol += p.window.ctx_invol;
        if p.traced {
            self.traced_run_s.push(p.window.elapsed_s);
        } else {
            self.wall_run_s.push(p.window.wall_s);
            self.run_s.push(p.window.elapsed_s);
            let ops_ms: Vec<f64> = p.ops_ms.iter().map(|x| x * speed).collect();
            self.phase_p99_ms.push(percentile(&ops_ms, 99.0));
            self.op_ms.extend(ops_ms);
        }
    }

    /// Fill the `proc.*` and `trace.*` rows of the ledger.
    fn finish_ledger(&mut self) {
        let peak = self.peak_rss_mb;
        let ledger_mb = self.ledger_peak_bytes as f64 / (1024.0 * 1024.0);
        let l = &mut self.ledger;
        self.counters.engine_ledger(l);
        l.set("ingest.ledger_peak_mb", ledger_mb);
        l.set("proc.cpu_s", median(&self.cpu_s));
        l.set(
            "proc.ctx_invol",
            self.ctx_invol as f64 / self.phases.max(1) as f64,
        );
        l.set("proc.steal_s", median(&self.steal_s));
        l.set("proc.unledgered_mb", peak - ledger_mb);
        l.set("proc.reference_ms", median(&self.tracing.reference_ms));
        l.set("trace.spans", self.tracing.records.len() as f64);
        l.set("trace.overwritten", self.tracing.overwritten as f64);
        l.set(
            "trace.overhead_ratio",
            median(&self.traced_run_s) / median(&self.run_s) - 1.0,
        );
    }

    /// Human-readable context lines, then the one-line JSON result.
    pub fn render(mut self, args: &Args) -> String {
        let mut out = format!(
            "# workload {} seed {}: {} phases ({} traced), {} ops attempted, {} failed\n",
            args.workload,
            args.seed,
            self.phases,
            self.traced_run_s.len(),
            self.attempted,
            self.failed
        );
        let counts: Vec<String> = self
            .fingerprint
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        out.push_str(&format!("# fingerprint {{{}}}\n", counts.join(", ")));
        let list = |v: &[f64]| {
            v.iter()
                .map(|x| format!("{x:.4}"))
                .collect::<Vec<_>>()
                .join(" ")
        };
        out.push_str(&format!(
            "# wall run_s per phase: {}\n",
            list(&self.wall_run_s)
        ));
        out.push_str(&format!("# phase cpu s: {}\n", list(&self.cpu_s)));
        out.push_str(&format!("# phase steal s: {}\n", list(&self.steal_s)));
        out.push_str(&format!(
            "# reference ms: {} (process CPU {:.2} s)\n",
            list(&self.tracing.reference_ms),
            self.tracing.reference_cpu_s
        ));
        out.push_str(&format!("# speed per phase: {}\n", list(&self.speed)));
        out.push_str(&format!("# run_s per phase: {}\n", list(&self.run_s)));
        out.push_str(&format!(
            "# op_p99_ms per phase: {}\n",
            list(&self.phase_p99_ms)
        ));
        out.push_str(&format!("# set-up s: {}\n", list(&self.setup_s)));
        let pcts = [50.0, 90.0, 95.0, 98.0, 99.0, 99.5, 99.9];
        let tail: Vec<String> = pcts
            .iter()
            .map(|&p| format!("p{p}={:.4}", percentile(&self.op_ms, p)))
            .collect();
        out.push_str(&format!(
            "# op ms over {} samples: {}\n",
            self.op_ms.len(),
            tail.join(" ")
        ));
        let metrics: Vec<(&str, &str, f64)> = if args.trace {
            self.finish_ledger();
            out.push_str(&self.tracing.digest().table());
            PER_LAYER
                .iter()
                .map(|&(n, u)| (n, u, self.ledger.get(n)))
                .collect()
        } else {
            out.push_str(&format!(
                "# setup_s over {} set-ups; run_s and op_p99_ms over {} phases of {} ops; \
                 op_p50_ms over {} ops\n",
                self.setup_s.len(),
                self.run_s.len(),
                self.op_ms.len() / self.run_s.len().max(1),
                self.op_ms.len()
            ));
            // The p99 is taken per phase and its median reported: one
            // slow phase (a burst of host steal, a page-fault storm)
            // moves the pooled tail of a run, not the median phase.
            let values = [
                median(&self.setup_s),
                median(&self.run_s),
                percentile(&self.op_ms, 50.0),
                median(&self.phase_p99_ms),
                self.peak_rss_mb,
            ];
            END_TO_END
                .iter()
                .zip(values)
                .map(|(&(n, u), v)| (n, u, v))
                .collect()
        };
        let body: Vec<String> = metrics
            .iter()
            .map(|(n, u, v)| {
                format!(
                    "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                    json_num(*v)
                )
            })
            .collect();
        out.push_str(&format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.errors.is_empty(),
            self.attempted,
            self.failed,
            body.join(", ")
        ));
        out
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}
