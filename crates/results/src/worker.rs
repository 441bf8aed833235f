//! The process-pool sweep backend: `fp worker` children driven over
//! pipes (and, through [`crate::net::SweepListener`], remote workers
//! over TCP).
//!
//! [`run_sweep_workers`] schedules the same (solver, k, trial) cells
//! as the in-process runner ([`crate::runner`]), but each cell is
//! evaluated by a **worker process** speaking the
//! [`crate::protocol`] frame protocol. Scheduling is self-balancing
//! the same way the thread runner's stealing is: every worker holds up
//! to a small **credit window** of in-flight cells (two) and is topped
//! up from a shared queue the moment it answers, so fast workers
//! naturally take more cells and no worker idles while work remains —
//! and one slow machine never gates the queue, because the others keep
//! pulling around it.
//!
//! **Failure taxonomy.** Every way a worker can go wrong maps onto one
//! recovery path (DESIGN.md §13):
//!
//! * *Crash* — the process exits, writes a malformed frame, answers an
//!   unknown id, or answers with the wrong output shape. The
//!   connection is torn down and its in-flight cells re-queued.
//! * *Hang* — the process stays alive but goes silent. Workers send
//!   [`Frame::Heartbeat`] every [`crate::net::HEARTBEAT_INTERVAL`];
//!   silence past [`PoolOptions::heartbeat_timeout`] is a loss. Reads
//!   go through `net::FrameReceiver`, so the dispatcher
//!   thread itself can always time out and act.
//! * *Slow / wedged mid-cell* — heartbeats still flow but an answer
//!   never comes. The oldest in-flight cell carries a soft deadline
//!   ([`PoolOptions::cell_deadline`]); past it the worker is declared
//!   lost and its cells re-queued for the survivors.
//! * *Disconnect* (remote) — EOF or a socket error, handled exactly
//!   like a crash; the worker may reconnect and start fresh.
//!
//! Restarts after *progress* — the dead incarnation had completed at
//! least one cell — are free; only no-progress crash loops draw from
//! the pool-wide budget ([`PoolOptions::max_restarts`]). When the
//! budget is exhausted the failing dispatcher thread retires and the
//! surviving workers drain the queue, so cells are never lost. The
//! pool only errors out when cells remain and *no* worker is left to
//! run them.
//!
//! **Determinism.** Results land in per-cell slots keyed by cell
//! index and are reduced by [`reduce_cells`] in configuration order;
//! floats cross the pipe losslessly (shortest-round-trip JSON). The
//! sweep result is therefore bit-identical to the in-process runner's
//! for every worker count, restart/loss schedule, and transport — the
//! property the `distributed-determinism` and `chaos-determinism` CI
//! jobs pin with byte-level `diff -r`s of run directories.

use crate::model::{SweepConfig, SweepResult};
use crate::net::{expect_hello, RecvOutcome, WorkerConn};
use crate::protocol::{CellRequest, Frame, SweepInit};
use crate::sweep::{reduce_cells, sweep_cells, Cell, CellOut};
use fp_graph::{DiGraph, NodeId};
use std::collections::VecDeque;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Environment variable naming the worker executable, overriding
/// [`WorkerSpawner::current_exe`]'s default of the running binary
/// (test harnesses are not `fp`, so their tests point this at the real
/// binary instead).
pub const WORKER_EXE_ENV: &str = "FP_WORKER_EXE";

/// In-flight cells per worker connection. More than one keeps a worker
/// busy across the request/response gap, which matters once the pipe
/// is a network; results are bit-identical for any window.
const CREDIT_WINDOW: usize = 2;

/// Environment override for [`PoolOptions::heartbeat_timeout`] (ms).
pub const HEARTBEAT_TIMEOUT_ENV: &str = "FP_POOL_HEARTBEAT_TIMEOUT_MS";
/// Environment override for [`PoolOptions::cell_deadline`] (ms).
pub const CELL_DEADLINE_ENV: &str = "FP_POOL_CELL_DEADLINE_MS";

/// How to launch one worker process.
#[derive(Clone, Debug)]
pub struct WorkerSpawner {
    program: PathBuf,
    args: Vec<String>,
    envs: Vec<(String, String)>,
}

impl WorkerSpawner {
    /// Spawn `program` (no arguments yet).
    pub fn new(program: impl Into<PathBuf>) -> Self {
        Self {
            program: program.into(),
            args: Vec::new(),
            envs: Vec::new(),
        }
    }

    /// The conventional self-exec spawner: run this same executable
    /// with a single `worker` argument (both `fp` and `repro` serve
    /// the protocol under that argument). [`WORKER_EXE_ENV`] overrides
    /// the executable path.
    pub fn current_exe() -> Result<Self, String> {
        let program = match std::env::var_os(WORKER_EXE_ENV) {
            Some(path) => PathBuf::from(path),
            None => std::env::current_exe()
                .map_err(|e| format!("cannot resolve the current executable: {e}"))?,
        };
        Ok(Self::new(program).arg("worker"))
    }

    /// Append an argument.
    pub fn arg(mut self, arg: impl Into<String>) -> Self {
        self.args.push(arg.into());
        self
    }

    /// Set an environment variable on spawned workers.
    pub fn env(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.envs.push((key.into(), value.into()));
        self
    }

    fn command(&self) -> Command {
        let mut cmd = Command::new(&self.program);
        cmd.args(&self.args)
            .envs(self.envs.iter().map(|(k, v)| (k, v)))
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        cmd
    }
}

/// Pool sizing and resilience knobs.
#[derive(Clone, Copy, Debug)]
pub struct PoolOptions {
    /// Worker processes (0 = one per available core).
    pub workers: usize,
    /// Pool-wide budget of **unproductive** restarts: only a worker
    /// incarnation that died having completed zero cells draws from
    /// it. A worker that keeps crashing *between* completed cells is
    /// making progress — the pool restarts it for free (total work is
    /// still bounded by the cell count) — while a crash loop that
    /// never lands a cell exhausts the budget and fails the sweep
    /// loudly instead of spinning forever.
    pub max_restarts: usize,
    /// Declare a worker lost after this much total silence (no
    /// response *and* no heartbeat). Heartbeats flow every
    /// [`crate::net::HEARTBEAT_INTERVAL`], so this bounds hang
    /// detection, not cell duration.
    pub heartbeat_timeout: Duration,
    /// Soft deadline for the *oldest* in-flight cell: a worker that
    /// heartbeats happily but never answers is declared lost when its
    /// oldest cell ages past this, and the cells are re-queued.
    pub cell_deadline: Duration,
}

impl Default for PoolOptions {
    fn default() -> Self {
        Self {
            workers: 0,
            max_restarts: 8,
            heartbeat_timeout: Duration::from_secs(5),
            cell_deadline: Duration::from_secs(300),
        }
    }
}

impl PoolOptions {
    /// `workers` processes with the default resilience knobs.
    pub fn with_workers(workers: usize) -> Self {
        Self {
            workers,
            ..Self::default()
        }
    }

    /// Apply the `FP_POOL_*` environment overrides (heartbeat timeout,
    /// cell deadline) on top of `self`. Unparsable values are
    /// loud errors — a chaos harness that typos a deadline should not
    /// silently run with the default.
    pub fn from_env(mut self) -> Result<Self, String> {
        let read = |key: &str| -> Result<Option<u64>, String> {
            match std::env::var(key) {
                Ok(raw) => raw
                    .parse()
                    .map(Some)
                    .map_err(|_| format!("bad {key} {raw:?}: expected an integer")),
                Err(_) => Ok(None),
            }
        };
        if let Some(ms) = read(HEARTBEAT_TIMEOUT_ENV)? {
            self.heartbeat_timeout = Duration::from_millis(ms);
        }
        if let Some(ms) = read(CELL_DEADLINE_ENV)? {
            self.cell_deadline = Duration::from_millis(ms);
        }
        Ok(self)
    }

    fn effective_workers(&self) -> usize {
        if self.workers == 0 {
            crate::runner::available_cores()
        } else {
            self.workers
        }
    }
}

/// Shared sweep progress: the cell queue, the result slots, and the
/// flags every dispatcher (local thread or TCP connection handler)
/// coordinates through.
pub(crate) struct SweepState {
    cells: Vec<Cell>,
    queue: Mutex<VecDeque<usize>>,
    results: Mutex<Vec<Option<CellOut>>>,
    pending: AtomicUsize,
    failures: Mutex<Vec<String>>,
    abort: AtomicBool,
    /// Last join or cell completion; the remote listener's
    /// join-timeout clock.
    liveness: Mutex<Instant>,
}

impl SweepState {
    pub(crate) fn new(cells: Vec<Cell>) -> Self {
        let n = cells.len();
        Self {
            cells,
            queue: Mutex::new((0..n).collect()),
            results: Mutex::new(vec![None; n]),
            pending: AtomicUsize::new(n),
            failures: Mutex::new(Vec::new()),
            abort: AtomicBool::new(false),
            liveness: Mutex::new(Instant::now()),
        }
    }

    pub(crate) fn total(&self) -> usize {
        self.cells.len()
    }

    pub(crate) fn cell(&self, idx: usize) -> &Cell {
        &self.cells[idx]
    }

    pub(crate) fn pending(&self) -> usize {
        self.pending.load(Ordering::Acquire)
    }

    pub(crate) fn pop(&self) -> Option<usize> {
        let mut q = self.queue.lock().expect("queue lock");
        let popped = q.pop_front();
        fp_obs::gauge("fp_pool_queue_depth").set(q.len() as i64);
        popped
    }

    pub(crate) fn requeue(&self, idx: usize) {
        fp_obs::counter("fp_pool_requeues_total").inc();
        let mut q = self.queue.lock().expect("queue lock");
        q.push_front(idx);
        fp_obs::gauge("fp_pool_queue_depth").set(q.len() as i64);
    }

    pub(crate) fn complete(&self, idx: usize, out: CellOut) {
        self.results.lock().expect("results lock")[idx] = Some(out);
        self.pending.fetch_sub(1, Ordering::Release);
        self.touch();
    }

    pub(crate) fn fail(&self, msg: String) {
        self.failures.lock().expect("failures lock").push(msg);
    }

    pub(crate) fn abort(&self) {
        self.abort.store(true, Ordering::Release);
    }

    pub(crate) fn aborted(&self) -> bool {
        self.abort.load(Ordering::Acquire)
    }

    /// Bump the liveness clock (a worker joined or a cell landed).
    pub(crate) fn touch(&self) {
        *self.liveness.lock().expect("liveness lock") = Instant::now();
    }

    pub(crate) fn idle_for(&self) -> Duration {
        self.liveness.lock().expect("liveness lock").elapsed()
    }

    /// Reduce into the final result, or describe why the sweep could
    /// not complete.
    pub(crate) fn finish(self, cfg: &SweepConfig, restarts: usize) -> Result<SweepResult, String> {
        let outputs = self.results.into_inner().expect("results lock");
        if outputs.iter().any(Option::is_none) {
            let seen = self.failures.into_inner().expect("failures lock");
            return Err(format!(
                "worker pool failed before completing the sweep ({restarts} restart(s) spent): {}",
                if seen.is_empty() {
                    "no diagnostics".to_string()
                } else {
                    seen.join("; ")
                }
            ));
        }
        Ok(reduce_cells(
            cfg,
            outputs.into_iter().map(|o| o.expect("checked")).collect(),
        ))
    }
}

/// How one connection's dispatch ended.
pub(crate) enum DispatchEnd {
    /// The sweep drained; the connection is healthy (shut it down
    /// cleanly). Carries the cells this connection completed.
    Done(usize),
    /// The worker was declared lost; its in-flight cells are already
    /// re-queued. Carries the reason and the cells completed before
    /// the loss (for the restart-budget accounting).
    Lost(String, usize),
}

/// Feed one connected worker from the shared queue until the sweep
/// drains or the worker is lost — the transport-agnostic core both the
/// local pool and the TCP listener run per connection.
///
/// Keeps up to `CREDIT_WINDOW` cells in flight, counts
/// heartbeats, and enforces the two loss deadlines (heartbeat silence,
/// oldest-cell age). On loss every in-flight cell is re-queued before
/// returning, so no cell is ever stranded on a dead connection.
pub(crate) fn dispatch_conn(
    conn: &mut WorkerConn,
    state: &SweepState,
    opts: &PoolOptions,
) -> DispatchEnd {
    let mut inflight: VecDeque<(u64, usize, Instant)> = VecDeque::new();
    let mut completed = 0usize;
    let mut last_frame = Instant::now();
    let heartbeats = fp_obs::counter("fp_pool_heartbeats_total");

    macro_rules! lost {
        ($reason:expr) => {{
            fp_obs::counter("fp_pool_disconnects_total").inc();
            for (_, idx, _) in inflight.drain(..) {
                state.requeue(idx);
            }
            return DispatchEnd::Lost($reason, completed);
        }};
    }

    loop {
        if state.aborted() {
            for (_, idx, _) in inflight.drain(..) {
                state.requeue(idx);
            }
            return DispatchEnd::Done(completed);
        }
        // Top the credit window up from the shared queue.
        while inflight.len() < CREDIT_WINDOW {
            let Some(idx) = state.pop() else { break };
            let frame = Frame::Request(CellRequest {
                id: idx as u64,
                cell: *state.cell(idx),
            });
            if let Err(e) = conn.send(&frame) {
                state.requeue(idx);
                lost!(format!("send failed: {e}"));
            }
            inflight.push_back((idx as u64, idx, Instant::now()));
        }

        if inflight.is_empty() {
            if state.pending() == 0 {
                return DispatchEnd::Done(completed);
            }
            // Idle, but cells are pending elsewhere: a lost peer may
            // yet re-queue them. Poll briefly so this worker stays
            // responsive to both the queue and its own connection.
            match conn.recv(Duration::from_millis(10)) {
                RecvOutcome::Frame(Frame::Heartbeat) => {
                    heartbeats.inc();
                    last_frame = Instant::now();
                }
                RecvOutcome::Frame(other) => {
                    lost!(format!("unexpected frame while idle: {other:?}"))
                }
                RecvOutcome::TimedOut => {
                    if last_frame.elapsed() > opts.heartbeat_timeout {
                        lost!(format!(
                            "no heartbeat for {}ms while idle",
                            opts.heartbeat_timeout.as_millis()
                        ));
                    }
                }
                RecvOutcome::Eof => lost!("disconnected while idle".into()),
                RecvOutcome::Failed(e) => lost!(e),
            }
            continue;
        }

        // Two clocks: total silence (heartbeat timeout) and the age of
        // the oldest in-flight cell (soft deadline). Wait only as long
        // as the nearer one allows.
        let now = Instant::now();
        let Some(hb_left) = opts
            .heartbeat_timeout
            .checked_sub(now.duration_since(last_frame))
        else {
            lost!(format!(
                "no heartbeat for {}ms with {} cell(s) in flight",
                opts.heartbeat_timeout.as_millis(),
                inflight.len()
            ));
        };
        let (_, oldest_idx, oldest_sent) = *inflight.front().expect("non-empty");
        let Some(cell_left) = opts
            .cell_deadline
            .checked_sub(now.duration_since(oldest_sent))
        else {
            lost!(format!(
                "cell {oldest_idx} exceeded its {}ms soft deadline",
                opts.cell_deadline.as_millis()
            ));
        };

        match conn.recv(hb_left.min(cell_left)) {
            RecvOutcome::Frame(Frame::Response(resp)) => {
                last_frame = Instant::now();
                let Some(pos) = inflight.iter().position(|&(id, _, _)| id == resp.id) else {
                    lost!(format!("answered cell {} which was not in flight", resp.id));
                };
                let (_, idx, _) = inflight.remove(pos).expect("position");
                if !resp.output.matches(state.cell(idx)) {
                    state.requeue(idx);
                    lost!(format!("cell {idx}: output shape does not match the cell"));
                }
                state.complete(idx, resp.output);
                completed += 1;
            }
            RecvOutcome::Frame(Frame::Heartbeat) => {
                heartbeats.inc();
                last_frame = Instant::now();
            }
            RecvOutcome::Frame(other) => lost!(format!("expected a response, got {other:?}")),
            RecvOutcome::TimedOut => {} // next iteration names the tripped deadline
            RecvOutcome::Eof => lost!("worker exited mid-cell".into()),
            RecvOutcome::Failed(e) => lost!(e),
        }
    }
}

/// Run `cfg`'s sweep on a pool of worker processes.
///
/// Bit-identical to [`crate::sweep::run_sweep_cells`] on the same
/// problem for every worker count (see the module docs). Errors when
/// the sweep cannot be completed — workers kept crashing past the
/// restart budget, or the worker executable could not be launched at
/// all.
pub fn run_sweep_workers(
    spawner: &WorkerSpawner,
    g: &DiGraph,
    source: NodeId,
    cfg: &SweepConfig,
    opts: &PoolOptions,
) -> Result<SweepResult, String> {
    let state = SweepState::new(sweep_cells(cfg));
    if state.pending() == 0 {
        return state.finish(cfg, 0);
    }
    let init = SweepInit {
        nodes: g.node_count(),
        edges: g.edges().map(|(u, v)| (u.index(), v.index())).collect(),
        source: source.index(),
        ks: cfg.ks.clone(),
    };
    let workers = opts.effective_workers().clamp(1, state.total());
    let restarts = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| dispatch_loop(spawner, &init, &state, opts, &restarts));
        }
    });

    let spent = restarts.load(Ordering::Relaxed);
    state.finish(cfg, spent)
}

/// Take one unit of the pool-wide restart budget; `false` = exhausted.
fn take_restart(restarts: &AtomicUsize, max_restarts: usize) -> bool {
    let granted = restarts
        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |used| {
            (used < max_restarts).then_some(used + 1)
        })
        .is_ok();
    if granted {
        fp_obs::counter("fp_pool_restarts_total").inc();
    }
    granted
}

/// Spawn one child worker and walk it through hello + init.
fn start_worker(
    spawner: &WorkerSpawner,
    init: &SweepInit,
    opts: &PoolOptions,
) -> Result<WorkerConn, String> {
    let child = spawner
        .command()
        .spawn()
        .map_err(|e| format!("cannot spawn worker {:?}: {e}", spawner.program))?;
    let mut conn = WorkerConn::from_child(child);
    // A fresh process needs a beat to exec and say hello even when the
    // pool runs tight chaos-test deadlines, hence the floor.
    let hello_timeout = opts.heartbeat_timeout.max(Duration::from_secs(2));
    let outcome = expect_hello(&conn, None, hello_timeout)
        .and_then(|_| conn.send(&Frame::Init(init.clone())));
    match outcome {
        Ok(()) => Ok(conn),
        Err(e) => {
            conn.close();
            Err(e)
        }
    }
}

/// One dispatcher thread: own a worker process and keep it fed until
/// no cell is left pending, restarting it (budget permitting) when it
/// crashes, hangs, or goes silent.
fn dispatch_loop(
    spawner: &WorkerSpawner,
    init: &SweepInit,
    state: &SweepState,
    opts: &PoolOptions,
    restarts: &AtomicUsize,
) {
    while state.pending() > 0 && !state.aborted() {
        let mut conn = match start_worker(spawner, init, opts) {
            Ok(conn) => conn,
            Err(e) => {
                state.fail(e);
                if take_restart(restarts, opts.max_restarts) {
                    continue;
                }
                return; // retire; surviving workers drain the queue
            }
        };
        state.touch();
        match dispatch_conn(&mut conn, state, opts) {
            DispatchEnd::Done(_) => {
                conn.shutdown_clean();
                return;
            }
            DispatchEnd::Lost(reason, progressed) => {
                state.fail(format!("{}: {reason}", conn.peer));
                conn.close();
                if progressed == 0 && !take_restart(restarts, opts.max_restarts) {
                    return;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fp_algorithms::SolverKind;

    fn small_graph() -> (DiGraph, NodeId) {
        let g = DiGraph::from_pairs(4, [(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
        (g, NodeId::new(0))
    }

    fn small_cfg() -> SweepConfig {
        SweepConfig {
            ks: vec![0, 1, 2],
            trials: 2,
            seed: 3,
            solvers: vec![SolverKind::GreedyAll, SolverKind::RandK],
        }
    }

    /// Options that keep failure tests snappy without tripping on slow
    /// CI machines.
    fn test_opts(workers: usize, max_restarts: usize) -> PoolOptions {
        PoolOptions {
            workers,
            max_restarts,
            ..PoolOptions::default()
        }
    }

    #[test]
    fn empty_sweep_never_spawns_a_worker() {
        let (g, source) = small_graph();
        let cfg = SweepConfig {
            solvers: vec![],
            ..small_cfg()
        };
        // A spawner pointing nowhere: would error if ever launched.
        let spawner = WorkerSpawner::new("/nonexistent/worker-binary");
        let res = run_sweep_workers(&spawner, &g, source, &cfg, &PoolOptions::default()).unwrap();
        assert!(res.series.is_empty());
    }

    #[test]
    fn unlaunchable_worker_is_a_described_error() {
        let (g, source) = small_graph();
        let spawner = WorkerSpawner::new("/nonexistent/worker-binary");
        let err =
            run_sweep_workers(&spawner, &g, source, &small_cfg(), &test_opts(2, 1)).unwrap_err();
        assert!(err.contains("cannot spawn worker"), "{err}");
        assert!(err.contains("restart(s) spent"), "{err}");
    }

    #[cfg(unix)]
    #[test]
    fn worker_that_exits_before_hello_errors_out() {
        let (g, source) = small_graph();
        let spawner = WorkerSpawner::new("/bin/sh").arg("-c").arg("exit 0");
        let err =
            run_sweep_workers(&spawner, &g, source, &small_cfg(), &test_opts(1, 2)).unwrap_err();
        assert!(err.contains("before saying hello"), "{err}");
    }

    #[cfg(unix)]
    #[test]
    fn worker_speaking_garbage_errors_out() {
        let (g, source) = small_graph();
        // 16 bytes of non-protocol output: a garbage length prefix.
        // `exec` makes the sleep the process the pool kills, so no
        // orphan outlives the test holding the inherited stderr.
        let spawner = WorkerSpawner::new("/bin/sh")
            .arg("-c")
            .arg("printf 'XXXXXXXXXXXXXXXX'; exec sleep 5");
        let err =
            run_sweep_workers(&spawner, &g, source, &small_cfg(), &test_opts(1, 1)).unwrap_err();
        assert!(err.contains("exceeds") || err.contains("hello"), "{err}");
    }

    #[cfg(unix)]
    #[test]
    fn hung_worker_is_declared_lost_not_waited_on_forever() {
        // A worker that says a valid hello and then sleeps: the old
        // dispatcher blocked forever here; now the heartbeat timeout
        // declares it lost (it never heartbeats at all).
        let (g, source) = small_graph();
        let hello = {
            let mut wire = Vec::new();
            crate::protocol::write_frame(
                &mut wire,
                &Frame::Hello(crate::protocol::WorkerHello {
                    version: crate::protocol::PROTOCOL_VERSION,
                    pid: 1,
                    token: None,
                }),
            )
            .unwrap();
            wire
        };
        // Re-emit the exact hello bytes from sh, then hang (as the
        // process the pool kills, via `exec`).
        let script = format!(
            "printf '{}'; exec sleep 600",
            hello
                .iter()
                .map(|b| format!("\\{:03o}", b))
                .collect::<String>()
        );
        let spawner = WorkerSpawner::new("/bin/sh").arg("-c").arg(script);
        let opts = PoolOptions {
            heartbeat_timeout: Duration::from_millis(300),
            ..test_opts(1, 1)
        };
        let start = Instant::now();
        let err = run_sweep_workers(&spawner, &g, source, &small_cfg(), &opts).unwrap_err();
        assert!(err.contains("no heartbeat"), "{err}");
        assert!(
            start.elapsed() < Duration::from_secs(60),
            "hang was detected by deadline, not by sleeping it out"
        );
    }

    #[test]
    fn restart_budget_is_pool_wide_and_exhaustible() {
        let restarts = AtomicUsize::new(0);
        assert!(take_restart(&restarts, 2));
        assert!(take_restart(&restarts, 2));
        assert!(!take_restart(&restarts, 2));
        assert_eq!(restarts.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn pool_options_resolve_workers() {
        assert!(PoolOptions::default().effective_workers() >= 1);
        assert_eq!(PoolOptions::with_workers(3).effective_workers(), 3);
        assert_eq!(PoolOptions::with_workers(3).max_restarts, 8);
    }

    #[test]
    fn sweep_state_requeue_and_complete_balance_pending() {
        let cells = sweep_cells(&small_cfg());
        let n = cells.len();
        let state = SweepState::new(cells);
        assert_eq!(state.pending(), n);
        let idx = state.pop().unwrap();
        state.requeue(idx);
        assert_eq!(state.pop(), Some(idx), "requeue goes to the front");
        state.complete(idx, CellOut::Curve(vec![]));
        assert_eq!(state.pending(), n - 1);
    }
}
