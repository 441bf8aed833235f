//! The multi-process sweep fabric: a TCP dispatcher that remote
//! `fp worker --connect` processes join, with deadline reads, auth,
//! and deterministic fault injection.
//!
//! [`SweepListener::run`] schedules the same (solver, k, trial) cells
//! as the in-process runner ([`crate::runner`]), but each cell is
//! evaluated by a **worker process** speaking the [`crate::protocol`]
//! frame protocol. Scheduling is self-balancing the same way the
//! thread runner's stealing is: every worker holds up to a small
//! **credit window** of in-flight cells (two) and is topped up from a
//! shared queue the moment it answers, so fast workers naturally take
//! more cells and no worker idles while work remains — and one slow
//! machine never gates the queue, because the others keep pulling
//! around it.
//!
//! Each connection is a `WorkerConn`: a frame writer plus a
//! **background reader thread** feeding a channel, so every receive
//! takes a timeout (`FrameReceiver::recv`). A hung peer can therefore
//! never block a dispatcher thread — the receive times out, the socket
//! is shut down (which also unblocks the reader thread), and the
//! in-flight cells go back on the queue.
//!
//! **Failure taxonomy.** Every way a worker can go wrong maps onto one
//! recovery path (DESIGN.md §13):
//!
//! * *Crash or disconnect* — the process exits, the socket errors or
//!   reaches EOF, or the worker writes a malformed frame, answers an
//!   unknown id, or answers with the wrong output shape. The
//!   connection is torn down and its in-flight cells re-queued; the
//!   worker may reconnect and start fresh.
//! * *Hang* — the process stays alive but goes silent. Workers send
//!   [`Frame::Heartbeat`] every [`HEARTBEAT_INTERVAL`]; silence past
//!   [`NetOptions::heartbeat_timeout`] is a loss.
//! * *Slow / wedged mid-cell* — heartbeats still flow but an answer
//!   never comes. The oldest in-flight cell carries a soft deadline
//!   ([`NetOptions::cell_deadline`]); past it the worker is declared
//!   lost and its cells re-queued for the survivors.
//!
//! The sweep only errors out when cells remain and no worker has been
//! connected for [`NetOptions::join_timeout`].
//!
//! **Determinism.** Results land in per-cell slots keyed by cell index
//! and are reduced by [`reduce_cells`] in configuration order; floats
//! cross the wire losslessly (shortest-round-trip JSON). The sweep
//! result is therefore bit-identical to the in-process runner's for
//! every worker count and loss schedule — the property the
//! `distributed-determinism` and `chaos-determinism` CI jobs pin with
//! byte-level `diff -r`s of run directories.
//!
//! **Auth.** A worker's first frame must be a hello carrying the
//! dispatcher's shared token and the exact [`PROTOCOL_VERSION`];
//! `expect_hello` compares tokens in constant time
//! ([`constant_time_eq`]) and any failure — wrong token, wrong version,
//! a non-hello frame, garbage bytes, or a hello that never completes
//! within the handshake deadline (slow loris) — closes the connection
//! without a reply.
//!
//! **Chaos.** `FP_CHAOS=drop@N | delay@N:MS | truncate@N | hang@N`
//! arms a deterministic fault on the worker's N-th *data* frame
//! (hello + responses; heartbeats are excluded so timing never shifts
//! which frame is hit). The fault fires once per process — or once per
//! `FP_CHAOS_ONCE_FILE` when several processes share a spec — so a
//! reconnected worker recovers, which is exactly the recovery path the
//! chaos tests pin byte-identical run dirs on.

use crate::model::{SweepConfig, SweepResult};
use crate::protocol::{write_frame, CellRequest, Frame, SweepInit, PROTOCOL_VERSION};
use crate::sweep::{reduce_cells, sweep_cells, Cell, CellOut};
use fp_graph::{DiGraph, NodeId};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

/// How often a worker emits [`Frame::Heartbeat`] while serving.
pub const HEARTBEAT_INTERVAL: Duration = Duration::from_millis(250);

/// Environment variable arming the deterministic fault injector.
pub const CHAOS_ENV: &str = "FP_CHAOS";

/// Environment variable naming a lock file that scopes the chaos
/// fault to *one* firing across processes: the first process to claim
/// the file (atomic `create_new`) fires, every later incarnation runs
/// clean. Without it the fault fires once per process.
pub const CHAOS_ONCE_FILE_ENV: &str = "FP_CHAOS_ONCE_FILE";

/// How long a chaos `hang` sleeps: long enough that only deadline
/// machinery (or an external kill) ever ends it.
const CHAOS_HANG: Duration = Duration::from_secs(3600);

/// In-flight cells per worker connection. More than one keeps a worker
/// busy across the request/response round trip; results are
/// bit-identical for any window.
const CREDIT_WINDOW: usize = 2;

/// Environment override for [`NetOptions::heartbeat_timeout`] (ms).
pub const HEARTBEAT_TIMEOUT_ENV: &str = "FP_POOL_HEARTBEAT_TIMEOUT_MS";
/// Environment override for [`NetOptions::cell_deadline`] (ms).
pub const CELL_DEADLINE_ENV: &str = "FP_POOL_CELL_DEADLINE_MS";

// ---------------------------------------------------------------------
// Constant-time token comparison
// ---------------------------------------------------------------------

/// Compare two secrets without early exit: the loop runs over the
/// longer input and folds every byte difference (and the length
/// difference) into one accumulator, so timing reveals nothing about
/// *where* a guess diverged.
pub fn constant_time_eq(a: &str, b: &str) -> bool {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    let mut diff = a.len() ^ b.len();
    for i in 0..a.len().max(b.len()) {
        let x = a.get(i).copied().unwrap_or(0);
        let y = b.get(i).copied().unwrap_or(0);
        diff |= usize::from(x ^ y);
    }
    diff == 0
}

// ---------------------------------------------------------------------
// Deterministic fault injection
// ---------------------------------------------------------------------

/// What the injector does to the targeted frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChaosAction {
    /// Skip writing the frame entirely (heartbeats keep flowing — this
    /// exercises the per-cell deadline, not the heartbeat timeout).
    Drop,
    /// Sleep this many milliseconds, then write normally.
    Delay(u64),
    /// Write the length prefix plus half the body, flush, then error
    /// out of the serve loop (the peer sees a truncated frame + EOF).
    Truncate,
    /// Sleep ~forever while *holding the writer* — heartbeats stop
    /// too, which exercises the heartbeat-timeout path.
    Hang,
}

/// A parsed `FP_CHAOS` spec: fire `action` on the `frame`-th data
/// frame (1-based; hello is frame 1, the first response frame 2, …).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChaosSpec {
    /// 1-based index of the targeted data frame.
    pub frame: u64,
    /// The fault to inject there.
    pub action: ChaosAction,
}

impl ChaosSpec {
    /// Parse `drop@N`, `delay@N:MS`, `truncate@N`, or `hang@N`.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let (kind, at) = spec
            .split_once('@')
            .ok_or_else(|| format!("bad {CHAOS_ENV} spec {spec:?}: expected KIND@FRAME"))?;
        let frame_of = |s: &str| -> Result<u64, String> {
            s.parse()
                .ok()
                .filter(|&n| n >= 1)
                .ok_or_else(|| format!("bad {CHAOS_ENV} frame {s:?}: expected an integer >= 1"))
        };
        let action = match kind {
            "drop" => ChaosAction::Drop,
            "delay" => {
                let (frame, ms) = at
                    .split_once(':')
                    .ok_or_else(|| format!("bad {CHAOS_ENV} spec {spec:?}: delay@FRAME:MS"))?;
                let ms = ms
                    .parse()
                    .map_err(|_| format!("bad {CHAOS_ENV} delay {ms:?}: expected milliseconds"))?;
                return Ok(Self {
                    frame: frame_of(frame)?,
                    action: ChaosAction::Delay(ms),
                });
            }
            "truncate" => ChaosAction::Truncate,
            "hang" => ChaosAction::Hang,
            other => {
                return Err(format!(
                    "bad {CHAOS_ENV} kind {other:?} (drop, delay, truncate, hang)"
                ))
            }
        };
        Ok(Self {
            frame: frame_of(at)?,
            action,
        })
    }
}

/// The armed injector a worker routes its data-frame writes through.
/// With no `FP_CHAOS` in the environment it is a transparent
/// pass-through to [`write_frame`].
pub struct Chaos {
    spec: Option<ChaosSpec>,
    sent: AtomicU64,
    fired: AtomicBool,
    once_file: Option<PathBuf>,
}

impl Chaos {
    /// An injector that never fires.
    pub fn inert() -> Self {
        Self {
            spec: None,
            sent: AtomicU64::new(0),
            fired: AtomicBool::new(false),
            once_file: None,
        }
    }

    /// Arm from `FP_CHAOS` / `FP_CHAOS_ONCE_FILE`; inert when unset.
    pub fn from_env() -> Result<Self, String> {
        let spec = match std::env::var(CHAOS_ENV) {
            Ok(raw) if !raw.is_empty() => Some(ChaosSpec::parse(&raw)?),
            _ => None,
        };
        Ok(Self {
            spec,
            once_file: std::env::var_os(CHAOS_ONCE_FILE_ENV).map(PathBuf::from),
            ..Self::inert()
        })
    }

    /// An armed injector for tests (fires once, no lock file).
    pub fn armed(spec: ChaosSpec) -> Self {
        Self {
            spec: Some(spec),
            ..Self::inert()
        }
    }

    /// One shot per process, and — when a once-file is configured —
    /// one shot across every process sharing it.
    fn claim(&self) -> bool {
        if self.fired.swap(true, Ordering::SeqCst) {
            return false;
        }
        match &self.once_file {
            None => true,
            Some(path) => std::fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(path)
                .is_ok(),
        }
    }

    /// Write one *data* frame (hello or response) through the
    /// injector. Heartbeats must NOT come through here: they would
    /// make the frame count timing-dependent and the faults
    /// non-deterministic.
    pub fn write_data_frame(&self, w: &mut impl Write, frame: &Frame) -> Result<(), String> {
        let n = self.sent.fetch_add(1, Ordering::SeqCst) + 1;
        if let Some(spec) = &self.spec {
            if n == spec.frame && self.claim() {
                match spec.action {
                    ChaosAction::Drop => return Ok(()),
                    ChaosAction::Delay(ms) => std::thread::sleep(Duration::from_millis(ms)),
                    ChaosAction::Truncate => {
                        let body = frame.to_json().to_compact();
                        let len = body.len() as u32;
                        let half = &body.as_bytes()[..body.len() / 2];
                        let _ = w
                            .write_all(&len.to_be_bytes())
                            .and_then(|()| w.write_all(half))
                            .and_then(|()| w.flush());
                        return Err("chaos: frame truncated on purpose".into());
                    }
                    ChaosAction::Hang => std::thread::sleep(CHAOS_HANG),
                }
            }
        }
        write_frame(w, frame)
    }
}

use crate::json::ToJson; // for ChaosAction::Truncate's partial body

// ---------------------------------------------------------------------
// Deadline reads: a reader thread feeding a channel
// ---------------------------------------------------------------------

/// One received item, or the reason there isn't one.
#[derive(Debug)]
enum RecvOutcome {
    /// A well-formed frame.
    Frame(Frame),
    /// Clean EOF at a frame boundary (or the reader thread is gone).
    Eof,
    /// Nothing arrived within the timeout; the stream is still open.
    TimedOut,
    /// A framing error (truncated, oversized, not JSON, …).
    Failed(String),
}

/// Frames arriving from a background reader thread. The thread blocks
/// in `read_frame`; [`recv`](Self::recv) blocks at most the caller's
/// timeout. Shutting the socket down unblocks the thread, which then
/// exits on the resulting EOF/error.
struct FrameReceiver {
    rx: mpsc::Receiver<Result<Option<Frame>, String>>,
}

impl FrameReceiver {
    fn spawn(mut r: impl Read + Send + 'static) -> Self {
        let (tx, rx) = mpsc::channel();
        // Detached on purpose: the thread owns nothing but the read
        // half and dies with it.
        let _ = std::thread::Builder::new()
            .name("fp-frame-reader".into())
            .spawn(move || loop {
                let item = crate::protocol::read_frame(&mut r);
                let done = !matches!(item, Ok(Some(_)));
                if tx.send(item).is_err() || done {
                    return;
                }
            });
        Self { rx }
    }

    fn recv(&self, timeout: Duration) -> RecvOutcome {
        match self.rx.recv_timeout(timeout) {
            Ok(Ok(Some(frame))) => RecvOutcome::Frame(frame),
            Ok(Ok(None)) => RecvOutcome::Eof,
            Ok(Err(e)) => RecvOutcome::Failed(e),
            Err(mpsc::RecvTimeoutError::Timeout) => RecvOutcome::TimedOut,
            Err(mpsc::RecvTimeoutError::Disconnected) => RecvOutcome::Eof,
        }
    }
}

// ---------------------------------------------------------------------
// One worker connection
// ---------------------------------------------------------------------

/// A live worker from the dispatcher's side: deadline receives plus a
/// plain frame writer on the socket.
struct WorkerConn {
    stream: TcpStream,
    frames: FrameReceiver,
    /// Short peer description for diagnostics.
    peer: String,
}

impl WorkerConn {
    /// Wrap an accepted TCP stream.
    fn from_tcp(stream: TcpStream, peer: SocketAddr) -> Result<Self, String> {
        let _ = stream.set_nodelay(true);
        let _ = stream.set_write_timeout(Some(Duration::from_secs(30)));
        let read_half = stream
            .try_clone()
            .map_err(|e| format!("cannot clone stream for {peer}: {e}"))?;
        Ok(Self {
            stream,
            frames: FrameReceiver::spawn(std::io::BufReader::new(read_half)),
            peer: format!("worker {peer}"),
        })
    }

    fn send(&mut self, frame: &Frame) -> Result<(), String> {
        write_frame(&mut self.stream, frame)
    }

    fn recv(&self, timeout: Duration) -> RecvOutcome {
        self.frames.recv(timeout)
    }

    /// Tear the connection down hard; also unblocks the reader thread.
    fn close(&mut self) {
        let _ = self.stream.shutdown(Shutdown::Both);
    }

    /// Ask the worker to exit, then half-close so it sees a clean EOF.
    fn shutdown_clean(mut self) {
        let _ = self.send(&Frame::Shutdown);
        let _ = self.stream.shutdown(Shutdown::Write);
    }
}

/// Complete the dispatcher's half of the handshake: one hello within
/// `timeout`, exact protocol version, and a constant-time match of
/// `want_token`. Every failure mode is an `Err`; the caller closes the
/// connection without replying.
fn expect_hello(conn: &WorkerConn, want_token: &str, timeout: Duration) -> Result<(), String> {
    match conn.recv(timeout) {
        RecvOutcome::Frame(Frame::Hello(hello)) => {
            if hello.version != PROTOCOL_VERSION {
                return Err(format!(
                    "worker speaks protocol v{}, dispatcher v{PROTOCOL_VERSION}",
                    hello.version
                ));
            }
            if !constant_time_eq(&hello.token, want_token) {
                return Err("hello token mismatch".into());
            }
            Ok(())
        }
        RecvOutcome::Frame(other) => Err(format!("expected hello, got {other:?}")),
        RecvOutcome::Eof => Err("worker exited before saying hello".into()),
        RecvOutcome::TimedOut => Err(format!(
            "no hello within the {}ms handshake deadline",
            timeout.as_millis()
        )),
        RecvOutcome::Failed(e) => Err(e),
    }
}

// ---------------------------------------------------------------------
// The dispatcher: shared sweep state and one loop per connection
// ---------------------------------------------------------------------

/// Shared sweep progress: the cell queue, the result slots, and the
/// flags every connection handler coordinates through.
struct SweepState {
    cells: Vec<Cell>,
    queue: Mutex<VecDeque<usize>>,
    results: Mutex<Vec<Option<CellOut>>>,
    pending: AtomicUsize,
    failures: Mutex<Vec<String>>,
    abort: AtomicBool,
    /// Last join or cell completion; the listener's join-timeout clock.
    liveness: Mutex<Instant>,
}

impl SweepState {
    fn new(cells: Vec<Cell>) -> Self {
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

    fn cell(&self, idx: usize) -> &Cell {
        &self.cells[idx]
    }

    fn pending(&self) -> usize {
        self.pending.load(Ordering::Acquire)
    }

    fn pop(&self) -> Option<usize> {
        let mut q = self.queue.lock().expect("queue lock");
        let popped = q.pop_front();
        fp_obs::gauge("fp_pool_queue_depth").set(q.len() as i64);
        popped
    }

    fn requeue(&self, idx: usize) {
        fp_obs::counter("fp_pool_requeues_total").inc();
        let mut q = self.queue.lock().expect("queue lock");
        q.push_front(idx);
        fp_obs::gauge("fp_pool_queue_depth").set(q.len() as i64);
    }

    fn complete(&self, idx: usize, out: CellOut) {
        self.results.lock().expect("results lock")[idx] = Some(out);
        self.pending.fetch_sub(1, Ordering::Release);
        self.touch();
    }

    fn fail(&self, msg: String) {
        self.failures.lock().expect("failures lock").push(msg);
    }

    fn abort(&self) {
        self.abort.store(true, Ordering::Release);
    }

    fn aborted(&self) -> bool {
        self.abort.load(Ordering::Acquire)
    }

    /// Bump the liveness clock (a worker joined or a cell landed).
    fn touch(&self) {
        *self.liveness.lock().expect("liveness lock") = Instant::now();
    }

    fn idle_for(&self) -> Duration {
        self.liveness.lock().expect("liveness lock").elapsed()
    }

    /// Reduce into the final result, or describe why the sweep could
    /// not complete.
    fn finish(self, cfg: &SweepConfig) -> Result<SweepResult, String> {
        let outputs = self.results.into_inner().expect("results lock");
        if outputs.iter().any(Option::is_none) {
            let seen = self.failures.into_inner().expect("failures lock");
            return Err(format!(
                "the sweep failed before every cell completed: {}",
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
enum DispatchEnd {
    /// The sweep drained; the connection is healthy (shut it down
    /// cleanly).
    Done,
    /// The worker was declared lost; its in-flight cells are already
    /// re-queued.
    Lost(String),
}

/// Feed one connected worker from the shared queue until the sweep
/// drains or the worker is lost.
///
/// Keeps up to `CREDIT_WINDOW` cells in flight, counts heartbeats, and
/// enforces the two loss deadlines (heartbeat silence, oldest-cell
/// age). On loss every in-flight cell is re-queued before returning,
/// so no cell is ever stranded on a dead connection.
fn dispatch_conn(conn: &mut WorkerConn, state: &SweepState, opts: &NetOptions) -> DispatchEnd {
    let mut inflight: VecDeque<(u64, usize, Instant)> = VecDeque::new();
    let mut last_frame = Instant::now();
    let heartbeats = fp_obs::counter("fp_pool_heartbeats_total");

    macro_rules! lost {
        ($reason:expr) => {{
            fp_obs::counter("fp_pool_disconnects_total").inc();
            for (_, idx, _) in inflight.drain(..) {
                state.requeue(idx);
            }
            return DispatchEnd::Lost($reason);
        }};
    }

    loop {
        if state.aborted() {
            for (_, idx, _) in inflight.drain(..) {
                state.requeue(idx);
            }
            return DispatchEnd::Done;
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
                return DispatchEnd::Done;
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

// ---------------------------------------------------------------------
// The TCP listener: remote workers join a sweep
// ---------------------------------------------------------------------

/// Knobs for [`SweepListener`].
#[derive(Clone, Debug)]
pub struct NetOptions {
    /// Shared secret every worker hello must carry.
    pub token: String,
    /// How long an accepted connection may take to complete its hello
    /// (bounds slow-loris handshakes).
    pub hello_timeout: Duration,
    /// With cells pending, no live worker, and no new connection for
    /// this long, the sweep gives up instead of waiting forever.
    pub join_timeout: Duration,
    /// Declare a worker lost after this much total silence (no
    /// response *and* no heartbeat). Heartbeats flow every
    /// [`HEARTBEAT_INTERVAL`], so this bounds hang detection, not cell
    /// duration.
    pub heartbeat_timeout: Duration,
    /// Soft deadline for the *oldest* in-flight cell: a worker that
    /// heartbeats happily but never answers is declared lost when its
    /// oldest cell ages past this, and the cells are re-queued.
    pub cell_deadline: Duration,
}

impl NetOptions {
    /// Defaults around `token`: 5s hello deadline, 60s join patience,
    /// 5s heartbeat timeout, 300s cell deadline.
    pub fn new(token: impl Into<String>) -> Self {
        Self {
            token: token.into(),
            hello_timeout: Duration::from_secs(5),
            join_timeout: Duration::from_secs(60),
            heartbeat_timeout: Duration::from_secs(5),
            cell_deadline: Duration::from_secs(300),
        }
    }

    /// Apply the `FP_POOL_*` environment overrides (heartbeat timeout,
    /// cell deadline) on top of `self`. Unparsable values are loud
    /// errors — a chaos harness that typos a deadline should not
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
}

/// A sweep dispatcher that accepts remote workers over TCP.
///
/// Workers dial in (`fp worker --connect HOST:PORT --token T`),
/// authenticate, receive the init frame, and then stream cells through
/// the credit window under heartbeats and deadlines (`dispatch_conn`).
/// A worker lost mid-run has its in-flight cells re-queued for the
/// survivors (or for its own reconnect); results stay bit-identical for
/// any worker topology.
#[derive(Debug)]
pub struct SweepListener {
    listener: TcpListener,
    opts: NetOptions,
}

impl SweepListener {
    /// Bind `addr` (e.g. `127.0.0.1:0` for an OS-assigned port).
    pub fn bind(addr: &str, opts: NetOptions) -> Result<Self, String> {
        if opts.token.is_empty() {
            return Err("a sweep listener requires a non-empty token".into());
        }
        let listener =
            TcpListener::bind(addr).map_err(|e| format!("cannot listen on {addr}: {e}"))?;
        Ok(Self { listener, opts })
    }

    /// The bound address (port resolved).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr().expect("bound listener")
    }

    /// Accept workers and run `cfg`'s sweep to completion on whoever
    /// shows up. Bit-identical to the in-process runner. Errors when
    /// the sweep cannot complete: cells pending but no worker connected
    /// (or reconnected) within [`NetOptions::join_timeout`].
    pub fn run(
        &self,
        g: &DiGraph,
        source: NodeId,
        cfg: &SweepConfig,
    ) -> Result<SweepResult, String> {
        let state = SweepState::new(sweep_cells(cfg));
        if state.pending() == 0 {
            return state.finish(cfg);
        }
        let init = SweepInit {
            nodes: g.node_count(),
            edges: g.edges().map(|(u, v)| (u.index(), v.index())).collect(),
            source: source.index(),
            ks: cfg.ks.clone(),
        };
        self.listener
            .set_nonblocking(true)
            .map_err(|e| format!("cannot poll the listener: {e}"))?;
        let live = AtomicUsize::new(0);
        let live_gauge = fp_obs::gauge("fp_pool_remote_workers");

        let (state_ref, init_ref, live_ref, gauge_ref) = (&state, &init, &live, &live_gauge);
        std::thread::scope(|scope| {
            while state_ref.pending() > 0 && !state_ref.aborted() {
                match self.listener.accept() {
                    Ok((stream, peer)) => {
                        scope.spawn(move || {
                            self.serve_worker(stream, peer, init_ref, state_ref, live_ref);
                            gauge_ref.set(live_ref.load(Ordering::Relaxed) as i64);
                        });
                        live_gauge.set(live.load(Ordering::Relaxed) as i64);
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        if live.load(Ordering::Acquire) == 0
                            && state.idle_for() > self.opts.join_timeout
                        {
                            state.fail(format!(
                                "no worker connected for {}s with cells pending",
                                self.opts.join_timeout.as_secs()
                            ));
                            state.abort();
                        } else {
                            std::thread::sleep(Duration::from_millis(10));
                        }
                    }
                    Err(e) => {
                        state.fail(format!("accept failed: {e}"));
                        std::thread::sleep(Duration::from_millis(10));
                    }
                }
            }
            // Dispatcher threads notice pending == 0 (or the abort
            // flag) on their own and wind down; the scope joins them.
        });
        state.finish(cfg)
    }

    /// One accepted connection: authenticate, init, dispatch.
    fn serve_worker(
        &self,
        stream: TcpStream,
        peer: SocketAddr,
        init: &SweepInit,
        state: &SweepState,
        live: &AtomicUsize,
    ) {
        let mut conn = match WorkerConn::from_tcp(stream, peer) {
            Ok(conn) => conn,
            Err(e) => {
                state.fail(e);
                return;
            }
        };
        let admitted = expect_hello(&conn, &self.opts.token, self.opts.hello_timeout)
            .and_then(|()| conn.send(&Frame::Init(init.clone())));
        if let Err(e) = admitted {
            // Bad hellos get no reply, just a closed connection; the
            // reason is kept for the sweep's own diagnostics.
            state.fail(format!("{}: {e}", conn.peer));
            conn.close();
            return;
        }
        live.fetch_add(1, Ordering::AcqRel);
        state.touch();
        let outcome = dispatch_conn(&mut conn, state, &self.opts);
        live.fetch_sub(1, Ordering::AcqRel);
        match outcome {
            DispatchEnd::Done => conn.shutdown_clean(),
            DispatchEnd::Lost(reason) => {
                // The worker is free to reconnect and start fresh.
                state.fail(format!("{}: {reason}", conn.peer));
                conn.close();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn constant_time_eq_matches_plain_eq() {
        for (a, b) in [
            ("", ""),
            ("secret", "secret"),
            ("secret", "secre7"),
            ("secret", "secrets"),
            ("", "x"),
            ("hunter2", "hunter2"),
        ] {
            assert_eq!(constant_time_eq(a, b), a == b, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn chaos_specs_parse_and_bad_ones_name_the_problem() {
        assert_eq!(
            ChaosSpec::parse("drop@3").unwrap(),
            ChaosSpec {
                frame: 3,
                action: ChaosAction::Drop
            }
        );
        assert_eq!(
            ChaosSpec::parse("delay@2:150").unwrap(),
            ChaosSpec {
                frame: 2,
                action: ChaosAction::Delay(150)
            }
        );
        assert_eq!(
            ChaosSpec::parse("truncate@1").unwrap().action,
            ChaosAction::Truncate
        );
        assert_eq!(
            ChaosSpec::parse("hang@4").unwrap().action,
            ChaosAction::Hang
        );
        for (bad, needle) in [
            ("drop", "KIND@FRAME"),
            ("drop@0", "frame"),
            ("drop@x", "frame"),
            ("explode@1", "kind"),
            ("delay@1", "delay@FRAME:MS"),
            ("delay@1:soon", "delay"),
        ] {
            let err = ChaosSpec::parse(bad).unwrap_err();
            assert!(err.contains(needle), "{bad:?}: {err}");
        }
    }

    #[test]
    fn chaos_drop_skips_exactly_the_targeted_frame_once() {
        let chaos = Chaos::armed(ChaosSpec {
            frame: 2,
            action: ChaosAction::Drop,
        });
        let mut wire = Vec::new();
        for _ in 0..3 {
            chaos
                .write_data_frame(&mut wire, &Frame::Heartbeat)
                .unwrap();
        }
        let mut r = wire.as_slice();
        let mut frames = 0;
        while crate::protocol::read_frame(&mut r).unwrap().is_some() {
            frames += 1;
        }
        assert_eq!(frames, 2, "frame 2 of 3 dropped");

        // A fresh counter run on the same injector stays clean: fired.
        let mut wire2 = Vec::new();
        chaos
            .write_data_frame(&mut wire2, &Frame::Heartbeat)
            .unwrap();
        assert!(crate::protocol::read_frame(&mut wire2.as_slice())
            .unwrap()
            .is_some());
    }

    #[test]
    fn chaos_truncate_leaves_a_provably_broken_stream() {
        let chaos = Chaos::armed(ChaosSpec {
            frame: 1,
            action: ChaosAction::Truncate,
        });
        let mut wire = Vec::new();
        let err = chaos
            .write_data_frame(&mut wire, &Frame::Shutdown)
            .unwrap_err();
        assert!(err.contains("chaos"), "{err}");
        let read_err = crate::protocol::read_frame(&mut wire.as_slice()).unwrap_err();
        assert!(read_err.contains("truncated"), "{read_err}");
    }

    #[test]
    fn chaos_once_file_gates_across_injectors() {
        let dir = std::env::temp_dir().join(format!("fp-chaos-once-{}", std::process::id()));
        let _ = std::fs::remove_file(&dir);
        let armed = |path: &std::path::Path| Chaos {
            spec: Some(ChaosSpec {
                frame: 1,
                action: ChaosAction::Drop,
            }),
            once_file: Some(path.to_path_buf()),
            ..Chaos::inert()
        };
        // First injector claims the file and fires (frame dropped)…
        let mut wire = Vec::new();
        armed(&dir)
            .write_data_frame(&mut wire, &Frame::Heartbeat)
            .unwrap();
        assert!(wire.is_empty(), "dropped");
        // …second sees the claim and writes clean.
        let mut wire2 = Vec::new();
        armed(&dir)
            .write_data_frame(&mut wire2, &Frame::Heartbeat)
            .unwrap();
        assert!(!wire2.is_empty(), "not dropped twice");
        let _ = std::fs::remove_file(&dir);
    }

    #[test]
    fn inert_chaos_comes_from_an_empty_env() {
        // (Cannot set the env var here — tests share the process — but
        // the default path must parse to a pass-through.)
        let chaos = Chaos::inert();
        let mut wire = Vec::new();
        chaos.write_data_frame(&mut wire, &Frame::Shutdown).unwrap();
        assert!(matches!(
            crate::protocol::read_frame(&mut wire.as_slice()).unwrap(),
            Some(Frame::Shutdown)
        ));
    }

    #[test]
    fn frame_receiver_times_out_instead_of_blocking() {
        // A reader that never yields bytes: the stream stays open, the
        // receive must come back as TimedOut, not hang.
        struct Stuck;
        impl Read for Stuck {
            fn read(&mut self, _buf: &mut [u8]) -> std::io::Result<usize> {
                std::thread::sleep(Duration::from_secs(3600));
                Ok(0)
            }
        }
        let rx = FrameReceiver::spawn(Stuck);
        let start = Instant::now();
        assert!(matches!(
            rx.recv(Duration::from_millis(20)),
            RecvOutcome::TimedOut
        ));
        assert!(start.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn frame_receiver_reports_eof_and_errors() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &Frame::Heartbeat).unwrap();
        let rx = FrameReceiver::spawn(std::io::Cursor::new(wire));
        assert!(matches!(
            rx.recv(Duration::from_secs(5)),
            RecvOutcome::Frame(Frame::Heartbeat)
        ));
        assert!(matches!(rx.recv(Duration::from_secs(5)), RecvOutcome::Eof));

        let garbage = std::io::Cursor::new(b"XXXXXXXXXXXXXXXX".to_vec());
        let rx = FrameReceiver::spawn(garbage);
        match rx.recv(Duration::from_secs(5)) {
            RecvOutcome::Failed(e) => assert!(e.contains("exceeds"), "{e}"),
            other => panic!("expected a framing failure, got {other:?}"),
        }
    }

    #[test]
    fn listener_requires_a_token() {
        let err = SweepListener::bind("127.0.0.1:0", NetOptions::new("")).unwrap_err();
        assert!(err.contains("token"), "{err}");
    }

    #[test]
    fn sweep_state_requeue_and_complete_balance_pending() {
        let cfg = SweepConfig {
            ks: vec![0, 1, 2],
            trials: 2,
            seed: 3,
            solvers: vec![
                fp_algorithms::SolverKind::GreedyAll,
                fp_algorithms::SolverKind::RandK,
            ],
        };
        let cells = sweep_cells(&cfg);
        let n = cells.len();
        let state = SweepState::new(cells);
        assert_eq!(state.pending(), n);
        let idx = state.pop().unwrap();
        state.requeue(idx);
        assert_eq!(state.pop(), Some(idx), "requeue goes to the front");
        state.complete(idx, CellOut::Curve(vec![]));
        assert_eq!(state.pending(), n - 1);
    }

    #[test]
    fn a_sweep_nobody_joins_is_an_error_not_a_partial_result() {
        let g = DiGraph::from_pairs(2, [(0, 1)]).unwrap();
        let cfg = SweepConfig {
            ks: vec![0, 1],
            trials: 1,
            seed: 0,
            solvers: vec![fp_algorithms::SolverKind::GreedyAll],
        };
        let opts = NetOptions {
            join_timeout: Duration::from_millis(50),
            ..NetOptions::new("t")
        };
        let listener = SweepListener::bind("127.0.0.1:0", opts).unwrap();
        let err = listener.run(&g, NodeId::new(0), &cfg).unwrap_err();
        assert!(err.contains("failed before every cell completed"), "{err}");
        assert!(err.contains("no worker connected"), "{err}");
    }

    #[test]
    fn an_empty_sweep_needs_no_worker() {
        let g = DiGraph::from_pairs(2, [(0, 1)]).unwrap();
        let cfg = SweepConfig {
            ks: vec![0, 1],
            trials: 1,
            seed: 0,
            solvers: vec![],
        };
        let listener = SweepListener::bind("127.0.0.1:0", NetOptions::new("t")).unwrap();
        let res = listener.run(&g, NodeId::new(0), &cfg).unwrap();
        assert!(res.series.is_empty());
    }
}
