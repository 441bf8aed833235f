//! `fp serve`: the long-running filter-placement daemon.
//!
//! Turns the batch repro into a query service: graphs are loaded once
//! into a [`GraphRegistry`], each `(graph, solver, seed)` triple gets a
//! **warm session** on its own OS thread, and placement / FR /
//! ladder-curve queries are answered from live solver state in
//! milliseconds instead of paying load + solve per request.
//!
//! # Determinism contract
//!
//! A serve answer for `(graph, solver, k, seed)` is **bit-identical**
//! to the batch [`Problem::solve_ladder`](crate::Problem::solve_ladder)
//! answer — same placement nodes, same FR bits. Warm sessions make
//! this cheap, not different: each keeps one solver session per graph
//! version. Prefix-nested solvers extend its ladder and cache the FR
//! per rung; the non-nested randomized baselines (`Rand_I`/`Rand_W`,
//! see [`SolverKind::is_prefix_nested`]) redraw on it per budget — a
//! pure function of `(k, seed)` — and memoize. FR floats cross the wire
//! through the lossless [`fp_results::json`] writer, so "bit-identical"
//! survives serialization.
//!
//! # Transports
//!
//! One port, two protocols, sniffed from the first byte of each
//! connection:
//!
//! * **Frames** — the length-prefixed JSON frames of
//!   [`fp_results::protocol`] ([`Frame::Call`]/[`Frame::Reply`]); the
//!   native transport, used by [`ServeClient`], `fp loadtest`, and
//!   anything that wants a persistent conversation.
//! * **HTTP/1.1** — a minimal hand-rolled front end (`GET /health`,
//!   `POST /graphs`, `POST /sessions`, `GET
//!   /sessions/:id/placement?k=`, ...) so the daemon is curl-able.
//!   One request per connection (`Connection: close`).
//!
//! Both transports dispatch through the same [`ApiState::handle`], so
//! an HTTP response body and a frame reply body are the same bytes for
//! the same call.
//!
//! # Deadlines
//!
//! A query may carry `deadline_ms`. The deadline is enforced at **rung
//! granularity**: the session checks the clock before each unit of
//! work — one more ladder rung, or one more draw — answers `408` if
//! time ran out before the requested budgets were reached, and *keeps*
//! the partial work — a retry resumes where the expired query stopped.
//! Already-cached budgets are always served, deadline or not.

use crate::registry::{GraphEntry, GraphRegistry, PutError, PutOutcome};
use fp_algorithms::{SolverKind, SolverSession};
use fp_graph::{BitSet, NodeId};
use fp_num::Wide128;
use fp_propagation::{CGraph, Mutation};
use fp_results::hash::Fnv64;
use fp_results::protocol::{
    read_frame, write_frame, Frame, ServeCall, ServeReply, ServeRequest, MAX_FRAME_LEN,
    PROTOCOL_VERSION,
};
use fp_results::{Json, ToJson};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// The default listen address: loopback, port 2012 (the paper's year).
pub const DEFAULT_ADDR: &str = "127.0.0.1:2012";

/// Most budgets one query may ask for (400 past it) — far above any
/// curve a caller plots, far below what would let one request allocate
/// without bound.
const MAX_QUERY_BUDGETS: usize = 4096;

/// Draws one epoch of a Rand_I/Rand_W session memoizes before it
/// starts over. A draw is a pure function of `(k, seed)`, so a budget
/// asked again after a clear recomputes the same bits; the cap only
/// bounds the memory a client asking fresh budgets can pin.
const MAX_MEMO_DRAWS: usize = 64;

/// Most placement nodes one query's reply may list, summed over its
/// rows (400 past it). The row at budget `k` lists at most `min(k, n)`
/// of the graph's `n` nodes, so repeating a large budget cannot grow
/// the reply past this either.
const MAX_QUERY_PLACED: usize = 1 << 20;

// ---------------------------------------------------------------------
// Warm sessions
// ---------------------------------------------------------------------

/// One `(k, FR, placement)` row of a query answer.
///
/// `placement` is the paper's filter set in **pick order** (insertion
/// order for greedy ladders), as node indices into the session's
/// graph.
#[derive(Clone, Debug, PartialEq)]
pub struct KAnswer {
    /// The requested budget.
    pub k: usize,
    /// `FR` at this budget — bit-identical to the batch ladder.
    pub fr: f64,
    /// The placement, in pick order.
    pub placement: Vec<NodeId>,
}

/// Why a query got no answer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QueryError {
    /// The deadline expired before every requested budget was reached;
    /// `ready` rungs are cached and a retry will resume from there.
    Expired {
        /// Ladder rungs computed so far.
        ready: usize,
    },
    /// The session worker is gone (closed or expired concurrently).
    Closed,
}

/// What a session mutation did.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MutateOutcome {
    /// `"insert_edge"` or `"remove_edge"`.
    pub op: &'static str,
    /// Edge count of the session's graph after the mutation.
    pub edges: usize,
    /// Whether the insertion forced a topological-order rebuild.
    pub reordered: bool,
    /// How many leading ladder rungs the session predicts survive the
    /// mutation and pre-warms (always 0 for solvers that are not
    /// prefix-nested). A *hint only*: every rung is recomputed on the
    /// mutated graph, so answers stay bit-identical to a cold session
    /// regardless of this number.
    pub retained_rungs: usize,
}

/// Why a session mutation was refused.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MutateError {
    /// A mutation [`Mutation::validate`] rejects, a filter mutation, or
    /// an edge removal that would orphan a placed filter (all 409 on
    /// the wire).
    Conflict(String),
    /// The session worker is gone (closed or expired concurrently).
    Closed,
}

enum SessionCmd {
    Query {
        ks: Vec<usize>,
        deadline: Option<Instant>,
        reply: mpsc::Sender<Result<Vec<KAnswer>, QueryError>>,
    },
    Mutate {
        m: Mutation,
        reply: mpsc::Sender<Result<MutateOutcome, MutateError>>,
    },
    Stop,
}

const STATE_WARMING: u8 = 1;
const STATE_READY: u8 = 2;

/// Per-session observability counters, shared between the session's
/// worker thread (rung depth, cache hits) and the dispatch layer
/// (query count, deadline misses, body bytes). Reported as the
/// `"stats"` object in session JSON, so `GET /sessions` carries them.
///
/// These are plain atomics on the side of the session — never inputs
/// to solver state — so they cannot perturb placements or FR bits.
#[derive(Debug, Default)]
struct SessionStats {
    /// Queries dispatched to this session (including failed ones).
    queries: fp_obs::Counter,
    /// Warm ladder length (nested) or memoized budget count (one-shot).
    rung_depth: fp_obs::Gauge,
    /// Requested budgets that were already warm when the query arrived.
    rung_cache_hits: fp_obs::Counter,
    /// Queries answered 408 because `deadline_ms` expired.
    deadline_misses: fp_obs::Counter,
    /// Compact-JSON bytes of query calls received.
    bytes_in: fp_obs::Counter,
    /// Compact-JSON bytes of query reply bodies produced.
    bytes_out: fp_obs::Counter,
    /// Structural mutations accepted by this session.
    mutations: fp_obs::Counter,
    /// Total rungs predicted to survive across those mutations (the
    /// pre-warm work saved, in units of one ladder rung).
    rungs_retained: fp_obs::Counter,
}

impl SessionStats {
    fn to_json(&self) -> Json {
        Json::object([
            ("queries", self.queries.get().to_json()),
            ("rung_depth", Json::Int(i128::from(self.rung_depth.get()))),
            ("rung_cache_hits", self.rung_cache_hits.get().to_json()),
            ("deadline_misses", self.deadline_misses.get().to_json()),
            ("bytes_in", self.bytes_in.get().to_json()),
            ("bytes_out", self.bytes_out.get().to_json()),
            ("mutations", self.mutations.get().to_json()),
            ("rungs_retained", self.rungs_retained.get().to_json()),
        ])
    }
}

/// A warm session: one solver ladder kept alive on its own thread.
///
/// The handle is cheap to clone (via `Arc`) and thread-safe; queries
/// from any number of connections are serialized through the session's
/// command channel, which is what lets interleaved `advance_to`s from
/// concurrent clients stay bit-identical to a single-client walk.
pub struct SessionHandle {
    /// Content-derived id: FNV-1a over (edge hash, solver label, seed).
    pub id: String,
    /// The graph being solved.
    pub graph: Arc<GraphEntry>,
    /// The solver whose ladder this session walks.
    pub solver: SolverKind,
    /// Seed captured at session start (randomized baselines only).
    pub seed: u64,
    state: Arc<AtomicU8>,
    stats: Arc<SessionStats>,
    tx: mpsc::Sender<SessionCmd>,
    last_used: Mutex<Instant>,
}

impl std::fmt::Debug for SessionHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionHandle")
            .field("id", &self.id)
            .field("graph", &self.graph.name)
            .field("solver", &self.solver.label())
            .field("seed", &self.seed)
            .field("state", &self.state_name())
            .finish_non_exhaustive()
    }
}

impl SessionHandle {
    /// Lifecycle state: `"warming"` (building the FR denominators) or
    /// `"ready"`. Expired sessions are removed from the table, so the
    /// `"expired"` state is observable only as a later 404.
    pub fn state_name(&self) -> &'static str {
        match self.state.load(Ordering::Acquire) {
            STATE_WARMING => "warming",
            STATE_READY => "ready",
            _ => "created",
        }
    }

    /// Answer the requested budgets, extending the warm ladder as far
    /// as needed. Blocks while the session works; `deadline_ms` bounds
    /// that work at rung granularity.
    pub fn query(
        &self,
        ks: &[usize],
        deadline_ms: Option<u64>,
    ) -> Result<Vec<KAnswer>, QueryError> {
        *self.last_used.lock().expect("session lock poisoned") = Instant::now();
        let deadline = deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms));
        let (reply_tx, reply_rx) = mpsc::channel();
        self.tx
            .send(SessionCmd::Query {
                ks: ks.to_vec(),
                deadline,
                reply: reply_tx,
            })
            .map_err(|_| QueryError::Closed)?;
        reply_rx.recv().map_err(|_| QueryError::Closed)?
    }

    /// Apply one edge mutation (`InsertEdge`/`RemoveEdge`) to the
    /// session's private copy of its graph (the registry's shared
    /// entry is never touched — other sessions on the same graph keep
    /// solving the original).
    ///
    /// On success the worker rebuilds its solver session on the
    /// mutated graph and pre-warms the predicted surviving ladder
    /// prefix; later queries are bit-identical to a cold session
    /// opened on that graph. Refused mutations
    /// ([`MutateError::Conflict`]) change nothing.
    pub fn mutate(&self, m: Mutation) -> Result<MutateOutcome, MutateError> {
        *self.last_used.lock().expect("session lock poisoned") = Instant::now();
        let (reply_tx, reply_rx) = mpsc::channel();
        self.tx
            .send(SessionCmd::Mutate { m, reply: reply_tx })
            .map_err(|_| MutateError::Closed)?;
        reply_rx.recv().map_err(|_| MutateError::Closed)?
    }

    fn idle_for(&self) -> Duration {
        self.last_used
            .lock()
            .expect("session lock poisoned")
            .elapsed()
    }
}

/// What one epoch has computed, by budget.
enum Answers {
    /// Prefix-nested solvers: the FR after each rung of the one ladder
    /// (rung 0 first; rung `r`'s placement is the session placement's
    /// first `r` nodes), and whether the solver stopped early.
    Ladder { fr: Vec<f64>, exhausted: bool },
    /// Every other solver: one independent draw per budget, a pure
    /// function of `(k, seed)`, at most [`MAX_MEMO_DRAWS`] of them at a
    /// time, and every node any draw of the epoch placed (evicted draws
    /// included), which the orphan rule checks removals against.
    Draws {
        memo: BTreeMap<usize, KAnswer>,
        placed: BitSet,
    },
}

/// One epoch of a session worker: one solver session on one graph
/// version, and every answer it has computed there.
struct Epoch<'a> {
    cg: &'a CGraph,
    session: Box<dyn SolverSession + 'a>,
    answers: Answers,
}

impl Epoch<'_> {
    /// Whether budget `k` is answerable without solver work.
    fn cached(&self, k: usize) -> bool {
        match &self.answers {
            Answers::Ladder { fr, exhausted } => k < fr.len() || *exhausted,
            Answers::Draws { memo, .. } => memo.contains_key(&k),
        }
    }

    /// Ladder rungs past rung 0, or memoized draws.
    fn ready(&self) -> usize {
        match &self.answers {
            Answers::Ladder { fr, .. } => fr.len() - 1,
            Answers::Draws { memo, .. } => memo.len(),
        }
    }

    /// Work until budget `k` is cached, checking `deadline` before each
    /// unit of work: one rung of the ladder, or the draw at `k`.
    /// `false` if the deadline expired first; finished work stays
    /// cached, so a retry resumes where this one stopped.
    fn fill(&mut self, k: usize, deadline: Option<Instant>) -> bool {
        while !self.cached(k) {
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return false;
            }
            match &mut self.answers {
                Answers::Ladder { fr, exhausted } => {
                    // Rung 0 is the empty placement; each later rung
                    // adds one pick.
                    if !fr.is_empty() && self.session.next_filter().is_none() {
                        *exhausted = true;
                    } else {
                        fr.push(self.session.fr());
                    }
                }
                Answers::Draws { memo, placed } => {
                    if memo.len() == MAX_MEMO_DRAWS {
                        memo.clear();
                    }
                    self.session.advance_to(k);
                    let placement = self.session.placement().nodes().to_vec();
                    for v in &placement {
                        placed.insert(v.index());
                    }
                    let fr = self.session.fr();
                    memo.insert(k, KAnswer { k, fr, placement });
                }
            }
        }
        true
    }

    /// The cached answer at budget `k`. A budget past a ladder's
    /// natural end answers with the full ladder — exactly
    /// `advance_to`'s early-stop semantics.
    fn answer(&self, k: usize) -> KAnswer {
        match &self.answers {
            Answers::Ladder { fr, .. } => {
                let rung = k.min(fr.len() - 1);
                KAnswer {
                    k,
                    fr: fr[rung],
                    placement: self.session.placement().nodes()[..rung].to_vec(),
                }
            }
            Answers::Draws { memo, .. } => memo[&k].clone(),
        }
    }

    /// Apply one edge mutation to a copy of the epoch's graph under the
    /// engine's edge rules ([`Mutation::validate`]) plus serve's own: a
    /// removal may not leave a node any answer of the epoch placed
    /// unreachable from the source. A refusal leaves the epoch as it was.
    fn mutate(&self, m: Mutation) -> Result<(CGraph, MutateOutcome), String> {
        m.validate(self.cg).map_err(|e| e.to_string())?;
        let mut next = self.cg.clone();
        let (from, to, reordered) = match m {
            Mutation::InsertEdge { from, to } => {
                let reordered = next.insert_edge(from, to).map_err(|e| e.to_string())?;
                (from, to, reordered)
            }
            Mutation::RemoveEdge { from, to } => {
                next.remove_edge(from, to);
                let placed: Vec<NodeId> = match &self.answers {
                    Answers::Ladder { .. } => self.session.placement().nodes().to_vec(),
                    Answers::Draws { placed, .. } => placed.iter().map(NodeId::new).collect(),
                };
                if !placed.is_empty() {
                    let reach = fp_graph::reachable_from(next.csr(), next.source());
                    if let Some(lost) = placed.iter().find(|p| !reach.contains(p.index())) {
                        return Err(format!(
                            "removing edge {from} -> {to} would orphan placed filter {lost}"
                        ));
                    }
                }
                (from, to, false)
            }
            _ => return Err(format!("{m} is not an edge mutation")),
        };
        // The pre-warm hint: the longest prefix of picks disjoint from
        // the mutation site and its downstream cone, whose received
        // counts move. Picks upstream keep theirs, though their *order*
        // can still shift — the rebuilt session recomputes every rung,
        // so a wrong prediction costs warm-up time, never correctness.
        let retained_rungs = match self.answers {
            Answers::Ladder { .. } => {
                let affected = fp_graph::reachable_from(next.csr(), to);
                self.session
                    .placement()
                    .nodes()
                    .iter()
                    .take_while(|&&p| !affected.contains(p.index()) && p != from)
                    .count()
            }
            Answers::Draws { .. } => 0,
        };
        let outcome = MutateOutcome {
            op: m.op(),
            edges: next.edge_count(),
            reordered,
            retained_rungs,
        };
        Ok((next, outcome))
    }
}

/// The session worker: one loop of epochs, one per graph version. The
/// first epoch solves the registry's shared graph; an accepted mutation
/// ends an epoch with the session's own mutated copy, on which the next
/// epoch builds a fresh solver session and pre-warms the rungs predicted
/// to survive.
fn run_session(
    graph: &GraphEntry,
    solver: SolverKind,
    seed: u64,
    state: &AtomicU8,
    stats: &SessionStats,
    rx: &mpsc::Receiver<SessionCmd>,
) {
    let solver_impl = solver.build::<Wide128>();
    let mut own: Option<CGraph> = None;
    let mut warm_to = 0;
    loop {
        let cg = own.as_ref().unwrap_or_else(|| graph.problem.cgraph());
        let mut epoch = Epoch {
            cg,
            session: solver_impl.session(cg, seed),
            answers: if solver.is_prefix_nested() {
                Answers::Ladder {
                    fr: Vec::new(),
                    exhausted: false,
                }
            } else {
                Answers::Draws {
                    memo: BTreeMap::new(),
                    placed: BitSet::new(cg.node_count()),
                }
            },
        };
        // Budget 0's FR read does the one-time denominator passes — the
        // "warming" work a fresh session pays up front. After a
        // mutation, the predicted surviving prefix is re-walked here too.
        epoch.fill(warm_to, None);
        state.store(STATE_READY, Ordering::Release);
        let next = loop {
            let Ok(cmd) = rx.recv() else { return };
            match cmd {
                SessionCmd::Query {
                    ks,
                    deadline,
                    reply,
                } => {
                    let _span = fp_obs::span("session.query").arg("ks", ks.len() as i64);
                    let warm = ks.iter().filter(|&&k| epoch.cached(k)).count();
                    stats.rung_cache_hits.add(warm as u64);
                    // Each budget is answered as soon as it is filled: a
                    // later fill may clear the draw memo.
                    let answers: Option<Vec<KAnswer>> = ks
                        .iter()
                        .map(|&k| epoch.fill(k, deadline).then(|| epoch.answer(k)))
                        .collect();
                    stats.rung_depth.set(epoch.ready() as i64);
                    let out = answers.ok_or(QueryError::Expired {
                        ready: epoch.ready(),
                    });
                    let _ = reply.send(out);
                }
                SessionCmd::Mutate { m, reply } => {
                    let _span = fp_obs::span("session.mutate");
                    match epoch.mutate(m) {
                        Ok((next, outcome)) => {
                            warm_to = outcome.retained_rungs;
                            stats.mutations.inc();
                            stats.rungs_retained.add(warm_to as u64);
                            let _ = reply.send(Ok(outcome));
                            break next;
                        }
                        Err(msg) => {
                            let _ = reply.send(Err(MutateError::Conflict(msg)));
                        }
                    }
                }
                SessionCmd::Stop => return,
            }
        };
        // The epoch's session borrows the graph `next` replaces.
        drop(epoch);
        state.store(STATE_WARMING, Ordering::Release);
        own = Some(next);
    }
}

// ---------------------------------------------------------------------
// Session table
// ---------------------------------------------------------------------

/// The daemon's table of warm sessions, keyed by content-derived id.
///
/// Duplicate creation is a *conflict* (HTTP 409) — the existing warm
/// session already answers identically, so a second one could only
/// waste a thread. Sessions expire after `ttl` of disuse; expiry is
/// swept lazily on table access.
///
/// `max_sessions` is a hard budget on live sessions: at the cap, a new
/// open first sheds TTL-expired sessions (the lazy sweep), then evicts
/// the longest-idle *ready* session. When every slot is mid-warmup the
/// open is refused ([`OpenError::Saturated`], HTTP 503 with
/// `Retry-After`) — graceful degradation instead of an unbounded
/// thread pile-up.
pub struct SessionTable {
    ttl: Option<Duration>,
    max_sessions: Option<usize>,
    sessions: Mutex<BTreeMap<String, Arc<SessionHandle>>>,
}

/// Why [`SessionTable::open`] refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpenError {
    /// That exact session already exists; carries the survivor's id
    /// (HTTP 409 on the wire).
    Conflict(String),
    /// The table is at its `--max-sessions` budget and nothing is
    /// evictable (HTTP 503 with `Retry-After`).
    Saturated {
        /// The configured budget, for the error body.
        limit: usize,
    },
}

impl std::fmt::Debug for SessionTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionTable")
            .field("len", &self.len())
            .field("ttl", &self.ttl)
            .finish_non_exhaustive()
    }
}

impl SessionTable {
    /// An empty table. `ttl` of `None` means sessions live until
    /// explicitly closed; no session cap.
    pub fn new(ttl: Option<Duration>) -> Self {
        Self::with_limits(ttl, None)
    }

    /// An empty table with an optional hard cap on live sessions.
    pub fn with_limits(ttl: Option<Duration>, max_sessions: Option<usize>) -> Self {
        Self {
            ttl,
            max_sessions,
            sessions: Mutex::new(BTreeMap::new()),
        }
    }

    /// The content-derived session id: FNV-1a over the graph's edge
    /// hash, the solver label, and the seed. Two `sessions.open` calls
    /// for the same triple collide by construction — that is the 409.
    pub fn session_id(edge_hash: &str, solver: SolverKind, seed: u64) -> String {
        let mut h = Fnv64::new();
        h.update(edge_hash.as_bytes());
        h.update(solver.label().as_bytes());
        h.update_u64(seed);
        h.finish_hex()
    }

    /// Open a warm session; see [`OpenError`] for the refusal modes.
    pub fn open(
        &self,
        graph: Arc<GraphEntry>,
        solver: SolverKind,
        seed: u64,
    ) -> Result<Arc<SessionHandle>, OpenError> {
        self.sweep_expired();
        let id = Self::session_id(&graph.fingerprint.edge_hash, solver, seed);
        let mut sessions = self.sessions.lock().expect("session table lock poisoned");
        if sessions.contains_key(&id) {
            return Err(OpenError::Conflict(id));
        }
        if let Some(limit) = self.max_sessions {
            if sessions.len() >= limit {
                // TTL-expired sessions are already gone (the sweep
                // above); shed the longest-idle *ready* session next.
                // Warming sessions are mid-solve and never evicted.
                let victim = sessions
                    .iter()
                    .filter(|(_, h)| h.state.load(Ordering::Acquire) == STATE_READY)
                    .max_by_key(|(_, h)| h.idle_for())
                    .map(|(vid, _)| vid.clone());
                let Some(vid) = victim else {
                    return Err(OpenError::Saturated { limit });
                };
                if let Some(evicted) = sessions.remove(&vid) {
                    let _ = evicted.tx.send(SessionCmd::Stop);
                    fp_obs::counter("fp_serve_sessions_evicted_total").inc();
                }
            }
        }
        let (tx, rx) = mpsc::channel();
        let state = Arc::new(AtomicU8::new(STATE_WARMING));
        let stats = Arc::new(SessionStats::default());
        let handle = Arc::new(SessionHandle {
            id: id.clone(),
            graph: Arc::clone(&graph),
            solver,
            seed,
            state: Arc::clone(&state),
            stats: Arc::clone(&stats),
            tx,
            last_used: Mutex::new(Instant::now()),
        });
        let worker_graph = Arc::clone(&graph);
        thread::Builder::new()
            .name(format!("fp-session-{id}"))
            .spawn(move || run_session(&worker_graph, solver, seed, &state, &stats, &rx))
            .expect("cannot spawn session thread");
        sessions.insert(id, Arc::clone(&handle));
        Ok(handle)
    }

    /// Look a session up by id (sweeping expired sessions first).
    pub fn get(&self, id: &str) -> Option<Arc<SessionHandle>> {
        self.sweep_expired();
        self.sessions
            .lock()
            .expect("session table lock poisoned")
            .get(id)
            .cloned()
    }

    /// Close a session explicitly; `false` if it does not exist.
    pub fn close(&self, id: &str) -> bool {
        let removed = self
            .sessions
            .lock()
            .expect("session table lock poisoned")
            .remove(id);
        match removed {
            Some(handle) => {
                let _ = handle.tx.send(SessionCmd::Stop);
                true
            }
            None => false,
        }
    }

    /// All live sessions, in id order.
    pub fn list(&self) -> Vec<Arc<SessionHandle>> {
        self.sweep_expired();
        self.sessions
            .lock()
            .expect("session table lock poisoned")
            .values()
            .cloned()
            .collect()
    }

    /// Number of live sessions.
    pub fn len(&self) -> usize {
        self.sessions
            .lock()
            .expect("session table lock poisoned")
            .len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Stop every session (used at daemon shutdown).
    pub fn close_all(&self) {
        let drained: Vec<_> = {
            let mut sessions = self.sessions.lock().expect("session table lock poisoned");
            std::mem::take(&mut *sessions).into_values().collect()
        };
        for handle in drained {
            let _ = handle.tx.send(SessionCmd::Stop);
        }
    }

    fn sweep_expired(&self) {
        let Some(ttl) = self.ttl else { return };
        let mut sessions = self.sessions.lock().expect("session table lock poisoned");
        let expired: Vec<String> = sessions
            .iter()
            .filter(|(_, h)| h.idle_for() > ttl)
            .map(|(id, _)| id.clone())
            .collect();
        for id in expired {
            if let Some(handle) = sessions.remove(&id) {
                let _ = handle.tx.send(SessionCmd::Stop);
            }
        }
    }
}

// ---------------------------------------------------------------------
// The API
// ---------------------------------------------------------------------

/// The daemon's whole state: registry + session table + stop flag.
///
/// [`ApiState::handle`] is the single dispatch point both transports
/// call, which is what makes an HTTP response body and a frame reply
/// body byte-identical for the same [`ServeCall`].
///
/// ```
/// use fp_core::registry::GraphRegistry;
/// use fp_core::serve::ApiState;
/// use fp_results::protocol::ServeCall;
///
/// let api = ApiState::new(GraphRegistry::new(), None);
/// let (status, body) = api.handle(&ServeCall::Health);
/// assert_eq!(status, 200);
/// assert_eq!(body.expect("graphs").unwrap().as_usize(), Some(0));
/// ```
pub struct ApiState {
    registry: GraphRegistry,
    sessions: SessionTable,
    stop: AtomicBool,
}

impl std::fmt::Debug for ApiState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ApiState")
            .field("registry", &self.registry)
            .field("sessions", &self.sessions)
            .finish_non_exhaustive()
    }
}

fn error_body(msg: impl Into<String>) -> Json {
    Json::object([("error", Json::Str(msg.into()))])
}

fn session_json(handle: &SessionHandle) -> Json {
    Json::object([
        ("session", handle.id.to_json()),
        ("graph", handle.graph.name.to_json()),
        ("solver", handle.solver.to_json()),
        ("seed", handle.seed.to_json()),
        ("state", Json::Str(handle.state_name().to_string())),
        ("stats", handle.stats.to_json()),
    ])
}

/// The metrics snapshot as canonical JSON: integers stay integers (the
/// lossless writer), histograms keep their cumulative `(le, count)`
/// bucket pairs. This is the `?format=json` body of `GET /metrics` and
/// the frame reply for [`ServeCall::Metrics`].
fn metrics_json(snap: &fp_obs::Snapshot) -> Json {
    let counters = snap
        .counters
        .iter()
        .map(|(n, v)| (n.clone(), v.to_json()))
        .collect();
    let gauges = snap
        .gauges
        .iter()
        .map(|(n, v)| (n.clone(), Json::Int(i128::from(*v))))
        .collect();
    let histograms = snap
        .histograms
        .iter()
        .map(|h| {
            Json::object([
                ("name", h.name.to_json()),
                (
                    "buckets",
                    Json::Array(
                        h.buckets
                            .iter()
                            .map(|&(le, n)| {
                                Json::object([("le", le.to_json()), ("count", n.to_json())])
                            })
                            .collect(),
                    ),
                ),
                ("sum", h.sum.to_json()),
                ("count", h.count.to_json()),
            ])
        })
        .collect();
    Json::object([
        ("counters", Json::Object(counters)),
        ("gauges", Json::Object(gauges)),
        ("histograms", Json::Array(histograms)),
    ])
}

impl ApiState {
    /// Assemble the daemon state. `ttl` bounds session idle lifetime.
    pub fn new(registry: GraphRegistry, ttl: Option<Duration>) -> Self {
        Self::with_limits(registry, ttl, None)
    }

    /// Like [`ApiState::new`] plus a hard cap on live sessions
    /// (`fp serve --max-sessions N`).
    pub fn with_limits(
        registry: GraphRegistry,
        ttl: Option<Duration>,
        max_sessions: Option<usize>,
    ) -> Self {
        Self {
            registry,
            sessions: SessionTable::with_limits(ttl, max_sessions),
            stop: AtomicBool::new(false),
        }
    }

    /// Whether a `stop` call has been accepted.
    pub fn stop_requested(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }

    /// The registry (for callers embedding the state in-process).
    pub fn registry(&self) -> &GraphRegistry {
        &self.registry
    }

    /// The session table.
    pub fn sessions(&self) -> &SessionTable {
        &self.sessions
    }

    /// Dispatch one call; returns `(status, body)` where `status`
    /// follows HTTP semantics (200/201/400/404/408/409) on both
    /// transports.
    pub fn handle(&self, call: &ServeCall) -> (u16, Json) {
        let started = Instant::now();
        let span = fp_obs::span("serve.request");
        let (status, body) = self.dispatch(call);
        let _span = span.arg("status", i64::from(status));
        fp_obs::counter("fp_serve_requests_total").inc();
        fp_obs::histogram("fp_serve_handle_us", fp_obs::metrics::LATENCY_US_BUCKETS)
            .observe(u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX));
        (status, body)
    }

    fn dispatch(&self, call: &ServeCall) -> (u16, Json) {
        match call {
            ServeCall::Health => (
                200,
                Json::object([
                    ("ok", Json::Bool(true)),
                    ("protocol", PROTOCOL_VERSION.to_json()),
                    ("graphs", self.registry.len().to_json()),
                    ("sessions", self.sessions.len().to_json()),
                ]),
            ),
            ServeCall::GraphList => (
                200,
                Json::object([(
                    "graphs",
                    Json::Array(
                        self.registry
                            .list()
                            .iter()
                            .map(|e| e.fingerprint.to_json())
                            .collect(),
                    ),
                )]),
            ),
            ServeCall::GraphPut {
                name,
                source,
                edges_text,
            } => match self.registry.put_edge_list(name, source, edges_text) {
                Ok((outcome, entry)) => (
                    if outcome == PutOutcome::Created {
                        201
                    } else {
                        200
                    },
                    Json::object([
                        ("created", Json::Bool(outcome == PutOutcome::Created)),
                        ("graph", entry.fingerprint.to_json()),
                    ]),
                ),
                Err(err @ PutError::Conflict { .. }) => (409, error_body(err.to_string())),
                Err(err @ PutError::Invalid(_)) => (400, error_body(err.to_string())),
                Err(err @ PutError::OverBudget(_)) => (503, error_body(err.to_string())),
            },
            ServeCall::SessionOpen {
                graph,
                solver,
                seed,
            } => {
                let Some(entry) = self.registry.get(graph) else {
                    return (404, error_body(format!("unknown graph {graph:?}")));
                };
                match self.sessions.open(entry, *solver, *seed) {
                    Ok(handle) => (201, session_json(&handle)),
                    Err(OpenError::Conflict(id)) => (
                        409,
                        Json::object([
                            ("error", Json::Str("session already exists".into())),
                            ("session", id.to_json()),
                        ]),
                    ),
                    Err(OpenError::Saturated { limit }) => (
                        503,
                        Json::object([
                            (
                                "error",
                                Json::Str(format!(
                                    "session table is full ({limit} max, none evictable); \
                                     retry shortly"
                                )),
                            ),
                            ("retry_after_secs", Json::Int(RETRY_AFTER_SECS.into())),
                        ]),
                    ),
                }
            }
            ServeCall::SessionList => (
                200,
                Json::object([(
                    "sessions",
                    Json::Array(
                        self.sessions
                            .list()
                            .iter()
                            .map(|h| session_json(h))
                            .collect(),
                    ),
                )]),
            ),
            ServeCall::Query {
                session,
                ks,
                deadline_ms,
            } => {
                if ks.is_empty() {
                    return (400, error_body("ks must be non-empty"));
                }
                if ks.len() > MAX_QUERY_BUDGETS {
                    let msg = format!("more than {MAX_QUERY_BUDGETS} budgets in one query");
                    return (400, error_body(msg));
                }
                let Some(handle) = self.sessions.get(session) else {
                    return (404, error_body(format!("unknown session {session:?}")));
                };
                let n = handle.graph.problem.cgraph().node_count();
                if ks.iter().map(|&k| k.min(n)).sum::<usize>() > MAX_QUERY_PLACED {
                    let msg = format!("the reply would list more than {MAX_QUERY_PLACED} nodes");
                    return (400, error_body(msg));
                }
                handle.stats.queries.inc();
                handle
                    .stats
                    .bytes_in
                    .add(call.to_json().to_compact().len() as u64);
                let (status, body) = match handle.query(ks, *deadline_ms) {
                    Ok(answers) => (200, query_body(&handle, &answers)),
                    Err(QueryError::Expired { ready }) => {
                        handle.stats.deadline_misses.inc();
                        (
                            408,
                            Json::object([
                                ("error", Json::Str("deadline expired".into())),
                                ("ready_rungs", ready.to_json()),
                            ]),
                        )
                    }
                    Err(QueryError::Closed) => (404, error_body("session closed")),
                };
                handle.stats.bytes_out.add(body.to_compact().len() as u64);
                (status, body)
            }
            ServeCall::Mutate {
                session,
                mutation,
                from,
                to,
            } => {
                let edge: fn(NodeId, NodeId) -> Mutation = match mutation.as_str() {
                    "insert_edge" => |from, to| Mutation::InsertEdge { from, to },
                    "remove_edge" => |from, to| Mutation::RemoveEdge { from, to },
                    other => {
                        return (400, error_body(format!("unknown mutation kind {other:?}")));
                    }
                };
                let Some(handle) = self.sessions.get(session) else {
                    return (404, error_body(format!("unknown session {session:?}")));
                };
                let resolve = |label: &str| {
                    handle
                        .graph
                        .labels
                        .iter()
                        .position(|l| l == label)
                        .map(NodeId::new)
                };
                let Some(u) = resolve(from) else {
                    return (400, error_body(format!("unknown node label {from:?}")));
                };
                let Some(v) = resolve(to) else {
                    return (400, error_body(format!("unknown node label {to:?}")));
                };
                match handle.mutate(edge(u, v)) {
                    Ok(out) => (
                        200,
                        Json::object([
                            ("session", handle.id.to_json()),
                            ("applied", Json::Str(out.op.to_string())),
                            ("from", from.to_json()),
                            ("to", to.to_json()),
                            ("edges", out.edges.to_json()),
                            ("reordered", Json::Bool(out.reordered)),
                            ("retained_rungs", out.retained_rungs.to_json()),
                        ]),
                    ),
                    Err(MutateError::Conflict(msg)) => (409, error_body(msg)),
                    Err(MutateError::Closed) => (404, error_body("session closed")),
                }
            }
            ServeCall::SessionClose { session } => {
                if self.sessions.close(session) {
                    (200, Json::object([("closed", session.to_json())]))
                } else {
                    (404, error_body(format!("unknown session {session:?}")))
                }
            }
            ServeCall::Metrics => (200, metrics_json(&fp_obs::registry().snapshot())),
            ServeCall::Stop => {
                self.stop.store(true, Ordering::Release);
                (200, Json::object([("stopping", Json::Bool(true))]))
            }
        }
    }
}

fn query_body(handle: &SessionHandle, answers: &[KAnswer]) -> Json {
    let rows = answers
        .iter()
        .map(|a| {
            Json::object([
                ("k", a.k.to_json()),
                ("fr", a.fr.to_json()),
                (
                    "placement",
                    Json::Array(a.placement.iter().map(|v| v.index().to_json()).collect()),
                ),
                (
                    "labels",
                    Json::Array(
                        a.placement
                            .iter()
                            .map(|&v| Json::Str(handle.graph.node_label(v)))
                            .collect(),
                    ),
                ),
            ])
        })
        .collect();
    Json::object([
        ("session", handle.id.to_json()),
        ("solver", handle.solver.to_json()),
        ("results", Json::Array(rows)),
    ])
}

// ---------------------------------------------------------------------
// The server: one port, two sniffed transports
// ---------------------------------------------------------------------

/// A bound-but-not-yet-running daemon.
///
/// Binding and running are split so callers can learn the actual
/// address first (port 0 binds an ephemeral port — what every test and
/// the loadtest harness use).
pub struct Server {
    state: Arc<ApiState>,
    listener: TcpListener,
    addr: SocketAddr,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server").field("addr", &self.addr).finish()
    }
}

impl Server {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port).
    pub fn bind(addr: &str, state: ApiState) -> Result<Self, String> {
        let listener = TcpListener::bind(addr).map_err(|e| format!("cannot bind {addr}: {e}"))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("cannot read local addr: {e}"))?;
        Ok(Self {
            state: Arc::new(state),
            listener,
            addr,
        })
    }

    /// The actual bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Shared daemon state (for in-process embedding).
    pub fn state(&self) -> &Arc<ApiState> {
        &self.state
    }

    /// Accept connections until a `stop` call arrives; each connection
    /// is served on its own thread. Returns once the acceptor has
    /// drained and every session is told to stop.
    pub fn run(self) -> Result<(), String> {
        for conn in self.listener.incoming() {
            if self.state.stop_requested() {
                break;
            }
            let stream = match conn {
                Ok(s) => s,
                Err(e) => return Err(format!("accept failed: {e}")),
            };
            let state = Arc::clone(&self.state);
            let addr = self.addr;
            thread::Builder::new()
                .name("fp-serve-conn".into())
                .spawn(move || {
                    // Connection errors (hangups, bad requests) end the
                    // connection, never the daemon.
                    let _ = serve_connection(&state, stream, addr);
                })
                .map_err(|e| format!("cannot spawn connection thread: {e}"))?;
        }
        self.state.sessions().close_all();
        Ok(())
    }

    /// Run on a background thread; the returned handle stops the
    /// daemon cleanly on [`ServerHandle::stop`].
    pub fn spawn(self) -> ServerHandle {
        let addr = self.addr;
        let state = Arc::clone(&self.state);
        let join = thread::Builder::new()
            .name("fp-serve-acceptor".into())
            .spawn(move || self.run())
            .expect("cannot spawn acceptor thread");
        ServerHandle { addr, state, join }
    }
}

/// A running background daemon (see [`Server::spawn`]).
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<ApiState>,
    join: thread::JoinHandle<Result<(), String>>,
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle")
            .field("addr", &self.addr)
            .finish_non_exhaustive()
    }
}

impl ServerHandle {
    /// The daemon's address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Shared daemon state.
    pub fn state(&self) -> &Arc<ApiState> {
        &self.state
    }

    /// Send `stop` and join the acceptor.
    ///
    /// Idempotent with a wire-level stop: if a client already called
    /// `stop` (or `POST /stop`), the daemon may be gone before our
    /// request lands — that still counts as stopped, so only the join
    /// can fail then.
    pub fn stop(self) -> Result<(), String> {
        let request = ServeClient::connect(self.addr).and_then(|mut c| c.call(ServeCall::Stop));
        if let Err(e) = request {
            if !self.state.stop_requested() {
                return Err(e);
            }
        }
        self.join
            .join()
            .map_err(|_| "acceptor thread panicked".to_string())?
    }
}

/// The first byte of a frame is the high byte of a big-endian length
/// capped at [`MAX_FRAME_LEN`] (64 MiB ⇒ `0x04` at most); every HTTP
/// method starts with an ASCII letter (`0x41`+). One peeked byte
/// settles the transport.
fn serve_connection(state: &ApiState, stream: TcpStream, addr: SocketAddr) -> Result<(), String> {
    // Replies are small (a flushed burst per request); Nagle would hold
    // them hostage to the peer's delayed ACK on keep-alive connections
    // (~40 ms per round-trip on loopback), so send them immediately.
    let _ = stream.set_nodelay(true);
    let mut first = [0u8; 1];
    let n = stream
        .peek(&mut first)
        .map_err(|e| format!("cannot peek: {e}"))?;
    if n == 0 {
        return Ok(()); // connected and hung up
    }
    if first[0] <= 0x04 {
        serve_frame_connection(state, stream, addr)
    } else {
        serve_http_connection(state, stream, addr)
    }
}

fn wake_acceptor(addr: SocketAddr) {
    // The acceptor blocks in `accept`; poke it so the stop flag is
    // seen. The dummy connection is served (and sniffed as an
    // immediate hangup) if the race goes the other way.
    let _ = TcpStream::connect(addr);
}

fn serve_frame_connection(
    state: &ApiState,
    stream: TcpStream,
    addr: SocketAddr,
) -> Result<(), String> {
    let mut reader = BufReader::new(
        stream
            .try_clone()
            .map_err(|e| format!("cannot clone stream: {e}"))?,
    );
    let mut writer = BufWriter::new(stream);
    loop {
        match read_frame(&mut reader)? {
            None | Some(Frame::Shutdown) => return Ok(()),
            Some(Frame::Call(req)) => {
                let stopping = matches!(req.call, ServeCall::Stop);
                let (status, body) = state.handle(&req.call);
                write_frame(
                    &mut writer,
                    &Frame::Reply(ServeReply {
                        id: req.id,
                        status,
                        body,
                    }),
                )?;
                if stopping {
                    wake_acceptor(addr);
                    return Ok(());
                }
            }
            Some(other) => {
                write_frame(
                    &mut writer,
                    &Frame::Reply(ServeReply {
                        id: 0,
                        status: 400,
                        body: error_body(format!("expected a call frame, got {other:?}")),
                    }),
                )?;
                return Ok(());
            }
        }
    }
}

// ---------------------------------------------------------------------
// The HTTP/1.1 front end
// ---------------------------------------------------------------------

struct HttpRequest {
    method: String,
    path: String,
    query: BTreeMap<String, String>,
    body: String,
    /// Whether the client asked `Connection: keep-alive`. The daemon
    /// defaults to `Connection: close` (one request per connection);
    /// keep-alive is honored only when requested explicitly.
    keep_alive: bool,
}

fn http_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        414 => "URI Too Long",
        431 => "Request Header Fields Too Large",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// The `Retry-After` every 503 carries: the table drains in sweeps and
/// evictions, so "soon" is honest — clients with `--retries` backoff
/// on their own schedule anyway.
const RETRY_AFTER_SECS: u16 = 1;

/// Longest HTTP request line accepted, newline included (414 past it).
const MAX_REQUEST_LINE: usize = 64 * 1024;
/// Longest HTTP header line accepted, newline included (431 past it).
const MAX_HEADER_LINE: usize = 8 * 1024;
/// Most header lines one HTTP request may carry (431 past it).
const MAX_HEADERS: usize = 100;

/// Read one line of at most `max` bytes, newline included, refusing a
/// longer one with `status` before buffering any more of it. An empty
/// string is EOF.
fn read_capped_line(
    reader: &mut impl BufRead,
    max: usize,
    status: u16,
    what: &str,
) -> Result<String, (u16, String)> {
    let mut line = String::new();
    let n = std::io::Read::take(&mut *reader, max as u64)
        .read_line(&mut line)
        .map_err(|e| (400, format!("cannot read {what}: {e}")))?;
    if n == max && !line.ends_with('\n') {
        return Err((status, format!("{what} is longer than {max} bytes")));
    }
    Ok(line)
}

/// Read one HTTP request. `Ok(None)` is a clean EOF — the client hung
/// up between requests, which a keep-alive loop treats as the normal
/// end of the conversation rather than an error.
fn read_http_request(reader: &mut impl BufRead) -> Result<Option<HttpRequest>, (u16, String)> {
    let line = read_capped_line(reader, MAX_REQUEST_LINE, 414, "request line")?;
    if line.is_empty() {
        return Ok(None);
    }
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or((400, "empty request line".to_string()))?
        .to_string();
    let target = parts
        .next()
        .ok_or((400, "request line has no target".to_string()))?;
    let (path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q),
        None => (target.to_string(), ""),
    };
    let mut query = BTreeMap::new();
    for pair in raw_query.split('&').filter(|p| !p.is_empty()) {
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        query.insert(k.to_string(), v.to_string());
    }

    let mut content_len = 0usize;
    let mut keep_alive = false;
    for count in 0.. {
        let header = read_capped_line(reader, MAX_HEADER_LINE, 431, "header line")?;
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if count == MAX_HEADERS {
            return Err((431, format!("more than {MAX_HEADERS} header lines")));
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_len = value
                    .trim()
                    .parse()
                    .map_err(|_| (400, format!("bad Content-Length {value:?}")))?;
            } else if name.eq_ignore_ascii_case("connection") {
                keep_alive = value.trim().eq_ignore_ascii_case("keep-alive");
            }
        }
    }
    if content_len > MAX_FRAME_LEN as usize {
        return Err((413, format!("body of {content_len} bytes is too large")));
    }
    let mut body = vec![0u8; content_len];
    reader
        .read_exact(&mut body)
        .map_err(|e| (400, format!("truncated body: {e}")))?;
    let body = String::from_utf8(body).map_err(|_| (400, "body is not UTF-8".to_string()))?;
    Ok(Some(HttpRequest {
        method,
        path,
        query,
        body,
        keep_alive,
    }))
}

/// Map an HTTP request onto a [`ServeCall`].
fn route(req: &HttpRequest) -> Result<ServeCall, (u16, String)> {
    let q = |key: &str| -> Result<String, (u16, String)> {
        req.query
            .get(key)
            .cloned()
            .ok_or((400, format!("missing query parameter {key:?}")))
    };
    let q_u64 = |key: &str, default: u64| -> Result<u64, (u16, String)> {
        match req.query.get(key) {
            None => Ok(default),
            Some(s) => s.parse().map_err(|_| (400, format!("bad {key} {s:?}"))),
        }
    };
    let deadline = || -> Result<Option<u64>, (u16, String)> {
        match req.query.get("deadline_ms") {
            None => Ok(None),
            Some(_) => Ok(Some(q_u64("deadline_ms", 0)?)),
        }
    };
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), segments.as_slice()) {
        ("GET", ["health"]) => Ok(ServeCall::Health),
        ("GET", ["metrics"]) => Ok(ServeCall::Metrics),
        ("GET", ["graphs"]) => Ok(ServeCall::GraphList),
        ("POST", ["graphs"]) => Ok(ServeCall::GraphPut {
            name: q("name")?,
            source: q("source")?,
            edges_text: req.body.clone(),
        }),
        ("GET", ["sessions"]) => Ok(ServeCall::SessionList),
        ("POST", ["sessions"]) => {
            let solver = q("solver")?;
            let solver = fp_results::solver_from_label(&solver).map_err(|e| (400, e))?;
            Ok(ServeCall::SessionOpen {
                graph: q("graph")?,
                solver,
                seed: q_u64("seed", 0)?,
            })
        }
        ("GET", ["sessions", id, "placement"]) => Ok(ServeCall::Query {
            session: (*id).to_string(),
            ks: vec![q("k")?.parse().map_err(|_| (400, "bad k".to_string()))?],
            deadline_ms: deadline()?,
        }),
        ("GET", ["sessions", id, "curve"]) => {
            let ks: Vec<usize> = if let Some(list) = req.query.get("ks") {
                list.split(',')
                    .map(|s| s.trim().parse())
                    .collect::<Result<_, _>>()
                    .map_err(|_| (400, format!("bad ks {list:?}")))?
            } else {
                let kmax = q("kmax")?
                    .parse::<usize>()
                    .map_err(|_| (400, "bad kmax".to_string()))?;
                if kmax >= MAX_QUERY_BUDGETS {
                    return Err((400, format!("kmax must be below {MAX_QUERY_BUDGETS}")));
                }
                (0..=kmax).collect()
            };
            Ok(ServeCall::Query {
                session: (*id).to_string(),
                ks,
                deadline_ms: deadline()?,
            })
        }
        ("POST", ["sessions", id, "mutations"]) => Ok(ServeCall::Mutate {
            session: (*id).to_string(),
            mutation: q("mutation")?,
            from: q("from")?,
            to: q("to")?,
        }),
        ("DELETE", ["sessions", id]) => Ok(ServeCall::SessionClose {
            session: (*id).to_string(),
        }),
        ("POST", ["stop"]) => Ok(ServeCall::Stop),
        (_, ["health" | "metrics" | "graphs" | "sessions" | "stop", ..]) => {
            Err((405, format!("method {} not allowed here", req.method)))
        }
        _ => Err((404, format!("no route for {}", req.path))),
    }
}

fn write_http_payload(
    w: &mut impl Write,
    status: u16,
    content_type: &str,
    body: &str,
    keep_alive: bool,
) -> Result<(), String> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let retry_after = if status == 503 {
        format!("Retry-After: {RETRY_AFTER_SECS}\r\n")
    } else {
        String::new()
    };
    write!(
        w,
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {connection}\r\n{retry_after}\r\n{body}",
        http_reason(status),
        body.len(),
    )
    .and_then(|()| w.flush())
    .map_err(|e| format!("cannot write response: {e}"))
}

fn write_http_response(
    w: &mut impl Write,
    status: u16,
    body: &Json,
    keep_alive: bool,
) -> Result<(), String> {
    write_http_payload(
        w,
        status,
        "application/json",
        &body.to_compact(),
        keep_alive,
    )
}

fn serve_http_connection(
    state: &ApiState,
    stream: TcpStream,
    addr: SocketAddr,
) -> Result<(), String> {
    let mut reader = BufReader::new(
        stream
            .try_clone()
            .map_err(|e| format!("cannot clone stream: {e}"))?,
    );
    let mut writer = BufWriter::new(stream);
    loop {
        let req = match read_http_request(&mut reader) {
            Ok(Some(req)) => req,
            Ok(None) => return Ok(()), // clean hangup between requests
            Err((status, msg)) => {
                // Parse errors close the connection: framing is gone.
                return write_http_response(&mut writer, status, &error_body(msg), false);
            }
        };
        let keep_alive = req.keep_alive;
        // `GET /metrics` defaults to Prometheus text exposition;
        // `?format=json` falls through to the normal dispatch so the
        // JSON body stays byte-identical to a frame reply.
        if req.method == "GET"
            && req.path == "/metrics"
            && req.query.get("format").map(String::as_str) != Some("json")
        {
            fp_obs::counter("fp_serve_requests_total").inc();
            let text = fp_obs::registry().snapshot().to_prometheus_text();
            write_http_payload(
                &mut writer,
                200,
                "text/plain; version=0.0.4",
                &text,
                keep_alive,
            )?;
        } else {
            match route(&req) {
                Ok(call) => {
                    let stopping = matches!(call, ServeCall::Stop);
                    let (status, body) = state.handle(&call);
                    write_http_response(&mut writer, status, &body, keep_alive)?;
                    if stopping {
                        wake_acceptor(addr);
                        return Ok(());
                    }
                }
                Err((status, msg)) => {
                    write_http_response(&mut writer, status, &error_body(msg), keep_alive)?;
                }
            }
        }
        if !keep_alive {
            return Ok(());
        }
    }
}

// ---------------------------------------------------------------------
// The frame client
// ---------------------------------------------------------------------

/// A frame-transport client: one persistent connection, matched
/// call/reply ids.
///
/// This is what `fp loadtest` and the e2e tests drive; the CLI's
/// one-shot queries use it too.
pub struct ServeClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    next_id: u64,
}

impl std::fmt::Debug for ServeClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeClient")
            .field("next_id", &self.next_id)
            .finish_non_exhaustive()
    }
}

impl ServeClient {
    /// Connect to a running daemon.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("cannot connect: {e}"))?;
        let reader = BufReader::new(
            stream
                .try_clone()
                .map_err(|e| format!("cannot clone stream: {e}"))?,
        );
        Ok(Self {
            reader,
            writer: BufWriter::new(stream),
            next_id: 1,
        })
    }

    /// Send one call, wait for its reply.
    pub fn call(&mut self, call: ServeCall) -> Result<ServeReply, String> {
        let id = self.next_id;
        self.next_id += 1;
        write_frame(&mut self.writer, &Frame::Call(ServeRequest { id, call }))?;
        match read_frame(&mut self.reader)? {
            Some(Frame::Reply(reply)) if reply.id == id => Ok(reply),
            Some(Frame::Reply(reply)) => {
                Err(format!("reply id {} does not match call id {id}", reply.id))
            }
            Some(other) => Err(format!("expected a reply frame, got {other:?}")),
            None => Err("server hung up before replying".to_string()),
        }
    }

    /// Send a clean `Shutdown` frame and drop the connection (the
    /// daemon keeps running — this ends only this conversation).
    pub fn hang_up(mut self) -> Result<(), String> {
        write_frame(&mut self.writer, &Frame::Shutdown)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::GraphRegistry;
    use crate::Problem;
    use fp_graph::DiGraph;
    use fp_propagation::FilterSet;
    use std::io::Read;

    fn api() -> ApiState {
        let registry = GraphRegistry::new();
        registry
            .put_edge_list(
                "fig1",
                "s",
                "s x\ns y\nx z1\nx z2\ny z2\ny z3\nz1 w\nz2 w\nz3 w\n",
            )
            .unwrap();
        ApiState::new(registry, None)
    }

    fn open_session(api: &ApiState, solver: SolverKind, seed: u64) -> String {
        open_on(api, "fig1", solver, seed)
    }

    fn open_on(api: &ApiState, graph: &str, solver: SolverKind, seed: u64) -> String {
        let (status, body) = api.handle(&ServeCall::SessionOpen {
            graph: graph.into(),
            solver,
            seed,
        });
        assert_eq!(status, 201, "{body:?}");
        body.expect("session")
            .unwrap()
            .as_str()
            .unwrap()
            .to_string()
    }

    /// Every row of a query reply carries the batch ladder's k, FR bits
    /// and placement nodes, in order.
    fn assert_matches_batch(body: &Json, batch: Vec<(usize, FilterSet, f64)>, what: &str) {
        let results = body.expect("results").unwrap().as_array().unwrap();
        assert_eq!(results.len(), batch.len(), "{what}");
        for (row, (k, placement, fr)) in results.iter().zip(batch) {
            assert_eq!(row.expect("k").unwrap().as_usize(), Some(k), "{what}");
            let got_fr = row.expect("fr").unwrap().as_f64().unwrap();
            assert_eq!(got_fr.to_bits(), fr.to_bits(), "{what} k={k}");
            let got_nodes: Vec<usize> = row
                .expect("placement")
                .unwrap()
                .as_array()
                .unwrap()
                .iter()
                .map(|v| v.as_usize().unwrap())
                .collect();
            let want: Vec<usize> = placement.nodes().iter().map(|v| v.index()).collect();
            assert_eq!(got_nodes, want, "{what} k={k}");
        }
    }

    #[test]
    fn health_counts_graphs_and_sessions() {
        let api = api();
        let (status, body) = api.handle(&ServeCall::Health);
        assert_eq!(status, 200);
        assert_eq!(body.expect("graphs").unwrap().as_usize(), Some(1));
        assert_eq!(body.expect("sessions").unwrap().as_usize(), Some(0));
        open_session(&api, SolverKind::GreedyAll, 0);
        let (_, body) = api.handle(&ServeCall::Health);
        assert_eq!(body.expect("sessions").unwrap().as_usize(), Some(1));
    }

    #[test]
    fn duplicate_session_is_a_409_naming_the_survivor() {
        let api = api();
        let id = open_session(&api, SolverKind::GreedyAll, 0);
        let (status, body) = api.handle(&ServeCall::SessionOpen {
            graph: "fig1".into(),
            solver: SolverKind::GreedyAll,
            seed: 0,
        });
        assert_eq!(status, 409);
        assert_eq!(body.expect("session").unwrap().as_str(), Some(id.as_str()));
        // A different seed is a different session.
        let other = open_session(&api, SolverKind::GreedyAll, 1);
        assert_ne!(id, other);
    }

    #[test]
    fn queries_are_bit_identical_to_the_batch_ladder() {
        let api = api();
        let ks: Vec<usize> = vec![0, 1, 2, 3];
        for solver in SolverKind::PAPER_SET {
            let seed = 42;
            let id = open_session(&api, solver, seed);
            let (status, body) = api.handle(&ServeCall::Query {
                session: id,
                ks: ks.clone(),
                deadline_ms: None,
            });
            assert_eq!(status, 200, "{solver:?}: {body:?}");
            let batch = api
                .registry()
                .get("fig1")
                .unwrap()
                .problem
                .solve_ladder(solver, &ks, seed);
            assert_matches_batch(&body, batch, solver.label());
        }
    }

    #[test]
    fn warm_sessions_answer_smaller_budgets_after_larger_ones() {
        let api = api();
        let id = open_session(&api, SolverKind::GreedyAll, 0);
        let big = api.handle(&ServeCall::Query {
            session: id.clone(),
            ks: vec![3],
            deadline_ms: None,
        });
        assert_eq!(big.0, 200);
        let (status, body) = api.handle(&ServeCall::Query {
            session: id,
            ks: vec![1],
            deadline_ms: None,
        });
        assert_eq!(status, 200);
        let fig1 = api.registry().get("fig1").unwrap();
        let batch = fig1.problem.solve_ladder(SolverKind::GreedyAll, &[1], 0);
        let row = &body.expect("results").unwrap().as_array().unwrap()[0];
        assert_eq!(
            row.expect("fr").unwrap().as_f64().unwrap().to_bits(),
            batch[0].2.to_bits()
        );
    }

    #[test]
    fn zero_deadline_expires_fresh_work_but_serves_cached_rungs() {
        let api = api();
        // A ladder rung and a one-shot draw are both units of work the
        // deadline is checked before.
        for solver in [SolverKind::GreedyAll, SolverKind::RandI] {
            let id = open_session(&api, solver, 0);
            let query = |k: usize, deadline_ms: Option<u64>| {
                api.handle(&ServeCall::Query {
                    session: id.clone(),
                    ks: vec![k],
                    deadline_ms,
                })
            };
            // Demand fresh work in zero time: deterministic 408.
            let (status, body) = query(3, Some(0));
            assert_eq!(status, 408, "{solver:?}: {body:?}");
            // Budget 0 is computed while warming, so it is served even
            // at 0 ms.
            assert_eq!(query(0, Some(0)).0, 200, "{solver:?}");
            // Without a deadline the interrupted budget completes, and
            // from then on it is cached too.
            assert_eq!(query(3, None).0, 200, "{solver:?}");
            assert_eq!(query(3, Some(0)).0, 200, "{solver:?}");
        }
    }

    #[test]
    fn error_paths_name_the_problem() {
        let api = api();
        let (status, _) = api.handle(&ServeCall::SessionOpen {
            graph: "nope".into(),
            solver: SolverKind::GreedyAll,
            seed: 0,
        });
        assert_eq!(status, 404);
        let (status, _) = api.handle(&ServeCall::Query {
            session: "nope".into(),
            ks: vec![1],
            deadline_ms: None,
        });
        assert_eq!(status, 404);
        let id = open_session(&api, SolverKind::GreedyAll, 0);
        let query = |ks: Vec<usize>| {
            api.handle(&ServeCall::Query {
                session: id.clone(),
                ks,
                deadline_ms: None,
            })
            .0
        };
        assert_eq!(query(vec![]), 400);
        // The budget cap holds for frame queries and `ks=` lists too.
        assert_eq!(query(vec![1; MAX_QUERY_BUDGETS + 1]), 400);
        assert_eq!(query(vec![1; MAX_QUERY_BUDGETS]), 200);
        let (status, _) = api.handle(&ServeCall::SessionClose {
            session: "nope".into(),
        });
        assert_eq!(status, 404);
        let (status, _) = api.handle(&ServeCall::GraphPut {
            name: "fig1".into(),
            source: "s".into(),
            edges_text: "s t\n".into(),
        });
        assert_eq!(status, 409);
    }

    #[test]
    fn a_rejected_upload_is_not_echoed_back() {
        let api = ApiState::new(GraphRegistry::new(), None);
        let (status, body) = api.handle(&ServeCall::GraphPut {
            name: "long".into(),
            source: "s".into(),
            edges_text: "x".repeat(1 << 20),
        });
        assert_eq!(status, 400);
        let body = body.to_compact();
        assert!(body.len() < 1024, "{} bytes: {body}", body.len());
    }

    #[test]
    fn queries_whose_reply_would_list_too_many_nodes_are_400() {
        // A star s → v1 … v300: Rand_I at k ≥ n places every leaf, so
        // each repeat of that budget adds n − 1 nodes to the reply.
        let n = 301;
        let edges: String = (1..n).map(|i| format!("s v{i}\n")).collect();
        let registry = GraphRegistry::new();
        registry.put_edge_list("star", "s", &edges).unwrap();
        let api = ApiState::new(registry, None);
        let id = open_on(&api, "star", SolverKind::RandI, 0);
        let query = |ks: Vec<usize>| {
            api.handle(&ServeCall::Query {
                session: id.clone(),
                ks,
                deadline_ms: None,
            })
        };
        // Past the cap by one row of n, yet within the budget count.
        let rows = MAX_QUERY_PLACED / n + 1;
        assert!(rows <= MAX_QUERY_BUDGETS);
        let (status, body) = query(vec![n; rows]);
        assert_eq!(status, 400, "{body:?}");
        let msg = body.expect("error").unwrap().as_str().unwrap().to_string();
        assert!(msg.contains("nodes"), "{msg}");
        // A budget past n lists no more than n nodes, so it counts as n.
        assert_eq!(query(vec![usize::MAX; rows]).0, 400);
        // The refusals did no solver work; a few repeats still answer.
        let (status, body) = query(vec![n; 4]);
        assert_eq!(status, 200, "{body:?}");
        for row in body.expect("results").unwrap().as_array().unwrap() {
            let placed = row.expect("placement").unwrap().as_array().unwrap();
            assert_eq!(placed.len(), n - 1);
        }
    }

    #[test]
    fn mutated_sessions_answer_bit_identical_to_a_batch_solve_on_the_mutated_graph() {
        let api = api();
        let ks: Vec<usize> = vec![0, 1, 2, 3];
        let seed = 42;
        let fig1 = api.registry().get("fig1").unwrap();
        // The batch oracle: the same edge inserted into a private copy.
        // fig1 labels by first appearance: s=0 x=1 y=2 z1=3 z2=4 z3=5 w=6.
        let mut cg = fig1.problem.cgraph().clone();
        cg.insert_edge(NodeId::new(3), NodeId::new(5)).unwrap();
        let mutated = Problem::from_cgraph(cg);
        for solver in SolverKind::PAPER_SET {
            let id = open_session(&api, solver, seed);
            let query = || {
                api.handle(&ServeCall::Query {
                    session: id.clone(),
                    ks: ks.clone(),
                    deadline_ms: None,
                })
            };
            // Warm the answers so the mutation has rungs to retain.
            let (status, body) = query();
            assert_eq!(status, 200, "{solver:?}: {body:?}");
            let batch = fig1.problem.solve_ladder(solver, &ks, seed);
            assert_matches_batch(&body, batch, solver.label());
            let (status, body) = api.handle(&ServeCall::Mutate {
                session: id.clone(),
                mutation: "insert_edge".into(),
                from: "z1".into(),
                to: "z3".into(),
            });
            assert_eq!(status, 200, "{solver:?}: {body:?}");
            assert_eq!(
                body.expect("applied").unwrap().as_str(),
                Some("insert_edge")
            );
            assert_eq!(body.expect("edges").unwrap().as_usize(), Some(10));
            assert_eq!(body.expect("reordered").unwrap(), &Json::Bool(false));
            let retained = body.expect("retained_rungs").unwrap().as_usize();
            match solver {
                // Warm picks were [z2]; the insertion affects {z3, w},
                // so the one warm rung is predicted to survive.
                SolverKind::GreedyAll => assert_eq!(retained, Some(1)),
                // Independent draws are never retained.
                SolverKind::RandI | SolverKind::RandW => {
                    assert_eq!(retained, Some(0), "{solver:?}");
                }
                _ => {}
            }
            let (status, body) = query();
            assert_eq!(status, 200, "{solver:?}: {body:?}");
            let batch = mutated.solve_ladder(solver, &ks, seed);
            assert_matches_batch(&body, batch, &format!("{solver:?} after the mutation"));
            // The session reports the mutation in its listed stats.
            let (_, listing) = api.handle(&ServeCall::SessionList);
            let sessions = listing.expect("sessions").unwrap().as_array().unwrap();
            let row = sessions
                .iter()
                .find(|s| s.expect("session").unwrap().as_str() == Some(id.as_str()))
                .unwrap();
            let stats = row.expect("stats").unwrap();
            assert_eq!(
                stats.expect("mutations").unwrap().as_usize(),
                Some(1),
                "{solver:?}"
            );
        }
        // The registry's shared entry is untouched.
        assert_eq!(fig1.problem.cgraph().edge_count(), 9);
    }

    #[test]
    fn conflicting_mutations_are_409_and_change_nothing() {
        let api = api();
        let id = open_session(&api, SolverKind::GreedyAll, 0);
        for (mutation, from, to) in [
            ("remove_edge", "s", "w"),   // unknown edge
            ("insert_edge", "s", "x"),   // duplicate
            ("insert_edge", "w", "s"),   // cycle
            ("insert_edge", "z2", "z2"), // self-loop
        ] {
            let (status, body) = api.handle(&ServeCall::Mutate {
                session: id.clone(),
                mutation: mutation.into(),
                from: from.into(),
                to: to.into(),
            });
            assert_eq!(status, 409, "{mutation} {from}->{to}: {body:?}");
        }
        // Bad input shapes are 400s, missing sessions 404s.
        let (status, _) = api.handle(&ServeCall::Mutate {
            session: id.clone(),
            mutation: "paint_node".into(),
            from: "s".into(),
            to: "x".into(),
        });
        assert_eq!(status, 400);
        let (status, _) = api.handle(&ServeCall::Mutate {
            session: id.clone(),
            mutation: "insert_edge".into(),
            from: "nope".into(),
            to: "x".into(),
        });
        assert_eq!(status, 400);
        let (status, _) = api.handle(&ServeCall::Mutate {
            session: "nope".into(),
            mutation: "insert_edge".into(),
            from: "s".into(),
            to: "x".into(),
        });
        assert_eq!(status, 404);
        // After all those rejections the session still answers the
        // ORIGINAL graph's ladder bit-for-bit.
        let fig1 = api.registry().get("fig1").unwrap();
        let batch = fig1.problem.solve_ladder(SolverKind::GreedyAll, &[2], 0);
        let (status, body) = api.handle(&ServeCall::Query {
            session: id,
            ks: vec![2],
            deadline_ms: None,
        });
        assert_eq!(status, 200);
        let row = &body.expect("results").unwrap().as_array().unwrap()[0];
        assert_eq!(
            row.expect("fr").unwrap().as_f64().unwrap().to_bits(),
            batch[0].2.to_bits()
        );
    }

    #[test]
    fn removals_that_orphan_a_placed_filter_are_409() {
        // A chain s → a → b: Rand_K at k = 2 places {a, b}, and so does
        // Rand_I at k = n = 3 (each non-source node with probability
        // 1), so removing a → b would leave placed filter b unreachable.
        let registry = GraphRegistry::new();
        registry.put_edge_list("chain", "s", "s a\na b\n").unwrap();
        let api = ApiState::new(registry, None);
        let remove_ab = |session: &str| {
            api.handle(&ServeCall::Mutate {
                session: session.into(),
                mutation: "remove_edge".into(),
                from: "a".into(),
                to: "b".into(),
            })
        };
        for (solver, k) in [(SolverKind::RandK, 2), (SolverKind::RandI, 3)] {
            let id = open_on(&api, "chain", solver, 1);
            let (status, _) = api.handle(&ServeCall::Query {
                session: id.clone(),
                ks: vec![k],
                deadline_ms: None,
            });
            assert_eq!(status, 200);
            let (status, body) = remove_ab(&id);
            assert_eq!(status, 409, "{solver:?}: {body:?}");
            let msg = body.expect("error").unwrap().as_str().unwrap().to_string();
            assert!(msg.contains("orphan"), "{msg}");
            // The refused removal left the graph intact: a fresh session
            // with nothing placed yet can remove that same edge.
            let (status, _) = api.handle(&ServeCall::SessionClose {
                session: id.clone(),
            });
            assert_eq!(status, 200);
            let fresh = open_on(&api, "chain", solver, 1);
            let (status, body) = remove_ab(&fresh);
            assert_eq!(status, 200, "{solver:?}: {body:?}");
            assert_eq!(body.expect("edges").unwrap().as_usize(), Some(1));
            api.handle(&ServeCall::SessionClose { session: fresh });
        }
    }

    #[test]
    fn a_rand_i_draw_memo_stays_capped_and_answers_match_the_batch() {
        let api = api();
        let seed = 3;
        let id = open_session(&api, SolverKind::RandI, seed);
        let fig1 = api.registry().get("fig1").unwrap();
        let budgets: Vec<usize> = (0..200).collect();
        // 200 distinct budgets, eight a query, then budgets whose draws
        // were evicted long ago: each recomputes the same bits.
        for ks in budgets.chunks(8).chain([&[0, 5, 199][..]]) {
            let (status, body) = api.handle(&ServeCall::Query {
                session: id.clone(),
                ks: ks.to_vec(),
                deadline_ms: None,
            });
            assert_eq!(status, 200, "{body:?}");
            let batch = fig1.problem.solve_ladder(SolverKind::RandI, ks, seed);
            assert_matches_batch(&body, batch, &format!("ks {ks:?}"));
            let (_, list) = api.handle(&ServeCall::SessionList);
            let sessions = list.expect("sessions").unwrap().as_array().unwrap();
            let stats = sessions[0].expect("stats").unwrap();
            let depth = stats.expect("rung_depth").unwrap().as_usize().unwrap();
            assert!(depth <= MAX_MEMO_DRAWS, "rung_depth {depth} after {ks:?}");
        }
    }

    #[test]
    fn a_removal_that_orphans_an_evicted_draws_node_is_refused() {
        // A star: removing s → v leaves v unreachable. Rand_I's draws at
        // one seed are nested in k, so after the draw at k = 100 gives
        // way to draws at 0..64 (the last of which clears the memo),
        // nodes only the k = 100 draw placed are in no cached answer.
        let n = 1000;
        let g = DiGraph::from_pairs(n, (1..n).map(|v| (0, v))).unwrap();
        let cg = CGraph::new(&g, NodeId::new(0)).unwrap();
        let solver = SolverKind::RandI.build::<Wide128>();
        let mut epoch = Epoch {
            cg: &cg,
            session: solver.session(&cg, 7),
            answers: Answers::Draws {
                memo: BTreeMap::new(),
                placed: BitSet::new(n),
            },
        };
        assert!(epoch.fill(100, None));
        let wide = epoch.answer(100).placement;
        for k in 0..MAX_MEMO_DRAWS {
            assert!(epoch.fill(k, None));
            assert!(epoch.ready() <= MAX_MEMO_DRAWS);
        }
        assert!(!epoch.cached(100), "the k = 100 draw was evicted");
        let Answers::Draws { memo, .. } = &epoch.answers else {
            unreachable!()
        };
        let cached: Vec<NodeId> = memo
            .values()
            .flat_map(|a| a.placement.iter().copied())
            .collect();
        let lost = *wide
            .iter()
            .find(|v| !cached.contains(v))
            .expect("a node only the evicted draw placed");
        let remove = |to: NodeId| Mutation::RemoveEdge {
            from: NodeId::new(0),
            to,
        };
        let err = epoch.mutate(remove(lost)).unwrap_err();
        assert!(err.contains("orphan"), "{err}");
        let never = (1..n)
            .map(NodeId::new)
            .find(|v| !wide.contains(v))
            .expect("a node no draw placed");
        assert!(epoch.mutate(remove(never)).is_ok());
    }

    #[test]
    fn close_then_query_is_a_404() {
        let api = api();
        let id = open_session(&api, SolverKind::GreedyAll, 0);
        let (status, _) = api.handle(&ServeCall::SessionClose {
            session: id.clone(),
        });
        assert_eq!(status, 200);
        let (status, _) = api.handle(&ServeCall::Query {
            session: id,
            ks: vec![1],
            deadline_ms: None,
        });
        assert_eq!(status, 404);
    }

    #[test]
    fn idle_sessions_expire_lazily() {
        let registry = GraphRegistry::new();
        registry.put_edge_list("g", "s", "s a\na b\n").unwrap();
        let api = ApiState::new(registry, Some(Duration::from_millis(0)));
        let (status, _) = api.handle(&ServeCall::SessionOpen {
            graph: "g".into(),
            solver: SolverKind::GreedyAll,
            seed: 0,
        });
        assert_eq!(status, 201);
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(api.sessions().list().len(), 0, "ttl 0 expires on sweep");
    }

    #[test]
    fn http_routes_map_onto_serve_calls() {
        let req = |method: &str, target: &str, body: &str| {
            let raw = format!(
                "{method} {target} HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            );
            let mut reader = std::io::BufReader::new(raw.as_bytes());
            let parsed = read_http_request(&mut reader).unwrap().unwrap();
            route(&parsed)
        };
        assert_eq!(req("GET", "/health", "").unwrap(), ServeCall::Health);
        assert_eq!(req("GET", "/metrics", "").unwrap(), ServeCall::Metrics);
        assert_eq!(
            req("GET", "/metrics?format=json", "").unwrap(),
            ServeCall::Metrics
        );
        assert_eq!(
            req("POST", "/graphs?name=g&source=s", "s a\n").unwrap(),
            ServeCall::GraphPut {
                name: "g".into(),
                source: "s".into(),
                edges_text: "s a\n".into(),
            }
        );
        assert_eq!(
            req("POST", "/sessions?graph=g&solver=G_ALL&seed=7", "").unwrap(),
            ServeCall::SessionOpen {
                graph: "g".into(),
                solver: SolverKind::GreedyAll,
                seed: 7,
            }
        );
        assert_eq!(
            req("GET", "/sessions/abc/placement?k=3", "").unwrap(),
            ServeCall::Query {
                session: "abc".into(),
                ks: vec![3],
                deadline_ms: None,
            }
        );
        assert_eq!(
            req("GET", "/sessions/abc/curve?kmax=2&deadline_ms=50", "").unwrap(),
            ServeCall::Query {
                session: "abc".into(),
                ks: vec![0, 1, 2],
                deadline_ms: Some(50),
            }
        );
        assert_eq!(
            req("GET", "/sessions/abc/curve?ks=2,0,2", "").unwrap(),
            ServeCall::Query {
                session: "abc".into(),
                ks: vec![2, 0, 2],
                deadline_ms: None,
            }
        );
        assert_eq!(
            req(
                "POST",
                "/sessions/abc/mutations?mutation=insert_edge&from=a&to=b",
                ""
            )
            .unwrap(),
            ServeCall::Mutate {
                session: "abc".into(),
                mutation: "insert_edge".into(),
                from: "a".into(),
                to: "b".into(),
            }
        );
        assert_eq!(
            req("DELETE", "/sessions/abc", "").unwrap(),
            ServeCall::SessionClose {
                session: "abc".into(),
            }
        );
        assert_eq!(req("POST", "/stop", "").unwrap(), ServeCall::Stop);
        assert_eq!(req("PATCH", "/health", "").unwrap_err().0, 405);
        assert_eq!(req("GET", "/wat", "").unwrap_err().0, 404);
        assert_eq!(
            req("GET", "/sessions/abc/placement", "").unwrap_err().0,
            400
        );
        // Curves past the budget cap are refused before `0..=kmax` is
        // built.
        let curve = |kmax: usize| req("GET", &format!("/sessions/abc/curve?kmax={kmax}"), "");
        assert_eq!(curve(4_000_000_000).unwrap_err().0, 400);
        assert_eq!(curve(MAX_QUERY_BUDGETS).unwrap_err().0, 400);
        let ServeCall::Query { ks, .. } = curve(MAX_QUERY_BUDGETS - 1).unwrap() else {
            panic!("a curve is a query");
        };
        assert_eq!(ks.len(), MAX_QUERY_BUDGETS);
    }

    #[test]
    fn http_requests_past_the_line_and_header_caps_are_refused() {
        // Returns the status of a refusal and how many bytes were read.
        let parse = |raw: &[u8]| {
            let mut rest = raw;
            let status = read_http_request(&mut rest).err().map(|(status, _)| status);
            (status, raw.len() - rest.len())
        };
        let line = |pad: usize| format!("GET /health?pad={} HTTP/1.1\r\n", "x".repeat(pad));
        let fits = MAX_REQUEST_LINE - line(0).len();
        assert_eq!(line(fits).len(), MAX_REQUEST_LINE);
        assert_eq!(parse(format!("{}\r\n", line(fits)).as_bytes()).0, None);
        assert_eq!(
            parse(format!("{}\r\n", line(fits + 1)).as_bytes()).0,
            Some(414)
        );
        // A line with no end is refused after reading only the cap.
        let endless = vec![b'G'; 4 * MAX_REQUEST_LINE];
        assert_eq!(parse(&endless), (Some(414), MAX_REQUEST_LINE));

        let request =
            |headers: &[String]| format!("GET /health HTTP/1.1\r\n{}\r\n", headers.concat());
        let header = |pad: usize| format!("X-Pad: {}\r\n", "x".repeat(pad));
        let fits = MAX_HEADER_LINE - header(0).len();
        assert_eq!(parse(request(&[header(fits)]).as_bytes()).0, None);
        assert_eq!(parse(request(&[header(fits + 1)]).as_bytes()).0, Some(431));
        let many = vec![header(1); MAX_HEADERS];
        assert_eq!(parse(request(&many).as_bytes()).0, None);
        let too_many = vec![header(1); MAX_HEADERS + 1];
        assert_eq!(parse(request(&too_many).as_bytes()).0, Some(431));
    }

    #[test]
    fn frame_and_http_transports_serve_the_same_bytes() {
        let server = Server::bind("127.0.0.1:0", api()).unwrap();
        let addr = server.local_addr();
        let handle = server.spawn();

        let mut client = ServeClient::connect(addr).unwrap();
        let open = client
            .call(ServeCall::SessionOpen {
                graph: "fig1".into(),
                solver: SolverKind::GreedyAll,
                seed: 0,
            })
            .unwrap();
        assert_eq!(open.status, 201);
        let id = open
            .body
            .expect("session")
            .unwrap()
            .as_str()
            .unwrap()
            .to_string();
        let frame_reply = client
            .call(ServeCall::Query {
                session: id.clone(),
                ks: vec![2],
                deadline_ms: None,
            })
            .unwrap();
        assert_eq!(frame_reply.status, 200);

        // Same query over HTTP: the body bytes must match the frame
        // reply's body exactly.
        let mut http = TcpStream::connect(addr).unwrap();
        write!(
            http,
            "GET /sessions/{id}/placement?k=2 HTTP/1.1\r\nHost: x\r\n\r\n"
        )
        .unwrap();
        let mut raw = String::new();
        http.read_to_string(&mut raw).unwrap();
        let (head, http_body) = raw.split_once("\r\n\r\n").unwrap();
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert_eq!(http_body, frame_reply.body.to_compact());

        client.hang_up().unwrap();
        handle.stop().unwrap();
    }

    /// Read one HTTP response off a keep-alive connection: status
    /// line + headers, then exactly `Content-Length` body bytes.
    fn read_http_response(reader: &mut impl BufRead) -> (u16, BTreeMap<String, String>, String) {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let status: u16 = line.split_whitespace().nth(1).unwrap().parse().unwrap();
        let mut headers = BTreeMap::new();
        loop {
            let mut header = String::new();
            reader.read_line(&mut header).unwrap();
            let header = header.trim_end();
            if header.is_empty() {
                break;
            }
            let (name, value) = header.split_once(':').unwrap();
            headers.insert(name.to_ascii_lowercase(), value.trim().to_string());
        }
        let len: usize = headers["content-length"].parse().unwrap();
        let mut body = vec![0u8; len];
        reader.read_exact(&mut body).unwrap();
        (status, headers, String::from_utf8(body).unwrap())
    }

    #[test]
    fn keep_alive_serves_many_requests_on_one_connection() {
        let server = Server::bind("127.0.0.1:0", api()).unwrap();
        let addr = server.local_addr();
        let handle = server.spawn();

        let stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        for _ in 0..3 {
            write!(
                writer,
                "GET /health HTTP/1.1\r\nHost: x\r\nConnection: keep-alive\r\n\r\n"
            )
            .unwrap();
            let (status, headers, body) = read_http_response(&mut reader);
            assert_eq!(status, 200);
            assert_eq!(headers["connection"], "keep-alive");
            assert!(body.contains("\"ok\":true"), "{body}");
        }
        // Without the header the daemon still closes after one reply.
        write!(writer, "GET /health HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let (status, headers, _) = read_http_response(&mut reader);
        assert_eq!(status, 200);
        assert_eq!(headers["connection"], "close");
        let mut rest = String::new();
        reader.read_to_string(&mut rest).unwrap();
        assert!(rest.is_empty(), "connection must be closed after reply");

        handle.stop().unwrap();
    }

    #[test]
    fn metrics_endpoint_serves_prometheus_text_and_lossless_json() {
        let server = Server::bind("127.0.0.1:0", api()).unwrap();
        let addr = server.local_addr();
        let handle = server.spawn();

        // A request beforehand guarantees the serve series exist.
        let mut client = ServeClient::connect(addr).unwrap();
        assert_eq!(client.call(ServeCall::Health).unwrap().status, 200);

        let stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        write!(
            writer,
            "GET /metrics HTTP/1.1\r\nHost: x\r\nConnection: keep-alive\r\n\r\n"
        )
        .unwrap();
        let (status, headers, text) = read_http_response(&mut reader);
        assert_eq!(status, 200);
        assert!(headers["content-type"].starts_with("text/plain"));
        assert!(
            text.contains("# TYPE fp_serve_requests_total counter"),
            "{text}"
        );
        assert!(
            text.contains("fp_serve_handle_us_bucket{le=\"+Inf\"}"),
            "{text}"
        );

        // Same connection (keep-alive): the JSON flavor, which must be
        // byte-compatible with the frame reply's canonical shape.
        write!(
            writer,
            "GET /metrics?format=json HTTP/1.1\r\nHost: x\r\n\r\n"
        )
        .unwrap();
        let (status, headers, body) = read_http_response(&mut reader);
        assert_eq!(status, 200);
        assert_eq!(headers["content-type"], "application/json");
        let parsed = Json::parse(&body).unwrap();
        let counters = parsed.expect("counters").unwrap();
        assert!(counters.get("fp_serve_requests_total").is_some(), "{body}");
        assert!(parsed.expect("histograms").unwrap().as_array().is_some());

        let frame_reply = client.call(ServeCall::Metrics).unwrap();
        assert_eq!(frame_reply.status, 200);
        assert!(frame_reply
            .body
            .expect("counters")
            .unwrap()
            .get("fp_serve_requests_total")
            .is_some());

        client.hang_up().unwrap();
        handle.stop().unwrap();
    }

    #[test]
    fn session_stats_ride_along_in_session_json() {
        let api = api();
        let id = open_session(&api, SolverKind::GreedyAll, 0);
        let query = |ks: Vec<usize>, deadline_ms: Option<u64>| {
            api.handle(&ServeCall::Query {
                session: id.clone(),
                ks,
                deadline_ms,
            })
        };
        // Fresh session, zero deadline: a deterministic deadline miss.
        assert_eq!(query(vec![1], Some(0)).0, 408, "fresh rung at 0 ms");
        assert_eq!(query(vec![1], None).0, 200);
        assert_eq!(query(vec![1], None).0, 200, "second k=1 query is warm");

        let (status, body) = api.handle(&ServeCall::SessionList);
        assert_eq!(status, 200);
        let sessions = body.expect("sessions").unwrap().as_array().unwrap();
        let stats = sessions[0].expect("stats").unwrap();
        let get = |key: &str| stats.expect(key).unwrap().as_u64().unwrap();
        assert_eq!(get("queries"), 3);
        assert_eq!(get("rung_depth"), 1);
        assert!(get("rung_cache_hits") >= 1, "second k=1 query was warm");
        assert_eq!(get("deadline_misses"), 1);
        assert!(get("bytes_in") > 0);
        assert!(get("bytes_out") > 0);
    }

    fn api_with_cap(cap: usize) -> ApiState {
        let registry = GraphRegistry::new();
        registry
            .put_edge_list(
                "fig1",
                "s",
                "s x\ns y\nx z1\nx z2\ny z2\ny z3\nz1 w\nz2 w\nz3 w\n",
            )
            .unwrap();
        ApiState::with_limits(registry, None, Some(cap))
    }

    fn open_call(seed: u64) -> ServeCall {
        ServeCall::SessionOpen {
            graph: "fig1".into(),
            solver: SolverKind::GreedyAll,
            seed,
        }
    }

    /// Block until the session's warm-up solve lands (bounded).
    fn wait_ready(api: &ApiState, id: &str) {
        let handle = api.sessions().get(id).expect("session exists");
        for _ in 0..500 {
            if handle.state.load(Ordering::Acquire) == STATE_READY {
                return;
            }
            thread::sleep(Duration::from_millis(10));
        }
        panic!("session {id} never became ready");
    }

    #[test]
    fn max_sessions_zero_is_always_a_503_with_a_retry_hint() {
        let api = api_with_cap(0);
        let (status, body) = api.handle(&open_call(0));
        assert_eq!(status, 503, "{body:?}");
        assert_eq!(body.expect("retry_after_secs").unwrap().as_u64(), Some(1));
        let err = body.expect("error").unwrap().as_str().unwrap().to_string();
        assert!(err.contains("full"), "{err}");
    }

    #[test]
    fn at_the_cap_the_idlest_ready_session_is_evicted() {
        let api = api_with_cap(1);
        let a = open_session(&api, SolverKind::GreedyAll, 0);
        wait_ready(&api, &a);
        let b = open_session(&api, SolverKind::GreedyAll, 1);
        assert_ne!(a, b);
        assert_eq!(api.sessions().len(), 1, "the cap held");
        // The evicted session is gone; the newcomer answers.
        let (status, _) = api.handle(&ServeCall::Query {
            session: a.clone(),
            ks: vec![1],
            deadline_ms: None,
        });
        assert_eq!(status, 404, "evicted session must be gone");
        let (status, _) = api.handle(&ServeCall::Query {
            session: b,
            ks: vec![1],
            deadline_ms: None,
        });
        assert_eq!(status, 200);
    }

    #[test]
    fn a_cap_full_of_warming_sessions_saturates_instead_of_evicting() {
        let api = api_with_cap(1);
        let a = open_session(&api, SolverKind::GreedyAll, 0);
        // Pin the only occupant in the warming state: mid-solve
        // sessions are never evicted, so the table is saturated.
        let handle = api.sessions().get(&a).expect("session exists");
        handle.state.store(STATE_WARMING, Ordering::Release);
        let (status, body) = api.handle(&open_call(1));
        assert_eq!(status, 503, "{body:?}");
        assert_eq!(api.sessions().len(), 1, "nothing was evicted");
    }

    #[test]
    fn expired_sessions_free_slots_before_any_eviction() {
        let registry = GraphRegistry::new();
        registry.put_edge_list("fig1", "s", "s x\n").unwrap();
        let api = ApiState::with_limits(registry, Some(Duration::from_millis(0)), Some(1));
        let (status, _) = api.handle(&open_call(0));
        assert_eq!(status, 201);
        // ttl 0: the first session is expired by the time the second
        // open sweeps, so the slot frees without the eviction path.
        let (status, body) = api.handle(&open_call(1));
        assert_eq!(status, 201, "{body:?}");
        assert_eq!(api.sessions().len(), 1);
    }

    #[test]
    fn a_503_carries_retry_after_on_the_wire() {
        let mut out = Vec::new();
        write_http_payload(&mut out, 503, "application/json", "{}", false).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(
            text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"),
            "{text}"
        );
        assert!(text.contains("\r\nRetry-After: 1\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\n{}"), "{text}");
        // And a 200 does not.
        let mut out = Vec::new();
        write_http_payload(&mut out, 200, "application/json", "{}", false).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(!text.contains("Retry-After"), "{text}");
    }
}
