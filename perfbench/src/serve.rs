//! `serve-churn`: an in-process `fp serve` daemon under two closed-loop
//! clients with no think time, one on length-prefixed frames and one on
//! HTTP/1.1 keep-alive, both running the same seeded script.
//!
//! Set-up binds the daemon and uploads the citation-like edge list as
//! one `GraphPut` frame. One script opens a cold session (the solver
//! cycles through the paper's seven, each session with a fresh seed),
//! asks for the full curve cold, then warm full curves and warm single
//! budgets, inserts one forward edge, asks again and closes. Warm
//! full-curve answers outnumber every other kind, so the median request
//! is one of them rather than a sub-millisecond cache hit.

use crate::harness::{derive, median, ms, seeds, Args, Fnv, Phase, Reference, Report, Tracing};
use crate::sweeps::citation_edge_list;
use fp_core::algorithms::SolverKind;
use fp_core::graph::{from_edge_list, DiGraph, NodeId};
use fp_core::propagation::CGraph;
use fp_core::registry::GraphRegistry;
use fp_core::results::protocol::{read_frame, write_frame, Frame, ServeCall, ServeRequest};
use fp_core::results::Json;
use fp_core::serve::{ApiState, ServeClient, Server, ServerHandle};
use fp_core::Problem;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

const GRAPH: &str = "citation";
/// Budgets of a full-curve query: k = 0..=KMAX.
const KMAX: usize = 30;
/// Warm full-curve queries per script.
const WARM: usize = 8;
/// Scripts per client per phase: one per paper solver.
const SCRIPTS: usize = 7;
/// Phases per daemon; each daemon's bind + upload (≈ 3 s) is one set-up.
const PHASES_PER_SETUP: usize = 12;
/// Direct `put_edge_list` calls timed by a traced run.
const REGISTRY_PUTS: usize = 3;
/// Forward edges the scripts insert, one per script in turn.
const MUTATIONS: usize = 8;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Transport {
    Frame,
    Http,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Open,
    Cold,
    Warm,
    Single(usize),
    Mutate(usize),
    Requery,
    Close,
}

impl Kind {
    fn span(self) -> &'static str {
        match self {
            Kind::Open => "serve.open",
            Kind::Cold => "serve.cold_query",
            Kind::Warm => "serve.warm_query",
            Kind::Single(_) => "serve.single_query",
            Kind::Mutate(_) => "serve.mutate",
            Kind::Requery => "serve.requery",
            Kind::Close => "serve.close",
        }
    }
}

/// One request's round trip as the client saw it.
struct Exchange {
    status: u16,
    body: Json,
    rtt_ms: f64,
    bytes_in: u64,
    bytes_out: u64,
}

/// A persistent client connection on either transport.
struct Conn {
    transport: Transport,
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    next_id: u64,
}

impl Conn {
    fn connect(addr: SocketAddr, transport: Transport) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("cannot connect: {e}"))?;
        // Small requests must not wait on the peer's delayed ACK.
        stream
            .set_nodelay(true)
            .map_err(|e| format!("cannot set TCP_NODELAY: {e}"))?;
        let reader = BufReader::new(
            stream
                .try_clone()
                .map_err(|e| format!("cannot clone stream: {e}"))?,
        );
        Ok(Self {
            transport,
            reader,
            writer: stream,
            next_id: 1,
        })
    }

    fn call(&mut self, call: &ServeCall) -> Result<Exchange, String> {
        let t0 = Instant::now();
        let _rtt = fp_obs::span(match self.transport {
            Transport::Frame => "transport.frame_rtt",
            Transport::Http => "transport.http_rtt",
        });
        let id = self.next_id;
        self.next_id += 1;
        let request = {
            let _span = fp_obs::span("transport.encode");
            match self.transport {
                Transport::Frame => {
                    let mut buf = Vec::new();
                    let frame = Frame::Call(ServeRequest {
                        id,
                        call: call.clone(),
                    });
                    write_frame(&mut buf, &frame)?;
                    buf
                }
                Transport::Http => http_request(call)?.into_bytes(),
            }
        };
        self.writer
            .write_all(&request)
            .map_err(|e| format!("cannot send request: {e}"))?;
        let (raw, http_status) = match self.transport {
            Transport::Frame => (self.read_frame_bytes()?, 0),
            Transport::Http => self.read_http_bytes()?,
        };
        let (status, body) = {
            let _span = fp_obs::span("transport.decode");
            match self.transport {
                Transport::Frame => match read_frame(&mut raw.as_slice())? {
                    Some(Frame::Reply(reply)) if reply.id == id => (reply.status, reply.body),
                    other => return Err(format!("expected reply {id}, got {other:?}")),
                },
                Transport::Http => {
                    let text = std::str::from_utf8(&raw[raw.len() - body_len(&raw)..])
                        .map_err(|_| "reply body is not UTF-8".to_string())?;
                    let body = Json::parse(text).map_err(|e| format!("bad reply body: {e:?}"))?;
                    (http_status, body)
                }
            }
        };
        Ok(Exchange {
            status,
            body,
            rtt_ms: ms(t0),
            bytes_in: request.len() as u64,
            bytes_out: raw.len() as u64,
        })
    }

    fn read_frame_bytes(&mut self) -> Result<Vec<u8>, String> {
        let mut raw = vec![0u8; 4];
        self.reader
            .read_exact(&mut raw)
            .map_err(|e| format!("cannot read reply prefix: {e}"))?;
        let len = u32::from_be_bytes([raw[0], raw[1], raw[2], raw[3]]) as usize;
        raw.resize(4 + len, 0);
        self.reader
            .read_exact(&mut raw[4..])
            .map_err(|e| format!("truncated reply: {e}"))?;
        Ok(raw)
    }

    /// The whole response (status line, headers, body) and its status.
    fn read_http_bytes(&mut self) -> Result<(Vec<u8>, u16), String> {
        let mut raw = Vec::new();
        let mut line = String::new();
        let mut status = 0u16;
        let mut content_len = 0usize;
        loop {
            line.clear();
            let n = self
                .reader
                .read_line(&mut line)
                .map_err(|e| format!("cannot read reply head: {e}"))?;
            if n == 0 {
                return Err("server hung up mid-reply".into());
            }
            raw.extend_from_slice(line.as_bytes());
            if status == 0 {
                status = line
                    .split_whitespace()
                    .nth(1)
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| format!("bad status line {line:?}"))?;
            } else if line.trim_end().is_empty() {
                break;
            } else if let Some((name, value)) = line.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    content_len = value
                        .trim()
                        .parse()
                        .map_err(|_| format!("bad Content-Length {value:?}"))?;
                }
            }
        }
        let head = raw.len();
        raw.resize(head + content_len, 0);
        self.reader
            .read_exact(&mut raw[head..])
            .map_err(|e| format!("truncated reply body: {e}"))?;
        Ok((raw, status))
    }
}

/// Length of an HTTP response's body: everything after the blank line.
fn body_len(raw: &[u8]) -> usize {
    raw.windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map_or(0, |i| raw.len() - (i + 4))
}

/// The HTTP route for a call, one `write_all` per request.
fn http_request(call: &ServeCall) -> Result<String, String> {
    let (method, target) = match call {
        ServeCall::SessionOpen {
            graph,
            solver,
            seed,
        } => (
            "POST",
            format!(
                "/sessions?graph={graph}&solver={}&seed={seed}",
                solver.label()
            ),
        ),
        ServeCall::Query { session, ks, .. } if ks.len() == 1 => {
            ("GET", format!("/sessions/{session}/placement?k={}", ks[0]))
        }
        ServeCall::Query { session, .. } => {
            ("GET", format!("/sessions/{session}/curve?kmax={KMAX}"))
        }
        ServeCall::Mutate {
            session,
            mutation,
            from,
            to,
        } => (
            "POST",
            format!("/sessions/{session}/mutations?mutation={mutation}&from={from}&to={to}"),
        ),
        ServeCall::SessionClose { session } => ("DELETE", format!("/sessions/{session}")),
        other => return Err(format!("no HTTP route in the script for {other:?}")),
    };
    Ok(format!(
        "{method} {target} HTTP/1.1\r\nHost: perfbench\r\nConnection: keep-alive\r\nContent-Length: 0\r\n\r\n"
    ))
}

/// One script step, as sent.
struct Sample {
    kind: Kind,
    solver: SolverKind,
    seed: u64,
    client: Transport,
    exchange: Exchange,
}

/// The script's request kinds, in order: 15 requests of which 8 are
/// warm full-curve queries.
fn script(j: usize, script_seed: u64) -> Vec<Kind> {
    let k1 = (derive(script_seed, 2 * j as u64) % (KMAX as u64 + 1)) as usize;
    let k2 = (derive(script_seed, 2 * j as u64 + 1) % (KMAX as u64 + 1)) as usize;
    let mut kinds = vec![Kind::Open, Kind::Cold];
    for w in 0..WARM {
        kinds.push(Kind::Warm);
        if w == 1 {
            kinds.push(Kind::Single(k1));
        } else if w == 5 {
            kinds.push(Kind::Single(k2));
        }
    }
    kinds.extend([Kind::Mutate(j % MUTATIONS), Kind::Requery, Kind::Close]);
    kinds
}

/// Run every script of one client; I/O errors end the run, non-2xx
/// replies are failed requests.
fn run_client(
    addr: SocketAddr,
    transport: Transport,
    script_seed: u64,
    mutations: &[(String, String)],
) -> Result<Vec<Sample>, String> {
    let mut conn = Conn::connect(addr, transport)?;
    let lane = u64::from(transport == Transport::Http);
    let mut out = Vec::with_capacity(SCRIPTS * (WARM + 7));
    let curve: Vec<usize> = (0..=KMAX).collect();
    for j in 0..SCRIPTS {
        let solver = SolverKind::PAPER_SET[j % SolverKind::PAPER_SET.len()];
        // A fresh seed per session (and per client), so every open is
        // cold and the two clients never collide on a session id.
        let seed = script_seed.wrapping_add(2 * j as u64 + lane);
        let mut session = String::new();
        for kind in script(j, script_seed) {
            let call = match kind {
                Kind::Open => ServeCall::SessionOpen {
                    graph: GRAPH.into(),
                    solver,
                    seed,
                },
                Kind::Cold | Kind::Warm | Kind::Requery => ServeCall::Query {
                    session: session.clone(),
                    ks: curve.clone(),
                    deadline_ms: None,
                },
                Kind::Single(k) => ServeCall::Query {
                    session: session.clone(),
                    ks: vec![k],
                    deadline_ms: None,
                },
                Kind::Mutate(m) => ServeCall::Mutate {
                    session: session.clone(),
                    mutation: "insert_edge".into(),
                    from: mutations[m].0.clone(),
                    to: mutations[m].1.clone(),
                },
                Kind::Close => ServeCall::SessionClose {
                    session: session.clone(),
                },
            };
            let exchange = {
                let _span = fp_obs::span(kind.span());
                conn.call(&call)?
            };
            if kind == Kind::Open {
                if let Some(id) = exchange.body.get("session").and_then(Json::as_str) {
                    session = id.to_string();
                }
            }
            out.push(Sample {
                kind,
                solver,
                seed,
                client: transport,
                exchange,
            });
        }
    }
    Ok(out)
}

/// `(k, placement, FR bits)` rows for k = 0..=KMAX.
type Ladder = Vec<(usize, Vec<usize>, u64)>;

/// Hash of `(k, placement, FR bits)` rows.
fn rows_hash<'a>(rows: impl IntoIterator<Item = (usize, &'a [usize], u64)>) -> u64 {
    let mut h = Fnv::default();
    for (k, placement, bits) in rows {
        h.eat(k as u64);
        h.eat(bits);
        h.eat(placement.len() as u64);
        for &v in placement {
            h.eat(v as u64);
        }
    }
    h.finish()
}

/// A reply reduced to what checking compares: a query's rows hashed
/// with [`rows_hash`]; for the other kinds, 1 when the reply has the
/// expected shape and 0 when it does not.
fn reply_digest(kind: Kind, body: &Json) -> u64 {
    match kind {
        Kind::Open => u64::from(body.get("session").and_then(Json::as_str).is_some()),
        Kind::Mutate(_) => {
            u64::from(body.get("applied").and_then(Json::as_str) == Some("insert_edge"))
        }
        Kind::Close => 1,
        Kind::Cold | Kind::Warm | Kind::Single(_) | Kind::Requery => {
            let rows: Option<Vec<(usize, Vec<usize>, u64)>> = body
                .get("results")
                .and_then(Json::as_array)
                .and_then(|rows| {
                    rows.iter()
                        .map(|row| {
                            let k = row.get("k").and_then(Json::as_usize)?;
                            let fr = row.get("fr").and_then(Json::as_f64)?;
                            let placement = row
                                .get("placement")
                                .and_then(Json::as_array)?
                                .iter()
                                .map(Json::as_usize)
                                .collect::<Option<Vec<usize>>>()?;
                            Some((k, placement, fr.to_bits()))
                        })
                        .collect()
                });
            rows.map_or(0, |rows| {
                rows_hash(rows.iter().map(|(k, p, b)| (*k, p.as_slice(), *b)))
            })
        }
    }
}

/// One request of the script as sent, with the inserted edge its
/// session's graph carries by then (if any); the same in every phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Step {
    client: Transport,
    kind: Kind,
    solver: SolverKind,
    seed: u64,
    mutation: Option<usize>,
}

/// Batch answers, keyed by (solver, seed for randomized solvers,
/// inserted edge): `Problem::solve_ladder` on the session's graph with
/// its mutation replayed locally.
struct References {
    base: Problem,
    mutated: Vec<Problem>,
    ladders: BTreeMap<(&'static str, u64, Option<usize>), Ladder>,
}

impl References {
    /// Built only after the measured phases, so none of it counts
    /// toward the run's peak RSS.
    fn build(text: &str, source_label: &str, edges: &[(NodeId, NodeId)]) -> Result<Self, String> {
        let (g, source) = parse_graph(text, source_label)?.0;
        let base = Problem::new(&g, source).map_err(|e| e.to_string())?;
        // The problem after each insertion, built the way a session
        // rebuilds its private copy.
        let mutated = edges
            .iter()
            .map(|&(u, v)| {
                let mut next = base.cgraph().clone();
                next.insert_edge(u, v).map_err(|e| e.to_string())?;
                Ok(Problem::from_cgraph(next))
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Self {
            base,
            mutated,
            ladders: BTreeMap::new(),
        })
    }

    fn ladder(&mut self, solver: SolverKind, seed: u64, mutation: Option<usize>) -> &Ladder {
        // Deterministic solvers ignore the seed: one ladder serves all.
        let seed = if solver.is_randomized() { seed } else { 0 };
        let problem = match mutation {
            Some(m) => &self.mutated[m],
            None => &self.base,
        };
        self.ladders
            .entry((solver.label(), seed, mutation))
            .or_insert_with(|| {
                let ks: Vec<usize> = (0..=KMAX).collect();
                problem
                    .solve_ladder(solver, &ks, seed)
                    .into_iter()
                    .map(|(k, p, fr)| {
                        (
                            k,
                            p.nodes().iter().map(|v| v.index()).collect(),
                            fr.to_bits(),
                        )
                    })
                    .collect()
            })
    }

    /// The digest a correct reply to `step` has.
    fn expected(&mut self, step: &Step) -> u64 {
        let ks: Vec<usize> = match step.kind {
            Kind::Cold | Kind::Warm | Kind::Requery => (0..=KMAX).collect(),
            Kind::Single(k) => vec![k],
            Kind::Open | Kind::Mutate(_) | Kind::Close => return 1,
        };
        let ladder = self.ladder(step.solver, step.seed, step.mutation);
        rows_hash(ks.iter().map(|&k| {
            let (rk, placement, bits) = &ladder[k];
            (*rk, placement.as_slice(), *bits)
        }))
    }
}

/// The edge list parsed exactly as the registry parses uploads, with
/// its source node and node labels.
fn parse_graph(text: &str, source_label: &str) -> Result<((DiGraph, NodeId), Vec<String>), String> {
    let (g, labels) = from_edge_list(text).map_err(|e| e.to_string())?;
    let source = labels
        .iter()
        .position(|l| l == source_label)
        .map(NodeId::new)
        .ok_or("the generator's source is not in its edge list")?;
    Ok(((g, source), labels))
}

pub fn serve_churn(args: &Args) -> Result<Report, String> {
    let (text, source_label) = citation_edge_list();
    let script_seed = derive(args.seed, seeds::SCRIPT);

    // Only the edges the scripts insert are kept from the graph here;
    // the reference answers are built after the measured phases.
    let (edges_pool, mutation_labels) = {
        let ((g, source), labels) = parse_graph(&text, &source_label)?;
        let cg = CGraph::new(&g, source).map_err(|e| e.to_string())?;
        let pool = forward_edges(&cg, derive(args.seed, seeds::STREAM));
        let names: Vec<(String, String)> = pool
            .iter()
            .map(|&(u, v)| (labels[u.index()].clone(), labels[v.index()].clone()))
            .collect();
        (pool, names)
    };

    let mut report = Report::default();
    let mut server: Option<ServerHandle> = None;
    let mut overhead = Vec::new();
    let mut reply_bytes = Vec::new();
    // The script's steps (phase 0 sets them, every phase repeats them)
    // and each phase's (status, reply digest) per step.
    let mut steps: Vec<Step> = Vec::new();
    let mut replies: Vec<Vec<(u16, u64)>> = Vec::new();
    report.measure(args, Reference::CoreCache, |i, traced, tracing| {
        // A fresh daemon (bind + upload) every few phases, so set-up
        // samples spread over the run like phase samples do.
        let mut setup_s = Vec::new();
        if i % PHASES_PER_SETUP == 0 {
            if let Some(old) = server.take() {
                old.stop()?;
            }
            // Set-ups are traced on every phase of a traced run: they
            // fall on untraced phases, and the upload is a ledger row.
            let (handle, secs) = start_server(tracing, args.trace, &text, &source_label)?;
            setup_s.push(secs);
            server = Some(handle);
        }
        let addr = server.as_ref().expect("started on phase 0").addr();
        let (clients, window) = tracing.window(traced, || {
            std::thread::scope(|scope| {
                let frames = scope
                    .spawn(|| run_client(addr, Transport::Frame, script_seed, &mutation_labels));
                let http = scope
                    .spawn(|| run_client(addr, Transport::Http, script_seed, &mutation_labels));
                let frames = frames
                    .join()
                    .map_err(|_| "frame client panicked".to_string());
                let http = http.join().map_err(|_| "HTTP client panicked".to_string());
                Ok::<_, String>((frames??, http??))
            })
        })?;
        let (frames, http) = clients?;

        // Outside the timed window: statuses are checked here, answers
        // after the last phase against the reference ladders.
        let mut errors = Vec::new();
        let mut failed = 0;
        let mut ops_ms = Vec::new();
        let (mut bytes_in, mut bytes_out, mut stable_out) = (0u64, 0u64, 0u64);
        let mut rtt_sum = 0.0;
        let mut phase_steps = Vec::new();
        let mut phase_replies = Vec::new();
        for lane in [&frames, &http] {
            let mut mutation = None;
            for s in lane.iter() {
                if s.kind == Kind::Open {
                    mutation = None;
                }
                phase_steps.push(Step {
                    client: s.client,
                    kind: s.kind,
                    solver: s.solver,
                    seed: s.seed,
                    mutation,
                });
                if let Kind::Mutate(m) = s.kind {
                    mutation = Some(m);
                }
                let e = &s.exchange;
                if !(200..300).contains(&e.status) {
                    failed += 1;
                    if errors.len() < 5 {
                        errors.push(format!(
                            "serve-churn: {:?} {:?} ({}, seed {}) answered {}: {}",
                            s.client,
                            s.kind,
                            s.solver.label(),
                            s.seed,
                            e.status,
                            e.body.to_compact()
                        ));
                    }
                }
                phase_replies.push((e.status, reply_digest(s.kind, &e.body)));
                ops_ms.push(e.rtt_ms);
                rtt_sum += e.rtt_ms;
                bytes_in += e.bytes_in;
                bytes_out += e.bytes_out;
                // An open reply carries the session's racy warming/ready
                // state, so it stays out of the exact counts.
                if s.kind != Kind::Open {
                    stable_out += e.bytes_out;
                }
            }
        }
        if steps.is_empty() {
            steps = phase_steps;
        } else if phase_steps != steps {
            errors.push(format!("serve-churn: phase {i} ran another script"));
        }
        replies.push(phase_replies);
        if traced {
            let c = &window.counters;
            let handled = c.get("fp_serve_handle_us.count").max(1) as f64;
            let handle_ms = c.get("fp_serve_handle_us.sum") as f64 / 1e3;
            overhead.push((rtt_sum - handle_ms) / handled);
            reply_bytes.push(bytes_out as f64);
        }
        let mut counts = BTreeMap::new();
        window.counters.engine_counts(&mut counts);
        counts.insert(
            "serve.requests",
            window.counters.get("fp_serve_requests_total"),
        );
        counts.insert("transport.bytes_in", bytes_in);
        counts.insert("transport.bytes_out_without_opens", stable_out);
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
    if let Some(server) = server {
        server.stop()?;
    }

    // Every 2xx reply of every phase must equal the batch answer on its
    // session's graph bit for bit (placement nodes and FR bits).
    let mut refs = References::build(&text, &source_label, &edges_pool)?;
    let expected: Vec<u64> = steps.iter().map(|s| refs.expected(s)).collect();
    for (phase, got) in replies.iter().enumerate() {
        for ((&(status, digest), &want), step) in got.iter().zip(&expected).zip(&steps) {
            if (200..300).contains(&status) && digest != want {
                report.failed += 1;
                if report.errors.len() < 5 {
                    report.errors.push(format!(
                        "serve-churn: phase {phase}: {:?} {:?} ({}, seed {}) differs from \
                         Problem::solve_ladder",
                        step.client,
                        step.kind,
                        step.solver.label(),
                        step.seed
                    ));
                }
            }
        }
    }

    if args.trace {
        // The registry call the upload ends in, made directly.
        report
            .tracing
            .window(true, || {
                for _ in 0..REGISTRY_PUTS {
                    let registry = GraphRegistry::new();
                    let _span = fp_obs::span("registry.put");
                    registry
                        .put_edge_list(GRAPH, &source_label, &text)
                        .map_err(|e| e.to_string())?;
                }
                Ok::<_, String>(())
            })?
            .0?;
        serve_ledger(&mut report, &overhead, &reply_bytes);
    }
    Ok(report)
}

/// Set-up: bind a daemon and upload the graph as one `GraphPut` frame;
/// returns the running daemon and the seconds it took.
fn start_server(
    tracing: &mut Tracing,
    traced: bool,
    text: &str,
    source_label: &str,
) -> Result<(ServerHandle, f64), String> {
    let call = ServeCall::GraphPut {
        name: GRAPH.into(),
        source: source_label.to_string(),
        edges_text: text.to_string(),
    };
    let (started, window) = tracing.window(traced, || {
        let handle =
            Server::bind("127.0.0.1:0", ApiState::new(GraphRegistry::new(), None))?.spawn();
        let reply = {
            let _span = fp_obs::span("transport.upload");
            let mut client = ServeClient::connect(handle.addr())?;
            let reply = client.call(call)?;
            client.hang_up()?;
            reply
        };
        if reply.status != 201 {
            return Err(format!("graph upload answered {}", reply.status));
        }
        Ok::<_, String>(handle)
    })?;
    Ok((started?, window.elapsed_s))
}

/// `MUTATIONS` absent edges that run forward in the frozen topological
/// order, so inserting one never reorders or closes a cycle.
fn forward_edges(cg: &CGraph, seed: u64) -> Vec<(NodeId, NodeId)> {
    let n = cg.node_count() as u64;
    let mut picked = Vec::new();
    let mut draw = 0u64;
    while picked.len() < MUTATIONS {
        let a = NodeId::new((derive(seed, draw) % n) as usize);
        let b = NodeId::new((derive(seed, draw + 1) % n) as usize);
        draw += 2;
        if a == b {
            continue;
        }
        let (u, v) = if cg.topo_position(a) < cg.topo_position(b) {
            (a, b)
        } else {
            (b, a)
        };
        if !cg.csr().children(u).contains(&v) && !picked.contains(&(u, v)) {
            picked.push((u, v));
        }
    }
    picked
}

fn serve_ledger(report: &mut Report, overhead: &[f64], reply_bytes: &[f64]) {
    let d = report.tracing.digest();
    let fp = report.fingerprint.clone();
    let count = |name: &str| fp.get(name).copied().unwrap_or(0) as f64;
    let l = &mut report.ledger;
    l.set("transport.upload_s", d.median_s("transport.upload"));
    l.set("transport.frame_rtt_ms", d.median_ms("transport.frame_rtt"));
    l.set("transport.http_rtt_ms", d.median_ms("transport.http_rtt"));
    l.set("transport.encode_ms", d.median_ms("transport.encode"));
    l.set("transport.decode_ms", d.median_ms("transport.decode"));
    l.set("transport.overhead_ms", median(overhead));
    l.set("transport.bytes_in", count("transport.bytes_in"));
    l.set("transport.bytes_out", median(reply_bytes));
    l.set("registry.put_s", d.median_s("registry.put"));
    l.set("serve.open_ms", d.median_ms("serve.open"));
    l.set("serve.cold_query_ms", d.median_ms("serve.cold_query"));
    l.set("serve.warm_query_ms", d.median_ms("serve.warm_query"));
    l.set("serve.mutate_ms", d.median_ms("serve.mutate"));
    l.set("serve.requery_ms", d.median_ms("serve.requery"));
    l.set("serve.handle_ms", d.median_ms("serve.request"));
    l.set("serve.requests", count("serve.requests"));
}
