//! `fp loadtest`: measure the serve daemon under concurrent traffic.
//!
//! The harness spins an in-process [`Server`] on an ephemeral port,
//! opens one warm session, and drives `clients` concurrent clients over
//! frames or HTTP, each issuing `requests` placement queries with budgets
//! cycling through `0..=kmax` (each client starts at a different
//! offset, so budgets interleave adversarially across clients).
//!
//! Every response is **verified** against a precomputed batch
//! [`Problem::solve_ladder`](crate::Problem::solve_ladder) answer —
//! FR bits and placement nodes must match exactly — so the loadtest
//! doubles as a concurrency determinism check; a single mismatch fails
//! the run.
//!
//! Latency percentiles use the nearest-rank method over all recorded
//! round-trip times; throughput is total requests over wall time. The
//! numbers are printed, not gated: perfbench's `serve-churn` workload
//! is the serve latency benchmark.

use crate::registry::GraphRegistry;
use crate::serve::{ApiState, ServeClient, Server};
use fp_algorithms::SolverKind;
use fp_results::protocol::{read_body, ServeCall};
use fp_results::Json;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

/// Which transport the loadtest clients drive.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Transport {
    /// Persistent length-prefixed frame connections (the native
    /// protocol; one connection per client for the whole run).
    #[default]
    Frame,
    /// HTTP/1.1, measured twice: a `Connection: close` phase (one
    /// connection per request, the pre-keep-alive behavior) and a
    /// keep-alive phase (one connection per client). Both numbers are
    /// recorded; the report's headline latencies are the keep-alive
    /// phase's.
    Http,
}

impl Transport {
    /// Parse a `--transport` value.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "frame" => Ok(Self::Frame),
            "http" => Ok(Self::Http),
            other => Err(format!("unknown transport {other:?} (want frame or http)")),
        }
    }
}

/// What to drive and how hard.
#[derive(Clone, Debug)]
pub struct LoadtestConfig {
    /// Registry name of the graph to query (e.g. `"fig1"`,
    /// `"layered-sparse"`).
    pub graph: String,
    /// The solver whose session is driven.
    pub solver: SolverKind,
    /// Session seed.
    pub seed: u64,
    /// Concurrent client connections.
    pub clients: usize,
    /// Queries issued per client.
    pub requests: usize,
    /// Budgets cycle through `0..=kmax`.
    pub kmax: usize,
    /// Which transport the clients speak.
    pub transport: Transport,
    /// Edge insertions driven through `POST /sessions/:id/mutations`
    /// after the query phase (0 = no mutation phase). Each accepted
    /// mutation is followed by a full re-query verified against a
    /// batch solve on a locally mutated copy of the graph.
    pub mutations: usize,
}

impl Default for LoadtestConfig {
    fn default() -> Self {
        Self {
            graph: "layered-sparse".into(),
            solver: SolverKind::GreedyAll,
            seed: 0,
            clients: 8,
            requests: 50,
            kmax: 8,
            transport: Transport::Frame,
            mutations: 0,
        }
    }
}

/// One measured phase: latency percentiles plus throughput.
#[derive(Clone, Copy, Debug)]
pub struct PhaseNumbers {
    /// Median round-trip latency, microseconds (nearest-rank).
    pub p50_us: u64,
    /// 99th-percentile round-trip latency, microseconds (nearest-rank).
    pub p99_us: u64,
    /// Worst observed round-trip, microseconds.
    pub max_us: u64,
    /// Requests per second over the phase.
    pub throughput_rps: f64,
    /// Wall time of the phase, milliseconds.
    pub wall_ms: u64,
}

impl PhaseNumbers {
    fn from_samples(mut latencies: Vec<u64>, wall: Duration) -> Self {
        latencies.sort_unstable();
        Self {
            p50_us: percentile(&latencies, 50.0),
            p99_us: percentile(&latencies, 99.0),
            max_us: latencies.last().copied().unwrap_or(0),
            throughput_rps: latencies.len() as f64 / wall.as_secs_f64().max(f64::MIN_POSITIVE),
            wall_ms: wall.as_millis() as u64,
        }
    }
}

/// The two HTTP phases' numbers, recorded side by side so the cost of
/// per-request reconnects is visible in one report.
#[derive(Clone, Copy, Debug)]
pub struct HttpNumbers {
    /// `Connection: close` — one TCP connection per request.
    pub close: PhaseNumbers,
    /// `Connection: keep-alive` — one connection per client.
    pub keep_alive: PhaseNumbers,
}

/// The measured result of one loadtest run.
#[derive(Clone, Debug)]
pub struct LoadtestReport {
    /// The driven configuration.
    pub config: LoadtestConfig,
    /// Total requests answered (`clients × requests` per phase).
    pub total_requests: usize,
    /// Median round-trip latency, microseconds (nearest-rank).
    pub p50_us: u64,
    /// 99th-percentile round-trip latency, microseconds (nearest-rank).
    pub p99_us: u64,
    /// Worst observed round-trip, microseconds.
    pub max_us: u64,
    /// Requests per second over the whole run.
    pub throughput_rps: f64,
    /// Wall time of the client phase, milliseconds.
    pub wall_ms: u64,
    /// Both HTTP phases when `transport` was [`Transport::Http`].
    pub http: Option<HttpNumbers>,
    /// The mutation phase's numbers when `mutations > 0`: latency is
    /// the mutate round-trip alone (re-query verification excluded).
    pub mutation: Option<PhaseNumbers>,
    /// Mutations actually applied (less than requested only when the
    /// graph runs out of absent forward edges to insert).
    pub mutations_applied: usize,
}

/// Nearest-rank percentile of an ascending-sorted sample.
fn percentile(sorted: &[u64], pct: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Run a loadtest against an in-process daemon serving `registry`.
///
/// Fails on any transport error or any response that is not
/// bit-identical to the batch answer.
pub fn run_loadtest(
    registry: GraphRegistry,
    cfg: &LoadtestConfig,
) -> Result<LoadtestReport, String> {
    let entry = registry
        .get(&cfg.graph)
        .ok_or_else(|| format!("unknown graph {:?}", cfg.graph))?;
    let ks: Vec<usize> = (0..=cfg.kmax).collect();
    let expected: BTreeMap<usize, (Vec<usize>, u64)> = entry
        .problem
        .solve_ladder(cfg.solver, &ks, cfg.seed)
        .into_iter()
        .map(|(k, placement, fr)| {
            let nodes = placement.nodes().iter().map(|v| v.index()).collect();
            (k, (nodes, fr.to_bits()))
        })
        .collect();

    let server = Server::bind("127.0.0.1:0", ApiState::new(registry, None))?;
    let addr = server.local_addr();
    let handle = server.spawn();

    let mut opener = ServeClient::connect(addr)?;
    let open = opener.call(ServeCall::SessionOpen {
        graph: cfg.graph.clone(),
        solver: cfg.solver,
        seed: cfg.seed,
    })?;
    if open.status != 201 {
        return Err(format!("session open failed: {}", open.body.to_compact()));
    }
    let session = open
        .body
        .expect("session")?
        .as_str()
        .ok_or("session id missing from open reply")?
        .to_string();

    let drive = |mode| drive_clients(addr, &session, cfg, &expected, mode);
    let (headline, http) = match cfg.transport {
        Transport::Frame => (drive(Mode::Frame)?, None),
        Transport::Http => {
            let close = drive(Mode::Http { keep_alive: false })?;
            let keep_alive = drive(Mode::Http { keep_alive: true })?;
            (keep_alive, Some(HttpNumbers { close, keep_alive }))
        }
    };
    let (mutation, mutations_applied) = if cfg.mutations > 0 {
        let (numbers, applied) = drive_mutation_phase(addr, &session, cfg, &entry)?;
        (Some(numbers), applied)
    } else {
        (None, 0)
    };

    opener.hang_up()?;
    handle.stop()?;

    Ok(LoadtestReport {
        config: cfg.clone(),
        total_requests: cfg.clients * cfg.requests,
        p50_us: headline.p50_us,
        p99_us: headline.p99_us,
        max_us: headline.max_us,
        throughput_rps: headline.throughput_rps,
        wall_ms: headline.wall_ms,
        http,
        mutation,
        mutations_applied,
    })
}

/// The live-graph phase: drive edge insertions through the session and
/// verify the rebuilt session answers against a batch solve on a
/// locally mutated copy of the graph after every mutation.
///
/// Insert-only on purpose: insertions can never orphan a placed filter
/// (the only 409 the mutation API raises for a structurally legal
/// edit), so a conflict here is a hard failure rather than an expected
/// outcome, and the phase stays deterministic. Candidate edges are
/// absent forward pairs in the original topological order, walked in a
/// fixed order, so acyclicity is preserved by construction and two
/// runs drive identical traffic.
fn drive_mutation_phase(
    addr: SocketAddr,
    session: &str,
    cfg: &LoadtestConfig,
    entry: &crate::registry::GraphEntry,
) -> Result<(PhaseNumbers, usize), String> {
    let mut local = entry.problem.cgraph().clone();
    let topo: Vec<_> = local.topo().to_vec();
    let mut client = ServeClient::connect(addr)?;
    let mut latencies = Vec::with_capacity(cfg.mutations);
    let started = Instant::now();
    let mut applied = 0;
    'outer: for gap in 1..topo.len() {
        for i in 0..topo.len() - gap {
            if applied == cfg.mutations {
                break 'outer;
            }
            let (u, v) = (topo[i], topo[i + gap]);
            if local.csr().children(u).contains(&v) {
                continue;
            }
            let sent = Instant::now();
            let reply = client.call(ServeCall::Mutate {
                session: session.to_string(),
                mutation: "insert_edge".into(),
                from: entry.labels[u.index()].clone(),
                to: entry.labels[v.index()].clone(),
            })?;
            latencies.push(sent.elapsed().as_micros() as u64);
            if reply.status != 200 {
                return Err(format!(
                    "mutation {u:?} -> {v:?} failed: {}",
                    reply.body.to_compact()
                ));
            }
            local
                .insert_edge(u, v)
                .map_err(|e| format!("local mirror rejected {u:?} -> {v:?}: {e:?}"))?;
            if reply.body.expect("edges")?.as_usize() != Some(local.edge_count()) {
                return Err(format!(
                    "edge count diverged after {u:?} -> {v:?}: {}",
                    reply.body.to_compact()
                ));
            }
            applied += 1;

            // Re-query the whole ladder and hold it to the batch
            // answer on the mutated graph, bit for bit.
            let ks: Vec<usize> = (0..=cfg.kmax).collect();
            let expected: BTreeMap<usize, (Vec<usize>, u64)> =
                crate::Problem::from_cgraph(local.clone())
                    .solve_ladder(cfg.solver, &ks, cfg.seed)
                    .into_iter()
                    .map(|(k, placement, fr)| {
                        let nodes = placement.nodes().iter().map(|n| n.index()).collect();
                        (k, (nodes, fr.to_bits()))
                    })
                    .collect();
            let reply = client.call(ServeCall::Query {
                session: session.to_string(),
                ks: vec![cfg.kmax],
                deadline_ms: None,
            })?;
            if reply.status != 200 {
                return Err(format!(
                    "post-mutation query failed: {}",
                    reply.body.to_compact()
                ));
            }
            verify_row(&reply.body, cfg.kmax, &expected)?;
        }
    }
    client.hang_up()?;
    Ok((
        PhaseNumbers::from_samples(latencies, started.elapsed()),
        applied,
    ))
}

/// How a client's queries reach the daemon.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mode {
    /// One frame connection per client for the whole phase.
    Frame,
    /// HTTP/1.1: one connection per client for the whole phase with
    /// `keep_alive`; without it every request pays connect + close,
    /// exactly what the daemon did before it honored keep-alive.
    Http { keep_alive: bool },
}

/// One client's connection to the daemon, in its [`Mode`].
enum Link {
    Frame(ServeClient),
    Http {
        addr: SocketAddr,
        keep_alive: bool,
        conn: Option<(BufReader<TcpStream>, TcpStream)>,
    },
}

impl Link {
    fn open(addr: SocketAddr, mode: Mode) -> Result<Self, String> {
        Ok(match mode {
            Mode::Frame => Link::Frame(ServeClient::connect(addr)?),
            Mode::Http { keep_alive } => Link::Http {
                addr,
                keep_alive,
                conn: None,
            },
        })
    }

    /// Ask `session` for budget `k`: the reply's status and body.
    fn query(&mut self, session: &str, k: usize) -> Result<(u16, Json), String> {
        match self {
            Link::Frame(client) => {
                let reply = client.call(ServeCall::Query {
                    session: session.to_string(),
                    ks: vec![k],
                    deadline_ms: None,
                })?;
                Ok((reply.status, reply.body))
            }
            Link::Http {
                addr,
                keep_alive,
                conn,
            } => http_query(*addr, *keep_alive, conn, session, k),
        }
    }
}

/// One `GET /sessions/:id/placement?k=` over `conn`, connecting first
/// if there is none; without `keep_alive` the connection closes after
/// the reply.
fn http_query(
    addr: SocketAddr,
    keep_alive: bool,
    conn: &mut Option<(BufReader<TcpStream>, TcpStream)>,
    session: &str,
    k: usize,
) -> Result<(u16, Json), String> {
    if conn.is_none() {
        let stream = TcpStream::connect(addr).map_err(|e| format!("cannot connect: {e}"))?;
        // Without this, Nagle queues each small request behind the
        // peer's delayed ACK and keep-alive connections eat a
        // ~40 ms stall per round-trip.
        let _ = stream.set_nodelay(true);
        let reader = BufReader::new(
            stream
                .try_clone()
                .map_err(|e| format!("cannot clone stream: {e}"))?,
        );
        *conn = Some((reader, stream));
    }
    let (reader, writer) = conn.as_mut().expect("connection just ensured");
    let connection = if keep_alive { "keep-alive" } else { "close" };
    // One write_all, not write!(stream, ...): the format macro would
    // issue one syscall per fragment on a raw stream, and a
    // multi-segment request is exactly what trips Nagle.
    let request = format!(
        "GET /sessions/{session}/placement?k={k} HTTP/1.1\r\n\
         Host: loadtest\r\nConnection: {connection}\r\n\r\n"
    );
    writer
        .write_all(request.as_bytes())
        .and_then(|()| writer.flush())
        .map_err(|e| format!("cannot write request: {e}"))?;
    let (status, body) = read_http_reply(reader)?;
    if !keep_alive {
        *conn = None;
    }
    let body = Json::parse(&body).map_err(|e| format!("bad reply body: {e:?}"))?;
    Ok((status, body))
}

/// Fan one phase out over `cfg.clients` threads, each running
/// [`run_client`] in `mode`, and measure it.
fn drive_clients(
    addr: SocketAddr,
    session: &str,
    cfg: &LoadtestConfig,
    expected: &BTreeMap<usize, (Vec<usize>, u64)>,
    mode: Mode,
) -> Result<PhaseNumbers, String> {
    let started = Instant::now();
    let latencies = thread::scope(|scope| {
        let mut workers = Vec::with_capacity(cfg.clients);
        for client in 0..cfg.clients {
            workers.push(
                thread::Builder::new()
                    .name(format!("fp-loadtest-{client}"))
                    .spawn_scoped(scope, move || {
                        run_client(addr, session, cfg, expected, mode, client)
                    })
                    .map_err(|e| format!("cannot spawn client thread: {e}"))?,
            );
        }
        let joined: Vec<_> = workers.into_iter().map(|w| w.join()).collect();
        let mut latencies = Vec::with_capacity(cfg.clients * cfg.requests);
        for lat in joined {
            latencies.extend(lat.map_err(|_| "client thread panicked".to_string())??);
        }
        Ok::<_, String>(latencies)
    })?;
    Ok(PhaseNumbers::from_samples(latencies, started.elapsed()))
}

/// One client: `cfg.requests` queries with budgets cycling through
/// `0..=kmax` from an offset of `client`, each reply checked against
/// the batch answer; returns every round trip's latency.
fn run_client(
    addr: SocketAddr,
    session: &str,
    cfg: &LoadtestConfig,
    expected: &BTreeMap<usize, (Vec<usize>, u64)>,
    mode: Mode,
    client: usize,
) -> Result<Vec<u64>, String> {
    let mut link = Link::open(addr, mode)?;
    let mut latencies = Vec::with_capacity(cfg.requests);
    for i in 0..cfg.requests {
        let k = (client + i) % (cfg.kmax + 1);
        let sent = Instant::now();
        let (status, body) = link.query(session, k)?;
        latencies.push(sent.elapsed().as_micros() as u64);
        if status != 200 {
            return Err(format!("query k={k} failed: {}", body.to_compact()));
        }
        verify_row(&body, k, expected)?;
    }
    if let Link::Frame(client) = link {
        client.hang_up()?;
    }
    Ok(latencies)
}

/// Read one HTTP response: status line, headers, `Content-Length`
/// body bytes.
fn read_http_reply(reader: &mut BufReader<TcpStream>) -> Result<(u16, String), String> {
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .map_err(|e| format!("cannot read status line: {e}"))?;
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line {line:?}"))?;
    let mut content_len = 0usize;
    loop {
        let mut header = String::new();
        reader
            .read_line(&mut header)
            .map_err(|e| format!("cannot read header: {e}"))?;
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_len = value
                    .trim()
                    .parse()
                    .map_err(|_| format!("bad Content-Length {value:?}"))?;
            }
        }
    }
    let body = read_body(reader, content_len).map_err(|e| format!("truncated reply body: {e}"))?;
    String::from_utf8(body)
        .map(|b| (status, b))
        .map_err(|_| "reply body is not UTF-8".to_string())
}

/// Check one query reply against the batch answer, bit for bit.
fn verify_row(
    body: &Json,
    k: usize,
    expected: &BTreeMap<usize, (Vec<usize>, u64)>,
) -> Result<(), String> {
    let rows = body
        .expect("results")?
        .as_array()
        .ok_or("results must be an array")?;
    let row = rows.first().ok_or("empty results")?;
    let got_k = row.expect("k")?.as_usize().ok_or("bad k in reply")?;
    if got_k != k {
        return Err(format!("asked k={k}, got k={got_k}"));
    }
    let fr = row.expect("fr")?.as_f64().ok_or("bad fr in reply")?;
    let nodes: Vec<usize> = row
        .expect("placement")?
        .as_array()
        .ok_or("bad placement in reply")?
        .iter()
        .map(|v| v.as_usize().ok_or("bad node in placement"))
        .collect::<Result<_, _>>()?;
    let (want_nodes, want_fr) = &expected[&k];
    if fr.to_bits() != *want_fr || &nodes != want_nodes {
        return Err(format!(
            "serve answer diverged from batch at k={k}: \
             fr {fr:?} (bits {:#x}) vs batch bits {want_fr:#x}, \
             placement {nodes:?} vs {want_nodes:?}",
            fr.to_bits()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_registry() -> GraphRegistry {
        let registry = GraphRegistry::new();
        registry
            .put_edge_list(
                "fig1",
                "s",
                "s x\ns y\nx z1\nx z2\ny z2\ny z3\nz1 w\nz2 w\nz3 w\n",
            )
            .unwrap();
        registry
    }

    #[test]
    fn loadtest_measures_and_verifies() {
        let cfg = LoadtestConfig {
            graph: "fig1".into(),
            solver: SolverKind::GreedyAll,
            seed: 0,
            clients: 4,
            requests: 10,
            kmax: 3,
            transport: Transport::Frame,
            mutations: 0,
        };
        let report = run_loadtest(tiny_registry(), &cfg).unwrap();
        assert_eq!(report.total_requests, 40);
        assert!(report.p50_us <= report.p99_us);
        assert!(report.p99_us <= report.max_us);
        assert!(report.throughput_rps > 0.0);
        assert!(report.http.is_none(), "frame runs record no http section");
    }

    #[test]
    fn http_transport_measures_close_and_keepalive_phases() {
        let cfg = LoadtestConfig {
            graph: "fig1".into(),
            solver: SolverKind::GreedyAll,
            seed: 0,
            clients: 2,
            requests: 5,
            kmax: 2,
            transport: Transport::Http,
            mutations: 0,
        };
        let report = run_loadtest(tiny_registry(), &cfg).unwrap();
        assert_eq!(report.total_requests, 10, "per phase");
        let http = report.http.expect("http section recorded");
        assert!(http.close.throughput_rps > 0.0);
        assert!(http.keep_alive.throughput_rps > 0.0);
        // Headline numbers are the keep-alive phase's.
        assert_eq!(report.p50_us, http.keep_alive.p50_us);
        assert_eq!(report.p99_us, http.keep_alive.p99_us);
        for phase in [http.close, http.keep_alive] {
            assert!(phase.p50_us <= phase.p99_us && phase.p99_us <= phase.max_us);
        }
    }

    #[test]
    fn mutation_phase_applies_inserts_and_verifies_rebuilds() {
        let cfg = LoadtestConfig {
            graph: "fig1".into(),
            solver: SolverKind::GreedyAll,
            seed: 0,
            clients: 2,
            requests: 4,
            kmax: 3,
            transport: Transport::Frame,
            mutations: 3,
        };
        let report = run_loadtest(tiny_registry(), &cfg).unwrap();
        assert_eq!(report.mutations_applied, 3);
        let phase = report.mutation.expect("mutation phase recorded");
        assert!(phase.p50_us <= phase.p99_us && phase.p99_us <= phase.max_us);
        assert!(phase.throughput_rps > 0.0);
    }

    #[test]
    fn transport_parses_and_rejects() {
        assert_eq!(Transport::parse("frame").unwrap(), Transport::Frame);
        assert_eq!(Transport::parse("http").unwrap(), Transport::Http);
        assert!(Transport::parse("carrier-pigeon").is_err());
    }

    #[test]
    fn unknown_graph_fails_before_binding_a_port() {
        let cfg = LoadtestConfig {
            graph: "missing".into(),
            ..LoadtestConfig::default()
        };
        let err = run_loadtest(GraphRegistry::new(), &cfg).unwrap_err();
        assert!(err.contains("unknown graph"), "{err}");
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 50.0), 50);
        assert_eq!(percentile(&sorted, 99.0), 99);
        assert_eq!(percentile(&sorted, 100.0), 100);
        assert_eq!(percentile(&[7], 50.0), 7);
        assert_eq!(percentile(&[], 50.0), 0);
    }
}
