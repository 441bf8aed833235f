//! `fp loadtest`: measure the serve daemon under concurrent traffic.
//!
//! The harness spins an in-process [`Server`] on an ephemeral port,
//! opens one warm session, and drives `clients` concurrent frame
//! connections, each issuing `requests` placement queries with budgets
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
    /// How many times a client re-issues a request answered 408 or 503
    /// before giving up (0 = fail on the first such answer). Backoff
    /// between attempts is exponential with *deterministic* jitter —
    /// seeded by (seed, client, request, attempt) — so two runs of the
    /// same config sleep identically.
    pub retries: u32,
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
            retries: 0,
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
    /// Total 408/503 retries clients performed across all phases
    /// (always 0 unless `--retries` is set and the daemon sheds load).
    pub retries_total: u64,
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

    let (headline, total, http, retries_total) = match cfg.transport {
        Transport::Frame => {
            let (latencies, retries, wall) = drive_frame_clients(addr, &session, cfg, &expected)?;
            let total = latencies.len();
            (
                PhaseNumbers::from_samples(latencies, wall),
                total,
                None,
                retries,
            )
        }
        Transport::Http => {
            let (close_lat, close_retries, close_wall) =
                drive_http_clients(addr, &session, cfg, &expected, false)?;
            let (ka_lat, ka_retries, ka_wall) =
                drive_http_clients(addr, &session, cfg, &expected, true)?;
            let total = ka_lat.len();
            let close = PhaseNumbers::from_samples(close_lat, close_wall);
            let keep_alive = PhaseNumbers::from_samples(ka_lat, ka_wall);
            (
                keep_alive,
                total,
                Some(HttpNumbers { close, keep_alive }),
                close_retries + ka_retries,
            )
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
        total_requests: total,
        p50_us: headline.p50_us,
        p99_us: headline.p99_us,
        max_us: headline.max_us,
        throughput_rps: headline.throughput_rps,
        wall_ms: headline.wall_ms,
        http,
        mutation,
        mutations_applied,
        retries_total,
    })
}

/// Deterministic jittered backoff before retry `attempt` (1-based) of
/// one request: 4ms · 2^(attempt-1), capped at 100ms, scaled by a
/// jitter factor in [0.5, 1.5) hashed from (seed, client, request,
/// attempt). Seeded, so a rerun of the same config sleeps the same —
/// "jittered" here spreads *clients* apart, not runs.
pub fn retry_backoff(seed: u64, client: usize, request: usize, attempt: u32) -> Duration {
    let base_ms = 4u64.saturating_mul(1 << (attempt.saturating_sub(1)).min(5));
    let mut h = fp_results::hash::Fnv64::new();
    h.update_u64(seed)
        .update_u64(client as u64)
        .update_u64(request as u64)
        .update_u64(u64::from(attempt));
    let jitter = 0.5 + (h.finish() % 1000) as f64 / 1000.0;
    Duration::from_micros((base_ms.min(100) as f64 * 1000.0 * jitter) as u64)
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

/// Fan the workload out over `cfg.clients` threads, collect every
/// per-request latency plus each client's retry count, and report the
/// phase's wall time.
fn drive_clients<W>(cfg: &LoadtestConfig, worker: W) -> Result<(Vec<u64>, u64, Duration), String>
where
    W: Fn(usize) -> Result<(Vec<u64>, u64), String> + Clone + Send + 'static,
{
    let started = Instant::now();
    let mut workers = Vec::with_capacity(cfg.clients);
    for client_idx in 0..cfg.clients {
        let worker = worker.clone();
        workers.push(
            thread::Builder::new()
                .name(format!("fp-loadtest-{client_idx}"))
                .spawn(move || worker(client_idx))
                .map_err(|e| format!("cannot spawn client thread: {e}"))?,
        );
    }
    let mut latencies: Vec<u64> = Vec::with_capacity(cfg.clients * cfg.requests);
    let mut retries = 0u64;
    for worker in workers {
        let (lat, r) = worker
            .join()
            .map_err(|_| "client thread panicked".to_string())??;
        latencies.extend(lat);
        retries += r;
    }
    Ok((latencies, retries, started.elapsed()))
}

/// One frame connection per client for the whole phase. A 408/503
/// answer is retried up to `cfg.retries` times with seeded backoff
/// ([`retry_backoff`]); the recorded latency covers the whole request
/// including its retries, which is what a caller experiences.
fn drive_frame_clients(
    addr: SocketAddr,
    session: &str,
    cfg: &LoadtestConfig,
    expected: &BTreeMap<usize, (Vec<usize>, u64)>,
) -> Result<(Vec<u64>, u64, Duration), String> {
    let session = session.to_string();
    let expected = expected.clone();
    let requests = cfg.requests;
    let kmax = cfg.kmax;
    let max_retries = cfg.retries;
    let seed = cfg.seed;
    drive_clients(cfg, move |client_idx| {
        let mut client = ServeClient::connect(addr)?;
        let mut latencies = Vec::with_capacity(requests);
        let mut retries = 0u64;
        for i in 0..requests {
            let k = (client_idx + i) % (kmax + 1);
            let sent = Instant::now();
            let mut attempt = 0u32;
            let reply = loop {
                let reply = client.call(ServeCall::Query {
                    session: session.clone(),
                    ks: vec![k],
                    deadline_ms: None,
                })?;
                if !matches!(reply.status, 408 | 503) {
                    break reply;
                }
                attempt += 1;
                if attempt > max_retries {
                    return Err(format!(
                        "query k={k} still {} after {max_retries} retr{}: {}",
                        reply.status,
                        if max_retries == 1 { "y" } else { "ies" },
                        reply.body.to_compact()
                    ));
                }
                retries += 1;
                thread::sleep(retry_backoff(seed, client_idx, i, attempt));
            };
            latencies.push(sent.elapsed().as_micros() as u64);
            if reply.status != 200 {
                return Err(format!("query k={k} failed: {}", reply.body.to_compact()));
            }
            verify_row(&reply.body, k, &expected)?;
        }
        client.hang_up()?;
        Ok((latencies, retries))
    })
}

/// HTTP clients. With `keep_alive` each client reuses one connection
/// for the whole phase; without it every request pays connect + close
/// — exactly what the daemon did before it honored keep-alive.
fn drive_http_clients(
    addr: SocketAddr,
    session: &str,
    cfg: &LoadtestConfig,
    expected: &BTreeMap<usize, (Vec<usize>, u64)>,
    keep_alive: bool,
) -> Result<(Vec<u64>, u64, Duration), String> {
    let session = session.to_string();
    let expected = expected.clone();
    let requests = cfg.requests;
    let kmax = cfg.kmax;
    let max_retries = cfg.retries;
    let seed = cfg.seed;
    drive_clients(cfg, move |client_idx| {
        let mut conn: Option<(BufReader<TcpStream>, TcpStream)> = None;
        let mut latencies = Vec::with_capacity(requests);
        let mut retries = 0u64;
        for i in 0..requests {
            let k = (client_idx + i) % (kmax + 1);
            let sent = Instant::now();
            let mut attempt = 0u32;
            let (status, body) = loop {
                if conn.is_none() {
                    let stream =
                        TcpStream::connect(addr).map_err(|e| format!("cannot connect: {e}"))?;
                    // Without this, Nagle queues each small request behind
                    // the peer's delayed ACK and keep-alive connections eat
                    // a ~40 ms stall per round-trip.
                    let _ = stream.set_nodelay(true);
                    let reader = BufReader::new(
                        stream
                            .try_clone()
                            .map_err(|e| format!("cannot clone stream: {e}"))?,
                    );
                    conn = Some((reader, stream));
                }
                let (reader, writer) = conn.as_mut().expect("connection just ensured");
                let connection = if keep_alive { "keep-alive" } else { "close" };
                // One write_all, not write!(stream, ...): the format macro
                // would issue one syscall per fragment on a raw stream, and
                // a multi-segment request is exactly what trips Nagle.
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
                    conn = None;
                }
                if !matches!(status, 408 | 503) {
                    break (status, body);
                }
                attempt += 1;
                if attempt > max_retries {
                    return Err(format!(
                        "query k={k} still {status} after {max_retries} retr{} over http: {body}",
                        if max_retries == 1 { "y" } else { "ies" },
                    ));
                }
                retries += 1;
                thread::sleep(retry_backoff(seed, client_idx, i, attempt));
            };
            latencies.push(sent.elapsed().as_micros() as u64);
            if status != 200 {
                return Err(format!("query k={k} failed over http: {body}"));
            }
            let body = Json::parse(&body).map_err(|e| format!("bad reply body: {e:?}"))?;
            verify_row(&body, k, &expected)?;
        }
        Ok((latencies, retries))
    })
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
            retries: 0,
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
            retries: 0,
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
            retries: 0,
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
    fn retry_backoff_is_deterministic_jittered_and_capped() {
        // Same inputs, same sleep — reruns are byte-reproducible.
        assert_eq!(retry_backoff(7, 3, 11, 2), retry_backoff(7, 3, 11, 2));
        // Different clients jitter apart.
        assert_ne!(retry_backoff(7, 3, 11, 2), retry_backoff(7, 4, 11, 2));
        for attempt in 1..=12 {
            let d = retry_backoff(0, 0, 0, attempt);
            let base = 4u64.saturating_mul(1 << (attempt - 1).min(5)).min(100);
            let lo = Duration::from_micros(base * 500);
            let hi = Duration::from_micros(base * 1500);
            assert!(
                d >= lo && d < hi,
                "attempt {attempt}: {d:?} not in [{lo:?}, {hi:?})"
            );
        }
        // The cap: attempt 6 and beyond sleep the same base (100ms max
        // before jitter).
        assert!(retry_backoff(0, 0, 0, 40) < Duration::from_millis(150));
    }

    #[test]
    fn a_healthy_daemon_needs_no_retries_but_reports_the_count() {
        let cfg = LoadtestConfig {
            graph: "fig1".into(),
            solver: SolverKind::GreedyAll,
            seed: 0,
            clients: 2,
            requests: 4,
            kmax: 2,
            transport: Transport::Frame,
            mutations: 0,
            retries: 3,
        };
        let report = run_loadtest(tiny_registry(), &cfg).unwrap();
        assert_eq!(report.retries_total, 0, "nothing to retry against");
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
