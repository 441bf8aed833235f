//! End-to-end tests of `fp serve`: concurrent clients over real
//! sockets, error paths over the wire, and the actual `fp` binary
//! (Cargo exposes it as `CARGO_BIN_EXE_fp`).
//!
//! The contract under test is the one DESIGN.md §10 pins: a serve
//! answer for `(graph, solver, k, seed)` is **bit-identical** to the
//! batch `solve_ladder` answer, no matter how many clients interleave
//! their queries against the shared warm session.

use fp_core::prelude::*;
use fp_core::registry::GraphRegistry;
use fp_core::serve::{ApiState, ServeClient, Server};
use fp_results::protocol::ServeCall;
use fp_results::Json;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Command, Stdio};
use std::thread;

/// Figure 1 as a labeled edge list.
const FIG1: &str = "s x\ns y\nx z1\nx z2\ny z2\ny z3\nz1 w\nz2 w\nz3 w\n";

fn fig1_registry() -> GraphRegistry {
    let registry = GraphRegistry::new();
    registry.put_edge_list("fig1", "s", FIG1).unwrap();
    registry
}

/// Batch ladder for `(solver, seed)` on the registry's fig1:
/// `k -> (placement node indices, fr bits)`.
fn batch_ladder(
    registry: &GraphRegistry,
    solver: SolverKind,
    seed: u64,
    kmax: usize,
) -> BTreeMap<usize, (Vec<usize>, u64)> {
    let ks: Vec<usize> = (0..=kmax).collect();
    registry
        .get("fig1")
        .unwrap()
        .problem
        .solve_ladder(solver, &ks, seed)
        .into_iter()
        .map(|(k, placement, fr)| {
            let nodes = placement.nodes().iter().map(|v| v.index()).collect();
            (k, (nodes, fr.to_bits()))
        })
        .collect()
}

/// Pull `(k, fr bits, placement indices)` out of a 200 query reply.
fn reply_rows(body: &Json) -> Vec<(usize, u64, Vec<usize>)> {
    body.expect("results")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|row| {
            let k = row.expect("k").unwrap().as_usize().unwrap();
            let fr = row.expect("fr").unwrap().as_f64().unwrap().to_bits();
            let nodes = row
                .expect("placement")
                .unwrap()
                .as_array()
                .unwrap()
                .iter()
                .map(|v| v.as_usize().unwrap())
                .collect();
            (k, fr, nodes)
        })
        .collect()
}

/// Many clients, one shared warm session per solver, adversarially
/// interleaved budgets — every reply must match the batch ladder bit
/// for bit. Covers both ways a session fills a budget: the rung-cached
/// ladder (greedy family) and the per-k draw memo (Rand_W, Rand_I).
#[test]
fn concurrent_interleaved_clients_match_the_batch_ladder() {
    const KMAX: usize = 4;
    const CLIENTS: usize = 6;
    const SEED: u64 = 42;
    let registry = fig1_registry();
    let expected: BTreeMap<&'static str, _> = SolverKind::PAPER_SET
        .iter()
        .map(|&solver| (solver.label(), batch_ladder(&registry, solver, SEED, KMAX)))
        .collect();

    let server = Server::bind("127.0.0.1:0", ApiState::new(registry, None)).unwrap();
    let addr = server.local_addr();
    let handle = server.spawn();

    // One shared session per paper solver.
    let mut sessions = Vec::new();
    let mut opener = ServeClient::connect(addr).unwrap();
    for solver in SolverKind::PAPER_SET {
        let reply = opener
            .call(ServeCall::SessionOpen {
                graph: "fig1".into(),
                solver,
                seed: SEED,
            })
            .unwrap();
        assert_eq!(reply.status, 201, "{}", reply.body.to_compact());
        let id = reply
            .body
            .expect("session")
            .unwrap()
            .as_str()
            .unwrap()
            .to_string();
        sessions.push((solver, id));
    }

    // Each client walks the budgets in a different order — descending,
    // ascending, zig-zag — so smaller-k queries constantly land on
    // sessions already advanced past them, and multi-k ladders overlap
    // single-k probes.
    let mut workers = Vec::new();
    for client in 0..CLIENTS {
        let sessions = sessions.clone();
        let expected = expected.clone();
        workers.push(thread::spawn(move || {
            let mut conn = ServeClient::connect(addr).unwrap();
            for round in 0..3 {
                for (solver, id) in &sessions {
                    let ks: Vec<usize> = match (client + round) % 3 {
                        0 => (0..=KMAX).rev().collect(),
                        1 => (0..=KMAX).collect(),
                        _ => vec![(client + round) % (KMAX + 1)],
                    };
                    let reply = conn
                        .call(ServeCall::Query {
                            session: id.clone(),
                            ks: ks.clone(),
                            deadline_ms: None,
                        })
                        .unwrap();
                    assert_eq!(reply.status, 200, "{}", reply.body.to_compact());
                    let rows = reply_rows(&reply.body);
                    assert_eq!(rows.len(), ks.len(), "answers in the caller's order");
                    for (asked, (k, fr, nodes)) in ks.iter().zip(&rows) {
                        assert_eq!(asked, k);
                        let (want_nodes, want_fr) = &expected[solver.label()][k];
                        assert_eq!(
                            fr,
                            want_fr,
                            "{} k={k} client {client}: serve fr diverged from batch",
                            solver.label()
                        );
                        assert_eq!(nodes, want_nodes, "{} k={k}", solver.label());
                    }
                }
            }
            conn.hang_up().unwrap();
        }));
    }
    for worker in workers {
        worker.join().unwrap();
    }
    opener.hang_up().unwrap();
    handle.stop().unwrap();
}

/// Every operator mistake gets a precise wire-level status: bad
/// uploads 400, conflicts 409, unknown ids 404, duplicate session
/// creates 409 (naming the survivor), expired deadlines 408.
#[test]
fn error_paths_over_the_wire() {
    let server = Server::bind("127.0.0.1:0", ApiState::new(fig1_registry(), None)).unwrap();
    let addr = server.local_addr();
    let handle = server.spawn();
    let mut client = ServeClient::connect(addr).unwrap();

    // Malformed edge list: 400 with the parser's line number.
    let reply = client
        .call(ServeCall::GraphPut {
            name: "broken".into(),
            source: "a".into(),
            edges_text: "a b\nonly-one-token\n".into(),
        })
        .unwrap();
    assert_eq!(reply.status, 400);
    assert!(reply.body.to_compact().contains("line 2"));

    // Re-using a name for different content: 409.
    let reply = client
        .call(ServeCall::GraphPut {
            name: "fig1".into(),
            source: "a".into(),
            edges_text: "a b\n".into(),
        })
        .unwrap();
    assert_eq!(reply.status, 409);

    // Opening a session on a graph that is not registered: 404.
    let open = |graph: &str| ServeCall::SessionOpen {
        graph: graph.into(),
        solver: SolverKind::GreedyAll,
        seed: 0,
    };
    assert_eq!(client.call(open("nope")).unwrap().status, 404);

    // Duplicate session create: 409, and the reply names the surviving
    // session so the client can just use it.
    let first = client.call(open("fig1")).unwrap();
    assert_eq!(first.status, 201);
    let id = first
        .body
        .expect("session")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string();
    let dup = client.call(open("fig1")).unwrap();
    assert_eq!(dup.status, 409);
    assert_eq!(
        dup.body.expect("session").unwrap().as_str().unwrap(),
        id,
        "conflict names the survivor"
    );

    // Query against an id nobody issued: 404.
    let query = |session: &str, ks: Vec<usize>, deadline_ms: Option<u64>| ServeCall::Query {
        session: session.into(),
        ks,
        deadline_ms,
    };
    assert_eq!(
        client
            .call(query("feedfacedeadbeef", vec![1], None))
            .unwrap()
            .status,
        404
    );

    // An empty budget list is a client bug, not a no-op: 400.
    assert_eq!(client.call(query(&id, vec![], None)).unwrap().status, 400);

    // A zero deadline on a cold budget: deterministic 408 that reports
    // how far the ladder had warmed; the retry without a deadline then
    // completes (the partial ladder is kept, never discarded).
    let expired = client.call(query(&id, vec![3], Some(0))).unwrap();
    assert_eq!(expired.status, 408, "{}", expired.body.to_compact());
    assert!(expired.body.expect("ready_rungs").is_ok());
    let retry = client.call(query(&id, vec![3], None)).unwrap();
    assert_eq!(retry.status, 200);
    // ... and once warm, the same budget is served even at deadline 0.
    assert_eq!(
        client.call(query(&id, vec![3], Some(0))).unwrap().status,
        200
    );

    // Closing twice: first 200, then 404; queries after close: 404.
    let close = ServeCall::SessionClose {
        session: id.clone(),
    };
    assert_eq!(client.call(close.clone()).unwrap().status, 200);
    assert_eq!(client.call(close).unwrap().status, 404);
    assert_eq!(client.call(query(&id, vec![1], None)).unwrap().status, 404);

    client.hang_up().unwrap();
    handle.stop().unwrap();
}

/// A frame of half a megabyte of `[`, sent before any call, is closed
/// without a reply; the daemon keeps answering bit-identically and
/// stops cleanly. Parsed without a nesting cap, that frame would
/// overflow the connection thread's stack and abort the process.
#[test]
fn deeply_nested_frame_is_dropped_and_the_daemon_keeps_serving() {
    let registry = fig1_registry();
    let expected = batch_ladder(&registry, SolverKind::GreedyAll, 0, 2);
    let server = Server::bind("127.0.0.1:0", ApiState::new(registry, None)).unwrap();
    let addr = server.local_addr();
    let handle = server.spawn();

    let body = vec![b'['; 500_000];
    let mut hostile = TcpStream::connect(addr).unwrap();
    hostile
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .unwrap();
    hostile
        .write_all(&(body.len() as u32).to_be_bytes())
        .unwrap();
    hostile.write_all(&body).unwrap();
    let mut reply = [0u8; 64];
    let n = hostile
        .read(&mut reply)
        .expect("the daemon closes the connection");
    assert_eq!(n, 0, "closed without a reply, got {:?}", &reply[..n]);

    let mut client = ServeClient::connect(addr).unwrap();
    let open = client
        .call(ServeCall::SessionOpen {
            graph: "fig1".into(),
            solver: SolverKind::GreedyAll,
            seed: 0,
        })
        .unwrap();
    assert_eq!(open.status, 201, "{}", open.body.to_compact());
    let session = open.body.expect("session").unwrap().as_str().unwrap();
    let reply = client
        .call(ServeCall::Query {
            session: session.to_string(),
            ks: vec![2],
            deadline_ms: None,
        })
        .unwrap();
    assert_eq!(reply.status, 200, "{}", reply.body.to_compact());
    let (want_nodes, want_fr) = &expected[&2];
    assert_eq!(
        reply_rows(&reply.body),
        vec![(2, *want_fr, want_nodes.clone())]
    );
    client.hang_up().unwrap();
    handle.stop().unwrap();
}

/// A curve of four billion budgets is refused with a 400 before any
/// budget list is built (building it would abort the process on a
/// 32 GB allocation), and the daemon keeps answering.
#[test]
fn oversized_budget_request_is_refused_and_the_daemon_keeps_serving() {
    let server = Server::bind("127.0.0.1:0", ApiState::new(fig1_registry(), None)).unwrap();
    let addr = server.local_addr();
    let handle = server.spawn();
    let get = |path: &str| {
        let mut conn = TcpStream::connect(addr).unwrap();
        write!(conn, "GET {path} HTTP/1.1\r\nHost: fp\r\n\r\n").unwrap();
        let mut response = String::new();
        conn.read_to_string(&mut response).unwrap();
        let status: u16 = response.split_whitespace().nth(1).unwrap().parse().unwrap();
        status
    };
    assert_eq!(get("/sessions/nope/curve?kmax=4000000000"), 400);
    assert_eq!(get("/health"), 200);
    handle.stop().unwrap();
}

/// A `stop` call shuts the daemon down cleanly: the accept loop exits,
/// warm sessions are torn down, and the port actually closes.
#[test]
fn stop_closes_the_port_and_tears_down_sessions() {
    let server = Server::bind("127.0.0.1:0", ApiState::new(fig1_registry(), None)).unwrap();
    let addr = server.local_addr();
    let state = server.state().clone();
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

    let reply = client.call(ServeCall::Stop).unwrap();
    assert_eq!(reply.status, 200);
    handle.stop().unwrap(); // joins the accept loop
    assert!(state.sessions().is_empty(), "sessions torn down on stop");
    // The listener is gone: a fresh connection must be refused. (A few
    // retries absorb TIME_WAIT scheduling noise.)
    let refused = (0..20).any(|_| {
        thread::sleep(std::time::Duration::from_millis(10));
        TcpStream::connect(addr).is_err()
    });
    assert!(refused, "port {addr} still accepting after stop");
}

/// Drive the *real* `fp` binary: `fp serve` on an ephemeral port,
/// health + placement over plain HTTP, `POST /stop`, clean exit. The
/// placement answer must be bit-identical to the batch answer computed
/// in-process — the same gate CI's serve-smoke job applies.
#[test]
fn fp_serve_binary_answers_http_and_stops_cleanly() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_fp"))
        .args(["serve", "--addr", "127.0.0.1:0"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn fp serve");

    // The daemon announces its bound address on stderr before serving.
    let mut stderr = BufReader::new(child.stderr.take().unwrap());
    let mut banner = String::new();
    stderr.read_line(&mut banner).unwrap();
    let addr: SocketAddr = banner
        .split("listening on ")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("no address in banner {banner:?}"))
        .parse()
        .unwrap();

    let http = |request: String| -> (u16, Json) {
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.write_all(request.as_bytes()).unwrap();
        let mut response = String::new();
        conn.read_to_string(&mut response).unwrap();
        let status: u16 = response.split_whitespace().nth(1).unwrap().parse().unwrap();
        let body = response.split("\r\n\r\n").nth(1).unwrap();
        (status, Json::parse(body).unwrap())
    };
    let get = |path: &str| http(format!("GET {path} HTTP/1.1\r\nHost: fp\r\n\r\n"));
    let post = |path: &str| {
        http(format!(
            "POST {path} HTTP/1.1\r\nHost: fp\r\nContent-Length: 0\r\n\r\n"
        ))
    };

    let (status, health) = get("/health");
    assert_eq!(status, 200, "{}", health.to_compact());
    assert!(health.expect("graphs").unwrap().as_usize().unwrap() > 0);

    // layered-sparse ships as a built-in; ask the daemon for Greedy_All
    // k=3 and check the FR bits against the in-process batch answer.
    let (status, session) = post("/sessions?graph=layered-sparse&solver=G_ALL&seed=0");
    assert_eq!(status, 201, "{}", session.to_compact());
    let id = session
        .expect("session")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string();
    let (status, body) = get(&format!("/sessions/{id}/placement?k=3"));
    assert_eq!(status, 200, "{}", body.to_compact());
    let served = reply_rows(&body);

    let registry = GraphRegistry::with_builtins();
    let entry = registry.get("layered-sparse").unwrap();
    let batch = entry.problem.solve_ladder(SolverKind::GreedyAll, &[3], 0);
    let (_, placement, fr) = &batch[0];
    let want: Vec<usize> = placement.nodes().iter().map(|v| v.index()).collect();
    assert_eq!(served, vec![(3, fr.to_bits(), want)]);

    let (status, stopping) = post("/stop");
    assert_eq!(status, 200, "{}", stopping.to_compact());
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success(), "fp serve exited {:?}", out.status);
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("stopped"),
        "shutdown summary on stdout"
    );
}
