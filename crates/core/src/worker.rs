//! The worker side of the sweep fabric: `fp worker --connect`.
//!
//! [`serve_connect`] dials a dispatcher's `fp sweep --listen` socket,
//! authenticates with the shared `--token`, and speaks the
//! [`fp_results::protocol`] frame protocol: say hello, receive the
//! sweep context, then answer cell requests until a shutdown frame.
//! Lost connections reconnect with capped exponential backoff; a
//! `shutdown` frame ends the worker for good. The graph arrives as
//! explicit structure (node count + index pairs + source index), so the
//! [`Problem`] built here is *identical* — index for index — to the
//! dispatcher's, and every evaluated cell lands the same bits the
//! in-process runner would produce.
//!
//! While a session is open the worker emits a `heartbeat` frame every
//! [`HEARTBEAT_INTERVAL`] from a side thread, so the dispatcher can
//! tell "slow cell" from "hung process": a worker stuck inside a cell
//! still heartbeats (and is governed by the per-cell deadline), while a
//! worker wedged in the transport stops heartbeating and is declared
//! lost. Data frames (hello, responses) route through the
//! [`fp_results::net::Chaos`] fault injector, so `FP_CHAOS=drop@N` and
//! friends perturb real worker processes deterministically in tests.
//! A malformed frame or an impossible graph ends the session with an
//! `Err`; the dispatcher treats that as a crash and re-queues the
//! in-flight cells.

use crate::Problem;
use fp_graph::{DiGraph, NodeId};
use fp_results::net::{Chaos, HEARTBEAT_INTERVAL};
use fp_results::protocol::{read_frame, write_frame, CellResponse, Frame, SweepInit, WorkerHello};
use fp_results::sweep::eval_cell;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Environment variable for failure-injection tests: after answering
/// this many cells, the worker aborts on its next request without
/// responding — the sharpest "worker died mid-cell" a test can stage.
pub const FAIL_AFTER_ENV: &str = "FP_WORKER_FAIL_AFTER";

/// How often the heartbeat thread checks the clock / stop flag. Small
/// so sessions end promptly, large enough to stay invisible in perf.
const HEARTBEAT_TICK: Duration = Duration::from_millis(25);

/// How a finished session ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SessionEnd {
    /// The dispatcher said `shutdown`: the sweep is over.
    Shutdown,
    /// The transport reached EOF without a `shutdown` frame — the
    /// dispatcher dropped us (declared lost, crashed, or finished
    /// without a goodbye). The worker may reconnect.
    Dropped,
}

/// Dial `addr`, authenticate with `token`, and serve sweep cells until
/// the dispatcher sends `shutdown`. Lost connections (including
/// refused dials while the dispatcher is still warming up) retry with
/// capped exponential backoff — 100ms doubling to a 5s ceiling — for
/// up to `retries` consecutive failures. Returns a one-line summary
/// for the CLI to print.
pub fn serve_connect(addr: &str, token: &str, retries: u32) -> Result<String, String> {
    // One injector for the whole process, so `FP_CHAOS` fires once
    // even across reconnects.
    let chaos = Chaos::from_env()?;
    let backoff_total = fp_obs::counter("fp_pool_reconnect_backoff_ms_total");
    let mut served_total = 0usize;
    let mut sessions = 0usize;
    let mut failures = 0u32;
    loop {
        let outcome = dial(addr).and_then(|(read_half, write_half)| {
            serve_session(read_half, write_half, token, &chaos)
        });
        match outcome {
            Ok((served, SessionEnd::Shutdown)) => {
                served_total += served;
                sessions += 1;
                return Ok(format!(
                    "worker: served {served_total} cell(s) over {sessions} session(s) to {addr}"
                ));
            }
            Ok((served, SessionEnd::Dropped)) => {
                served_total += served;
                sessions += 1;
                if served > 0 {
                    // Progress proves the fabric works; a drop after
                    // real work is the dispatcher's call, not ours.
                    failures = 0;
                }
                eprintln!("worker: dispatcher dropped the connection; reconnecting");
            }
            Err(e) => eprintln!("worker: {e}"),
        }
        failures += 1;
        if failures > retries {
            return if served_total > 0 {
                Ok(format!(
                    "worker: dispatcher gone after {failures} attempt(s); \
                     served {served_total} cell(s) over {sessions} session(s)"
                ))
            } else {
                Err(format!(
                    "cannot reach a dispatcher at {addr} after {failures} attempt(s)"
                ))
            };
        }
        let backoff = reconnect_backoff(failures);
        backoff_total.add(backoff.as_millis() as u64);
        std::thread::sleep(backoff);
    }
}

/// Attempt `n` (1-based) waits 100ms · 2^(n-1), capped at 5s.
fn reconnect_backoff(attempt: u32) -> Duration {
    let ms = 100u64.saturating_mul(1u64 << attempt.saturating_sub(1).min(10));
    Duration::from_millis(ms.min(5_000))
}

/// Connect and split the stream into read/write halves.
fn dial(addr: &str) -> Result<(TcpStream, TcpStream), String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(Duration::from_secs(30)));
    let read_half = stream
        .try_clone()
        .map_err(|e| format!("cannot clone the connection to {addr}: {e}"))?;
    Ok((read_half, stream))
}

/// Serve one session: hello with `token`, init, then requests until
/// shutdown/EOF, heartbeating from a side thread the whole time.
/// Returns how many cells were answered and how the session ended.
fn serve_session(
    mut input: impl Read,
    output: impl Write + Send,
    token: &str,
    chaos: &Chaos,
) -> Result<(usize, SessionEnd), String> {
    let fail_after: Option<usize> = std::env::var(FAIL_AFTER_ENV)
        .ok()
        .and_then(|v| v.parse().ok());

    let out = Mutex::new(output);
    chaos.write_data_frame(
        &mut *lock(&out),
        &Frame::Hello(WorkerHello::with_token(token)),
    )?;

    let init = match read_frame(&mut input)? {
        Some(Frame::Init(init)) => init,
        Some(other) => return Err(format!("expected init, got {other:?}")),
        // Pre-init EOF: the dispatcher refused our hello.
        None => {
            return Err("dispatcher closed before init (bad token or protocol version?)".into())
        }
    };
    let (problem, ks) = build_problem(init)?;

    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| heartbeat_loop(&out, &stop));
        let result = serve_cells(&mut input, &out, &problem, &ks, chaos, fail_after);
        stop.store(true, Ordering::Relaxed);
        result
    })
}

/// Emit a heartbeat every [`HEARTBEAT_INTERVAL`] until `stop` is set
/// or the peer stops accepting writes. Heartbeats bypass the chaos
/// injector on purpose: their count is timing-dependent, and chaos
/// must stay deterministic.
fn heartbeat_loop(out: &Mutex<impl Write>, stop: &AtomicBool) {
    let mut last = Instant::now();
    while !stop.load(Ordering::Relaxed) {
        std::thread::sleep(HEARTBEAT_TICK);
        if last.elapsed() < HEARTBEAT_INTERVAL {
            continue;
        }
        if write_frame(&mut *lock(out), &Frame::Heartbeat).is_err() {
            return; // peer gone; the request loop will see it too
        }
        last = Instant::now();
    }
}

/// The request/response loop of one session.
fn serve_cells(
    input: &mut impl Read,
    out: &Mutex<impl Write>,
    problem: &Problem,
    ks: &[usize],
    chaos: &Chaos,
    fail_after: Option<usize>,
) -> Result<(usize, SessionEnd), String> {
    let mut served = 0usize;
    loop {
        match read_frame(input)? {
            Some(Frame::Request(req)) => {
                if fail_after.is_some_and(|n| served >= n) {
                    // Test hook: die abruptly with the cell in flight.
                    std::process::exit(17);
                }
                let output_cell = eval_cell(problem, ks, &req.cell);
                chaos.write_data_frame(
                    &mut *lock(out),
                    &Frame::Response(CellResponse {
                        id: req.id,
                        output: output_cell,
                    }),
                )?;
                served += 1;
            }
            Some(Frame::Shutdown) => return Ok((served, SessionEnd::Shutdown)),
            None => return Ok((served, SessionEnd::Dropped)),
            Some(Frame::Heartbeat) => {} // tolerated, though dispatchers don't send them
            Some(other) => return Err(format!("expected a request, got {other:?}")),
        }
    }
}

/// Lock that shrugs off poisoning: a panic mid-write already tore the
/// session down; the bytes can't get more wrong.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Rebuild the dispatcher's exact problem from the init frame.
fn build_problem(init: SweepInit) -> Result<(Problem, Vec<usize>), String> {
    let g = DiGraph::from_pairs(init.nodes, init.edges)
        .map_err(|e| format!("init frame carries an invalid graph: {e}"))?;
    if init.source >= init.nodes {
        return Err(format!(
            "init frame source index {} out of range for {} nodes",
            init.source, init.nodes
        ));
    }
    let problem = Problem::new(&g, NodeId::new(init.source)).map_err(|e| e.to_string())?;
    Ok((problem, init.ks))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fp_algorithms::SolverKind;
    use fp_results::model::SweepConfig;
    use fp_results::protocol::{CellRequest, PROTOCOL_VERSION};
    use fp_results::sweep::{reduce_cells, run_sweep_cells, sweep_cells, CellOut};
    use fp_results::RunnerOptions;

    const TOKEN: &str = "sesame";

    /// One session over in-memory byte streams, as [`serve_connect`]
    /// runs it over a socket.
    fn session(input: impl Read, output: impl Write + Send) -> Result<(usize, SessionEnd), String> {
        serve_session(input, output, TOKEN, &Chaos::inert())
    }

    fn diamond_init(ks: Vec<usize>) -> SweepInit {
        SweepInit {
            nodes: 4,
            edges: vec![(0, 1), (0, 2), (1, 3), (2, 3)],
            source: 0,
            ks,
        }
    }

    /// Drive a full conversation against a session through in-memory
    /// byte streams and return the responses. Heartbeats may be interleaved
    /// anywhere in the output; they carry no data and are skipped.
    fn converse(init: SweepInit, cells: &[fp_results::sweep::Cell]) -> Vec<CellOut> {
        let mut dispatcher_out = Vec::new();
        write_frame(&mut dispatcher_out, &Frame::Init(init)).unwrap();
        for (i, cell) in cells.iter().enumerate() {
            write_frame(
                &mut dispatcher_out,
                &Frame::Request(CellRequest {
                    id: i as u64,
                    cell: *cell,
                }),
            )
            .unwrap();
        }
        write_frame(&mut dispatcher_out, &Frame::Shutdown).unwrap();

        let mut worker_out = Vec::new();
        let ended = session(dispatcher_out.as_slice(), &mut worker_out).unwrap();
        assert_eq!(ended, (cells.len(), SessionEnd::Shutdown));

        let mut r = worker_out.as_slice();
        match next_data_frame(&mut r) {
            Some(Frame::Hello(h)) => {
                assert_eq!(h.version, PROTOCOL_VERSION);
                assert_eq!(h.token, TOKEN);
            }
            other => panic!("expected hello, got {other:?}"),
        }
        let mut outputs = Vec::new();
        while let Some(frame) = next_data_frame(&mut r) {
            match frame {
                Frame::Response(resp) => {
                    assert_eq!(resp.id, outputs.len() as u64, "answers arrive in order");
                    outputs.push(resp.output);
                }
                other => panic!("expected a response, got {other:?}"),
            }
        }
        outputs
    }

    /// Next non-heartbeat frame, or `None` at EOF.
    fn next_data_frame(r: &mut &[u8]) -> Option<Frame> {
        loop {
            match read_frame(r).unwrap() {
                Some(Frame::Heartbeat) => continue,
                other => return other,
            }
        }
    }

    #[test]
    fn served_cells_match_the_in_process_runner_bit_for_bit() {
        let cfg = SweepConfig {
            ks: vec![0, 1, 2],
            trials: 3,
            seed: 2012,
            solvers: vec![SolverKind::GreedyAll, SolverKind::RandK, SolverKind::RandW],
        };
        let cells = sweep_cells(&cfg);
        let outputs = converse(diamond_init(cfg.ks.clone()), &cells);
        let via_worker = reduce_cells(&cfg, outputs);

        let g = DiGraph::from_pairs(4, [(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
        let problem = Problem::new(&g, NodeId::new(0)).unwrap();
        let in_process = run_sweep_cells(&problem, &cfg, &RunnerOptions::with_jobs(1)).unwrap();

        assert_eq!(via_worker.series.len(), in_process.series.len());
        for (a, b) in via_worker.series.iter().zip(&in_process.series) {
            assert_eq!(a.label, b.label);
            for (pa, pb) in a.points.iter().zip(&b.points) {
                assert_eq!(pa.0, pb.0);
                assert_eq!(pa.1.to_bits(), pb.1.to_bits(), "{}@k={}", a.label, pa.0);
            }
        }
    }

    #[test]
    fn remote_session_treats_preinit_eof_as_a_refusal() {
        let err = session(&[][..], Vec::new()).unwrap_err();
        assert!(err.contains("bad token or protocol version"), "{err}");
    }

    #[test]
    fn remote_hello_carries_the_token() {
        let mut worker_out = Vec::new();
        let _ = session(&[][..], &mut worker_out);
        match next_data_frame(&mut worker_out.as_slice()) {
            Some(Frame::Hello(h)) => assert_eq!(h.token, TOKEN),
            other => panic!("expected hello, got {other:?}"),
        }
    }

    #[test]
    fn a_session_heartbeats_while_waiting_on_a_slow_dispatcher() {
        // A stream that delivers init and then stalls long enough for
        // at least one heartbeat before EOF.
        struct SlowThenEof(Vec<u8>, bool);
        impl Read for SlowThenEof {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if !self.0.is_empty() {
                    let n = buf.len().min(self.0.len());
                    buf[..n].copy_from_slice(&self.0[..n]);
                    self.0.drain(..n);
                    return Ok(n);
                }
                if !self.1 {
                    self.1 = true;
                    std::thread::sleep(HEARTBEAT_INTERVAL + Duration::from_millis(150));
                }
                Ok(0)
            }
        }
        let mut framed = Vec::new();
        write_frame(&mut framed, &Frame::Init(diamond_init(vec![0]))).unwrap();
        let mut worker_out = Vec::new();
        let ended = session(SlowThenEof(framed, false), &mut worker_out).unwrap();
        assert_eq!(ended, (0, SessionEnd::Dropped));
        let mut r = worker_out.as_slice();
        let mut beats = 0usize;
        while let Some(frame) = read_frame(&mut r).unwrap() {
            if matches!(frame, Frame::Heartbeat) {
                beats += 1;
            }
        }
        assert!(beats >= 1, "expected at least one heartbeat, saw {beats}");
    }

    #[test]
    fn reconnect_backoff_doubles_and_caps() {
        assert_eq!(reconnect_backoff(1), Duration::from_millis(100));
        assert_eq!(reconnect_backoff(2), Duration::from_millis(200));
        assert_eq!(reconnect_backoff(4), Duration::from_millis(800));
        assert_eq!(reconnect_backoff(7), Duration::from_millis(5_000));
        assert_eq!(reconnect_backoff(u32::MAX), Duration::from_millis(5_000));
    }

    #[test]
    fn connect_to_nowhere_exhausts_retries_with_a_described_error() {
        // Reserved port with nothing listening: bind, learn the addr,
        // drop the listener, then dial it.
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let err = serve_connect(&addr, "sesame", 0).unwrap_err();
        assert!(err.contains("cannot reach a dispatcher"), "{err}");
    }

    #[test]
    fn garbage_input_is_a_described_error() {
        let garbage = b"this is not a frame stream".to_vec();
        let err = session(garbage.as_slice(), Vec::new()).unwrap_err();
        assert!(err.contains("frame") || err.contains("exceeds"), "{err}");
    }

    #[test]
    fn anything_but_init_first_is_a_protocol_error() {
        let mut dispatcher_out = Vec::new();
        write_frame(
            &mut dispatcher_out,
            &Frame::Request(CellRequest {
                id: 0,
                cell: fp_results::sweep::Cell::Curve {
                    solver: SolverKind::GreedyAll,
                },
            }),
        )
        .unwrap();
        let err = session(dispatcher_out.as_slice(), Vec::new()).unwrap_err();
        assert!(err.contains("expected init"), "{err}");
    }

    #[test]
    fn invalid_init_graphs_are_refused() {
        let bad = SweepInit {
            nodes: 2,
            edges: vec![(0, 5)], // target out of range
            source: 0,
            ks: vec![0, 1],
        };
        let mut dispatcher_out = Vec::new();
        write_frame(&mut dispatcher_out, &Frame::Init(bad)).unwrap();
        let err = session(dispatcher_out.as_slice(), Vec::new()).unwrap_err();
        assert!(err.contains("invalid graph"), "{err}");

        let bad_source = SweepInit {
            nodes: 2,
            edges: vec![(0, 1)],
            source: 9,
            ks: vec![0],
        };
        let mut dispatcher_out = Vec::new();
        write_frame(&mut dispatcher_out, &Frame::Init(bad_source)).unwrap();
        let err = session(dispatcher_out.as_slice(), Vec::new()).unwrap_err();
        assert!(err.contains("out of range"), "{err}");
    }
}
