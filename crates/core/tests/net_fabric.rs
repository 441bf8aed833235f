//! End-to-end tests of the multi-process sweep fabric: a TCP
//! dispatcher (`SweepListener` / `fp sweep --listen`) fed by real
//! `fp worker --connect` processes, under fault injection.
//!
//! The contracts under test:
//!
//! 1. a TCP sweep with one killed worker and one hung worker produces
//!    the **bit-identical** result of a single-process run, with zero
//!    lost cells;
//! 2. adversarial connections (truncated frames, oversized lengths,
//!    deeply nested JSON, wrong tokens, wrong protocol versions,
//!    slow-loris handshakes) are closed without a reply and never
//!    perturb the sweep;
//! 3. a worker that crashes mid-session (chaos truncate) reconnects
//!    with backoff and keeps serving;
//! 4. `fp sweep --listen --out DIR` writes the same run directory as
//!    `--jobs`, and a worker that dies mid-sweep leaves exactly one
//!    complete run and no staging debris;
//! 5. more workers than cells neither change the result nor wedge the
//!    listener.
//!
//! A worker that dials in after the sweep has ended finds no listener
//! and exits non-zero once its retries run out, so tests reap workers
//! without asserting the exit status of one that may arrive late.

use fp_core::prelude::*;
use fp_results::{NetOptions, SweepListener};
use std::io::{BufRead as _, Read as _, Write as _};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

/// The compiled `fp` binary.
fn fp_exe() -> &'static str {
    env!("CARGO_BIN_EXE_fp")
}

const TOKEN: &str = "fabric-secret";

/// A small layered edge list with enough structure that solvers
/// disagree and randomized trials matter.
const EDGES: &str = "s a\ns b\ns c\na d\na e\nb d\nb e\nc e\nd f\nd g\ne f\ne g\nf h\ng h\n";

fn fabric_problem() -> (DiGraph, NodeId, SweepConfig) {
    let (g, labels) = fp_core::graph::from_edge_list(EDGES).unwrap();
    let source = labels.iter().position(|l| l == "s").unwrap();
    let cfg = SweepConfig {
        ks: (0..=4).collect(),
        trials: 4,
        seed: 0xFAB51C,
        solvers: SolverKind::PAPER_SET.to_vec(),
    };
    (g, NodeId::new(source), cfg)
}

fn reference(g: &DiGraph, source: NodeId, cfg: &SweepConfig) -> SweepResult {
    let problem = Problem::new(g, source).unwrap();
    run_sweep_with(&problem, cfg, &RunnerOptions::with_jobs(1)).unwrap()
}

/// Assert two sweep results agree down to the last mantissa bit.
fn assert_bits_equal(got: &SweepResult, want: &SweepResult, tag: &str) {
    assert_eq!(got.series.len(), want.series.len(), "{tag}: series count");
    for (a, b) in got.series.iter().zip(&want.series) {
        assert_eq!(a.label, b.label, "{tag}");
        assert_eq!(a.points.len(), b.points.len(), "{tag}: {}", a.label);
        for (pa, pb) in a.points.iter().zip(&b.points) {
            assert_eq!(pa.0, pb.0, "{tag}: {}", a.label);
            assert_eq!(
                pa.1.to_bits(),
                pb.1.to_bits(),
                "{tag}: {}@k={} must be bit-identical",
                a.label,
                pa.0
            );
        }
    }
}

/// Spawn a real `fp worker --connect` child with extra environment.
fn spawn_worker(addr: &str, token: &str, envs: &[(&str, &str)]) -> Child {
    let mut cmd = Command::new(fp_exe());
    cmd.args(["worker", "--connect", addr, "--token", token])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    for (k, v) in envs {
        cmd.env(k, v);
    }
    cmd.spawn().expect("fp worker spawns")
}

/// Options tuned for tests: lost workers are declared dead after
/// ~1.2s of silence instead of the production 5s.
fn fast_opts() -> NetOptions {
    NetOptions {
        heartbeat_timeout: Duration::from_millis(1200),
        ..NetOptions::new(TOKEN)
    }
}

/// Kill (if still running) and wait for every worker, whatever its
/// exit status.
fn reap(workers: impl IntoIterator<Item = Child>) {
    for mut w in workers {
        let _ = w.kill();
        let _ = w.wait();
    }
}

#[test]
fn tcp_sweep_survives_killed_and_hung_workers_bit_for_bit() {
    let (g, source, cfg) = fabric_problem();
    let listener = SweepListener::bind("127.0.0.1:0", fast_opts()).unwrap();
    let addr = listener.local_addr().to_string();

    // One worker exits(17) for good after two served cells, one hangs
    // mid-write on its third data frame (its heartbeats stop with it —
    // the writer is held), one healthy survivor carries the sweep home.
    let doomed = spawn_worker(&addr, TOKEN, &[("FP_WORKER_FAIL_AFTER", "2")]);
    let hung = spawn_worker(&addr, TOKEN, &[("FP_CHAOS", "hang@3")]);
    let healthy = spawn_worker(&addr, TOKEN, &[]);

    let via_tcp = listener.run(&g, source, &cfg).unwrap();
    assert_bits_equal(&via_tcp, &reference(&g, source, &cfg), "kill+hang");

    // The hung worker sleeps for an hour by design.
    reap([hung, doomed, healthy]);
}

#[test]
fn chaos_truncate_crash_reconnects_and_finishes_bit_for_bit() {
    let (g, source, cfg) = fabric_problem();
    let listener = SweepListener::bind("127.0.0.1:0", fast_opts()).unwrap();
    let addr = listener.local_addr().to_string();

    // The chaotic worker truncates its first response mid-frame and
    // errors out of the session; chaos fires once per process, so its
    // reconnect (after backoff) serves clean. A delayed worker stalls
    // one write by 300ms — under the heartbeat timeout, so it is
    // merely slow, never declared lost.
    let chaotic = spawn_worker(&addr, TOKEN, &[("FP_CHAOS", "truncate@2")]);
    let delayed = spawn_worker(&addr, TOKEN, &[("FP_CHAOS", "delay@2:300")]);

    let via_tcp = listener.run(&g, source, &cfg).unwrap();
    assert_bits_equal(&via_tcp, &reference(&g, source, &cfg), "truncate+delay");

    reap([chaotic, delayed]);
}

/// Write raw bytes to the listener and assert the dispatcher closes
/// the connection without ever replying.
fn assert_closed_without_reply(addr: &str, tag: &str, bytes: &[u8]) {
    let mut stream = TcpStream::connect(addr).expect(tag);
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(bytes).expect(tag);
    let mut buf = [0u8; 64];
    let n = stream
        .read(&mut buf)
        .unwrap_or_else(|e| panic!("{tag}: read failed: {e}"));
    assert_eq!(
        n, 0,
        "{tag}: dispatcher must close without a reply, got {buf:?}"
    );
}

/// A length-prefixed frame as the wire expects it.
fn frame(body: &[u8]) -> Vec<u8> {
    let mut out = (body.len() as u32).to_be_bytes().to_vec();
    out.extend_from_slice(body);
    out
}

#[test]
fn adversarial_connections_never_perturb_the_sweep() {
    let (g, source, cfg) = fabric_problem();
    let opts = NetOptions {
        // Short enough that the slow-loris probe resolves quickly.
        hello_timeout: Duration::from_millis(400),
        ..fast_opts()
    };
    let listener = SweepListener::bind("127.0.0.1:0", opts).unwrap();
    let addr = listener.local_addr().to_string();

    let via_tcp = std::thread::scope(|scope| {
        let run = scope.spawn(|| listener.run(&g, source, &cfg));

        // Every shape of hostile client, against the live listener.
        let wrong_token =
            format!(r#"{{"type":"hello","version":2,"pid":1,"token":"not-{TOKEN}"}}"#);
        let wrong_version =
            format!(r#"{{"type":"hello","version":999,"pid":1,"token":"{TOKEN}"}}"#);
        assert_closed_without_reply(&addr, "wrong token", &frame(wrong_token.as_bytes()));
        assert_closed_without_reply(&addr, "wrong version", &frame(wrong_version.as_bytes()));
        assert_closed_without_reply(
            &addr,
            "tokenless hello",
            &frame(br#"{"type":"hello","version":2,"pid":1}"#),
        );
        assert_closed_without_reply(&addr, "not json", &frame(b"GET / HTTP/1.1"));
        // Nesting past the parser's cap: a typed parse error, not a
        // stack overflow that takes the dispatcher down.
        assert_closed_without_reply(&addr, "deep nesting", &frame(&[b'['; 500_000]));
        // Oversized declared length: rejected before any allocation.
        assert_closed_without_reply(&addr, "oversized length", &u32::MAX.to_be_bytes());
        // Truncated frame: declares 64 bytes, delivers 10, then stalls.
        let mut truncated = 64u32.to_be_bytes().to_vec();
        truncated.extend_from_slice(b"0123456789");
        assert_closed_without_reply(&addr, "truncated frame", &truncated);
        // Slow-loris: two bytes of length prefix, then silence — the
        // hello timeout must cut it off.
        assert_closed_without_reply(&addr, "slow loris", &[0, 0]);

        // A real worker with the wrong token is refused and gives up
        // with a described error (non-zero exit).
        let refused = spawn_worker(&addr, "wrong-secret", &[])
            .wait_with_output()
            .expect("refused worker runs");
        assert!(
            !refused.status.success(),
            "a wrong-token worker must exit non-zero"
        );
        let stderr = String::from_utf8_lossy(&refused.stderr);
        assert!(
            stderr.contains("bad token or protocol version"),
            "stderr explains the refusal: {stderr}"
        );

        // After all that abuse, one honest worker completes the sweep
        // and the bits are exactly the single-process bits.
        let honest = spawn_worker(&addr, TOKEN, &[]);
        let via_tcp = run.join().unwrap().unwrap();
        reap([honest]);
        via_tcp
    });
    assert_bits_equal(&via_tcp, &reference(&g, source, &cfg), "post-abuse");
}

/// A fresh scratch directory holding `edges.txt`.
fn work_dir() -> std::path::PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "fp-net-it-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("edges.txt"), EDGES).unwrap();
    dir
}

/// `fp sweep` over `edges.txt` in `work`, storing under `out`.
fn sweep_args(kmax: &str, trials: &str, out: &str) -> Vec<String> {
    [
        "sweep",
        "--input",
        "edges.txt",
        "--source",
        "s",
        "--kmax",
        kmax,
        "--trials",
        trials,
        "--seed",
        "7",
        "--out",
        out,
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

/// A running `fp sweep --listen` dispatcher: the child, the address
/// scraped off its stderr banner, and a thread draining the rest of
/// its stderr (so it can never block on a full pipe).
struct CliDispatcher {
    child: Child,
    addr: String,
    banner: String,
    stderr: std::thread::JoinHandle<String>,
}

impl CliDispatcher {
    fn start(args: Vec<String>, work: &std::path::Path) -> Self {
        let mut child = Command::new(fp_exe())
            .args(args)
            .args(["--listen", "127.0.0.1:0", "--token", TOKEN])
            .current_dir(work)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("dispatcher spawns");
        let mut banner = String::new();
        let mut stderr = std::io::BufReader::new(child.stderr.take().unwrap());
        stderr.read_line(&mut banner).unwrap();
        let addr = banner
            .split("listening on ")
            .nth(1)
            .and_then(|rest| rest.split(' ').next())
            .unwrap_or_else(|| panic!("no address in banner {banner:?}"))
            .to_string();
        let stderr = std::thread::spawn(move || {
            let mut rest = String::new();
            let _ = stderr.read_to_string(&mut rest);
            rest
        });
        Self {
            child,
            addr,
            banner,
            stderr,
        }
    }

    /// Wait for the sweep and require it to succeed.
    fn finish(self) {
        let out = self.child.wait_with_output().expect("dispatcher finishes");
        let tail = self.stderr.join().unwrap();
        assert!(
            out.status.success(),
            "tcp sweep failed:\n{}{tail}",
            self.banner
        );
    }
}

/// Every (relative path, bytes) under `root`, sorted.
fn dir_contents(root: &std::path::Path) -> Vec<(String, Vec<u8>)> {
    fn walk(root: &std::path::Path, dir: &std::path::Path, out: &mut Vec<(String, Vec<u8>)>) {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                walk(root, &path, out);
            } else {
                let rel = path.strip_prefix(root).unwrap().display().to_string();
                out.push((rel, std::fs::read(&path).unwrap()));
            }
        }
    }
    let mut out = Vec::new();
    walk(root, root, &mut out);
    out.sort();
    out
}

#[test]
fn cli_tcp_sweep_run_dir_matches_local_jobs_byte_for_byte() {
    let work = work_dir();

    // Reference run over in-process threads.
    let local = Command::new(fp_exe())
        .args(sweep_args("3", "2", "run-local"))
        .args(["--jobs", "2"])
        .current_dir(&work)
        .output()
        .expect("local sweep runs");
    assert!(
        local.status.success(),
        "{}",
        String::from_utf8_lossy(&local.stderr)
    );

    // The same sweep over TCP, fed by two workers. The first holds its
    // first reply (data frame 2; the hello is frame 1) for 2 s, so the
    // sweep cannot end before the second has joined and served: alone,
    // a fast first worker could finish every cell and leave the second
    // to find the dispatcher gone. The delay also holds the writer its
    // heartbeats share, so it stays under the dispatcher's 5 s
    // heartbeat timeout.
    let dispatcher = CliDispatcher::start(sweep_args("3", "2", "run-tcp"), &work);
    let w1 = spawn_worker(&dispatcher.addr, TOKEN, &[("FP_CHAOS", "delay@2:2000")]);
    let w2 = spawn_worker(&dispatcher.addr, TOKEN, &[]);
    dispatcher.finish();

    // Workers exit cleanly and report what they served.
    for (i, w) in [w1, w2].into_iter().enumerate() {
        let done = w.wait_with_output().expect("worker finishes");
        assert!(done.status.success(), "worker {i} failed");
        let stdout = String::from_utf8_lossy(&done.stdout);
        assert!(
            stdout.contains("worker: served"),
            "worker {i} prints a summary: {stdout:?}"
        );
    }

    // Byte-identical run directories, exactly like the CI `diff -r`.
    let a = dir_contents(&work.join("run-local"));
    let b = dir_contents(&work.join("run-tcp"));
    assert!(!a.is_empty(), "local run stored something");
    assert_eq!(
        a.iter().map(|(p, _)| p).collect::<Vec<_>>(),
        b.iter().map(|(p, _)| p).collect::<Vec<_>>(),
        "same file tree"
    );
    for ((path, bytes_a), (_, bytes_b)) in a.iter().zip(&b) {
        assert_eq!(bytes_a, bytes_b, "{path} differs between local and TCP");
    }

    let _ = std::fs::remove_dir_all(&work);
}

#[test]
fn a_worker_dying_mid_sweep_does_not_corrupt_the_store() {
    let work = work_dir();
    let dispatcher = CliDispatcher::start(sweep_args("3", "2", "store"), &work);

    // The doomed worker is the only one until it dies on its third
    // request (after two served cells), so it certainly joined the
    // sweep and died inside it; the healthy one then carries it home.
    let mut doomed = spawn_worker(&dispatcher.addr, TOKEN, &[("FP_WORKER_FAIL_AFTER", "2")]);
    let status = doomed.wait().expect("doomed worker exits");
    assert_eq!(status.code(), Some(17), "the worker died mid-sweep");
    let healthy = spawn_worker(&dispatcher.addr, TOKEN, &[]);
    dispatcher.finish();
    reap([healthy]);

    let store = RunStore::open(work.join("store")).unwrap();
    let runs = store.list().unwrap();
    assert_eq!(runs.len(), 1, "exactly one complete run: {runs:?}");
    let loaded = store.load(&runs[0].id).unwrap().expect("loadable");
    assert_eq!(loaded.result.series.len(), 7, "all seven solvers stored");
    // Only the dispatcher writes the store, so a crashed worker leaves
    // no staging debris at all.
    assert_eq!(store.sweep_staging(Duration::ZERO).unwrap(), 0);

    let _ = std::fs::remove_dir_all(&work);
}

#[test]
fn more_workers_than_cells_neither_change_the_result_nor_wedge() {
    let (g, source, _) = fabric_problem();
    let cfg = SweepConfig {
        ks: vec![0, 1],
        trials: 1,
        seed: 5,
        solvers: vec![SolverKind::GreedyAll], // one curve cell
    };
    let listener = SweepListener::bind("127.0.0.1:0", fast_opts()).unwrap();
    let addr = listener.local_addr().to_string();
    let workers: Vec<Child> = (0..8).map(|_| spawn_worker(&addr, TOKEN, &[])).collect();

    let via_tcp = listener.run(&g, source, &cfg).unwrap();
    assert_eq!(via_tcp, reference(&g, source, &cfg));

    // Most of the eight found the sweep already over.
    reap(workers);
}
