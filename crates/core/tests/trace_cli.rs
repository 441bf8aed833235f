//! `fp sweep --trace` and `fp trace --summary` run as child processes
//! of the real `fp` binary, so the process-global tracer holds only the
//! sweep's own spans (in-process, tests running in parallel would add
//! theirs).

use std::path::{Path, PathBuf};
use std::process::Command;

/// The paper's Figure 1 (7 nodes, 9 edges).
const FIG1: &str = "s x\ns y\nx z1\nx z2\ny z2\ny z3\nz1 w\nz2 w\nz3 w\n";

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fp-trace-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Run the real `fp` binary, asserting success; returns stdout.
fn fp(args: &[&str], workdir: &Path) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_fp"))
        .args(args)
        .current_dir(workdir)
        .output()
        .expect("fp runs");
    assert!(
        out.status.success(),
        "fp {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap()
}

#[test]
fn traced_sweep_dumps_spans_and_trace_summary_aggregates_them() {
    let dir = temp_dir("sweep");
    std::fs::write(dir.join("fig1.txt"), FIG1).unwrap();
    let sweep = [
        "sweep", "--input", "fig1.txt", "--source", "s", "--kmax", "2", "--trials", "2",
    ];

    let mut traced = sweep.to_vec();
    traced.extend(["--trace", "sweep.trace.json"]);
    let out = fp(&traced, &dir);
    assert!(out.contains("span(s) written to"), "{out}");

    // The dump is valid JSON in the Chrome trace-event envelope and
    // holds engine spans from the sweep.
    let text = std::fs::read_to_string(dir.join("sweep.trace.json")).unwrap();
    let doc = fp_results::Json::parse(&text).unwrap();
    let events = doc.get("traceEvents").unwrap().as_array().unwrap();
    assert!(!events.is_empty(), "a sweep records spans");

    // `fp trace --summary` renders the per-name aggregate table.
    let summary = fp(&["trace", "--summary", "sweep.trace.json"], &dir);
    assert!(summary.contains("span(s) across"), "{summary}");
    assert!(summary.contains("sweep.cell.curve"), "{summary}");
    assert!(summary.contains("count"), "{summary}");
    // Figure 1's labels ascend along every edge, so its one freeze
    // kept the label order, and the summary says so.
    let freeze = summary
        .lines()
        .find(|l| l.contains("cgraph.freeze"))
        .unwrap_or_else(|| panic!("no freeze row: {summary}"));
    assert!(freeze.contains("identity=1 nodes=7"), "{freeze}");

    // Tracing is a side channel: the traced table equals untraced.
    let untraced = fp(&sweep, &dir);
    let traced_table = out.split_once("written to").unwrap().1;
    let traced_table = traced_table.split_once('\n').unwrap().1;
    assert_eq!(traced_table, untraced);

    // A streamed build names its path in the arg sums: the power-law
    // generator emits each node's in-edges together, for ascending
    // nodes, so it is read once; Erdős–Rényi streams are replayed.
    for (dataset, passes) in [("power-law:2000:3:7", 1), ("erdos:300:0.02:7", 2)] {
        let trace = format!("{}.trace.json", dataset.split(':').next().unwrap());
        let sweep = format!("sweep --dataset {dataset} --kmax 1 --trials 1 --trace {trace}");
        fp(&sweep.split(' ').collect::<Vec<_>>(), &dir);
        let summary = fp(&["trace", "--summary", &trace], &dir);
        let build = summary
            .lines()
            .find(|l| l.contains("stream.build"))
            .unwrap_or_else(|| panic!("no stream.build row: {summary}"));
        let token = format!("passes={passes}");
        assert!(build.split_whitespace().any(|t| t == token), "{build}");
    }

    let _ = std::fs::remove_dir_all(&dir);
}
