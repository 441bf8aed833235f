//! `perfbench`: the repository's benchmark.
//!
//! Runs one seeded workload against the workspace's public API and
//! prints, as the last line of standard output, one JSON object with
//! the keys `correct`, `attempted`, `failed` and `metrics`:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sweep-1m --seed 2012 --seconds 15 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics (tracing off);
//! `--trace 1` reports the per-layer ledger from a traced run. The
//! workloads, metric definitions and the layer map are documented in
//! `perfbench/README.md`.

mod harness;
mod online;
mod serve;
mod sweeps;

use harness::{Args, Report};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            eprintln!("{}", Args::USAGE);
            return ExitCode::from(2);
        }
    };
    let scratch = match harness::Scratch::create() {
        Ok(s) => s,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            return ExitCode::from(2);
        }
    };
    let result: Result<Report, String> = match args.workload.as_str() {
        "sweep-1m" => sweeps::sweep_1m(&args),
        "paper-sweep" => sweeps::paper_sweep(&args, &scratch),
        "serve-churn" => serve::serve_churn(&args),
        "online-churn" => online::online_churn(&args, &scratch),
        other => Err(format!(
            "unknown workload {other:?} (sweep-1m, paper-sweep, serve-churn, online-churn)"
        )),
    };
    drop(scratch);
    match result {
        Ok(report) => {
            let ok = report.errors.is_empty() && report.failed == 0;
            for e in &report.errors {
                eprintln!("perfbench: check failed: {e}");
            }
            println!("{}", report.render(&args));
            if ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            ExitCode::from(2)
        }
    }
}
