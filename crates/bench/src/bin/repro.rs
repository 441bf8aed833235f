//! `repro`: regenerate every table and figure of the paper's §5.
//!
//! ```text
//! cargo run --release -p fp-bench --bin repro -- [<figure>...] [flags]
//!     <figure>        fig04 fig05 fig06 fig07 fig08 fig09 fig11 (default: all)
//!     --fast          scale the twitter-like graph down 10×
//!     --out DIR       persist every figure's numbers under DIR
//!                     (sweeps through the run store — identical reruns
//!                     are cache hits; CDF/runtime tables as *.csv)
//!     --jobs N        in-process sweep threads (0 = one per core;
//!                     at most 256)
//!     --budget SECS   wall-clock cap; later figures are skipped and a
//!                     sweep interrupted mid-flight is discarded
//!     --trace FILE    dump Chrome trace-event JSON of the run (spans
//!                     use monotonic clocks only — the figures' bytes
//!                     are identical traced or not)
//!
//! cargo run --release -p fp-bench --bin repro -- baseline [--fast] [--out FILE] [--trace FILE]
//!     time every figure 5 times and write a BENCH_baseline.json document
//!     (default: stdout) of per-figure median, min and max walls; each
//!     run has one sweep thread per core and no budget, so --jobs and
//!     --budget are refused here
//! ```

use fp_core::cli::{parse_count, MAX_PARALLEL};
use std::io::{ErrorKind, Write};
use std::time::Duration;

fn fail(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(1);
}

/// Write `text` to stdout. A reader that closed the pipe early
/// (`repro fig04 | head`) wants no more output: exit quietly, with
/// success.
fn print_stdout(text: &str) {
    let mut stdout = std::io::stdout().lock();
    match stdout
        .write_all(text.as_bytes())
        .and_then(|()| stdout.flush())
    {
        Ok(()) => {}
        Err(e) if e.kind() == ErrorKind::BrokenPipe => std::process::exit(0),
        Err(e) => fail(&format!("cannot write to stdout: {e}")),
    }
}

/// Everything `parse` extracts from argv.
struct Parsed {
    selected: Vec<String>,
    opts: fp_bench::ReproOptions,
    out_file: Option<String>,
    trace_file: Option<String>,
}

/// Split argv into figure selections and `--flag value` options.
/// `baseline` mode takes no figures, and refuses the flags it would
/// otherwise drop (`--jobs`, `--budget`).
fn parse(args: &[String]) -> Result<Parsed, String> {
    let mut selected = Vec::new();
    let mut opts = fp_bench::ReproOptions::default();
    let mut out_file = None;
    let mut trace_file = None;
    let mut run_only_flag = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--fast" => opts.scale = 0.1,
            "--out" => {
                let value = it.next().ok_or("--out needs a value")?;
                opts.out = Some(value.into());
                out_file = Some(value.clone());
            }
            "--jobs" => {
                let value = it.next().ok_or("--jobs needs a value")?;
                opts.jobs = parse_count("jobs", value, MAX_PARALLEL)?;
                run_only_flag.get_or_insert("--jobs");
            }
            "--budget" => {
                let secs: f64 = it
                    .next()
                    .ok_or("--budget needs a value")?
                    .parse()
                    .map_err(|_| "--budget must be seconds".to_string())?;
                if !secs.is_finite() || secs < 0.0 {
                    return Err("--budget must be non-negative seconds".to_string());
                }
                opts.budget = Some(Duration::from_secs_f64(secs));
                run_only_flag.get_or_insert("--budget");
            }
            "--trace" => {
                trace_file = Some(it.next().ok_or("--trace needs a value")?.clone());
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            figure => selected.push(figure.to_string()),
        }
    }
    if selected.first().map(String::as_str) == Some("baseline") {
        if selected.len() > 1 {
            return Err("baseline takes no figure arguments".to_string());
        }
        if let Some(flag) = run_only_flag {
            return Err(format!(
                "{flag} does not apply to baseline, which times every figure \
                 with one sweep thread per core and no budget"
            ));
        }
    }
    Ok(Parsed {
        selected,
        opts,
        out_file,
        trace_file,
    })
}

/// Stop recording and dump the span ring as Chrome trace-event JSON.
fn dump_trace(path: &str) {
    let tracer = fp_obs::tracer();
    tracer.disable();
    if let Err(e) = std::fs::write(path, tracer.chrome_trace_json()) {
        fail(&format!("cannot write {path}: {e}"));
    }
    eprintln!("trace: {} span(s) written to {path}", tracer.len());
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Parsed {
        selected,
        opts,
        out_file,
        trace_file,
    } = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => fail(&e),
    };
    if trace_file.is_some() {
        fp_obs::tracer().enable();
    }

    // `repro baseline`: time the figures, emit BENCH_baseline.json.
    if selected.first().map(String::as_str) == Some("baseline") {
        let doc = match fp_bench::baseline_json(opts.scale) {
            Ok(doc) => doc.to_pretty(),
            Err(e) => fail(&e),
        };
        match out_file {
            None => print_stdout(&doc),
            Some(path) => {
                if let Err(e) = std::fs::write(&path, &doc) {
                    fail(&format!("cannot write {path}: {e}"));
                }
                eprintln!("baseline written to {path}");
            }
        }
        if let Some(path) = &trace_file {
            dump_trace(path);
        }
        return;
    }

    for name in &selected {
        if !fp_bench::FIGURES.contains(&name.as_str()) {
            fail(&format!(
                "unknown figure {name:?}; expected one of {}",
                fp_bench::FIGURES.join(", ")
            ));
        }
    }
    let run_all = selected.is_empty();
    let session = match fp_bench::ReproSession::new(opts) {
        Ok(session) => session,
        Err(e) => fail(&e),
    };
    for name in fp_bench::FIGURES {
        if !(run_all || selected.iter().any(|s| s == name)) {
            continue;
        }
        if session.out_of_budget() {
            eprintln!("{name}: skipped (time budget exhausted)");
            continue;
        }
        match session.run_figure(name) {
            Ok(tables) => print_stdout(&fp_bench::figure_text(&tables)),
            Err(e) => fail(&e),
        }
    }
    if let Some(dir) = &session.options().out {
        let (computed, hits) = session.stats();
        eprintln!(
            "results under {}: {computed} sweep(s) computed, {hits} cache hit(s)",
            dir.display()
        );
    }
    if let Some(path) = &trace_file {
        dump_trace(path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn thread_counts_are_capped_and_workers_is_no_flag() {
        let cap = MAX_PARALLEL.to_string();
        assert!(parse(&argv(&["--jobs", &cap])).is_ok(), "--jobs at the cap");
        let over = (MAX_PARALLEL + 1).to_string();
        let Err(e) = parse(&argv(&["--jobs", &over])) else {
            panic!("--jobs {over} accepted");
        };
        assert!(e.contains("--jobs"), "{e}");
        for (flag, value) in [("--workers", "2"), ("--mem-budget", "1M")] {
            let Err(e) = parse(&argv(&[flag, value])) else {
                panic!("{flag} accepted");
            };
            assert!(e.contains(&format!("unknown flag {flag}")), "{e}");
        }
        // Baseline mode times every figure on an ephemeral session, so
        // it refuses the flags it would drop, and any figure names.
        for (argv_, flag) in [
            (&["baseline", "--jobs", "2"][..], "--jobs"),
            (&["--budget", "60", "baseline"][..], "--budget"),
            (&["baseline", "fig04"][..], "figure"),
        ] {
            let Err(e) = parse(&argv(argv_)) else {
                panic!("{argv_:?} accepted");
            };
            assert!(e.contains(flag), "{argv_:?}: {e}");
        }
        assert!(parse(&argv(&["baseline", "--fast", "--out", "b.json"])).is_ok());
        assert!(parse(&argv(&["fig04", "--jobs", "2", "--budget", "60"])).is_ok());
    }
}
