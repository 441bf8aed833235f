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
//!     --workers N     sweep worker processes (0 = in-process; at most
//!                     256); same stored bytes as in-process runs
//!     --budget SECS   wall-clock cap; later figures are skipped and a
//!                     sweep interrupted mid-flight is discarded
//!                     (with --workers it only gates between figures)
//!     --trace FILE    dump Chrome trace-event JSON of the run (spans
//!                     use monotonic clocks only — the figures' bytes
//!                     are identical traced or not)
//!     --mem-budget BYTES
//!                     cap the process-wide scale accountant (accepts
//!                     K/M/G suffixes); a streamed build that would
//!                     exceed it fails with a typed error, not OOM. In
//!                     baseline mode this is also the budget the
//!                     `large_scale` cell is charged against (default
//!                     256M).
//!
//! cargo run --release -p fp-bench --bin repro -- baseline [--fast] [--out FILE]
//!     time every figure once and write a BENCH_baseline.json document
//!     (default: stdout) for future PRs to compare against; the
//!     large_scale section streams a 10^6-node power-law graph into
//!     the compact CSR under the memory budget (full size even with
//!     --fast — the streamed path is cheap at a million nodes)
//! ```

use fp_core::cli::{parse_count, MAX_PARALLEL};
use std::time::Duration;

fn fail(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(1);
}

/// Everything `parse` extracts from argv.
struct Parsed {
    selected: Vec<String>,
    opts: fp_bench::ReproOptions,
    out_file: Option<String>,
    trace_file: Option<String>,
    mem_budget: Option<u64>,
}

/// Split argv into figure selections and `--flag value` options.
fn parse(args: &[String]) -> Result<Parsed, String> {
    let mut selected = Vec::new();
    let mut opts = fp_bench::ReproOptions::default();
    let mut out_file = None;
    let mut trace_file = None;
    let mut mem_budget = None;
    let mut jobs_given = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--fast" => opts.scale = 0.1,
            "--mem-budget" => {
                let value = it.next().ok_or("--mem-budget needs a value")?;
                mem_budget = Some(fp_core::scale::parse_bytes(value)?);
            }
            "--out" => {
                let value = it.next().ok_or("--out needs a value")?;
                opts.out = Some(value.into());
                out_file = Some(value.clone());
            }
            "--jobs" => {
                let value = it.next().ok_or("--jobs needs a value")?;
                opts.jobs = parse_count("jobs", value, MAX_PARALLEL)?;
                jobs_given = true;
            }
            "--workers" => {
                let value = it.next().ok_or("--workers needs a value")?;
                opts.workers = parse_count("workers", value, MAX_PARALLEL)?;
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
            }
            "--trace" => {
                trace_file = Some(it.next().ok_or("--trace needs a value")?.clone());
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            figure => selected.push(figure.to_string()),
        }
    }
    if opts.workers > 0 && jobs_given {
        return Err(
            "--jobs sizes the in-process thread runner and --workers replaces it with a \
             process pool; pass one or the other"
                .to_string(),
        );
    }
    Ok(Parsed {
        selected,
        opts,
        out_file,
        trace_file,
        mem_budget,
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

    // Hidden `repro worker`: serve the process-pool protocol (the
    // `--workers` dispatcher re-execs this binary with this argument).
    if args.first().map(String::as_str) == Some("worker") {
        if args.len() > 1 {
            fail("worker takes no flags");
        }
        if let Err(e) = fp_core::worker::serve(std::io::stdin().lock(), std::io::stdout()) {
            fail(&e);
        }
        return;
    }

    let Parsed {
        selected,
        opts,
        out_file,
        trace_file,
        mem_budget,
    } = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => fail(&e),
    };
    if let Some(cap) = mem_budget {
        // Cap the process-wide scale accountant too, so any streamed
        // build in this run fails with a typed error instead of OOM.
        fp_core::scale::set_global_cap(Some(cap));
    }
    if trace_file.is_some() {
        fp_obs::tracer().enable();
    }

    // `repro baseline`: time the figures, emit BENCH_baseline.json.
    if selected.first().map(String::as_str) == Some("baseline") {
        if selected.len() > 1 {
            fail("baseline takes no figure arguments");
        }
        let doc = match fp_bench::baseline_json(opts.scale, mem_budget) {
            Ok(doc) => doc.to_pretty(),
            Err(e) => fail(&e),
        };
        match out_file {
            None => print!("{doc}"),
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
            Ok(tables) => fp_bench::print_figure(&tables),
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
    fn thread_and_process_counts_are_capped() {
        for flag in ["--jobs", "--workers"] {
            let cap = MAX_PARALLEL.to_string();
            assert!(parse(&argv(&[flag, &cap])).is_ok(), "{flag} at the cap");
            let over = (MAX_PARALLEL + 1).to_string();
            let Err(e) = parse(&argv(&[flag, &over])) else {
                panic!("{flag} {over} accepted");
            };
            assert!(e.contains(flag), "{e}");
        }
    }
}
