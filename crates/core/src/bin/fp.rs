//! `fp`: the filter-placement command-line tool.
//!
//! See `fp help` or [`fp_core::cli::USAGE`].

use std::io::{ErrorKind, Write};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match fp_core::cli::run(&args) {
        Ok(out) => {
            let mut stdout = std::io::stdout().lock();
            match writeln!(stdout, "{out}").and_then(|()| stdout.flush()) {
                Ok(()) => {}
                // A reader that closed the pipe early (`fp … | head`)
                // wants no more output: that is success, not an error.
                Err(e) if e.kind() == ErrorKind::BrokenPipe => {}
                Err(e) => {
                    eprintln!("error: cannot write to stdout: {e}");
                    std::process::exit(1);
                }
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
