//! `fp` run as a pipeline stage: a reader that closes stdout early
//! (`fp generate … | head`) must end the process quietly, with exit
//! status 0 and nothing on stderr, not with a panic.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

#[test]
fn fp_exits_quietly_when_its_reader_hangs_up() {
    // ~125k edge lines: far more than any pipe buffer holds, so `fp`
    // is still writing when the reader goes away.
    let mut child = Command::new(env!("CARGO_BIN_EXE_fp"))
        .args(["generate", "--dataset", "twitter"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("fp runs");
    let mut reader = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut first = String::new();
    reader.read_line(&mut first).expect("one line");
    assert!(!first.trim().is_empty(), "fp printed an edge first");
    drop(reader);

    let out = child.wait_with_output().expect("fp exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(stderr.is_empty(), "nothing on stderr: {stderr}");
    assert_eq!(out.status.code(), Some(0), "{stderr}");
}
