//! `repro` run as a pipeline stage: a reader that closes stdout before
//! the figure is printed (`repro fig04 | true`) must end the process
//! quietly, with exit status 0 and nothing on stderr, not with a panic.

use std::process::{Command, Stdio};

#[test]
fn repro_exits_quietly_when_its_reader_hangs_up() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("fig04")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("repro runs");
    // Hang up before the figure is computed, let alone printed.
    drop(child.stdout.take());

    let out = child.wait_with_output().expect("repro exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.is_empty(), "nothing on stderr: {stderr}");
    assert_eq!(out.status.code(), Some(0), "{stderr}");
}
