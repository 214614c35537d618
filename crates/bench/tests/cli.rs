//! Command-line behaviour of the `repro` binary: an unknown experiment
//! id is rejected before anything runs.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro")).args(args).output().expect("run repro")
}

#[test]
fn unknown_id_exits_2_before_running_anything() {
    let out = repro(&["table2", "fig99"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "ran something: {}", String::from_utf8_lossy(&out.stdout));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("fig99"), "stderr does not name the id: {err}");
    assert!(err.contains("table2"), "stderr does not list the known ids: {err}");
}

#[test]
fn lint_of_unknown_id_exits_2() {
    assert_eq!(repro(&["--lint", "fig99"]).status.code(), Some(2));
}
