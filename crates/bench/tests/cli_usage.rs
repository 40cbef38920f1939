//! Usage errors of the figure CLIs: a flag that is present but carries a
//! missing or unparseable value must stop the run with exit code 2 and a
//! message naming the flag, never fall back to the flag's default.

use std::process::{Command, Output};

fn sweep(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sweep"))
        .args(args)
        .output()
        .expect("the sweep binary starts")
}

#[test]
fn an_unparseable_value_exits_with_code_2_naming_the_flag() {
    let out = sweep(&["--parameter", "alpha", "--steps", "2x", "--replications", "0"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("--steps"), "{out:?}");
    assert!(out.stdout.is_empty(), "no sweep may run: {out:?}");
}

#[test]
fn a_flag_without_a_value_exits_with_code_2_naming_the_flag() {
    let out = sweep(&["--parameter", "alpha", "--replications", "0", "--batch-lanes"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("--batch-lanes"), "{out:?}");
}
