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

fn fig7(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fig7"))
        .args(args)
        .output()
        .expect("the fig7 binary starts")
}

/// Asserts that `out` is a usage error naming `flag`, with no output.
fn assert_usage_error(out: &Output, flag: &str) {
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains(flag), "{out:?}");
    assert!(out.stdout.is_empty(), "nothing may run: {out:?}");
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

#[test]
fn zero_points_exit_with_code_2_naming_the_flag() {
    let out = sweep(&["--parameter", "alpha", "--steps", "0", "--replications", "0"]);
    assert_usage_error(&out, "--steps");
    for flag in ["--mtbf-points", "--alpha-points"] {
        assert_usage_error(&fig7(&[flag, "0", "--replications", "0"]), flag);
    }
}

#[test]
fn zero_batch_lanes_exit_with_code_2_naming_the_flag() {
    let out = sweep(&["--parameter", "alpha", "--batch-lanes", "0", "--replications", "0"]);
    assert_usage_error(&out, "--batch-lanes");
    let out = Command::new(env!("CARGO_BIN_EXE_crossover"))
        .args(["--model-only", "--batch-lanes", "0"])
        .output()
        .expect("the crossover binary starts");
    assert_usage_error(&out, "--batch-lanes");
}

#[test]
fn one_step_sweeps_the_single_point_from() {
    let out = sweep(&[
        "--parameter", "alpha", "--from", "0.25", "--to", "0.75", "--steps", "1",
        "--replications", "0", "--format", "csv",
    ]);
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    let rows: Vec<&str> = text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.starts_with("alpha,"))
        .collect();
    // One row per protocol, all at α = 0.25.
    assert_eq!(rows.len(), 3, "{text}");
    assert!(rows.iter().all(|row| row.starts_with("0.2500,")), "{text}");
}

#[test]
fn an_unknown_protocol_exits_with_code_2_naming_the_flag() {
    let out = fig7(&["--protocol", "bogus", "--replications", "0"]);
    assert_usage_error(&out, "--protocol");
}
