//! Fixture-based self-tests for every rule: one firing and one
//! non-firing snippet per rule, the lexer edge cases, and the
//! deliberately-violating fixture tree (which must drive both the library
//! pass and the CLI to a failure).

use std::path::{Path, PathBuf};
use std::process::Command;

use ft_lint::rules::{
    check_file, SourceFile, BAD_ALLOW, FLOAT_ACCUM, PANIC_FREE, STALE_ALLOW, UNORDERED_ITER,
    UNSAFE_AUDIT, UNSEEDED_RANDOM, WALL_CLOCK,
};

/// Scans a fixture under a result-affecting library path so every
/// crate-scoped rule participates.
fn scan_as_library(src: &str) -> SourceFile {
    SourceFile::scan("crates/simulator/src/fixture.rs", src)
}

fn rules_fired(src: &str) -> Vec<&'static str> {
    let mut fired: Vec<&'static str> = check_file(&scan_as_library(src))
        .into_iter()
        .map(|f| f.rule)
        .collect();
    fired.dedup();
    fired
}

fn fixture_dir(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures").join(name)
}

// ------------------------------------------------------------------ rule pairs

#[test]
fn wall_clock_fires_and_stays_quiet() {
    let fire = include_str!("../fixtures/rules/wall_clock_fire.rs");
    let clean = include_str!("../fixtures/rules/wall_clock_clean.rs");
    assert!(rules_fired(fire).contains(&WALL_CLOCK));
    assert_eq!(rules_fired(clean), Vec::<&str>::new());
    // The bench crate is exempt: measuring wall clock is its job.
    let bench = SourceFile::scan("crates/bench/src/fixture.rs", fire);
    assert!(check_file(&bench).iter().all(|f| f.rule != WALL_CLOCK));
}

#[test]
fn unordered_iteration_fires_and_stays_quiet() {
    let fire = include_str!("../fixtures/rules/unordered_fire.rs");
    let clean = include_str!("../fixtures/rules/unordered_clean.rs");
    assert!(rules_fired(fire).contains(&UNORDERED_ITER));
    assert_eq!(rules_fired(clean), Vec::<&str>::new());
    // Outside the result-affecting crates the rule does not apply.
    let elsewhere = SourceFile::scan("crates/abft/src/fixture.rs", fire);
    assert!(check_file(&elsewhere).iter().all(|f| f.rule != UNORDERED_ITER));
}

#[test]
fn unseeded_randomness_fires_and_stays_quiet() {
    let fire = include_str!("../fixtures/rules/unseeded_fire.rs");
    let clean = include_str!("../fixtures/rules/unseeded_clean.rs");
    assert!(rules_fired(fire).contains(&UNSEEDED_RANDOM));
    assert_eq!(rules_fired(clean), Vec::<&str>::new());
}

#[test]
fn float_accumulation_fires_and_stays_quiet() {
    let fire = include_str!("../fixtures/rules/float_fire.rs");
    let clean = include_str!("../fixtures/rules/float_clean.rs");
    assert!(rules_fired(fire).contains(&FLOAT_ACCUM));
    assert_eq!(rules_fired(clean), Vec::<&str>::new());
}

#[test]
fn panic_free_fires_and_stays_quiet() {
    let fire = include_str!("../fixtures/rules/panic_fire.rs");
    let clean = include_str!("../fixtures/rules/panic_clean.rs");
    let fired = check_file(&scan_as_library(fire));
    // Both the panic! and the .unwrap() site are reported.
    assert!(fired.iter().filter(|f| f.rule == PANIC_FREE).count() >= 2);
    assert_eq!(rules_fired(clean), Vec::<&str>::new());
    // Binaries and harnesses may panic: main() is where aborting is policy.
    let bin = SourceFile::scan("crates/simulator/src/main.rs", fire);
    assert!(check_file(&bin).iter().all(|f| f.rule != PANIC_FREE));
}

#[test]
fn unsafe_audit_fires_and_stays_quiet() {
    let fire = include_str!("../fixtures/rules/unsafe_fire.rs");
    let clean = include_str!("../fixtures/rules/unsafe_clean.rs");
    assert!(rules_fired(fire).contains(&UNSAFE_AUDIT));
    assert_eq!(rules_fired(clean), Vec::<&str>::new());
}

// ------------------------------------------------------------------ lexer edges

#[test]
fn lexer_edge_cases_produce_no_findings() {
    // Nested block comments, raw strings holding unwrap()/thread_rng(),
    // multi-line strings, char literals and a cfg(test) module: all the
    // look-alike violations must be invisible to every rule.
    let tricky = include_str!("../fixtures/lexer/tricky.rs");
    assert_eq!(rules_fired(tricky), Vec::<&str>::new());

    let lines = ft_lint::lexer::scan(tricky);
    // The nested block comment is fully stripped from the code view.
    assert!(lines.iter().all(|l| !l.code.contains("thread_rng")));
    assert!(lines.iter().all(|l| !l.code.contains("Instant") || l.in_test));
    // The raw string body is blanked but the line is still code.
    let raw_line = lines
        .iter()
        .find(|l| l.raw.contains("r#\""))
        .expect("raw-string line present");
    assert!(!raw_line.code.contains("unwrap"));
    assert!(raw_line.code.contains("let raw"));
    // cfg(test) region covers the unwrap in tests and ends at the brace.
    let test_unwrap = lines
        .iter()
        .find(|l| l.raw.contains(".next().unwrap()"))
        .expect("test unwrap line present");
    assert!(test_unwrap.in_test);
    let after = lines
        .iter()
        .find(|l| l.raw.contains("fn after_tests"))
        .expect("post-test fn present");
    assert!(!after.in_test, "test region must close at the module brace");
}

// ------------------------------------------------------------ violating tree

#[test]
fn violating_tree_trips_every_rule() {
    let root = fixture_dir("violating");
    let report = ft_lint::lint_workspace(&root, None).expect("fixture tree is readable");
    assert!(!report.is_clean());
    let fired: Vec<&str> = report.findings.iter().map(|f| f.rule).collect();
    for rule in [
        WALL_CLOCK,
        UNORDERED_ITER,
        UNSEEDED_RANDOM,
        FLOAT_ACCUM,
        PANIC_FREE,
        UNSAFE_AUDIT,
        STALE_ALLOW,
        BAD_ALLOW,
    ] {
        assert!(
            fired.contains(&rule),
            "expected `{rule}` to fire on the violating tree; got:\n{}",
            report.render()
        );
    }
    // Both unsafe-audit shapes fire: the undocumented site and the
    // missing crate-level forbid.
    assert!(report
        .findings
        .iter()
        .any(|f| f.rule == UNSAFE_AUDIT && f.message.contains("SAFETY")));
    assert!(report
        .findings
        .iter()
        .any(|f| f.rule == UNSAFE_AUDIT && f.message.contains("forbid(unsafe_code)")));
}

#[test]
fn clean_tree_passes_with_a_live_allowlist() {
    let root = fixture_dir("clean_tree");
    let report = ft_lint::lint_workspace(&root, None).expect("fixture tree is readable");
    assert!(report.is_clean(), "{}", report.render());
    assert_eq!(report.suppressed, 1, "the documented expect is suppressed");
}

// ------------------------------------------------------------------ CLI gate

#[test]
fn cli_exits_nonzero_on_violations_and_zero_on_clean() {
    let bin = env!("CARGO_BIN_EXE_ft-lint");

    let bad = Command::new(bin)
        .arg("--root")
        .arg(fixture_dir("violating"))
        .output()
        .expect("ft-lint runs");
    assert!(!bad.status.success(), "violating tree must fail the CLI");
    let stdout = String::from_utf8_lossy(&bad.stdout);
    assert!(
        stdout.contains("[wall-clock-in-library]"),
        "diagnostics are file:line-prefixed and rule-tagged:\n{stdout}"
    );

    let good = Command::new(bin)
        .arg("--root")
        .arg(fixture_dir("clean_tree"))
        .output()
        .expect("ft-lint runs");
    assert!(
        good.status.success(),
        "clean tree must pass the CLI:\n{}",
        String::from_utf8_lossy(&good.stdout)
    );
}
