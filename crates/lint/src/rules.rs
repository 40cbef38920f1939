//! The rule registry: six determinism & safety rules, each protecting a
//! concrete invariant of this reproduction (see `docs/LINTS.md` for the
//! rationale behind every rule and the allowlist process).
//!
//! All rules are lexical, operating on the comment/string-aware code view
//! produced by [`crate::lexer`]. They are deliberately conservative: a rule
//! may miss an exotic spelling of a violation (that is what review is for),
//! but what it flags is real, and what it accepts is either clean or
//! carries a written justification in `lint-allow.toml`.

use crate::lexer::{contains_word, find_word, SourceLine};

/// Wall-clock sources in library code.
pub const WALL_CLOCK: &str = "wall-clock-in-library";
/// `HashMap`/`HashSet` in result-affecting crates.
pub const UNORDERED_ITER: &str = "unordered-iteration";
/// Nondeterministically-seeded randomness.
pub const UNSEEDED_RANDOM: &str = "unseeded-randomness";
/// Parallel float reductions outside the Welford accumulator.
pub const FLOAT_ACCUM: &str = "float-accumulation-order";
/// `unwrap`/`expect`/`panic!` in non-test library code.
pub const PANIC_FREE: &str = "panic-free-library";
/// `unsafe` without `// SAFETY:`, and a missing crate-level
/// `#![forbid(unsafe_code)]` (or `#![deny(unsafe_code)]` where a crate uses
/// `unsafe`).
pub const UNSAFE_AUDIT: &str = "unsafe-audit";
/// Internal: allowlist entry that suppressed nothing.
pub const STALE_ALLOW: &str = "stale-allow";
/// Internal: malformed or unjustified allowlist entry.
pub const BAD_ALLOW: &str = "bad-allow";

/// The user-facing rules (allowlistable; `stale-allow`/`bad-allow` are
/// meta-findings about the allowlist itself and cannot be suppressed).
pub const RULES: &[(&str, &str)] = &[
    (WALL_CLOCK, "std::time::{Instant, SystemTime} forbidden outside crates/bench and the sanctioned ft-platform stopwatch"),
    (UNORDERED_ITER, "HashMap/HashSet forbidden in result-affecting crates (platform, simulator, core, checkpoint); use BTreeMap/BTreeSet"),
    (UNSEEDED_RANDOM, "randomness must derive from SeedStream or an explicit seed; entropy-seeded constructors are forbidden"),
    (FLOAT_ACCUM, "parallel float reductions must flow through OutcomeAccumulator (Welford) to keep accumulation order fixed"),
    (PANIC_FREE, "unwrap/expect/panic!/unreachable! in non-test library code needs an allowlist justification"),
    (UNSAFE_AUDIT, "every unsafe block needs a // SAFETY: comment; unsafe-free crates must #![forbid(unsafe_code)], the rest #![deny(unsafe_code)]"),
];

/// Whether `name` is an allowlistable rule.
pub fn is_known_rule(name: &str) -> bool {
    RULES.iter().any(|(rule, _)| *rule == name)
}

/// One diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule that fired.
    pub rule: &'static str,
    /// Workspace-relative `/`-separated path.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable message.
    pub message: String,
}

impl Finding {
    /// Builds a finding; `rule` must be one of the registry constants.
    pub fn at(rule: &'static str, path: &str, line: usize, message: String) -> Self {
        Self {
            rule,
            path: path.to_string(),
            line,
            message,
        }
    }
}

/// How a scanned file participates in the rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// Shipped library code (`crates/*/src/**` minus `src/bin`, root `src/`).
    Library,
    /// Binary entry points (`src/main.rs`, `src/bin/**`).
    Bin,
    /// Tests, benches and examples.
    Harness,
}

/// A scanned source file ready for rule checks.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative `/`-separated path.
    pub rel: String,
    /// Scanned lines (see [`crate::lexer::scan`]).
    pub lines: Vec<SourceLine>,
    /// Participation class.
    pub class: FileClass,
    /// `crates/<dir>/…` → `Some(dir)`; root-package files → `None`.
    pub crate_dir: Option<String>,
}

/// Crates whose in-memory results feed the reproduced figures: a
/// nondeterministic iteration order anywhere here can reorder float
/// accumulation or replication scheduling and break bit-exactness.
pub const RESULT_AFFECTING: &[&str] = &["platform", "simulator", "core", "checkpoint"];

/// Classifies a workspace-relative path into (class, crate dir).
pub fn classify(rel: &str) -> (FileClass, Option<String>) {
    let crate_dir = rel
        .strip_prefix("crates/")
        .and_then(|rest| rest.split('/').next())
        .map(str::to_string);
    let class = if rel.contains("/tests/")
        || rel.contains("/benches/")
        || rel.contains("/examples/")
        || rel.starts_with("tests/")
        || rel.starts_with("examples/")
    {
        FileClass::Harness
    } else if rel.contains("/src/bin/") || rel.ends_with("/src/main.rs") {
        FileClass::Bin
    } else {
        FileClass::Library
    };
    (class, crate_dir)
}

impl SourceFile {
    /// Scans `content` under the given workspace-relative path.
    pub fn scan(rel: &str, content: &str) -> Self {
        let (class, crate_dir) = classify(rel);
        Self {
            rel: rel.to_string(),
            lines: crate::lexer::scan(content),
            class,
            crate_dir,
        }
    }

    fn in_result_affecting_crate(&self) -> bool {
        self.crate_dir
            .as_deref()
            .is_some_and(|d| RESULT_AFFECTING.contains(&d))
    }

    fn in_bench_crate(&self) -> bool {
        self.crate_dir.as_deref() == Some("bench")
    }

    /// Whether any non-blanked code in the file mentions `unsafe`.
    pub fn mentions_unsafe(&self) -> bool {
        self.lines.iter().any(|l| contains_word(&l.code, "unsafe"))
    }
}

/// Runs every per-file rule on `file`.
pub fn check_file(file: &SourceFile) -> Vec<Finding> {
    let mut findings = Vec::new();
    wall_clock(file, &mut findings);
    unordered_iteration(file, &mut findings);
    unseeded_randomness(file, &mut findings);
    float_accumulation(file, &mut findings);
    panic_free(file, &mut findings);
    unsafe_safety_comments(file, &mut findings);
    findings
}

/// Rule 1 — wall-clock sources are nondeterministic inputs. Anything a
/// simulation result could read from `Instant`/`SystemTime` varies run to
/// run; only the bench crate (whose job is measuring wall clock) is exempt.
fn wall_clock(file: &SourceFile, findings: &mut Vec<Finding>) {
    if file.class != FileClass::Library || file.in_bench_crate() {
        return;
    }
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        for token in ["Instant", "SystemTime"] {
            if contains_word(&line.code, token) {
                findings.push(Finding::at(
                    WALL_CLOCK,
                    &file.rel,
                    idx + 1,
                    format!(
                        "wall-clock source `{token}` in library code — results must not \
                         depend on real time; measure through \
                         `ft_platform::clock::Stopwatch` or justify in lint-allow.toml \
                         (docs/LINTS.md#wall-clock-in-library)"
                    ),
                ));
            }
        }
    }
}

/// Rule 2 — `HashMap`/`HashSet` iteration order is unspecified, so any use
/// in a result-affecting crate is one refactor away from reordering float
/// sums or replication scheduling. `BTreeMap`/`BTreeSet` iterate in key
/// order at no practical cost at our sizes.
fn unordered_iteration(file: &SourceFile, findings: &mut Vec<Finding>) {
    if file.class != FileClass::Library || !file.in_result_affecting_crate() {
        return;
    }
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        for token in ["HashMap", "HashSet"] {
            if contains_word(&line.code, token) {
                findings.push(Finding::at(
                    UNORDERED_ITER,
                    &file.rel,
                    idx + 1,
                    format!(
                        "`{token}` in a result-affecting crate — iteration order is \
                         unspecified; use BTreeMap/BTreeSet or justify never-iterated \
                         use in lint-allow.toml (docs/LINTS.md#unordered-iteration)"
                    ),
                ));
            }
        }
    }
}

/// Rule 3 — every random draw must be reproducible from a `u64` seed.
/// These constructors pull entropy from the OS or per-process random
/// state, which no trace replay can reproduce.
fn unseeded_randomness(file: &SourceFile, findings: &mut Vec<Finding>) {
    const FORBIDDEN: &[&str] = &[
        "thread_rng",
        "from_entropy",
        "from_os_rng",
        "OsRng",
        "getrandom",
        "RandomState",
    ];
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        for token in FORBIDDEN {
            if contains_word(&line.code, token) {
                findings.push(Finding::at(
                    UNSEEDED_RANDOM,
                    &file.rel,
                    idx + 1,
                    format!(
                        "entropy-seeded randomness `{token}` — every draw must derive \
                         from SeedStream or an explicit seed parameter so traces replay \
                         bit-identically (docs/LINTS.md#unseeded-randomness)"
                    ),
                ));
            }
        }
    }
}

/// Rule 4 — float addition is not associative: a parallel `.sum()` /
/// `.reduce()` re-associates with the thread count and breaks the
/// `--point-threads` bit-identity guarantee. The one sanctioned sink is
/// `OutcomeAccumulator`, whose block merge order is pinned by the
/// parallel-determinism suite.
fn float_accumulation(file: &SourceFile, findings: &mut Vec<Finding>) {
    const PAR_MARKERS: &[&str] =
        &["par_iter", "into_par_iter", "par_chunks", "par_bridge", "par_windows"];
    const REDUCERS: &[&str] = &[".sum", ".reduce(", ".fold("];
    const WINDOW: usize = 14;

    if file.class != FileClass::Library
        || !(file.in_result_affecting_crate() || file.in_bench_crate())
    {
        return;
    }
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test || !PAR_MARKERS.iter().any(|m| contains_word(&line.code, m)) {
            continue;
        }
        // Statement window: from the parallel marker to the statement end.
        let mut reducer: Option<(&str, usize)> = None;
        let mut sanctioned = false;
        for (off, win_line) in file.lines[idx..].iter().take(WINDOW).enumerate() {
            let code = &win_line.code;
            if let Some(r) = REDUCERS.iter().find(|r| code.contains(**r)) {
                reducer.get_or_insert((r, idx + off + 1));
            }
            if code.contains("OutcomeAccumulator") {
                sanctioned = true;
            }
            if off > 0 && code.trim_end().ends_with(';') {
                break;
            }
        }
        if let Some((reducer, at)) = reducer {
            if !sanctioned {
                findings.push(Finding::at(
                    FLOAT_ACCUM,
                    &file.rel,
                    at,
                    format!(
                        "parallel `{reducer}` outside OutcomeAccumulator — float \
                         reduction order would re-associate with the thread count and \
                         break bit-exactness under --point-threads \
                         (docs/LINTS.md#float-accumulation-order)"
                    ),
                ));
            }
        }
    }
}

/// Rule 5 — a panic in library code aborts a whole sweep, bench or
/// service request. Invariant-backed `expect`s are allowed, but each
/// needs a written justification in the allowlist.
fn panic_free(file: &SourceFile, findings: &mut Vec<Finding>) {
    const TOKENS: &[&str] = &[
        ".unwrap()",
        ".expect(",
        "panic!",
        "unreachable!",
        "todo!",
        "unimplemented!",
    ];
    if file.class != FileClass::Library {
        return;
    }
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        for token in TOKENS {
            let Some(at) = line.code.find(token) else {
                continue;
            };
            // Macro names must start on a word boundary (`.unwrap()` and
            // `.expect(` carry their own leading dot).
            if !token.starts_with('.') {
                let before = line.code[..at].chars().next_back();
                if before.is_some_and(|c| c.is_alphanumeric() || c == '_') {
                    continue;
                }
            }
            findings.push(Finding::at(
                PANIC_FREE,
                &file.rel,
                idx + 1,
                format!(
                    "`{token}` in non-test library code — return an error or justify \
                     the invariant in lint-allow.toml (docs/LINTS.md#panic-free-library)"
                ),
            ));
        }
    }
}

/// Rule 6a — every `unsafe` site must explain, in a `// SAFETY:` comment
/// on the same or one of the three preceding lines, why its obligations
/// hold.
fn unsafe_safety_comments(file: &SourceFile, findings: &mut Vec<Finding>) {
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test || find_word(&line.code, "unsafe").is_none() {
            continue;
        }
        let documented = file.lines[idx.saturating_sub(3)..=idx]
            .iter()
            .any(|l| l.comment.contains("SAFETY"));
        if !documented {
            findings.push(Finding::at(
                UNSAFE_AUDIT,
                &file.rel,
                idx + 1,
                "`unsafe` without a `// SAFETY:` comment on or just above the site \
                 (docs/LINTS.md#unsafe-audit)"
                    .to_string(),
            ));
        }
    }
}

/// Rule 6b — a crate with no `unsafe` anywhere must say so in its
/// `lib.rs` via `#![forbid(unsafe_code)]`, so the property is enforced by
/// the compiler rather than re-audited every review.  A crate that does use
/// `unsafe` must carry `#![deny(unsafe_code)]` instead, so every site opts in
/// with its own `#[allow(unsafe_code)]`.
pub fn check_crate_forbids_unsafe(
    lib_rs_rel: &str,
    lib_rs: &SourceFile,
    crate_files: &[&SourceFile],
) -> Vec<Finding> {
    let (attribute, message) = if crate_files.iter().any(|f| f.mentions_unsafe()) {
        (
            "deny(unsafe_code)",
            "crate uses `unsafe` but lib.rs lacks `#![deny(unsafe_code)]`, which makes \
             each site opt in with `#[allow(unsafe_code)]` (docs/LINTS.md#unsafe-audit)",
        )
    } else {
        (
            "forbid(unsafe_code)",
            "crate is unsafe-free but lib.rs lacks `#![forbid(unsafe_code)]` \
             (docs/LINTS.md#unsafe-audit)",
        )
    };
    if lib_rs.lines.iter().any(|l| l.code.contains(attribute)) {
        Vec::new()
    } else {
        vec![Finding::at(UNSAFE_AUDIT, lib_rs_rel, 1, message.to_string())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib_file(rel: &str, src: &str) -> SourceFile {
        SourceFile::scan(rel, src)
    }

    #[test]
    fn classification() {
        assert_eq!(classify("crates/simulator/src/engine.rs").0, FileClass::Library);
        assert_eq!(classify("crates/bench/benches/foo.rs").0, FileClass::Harness);
        assert_eq!(classify("crates/bench/src/bin/sweep.rs").0, FileClass::Bin);
        assert_eq!(classify("crates/lint/src/main.rs").0, FileClass::Bin);
        assert_eq!(classify("tests/tidy.rs").0, FileClass::Harness);
        assert_eq!(
            classify("crates/checkpoint/src/frame.rs").1.as_deref(),
            Some("checkpoint")
        );
    }

    #[test]
    fn forbid_unsafe_crate_level() {
        let lib = lib_file("crates/platform/src/lib.rs", "#![forbid(unsafe_code)]\n");
        let plain = lib_file("crates/platform/src/lib.rs", "//! docs\n");
        let other = lib_file("crates/platform/src/rng.rs", "fn f() {}\n");
        assert!(check_crate_forbids_unsafe("crates/platform/src/lib.rs", &lib, &[&lib, &other])
            .is_empty());
        assert_eq!(
            check_crate_forbids_unsafe("crates/platform/src/lib.rs", &plain, &[&plain, &other])
                .len(),
            1
        );
    }

    #[test]
    fn unsafe_crate_without_deny_is_flagged() {
        // Neither a missing attribute nor a forbid (which would not compile)
        // satisfies a crate that uses unsafe.
        let unsafe_file = lib_file(
            "crates/platform/src/rng.rs",
            "#[allow(unsafe_code)]\nfn f() { // SAFETY: test\n unsafe { x() } }\n",
        );
        let rel = "crates/platform/src/lib.rs";
        for src in ["//! docs\n", "#![forbid(unsafe_code)]\n"] {
            let lib = lib_file(rel, src);
            let findings = check_crate_forbids_unsafe(rel, &lib, &[&lib, &unsafe_file]);
            assert_eq!(findings.len(), 1, "{src}");
            assert!(findings[0].message.contains("deny(unsafe_code)"));
        }
    }

    #[test]
    fn unsafe_crate_with_deny_is_clean() {
        let lib = lib_file("crates/platform/src/lib.rs", "#![deny(unsafe_code)]\n");
        let unsafe_file = lib_file(
            "crates/platform/src/rng.rs",
            "#[allow(unsafe_code)]\nfn f() { // SAFETY: test\n unsafe { x() } }\n",
        );
        assert!(check_crate_forbids_unsafe(
            "crates/platform/src/lib.rs",
            &lib,
            &[&lib, &unsafe_file]
        )
        .is_empty());
        assert!(check_file(&unsafe_file).is_empty());
    }
}
