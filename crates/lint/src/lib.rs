//! # ft-lint — determinism & safety static analysis for this workspace
//!
//! Every headline claim of this reproduction — CRN trace replay, the
//! batch-vs-scalar oracle, crash-resume bit-identity, `--point-threads`
//! invariance — rests on source-level invariants that used to be enforced
//! only dynamically, by whichever test happened to exercise the offending
//! path. `ft-lint` turns them into a compile gate: a dependency-free
//! scanner ([`lexer`]) feeds six lexical rules ([`rules`]), suppressions
//! live in a justification-carrying allowlist ([`allowlist`]), and the
//! whole pass runs as `cargo run -p ft-lint` in CI and as the root
//! `tests/tidy.rs` integration test.
//!
//! See `docs/LINTS.md` for the rule catalogue and the allowlist process.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod allowlist;
pub mod lexer;
pub mod rules;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use allowlist::Allowlist;
use rules::{Finding, SourceFile};

/// Directories never scanned: external stand-ins, build output, VCS
/// metadata, and the linter's own deliberately-violating test fixtures.
const EXCLUDED_PREFIXES: &[&str] = &["vendor/", "target/", ".git/", "crates/lint/fixtures/"];

/// The result of a workspace pass.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Findings that survived the allowlist, sorted by path then line.
    pub findings: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Number of findings suppressed by allowlist entries.
    pub suppressed: usize,
}

impl LintReport {
    /// Whether the pass is clean.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Renders the findings as `path:line: [rule] message` diagnostics
    /// plus a summary line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&format!("{}:{}: [{}] {}\n", f.path, f.line, f.rule, f.message));
        }
        out.push_str(&format!(
            "ft-lint: {} finding(s) across {} file(s) scanned ({} suppressed by lint-allow.toml)\n",
            self.findings.len(),
            self.files_scanned,
            self.suppressed
        ));
        out
    }
}

/// Lints the workspace rooted at `root`.
///
/// `allow_path` defaults to `<root>/lint-allow.toml`; a missing allowlist
/// file is an empty allowlist, not an error.
pub fn lint_workspace(root: &Path, allow_path: Option<&Path>) -> io::Result<LintReport> {
    let default_allow = root.join("lint-allow.toml");
    let allow_path = allow_path.unwrap_or(&default_allow);
    let (mut allow, mut raw_findings) = match fs::read_to_string(allow_path) {
        Ok(content) => Allowlist::parse(&content, &rel_display(root, allow_path)),
        Err(_) => (Allowlist::empty(), Vec::new()),
    };

    // Walk and scan every .rs file in scope.
    let mut files: Vec<SourceFile> = Vec::new();
    for path in collect_rust_files(root)? {
        let rel = rel_display(root, &path);
        let content = fs::read_to_string(&path)?;
        files.push(SourceFile::scan(&rel, &content));
    }
    files.sort_by(|a, b| a.rel.cmp(&b.rel));
    let files_scanned = files.len();

    // Per-file rules.
    for file in &files {
        raw_findings.extend(rules::check_file(file));
    }

    // Crate-level unsafe audit: one check per `crates/*` dir with a
    // src/lib.rs, plus the root package.
    let mut lib_paths: Vec<String> = files
        .iter()
        .map(|f| f.rel.clone())
        .filter(|rel| rel == "src/lib.rs" || (rel.starts_with("crates/") && rel.ends_with("/src/lib.rs")))
        .collect();
    lib_paths.sort();
    for lib_rel in lib_paths {
        let crate_prefix = lib_rel.trim_end_matches("src/lib.rs").to_string();
        let crate_files: Vec<&SourceFile> = files
            .iter()
            .filter(|f| f.rel.starts_with(&format!("{crate_prefix}src/")))
            .collect();
        if let Some(lib) = files.iter().find(|f| f.rel == lib_rel) {
            raw_findings.extend(rules::check_crate_forbids_unsafe(&lib_rel, lib, &crate_files));
        }
    }

    // Apply the allowlist: a finding is suppressed when an entry matches
    // its rule, path, optional line and optional raw-line substring.
    let mut findings = Vec::new();
    let mut suppressed = 0usize;
    for finding in raw_findings {
        let raw_line = files
            .iter()
            .find(|f| f.rel == finding.path)
            .and_then(|f| f.lines.get(finding.line.saturating_sub(1)))
            .map(|l| l.raw.clone())
            .unwrap_or_default();
        if allow.suppresses(&finding, &raw_line) {
            suppressed += 1;
        } else {
            findings.push(finding);
        }
    }
    findings.extend(allow.stale_entries());
    findings.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));

    Ok(LintReport {
        findings,
        files_scanned,
        suppressed,
    })
}

/// Collects the `.rs` files in scope: `crates/*/{src,tests,benches,examples}`,
/// the root package's `src/`, `tests/` and `examples/`, minus
/// [`EXCLUDED_PREFIXES`].
fn collect_rust_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let entries = match fs::read_dir(&dir) {
            Ok(entries) => entries,
            Err(_) => continue,
        };
        for entry in entries.filter_map(|e| e.ok()) {
            let path = entry.path();
            let rel = rel_display(root, &path);
            if EXCLUDED_PREFIXES
                .iter()
                .any(|p| rel.starts_with(p) || format!("{rel}/").starts_with(p))
            {
                continue;
            }
            if path.is_dir() {
                // Hidden directories (.git, .github) hold no Rust sources
                // we police.
                if rel
                    .rsplit('/')
                    .next()
                    .is_some_and(|name| name.starts_with('.'))
                {
                    continue;
                }
                stack.push(path);
            } else if rel.ends_with(".rs") && in_scope(&rel) {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Whether a workspace-relative `.rs` path belongs to the lintable tree.
fn in_scope(rel: &str) -> bool {
    let top = rel.split('/').next().unwrap_or_default();
    match top {
        "src" | "tests" | "examples" | "benches" => true,
        "crates" => {
            // crates/<name>/{src,tests,benches,examples}/**
            let mut parts = rel.split('/');
            let _ = parts.next(); // crates
            let _ = parts.next(); // name
            matches!(parts.next(), Some("src" | "tests" | "benches" | "examples"))
        }
        _ => false,
    }
}

/// Workspace-relative `/`-separated display path.
fn rel_display(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Ascends from `start` to the first directory whose `Cargo.toml` declares
/// a `[workspace]`; falls back to `start` when none is found.
pub fn find_workspace_root(start: &Path) -> PathBuf {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(content) = fs::read_to_string(&manifest) {
            if content.contains("[workspace]") {
                return dir;
            }
        }
        if !dir.pop() {
            return start.to_path_buf();
        }
    }
}
