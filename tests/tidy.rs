//! Tier-1 tidy gate: the `ft-lint` determinism & safety pass must be clean
//! on the workspace.
//!
//! This is the local mirror of the CI `tidy` step (`cargo run -p ft-lint`):
//! any wall-clock source, unordered iteration, unseeded randomness,
//! parallel float reduction, unjustified panic or unaudited `unsafe`
//! fails `cargo test -q` with the full diagnostic listing. See
//! `docs/LINTS.md` for the rules and the allowlist process.

use std::path::Path;

#[test]
fn workspace_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = ft_lint::lint_workspace(root, None).expect("workspace sources are readable");
    assert!(
        report.is_clean(),
        "ft-lint found violations — fix them or add a justified entry to \
         lint-allow.toml (see docs/LINTS.md):\n{}",
        report.render()
    );
    // The pass must actually have covered the tree: a walker regression
    // that silently scanned nothing would otherwise read as \"clean\".
    assert!(
        report.files_scanned > 80,
        "suspiciously few files scanned ({}) — walker regression?",
        report.files_scanned
    );
    assert!(
        report.suppressed > 0,
        "the allowlist documents known-justified sites; zero suppressions \
         means the allowlist was not loaded"
    );
}
