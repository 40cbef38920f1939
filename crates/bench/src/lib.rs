//! # ft-bench — sweep subsystem and figure regeneration
//!
//! The [`experiment`] module is the heart of the crate: a declarative
//! [`SweepSpec`] expands `(α × ρ × µ × N × C × φ)`
//! axes into a point grid and executes the **whole grid in parallel** with
//! deterministic per-task seeds.  The binaries of this crate are thin
//! `SweepSpec` definitions regenerating every figure of the paper's
//! evaluation section:
//!
//! | Binary | Paper artefact | Sweep definition |
//! |--------|----------------|------------------|
//! | `fig7` | Figures 7a–7f  | MTBF × α grid, model + simulation arms, per protocol |
//! | `fig8` | Figure 8       | node-count axis, fixed α = 0.8, bandwidth-bound checkpoints |
//! | `fig9` | Figure 9       | node-count axis, variable α (LIBRARY `O(n³)`, GENERAL `O(n²)`) |
//! | `fig10`| Figure 10      | same with constant checkpoint cost; `--break-even` adds a C = R axis |
//! | `sweep`| generic        | any one-dimensional parameter axis around the headline scenario |
//! | `crossover` | §V-C crossover | [`CrossoverRefiner`] bisection on paired-delta adaptive probes |
//!
//! Every binary shares the CLI knobs `--replications`, `--precision`,
//! `--delta-precision`, `--paired`, `--antithetic`, `--model-gap`,
//! `--failure-model`/`--weibull-shape`, `--seed`, `--epochs`, `--threads`,
//! `--serial` and `--format table|csv|json`, and renders through the shared
//! writer in [`output`] (the full flag-reference table lives in the
//! top-level `README.md`).
//!
//! The speed of these binaries and of the checkpoint pipeline is measured
//! by the separate `perfbench/` package, not by this crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod experiment;
pub mod output;

pub use experiment::{
    report_crossover, run_cli, Axis, CrossoverOutcome, CrossoverProbe, CrossoverRefinement,
    CrossoverRefiner, Parameter, SweepResults, SweepSpec,
};
pub use output::{csv_line, render_table, OutputFormat, Table};

use ft_composite::params::ModelParams;

/// Parses `--key value` style arguments from a raw argument list.
pub struct Args {
    raw: Vec<String>,
}

impl Args {
    /// Captures the process arguments (skipping the binary name).
    pub fn capture() -> Self {
        Self {
            raw: std::env::args().skip(1).collect(),
        }
    }

    /// Builds an argument set from explicit strings (for tests).
    pub fn from_vec(raw: Vec<String>) -> Self {
        Self { raw }
    }

    /// Whether a bare flag (e.g. `--break-even`) is present.
    pub fn flag(&self, name: &str) -> bool {
        self.raw.iter().any(|a| a == name)
    }

    /// The value following `--name`, parsed, or `default` when the flag is
    /// absent.
    pub fn value<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        self.maybe_value(name).unwrap_or(default)
    }

    /// The value following `--name`, parsed, when the flag is present.  A
    /// present flag whose value does not parse is a usage error: the
    /// process exits with code 2 and a message naming the flag.
    pub fn maybe_value<T: std::str::FromStr>(&self, name: &str) -> Option<T> {
        self.text(name).map(|v| {
            v.parse().unwrap_or_else(|_| {
                eprintln!("invalid value `{v}` for {name}");
                std::process::exit(2);
            })
        })
    }

    /// The count following `--name` (points, lanes), or `default` when the
    /// flag is absent.  Zero is a usage error: the process exits with code
    /// 2 and a message naming the flag.
    pub fn count(&self, name: &str, default: usize) -> usize {
        let count = self.value(name, default);
        if count == 0 {
            eprintln!("{name} must be at least 1");
            std::process::exit(2);
        }
        count
    }

    /// The string value following `--name`, or `default` when the flag is
    /// absent.
    pub fn string(&self, name: &str, default: &str) -> String {
        self.text(name).unwrap_or(default).to_string()
    }

    /// The raw text following `--name` when the flag is present; a flag
    /// with nothing after it exits with code 2, like an unparseable value.
    fn text(&self, name: &str) -> Option<&str> {
        let i = self.raw.iter().position(|a| a == name)?;
        let Some(value) = self.raw.get(i + 1) else {
            eprintln!("{name} needs a value");
            std::process::exit(2);
        };
        Some(value)
    }
}

/// The base parameter set of the Figure-7 study (everything but MTBF and α).
pub fn figure7_base() -> ModelParams {
    ModelParams::paper_figure7(0.5, ft_platform::units::minutes(120.0))
        .expect("paper parameters are valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_parse_flags_values_and_defaults() {
        let args = Args::from_vec(
            ["--replications", "250", "--protocol", "pure", "--break-even"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
        );
        assert_eq!(args.value("--replications", 100usize), 250);
        assert_eq!(args.value("--missing", 7u32), 7);
        assert_eq!(args.string("--protocol", "all"), "pure");
        assert_eq!(args.string("--other", "all"), "all");
        assert!(args.flag("--break-even"));
        assert!(!args.flag("--simulate"));
    }

    #[test]
    fn figure7_base_matches_the_paper() {
        let p = figure7_base();
        assert_eq!(p.rho, 0.8);
        assert_eq!(p.phi, 1.03);
        assert_eq!(p.abft_reconstruction, 2.0);
    }
}
