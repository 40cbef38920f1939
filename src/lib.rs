//! # abft-ckpt-composite
//!
//! Umbrella crate for the Rust reproduction of *Assessing the Impact of ABFT
//! and Checkpoint Composite Strategies* (Bosilca, Bouteiller, Hérault, Robert,
//! Dongarra — APDCM / IPDPSW 2014).
//!
//! It re-exports the workspace crates under stable module names so that
//! examples, integration tests and downstream users need a single dependency:
//!
//! * [`platform`] — failure models, traces and scenarios, process grids
//!   ([`ft_platform`]);
//! * [`ckpt`] — checkpoint/restart substrate ([`ft_ckpt`]);
//! * [`abft`] — algorithm-based fault-tolerant factorizations ([`ft_abft`]);
//! * [`composite`] — the paper's analytical model, optimal periods and the
//!   composite protocol runtime ([`ft_composite`]);
//! * [`sim`] — the discrete-event simulator: the trait-based protocol
//!   engine, Monte-Carlo replication machinery ([`ft_sim`]);
//! * [`bench`](mod@bench) — the declarative sweep subsystem
//!   ([`ft_bench::experiment`]) and the shared output writer behind the
//!   figure binaries ([`ft_bench`]).
//!
//! ## Quickstart
//!
//! ```
//! use abft_ckpt_composite::composite::params::ModelParams;
//! use abft_ckpt_composite::composite::model;
//! use abft_ckpt_composite::platform::units::{minutes, weeks};
//!
//! // The paper's headline scenario: one week of work, C = R = 10 min,
//! // D = 1 min, rho = 0.8, phi = 1.03, MTBF = 2 h, half the time in the library.
//! let params = ModelParams::builder()
//!     .epoch_duration(weeks(1.0))
//!     .alpha(0.5)
//!     .checkpoint_cost(minutes(10.0))
//!     .recovery_cost(minutes(10.0))
//!     .downtime(minutes(1.0))
//!     .rho(0.8)
//!     .phi(1.03)
//!     .abft_reconstruction(2.0)
//!     .platform_mtbf(minutes(120.0))
//!     .build()
//!     .unwrap();
//!
//! let pure = model::pure::waste(&params).unwrap();
//! let composite = model::composite::waste(&params).unwrap();
//! // Waste is a fraction of platform time; the composite protocol beats the
//! // pure-checkpointing baseline on the paper's headline scenario.
//! assert!(pure.value() > 0.0 && pure.value() < 1.0);
//! assert!(composite.value() > 0.0 && composite.value() < pure.value());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

/// Compile-checks the code blocks in the top-level `README.md` as doc-tests,
/// so the quickstart shown there can never drift out of sync with the API.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;

/// Compile-checks the derivation examples in `docs/MODEL.md` as doc-tests:
/// the waste-model formulas documented there are executed against the
/// implementation on every `cargo test`.
#[cfg(doctest)]
#[doc = include_str!("../docs/MODEL.md")]
pub struct ModelDoctests;

pub use ft_abft as abft;
pub use ft_bench as bench;
pub use ft_ckpt as ckpt;
pub use ft_composite as composite;
pub use ft_platform as platform;
pub use ft_sim as sim;

/// The version of the reproduction, mirroring the crate version.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

#[cfg(test)]
mod tests {
    #[test]
    fn version_is_exposed() {
        assert!(!super::VERSION.is_empty());
    }
}
