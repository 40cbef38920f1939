//! Protocol identities and simulation outcomes.
//!
//! The actual epoch unfolding lives in the [`crate::engine`] module: one
//! step program per protocol, run by the interpreter every pluggable
//! [`ProtocolExecutor`] shares.  This module keeps the stable surface the rest of the
//! workspace consumes — the [`Protocol`] enum, the [`SimOutcome`] record and
//! the one-shot [`simulate`] convenience wrapper.
//!
//! [`ProtocolExecutor`]: crate::engine::ProtocolExecutor

use ft_composite::params::ModelParams;
use serde::{Deserialize, Serialize};

use crate::engine::Engine;

/// The three fault-tolerance protocols compared by the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Protocol {
    /// Phase-oblivious coordinated periodic checkpointing.
    PurePeriodicCkpt,
    /// Phase-aware periodic checkpointing with incremental checkpoints during
    /// LIBRARY phases.
    BiPeriodicCkpt,
    /// The composite protocol: ABFT inside LIBRARY phases, periodic
    /// checkpointing elsewhere.
    AbftPeriodicCkpt,
}

impl Protocol {
    /// All three protocols, in the order the paper presents them.
    pub fn all() -> [Protocol; 3] {
        [
            Protocol::PurePeriodicCkpt,
            Protocol::BiPeriodicCkpt,
            Protocol::AbftPeriodicCkpt,
        ]
    }

    /// Human-readable protocol name (as used in the paper).
    pub fn name(&self) -> &'static str {
        match self {
            Protocol::PurePeriodicCkpt => "PurePeriodicCkpt",
            Protocol::BiPeriodicCkpt => "BiPeriodicCkpt",
            Protocol::AbftPeriodicCkpt => "ABFT&PeriodicCkpt",
        }
    }

    /// Parses the short protocol spellings used by the CLI binaries
    /// (`pure`, `bi`, `abft`).
    pub fn parse(name: &str) -> Option<Protocol> {
        match name {
            "pure" => Some(Protocol::PurePeriodicCkpt),
            "bi" => Some(Protocol::BiPeriodicCkpt),
            "abft" => Some(Protocol::AbftPeriodicCkpt),
            _ => None,
        }
    }
}

/// Result of simulating one application under one protocol.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimOutcome {
    /// Total execution time, failures included.
    pub final_time: f64,
    /// Failure-free duration of the application (the useful work).
    pub base_time: f64,
    /// Number of failures that struck during the execution.
    pub failures: usize,
}

impl SimOutcome {
    /// The observed waste `1 − T_0 / T_final`.
    pub fn waste(&self) -> f64 {
        (1.0 - self.base_time / self.final_time).max(0.0)
    }
}

/// Simulates one epoch under the given protocol and seed.
///
/// Convenience wrapper over [`Engine::simulate`]; when evaluating many
/// seeds of the same parameter point, build the [`Engine`] once and reuse it
/// so the period plan is precomputed a single time.
pub fn simulate(protocol: Protocol, params: &ModelParams, seed: u64) -> SimOutcome {
    Engine::new(params).simulate(protocol, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_platform::units::{minutes, weeks};

    fn paper_params(alpha: f64, mtbf_minutes: f64) -> ModelParams {
        ModelParams::paper_figure7(alpha, minutes(mtbf_minutes)).unwrap()
    }

    #[test]
    fn failure_free_simulation_matches_fault_free_model_time() {
        // With an (almost) infinite MTBF the simulated time must equal the
        // fault-free time of the model: work + checkpoints.
        let params = ModelParams::builder()
            .epoch_duration(weeks(1.0))
            .alpha(0.5)
            .checkpoint_cost(minutes(10.0))
            .recovery_cost(minutes(10.0))
            .downtime(minutes(1.0))
            .rho(0.8)
            .phi(1.03)
            .abft_reconstruction(2.0)
            .platform_mtbf(weeks(20_000.0))
            .build()
            .unwrap();
        // Composite: general work + C_L̄ + φ·library + C_L (general phase is
        // 3.5 days >> the optimal period, so periodic checkpoints appear too;
        // use the model's own fault-free expressions for the comparison).
        let sim = simulate(Protocol::AbftPeriodicCkpt, &params, 42);
        let model = ft_composite::model::composite::final_time(&params).unwrap();
        assert!(
            (sim.final_time - model).abs() / model < 0.02,
            "sim {} vs model {model}",
            sim.final_time
        );
        assert_eq!(sim.failures, 0);
    }

    #[test]
    fn simulation_is_deterministic_per_seed() {
        let params = paper_params(0.5, 120.0);
        for proto in Protocol::all() {
            let a = simulate(proto, &params, 9);
            let b = simulate(proto, &params, 9);
            assert_eq!(a, b);
            let c = simulate(proto, &params, 10);
            assert_ne!(a.final_time, c.final_time);
        }
    }

    #[test]
    fn waste_is_positive_and_bounded() {
        let params = paper_params(0.8, 90.0);
        for proto in Protocol::all() {
            for seed in 0..20 {
                let out = simulate(proto, &params, seed);
                assert!(out.final_time >= out.base_time);
                let w = out.waste();
                assert!((0.0..1.0).contains(&w), "{proto:?} seed {seed}: waste {w}");
            }
        }
    }

    #[test]
    fn failures_are_observed_at_paper_scale_mtbf() {
        // One week of work with a 2-hour MTBF: dozens of failures.
        let params = paper_params(0.5, 120.0);
        let out = simulate(Protocol::PurePeriodicCkpt, &params, 3);
        assert!(out.failures > 20, "only {} failures", out.failures);
    }

    #[test]
    fn composite_beats_pure_at_high_alpha_and_low_mtbf() {
        // Average a few replications to smooth the randomness; at α = 0.8 and
        // a 1-hour MTBF the composite protocol must clearly win.
        let params = paper_params(0.8, 60.0);
        let avg = |proto: Protocol| -> f64 {
            (0..30)
                .map(|s| simulate(proto, &params, s).waste())
                .sum::<f64>()
                / 30.0
        };
        let pure = avg(Protocol::PurePeriodicCkpt);
        let composite = avg(Protocol::AbftPeriodicCkpt);
        assert!(
            composite < pure - 0.05,
            "composite {composite} not clearly below pure {pure}"
        );
    }

    #[test]
    fn alpha_zero_makes_all_protocols_equivalent_in_expectation() {
        // With no library phase the three protocols are the same algorithm;
        // averaged over seeds their waste must be close.
        let params = paper_params(0.0, 120.0);
        let avg = |proto: Protocol| -> f64 {
            (0..40)
                .map(|s| simulate(proto, &params, s).waste())
                .sum::<f64>()
                / 40.0
        };
        let pure = avg(Protocol::PurePeriodicCkpt);
        let bi = avg(Protocol::BiPeriodicCkpt);
        let composite = avg(Protocol::AbftPeriodicCkpt);
        assert!((pure - bi).abs() < 0.02, "pure {pure} vs bi {bi}");
        assert!((pure - composite).abs() < 0.02, "pure {pure} vs composite {composite}");
    }

    #[test]
    fn protocol_names_are_stable() {
        assert_eq!(Protocol::PurePeriodicCkpt.name(), "PurePeriodicCkpt");
        assert_eq!(Protocol::BiPeriodicCkpt.name(), "BiPeriodicCkpt");
        assert_eq!(Protocol::AbftPeriodicCkpt.name(), "ABFT&PeriodicCkpt");
        assert_eq!(Protocol::all().len(), 3);
    }

    #[test]
    fn cli_spellings_parse() {
        assert_eq!(Protocol::parse("pure"), Some(Protocol::PurePeriodicCkpt));
        assert_eq!(Protocol::parse("bi"), Some(Protocol::BiPeriodicCkpt));
        assert_eq!(Protocol::parse("abft"), Some(Protocol::AbftPeriodicCkpt));
        assert_eq!(Protocol::parse("other"), None);
    }
}
