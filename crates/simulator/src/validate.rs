//! The model arm of a model-versus-simulation comparison (the right-hand
//! column of Figure 7).
//!
//! For every `(MTBF, α)` point of the Figure-7 grid the paper plots the
//! difference `WASTE_simul − WASTE_model`; §V-A reports that the model
//! slightly under-estimates the waste for small MTBFs (up to 12 % in the
//! worst case, below 5 % as soon as the MTBF is not tiny), because the
//! closed formula neglects failures striking during recovery.  This module
//! evaluates the closed-form side of that comparison ([`model_waste`],
//! [`model_waste_with`]); the sweep subsystem pairs it with the simulation
//! arm (`ft-bench`'s `SweepSpec` with `--model-gap`).

use ft_composite::model;
use ft_composite::params::ModelParams;

use crate::protocols::Protocol;

/// Computes the model waste of `protocol` for the given parameters under the
/// paper's exponential first-order model.
pub fn model_waste(protocol: Protocol, params: &ModelParams) -> f64 {
    let w = match protocol {
        Protocol::PurePeriodicCkpt => model::pure::waste(params),
        Protocol::BiPeriodicCkpt => model::bi::waste(params),
        Protocol::AbftPeriodicCkpt => model::composite::waste(params),
    };
    w.map(|w| w.value()).unwrap_or(1.0)
}

/// [`model_waste`] under an arbitrary analytic
/// [`WasteModel`](ft_composite::model::analytic::WasteModel) — the entry
/// point of a sweep's model arm, where the model is dispatched from the same
/// `FailureSpec` as the simulation clock.  Points outside the model's
/// validity domain report a saturated waste of `1`.
pub fn model_waste_with<M: ft_composite::model::analytic::WasteModel + ?Sized>(
    waste_model: &M,
    protocol: Protocol,
    params: &ModelParams,
) -> f64 {
    let p = match protocol {
        Protocol::PurePeriodicCkpt => model::pure::prediction_with(waste_model, params),
        Protocol::BiPeriodicCkpt => model::bi::prediction_with(waste_model, params),
        Protocol::AbftPeriodicCkpt => model::composite::prediction_with(waste_model, params),
    };
    p.map(|p| p.waste.value()).unwrap_or(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_platform::units::minutes;

    #[test]
    fn model_waste_with_first_order_matches_the_historical_entry_point() {
        use ft_composite::model::analytic::{FirstOrderExponential, WeibullCorrected};
        let params = ModelParams::paper_figure7(0.5, minutes(120.0)).unwrap();
        for protocol in Protocol::all() {
            assert_eq!(
                model_waste_with(&FirstOrderExponential, protocol, &params).to_bits(),
                model_waste(protocol, &params).to_bits(),
                "{protocol:?}"
            );
            // The Weibull-corrected model predicts less waste for bursty
            // clocks (clustered failures destroy less work per failure).
            let bursty = model_waste_with(
                &WeibullCorrected::new(0.7).unwrap(),
                protocol,
                &params,
            );
            assert!(
                bursty < model_waste(protocol, &params),
                "{protocol:?}: {bursty}"
            );
        }
    }
}
