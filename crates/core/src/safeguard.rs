//! The ABFT-activation safeguard (Section III-B).
//!
//! Forcing partial checkpoints at library entry and exit only pays off when
//! the library call is long enough; for a very short call the composite
//! protocol would introduce *more* checkpoints than plain periodic
//! checkpointing.  The paper's safeguard projects the duration of the
//! ABFT-protected call (`φ·T_L + C_L`) and keeps ABFT off when that
//! projection is below the optimal checkpoint period.

use crate::error::Result;
use crate::model;
use crate::model::waste::Waste;
use crate::params::ModelParams;
use crate::young_daly::paper_optimal_period;

/// The safeguard rule itself: activate ABFT only when the projected
/// ABFT-protected duration is at least the optimal checkpoint period.
pub fn should_activate_abft(projected_duration: f64, optimal_period: f64) -> bool {
    projected_duration >= optimal_period
}

/// Applies the safeguard using a full parameter set: projects the LIBRARY
/// phase of `params` and compares it with the optimal checkpoint period.
pub fn activate_for_params(params: &ModelParams) -> Result<bool> {
    let period = paper_optimal_period(
        params.checkpoint_cost,
        params.platform_mtbf,
        params.downtime,
        params.recovery_cost,
    )?;
    let projected = params.phi * params.library_duration() + params.checkpoint_cost_library();
    Ok(should_activate_abft(projected, period))
}

/// The model-level safeguard: whether activating ABFT is projected to pay
/// off at all.
///
/// Two hazards can make the composite protocol lose to plain periodic
/// checkpointing, and the safeguard must catch both:
///
/// 1. **short calls** (the paper's §III-B rule): the forced entry/exit
///    checkpoints dominate when the projected ABFT-protected duration is
///    below the optimal checkpoint period — [`activate_for_params`];
/// 2. **reliable platforms**: ABFT pays its flat `φ − 1` slowdown on every
///    LIBRARY second, while checkpointing waste vanishes as `√(C/µ)`; on a
///    sufficiently reliable platform (or with sufficiently cheap
///    checkpoints) the flat overhead loses.  The closed-form model makes
///    this projection free, so the safeguard simply compares the two
///    predicted wastes.
pub fn activate_with_model(params: &ModelParams) -> Result<bool> {
    if !activate_for_params(params)? {
        return Ok(false);
    }
    let composite = model::composite::waste(params)?;
    let pure = model::pure::waste(params)?;
    Ok(composite.value() <= pure.value())
}

/// Model-level waste of the composite protocol *with the safeguard applied*:
/// when [`activate_with_model`] rejects ABFT the protocol keeps it off and
/// degenerates to plain periodic checkpointing.
///
/// This is the quantity behind the paper's §III-B "never worse" claim — the
/// safeguarded composite protocol's waste never exceeds PurePeriodicCkpt's
/// (up to float roundoff); the property test in `tests/properties.rs`
/// checks it across the whole parameter domain.
pub fn safeguarded_composite_waste(params: &ModelParams) -> Result<Waste> {
    if activate_with_model(params)? {
        model::composite::waste(params)
    } else {
        model::pure::waste(params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_platform::units::{hours, minutes, weeks};

    #[test]
    fn rule_compares_against_period() {
        assert!(should_activate_abft(100.0, 50.0));
        assert!(!should_activate_abft(10.0, 50.0));
        assert!(should_activate_abft(50.0, 50.0));
    }

    #[test]
    fn paper_scenario_activates_abft() {
        // A multi-day library phase dwarfs the ~49-minute optimal period.
        let params = ModelParams::paper_figure7(0.8, minutes(120.0)).unwrap();
        assert!(activate_for_params(&params).unwrap());
    }

    #[test]
    fn short_library_call_keeps_abft_off() {
        let params = ModelParams::builder()
            .epoch_duration(minutes(30.0))
            .alpha(0.3)
            .checkpoint_cost(minutes(10.0))
            .recovery_cost(minutes(10.0))
            .downtime(minutes(1.0))
            .rho(0.8)
            .phi(1.03)
            .abft_reconstruction(2.0)
            .platform_mtbf(hours(4.0))
            .build()
            .unwrap();
        assert!(!activate_for_params(&params).unwrap());
    }

    #[test]
    fn model_safeguard_keeps_abft_on_in_the_paper_scenario_and_never_hurts() {
        let params = ModelParams::paper_figure7(0.8, minutes(120.0)).unwrap();
        assert!(activate_with_model(&params).unwrap());
        let effective = safeguarded_composite_waste(&params).unwrap();
        let composite = crate::model::composite::waste(&params).unwrap();
        assert_eq!(effective.value(), composite.value());

        // A very reliable platform with cheap checkpoints: the flat ABFT
        // overhead loses, the model-level safeguard turns ABFT off and the
        // effective waste falls back to the pure protocol's.
        let reliable = ModelParams::builder()
            .epoch_duration(weeks(1.0))
            .alpha(1.0)
            .checkpoint_cost(30.0)
            .recovery_cost(30.0)
            .downtime(1.0)
            .rho(0.8)
            .phi(1.10)
            .abft_reconstruction(2.0)
            .platform_mtbf(weeks(2.0))
            .build()
            .unwrap();
        assert!(activate_for_params(&reliable).unwrap(), "duration rule alone passes");
        assert!(!activate_with_model(&reliable).unwrap(), "model comparison rejects");
        let effective = safeguarded_composite_waste(&reliable).unwrap();
        let pure = crate::model::pure::waste(&reliable).unwrap();
        assert_eq!(effective.value(), pure.value());
    }

    #[test]
    fn rarer_failures_raise_the_bar() {
        // Larger MTBF → longer optimal period → ABFT needs a longer call to
        // be worth it. Construct a call right at the boundary for a 2-hour
        // MTBF and check it is rejected at a 50-week MTBF.
        let at_2h = ModelParams::builder()
            .epoch_duration(hours(2.0))
            .alpha(0.5)
            .checkpoint_cost(minutes(10.0))
            .recovery_cost(minutes(10.0))
            .downtime(minutes(1.0))
            .rho(0.8)
            .phi(1.03)
            .abft_reconstruction(2.0)
            .platform_mtbf(hours(2.0))
            .build()
            .unwrap();
        assert!(activate_for_params(&at_2h).unwrap());
        let at_50w = at_2h.with_mtbf(weeks(50.0)).unwrap();
        assert!(!activate_for_params(&at_50w).unwrap());
    }
}
