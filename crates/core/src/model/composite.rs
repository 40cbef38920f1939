//! ABFT&PeriodicCkpt: the composite protocol (Section IV-B).
//!
//! * The GENERAL phase is protected by periodic checkpointing; when it is
//!   shorter than the optimal period, only the forced entry checkpoint
//!   (REMAINDER dataset, cost `C_L̄`) is taken — Equations (1), (9);
//! * the LIBRARY phase runs under ABFT: the work is inflated by `φ`, a forced
//!   exit checkpoint of cost `C_L` is added, and a failure costs
//!   `D + R_L̄ + Recons_ABFT` instead of a rollback — Equations (2), (8);
//! * the safeguard of Section III-B, which keeps ABFT off when the projected
//!   ABFT-protected call is shorter than the optimal checkpoint period, lives
//!   in [`crate::safeguard`].

use crate::error::{ModelError, Result};
use crate::model::analytic::{FirstOrderExponential, WasteModel};
use crate::model::phase::{checkpointed_phase_with, PhaseParams};
use crate::model::waste::{Prediction, Waste};
use crate::params::ModelParams;

/// Expected execution time of the LIBRARY phase under ABFT protection
/// (Equation 8).
pub fn library_final_time(params: &ModelParams) -> Result<f64> {
    let work = params.library_duration();
    if work <= 0.0 {
        return Ok(0.0);
    }
    let fault_free = params.phi * work + params.checkpoint_cost_library();
    let per_failure = params.downtime + params.recovery_cost_remainder() + params.abft_reconstruction;
    let loss_rate = per_failure / params.platform_mtbf;
    if loss_rate >= 1.0 {
        return Err(ModelError::OutsideValidityDomain {
            what: "ABFT library-phase final time",
        });
    }
    Ok(fault_free / (1.0 - loss_rate))
}

/// Expected execution time of the GENERAL phase of the composite protocol
/// (Equations (1), (9), (10)).
pub fn general_final_time(params: &ModelParams) -> Result<(f64, Option<f64>)> {
    general_final_time_with(&FirstOrderExponential, params)
}

/// [`general_final_time`] under an arbitrary [`WasteModel`].
pub fn general_final_time_with<M: WasteModel + ?Sized>(
    model: &M,
    params: &ModelParams,
) -> Result<(f64, Option<f64>)> {
    let outcome = checkpointed_phase_with(model, &PhaseParams {
        work: params.general_duration(),
        periodic_checkpoint: params.checkpoint_cost,
        // When the GENERAL phase is short, only the forced entry checkpoint
        // of the REMAINDER dataset is taken before switching to ABFT mode.
        trailing_checkpoint: params.checkpoint_cost_remainder(),
        recovery: params.recovery_cost,
        downtime: params.downtime,
        mtbf: params.platform_mtbf,
    })?;
    Ok((outcome.final_time, outcome.period))
}

/// Full prediction for one epoch under ABFT&PeriodicCkpt (safeguard not
/// applied — ABFT is always used for the LIBRARY phase).
pub fn prediction(params: &ModelParams) -> Result<Prediction> {
    prediction_with(&FirstOrderExponential, params)
}

/// [`prediction`] under an arbitrary [`WasteModel`].  Only the GENERAL
/// (checkpoint-protected) phase depends on the rework law; the
/// ABFT-protected LIBRARY phase loses no work to failures (Equation (8)'s
/// per-failure cost is `D + R_L̄ + Recons`, no half-period term), so its
/// formula is identical under every failure model of the same MTBF.
pub fn prediction_with<M: WasteModel + ?Sized>(
    model: &M,
    params: &ModelParams,
) -> Result<Prediction> {
    let (general_time, general_period) = general_final_time_with(model, params)?;
    let library_time = library_final_time(params)?;
    let final_time = general_time + library_time;
    Ok(Prediction {
        general_final_time: general_time,
        library_final_time: library_time,
        waste: Waste::from_times(params.epoch_duration, final_time),
        general_period,
        library_period: None,
        expected_failures: final_time / params.platform_mtbf,
    })
}

/// Expected execution time of one epoch under ABFT&PeriodicCkpt.
pub fn final_time(params: &ModelParams) -> Result<f64> {
    Ok(prediction(params)?.final_time())
}

/// Waste of ABFT&PeriodicCkpt on one epoch.
pub fn waste(params: &ModelParams) -> Result<Waste> {
    Ok(prediction(params)?.waste)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{bi, pure};
    use ft_platform::units::{minutes, weeks};

    #[test]
    fn degenerates_to_pure_when_alpha_is_zero() {
        // Section V-B: "when α tends toward 0, the protocol behaves as
        // PurePeriodicCkpt".
        let params = ModelParams::paper_figure7(0.0, minutes(120.0)).unwrap();
        let composite = waste(&params).unwrap().value();
        let pure = pure::waste(&params).unwrap().value();
        assert!((composite - pure).abs() < 1e-9);
    }

    #[test]
    fn approaches_phi_overhead_when_alpha_is_one_and_failures_are_rare() {
        // Section V-B: "when considering the extreme case of 100% of the time
        // spent in the LIBRARY phases, the overhead tends to reach the
        // overhead induced by the slowdown factor of ABFT (φ = 1.03, hence 3%
        // overhead)" — exactly true in the limit of large MTBF.
        let params = ModelParams::builder()
            .epoch_duration(weeks(1.0))
            .alpha(1.0)
            .checkpoint_cost(minutes(10.0))
            .recovery_cost(minutes(10.0))
            .downtime(minutes(1.0))
            .rho(0.8)
            .phi(1.03)
            .abft_reconstruction(2.0)
            .platform_mtbf(weeks(50.0))
            .build()
            .unwrap();
        let w = waste(&params).unwrap().value();
        let phi_overhead = 1.0 - 1.0 / 1.03;
        assert!((w - phi_overhead).abs() < 0.005, "waste {w} vs {phi_overhead}");
    }

    #[test]
    fn beats_both_checkpoint_protocols_at_half_library_time() {
        // Section V-B: at α = 0.5 and the paper's parameters the composite
        // protocol already wins against both PurePeriodicCkpt and
        // BiPeriodicCkpt.
        for mtbf in [60.0, 120.0, 240.0] {
            let params = ModelParams::paper_figure7(0.5, minutes(mtbf)).unwrap();
            let composite = waste(&params).unwrap().value();
            let pure = pure::waste(&params).unwrap().value();
            let bi = bi::waste(&params).unwrap().value();
            assert!(composite < pure, "mtbf {mtbf}: {composite} !< {pure}");
            assert!(composite < bi, "mtbf {mtbf}: {composite} !< {bi}");
        }
    }

    #[test]
    fn waste_decreases_with_alpha_at_small_mtbf() {
        // Figure 7e: with a small MTBF, moving work into the ABFT-protected
        // phase reduces the waste monotonically.
        let mtbf = minutes(60.0);
        let mut previous = 1.0;
        for alpha in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let params = ModelParams::paper_figure7(alpha, mtbf).unwrap();
            let w = waste(&params).unwrap().value();
            assert!(w < previous + 1e-12, "alpha {alpha}");
            previous = w;
        }
    }

    #[test]
    fn library_failures_cost_less_than_general_failures() {
        // The per-failure cost in the LIBRARY phase is D + R_L̄ + Recons,
        // much smaller than a full rollback; with the paper's parameters the
        // library phase final time is very close to φ·T_L + C_L.
        let params = ModelParams::paper_figure7(1.0, minutes(60.0)).unwrap();
        let t = library_final_time(&params).unwrap();
        let fault_free = 1.03 * params.library_duration() + params.checkpoint_cost_library();
        assert!(t > fault_free);
        // Per-failure cost D + R_L̄ + Recons ≈ 3 min, one failure per hour:
        // ≈ 5% of the time is lost, against > 30% for a rollback protocol.
        assert!((t - fault_free) / fault_free < 0.06);
    }
}
