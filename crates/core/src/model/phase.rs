//! The periodic-checkpointing phase formula shared by all three protocols.
//!
//! The paper analyses a phase of useful work `T` protected by periodic
//! checkpoints of cost `C_p` in two regimes (Section IV-B):
//!
//! * **short phase** (`T < P_opt`): no periodic checkpoint is taken inside
//!   the phase, only a trailing checkpoint of cost `C_t` at its end;
//!   `T_ff = T + C_t` and a failure loses half of it on average
//!   (Equations (6) and (9));
//! * **long phase** (`T ≥ P_opt`): the phase is divided into periods of
//!   length `P_opt = √(2 C_p (µ − D − R))` and
//!   `T_final = T / X` with `X = (1 − C_p/P)(1 − (D + R + P/2)/µ)`
//!   (Equations (7), (10) and (11)).

use crate::error::{ModelError, Result};
use crate::model::analytic::{FirstOrderExponential, WasteModel};

/// Outcome of the phase formula.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseOutcome {
    /// Expected execution time of the phase, failures included.
    pub final_time: f64,
    /// Failure-free execution time of the phase (work + protection overhead).
    pub fault_free_time: f64,
    /// The checkpoint period used, when the periodic regime applies.
    pub period: Option<f64>,
}

/// Parameters of a checkpoint-protected phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseParams {
    /// Useful work of the phase (seconds).
    pub work: f64,
    /// Cost of each periodic checkpoint (seconds).
    pub periodic_checkpoint: f64,
    /// Cost of the trailing checkpoint taken when the phase is too short for
    /// periodic checkpointing (seconds).
    pub trailing_checkpoint: f64,
    /// Rollback/reload cost after a failure (seconds).
    pub recovery: f64,
    /// Downtime after a failure (seconds).
    pub downtime: f64,
    /// Platform MTBF (seconds).
    pub mtbf: f64,
}

/// Evaluates the phase formula under the paper's exponential first-order
/// model — the historical entry point, bit-identical to
/// `checkpointed_phase_with(&FirstOrderExponential, p)`.
///
/// A phase with zero work contributes nothing (not even a trailing
/// checkpoint), matching the degenerate `α = 0` / `α = 1` cases of the paper.
pub fn checkpointed_phase(p: &PhaseParams) -> Result<PhaseOutcome> {
    checkpointed_phase_with(&FirstOrderExponential, p)
}

/// Evaluates the phase formula under an arbitrary [`WasteModel`]: the model
/// supplies the optimal period and the expected rework per failure, the
/// regime split and the efficiency factors are the paper's.
///
/// With [`FirstOrderExponential`] the rework is `extent/2` and this is
/// exactly Equations (9)–(11); with
/// [`crate::model::analytic::WeibullCorrected`] the rework carries the
/// incomplete-Gamma conditional-age correction of the shape-`k` clock.
pub fn checkpointed_phase_with<M: WasteModel + ?Sized>(
    model: &M,
    p: &PhaseParams,
) -> Result<PhaseOutcome> {
    if p.work <= 0.0 {
        return Ok(PhaseOutcome {
            final_time: 0.0,
            fault_free_time: 0.0,
            period: None,
        });
    }
    let period = model.optimal_period(p.periodic_checkpoint, p.mtbf, p.downtime, p.recovery)?;
    if p.work < period {
        // Short phase: Equation (9).
        let fault_free = p.work + p.trailing_checkpoint;
        let loss_rate =
            (p.downtime + p.recovery + model.expected_rework(fault_free, p.mtbf)) / p.mtbf;
        if loss_rate >= 1.0 {
            return Err(ModelError::OutsideValidityDomain {
                what: "short-phase final time",
            });
        }
        Ok(PhaseOutcome {
            final_time: fault_free / (1.0 - loss_rate),
            fault_free_time: fault_free,
            period: None,
        })
    } else {
        // Long phase: Equations (10) and (11). Each factor of X must be
        // positive on its own: a negative "time left after checkpointing" and
        // a negative "time left after failures" would otherwise cancel out.
        let f_checkpoint = 1.0 - p.periodic_checkpoint / period;
        let f_failures =
            1.0 - (p.downtime + p.recovery + model.expected_rework(period, p.mtbf)) / p.mtbf;
        if f_checkpoint <= 0.0 || f_failures <= 0.0 {
            return Err(ModelError::OutsideValidityDomain {
                what: "periodic-regime efficiency factor X",
            });
        }
        let x = f_checkpoint * f_failures;
        Ok(PhaseOutcome {
            final_time: p.work / x,
            fault_free_time: p.work / f_checkpoint,
            period: Some(period),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_platform::units::{hours, minutes, weeks};

    fn long_phase() -> PhaseParams {
        PhaseParams {
            work: weeks(1.0),
            periodic_checkpoint: minutes(10.0),
            trailing_checkpoint: minutes(10.0),
            recovery: minutes(10.0),
            downtime: minutes(1.0),
            mtbf: hours(2.0),
        }
    }

    #[test]
    fn zero_work_costs_nothing() {
        let mut p = long_phase();
        p.work = 0.0;
        let out = checkpointed_phase(&p).unwrap();
        assert_eq!(out.final_time, 0.0);
        assert_eq!(out.fault_free_time, 0.0);
    }

    #[test]
    fn long_phase_uses_the_periodic_regime() {
        let out = checkpointed_phase(&long_phase()).unwrap();
        assert!(out.period.is_some());
        assert!(out.final_time > out.fault_free_time);
        assert!(out.fault_free_time > long_phase().work);
        // With a 2-hour MTBF and 10-minute checkpoints the waste is sizeable
        // but the execution certainly completes (X not tiny).
        let waste = 1.0 - long_phase().work / out.final_time;
        assert!(waste > 0.1 && waste < 0.6, "waste = {waste}");
    }

    #[test]
    fn short_phase_takes_a_single_trailing_checkpoint() {
        let mut p = long_phase();
        p.work = minutes(5.0); // far below the ~49-minute optimal period
        p.trailing_checkpoint = minutes(2.0);
        let out = checkpointed_phase(&p).unwrap();
        assert!(out.period.is_none());
        assert!((out.fault_free_time - minutes(7.0)).abs() < 1e-9);
        assert!(out.final_time > out.fault_free_time);
    }

    #[test]
    fn final_time_decreases_with_mtbf() {
        let mut previous = f64::INFINITY;
        for mtbf_hours in [1.0, 2.0, 4.0, 8.0, 16.0] {
            let mut p = long_phase();
            p.mtbf = hours(mtbf_hours);
            let out = checkpointed_phase(&p).unwrap();
            assert!(out.final_time < previous);
            previous = out.final_time;
        }
    }

    #[test]
    fn generic_phase_with_first_order_is_bit_identical() {
        use crate::model::analytic::WeibullCorrected;
        for work in [minutes(5.0), weeks(1.0)] {
            let mut p = long_phase();
            p.work = work;
            let direct = checkpointed_phase(&p).unwrap();
            let generic = checkpointed_phase_with(&FirstOrderExponential, &p).unwrap();
            assert_eq!(direct.final_time.to_bits(), generic.final_time.to_bits());
            assert_eq!(direct.fault_free_time.to_bits(), generic.fault_free_time.to_bits());
            assert_eq!(direct.period, generic.period);
            // And the Weibull model at k = 1 degenerates to the same bits.
            let k1 = checkpointed_phase_with(&WeibullCorrected::new(1.0).unwrap(), &p).unwrap();
            assert_eq!(direct.final_time.to_bits(), k1.final_time.to_bits());
        }
    }

    #[test]
    fn weibull_phase_predicts_less_waste_for_bursty_clocks() {
        use crate::model::analytic::WeibullCorrected;
        let p = long_phase();
        let exponential = checkpointed_phase(&p).unwrap();
        let bursty =
            checkpointed_phase_with(&WeibullCorrected::new(0.7).unwrap(), &p).unwrap();
        // Clustered failures destroy less work per failure: the corrected
        // final time is shorter (the waste smaller).
        assert!(bursty.final_time < exponential.final_time);
        // Wear-out clocks go the other way.
        let wearout =
            checkpointed_phase_with(&WeibullCorrected::new(1.5).unwrap(), &p).unwrap();
        assert!(wearout.final_time > exponential.final_time);
    }

    #[test]
    fn invalid_regimes_error_out() {
        let mut p = long_phase();
        p.mtbf = minutes(10.0); // µ < D + R
        assert!(checkpointed_phase(&p).is_err());
        // µ barely above D + R: the efficiency factor X collapses.
        let mut p = long_phase();
        p.mtbf = minutes(11.5);
        assert!(checkpointed_phase(&p).is_err());
    }
}
