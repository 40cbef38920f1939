//! Optimal checkpoint periods: Young, Daly, and the paper's refinement.
//!
//! * Young (1974): `P = √(2 C µ)`;
//! * Daly (2006, higher-order): `P = √(2 C (µ + R)) ...` approximated here by
//!   its commonly used second-order form;
//! * the paper (Equation 11): `P_opt = √(2 C (µ − D − R))`, obtained by
//!   maximising `X = (1 − C/P)(1 − (D + R + P/2)/µ)` — the form every model
//!   in this crate uses.

use crate::error::{ensure_non_negative, ensure_positive, ModelError, Result};

/// Young's first-order optimal period `√(2 C µ)`.
pub fn young_period(checkpoint_cost: f64, mtbf: f64) -> Result<f64> {
    ensure_positive("checkpoint_cost", checkpoint_cost)?;
    ensure_positive("mtbf", mtbf)?;
    Ok((2.0 * checkpoint_cost * mtbf).sqrt())
}

/// Daly's higher-order estimate.
///
/// Daly (FGCS 2006) refines Young's period to
/// `P = √(2 C (µ + R)) · [1 + √(C / (2(µ+R)))/3 + C/(9·2(µ+R))] − C` when
/// `C < 2µ`, and `P = µ + R` otherwise.  (The `+R` term models the fact that
/// the lost work after a failure includes the restart.)
pub fn daly_period(checkpoint_cost: f64, mtbf: f64, recovery_cost: f64) -> Result<f64> {
    ensure_positive("checkpoint_cost", checkpoint_cost)?;
    ensure_positive("mtbf", mtbf)?;
    ensure_non_negative("recovery_cost", recovery_cost)?;
    let m = mtbf + recovery_cost;
    if checkpoint_cost >= 2.0 * m {
        return Ok(m);
    }
    let ratio = checkpoint_cost / (2.0 * m);
    let base = (2.0 * checkpoint_cost * m).sqrt();
    Ok(base * (1.0 + ratio.sqrt() / 3.0 + ratio / 9.0) - checkpoint_cost)
}

/// The paper's optimal period (Equation 11): `√(2 C (µ − D − R))`.
///
/// Returns an error when `µ ≤ D + R` (the platform fails faster than it can
/// recover: no period can help).
pub fn paper_optimal_period(
    checkpoint_cost: f64,
    mtbf: f64,
    downtime: f64,
    recovery_cost: f64,
) -> Result<f64> {
    ensure_positive("checkpoint_cost", checkpoint_cost)?;
    ensure_positive("mtbf", mtbf)?;
    ensure_non_negative("downtime", downtime)?;
    ensure_non_negative("recovery_cost", recovery_cost)?;
    let effective = mtbf - downtime - recovery_cost;
    if effective <= 0.0 {
        return Err(ModelError::MtbfTooSmall {
            mtbf,
            overheads: downtime + recovery_cost,
        });
    }
    Ok((2.0 * checkpoint_cost * effective).sqrt())
}

/// First-order waste of periodic checkpointing at period `P`:
/// `1 − (1 − C/P)(1 − (D + R + P/2)/µ)` — the complement of the `X` factor of
/// Equation (10).  The exponential instance of
/// [`WasteModel::waste_at_period`](crate::model::analytic::WasteModel::waste_at_period)
/// reproduces it bit for bit.
pub fn waste_at_period(
    period: f64,
    checkpoint_cost: f64,
    mtbf: f64,
    downtime: f64,
    recovery_cost: f64,
) -> Result<f64> {
    ensure_positive("period", period)?;
    ensure_positive("checkpoint_cost", checkpoint_cost)?;
    ensure_positive("mtbf", mtbf)?;
    let x = (1.0 - checkpoint_cost / period)
        * (1.0 - (downtime + recovery_cost + period / 2.0) / mtbf);
    Ok(1.0 - x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_platform::units::{hours, minutes};

    #[test]
    fn young_matches_formula() {
        let p = young_period(600.0, hours(2.0)).unwrap();
        assert!((p - (2.0_f64 * 600.0 * 7200.0).sqrt()).abs() < 1e-9);
        assert!(young_period(0.0, 1.0).is_err());
    }

    #[test]
    fn paper_period_is_slightly_below_young() {
        // Subtracting D + R from µ shrinks the period.
        let y = young_period(600.0, hours(2.0)).unwrap();
        let p = paper_optimal_period(600.0, hours(2.0), 60.0, 600.0).unwrap();
        assert!(p < y);
        assert!(p > 0.9 * y);
    }

    #[test]
    fn paper_period_requires_viable_mtbf() {
        assert!(matches!(
            paper_optimal_period(600.0, 500.0, 60.0, 600.0),
            Err(ModelError::MtbfTooSmall { .. })
        ));
    }

    #[test]
    fn daly_close_to_young_when_checkpoint_is_cheap() {
        let mtbf = hours(24.0);
        let c = minutes(1.0);
        let young = young_period(c, mtbf).unwrap();
        let daly = daly_period(c, mtbf, c).unwrap();
        assert!((daly - young).abs() / young < 0.05);
        // Degenerate regime: checkpoint dominating the MTBF.
        let clamped = daly_period(10_000.0, 1_000.0, 0.0).unwrap();
        assert_eq!(clamped, 1_000.0);
    }

    #[test]
    fn optimal_period_minimises_the_waste_function() {
        let (c, mtbf, d, r) = (minutes(10.0), hours(2.0), minutes(1.0), minutes(10.0));
        let p_opt = paper_optimal_period(c, mtbf, d, r).unwrap();
        let w_opt = waste_at_period(p_opt, c, mtbf, d, r).unwrap();
        for factor in [0.5, 0.8, 1.2, 2.0] {
            let w = waste_at_period(p_opt * factor, c, mtbf, d, r).unwrap();
            assert!(
                w >= w_opt - 1e-12,
                "period {factor} x P_opt gives waste {w} < optimal {w_opt}"
            );
        }
    }

    #[test]
    fn waste_increases_when_mtbf_decreases() {
        let (c, d, r) = (minutes(10.0), minutes(1.0), minutes(10.0));
        let mut previous = 0.0;
        for mtbf_minutes in [240.0, 180.0, 120.0, 90.0, 60.0] {
            let mtbf = minutes(mtbf_minutes);
            let p = paper_optimal_period(c, mtbf, d, r).unwrap();
            let w = waste_at_period(p, c, mtbf, d, r).unwrap();
            assert!(w > previous);
            previous = w;
        }
    }
}
