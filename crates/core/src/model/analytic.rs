//! The analytic waste-model subsystem: one trait, two failure laws.
//!
//! The paper derives its closed-form waste (Equations (9)–(12)) under the
//! exponential failure assumption of Section V-A: failures arrive at rate
//! `1/µ` and a failure striking a checkpoint period of length `P` destroys
//! `P/2` of work on average.  The simulator, however, also runs under
//! **Weibull** clocks (`--failure-model weibull`), and under those clocks the
//! exponential formula is systematically biased: for `k < 1` failures
//! cluster — each failure in a burst strikes shortly after the previous
//! restart and destroys far *less* than `P/2` — so the exponential model
//! over-predicts the waste (by ≈ 8 points at `k = 0.5` on the paper's
//! headline scenario).
//!
//! [`WasteModel`] abstracts exactly the two quantities the first-order
//! derivation takes from the failure law:
//!
//! * [`WasteModel::expected_rework`] — `E[lost work]` given that a failure
//!   strikes within a protection window of a given extent (`extent/2` under
//!   the exponential law);
//! * [`WasteModel::optimal_period`] — the checkpoint period balancing
//!   checkpoint overhead against that expected rework (Equation (11) under
//!   the exponential law).
//!
//! [`FirstOrderExponential`] is the paper's formula, bit-identical to the
//! historical code path.  [`WeibullCorrected`] replaces `extent/2` by the
//! **conditional mean failure age**
//!
//! ```text
//! E_k[X | X ≤ τ] = λ γ(1 + 1/k, (τ/λ)^k) / (1 − e^{−(τ/λ)^k}),   λ = µ/Γ(1 + 1/k)
//! ```
//!
//! (`γ` the lower incomplete Gamma function — see
//! `ft_platform::special`), *blended* with the uniform-strike value `τ/2`
//! on the first-arrival mass `F_k(τ)` and applied as the ratio correction
//!
//! ```text
//! rework = (extent/2) · blend_k(τ) / blend_1(τ),
//! blend_k(τ) = F_k(τ)·E_k[X|X≤τ] + (1 − F_k(τ))·τ/2
//! ```
//!
//! and solves the balance condition `C/P = rework(P)/(µ − D − R)` by fixed
//! point for the corrected period.  Both corrections are exact identities at
//! `k = 1` (the ratio is literally `x/x` and the fixed point starts
//! converged), so the Weibull model degenerates **bit-for-bit** to the
//! exponential one — the property `tests/weibull_model.rs` pins across the
//! Figure 8–10 grids.
//!
//! [`AnyWasteModel::from_spec`] dispatches a [`FailureSpec`] to the matching
//! model, so the analytic arm and the simulation clock of a sweep always
//! share one failure description.

use ft_platform::failure::FailureSpec;

use crate::error::{ensure_positive, ModelError, Result};
use crate::young_daly::paper_optimal_period;

/// The failure-law-dependent core of the first-order waste derivation.
///
/// Implementations provide the expected rework per failure and the optimal
/// checkpoint period; everything else (the phase formula, the per-protocol
/// predictions, the weak-scaling evaluation) is generic over this trait —
/// see [`crate::model::phase::checkpointed_phase_with`] and the
/// `prediction_with` entry points of [`crate::model::pure`],
/// [`crate::model::bi`] and [`crate::model::composite`].
pub trait WasteModel {
    /// Human-readable label of the model (used in sweep output).
    fn label(&self) -> String;

    /// Expected work lost to one failure striking within a protection window
    /// of `extent` seconds (the time since the last durable state), on a
    /// platform of MTBF `mtbf`.
    fn expected_rework(&self, extent: f64, mtbf: f64) -> f64;

    /// The optimal checkpoint period for periodic checkpoints of cost
    /// `checkpoint_cost`: the period balancing checkpoint overhead against
    /// the expected rework, `C/P = rework(P)/(µ − D − R)`.
    ///
    /// Errors when `µ ≤ D + R` (no period can help).
    fn optimal_period(
        &self,
        checkpoint_cost: f64,
        mtbf: f64,
        downtime: f64,
        recovery_cost: f64,
    ) -> Result<f64>;

    /// First-order waste of periodic checkpointing at an arbitrary period
    /// under this model's rework law:
    /// `1 − (1 − C/P)(1 − (D + R + rework(P))/µ)`.
    ///
    /// The exponential instance reproduces
    /// [`crate::young_daly::waste_at_period`]; the Weibull instance is the
    /// period-sensitivity curve a shape-`k` clock actually induces.
    fn waste_at_period(
        &self,
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
            * (1.0 - (downtime + recovery_cost + self.expected_rework(period, mtbf)) / mtbf);
        Ok(1.0 - x)
    }
}

/// The paper's first-order exponential waste model (Equations (9)–(12)):
/// `E[lost work] = extent/2`, `P_opt = √(2C(µ − D − R))`.
///
/// This is the exact historical code path — the generic machinery
/// instantiated with this model is bit-identical to the pre-refactor
/// formulas (guarded by the engine-regression and scaling tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FirstOrderExponential;

impl WasteModel for FirstOrderExponential {
    fn label(&self) -> String {
        "first-order(exponential)".to_string()
    }

    #[inline]
    fn expected_rework(&self, extent: f64, _mtbf: f64) -> f64 {
        extent / 2.0
    }

    #[inline]
    fn optimal_period(
        &self,
        checkpoint_cost: f64,
        mtbf: f64,
        downtime: f64,
        recovery_cost: f64,
    ) -> Result<f64> {
        paper_optimal_period(checkpoint_cost, mtbf, downtime, recovery_cost)
    }
}

/// The Weibull-corrected first-order waste model for a shape-`k` failure
/// clock calibrated to the platform MTBF (`λ = µ/Γ(1 + 1/k)`).
///
/// The exponential derivation loses `extent/2` per failure because a
/// memoryless failure falls uniformly inside the window it interrupts.
/// Under a Weibull clock the failure *age* within the window follows the
/// inter-arrival law conditioned below the window extent **when the window
/// starts at a clock renewal** — i.e. when the interrupting failure is the
/// first arrival after the previous one.  That happens with probability
/// `F_k(τ)`; otherwise the strike lands deep into the clock's life where
/// the hazard is locally flat and the strike age is near-uniform, giving
/// `τ/2` back.  The model therefore blends the conditional mean
/// `E_k[X | X ≤ τ]` (an incomplete-Gamma moment) with `τ/2` on exactly
/// those weights and applies the blend as a ratio against the same
/// expression at `k = 1`:
///
/// ```text
/// rework_k(τ) = (τ/2) · blend_k(τ) / blend₁(τ),
/// blend_k(τ) = F_k(τ)·E_k[X | X ≤ τ] + (1 − F_k(τ))·τ/2
/// ```
///
/// which keeps the `k = 1` limit an *exact identity* (the ratio is `x/x`)
/// rather than an approximation: at `k = 1` every prediction is bit-equal to
/// [`FirstOrderExponential`]'s.  For `k < 1` the ratio is below one
/// (clustered failures strike early and destroy little), for `k > 1` above
/// one — matching the direction the simulation measures.  The unblended
/// ratio `E_k/E₁` overshoots for wear-out clocks (−0.040 waste versus the
/// simulation at `k = 1.5` on the Figure-7 base point); the `F_k(τ)`
/// weighting removes the overshoot while leaving the bursty regime's
/// correction intact.
///
/// The corrected optimal period solves the balance condition
/// `C/P = rework_k(P) / (µ − D − R)` (the generalisation of Equation (11),
/// which it reduces to at `k = 1`) by damped fixed-point iteration seeded
/// from the exponential period.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeibullCorrected {
    shape: f64,
}

impl WeibullCorrected {
    /// Creates the model for a shape-`k` Weibull clock.
    pub fn new(shape: f64) -> Result<Self> {
        ensure_positive("shape", shape)?;
        if !shape.is_finite() {
            return Err(ModelError::OutsideValidityDomain {
                what: "Weibull shape must be finite",
            });
        }
        Ok(Self { shape })
    }

    /// The shape parameter `k`.
    #[inline]
    pub fn shape(&self) -> f64 {
        self.shape
    }

    /// The blended conditional-age rework term for one shape: the
    /// conditional mean `E_k[X | X ≤ τ]` weighted by `F_k(τ)` — the
    /// probability that the *first* arrival of a freshly renewed clock falls
    /// inside the window — blended with the uniform-strike value `τ/2` on
    /// the complementary weight.  Failures that are not the first arrival
    /// after a renewal strike far from the clock origin, where the Weibull
    /// hazard is locally flat and the strike age is near-uniform; weighting
    /// the shape-sensitive moment by exactly the first-arrival mass keeps
    /// the bursty correction and removes the wear-out overshoot the pure
    /// conditional-age ratio exhibits (≈ −0.040 waste at `k = 1.5`).
    fn blended_rework(shape: f64, extent: f64, mtbf: f64) -> f64 {
        let spec = FailureSpec::Weibull { shape };
        let in_window = spec.cdf(mtbf, extent);
        let conditional = spec.conditional_mean_below(mtbf, extent);
        in_window * conditional + (1.0 - in_window) * (extent / 2.0)
    }

    /// The blended conditional-age ratio
    ///
    /// ```text
    /// F_k(τ)·E_k[X|X≤τ] + (1 − F_k(τ))·τ/2
    /// ─────────────────────────────────────
    /// F₁(τ)·E₁[X|X≤τ] + (1 − F₁(τ))·τ/2
    /// ```
    ///
    /// — the multiplicative correction on the exponential `τ/2` rework.
    /// Exactly `1` at `k = 1` (numerator and denominator are the same
    /// expression, so the ratio is literally `x/x`).
    pub fn rework_ratio(&self, extent: f64, mtbf: f64) -> f64 {
        if extent <= 0.0 {
            return 1.0;
        }
        let ours = Self::blended_rework(self.shape, extent, mtbf);
        let exponential = Self::blended_rework(1.0, extent, mtbf);
        if exponential > 0.0 && ours.is_finite() {
            ours / exponential
        } else {
            1.0
        }
    }
}

impl WasteModel for WeibullCorrected {
    fn label(&self) -> String {
        format!("weibull-corrected(k={})", self.shape)
    }

    #[inline]
    fn expected_rework(&self, extent: f64, mtbf: f64) -> f64 {
        (extent / 2.0) * self.rework_ratio(extent, mtbf)
    }

    fn optimal_period(
        &self,
        checkpoint_cost: f64,
        mtbf: f64,
        downtime: f64,
        recovery_cost: f64,
    ) -> Result<f64> {
        // Seed from the exponential period (also validates the domain).
        let mut period = paper_optimal_period(checkpoint_cost, mtbf, downtime, recovery_cost)?;
        let effective = mtbf - downtime - recovery_cost;
        // Fixed point of P = √(2 C (µ−D−R) · s(P)) with
        // s(P) = (P/2) / rework(P) = 1/ratio(P).  At k = 1 the scale factor
        // is exactly 1.0 and the first iterate returns the seed unchanged.
        for _ in 0..100 {
            let rework = self.expected_rework(period, mtbf);
            if rework <= 0.0 || rework.is_nan() {
                break;
            }
            let scale = (period / 2.0) / rework;
            let next = (2.0 * checkpoint_cost * effective * scale).sqrt();
            if !next.is_finite() || next <= 0.0 {
                break;
            }
            let converged = (next - period).abs() <= 1e-13 * period;
            period = next;
            if converged {
                break;
            }
        }
        Ok(period)
    }
}

/// Enum dispatch over the two waste models, mirroring
/// [`ft_platform::failure::AnyFailureModel`] on the analytic side.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AnyWasteModel {
    /// The paper's exponential first-order formulas.
    FirstOrder(FirstOrderExponential),
    /// The Weibull-corrected formulas for a shape-`k` clock.
    Weibull(WeibullCorrected),
    /// The **fallback** arm for a lognormal clock: no lognormal-corrected
    /// analytic derivation exists yet, so predictions reuse the exponential
    /// first-order formulas at the matched MTBF.  The arm exists (rather
    /// than mapping to `FirstOrder`) so the gap is *surfaced* — the label
    /// names the approximation, and `tests/lognormal_model.rs` measures the
    /// model-versus-simulation gap it causes instead of hiding it.
    LognormalFallback {
        /// The σ of the lognormal clock the fallback stands in for.
        sigma: f64,
    },
}

impl AnyWasteModel {
    /// The analytic model matching a declarative failure spec — the single
    /// dispatch point that keeps the model arm and the simulation clock of a
    /// sweep on one failure description.
    pub fn from_spec(spec: FailureSpec) -> Result<AnyWasteModel> {
        match spec {
            FailureSpec::Exponential => Ok(AnyWasteModel::FirstOrder(FirstOrderExponential)),
            FailureSpec::Weibull { shape } => {
                Ok(AnyWasteModel::Weibull(WeibullCorrected::new(shape)?))
            }
            FailureSpec::LogNormal { sigma } => {
                ensure_positive("sigma", sigma)?;
                Ok(AnyWasteModel::LognormalFallback { sigma })
            }
        }
    }

    /// The paper's exponential first-order model.
    pub fn first_order() -> AnyWasteModel {
        AnyWasteModel::FirstOrder(FirstOrderExponential)
    }
}

impl Default for AnyWasteModel {
    fn default() -> Self {
        Self::first_order()
    }
}

impl WasteModel for AnyWasteModel {
    fn label(&self) -> String {
        match self {
            AnyWasteModel::FirstOrder(m) => m.label(),
            AnyWasteModel::Weibull(m) => m.label(),
            AnyWasteModel::LognormalFallback { sigma } => {
                format!("first-order(exponential fallback for lognormal(sigma={sigma}))")
            }
        }
    }

    #[inline]
    fn expected_rework(&self, extent: f64, mtbf: f64) -> f64 {
        match self {
            AnyWasteModel::FirstOrder(m) => m.expected_rework(extent, mtbf),
            AnyWasteModel::Weibull(m) => m.expected_rework(extent, mtbf),
            AnyWasteModel::LognormalFallback { .. } => {
                FirstOrderExponential.expected_rework(extent, mtbf)
            }
        }
    }

    #[inline]
    fn optimal_period(
        &self,
        checkpoint_cost: f64,
        mtbf: f64,
        downtime: f64,
        recovery_cost: f64,
    ) -> Result<f64> {
        match self {
            AnyWasteModel::FirstOrder(m) => {
                m.optimal_period(checkpoint_cost, mtbf, downtime, recovery_cost)
            }
            AnyWasteModel::Weibull(m) => {
                m.optimal_period(checkpoint_cost, mtbf, downtime, recovery_cost)
            }
            AnyWasteModel::LognormalFallback { .. } => {
                FirstOrderExponential.optimal_period(checkpoint_cost, mtbf, downtime, recovery_cost)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::young_daly::{paper_optimal_period, waste_at_period};
    use ft_platform::units::{hours, minutes};

    #[test]
    fn first_order_reproduces_the_paper_formulas() {
        let m = FirstOrderExponential;
        assert_eq!(m.expected_rework(100.0, 7200.0).to_bits(), 50.0f64.to_bits());
        let (c, mu, d, r) = (minutes(10.0), hours(2.0), minutes(1.0), minutes(10.0));
        assert_eq!(
            m.optimal_period(c, mu, d, r).unwrap().to_bits(),
            paper_optimal_period(c, mu, d, r).unwrap().to_bits()
        );
        let p = m.optimal_period(c, mu, d, r).unwrap();
        assert_eq!(
            m.waste_at_period(p, c, mu, d, r).unwrap().to_bits(),
            waste_at_period(p, c, mu, d, r).unwrap().to_bits()
        );
    }

    #[test]
    fn weibull_at_shape_one_is_bit_identical_to_first_order() {
        let w = WeibullCorrected::new(1.0).unwrap();
        let e = FirstOrderExponential;
        let (c, mu, d, r) = (minutes(10.0), hours(2.0), minutes(1.0), minutes(10.0));
        for extent in [30.0, 600.0, 2_801.0, 50_000.0] {
            assert_eq!(
                w.expected_rework(extent, mu).to_bits(),
                e.expected_rework(extent, mu).to_bits(),
                "extent {extent}"
            );
        }
        assert_eq!(
            w.optimal_period(c, mu, d, r).unwrap().to_bits(),
            e.optimal_period(c, mu, d, r).unwrap().to_bits()
        );
        let p = e.optimal_period(c, mu, d, r).unwrap();
        assert_eq!(
            w.waste_at_period(p, c, mu, d, r).unwrap().to_bits(),
            e.waste_at_period(p, c, mu, d, r).unwrap().to_bits()
        );
    }

    #[test]
    fn bursty_shapes_lose_less_work_per_failure_and_checkpoint_less_often() {
        let mu = hours(2.0);
        let (c, d, r) = (minutes(10.0), minutes(1.0), minutes(10.0));
        let exponential = FirstOrderExponential;
        let p1 = exponential.optimal_period(c, mu, d, r).unwrap();
        let mut previous_ratio = 0.0;
        for shape in [0.5, 0.7, 0.9] {
            let w = WeibullCorrected::new(shape).unwrap();
            let ratio = w.rework_ratio(p1, mu);
            assert!(
                ratio > previous_ratio && ratio < 1.0,
                "shape {shape}: ratio {ratio}"
            );
            previous_ratio = ratio;
            // Less rework per failure → longer corrected period.
            let pk = w.optimal_period(c, mu, d, r).unwrap();
            assert!(pk > p1, "shape {shape}: {pk} !> {p1}");
            // And the corrected period beats the exponential period under
            // the corrected waste law (it is that law's optimiser).
            let at_corrected = w.waste_at_period(pk, c, mu, d, r).unwrap();
            let at_exponential = w.waste_at_period(p1, c, mu, d, r).unwrap();
            assert!(at_corrected <= at_exponential + 1e-12);
        }
        // Wear-out shapes go the other way.
        let w = WeibullCorrected::new(2.0).unwrap();
        assert!(w.rework_ratio(p1, mu) > 1.0);
        assert!(w.optimal_period(c, mu, d, r).unwrap() < p1);
    }

    #[test]
    fn wear_out_blend_dampens_the_pure_conditional_age_ratio() {
        // The regression the blend exists for: for k > 1 the unblended
        // ratio E_k/E₁ over-corrects (−0.040 waste at k = 1.5 versus the
        // simulation), so the blended ratio must sit strictly between 1 and
        // the unblended value.  For k < 1 the bursty correction must
        // survive the blend (ratio still well below 1).
        let mu = hours(2.0);
        let pure_ratio = |shape: f64, tau: f64| {
            FailureSpec::Weibull { shape }.conditional_mean_below(mu, tau)
                / FailureSpec::Weibull { shape: 1.0 }.conditional_mean_below(mu, tau)
        };
        for tau in [600.0, 2_801.0, 7_200.0] {
            for shape in [1.3, 1.5, 2.0] {
                let w = WeibullCorrected::new(shape).unwrap();
                let blended = w.rework_ratio(tau, mu);
                let pure = pure_ratio(shape, tau);
                assert!(
                    1.0 < blended && blended < pure,
                    "k={shape} tau={tau}: blended {blended} vs pure {pure}"
                );
            }
            for shape in [0.5, 0.7] {
                let w = WeibullCorrected::new(shape).unwrap();
                let blended = w.rework_ratio(tau, mu);
                let pure = pure_ratio(shape, tau);
                assert!(
                    pure < blended && blended < 1.0,
                    "k={shape} tau={tau}: blended {blended} vs pure {pure}"
                );
            }
        }
    }

    #[test]
    fn corrected_period_solves_the_balance_condition() {
        let mu = hours(2.0);
        let (c, d, r) = (minutes(10.0), minutes(1.0), minutes(10.0));
        for shape in [0.5, 0.7, 1.3, 2.0] {
            let w = WeibullCorrected::new(shape).unwrap();
            let p = w.optimal_period(c, mu, d, r).unwrap();
            // C/P = rework(P) / (µ − D − R) at the fixed point.
            let lhs = c / p;
            let rhs = w.expected_rework(p, mu) / (mu - d - r);
            assert!(
                (lhs - rhs).abs() / lhs < 1e-9,
                "shape {shape}: {lhs} vs {rhs}"
            );
        }
    }

    #[test]
    fn model_validity_domain_matches_the_paper() {
        let w = WeibullCorrected::new(0.7).unwrap();
        assert!(w.optimal_period(600.0, 500.0, 60.0, 600.0).is_err());
        assert!(WeibullCorrected::new(0.0).is_err());
        assert!(WeibullCorrected::new(-1.0).is_err());
        assert!(WeibullCorrected::new(f64::INFINITY).is_err());
    }

    #[test]
    fn spec_dispatch_matches_the_families() {
        let exp = AnyWasteModel::from_spec(FailureSpec::Exponential).unwrap();
        assert!(matches!(exp, AnyWasteModel::FirstOrder(_)));
        assert_eq!(exp.label(), "first-order(exponential)");
        let weibull = AnyWasteModel::from_spec(FailureSpec::Weibull { shape: 0.7 }).unwrap();
        assert!(matches!(weibull, AnyWasteModel::Weibull(_)));
        assert_eq!(weibull.label(), "weibull-corrected(k=0.7)");
        assert!(AnyWasteModel::from_spec(FailureSpec::Weibull { shape: 0.0 }).is_err());
        assert_eq!(AnyWasteModel::default(), AnyWasteModel::first_order());
        // The lognormal arm is an *explicit* exponential fallback: numerically
        // identical to first-order, but labelled so the gap is visible.
        let lognormal = AnyWasteModel::from_spec(FailureSpec::LogNormal { sigma: 0.9 }).unwrap();
        assert!(matches!(lognormal, AnyWasteModel::LognormalFallback { .. }));
        assert_eq!(
            lognormal.label(),
            "first-order(exponential fallback for lognormal(sigma=0.9))"
        );
        let mu_ln = hours(2.0);
        assert_eq!(
            lognormal.expected_rework(1_000.0, mu_ln).to_bits(),
            FirstOrderExponential.expected_rework(1_000.0, mu_ln).to_bits()
        );
        assert_eq!(
            lognormal
                .optimal_period(600.0, mu_ln, 60.0, 600.0)
                .unwrap()
                .to_bits(),
            FirstOrderExponential
                .optimal_period(600.0, mu_ln, 60.0, 600.0)
                .unwrap()
                .to_bits()
        );
        assert!(AnyWasteModel::from_spec(FailureSpec::LogNormal { sigma: 0.0 }).is_err());
        // Enum dispatch forwards to the concrete impls.
        let mu = hours(2.0);
        let bare = WeibullCorrected::new(0.7).unwrap();
        assert_eq!(
            weibull.expected_rework(1_000.0, mu).to_bits(),
            bare.expected_rework(1_000.0, mu).to_bits()
        );
        assert_eq!(
            weibull
                .optimal_period(600.0, mu, 60.0, 600.0)
                .unwrap()
                .to_bits(),
            bare.optimal_period(600.0, mu, 60.0, 600.0).unwrap().to_bits()
        );
    }

    #[test]
    fn rework_stays_physical() {
        // 0 < rework(τ) < τ for every model and τ, and degenerate extents
        // are safe.
        let mu = hours(2.0);
        for shape in [0.5, 1.0, 2.0] {
            let w = WeibullCorrected::new(shape).unwrap();
            for tau in [1e-6, 1.0, 600.0, 7200.0, 1e6] {
                let rework = w.expected_rework(tau, mu);
                assert!(rework > 0.0 && rework < tau, "k={shape} tau={tau}: {rework}");
            }
            assert_eq!(w.expected_rework(0.0, mu), 0.0);
            assert_eq!(w.rework_ratio(0.0, mu), 1.0);
        }
    }
}
