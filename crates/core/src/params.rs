//! Model parameters (Section IV-A of the paper).
//!
//! One [`ModelParams`] value describes a single *epoch*: a GENERAL phase of
//! duration `T_G = (1 − α) T_0` followed by a LIBRARY phase of duration
//! `T_L = α T_0`, executed on a platform of MTBF `µ`, protected by
//! checkpoints of cost `C` (split into `C_L = ρC` and `C_L̄ = (1 − ρ)C`),
//! recovery cost `R`, downtime `D`, with ABFT overhead `φ` and ABFT
//! reconstruction time `Recons_ABFT`.

use crate::error::{ensure_fraction, ensure_non_negative, ensure_positive, ModelError, Result};

/// All parameters of the analytical model, for one epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelParams {
    /// Failure-free epoch duration `T_0 = T_G + T_L` (seconds).
    pub epoch_duration: f64,
    /// Fraction `α` of the epoch spent in the LIBRARY phase.
    pub alpha: f64,
    /// Full-footprint checkpoint cost `C` (seconds).
    pub checkpoint_cost: f64,
    /// Rollback/reload cost `R` for the full footprint (seconds).
    pub recovery_cost: f64,
    /// Downtime `D`: time to reboot or swap in a spare (seconds).
    pub downtime: f64,
    /// Fraction `ρ` of the memory footprint touched by the LIBRARY phase.
    pub rho: f64,
    /// ABFT slowdown factor `φ ≥ 1`.
    pub phi: f64,
    /// ABFT reconstruction time `Recons_ABFT` (seconds).
    pub abft_reconstruction: f64,
    /// Platform MTBF `µ` (seconds).
    pub platform_mtbf: f64,
}

impl ModelParams {
    /// Starts building a parameter set.
    pub fn builder() -> ModelParamsBuilder {
        ModelParamsBuilder::default()
    }

    /// The parameters of the paper's headline scenario (Section V-A,
    /// Figure 7): one-week epoch, `C = R = 10` min, `D = 1` min, `ρ = 0.8`,
    /// `φ = 1.03`, `Recons_ABFT = 2` s.  `alpha` and the MTBF are the two
    /// swept quantities, so they are taken as arguments.
    pub fn paper_figure7(alpha: f64, mtbf: f64) -> Result<Self> {
        Self::builder()
            .epoch_duration(ft_platform::units::weeks(1.0))
            .alpha(alpha)
            .checkpoint_cost(ft_platform::units::minutes(10.0))
            .recovery_cost(ft_platform::units::minutes(10.0))
            .downtime(ft_platform::units::minutes(1.0))
            .rho(0.8)
            .phi(1.03)
            .abft_reconstruction(2.0)
            .platform_mtbf(mtbf)
            .build()
    }

    /// GENERAL-phase duration `T_G = (1 − α) T_0`.
    #[inline]
    pub fn general_duration(&self) -> f64 {
        (1.0 - self.alpha) * self.epoch_duration
    }

    /// LIBRARY-phase duration `T_L = α T_0`.
    #[inline]
    pub fn library_duration(&self) -> f64 {
        self.alpha * self.epoch_duration
    }

    /// LIBRARY-dataset checkpoint cost `C_L = ρ C`.
    #[inline]
    pub fn checkpoint_cost_library(&self) -> f64 {
        self.rho * self.checkpoint_cost
    }

    /// REMAINDER-dataset checkpoint cost `C_L̄ = (1 − ρ) C`.
    #[inline]
    pub fn checkpoint_cost_remainder(&self) -> f64 {
        (1.0 - self.rho) * self.checkpoint_cost
    }

    /// REMAINDER-dataset reload cost `R_L̄`; the paper takes it proportional
    /// to the data reloaded, i.e. `(1 − ρ) R`.
    #[inline]
    pub fn recovery_cost_remainder(&self) -> f64 {
        (1.0 - self.rho) * self.recovery_cost
    }

    /// Returns a copy with a different `alpha`.
    pub fn with_alpha(mut self, alpha: f64) -> Result<Self> {
        ensure_fraction("alpha", alpha)?;
        self.alpha = alpha;
        Ok(self)
    }

    /// Returns a copy with a different platform MTBF.
    pub fn with_mtbf(mut self, mtbf: f64) -> Result<Self> {
        ensure_positive("platform_mtbf", mtbf)?;
        self.validate_mtbf(mtbf)?;
        self.platform_mtbf = mtbf;
        Ok(self)
    }

    /// Returns a copy with a different LIBRARY-dataset fraction `ρ`.
    pub fn with_rho(mut self, rho: f64) -> Result<Self> {
        ensure_fraction("rho", rho)?;
        self.rho = rho;
        Ok(self)
    }

    /// Returns a copy with a different ABFT overhead factor `φ` (must be
    /// at least 1).
    pub fn with_phi(mut self, phi: f64) -> Result<Self> {
        if phi < 1.0 {
            return Err(ModelError::PhiBelowOne { value: phi });
        }
        self.phi = phi;
        Ok(self)
    }

    /// Returns a copy with different checkpoint *and* recovery costs
    /// (`C = R`, the paper's setting for every sweep of `C`).
    pub fn with_checkpoint_cost(mut self, cost: f64) -> Result<Self> {
        ensure_positive("checkpoint_cost", cost)?;
        self.checkpoint_cost = cost;
        self.recovery_cost = cost;
        self.validate_mtbf(self.platform_mtbf)?;
        Ok(self)
    }

    /// Returns a copy with a different downtime `D`.
    pub fn with_downtime(mut self, downtime: f64) -> Result<Self> {
        ensure_non_negative("downtime", downtime)?;
        self.downtime = downtime;
        self.validate_mtbf(self.platform_mtbf)?;
        Ok(self)
    }

    /// Returns a copy with a different ABFT reconstruction time.
    pub fn with_abft_reconstruction(mut self, recons: f64) -> Result<Self> {
        ensure_non_negative("abft_reconstruction", recons)?;
        self.abft_reconstruction = recons;
        Ok(self)
    }

    fn validate_mtbf(&self, mtbf: f64) -> Result<()> {
        let overheads = self.downtime + self.recovery_cost;
        if mtbf <= overheads {
            return Err(ModelError::MtbfTooSmall { mtbf, overheads });
        }
        Ok(())
    }
}

/// Builder for [`ModelParams`].
#[derive(Debug, Clone, Default)]
pub struct ModelParamsBuilder {
    epoch_duration: Option<f64>,
    alpha: Option<f64>,
    checkpoint_cost: Option<f64>,
    recovery_cost: Option<f64>,
    downtime: Option<f64>,
    rho: Option<f64>,
    phi: Option<f64>,
    abft_reconstruction: Option<f64>,
    platform_mtbf: Option<f64>,
}

impl ModelParamsBuilder {
    /// Sets the failure-free epoch duration `T_0` (seconds).
    pub fn epoch_duration(mut self, v: f64) -> Self {
        self.epoch_duration = Some(v);
        self
    }

    /// Sets the LIBRARY-phase fraction `α`.
    pub fn alpha(mut self, v: f64) -> Self {
        self.alpha = Some(v);
        self
    }

    /// Sets the full checkpoint cost `C` (seconds).
    pub fn checkpoint_cost(mut self, v: f64) -> Self {
        self.checkpoint_cost = Some(v);
        self
    }

    /// Sets the recovery cost `R` (seconds).
    pub fn recovery_cost(mut self, v: f64) -> Self {
        self.recovery_cost = Some(v);
        self
    }

    /// Sets the downtime `D` (seconds).
    pub fn downtime(mut self, v: f64) -> Self {
        self.downtime = Some(v);
        self
    }

    /// Sets the LIBRARY-dataset memory fraction `ρ`.
    pub fn rho(mut self, v: f64) -> Self {
        self.rho = Some(v);
        self
    }

    /// Sets the ABFT overhead factor `φ`.
    pub fn phi(mut self, v: f64) -> Self {
        self.phi = Some(v);
        self
    }

    /// Sets the ABFT reconstruction time `Recons_ABFT` (seconds).
    pub fn abft_reconstruction(mut self, v: f64) -> Self {
        self.abft_reconstruction = Some(v);
        self
    }

    /// Sets the platform MTBF `µ` (seconds).
    pub fn platform_mtbf(mut self, v: f64) -> Self {
        self.platform_mtbf = Some(v);
        self
    }

    /// Validates and builds the parameter set.
    pub fn build(self) -> Result<ModelParams> {
        fn req(name: &'static str, v: Option<f64>) -> Result<f64> {
            v.ok_or(ModelError::MissingParameter { name })
        }
        let params = ModelParams {
            epoch_duration: ensure_positive("epoch_duration", req("epoch_duration", self.epoch_duration)?)?,
            alpha: ensure_fraction("alpha", req("alpha", self.alpha)?)?,
            checkpoint_cost: ensure_positive("checkpoint_cost", req("checkpoint_cost", self.checkpoint_cost)?)?,
            recovery_cost: ensure_positive("recovery_cost", req("recovery_cost", self.recovery_cost)?)?,
            downtime: ensure_non_negative("downtime", req("downtime", self.downtime)?)?,
            rho: ensure_fraction("rho", req("rho", self.rho)?)?,
            phi: {
                let phi = req("phi", self.phi)?;
                if phi < 1.0 {
                    return Err(ModelError::PhiBelowOne { value: phi });
                }
                phi
            },
            abft_reconstruction: ensure_non_negative(
                "abft_reconstruction",
                req("abft_reconstruction", self.abft_reconstruction)?,
            )?,
            platform_mtbf: ensure_positive("platform_mtbf", req("platform_mtbf", self.platform_mtbf)?)?,
        };
        params.validate_mtbf(params.platform_mtbf)?;
        Ok(params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_platform::units::{minutes, weeks};

    #[test]
    fn paper_scenario_builds_and_derives() {
        let p = ModelParams::paper_figure7(0.8, minutes(120.0)).unwrap();
        assert_eq!(p.epoch_duration, weeks(1.0));
        assert!((p.library_duration() - 0.8 * weeks(1.0)).abs() < 1e-6);
        assert!((p.general_duration() - 0.2 * weeks(1.0)).abs() < 1e-6);
        assert!((p.checkpoint_cost_library() - minutes(8.0)).abs() < 1e-9);
        assert!((p.checkpoint_cost_remainder() - minutes(2.0)).abs() < 1e-9);
        assert!((p.recovery_cost_remainder() - minutes(2.0)).abs() < 1e-9);
    }

    #[test]
    fn builder_rejects_missing_and_invalid() {
        assert!(matches!(
            ModelParams::builder().build(),
            Err(ModelError::MissingParameter { name: "epoch_duration" })
        ));
        let base = || {
            ModelParams::builder()
                .epoch_duration(1000.0)
                .alpha(0.5)
                .checkpoint_cost(10.0)
                .recovery_cost(10.0)
                .downtime(1.0)
                .rho(0.8)
                .phi(1.03)
                .abft_reconstruction(2.0)
                .platform_mtbf(500.0)
        };
        assert!(base().build().is_ok());
        assert!(base().alpha(1.5).build().is_err());
        assert!(base().phi(0.9).build().is_err());
        assert!(base().rho(-0.1).build().is_err());
        assert!(base().checkpoint_cost(0.0).build().is_err());
        assert!(base().downtime(-1.0).build().is_err());
        // MTBF must dominate D + R.
        assert!(matches!(
            base().platform_mtbf(10.0).build(),
            Err(ModelError::MtbfTooSmall { .. })
        ));
    }

    #[test]
    fn with_alpha_and_with_mtbf_validate() {
        let p = ModelParams::paper_figure7(0.5, minutes(120.0)).unwrap();
        assert!(p.with_alpha(0.9).is_ok());
        assert!(p.with_alpha(1.2).is_err());
        assert!(p.with_mtbf(minutes(60.0)).is_ok());
        assert!(p.with_mtbf(minutes(5.0)).is_err());
    }

    #[test]
    fn the_remaining_with_helpers_validate_their_domains() {
        let p = ModelParams::paper_figure7(0.5, minutes(120.0)).unwrap();
        assert_eq!(p.with_rho(0.3).unwrap().rho, 0.3);
        assert!(p.with_rho(1.5).is_err());
        assert_eq!(p.with_phi(1.2).unwrap().phi, 1.2);
        assert!(p.with_phi(0.99).is_err());
        // C = R is set together, like every sweep of C in the paper.
        let cheap = p.with_checkpoint_cost(30.0).unwrap();
        assert_eq!(cheap.checkpoint_cost, 30.0);
        assert_eq!(cheap.recovery_cost, 30.0);
        assert!(p.with_checkpoint_cost(0.0).is_err());
        // A checkpoint cost that pushes D + R past the MTBF is rejected.
        assert!(p.with_checkpoint_cost(minutes(121.0)).is_err());
        assert_eq!(p.with_downtime(0.0).unwrap().downtime, 0.0);
        assert!(p.with_downtime(-1.0).is_err());
        assert_eq!(p.with_abft_reconstruction(9.0).unwrap().abft_reconstruction, 9.0);
        assert!(p.with_abft_reconstruction(-1.0).is_err());
    }

    #[test]
    fn degenerate_alpha_values_are_allowed() {
        let p0 = ModelParams::paper_figure7(0.0, minutes(100.0)).unwrap();
        assert_eq!(p0.library_duration(), 0.0);
        let p1 = ModelParams::paper_figure7(1.0, minutes(100.0)).unwrap();
        assert_eq!(p1.general_duration(), 0.0);
    }
}
