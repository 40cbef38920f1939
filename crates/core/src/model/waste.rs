//! The waste metric and per-protocol predictions.

/// The waste of a protocol: the fraction of platform time that does not
/// progress the application (Equation 12: `WASTE = 1 − T_0 / T_final`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Waste {
    base_time: f64,
    final_time: f64,
}

impl Waste {
    /// Builds a waste value from the failure-free application time `T_0` and
    /// the expected final time `T_final`.
    pub fn from_times(base_time: f64, final_time: f64) -> Self {
        Self {
            base_time,
            final_time,
        }
    }

    /// The waste value in `[0, 1)`.
    #[inline]
    pub fn value(&self) -> f64 {
        (1.0 - self.base_time / self.final_time).max(0.0)
    }

    /// The waste as a percentage.
    #[inline]
    pub fn percent(&self) -> f64 {
        self.value() * 100.0
    }

    /// The failure-free application time `T_0`.
    #[inline]
    pub fn base_time(&self) -> f64 {
        self.base_time
    }

    /// The expected final execution time `T_final`.
    #[inline]
    pub fn final_time(&self) -> f64 {
        self.final_time
    }
}

/// A full prediction for one protocol on one epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prediction {
    /// Expected execution time of the GENERAL phase (including overheads).
    pub general_final_time: f64,
    /// Expected execution time of the LIBRARY phase (including overheads).
    pub library_final_time: f64,
    /// The waste of the whole epoch.
    pub waste: Waste,
    /// Optimal checkpoint period used during the GENERAL phase, when the
    /// periodic regime applies.
    pub general_period: Option<f64>,
    /// Optimal checkpoint period used during the LIBRARY phase
    /// (BiPeriodicCkpt only).
    pub library_period: Option<f64>,
    /// Expected number of failures over the epoch (`T_final / µ`).
    pub expected_failures: f64,
}

impl Prediction {
    /// Total expected execution time.
    #[inline]
    pub fn final_time(&self) -> f64 {
        self.general_final_time + self.library_final_time
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waste_basic_arithmetic() {
        let w = Waste::from_times(100.0, 125.0);
        assert!((w.value() - 0.2).abs() < 1e-12);
        assert!((w.percent() - 20.0).abs() < 1e-9);
        assert_eq!(w.base_time(), 100.0);
        assert_eq!(w.final_time(), 125.0);
    }

    #[test]
    fn waste_clamps_at_zero() {
        // A final time below the base time (impossible in the model, possible
        // from noisy simulation averages) must not produce a negative waste.
        let w = Waste::from_times(100.0, 99.9);
        assert_eq!(w.value(), 0.0);
    }

    #[test]
    fn prediction_total_time() {
        let p = Prediction {
            general_final_time: 40.0,
            library_final_time: 80.0,
            waste: Waste::from_times(100.0, 120.0),
            general_period: Some(10.0),
            library_period: None,
            expected_failures: 1.5,
        };
        assert_eq!(p.final_time(), 120.0);
    }
}
