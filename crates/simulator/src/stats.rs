//! Streaming statistics (Welford) and confidence intervals.
//!
//! [`Welford`] is the **single** mean/variance implementation of the
//! workspace: replication and the sweep subsystem both
//! accumulate through it (directly or via [`OutcomeAccumulator`]) instead of
//! rolling their own sums.

use crate::protocols::SimOutcome;

/// Welford's online mean/variance accumulator.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Welford {
    count: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a sample.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Merges another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &Welford) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        self.mean = (self.mean * self.count as f64 + other.mean * other.count as f64) / total as f64;
        self.m2 += other.m2 + delta * delta * (self.count as f64 * other.count as f64) / total as f64;
        self.count = total;
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Standard error of the mean.
    pub fn std_error(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.std_dev() / (self.count as f64).sqrt()
        }
    }

    /// Half-width of the normal-approximation 95 % confidence interval of the
    /// mean.
    pub fn ci95_half_width(&self) -> f64 {
        1.96 * self.std_error()
    }
}

/// Streaming statistics over a batch of [`SimOutcome`]s: one [`Welford`]
/// accumulator per tracked quantity (waste, final time, failure count).
///
/// This is the only outcome aggregation in the workspace — the parallel
/// replication fold and the sequential per-point accumulation of the sweep
/// subsystem both push into it.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OutcomeAccumulator {
    /// Waste statistics.
    pub waste: Welford,
    /// Total-execution-time statistics.
    pub final_time: Welford,
    /// Failure-count statistics.
    pub failures: Welford,
}

impl OutcomeAccumulator {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one simulated outcome.
    pub fn push(&mut self, outcome: &SimOutcome) {
        self.waste.push(outcome.waste());
        self.final_time.push(outcome.final_time);
        self.failures.push(outcome.failures as f64);
    }

    /// Adds an **antithetic pair** of outcomes as a single sample: each
    /// tracked quantity records the pair average.
    ///
    /// The two halves of an antithetic pair are negatively correlated by
    /// construction, so pushing them separately would leave the reported
    /// variance (and the confidence intervals driving the adaptive budgets)
    /// blind to the variance reduction; the pair mean is one genuinely
    /// independent observation whose spread the Welford machinery estimates
    /// correctly.
    pub fn push_pair(&mut self, a: &SimOutcome, b: &SimOutcome) {
        self.waste.push((a.waste() + b.waste()) / 2.0);
        self.final_time.push((a.final_time + b.final_time) / 2.0);
        self.failures.push((a.failures + b.failures) as f64 / 2.0);
    }

    /// Merges another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &OutcomeAccumulator) {
        self.waste.merge(&other.waste);
        self.final_time.merge(&other.final_time);
        self.failures.merge(&other.failures);
    }

    /// Number of outcomes accumulated.
    pub fn count(&self) -> u64 {
        self.waste.count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance_match_direct_computation() {
        let samples = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut w = Welford::new();
        for &s in &samples {
            w.push(s);
        }
        assert_eq!(w.count(), 8);
        assert!((w.mean() - 5.0).abs() < 1e-12);
        // Unbiased variance of that classic sample is 32/7.
        assert!((w.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert!(w.ci95_half_width() > 0.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let samples: Vec<f64> = (0..1000).map(|i| (i as f64 * 0.37).sin() * 10.0).collect();
        let mut whole = Welford::new();
        for &s in &samples {
            whole.push(s);
        }
        let mut a = Welford::new();
        let mut b = Welford::new();
        for (i, &s) in samples.iter().enumerate() {
            if i % 2 == 0 {
                a.push(s);
            } else {
                b.push(s);
            }
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
    }

    #[test]
    fn degenerate_cases() {
        let mut w = Welford::new();
        assert_eq!(w.count(), 0);
        assert_eq!(w.variance(), 0.0);
        assert_eq!(w.std_error(), 0.0);
        w.push(3.0);
        assert_eq!(w.mean(), 3.0);
        assert_eq!(w.variance(), 0.0);
        let empty = Welford::new();
        let mut other = Welford::new();
        other.push(1.0);
        other.merge(&empty);
        assert_eq!(other.count(), 1);
        let mut from_empty = Welford::new();
        from_empty.merge(&other);
        assert_eq!(from_empty.count(), 1);
        assert_eq!(from_empty.mean(), 1.0);
    }

    #[test]
    fn outcome_accumulator_tracks_all_three_quantities() {
        let mut acc = OutcomeAccumulator::new();
        acc.push(&SimOutcome {
            final_time: 200.0,
            base_time: 100.0,
            failures: 3,
        });
        acc.push(&SimOutcome {
            final_time: 100.0,
            base_time: 100.0,
            failures: 0,
        });
        assert_eq!(acc.count(), 2);
        assert!((acc.waste.mean() - 0.25).abs() < 1e-12);
        assert!((acc.final_time.mean() - 150.0).abs() < 1e-12);
        assert!((acc.failures.mean() - 1.5).abs() < 1e-12);

        // Merging two accumulators equals pushing everything into one.
        let mut a = OutcomeAccumulator::new();
        let mut b = OutcomeAccumulator::new();
        let outs = [
            SimOutcome { final_time: 120.0, base_time: 100.0, failures: 1 },
            SimOutcome { final_time: 130.0, base_time: 100.0, failures: 2 },
            SimOutcome { final_time: 140.0, base_time: 100.0, failures: 3 },
        ];
        let mut whole = OutcomeAccumulator::new();
        for (i, o) in outs.iter().enumerate() {
            whole.push(o);
            if i % 2 == 0 {
                a.push(o);
            } else {
                b.push(o);
            }
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.waste.mean() - whole.waste.mean()).abs() < 1e-12);
        assert!((a.final_time.variance() - whole.final_time.variance()).abs() < 1e-9);
    }
}
