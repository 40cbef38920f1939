//! The simulation clock: failure arrivals and interruptible activities.
//!
//! Failure times come from a pluggable [`FailureSource`]: either a
//! [`FailureStream`] — the allocation-free absolute-time sampler over a
//! [`FailureModel`] (exponential for the paper, Weibull for robustness
//! studies) — or a [`ft_platform::trace::TraceCursor`] replaying a recorded
//! [`ft_platform::trace::TraceBuffer`], which is how the replication fast
//! path shows the **same** failure sequence to every protocol (common
//! random numbers) — or one lane of a batch failure source, which is how
//! the batch engine's slow path reruns an interrupted lane on this very
//! clock ([`SimClock::resume`] over the lane's state).  Either way,
//! simulating an execution allocates nothing on the failure path.

use ft_platform::failure::{ExponentialFailures, FailureModel, FailureSource, FailureStream};

/// Outcome of attempting an activity on the clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ActivityResult {
    /// The activity ran to completion without a failure.
    Completed,
    /// A failure struck after `progress` seconds of the activity.
    Interrupted {
        /// How much of the activity had been performed when the failure hit.
        progress: f64,
    },
}

impl ActivityResult {
    /// Whether the activity completed.
    pub fn is_completed(&self) -> bool {
        matches!(self, ActivityResult::Completed)
    }
}

/// Simulation clock drawing failure arrivals from a [`FailureSource`]
/// (a freshly-seeded exponential stream by default).
///
/// Failures keep arriving during *any* activity — work, checkpoints,
/// recoveries, downtime — which is precisely what the closed-form model
/// neglects and the simulator must capture.
#[derive(Debug, Clone)]
pub struct SimClock<F: FailureSource = FailureStream<ExponentialFailures>> {
    now: f64,
    next_failure: f64,
    source: F,
    failures: usize,
}

impl SimClock<FailureStream<ExponentialFailures>> {
    /// Creates a clock with exponential failures of the given platform MTBF
    /// (seconds), seeded deterministically.
    pub fn new(mtbf: f64, seed: u64) -> Self {
        let model = ExponentialFailures::new(mtbf).expect("positive MTBF");
        Self::with_model(model, seed)
    }
}

impl<M: FailureModel> SimClock<FailureStream<M>> {
    /// Creates a clock over an arbitrary failure inter-arrival model, seeded
    /// deterministically.
    pub fn with_model(model: M, seed: u64) -> Self {
        Self::with_source(FailureStream::new(model, seed))
    }
}

impl<F: FailureSource> SimClock<F> {
    /// Creates a clock over an arbitrary failure-time source — a fresh
    /// stream, or a trace cursor replaying a shared failure sequence.
    pub fn with_source(mut source: F) -> Self {
        let first = source.next_failure();
        Self {
            now: 0.0,
            next_failure: first,
            source,
            failures: 0,
        }
    }

    /// Reconstructs a clock mid-run from crash-resume snapshot state.
    ///
    /// Unlike [`SimClock::with_source`], **no** failure is drawn: `source`
    /// must already be positioned exactly past the draws the snapshotted
    /// clock had consumed (a clock that counted `failures` interrupts has
    /// consumed `failures + 1` draws — the initial one plus one per
    /// interrupt), and `next_failure` is the pending arrival recorded at
    /// snapshot time.  With a replayable source (a
    /// [`ft_platform::trace::TraceBuffer`] cursor positioned with
    /// `cursor_at(failures + 1)`), the resumed clock is bit-identical to the
    /// uninterrupted one from the snapshot point onwards.
    pub fn resume(source: F, now: f64, next_failure: f64, failures: usize) -> Self {
        Self {
            now,
            next_failure,
            source,
            failures,
        }
    }

    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Absolute time of the next failure the clock will deliver — part of
    /// the crash-resume snapshot (see [`SimClock::resume`]).
    #[inline]
    pub fn next_failure_time(&self) -> f64 {
        self.next_failure
    }

    /// Number of failures that struck so far.
    #[inline]
    pub fn failures(&self) -> usize {
        self.failures
    }

    /// The mean inter-arrival time of the failure source (the platform MTBF).
    #[inline]
    pub fn mtbf(&self) -> f64 {
        self.source.mean_interarrival()
    }

    /// Attempts to run an activity of the given duration.  Advances the clock
    /// either to the end of the activity or to the failure that interrupts
    /// it (in which case the next failure is drawn).
    #[inline]
    pub fn try_run(&mut self, duration: f64) -> ActivityResult {
        if duration <= 0.0 {
            return ActivityResult::Completed;
        }
        if self.now + duration < self.next_failure {
            self.now += duration;
            ActivityResult::Completed
        } else {
            let progress = (self.next_failure - self.now).max(0.0);
            self.now = self.next_failure;
            self.failures += 1;
            self.next_failure = self.source.next_failure();
            ActivityResult::Interrupted { progress }
        }
    }

    /// Runs an activity that is *restarted from scratch* every time a failure
    /// interrupts it (e.g. downtime + reload): loops until one full attempt
    /// completes, accumulating all the wasted attempts on the clock.
    pub fn run_restartable(&mut self, duration: f64) {
        while !self.try_run(duration).is_completed() {}
    }

    /// Performs a classic rollback recovery: downtime `d` followed by a
    /// reload of cost `r`.  A failure during either part restarts the whole
    /// recovery (the freshly restarted process is hit again).
    pub fn recover(&mut self, d: f64, r: f64) {
        loop {
            if self.try_run(d).is_completed() && self.try_run(r).is_completed() {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_platform::failure::WeibullFailures;

    #[test]
    fn failure_free_when_mtbf_is_huge() {
        let mut clock = SimClock::new(1e15, 1);
        for _ in 0..100 {
            assert!(clock.try_run(1000.0).is_completed());
        }
        assert_eq!(clock.failures(), 0);
        assert!((clock.now() - 100_000.0).abs() < 1e-6);
    }

    #[test]
    fn failures_interrupt_and_advance_to_failure_time() {
        let mut clock = SimClock::new(50.0, 7);
        let mut interrupted = 0;
        let mut completed = 0;
        for _ in 0..1_000 {
            match clock.try_run(25.0) {
                ActivityResult::Completed => completed += 1,
                ActivityResult::Interrupted { progress } => {
                    assert!((0.0..=25.0).contains(&progress));
                    interrupted += 1;
                }
            }
        }
        assert!(interrupted > 0);
        assert!(completed > 0);
        assert_eq!(clock.failures(), interrupted);
    }

    #[test]
    fn zero_duration_always_completes() {
        let mut clock = SimClock::new(1.0, 3);
        for _ in 0..100 {
            assert!(clock.try_run(0.0).is_completed());
        }
        assert_eq!(clock.failures(), 0);
    }

    #[test]
    fn clock_is_deterministic_per_seed() {
        let run = |seed| {
            let mut c = SimClock::new(100.0, seed);
            for _ in 0..200 {
                c.try_run(30.0);
            }
            (c.now(), c.failures())
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn empirical_failure_rate_matches_mtbf() {
        let mtbf = 200.0;
        let mut clock = SimClock::new(mtbf, 11);
        let horizon = 2_000_000.0;
        let mut elapsed = 0.0;
        while elapsed < horizon {
            clock.try_run(horizon - elapsed);
            elapsed = clock.now();
        }
        let empirical = clock.now() / clock.failures() as f64;
        assert!(
            (empirical - mtbf).abs() / mtbf < 0.05,
            "empirical MTBF {empirical}"
        );
    }

    #[test]
    fn recovery_restarts_until_clean() {
        // With an MTBF comparable to the recovery length, recovery often has
        // to restart; it must still terminate and consume more time than a
        // single clean attempt.
        let mut clock = SimClock::new(300.0, 13);
        clock.recover(60.0, 120.0);
        assert!(clock.now() >= 180.0);

        // With a huge MTBF, recovery takes exactly D + R.
        let mut clock = SimClock::new(1e15, 13);
        clock.recover(60.0, 120.0);
        assert!((clock.now() - 180.0).abs() < 1e-9);
    }

    #[test]
    fn restartable_activity_completes_exactly_once_cleanly() {
        let mut clock = SimClock::new(1e15, 1);
        clock.run_restartable(500.0);
        assert!((clock.now() - 500.0).abs() < 1e-9);

        let mut clock = SimClock::new(400.0, 21);
        clock.run_restartable(500.0);
        // The last attempt is clean, so at least 500 s elapsed.
        assert!(clock.now() >= 500.0);
    }

    #[test]
    fn trace_backed_clock_matches_a_stream_backed_clock_bit_for_bit() {
        use ft_platform::failure::ExponentialFailures;
        use ft_platform::trace::TraceBuffer;
        let model = ExponentialFailures::new(150.0).unwrap();
        let mut buffer = TraceBuffer::new(model, 31);
        let mut streamed = SimClock::with_model(model, 31);
        let mut replayed = SimClock::with_source(buffer.cursor());
        for _ in 0..500 {
            assert_eq!(streamed.try_run(40.0), replayed.try_run(40.0));
        }
        assert_eq!(streamed.now().to_bits(), replayed.now().to_bits());
        assert_eq!(streamed.failures(), replayed.failures());
        assert!((replayed.mtbf() - 150.0).abs() < 1e-9);
    }

    #[test]
    fn two_clocks_over_one_buffer_see_the_same_failures() {
        use ft_platform::failure::ExponentialFailures;
        use ft_platform::trace::TraceBuffer;
        let model = ExponentialFailures::new(80.0).unwrap();
        let mut buffer = TraceBuffer::new(model, 7);
        // First consumer runs long activities, second runs short ones — the
        // failure *times* they observe are identical because both replay the
        // same recorded sequence.
        let failures_a = {
            let mut clock = SimClock::with_source(buffer.cursor());
            for _ in 0..100 {
                clock.try_run(100.0);
            }
            clock.failures()
        };
        let sampled: Vec<u64> = buffer.sampled().iter().map(|t| t.to_bits()).collect();
        let failures_b = {
            let mut clock = SimClock::with_source(buffer.cursor());
            for _ in 0..400 {
                clock.try_run(25.0);
            }
            clock.failures()
        };
        assert!(failures_a > 0 && failures_b > 0);
        let prefix: Vec<u64> = buffer.sampled()[..sampled.len()]
            .iter()
            .map(|t| t.to_bits())
            .collect();
        assert_eq!(sampled, prefix);
    }

    #[test]
    fn resumed_clock_continues_bit_identically() {
        use ft_platform::failure::ExponentialFailures;
        use ft_platform::trace::TraceBuffer;
        let model = ExponentialFailures::new(120.0).unwrap();
        let mut buffer = TraceBuffer::new(model, 17);
        // Reference: run 300 activities uninterrupted.
        let (ref_now, ref_failures) = {
            let mut reference = SimClock::with_source(buffer.cursor());
            for _ in 0..300 {
                reference.try_run(35.0);
            }
            (reference.now(), reference.failures())
        };
        // Snapshot after 120 activities, then resume and run the remaining 180.
        let (now, next, failures) = {
            let mut first = SimClock::with_source(buffer.cursor());
            for _ in 0..120 {
                first.try_run(35.0);
            }
            (first.now(), first.next_failure_time(), first.failures())
        };
        let mut resumed = SimClock::resume(buffer.cursor_at(failures + 1), now, next, failures);
        for _ in 0..180 {
            resumed.try_run(35.0);
        }
        assert_eq!(resumed.now().to_bits(), ref_now.to_bits());
        assert_eq!(resumed.failures(), ref_failures);
    }

    #[test]
    fn weibull_clock_is_deterministic_and_reports_its_mean() {
        let model = WeibullFailures::new(150.0, 0.7).unwrap();
        let run = |seed| {
            let mut c = SimClock::with_model(model, seed);
            for _ in 0..200 {
                c.try_run(40.0);
            }
            (c.now(), c.failures())
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
        let c = SimClock::with_model(model, 3);
        assert!((c.mtbf() - 150.0).abs() < 1e-9);
    }
}
