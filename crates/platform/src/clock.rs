//! The sanctioned measurement stopwatch.
//!
//! Simulated results in this workspace must be a pure function of their
//! seeds — that is what the CRN trace replay, the batch-vs-scalar oracle
//! and the crash-resume suites certify, and what the `ft-lint`
//! `wall-clock-in-library` rule enforces at the source level.  But the
//! workspace also *measures* itself (the ABFT overhead factor `φ`, the
//! `Recons_ABFT` reconstruction time, the checkpoint pipeline's
//! [`GenerationCost`] ledger), and those measurements need a real clock.
//!
//! [`Stopwatch`] is the one place library code may touch
//! `std::time::Instant` (carrying the single `wall-clock-in-library`
//! allowlist entry).  The contract that keeps it safe:
//!
//! * stopwatch readings are **measurement-only** — they flow into reports
//!   (`OverheadReport`, `ReconstructionOutcome`, `GenerationCost`) and
//!   never into simulated state, periods, seeds or control flow;
//! * callers that need determinism inject [`Stopwatch::manual`], whose
//!   elapsed time advances only by explicit [`Stopwatch::advance`] calls,
//!   so tests can pin measured fields to exact values.
//!
//! [`GenerationCost`]: https://docs.rs/ft-ckpt
//!
//! ```
//! use ft_platform::clock::Stopwatch;
//!
//! let mut manual = Stopwatch::manual();
//! manual.advance(1.5);
//! assert_eq!(manual.elapsed_seconds(), 1.5);
//!
//! let wall = Stopwatch::start();
//! assert!(wall.elapsed_seconds() >= 0.0);
//! ```

use std::time::Instant;

/// A seconds-resolution stopwatch: wall-clock by default, manually driven
/// for deterministic tests.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(Inner);

#[derive(Debug, Clone, Copy)]
enum Inner {
    /// Real elapsed time since construction.
    Wall(Instant),
    /// Injected time: elapsed seconds advanced explicitly by the caller.
    Manual { elapsed: f64 },
}

impl Stopwatch {
    /// Starts a wall-clock stopwatch.
    pub fn start() -> Self {
        Self(Inner::Wall(Instant::now()))
    }

    /// A manually-driven stopwatch starting at zero elapsed seconds.
    pub fn manual() -> Self {
        Self(Inner::Manual { elapsed: 0.0 })
    }

    /// Advances a manual stopwatch by `seconds`. On a wall-clock
    /// stopwatch this is a no-op (real time cannot be steered); mixing
    /// the two modes is a caller bug flagged in debug builds.
    pub fn advance(&mut self, seconds: f64) {
        debug_assert!(seconds >= 0.0, "stopwatches cannot run backwards");
        match &mut self.0 {
            Inner::Manual { elapsed } => *elapsed += seconds,
            Inner::Wall(_) => {
                debug_assert!(false, "advance() called on a wall-clock stopwatch");
            }
        }
    }

    /// Elapsed seconds since construction (wall) or the sum of
    /// [`Stopwatch::advance`] calls (manual).
    pub fn elapsed_seconds(&self) -> f64 {
        match &self.0 {
            Inner::Wall(start) => start.elapsed().as_secs_f64(),
            Inner::Manual { elapsed } => *elapsed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_stopwatch_is_monotone() {
        let sw = Stopwatch::start();
        let a = sw.elapsed_seconds();
        let b = sw.elapsed_seconds();
        assert!(a >= 0.0);
        assert!(b >= a);
    }

    #[test]
    fn manual_stopwatch_is_injected_time() {
        let mut sw = Stopwatch::manual();
        assert_eq!(sw.elapsed_seconds(), 0.0);
        sw.advance(0.25);
        sw.advance(1.0);
        assert_eq!(sw.elapsed_seconds(), 1.25);
    }
}
