//! Measurement of the ABFT overhead factor `φ` and of the reconstruction
//! time `Recons_ABFT`.
//!
//! The analytical model of the paper consumes two ABFT-related parameters:
//! the multiplicative slowdown `φ` of running a library call under ABFT
//! protection, and the constant time `Recons_ABFT` needed to rebuild the lost
//! LIBRARY data after a failure.  The paper takes `φ = 1.03` and
//! `Recons_ABFT = 2 s` from production measurements; this module produces the
//! equivalent numbers for *our* substrate, so the model can also be
//! instantiated from first-hand measurements (and so the benchmarks can show
//! how `φ` behaves with the problem size).

use ft_platform::clock::Stopwatch;
use ft_platform::grid::ProcessGrid;

use crate::error::Result;
use crate::lu::{plain_lu, AbftLu};
use crate::matrix::Matrix;

/// Measured overheads of the ABFT LU substrate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverheadReport {
    /// Matrix order used for the measurement.
    pub n: usize,
    /// Seconds per plain (unprotected) factorization.
    pub plain_seconds: f64,
    /// Seconds per ABFT-protected factorization.
    pub abft_seconds: f64,
    /// The overhead factor `φ = abft / plain`.
    pub phi: f64,
    /// Seconds to reconstruct the data of one failed process
    /// (`Recons_ABFT`).
    pub reconstruction_seconds: f64,
    /// Fraction of extra memory used by the checksums.
    pub memory_overhead: f64,
}

/// Measures `φ` and `Recons_ABFT` on the LU substrate.
///
/// `reps` factorizations of each kind are timed and averaged; the
/// reconstruction is measured by killing rank 0 halfway through a protected
/// factorization and timing [`AbftLu::recover`].
pub fn measure_overhead(n: usize, grid: &ProcessGrid, nb: usize, reps: usize) -> Result<OverheadReport> {
    let reps = reps.max(1);
    let a = Matrix::random_diagonally_dominant(n, 0xC0FFEE);

    let start = Stopwatch::start();
    for _ in 0..reps {
        let _ = plain_lu(&a)?;
    }
    let plain_seconds = start.elapsed_seconds() / reps as f64;

    let start = Stopwatch::start();
    for _ in 0..reps {
        let mut abft = AbftLu::new(&a, grid, nb)?;
        abft.factor_to_completion()?;
    }
    let abft_seconds = start.elapsed_seconds() / reps as f64;

    // Reconstruction time: fail rank 0 halfway through and time the repair.
    let mut abft = AbftLu::new(&a, grid, nb)?;
    abft.factor_steps(n / 2)?;
    let lost = abft.inject_failure(0)?;
    let start = Stopwatch::start();
    abft.recover(&lost)?;
    let reconstruction_seconds = start.elapsed_seconds();

    let storage = abft.storage();
    let memory_overhead =
        (storage.rows() * storage.cols()) as f64 / (n * n) as f64 - 1.0;

    Ok(OverheadReport {
        n,
        plain_seconds,
        abft_seconds,
        phi: if plain_seconds > 0.0 {
            abft_seconds / plain_seconds
        } else {
            1.0
        },
        reconstruction_seconds,
        memory_overhead,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_report_is_sane() {
        let grid = ProcessGrid::new(2, 2).unwrap();
        let report = measure_overhead(32, &grid, 4, 1).unwrap();
        assert_eq!(report.n, 32);
        assert!(report.plain_seconds > 0.0);
        assert!(report.abft_seconds > 0.0);
        // The protected factorization cannot be faster than the plain one by
        // more than timing noise, and the overhead must be bounded (the
        // checksum region adds at most ~(1/P + 1/Q + 1/(PQ)) work).
        assert!(report.phi > 0.5, "phi = {}", report.phi);
        assert!(report.phi < 10.0, "phi = {}", report.phi);
        assert!(report.reconstruction_seconds >= 0.0);
        assert!(report.memory_overhead > 0.0);
        assert!(report.memory_overhead < 2.0);
    }

    #[test]
    fn reps_zero_is_clamped() {
        let grid = ProcessGrid::new(2, 2).unwrap();
        let report = measure_overhead(16, &grid, 4, 0).unwrap();
        assert!(report.plain_seconds > 0.0);
    }
}
