//! Dataset-at-rest protection and reconstruction.
//!
//! Besides protecting a factorization *in flight* ([`crate::lu`]), ABFT
//! also protects the LIBRARY dataset *at rest* between operations: the
//! dataset is kept encoded with block-group checksums, and the entries lost
//! to a process failure are reconstructed from the surviving processes —
//! this is exactly the `Recons_ABFT` step of the paper's recovery path, and
//! [`ReconstructionOutcome`] reports how long it took so that the model
//! parameter can be calibrated from measurements.  The composite runtime of
//! `ft-composite` rebuilds a failed rank's LIBRARY bytes through
//! [`ProtectedDataset::fail_and_reconstruct`].

use ft_platform::clock::Stopwatch;

use crate::blockcyclic::DistributedMatrix;
use crate::checksum::GroupMap;
use crate::error::{AbftError, Result};
use crate::matrix::Matrix;

/// A distributed matrix kept encoded with per-group column checksums so that
/// any single process failure can be repaired in place.
#[derive(Debug, Clone, PartialEq)]
pub struct ProtectedDataset {
    matrix: DistributedMatrix,
    /// One checksum column per column class per group: `rows × extent`.
    checksums: Matrix,
    col_map: GroupMap,
}

/// Summary of a reconstruction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReconstructionOutcome {
    /// Rank whose data was rebuilt.
    pub rank: usize,
    /// Number of matrix entries rebuilt.
    pub entries: usize,
    /// Wall-clock time of the reconstruction, in seconds.
    pub seconds: f64,
}

impl ProtectedDataset {
    /// Encodes a distributed matrix.
    pub fn encode(matrix: DistributedMatrix) -> Self {
        let data = matrix.global();
        let nb = matrix.layout().block_size();
        let q = matrix.layout().grid().cols();
        let col_map = GroupMap::new(data.cols(), nb, q);
        let mut checksums = Matrix::zeros(data.rows(), col_map.checksum_extent());
        for j in 0..data.cols() {
            let cc = col_map.checksum_index(j);
            for i in 0..data.rows() {
                checksums.add_to(i, cc, data.get(i, j));
            }
        }
        Self {
            matrix,
            checksums,
            col_map,
        }
    }

    /// Read-only access to the protected matrix.
    pub fn matrix(&self) -> &DistributedMatrix {
        &self.matrix
    }

    /// Verifies the checksum invariant; returns the worst relative violation.
    pub fn verify(&self, tol: f64) -> Result<f64> {
        let data = self.matrix.global();
        let mut worst = 0.0_f64;
        for cc in 0..self.col_map.checksum_extent() {
            let members: Vec<usize> = (0..data.cols())
                .filter(|&c| self.col_map.checksum_index(c) == cc)
                .collect();
            for i in 0..data.rows() {
                let expected: f64 = members.iter().map(|&c| data.get(i, c)).sum();
                let stored = self.checksums.get(i, cc);
                let scale = expected.abs().max(stored.abs()).max(1.0);
                worst = worst.max((expected - stored).abs() / scale);
            }
        }
        if worst > tol {
            Err(AbftError::ChecksumViolation {
                violation: worst,
                tolerance: tol,
            })
        } else {
            Ok(worst)
        }
    }

    /// Simulates the failure of `rank` and immediately reconstructs its data
    /// from the checksums, returning the reconstruction outcome.
    pub fn fail_and_reconstruct(&mut self, rank: usize) -> Result<ReconstructionOutcome> {
        let lost = self.matrix.kill_rank(rank)?;
        let start = Stopwatch::start();
        self.reconstruct(&lost)?;
        self.matrix.mark_recovered(rank);
        Ok(ReconstructionOutcome {
            rank,
            entries: lost.len(),
            seconds: start.elapsed_seconds(),
        })
    }

    /// Reconstructs the given lost entries from the checksums. At most one
    /// lost entry per (row, checksum group) is supported — i.e. a single
    /// process failure.
    pub fn reconstruct(&mut self, lost: &[(usize, usize)]) -> Result<()> {
        if lost.is_empty() {
            return Err(AbftError::NothingToRecover);
        }
        use std::collections::HashSet;
        let lost_set: HashSet<(usize, usize)> = lost.iter().copied().collect();
        let data = self.matrix.global_mut();
        for &(i, j) in lost {
            let cc = self.col_map.checksum_index(j);
            let mut acc = self.checksums.get(i, cc);
            for partner in self.col_map.partners(j) {
                if lost_set.contains(&(i, partner)) {
                    return Err(AbftError::TooManyFailures {
                        failed: 2,
                        tolerated: 1,
                    });
                }
                acc -= data.get(i, partner);
            }
            data.set(i, j, acc);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blockcyclic::BlockCyclicLayout;
    use ft_platform::grid::ProcessGrid;

    fn dataset(n: usize, nb: usize) -> (Matrix, ProtectedDataset) {
        let a = Matrix::random(n, n, 99);
        let layout = BlockCyclicLayout::new(ProcessGrid::new(2, 3).unwrap(), nb);
        let dm = DistributedMatrix::new(a.clone(), layout);
        (a, ProtectedDataset::encode(dm))
    }

    #[test]
    fn fresh_encoding_verifies() {
        let (_, ds) = dataset(18, 3);
        assert!(ds.verify(1e-10).is_ok());
    }

    #[test]
    fn every_rank_is_reconstructible() {
        let (a, ds) = dataset(18, 3);
        for rank in 0..6 {
            let mut ds = ds.clone();
            let outcome = ds.fail_and_reconstruct(rank).unwrap();
            assert!(outcome.entries > 0);
            assert!(outcome.seconds >= 0.0);
            assert!(ds.matrix().global().approx_eq(&a, 1e-9));
            assert!(!ds.matrix().is_degraded());
            assert!(ds.verify(1e-9).is_ok());
        }
    }

    #[test]
    fn double_failure_in_same_group_is_rejected() {
        let (_, mut ds) = dataset(12, 2);
        // Two entries in the same row whose columns share a checksum group:
        // columns 0 and 2 are in the same group (nb = 2, q = 3 → group 0 is
        // columns 0..6) and the same class (0).
        assert!(matches!(
            ds.reconstruct(&[(0, 0), (0, 2)]),
            Err(AbftError::TooManyFailures { .. })
        ));
        assert!(matches!(ds.reconstruct(&[]), Err(AbftError::NothingToRecover)));
    }
}
