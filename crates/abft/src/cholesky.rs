//! Cholesky factorization, plain and ABFT-protected.
//!
//! [`plain_cholesky`] is the reference right-looking Cholesky.
//!
//! [`AbftCholesky`] computes the Cholesky factor of a symmetric
//! positive-definite matrix under the same block-group checksum protection as
//! [`crate::lu::AbftLu`]: internally the matrix is factored as `A = L·U`
//! without pivoting — which is numerically stable for SPD matrices — under
//! checksum protection, and the Cholesky factor is recovered as
//! `L_chol = L · diag(√u_ii)`.  Failure injection and recovery are therefore
//! inherited verbatim from the protected LU machinery, which keeps a single,
//! well-tested recovery path for both factorizations.

use ft_platform::grid::ProcessGrid;

use crate::error::{AbftError, Result};
use crate::lu::AbftLu;
use crate::matrix::Matrix;

/// Plain right-looking Cholesky factorization: returns the lower-triangular
/// factor `L` with `A = L·Lᵀ`.
pub fn plain_cholesky(a: &Matrix) -> Result<Matrix> {
    if a.rows() != a.cols() {
        return Err(AbftError::DimensionMismatch {
            op: "plain_cholesky",
            left: (a.rows(), a.cols()),
            right: (a.cols(), a.rows()),
        });
    }
    let n = a.rows();
    let mut l = Matrix::zeros(n, n);
    for j in 0..n {
        let mut diag = a.get(j, j);
        for k in 0..j {
            diag -= l.get(j, k) * l.get(j, k);
        }
        if diag <= 0.0 {
            return Err(AbftError::NotPositiveDefinite { step: j });
        }
        let d = diag.sqrt();
        l.set(j, j, d);
        for i in j + 1..n {
            let mut v = a.get(i, j);
            for k in 0..j {
                v -= l.get(i, k) * l.get(j, k);
            }
            l.set(i, j, v / d);
        }
    }
    Ok(l)
}

/// ABFT-protected Cholesky factorization of an SPD matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct AbftCholesky {
    inner: AbftLu,
}

impl AbftCholesky {
    /// Encodes the SPD matrix `a` for protected factorization over `grid`
    /// with block size `nb`.
    pub fn new(a: &Matrix, grid: &ProcessGrid, nb: usize) -> Result<Self> {
        // A quick symmetry sanity check; positive definiteness is detected
        // during the factorization itself (negative pivot).
        if !a.approx_eq(&a.transpose(), 1e-9 * a.max_abs().max(1.0)) {
            return Err(AbftError::NotPositiveDefinite { step: 0 });
        }
        Ok(Self {
            inner: AbftLu::new(a, grid, nb)?,
        })
    }

    /// Matrix order.
    pub fn n(&self) -> usize {
        self.inner.n()
    }

    /// Number of elimination steps already performed.
    pub fn step(&self) -> usize {
        self.inner.step()
    }

    /// Whether the factorization is complete.
    pub fn is_complete(&self) -> bool {
        self.inner.is_complete()
    }

    /// Performs up to `count` elimination steps.
    pub fn factor_steps(&mut self, count: usize) -> Result<usize> {
        let done = self.inner.factor_steps(count)?;
        self.check_positive()?;
        Ok(done)
    }

    /// Runs the factorization to completion.
    pub fn factor_to_completion(&mut self) -> Result<()> {
        self.inner.factor_to_completion()?;
        self.check_positive()
    }

    fn check_positive(&self) -> Result<()> {
        // An SPD matrix produces strictly positive pivots; a non-positive
        // pivot in the factored part means the input was not SPD.
        for t in 0..self.inner.step() {
            if self.inner.storage().get(t, t) <= 0.0 {
                return Err(AbftError::NotPositiveDefinite { step: t });
            }
        }
        Ok(())
    }

    /// Verifies the checksum invariants.
    pub fn verify(&self, tol: f64) -> Result<f64> {
        self.inner.verify(tol)
    }

    /// All data-region entries owned by `rank`.
    pub fn entries_of_rank(&self, rank: usize) -> Result<Vec<(usize, usize)>> {
        self.inner.entries_of_rank(rank)
    }

    /// Simulates the failure of `rank`, destroying the entries it owns.
    pub fn inject_failure(&mut self, rank: usize) -> Result<Vec<(usize, usize)>> {
        self.inner.inject_failure(rank)
    }

    /// Recovers the lost entries of a single failed process.
    pub fn recover(&mut self, lost: &[(usize, usize)]) -> Result<()> {
        self.inner.recover(lost)
    }

    /// Extracts the Cholesky factor `L` with `A = L·Lᵀ` (meaningful once the
    /// factorization is complete).
    pub fn factor(&self) -> Result<Matrix> {
        let (l, u) = self.inner.extract_factors();
        let n = self.inner.n();
        let mut chol = Matrix::zeros(n, n);
        for j in 0..n {
            let d = u.get(j, j);
            if d <= 0.0 {
                return Err(AbftError::NotPositiveDefinite { step: j });
            }
            let s = d.sqrt();
            for i in j..n {
                chol.set(i, j, l.get(i, j) * s);
            }
        }
        Ok(chol)
    }

    /// Residual `‖L·Lᵀ − A‖_max / ‖A‖_max`.
    pub fn residual(&self, original: &Matrix) -> Result<f64> {
        let l = self.factor()?;
        let llt = l.matmul(&l.transpose())?;
        Ok(llt.max_abs_diff(original)? / original.max_abs().max(1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_cholesky_reconstructs_spd_matrix() {
        let a = Matrix::random_spd(20, 3);
        let l = plain_cholesky(&a).unwrap();
        let llt = l.matmul(&l.transpose()).unwrap();
        assert!(llt.max_abs_diff(&a).unwrap() / a.max_abs() < 1e-10);
        // L is lower triangular with positive diagonal.
        for i in 0..20 {
            assert!(l.get(i, i) > 0.0);
            for j in i + 1..20 {
                assert_eq!(l.get(i, j), 0.0);
            }
        }
    }

    #[test]
    fn plain_cholesky_rejects_indefinite_matrices() {
        let mut a = Matrix::identity(3);
        a.set(2, 2, -1.0);
        assert!(matches!(
            plain_cholesky(&a),
            Err(AbftError::NotPositiveDefinite { .. })
        ));
        assert!(plain_cholesky(&Matrix::zeros(2, 3)).is_err());
    }

    #[test]
    fn abft_cholesky_matches_plain_cholesky() {
        let a = Matrix::random_spd(24, 9);
        let grid = ProcessGrid::new(2, 2).unwrap();
        let mut abft = AbftCholesky::new(&a, &grid, 4).unwrap();
        abft.factor_to_completion().unwrap();
        let l_abft = abft.factor().unwrap();
        let l_plain = plain_cholesky(&a).unwrap();
        assert!(l_abft.approx_eq(&l_plain, 1e-8 * a.max_abs()));
        assert!(abft.residual(&a).unwrap() < 1e-9);
    }

    #[test]
    fn abft_cholesky_rejects_asymmetric_input() {
        let a = Matrix::random(8, 8, 4);
        let grid = ProcessGrid::new(2, 2).unwrap();
        assert!(AbftCholesky::new(&a, &grid, 2).is_err());
    }

    #[test]
    fn mid_factorization_failure_is_recovered() {
        let a = Matrix::random_spd(24, 15);
        let grid = ProcessGrid::new(2, 2).unwrap();
        for rank in 0..grid.size() {
            let mut abft = AbftCholesky::new(&a, &grid, 3).unwrap();
            abft.factor_steps(11).unwrap();
            let lost = abft.inject_failure(rank).unwrap();
            assert!(!lost.is_empty());
            abft.recover(&lost).unwrap();
            assert!(abft.verify(1e-7).is_ok());
            abft.factor_to_completion().unwrap();
            assert!(
                abft.residual(&a).unwrap() < 1e-8,
                "residual too large after recovering rank {rank}"
            );
        }
    }

    #[test]
    fn indefinite_matrix_is_detected_during_protected_factorization() {
        // Symmetric but indefinite.
        let mut a = Matrix::identity(6);
        a.set(4, 4, -2.0);
        let grid = ProcessGrid::new(2, 2).unwrap();
        let mut abft = AbftCholesky::new(&a, &grid, 2).unwrap();
        let r = abft.factor_to_completion().and_then(|_| abft.factor().map(|_| ()));
        assert!(r.is_err());
    }
}
