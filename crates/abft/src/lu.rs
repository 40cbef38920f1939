//! ABFT LU factorization.
//!
//! [`AbftLu`] implements a right-looking LU factorization (Doolittle, no
//! pivoting — appropriate for the diagonally-dominant matrices the tests and
//! examples use) on a matrix augmented with the block-group checksums of
//! Du et al. (PPoPP 2012):
//!
//! * **column checksums** (one checksum column per column *class* per column
//!   group) are carried through the factorization by the ordinary trailing
//!   updates and therefore protect, at any step `s`,
//!   the already-computed rows of `U` *and* the trailing Schur complement;
//! * **row checksums** (one checksum row per row class per row group) are
//!   eliminated like ordinary rows and therefore hold, for every factored
//!   column `t`, the weighted sum of the `L` entries of that column — they
//!   protect the already-computed columns of `L`.
//!
//! Together the two invariants let [`AbftLu::recover`] rebuild every entry a
//! single failed process owned, **at any point of the factorization**,
//! without re-executing any step — the property the composite protocol of
//! the paper relies on for its LIBRARY phases.

use ft_platform::grid::ProcessGrid;
use rayon::prelude::*;

use crate::checksum::GroupMap;
use crate::error::{AbftError, Result};
use crate::matrix::{Matrix, PAR_THRESHOLD};

/// Relative pivot threshold below which the factorization reports a singular
/// pivot.
const PIVOT_TOLERANCE: f64 = 1e-12;

/// Plain (unprotected) right-looking LU factorization without pivoting.
///
/// Returns the in-place storage (strictly-lower part = `L` without its unit
/// diagonal, upper part = `U`).
pub fn plain_lu(a: &Matrix) -> Result<Matrix> {
    if a.rows() != a.cols() {
        return Err(AbftError::DimensionMismatch {
            op: "plain_lu",
            left: (a.rows(), a.cols()),
            right: (a.cols(), a.rows()),
        });
    }
    let n = a.rows();
    let mut s = a.clone();
    let scale = a.max_abs().max(1.0);
    for t in 0..n {
        let pivot = s.get(t, t);
        if pivot.abs() < PIVOT_TOLERANCE * scale {
            return Err(AbftError::SingularPivot { step: t, value: pivot });
        }
        for i in t + 1..n {
            let l = s.get(i, t) / pivot;
            s.set(i, t, l);
            for j in t + 1..n {
                s.add_to(i, j, -l * s.get(t, j));
            }
        }
    }
    Ok(s)
}

/// Blocked (tiled) right-looking LU factorization without pivoting.
///
/// Classic panel algorithm: factor a panel of `nb` columns with updates
/// restricted to the panel, solve the unit-lower triangular system for the
/// `U12` block row, then apply one rank-`nb` trailing update
/// `A22 ← A22 − L21·U12`.  The trailing update — where almost all the flops
/// live — streams `nb` rows of `U12` over every trailing row (the same
/// tiling idea as [`Matrix::matmul`], with the panel as the k-tile) and
/// parallelises over trailing rows once the update exceeds
/// the crate's Rayon threshold.
///
/// Produces the same in-place `L\U` storage as [`plain_lu`] up to
/// floating-point reassociation of the trailing sums.
pub fn blocked_lu(a: &Matrix, nb: usize) -> Result<Matrix> {
    if a.rows() != a.cols() {
        return Err(AbftError::DimensionMismatch {
            op: "blocked_lu",
            left: (a.rows(), a.cols()),
            right: (a.cols(), a.rows()),
        });
    }
    let n = a.rows();
    let nb = nb.max(1);
    let mut s = a.clone();
    let scale = a.max_abs().max(1.0);
    for t in (0..n).step_by(nb) {
        let b = nb.min(n - t);
        // Panel factorization: eliminate columns t..t+b, touching only the
        // panel's columns (the trailing matrix is updated in one shot below).
        for j in t..t + b {
            let pivot = s.get(j, j);
            if pivot.abs() < PIVOT_TOLERANCE * scale {
                return Err(AbftError::SingularPivot { step: j, value: pivot });
            }
            for i in j + 1..n {
                let l = s.get(i, j) / pivot;
                s.set(i, j, l);
                if l == 0.0 {
                    continue;
                }
                for jj in j + 1..t + b {
                    s.add_to(i, jj, -l * s.get(j, jj));
                }
            }
        }
        if t + b >= n {
            break;
        }
        // U12 block row: forward-substitute the unit-lower panel through the
        // not-yet-updated rows t..t+b of the trailing columns.
        for ii in t + 1..t + b {
            for k in t..ii {
                let l = s.get(ii, k);
                if l == 0.0 {
                    continue;
                }
                for j in t + b..n {
                    s.add_to(ii, j, -l * s.get(k, j));
                }
            }
        }
        // Trailing update A22 -= L21 * U12.  Split the storage at the panel
        // boundary: the U12 rows are shared read-only, the trailing rows are
        // disjoint mutable chunks (parallelised when the update is large).
        // Per trailing row, 8-column register tiles accumulate the whole
        // rank-`b` update before touching memory again, so every trailing
        // element is loaded and stored once per *panel* instead of once per
        // elimination step.
        const JT: usize = 8;
        let (top, tail) = s.data_mut().split_at_mut((t + b) * n);
        let u12 = &top[t * n..];
        let update_row = |row: &mut [f64]| {
            let (l_part, trailing) = row.split_at_mut(t + b);
            let l_panel = &l_part[t..t + b];
            let width = trailing.len();
            let mut jb = 0;
            while jb + JT <= width {
                let mut acc: [f64; JT] = trailing[jb..jb + JT].try_into().expect("full tile");
                for (k, &l) in l_panel.iter().enumerate() {
                    let off = k * n + t + b + jb;
                    let u: &[f64; JT] = u12[off..off + JT].try_into().expect("full tile");
                    for j in 0..JT {
                        acc[j] -= l * u[j];
                    }
                }
                trailing[jb..jb + JT].copy_from_slice(&acc);
                jb += JT;
            }
            // Ragged last columns.
            for (k, &l) in l_panel.iter().enumerate() {
                if l == 0.0 {
                    continue;
                }
                let u_row = &u12[k * n + t + b + jb..k * n + n];
                for (x, &u) in trailing[jb..].iter_mut().zip(u_row) {
                    *x -= l * u;
                }
            }
        };
        if (n - t - b) * (n - t - b) >= PAR_THRESHOLD {
            tail.par_chunks_mut(n).for_each(update_row);
        } else {
            tail.chunks_mut(n).for_each(update_row);
        }
    }
    Ok(s)
}

/// Which protection zone an entry of the in-place storage currently lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Zone {
    /// Already-computed `L` entry (column factored, strictly below diagonal).
    Lower,
    /// Already-computed `U` entry or trailing Schur-complement entry.
    UpperOrTrailing,
}

/// ABFT LU factorization state.
#[derive(Debug, Clone, PartialEq)]
pub struct AbftLu {
    n: usize,
    nb: usize,
    grid: ProcessGrid,
    col_map: GroupMap,
    row_map: GroupMap,
    /// `(n + row_checksums) × (n + col_checksums)` in-place storage.
    storage: Matrix,
    /// Number of columns already eliminated.
    step: usize,
    /// Largest magnitude of the original matrix, for pivot scaling.
    scale: f64,
}

impl AbftLu {
    /// Encodes `a` with block-group checksums for the given process grid and
    /// block size, ready to be factored.
    pub fn new(a: &Matrix, grid: &ProcessGrid, nb: usize) -> Result<Self> {
        if a.rows() != a.cols() {
            return Err(AbftError::DimensionMismatch {
                op: "AbftLu::new",
                left: (a.rows(), a.cols()),
                right: (a.cols(), a.rows()),
            });
        }
        let n = a.rows();
        let col_map = GroupMap::new(n, nb, grid.cols());
        let row_map = GroupMap::new(n, nb, grid.rows());
        let extra_cols = col_map.checksum_extent();
        let extra_rows = row_map.checksum_extent();
        let mut storage = Matrix::zeros(n + extra_rows, n + extra_cols);
        storage.set_block(0, 0, a)?;
        // Column checksums: each checksum column accumulates its member data
        // columns (ones weights).
        for j in 0..n {
            let cc = n + col_map.checksum_index(j);
            for i in 0..n {
                storage.add_to(i, cc, a.get(i, j));
            }
        }
        // Row checksums over the column-extended matrix (so the corner also
        // holds consistent sums; only the data-column part is used for
        // recovery).
        for i in 0..n {
            let cr = n + row_map.checksum_index(i);
            for j in 0..storage.cols() {
                let v = storage.get(i, j);
                storage.add_to(cr, j, v);
            }
        }
        Ok(Self {
            n,
            nb,
            grid: *grid,
            col_map,
            row_map,
            storage,
            step: 0,
            scale: a.max_abs().max(1.0),
        })
    }

    /// Matrix order.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Block size of the distribution.
    pub fn block_size(&self) -> usize {
        self.nb
    }

    /// Number of elimination steps already performed.
    pub fn step(&self) -> usize {
        self.step
    }

    /// The process grid the matrix is (virtually) distributed over.
    pub fn grid(&self) -> &ProcessGrid {
        &self.grid
    }

    /// Read-only view of the augmented in-place storage (mostly for tests).
    pub fn storage(&self) -> &Matrix {
        &self.storage
    }

    /// Performs up to `count` elimination steps; returns the number actually
    /// performed (less than `count` only when the factorization finishes).
    pub fn factor_steps(&mut self, count: usize) -> Result<usize> {
        let mut done = 0;
        let total_rows = self.storage.rows();
        let total_cols = self.storage.cols();
        while done < count && self.step < self.n {
            let t = self.step;
            let pivot = self.storage.get(t, t);
            if pivot.abs() < PIVOT_TOLERANCE * self.scale {
                return Err(AbftError::SingularPivot { step: t, value: pivot });
            }
            for i in t + 1..total_rows {
                let l = self.storage.get(i, t) / pivot;
                self.storage.set(i, t, l);
                if l == 0.0 {
                    continue;
                }
                for j in t + 1..total_cols {
                    let update = l * self.storage.get(t, j);
                    self.storage.add_to(i, j, -update);
                }
            }
            self.step += 1;
            done += 1;
        }
        Ok(done)
    }

    /// Runs the factorization to completion.
    pub fn factor_to_completion(&mut self) -> Result<()> {
        self.factor_steps(self.n - self.step)?;
        Ok(())
    }

    /// Extracts the `(L, U)` factors (only meaningful once complete, but
    /// callable at any time: unfactored parts appear as the current trailing
    /// matrix in `U` and zeros in `L`).
    pub fn extract_factors(&self) -> (Matrix, Matrix) {
        (
            self.storage.extract_unit_lower(self.n),
            self.storage.extract_upper(self.n),
        )
    }

    /// The value the protection invariant expects at `(i, j)` in the
    /// *column-checksum* direction: `U`/trailing entries count, `L` entries
    /// do not.
    fn column_protected_value(&self, i: usize, j: usize) -> f64 {
        match self.zone(i, j) {
            Zone::Lower => 0.0,
            _ => self.storage.get(i, j),
        }
    }

    /// The value the protection invariant expects at `(i, j)` in the
    /// *row-checksum* direction: `L` entries (with an implicit unit diagonal)
    /// for factored columns, trailing entries for unfactored columns.
    fn row_protected_value(&self, i: usize, j: usize) -> f64 {
        if j < self.step {
            // Factored column: the row checksum protects L.
            if i > j {
                self.storage.get(i, j)
            } else if i == j {
                1.0
            } else {
                0.0
            }
        } else {
            // Trailing column: only trailing rows contribute.
            if i >= self.step {
                self.storage.get(i, j)
            } else {
                0.0
            }
        }
    }

    fn zone(&self, i: usize, j: usize) -> Zone {
        if j < self.step && i > j {
            Zone::Lower
        } else {
            Zone::UpperOrTrailing
        }
    }

    /// Verifies both checksum invariants; returns the worst relative
    /// violation or an error when it exceeds `tol`.
    pub fn verify(&self, tol: f64) -> Result<f64> {
        let mut worst = 0.0_f64;
        // Column checksums: for every row and every checksum column.
        for i in 0..self.n {
            for cc in 0..self.col_map.checksum_extent() {
                let members: Vec<usize> = (0..self.n)
                    .filter(|&j| self.col_map.checksum_index(j) == cc)
                    .collect();
                if members.is_empty() {
                    continue;
                }
                let expected: f64 = members
                    .iter()
                    .map(|&j| self.column_protected_value(i, j))
                    .sum();
                let stored = self.storage.get(i, self.n + cc);
                let scale = expected.abs().max(stored.abs()).max(self.scale);
                worst = worst.max((expected - stored).abs() / scale);
            }
        }
        // Row checksums: for every factored or trailing column and every
        // checksum row.
        for j in 0..self.n {
            for cr in 0..self.row_map.checksum_extent() {
                let members: Vec<usize> = (0..self.n)
                    .filter(|&i| self.row_map.checksum_index(i) == cr)
                    .collect();
                if members.is_empty() {
                    continue;
                }
                let expected: f64 = members
                    .iter()
                    .map(|&i| self.row_protected_value(i, j))
                    .sum();
                let stored = self.storage.get(self.n + cr, j);
                let scale = expected.abs().max(stored.abs()).max(self.scale);
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

    /// The rank owning entry `(i, j)` of the data region under the 2-D
    /// block-cyclic distribution.
    pub fn owner(&self, i: usize, j: usize) -> usize {
        let p = self.row_map.owner_of(i);
        let q = self.col_map.owner_of(j);
        self.grid.rank(p, q).expect("owner coordinates are in the grid")
    }

    /// All data-region entries owned by `rank`.
    pub fn entries_of_rank(&self, rank: usize) -> Result<Vec<(usize, usize)>> {
        if rank >= self.grid.size() {
            return Err(AbftError::UnknownRank {
                rank,
                size: self.grid.size(),
            });
        }
        let (p, q) = self.grid.coords(rank).expect("checked above");
        let rows = self.row_map.entries_of(p);
        let cols = self.col_map.entries_of(q);
        let mut out = Vec::with_capacity(rows.len() * cols.len());
        for &i in &rows {
            for &j in &cols {
                out.push((i, j));
            }
        }
        Ok(out)
    }

    /// Simulates the failure of `rank`: every data entry it owns is
    /// destroyed (overwritten with zero). Returns the list of lost entries,
    /// to be passed to [`AbftLu::recover`].
    pub fn inject_failure(&mut self, rank: usize) -> Result<Vec<(usize, usize)>> {
        let lost = self.entries_of_rank(rank)?;
        for &(i, j) in &lost {
            self.storage.set(i, j, 0.0);
        }
        Ok(lost)
    }

    /// Recovers the given lost data entries from the surviving data and the
    /// checksums.  Entries must come from a single process failure (at most
    /// one lost member per checksum group), which is guaranteed when the list
    /// is produced by [`AbftLu::inject_failure`].
    pub fn recover(&mut self, lost: &[(usize, usize)]) -> Result<()> {
        if lost.is_empty() {
            return Err(AbftError::NothingToRecover);
        }
        use std::collections::HashSet;
        let lost_set: HashSet<(usize, usize)> = lost.iter().copied().collect();
        for &(i, j) in lost {
            let value = if self.zone(i, j) == Zone::Lower {
                // Recover an L entry from its row-group checksum.
                let cr = self.n + self.row_map.checksum_index(i);
                let mut acc = self.storage.get(cr, j);
                for partner in self.row_map.partners(i) {
                    if lost_set.contains(&(partner, j)) {
                        return Err(AbftError::TooManyFailures {
                            failed: 2,
                            tolerated: 1,
                        });
                    }
                    acc -= self.row_protected_value(partner, j);
                }
                acc
            } else {
                // Recover a U/trailing entry from its column-group checksum.
                let cc = self.n + self.col_map.checksum_index(j);
                let mut acc = self.storage.get(i, cc);
                for partner in self.col_map.partners(j) {
                    if lost_set.contains(&(i, partner)) {
                        return Err(AbftError::TooManyFailures {
                            failed: 2,
                            tolerated: 1,
                        });
                    }
                    acc -= self.column_protected_value(i, partner);
                }
                acc
            };
            // The invariant gives the *protected* value; for the Lower zone
            // that is the stored L entry, for the other zones the stored
            // U/trailing entry. An entry that is structurally zero in the
            // protected view (i < j inside a factored column's L region does
            // not exist; i > j in U is never queried) cannot occur here.
            self.storage.set(i, j, value);
        }
        Ok(())
    }

    /// Residual `‖L·U − A‖_max / ‖A‖_max` against the original matrix
    /// (callable once complete).
    pub fn residual(&self, original: &Matrix) -> Result<f64> {
        let (l, u) = self.extract_factors();
        let lu = l.matmul(&u)?;
        Ok(lu.max_abs_diff(original)? / original.max_abs().max(1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_2x3() -> ProcessGrid {
        ProcessGrid::new(2, 3).unwrap()
    }

    #[test]
    fn plain_lu_reconstructs_the_matrix() {
        let a = Matrix::random_diagonally_dominant(24, 5);
        let s = plain_lu(&a).unwrap();
        let l = s.extract_unit_lower(24);
        let u = s.extract_upper(24);
        let lu = l.matmul(&u).unwrap();
        assert!(lu.max_abs_diff(&a).unwrap() / a.max_abs() < 1e-10);
    }

    #[test]
    fn blocked_lu_matches_plain_lu() {
        // Cover block sizes that divide n, exceed n, and leave ragged tails,
        // across the parallel-trailing-update threshold.
        for (n, nb, seed) in [
            (24usize, 4usize, 5u64),
            (30, 7, 6),
            (48, 48, 7),
            (48, 100, 8),
            (96, 16, 9),
            (130, 32, 10),
        ] {
            let a = Matrix::random_diagonally_dominant(n, seed);
            let plain = plain_lu(&a).unwrap();
            let blocked = blocked_lu(&a, nb).unwrap();
            let tol = 1e-9 * a.max_abs();
            assert!(
                blocked.approx_eq(&plain, tol),
                "n={n} nb={nb}: blocked and plain factors diverge"
            );
            // And the factorization really reconstructs A.
            let l = blocked.extract_unit_lower(n);
            let u = blocked.extract_upper(n);
            let lu = l.matmul(&u).unwrap();
            assert!(lu.max_abs_diff(&a).unwrap() / a.max_abs() < 1e-10, "n={n} nb={nb}");
        }
    }

    #[test]
    fn blocked_lu_rejects_singular_and_nonsquare() {
        let mut a = Matrix::zeros(3, 3);
        a.set(0, 1, 1.0);
        a.set(1, 0, 1.0);
        a.set(2, 2, 1.0);
        assert!(matches!(blocked_lu(&a, 2), Err(AbftError::SingularPivot { .. })));
        assert!(blocked_lu(&Matrix::zeros(2, 3), 2).is_err());
    }

    #[test]
    fn plain_lu_rejects_singular_and_nonsquare() {
        let mut a = Matrix::zeros(3, 3);
        a.set(0, 1, 1.0);
        a.set(1, 0, 1.0);
        a.set(2, 2, 1.0);
        assert!(matches!(plain_lu(&a), Err(AbftError::SingularPivot { .. })));
        assert!(plain_lu(&Matrix::zeros(2, 3)).is_err());
    }

    #[test]
    fn abft_lu_matches_plain_lu() {
        let a = Matrix::random_diagonally_dominant(30, 7);
        let mut abft = AbftLu::new(&a, &grid_2x3(), 5).unwrap();
        abft.factor_to_completion().unwrap();
        assert_eq!(abft.step(), 30);
        let plain = plain_lu(&a).unwrap();
        let (l, u) = abft.extract_factors();
        assert!(l.approx_eq(&plain.extract_unit_lower(30), 1e-9));
        assert!(u.approx_eq(&plain.extract_upper(30), 1e-9));
        assert!(abft.residual(&a).unwrap() < 1e-10);
    }

    #[test]
    fn checksum_invariants_hold_throughout_the_factorization() {
        let a = Matrix::random_diagonally_dominant(24, 11);
        let mut abft = AbftLu::new(&a, &grid_2x3(), 4).unwrap();
        assert!(abft.verify(1e-9).is_ok());
        while abft.step() < 24 {
            abft.factor_steps(5).unwrap();
            assert!(
                abft.verify(1e-8).is_ok(),
                "invariant violated at step {}",
                abft.step()
            );
        }
    }

    #[test]
    fn ownership_partitions_the_matrix() {
        let a = Matrix::random_diagonally_dominant(18, 3);
        let grid = grid_2x3();
        let abft = AbftLu::new(&a, &grid, 3).unwrap();
        let mut seen = vec![false; 18 * 18];
        for rank in 0..grid.size() {
            for (i, j) in abft.entries_of_rank(rank).unwrap() {
                assert_eq!(abft.owner(i, j), rank);
                assert!(!seen[i * 18 + j]);
                seen[i * 18 + j] = true;
            }
        }
        assert!(seen.into_iter().all(|x| x));
        assert!(abft.entries_of_rank(6).is_err());
    }

    #[test]
    fn failure_before_factorization_is_recovered() {
        let a = Matrix::random_diagonally_dominant(24, 13);
        let mut abft = AbftLu::new(&a, &grid_2x3(), 4).unwrap();
        let lost = abft.inject_failure(4).unwrap();
        assert!(!lost.is_empty());
        abft.recover(&lost).unwrap();
        // The recovered matrix factors to the same result as the original.
        abft.factor_to_completion().unwrap();
        assert!(abft.residual(&a).unwrap() < 1e-9);
    }

    #[test]
    fn failure_mid_factorization_is_recovered_for_every_rank() {
        let a = Matrix::random_diagonally_dominant(24, 17);
        let grid = grid_2x3();
        for rank in 0..grid.size() {
            let mut abft = AbftLu::new(&a, &grid, 4).unwrap();
            abft.factor_steps(10).unwrap();
            let lost = abft.inject_failure(rank).unwrap();
            abft.recover(&lost).unwrap();
            assert!(
                abft.verify(1e-7).is_ok(),
                "invariants broken after recovering rank {rank}"
            );
            abft.factor_to_completion().unwrap();
            assert!(
                abft.residual(&a).unwrap() < 1e-8,
                "residual too large after recovering rank {rank}"
            );
        }
    }

    #[test]
    fn failure_near_completion_is_recovered() {
        let a = Matrix::random_diagonally_dominant(20, 23);
        let mut abft = AbftLu::new(&a, &grid_2x3(), 4).unwrap();
        abft.factor_steps(19).unwrap();
        let lost = abft.inject_failure(1).unwrap();
        abft.recover(&lost).unwrap();
        abft.factor_to_completion().unwrap();
        assert!(abft.residual(&a).unwrap() < 1e-8);
    }

    #[test]
    fn recovery_rejects_empty_and_correlated_failures() {
        let a = Matrix::random_diagonally_dominant(12, 29);
        let mut abft = AbftLu::new(&a, &grid_2x3(), 2).unwrap();
        assert!(matches!(abft.recover(&[]), Err(AbftError::NothingToRecover)));
        // Two entries protected by the same column checksum (same row, same
        // class, different blocks of the same group) cannot both be lost.
        let lost = vec![(0, 0), (0, 2)];
        assert!(matches!(
            abft.recover(&lost),
            Err(AbftError::TooManyFailures { .. })
        ));
    }

    #[test]
    fn ragged_sizes_work() {
        // n not a multiple of nb, and not a multiple of nb * grid dimension.
        let a = Matrix::random_diagonally_dominant(23, 31);
        let grid = ProcessGrid::new(2, 2).unwrap();
        let mut abft = AbftLu::new(&a, &grid, 3).unwrap();
        abft.factor_steps(9).unwrap();
        let lost = abft.inject_failure(3).unwrap();
        abft.recover(&lost).unwrap();
        abft.factor_to_completion().unwrap();
        assert!(abft.residual(&a).unwrap() < 1e-8);
    }
}
