//! Checksum encodings and recovery arithmetic.
//!
//! Two flavours of checksums are used by the substrate:
//!
//! * **global weighted checksums** ([`ChecksumWeights`]): `k` weight vectors
//!   turn an `m × n` matrix into an `m × (n+k)` (column-encoded),
//!   `(m+k) × n` (row-encoded) or `(m+k) × (n+k)` (fully-encoded) matrix.
//!   They tolerate up to `k` simultaneous column (resp. row) erasures, which
//!   are recovered by solving a small `k × k` linear system per row (resp.
//!   column).  This is the classic Huang–Abraham scheme used by
//!   [`crate::gemm`].
//!
//! * **block-group checksums** ([`GroupMap`]): the ScaLAPACK-style scheme of
//!   Du et al. (PPoPP 2012) used by the factorizations.  Columns are grouped
//!   so that each group contains exactly one block column per process column
//!   of the grid; one checksum column per *column class* (position inside a
//!   block) accumulates the group sum.  A single process failure then loses
//!   at most one member per group, which is recoverable from the group sum.

use crate::error::{AbftError, Result};
use crate::matrix::Matrix;

/// A set of `k` weight vectors of length `n`, defining a checksum encoding
/// that tolerates up to `k` simultaneous erasures.
#[derive(Debug, Clone, PartialEq)]
pub struct ChecksumWeights {
    k: usize,
    n: usize,
    /// `k × n` weight matrix.
    weights: Matrix,
}

impl ChecksumWeights {
    /// Single checksum vector of all ones (tolerates one erasure).
    pub fn ones(n: usize) -> Self {
        Self {
            k: 1,
            n,
            weights: Matrix::from_vec(1, n, vec![1.0; n]).expect("shape"),
        }
    }

    /// Two checksum vectors — all ones and `1, 2, …, n` — tolerating two
    /// simultaneous erasures (the weights of the original Huang–Abraham
    /// paper).
    pub fn ones_and_linear(n: usize) -> Self {
        let mut data = vec![1.0; n];
        data.extend((0..n).map(|j| (j + 1) as f64));
        Self {
            k: 2,
            n,
            weights: Matrix::from_vec(2, n, data).expect("shape"),
        }
    }

    /// Number of checksum vectors (erasures tolerated).
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Length of the weight vectors.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// The weight applied to column/row `j` by checksum vector `r`.
    #[inline]
    pub fn weight(&self, r: usize, j: usize) -> f64 {
        self.weights.get(r, j)
    }

    /// The `k × n` weight matrix.
    pub fn matrix(&self) -> &Matrix {
        &self.weights
    }
}

/// Appends `k` checksum columns to `a`: the result is `[A, A Wᵀ]`.
pub fn encode_columns(a: &Matrix, w: &ChecksumWeights) -> Result<Matrix> {
    if w.n() != a.cols() {
        return Err(AbftError::DimensionMismatch {
            op: "encode_columns",
            left: (a.rows(), a.cols()),
            right: (w.k(), w.n()),
        });
    }
    let mut out = Matrix::zeros(a.rows(), a.cols() + w.k());
    out.set_block(0, 0, a)?;
    for i in 0..a.rows() {
        for r in 0..w.k() {
            let mut acc = 0.0;
            for j in 0..a.cols() {
                acc += w.weight(r, j) * a.get(i, j);
            }
            out.set(i, a.cols() + r, acc);
        }
    }
    Ok(out)
}

/// Appends `k` checksum rows to `a`: the result is `[A; W A]`.
pub fn encode_rows(a: &Matrix, w: &ChecksumWeights) -> Result<Matrix> {
    if w.n() != a.rows() {
        return Err(AbftError::DimensionMismatch {
            op: "encode_rows",
            left: (a.rows(), a.cols()),
            right: (w.k(), w.n()),
        });
    }
    let mut out = Matrix::zeros(a.rows() + w.k(), a.cols());
    out.set_block(0, 0, a)?;
    for j in 0..a.cols() {
        for r in 0..w.k() {
            let mut acc = 0.0;
            for i in 0..a.rows() {
                acc += w.weight(r, i) * a.get(i, j);
            }
            out.set(a.rows() + r, j, acc);
        }
    }
    Ok(out)
}

/// Fully encodes `a`: `[[A, A Wcᵀ], [Wr A, Wr A Wcᵀ]]`.
pub fn encode_full(a: &Matrix, wr: &ChecksumWeights, wc: &ChecksumWeights) -> Result<Matrix> {
    let cols_done = encode_columns(a, wc)?;
    // Row weights must cover the original rows; the checksum rows of the
    // fully-encoded matrix also cover the checksum columns, which falls out
    // of encoding the column-extended matrix with row weights extended by
    // zeros... simpler: encode rows of the column-encoded matrix using the
    // same row weights (they apply to the original row indices only).
    if wr.n() != a.rows() {
        return Err(AbftError::DimensionMismatch {
            op: "encode_full",
            left: (a.rows(), a.cols()),
            right: (wr.k(), wr.n()),
        });
    }
    let mut out = Matrix::zeros(a.rows() + wr.k(), a.cols() + wc.k());
    out.set_block(0, 0, &cols_done)?;
    for j in 0..cols_done.cols() {
        for r in 0..wr.k() {
            let mut acc = 0.0;
            for i in 0..a.rows() {
                acc += wr.weight(r, i) * cols_done.get(i, j);
            }
            out.set(a.rows() + r, j, acc);
        }
    }
    Ok(out)
}

/// Verifies the column-checksum invariant of a column-encoded matrix whose
/// first `n` columns are data.  Returns the largest relative violation, or an
/// error if it exceeds `tol`.
pub fn verify_columns(encoded: &Matrix, n: usize, w: &ChecksumWeights, tol: f64) -> Result<f64> {
    let mut worst = 0.0_f64;
    for i in 0..encoded.rows() {
        for r in 0..w.k() {
            let mut acc = 0.0;
            let mut scale = 1.0_f64;
            for j in 0..n {
                let v = w.weight(r, j) * encoded.get(i, j);
                acc += v;
                scale = scale.max(v.abs());
            }
            let stored = encoded.get(i, n + r);
            scale = scale.max(stored.abs());
            let violation = (acc - stored).abs() / scale.max(1.0);
            worst = worst.max(violation);
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

/// Recovers up to `k` erased *columns* of a column-encoded matrix in place.
///
/// `lost` lists the erased data-column indices (all `< n`); their current
/// contents are ignored and rewritten.  For every row a `|lost| × |lost|`
/// linear system in the erased values is solved from the checksum columns.
pub fn recover_columns(
    encoded: &mut Matrix,
    n: usize,
    w: &ChecksumWeights,
    lost: &[usize],
) -> Result<()> {
    if lost.is_empty() {
        return Err(AbftError::NothingToRecover);
    }
    if lost.len() > w.k() {
        return Err(AbftError::TooManyFailures {
            failed: lost.len(),
            tolerated: w.k(),
        });
    }
    let m = lost.len();
    // Coefficient matrix: rows = checksum vectors (first m of them),
    // cols = lost columns.
    let mut coeffs = vec![0.0; m * m];
    for (r, row) in coeffs.chunks_mut(m).enumerate() {
        for (c, &j) in lost.iter().enumerate() {
            row[c] = w.weight(r, j);
        }
    }
    for i in 0..encoded.rows() {
        let mut rhs = vec![0.0; m];
        for (r, rhs_r) in rhs.iter_mut().enumerate() {
            let mut acc = encoded.get(i, n + r);
            for j in 0..n {
                if !lost.contains(&j) {
                    acc -= w.weight(r, j) * encoded.get(i, j);
                }
            }
            *rhs_r = acc;
        }
        let solution = solve_small(&coeffs, &rhs, m)?;
        for (c, &j) in lost.iter().enumerate() {
            encoded.set(i, j, solution[c]);
        }
    }
    Ok(())
}

/// Recovers up to `k` erased *rows* of a row-encoded matrix in place.
pub fn recover_rows(
    encoded: &mut Matrix,
    m_rows: usize,
    w: &ChecksumWeights,
    lost: &[usize],
) -> Result<()> {
    if lost.is_empty() {
        return Err(AbftError::NothingToRecover);
    }
    if lost.len() > w.k() {
        return Err(AbftError::TooManyFailures {
            failed: lost.len(),
            tolerated: w.k(),
        });
    }
    let m = lost.len();
    let mut coeffs = vec![0.0; m * m];
    for (r, row) in coeffs.chunks_mut(m).enumerate() {
        for (c, &i) in lost.iter().enumerate() {
            row[c] = w.weight(r, i);
        }
    }
    for j in 0..encoded.cols() {
        let mut rhs = vec![0.0; m];
        for (r, rhs_r) in rhs.iter_mut().enumerate() {
            let mut acc = encoded.get(m_rows + r, j);
            for i in 0..m_rows {
                if !lost.contains(&i) {
                    acc -= w.weight(r, i) * encoded.get(i, j);
                }
            }
            *rhs_r = acc;
        }
        let solution = solve_small(&coeffs, &rhs, m)?;
        for (c, &i) in lost.iter().enumerate() {
            encoded.set(i, j, solution[c]);
        }
    }
    Ok(())
}

/// Solves a small dense linear system by Gaussian elimination with partial
/// pivoting. `a` is `m × m` row-major, `b` has length `m`.
fn solve_small(a: &[f64], b: &[f64], m: usize) -> Result<Vec<f64>> {
    let mut a = a.to_vec();
    let mut b = b.to_vec();
    for col in 0..m {
        // Pivot.
        let (pivot_row, pivot_val) = (col..m)
            .map(|r| (r, a[r * m + col].abs()))
            .max_by(|x, y| x.1.total_cmp(&y.1))
            .expect("non-empty range");
        if pivot_val < 1e-300 {
            return Err(AbftError::SingularPivot {
                step: col,
                value: pivot_val,
            });
        }
        if pivot_row != col {
            for j in 0..m {
                a.swap(col * m + j, pivot_row * m + j);
            }
            b.swap(col, pivot_row);
        }
        for r in col + 1..m {
            let factor = a[r * m + col] / a[col * m + col];
            for j in col..m {
                a[r * m + j] -= factor * a[col * m + j];
            }
            b[r] -= factor * b[col];
        }
    }
    let mut x = vec![0.0; m];
    for col in (0..m).rev() {
        let mut acc = b[col];
        for j in col + 1..m {
            acc -= a[col * m + j] * x[j];
        }
        x[col] = acc / a[col * m + col];
    }
    Ok(x)
}

/// The block-group column/row layout used by the factorizations.
///
/// Entry index `j` belongs to block `J = j / nb`, which belongs to group
/// `g = J / q` (one block per process column in each group); its *class* is
/// `j % nb`.  The checksum storage reserves `nb` columns per group; the
/// checksum column protecting `j` is `g * nb + (j % nb)` (relative to the
/// start of the checksum region).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupMap {
    /// Extent of the indexed dimension (number of data columns or rows).
    pub n: usize,
    /// Block size.
    pub nb: usize,
    /// Number of processes along the dimension (grid columns for a column
    /// map, grid rows for a row map).
    pub procs: usize,
}

impl GroupMap {
    /// Creates a group map.
    pub fn new(n: usize, nb: usize, procs: usize) -> Self {
        Self {
            n,
            nb: nb.max(1),
            procs: procs.max(1),
        }
    }

    /// Number of blocks along the dimension.
    pub fn num_blocks(&self) -> usize {
        self.n.div_ceil(self.nb)
    }

    /// Number of groups (each spanning `procs` blocks).
    pub fn num_groups(&self) -> usize {
        self.num_blocks().div_ceil(self.procs)
    }

    /// Number of checksum columns/rows required (`nb` per group).
    pub fn checksum_extent(&self) -> usize {
        self.num_groups() * self.nb
    }

    /// Block index of entry `j`.
    pub fn block_of(&self, j: usize) -> usize {
        j / self.nb
    }

    /// Group index of entry `j`.
    pub fn group_of(&self, j: usize) -> usize {
        self.block_of(j) / self.procs
    }

    /// Process (along this dimension) owning entry `j` under the block-cyclic
    /// distribution.
    pub fn owner_of(&self, j: usize) -> usize {
        self.block_of(j) % self.procs
    }

    /// Offset (within the checksum region) of the checksum column/row that
    /// protects entry `j`.
    pub fn checksum_index(&self, j: usize) -> usize {
        self.group_of(j) * self.nb + (j % self.nb)
    }

    /// The other data entries protected by the same checksum as `j`
    /// (same group, same class, different block).
    pub fn partners(&self, j: usize) -> Vec<usize> {
        let g = self.group_of(j);
        let class = j % self.nb;
        (0..self.procs)
            .map(|b| (g * self.procs + b) * self.nb + class)
            .filter(|&p| p != j && p < self.n)
            .collect()
    }

    /// All data entries owned by process `p` along this dimension.
    pub fn entries_of(&self, p: usize) -> Vec<usize> {
        (0..self.n).filter(|&j| self.owner_of(j) == p).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weights_constructors() {
        let w = ChecksumWeights::ones(4);
        assert_eq!((w.k(), w.n()), (1, 4));
        assert_eq!(w.weight(0, 3), 1.0);
        let w = ChecksumWeights::ones_and_linear(4);
        assert_eq!(w.k(), 2);
        assert_eq!(w.weight(1, 0), 1.0);
        assert_eq!(w.weight(1, 3), 4.0);
    }

    #[test]
    fn encode_columns_appends_weighted_sums() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let w = ChecksumWeights::ones(3);
        let e = encode_columns(&a, &w).unwrap();
        assert_eq!((e.rows(), e.cols()), (2, 4));
        assert_eq!(e.get(0, 3), 6.0);
        assert_eq!(e.get(1, 3), 15.0);
        assert!(verify_columns(&e, 3, &w, 1e-12).is_ok());
    }

    #[test]
    fn encode_rows_appends_weighted_sums() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let w = ChecksumWeights::ones_and_linear(2);
        let e = encode_rows(&a, &w).unwrap();
        assert_eq!((e.rows(), e.cols()), (4, 2));
        // ones row
        assert_eq!(e.get(2, 0), 4.0);
        assert_eq!(e.get(2, 1), 6.0);
        // linear row: 1*a0j + 2*a1j
        assert_eq!(e.get(3, 0), 7.0);
        assert_eq!(e.get(3, 1), 10.0);
    }

    #[test]
    fn dimension_mismatches_are_caught() {
        let a = Matrix::zeros(3, 4);
        let w = ChecksumWeights::ones(5);
        assert!(encode_columns(&a, &w).is_err());
        assert!(encode_rows(&a, &w).is_err());
    }

    #[test]
    fn single_column_recovery_is_exact() {
        let a = Matrix::random(8, 6, 42);
        let w = ChecksumWeights::ones(6);
        let mut e = encode_columns(&a, &w).unwrap();
        // Erase column 2.
        for i in 0..8 {
            e.set(i, 2, f64::NAN);
        }
        recover_columns(&mut e, 6, &w, &[2]).unwrap();
        let recovered = e.block(0, 8, 0, 6).unwrap();
        assert!(recovered.approx_eq(&a, 1e-10));
    }

    #[test]
    fn double_column_recovery_with_two_weights() {
        let a = Matrix::random(5, 7, 13);
        let w = ChecksumWeights::ones_and_linear(7);
        let mut e = encode_columns(&a, &w).unwrap();
        for i in 0..5 {
            e.set(i, 1, 0.0);
            e.set(i, 4, 0.0);
        }
        recover_columns(&mut e, 7, &w, &[1, 4]).unwrap();
        assert!(e.block(0, 5, 0, 7).unwrap().approx_eq(&a, 1e-9));
    }

    #[test]
    fn too_many_failures_are_rejected() {
        let a = Matrix::random(3, 5, 1);
        let w = ChecksumWeights::ones(5);
        let mut e = encode_columns(&a, &w).unwrap();
        assert!(matches!(
            recover_columns(&mut e, 5, &w, &[0, 1]),
            Err(AbftError::TooManyFailures { failed: 2, tolerated: 1 })
        ));
        assert!(matches!(
            recover_columns(&mut e, 5, &w, &[]),
            Err(AbftError::NothingToRecover)
        ));
    }

    #[test]
    fn row_recovery_is_exact() {
        let a = Matrix::random(6, 4, 21);
        let w = ChecksumWeights::ones_and_linear(6);
        let mut e = encode_rows(&a, &w).unwrap();
        for j in 0..4 {
            e.set(3, j, -1.0);
            e.set(5, j, -1.0);
        }
        recover_rows(&mut e, 6, &w, &[3, 5]).unwrap();
        assert!(e.block(0, 6, 0, 4).unwrap().approx_eq(&a, 1e-9));
    }

    #[test]
    fn verify_detects_corruption() {
        let a = Matrix::random(4, 4, 3);
        let w = ChecksumWeights::ones(4);
        let mut e = encode_columns(&a, &w).unwrap();
        assert!(verify_columns(&e, 4, &w, 1e-10).is_ok());
        e.set(2, 1, e.get(2, 1) + 1.0);
        assert!(matches!(
            verify_columns(&e, 4, &w, 1e-10),
            Err(AbftError::ChecksumViolation { .. })
        ));
    }

    #[test]
    fn full_encoding_checks_both_directions() {
        let a = Matrix::random(3, 4, 9);
        let wr = ChecksumWeights::ones(3);
        let wc = ChecksumWeights::ones(4);
        let e = encode_full(&a, &wr, &wc).unwrap();
        assert_eq!((e.rows(), e.cols()), (4, 5));
        // Bottom-right corner = total sum of A.
        let total: f64 = a.data().iter().sum();
        assert!((e.get(3, 4) - total).abs() < 1e-10);
    }

    #[test]
    fn group_map_indexing() {
        // 12 columns, block size 2, 3 process columns → 6 blocks, 2 groups.
        let gm = GroupMap::new(12, 2, 3);
        assert_eq!(gm.num_blocks(), 6);
        assert_eq!(gm.num_groups(), 2);
        assert_eq!(gm.checksum_extent(), 4);
        assert_eq!(gm.block_of(5), 2);
        assert_eq!(gm.group_of(5), 0);
        assert_eq!(gm.owner_of(5), 2);
        assert_eq!(gm.checksum_index(5), 1);
        // Partners of column 5 (block 2, class 1, group 0): columns 1 and 3.
        assert_eq!(gm.partners(5), vec![1, 3]);
        // Column 7: block 3, group 1, class 1 → checksum index 3, partners 9, 11.
        assert_eq!(gm.checksum_index(7), 3);
        assert_eq!(gm.partners(7), vec![9, 11]);
    }

    #[test]
    fn group_map_ownership_partition() {
        let gm = GroupMap::new(20, 3, 2);
        let all: Vec<usize> = (0..2).flat_map(|p| gm.entries_of(p)).collect();
        let mut sorted = all.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<_>>());
        // A process never owns two entries protected by the same checksum.
        for p in 0..2 {
            let owned = gm.entries_of(p);
            for &j in &owned {
                for partner in gm.partners(j) {
                    assert_ne!(gm.owner_of(partner), p, "j={j} partner={partner}");
                }
            }
        }
    }

    #[test]
    fn group_map_handles_ragged_tail() {
        // 10 columns, block 4, 2 procs → blocks of 4,4,2; groups: {0,1}, {2}.
        let gm = GroupMap::new(10, 4, 2);
        assert_eq!(gm.num_blocks(), 3);
        assert_eq!(gm.num_groups(), 2);
        assert_eq!(gm.checksum_extent(), 8);
        // Column 9 lives in block 2, group 1, class 1; it has no partner
        // (block 3 does not exist).
        assert_eq!(gm.partners(9), Vec::<usize>::new());
    }
}
