//! Dense row-major `f64` matrices.
//!
//! Deliberately minimal: only the operations the LU factorization, the
//! protected dataset and their tests need.  The multiplication kernel is
//! tiled into register-blocked micro-kernels (see [`Matrix::matmul`]) and
//! parallelises over row blocks with Rayon when the matrix is large enough
//! for that to pay off (the crate-internal `PAR_THRESHOLD`, shared with the
//! blocked LU).

use ft_platform::rng::{DeterministicRng, Xoshiro256};
use rayon::prelude::*;

use crate::error::{AbftError, Result};

/// Threshold (in total elements of the result) above which matrix
/// multiplication — and the blocked-LU trailing update — parallelise with
/// Rayon.
pub(crate) const PAR_THRESHOLD: usize = 64 * 64;

/// Output rows processed per parallel work item of the tiled `matmul`.
const ROW_BLOCK: usize = 16;

/// Rows per micro-tile of the tiled `matmul` kernel.
const MR: usize = 4;

/// Columns per micro-tile of the tiled `matmul` kernel (two cache lines).
const NR: usize = 8;

/// A dense row-major matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from a row-major data vector.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(AbftError::DimensionMismatch {
                op: "from_vec",
                left: (rows, cols),
                right: (data.len(), 1),
            });
        }
        Ok(Self { rows, cols, data })
    }

    /// Creates an identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Creates a matrix with entries drawn uniformly from `[-1, 1)`,
    /// deterministically from the seed.
    pub fn random(rows: usize, cols: usize, seed: u64) -> Self {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let data = (0..rows * cols).map(|_| rng.uniform(-1.0, 1.0)).collect();
        Self { rows, cols, data }
    }

    /// Creates a random diagonally-dominant matrix, guaranteed to admit an
    /// LU factorization without pivoting.
    pub fn random_diagonally_dominant(n: usize, seed: u64) -> Self {
        let mut m = Self::random(n, n, seed);
        for i in 0..n {
            let row_sum: f64 = (0..n).map(|j| m.get(i, j).abs()).sum();
            m.set(i, i, row_sum + 1.0);
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Raw row-major data.
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw row-major data (used by the blocked in-place kernels).
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Element access (panics in debug if out of bounds).
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j]
    }

    /// Element assignment.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j] = v;
    }

    /// In-place element update.
    #[inline]
    pub fn add_to(&mut self, i: usize, j: usize, v: f64) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j] += v;
    }

    /// Matrix multiplication `self * rhs`, tiled into 4×8 (`MR × NR`)
    /// micro-kernels: each micro-tile of the result accumulates in a local
    /// register block over the whole `k` range, streaming an `NR`-column
    /// slab of `rhs` that stays L1-resident across the tile's rows.  The
    /// naive kernel re-loads and re-stores every output element once per
    /// `k`; the micro-kernel amortises those stores over the full dot
    /// product, which is worth several× in throughput.  Large products
    /// additionally parallelise over row blocks.
    ///
    /// Per output entry the `k`-accumulation order is unchanged, so the
    /// result is bit-identical to [`Matrix::matmul_naive`].
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.cols != rhs.rows {
            return Err(AbftError::DimensionMismatch {
                op: "matmul",
                left: (self.rows, self.cols),
                right: (rhs.rows, rhs.cols),
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        let n = self.cols;
        let rcols = rhs.cols;
        let compute_block = |(block, out_rows): (usize, &mut [f64])| {
            let row0 = block * ROW_BLOCK;
            let nrows = out_rows.len() / rcols.max(1);
            let mut r = 0;
            while r < nrows {
                let mr = MR.min(nrows - r);
                let mut jb = 0;
                while jb < rcols {
                    let nr = NR.min(rcols - jb);
                    if mr == MR && nr == NR {
                        // Full-tile fast path: every loop bound is a
                        // compile-time constant, so the accumulator block
                        // stays in vector registers and the inner loop
                        // unrolls into pure FMAs.
                        let a_rows: [&[f64]; MR] = std::array::from_fn(|ri| {
                            &self.data[(row0 + r + ri) * n..(row0 + r + ri + 1) * n]
                        });
                        let mut acc = [[0.0f64; NR]; MR];
                        // Index-based on purpose: constant bounds let the
                        // whole k-iteration unroll into register FMAs.
                        #[allow(clippy::needless_range_loop)]
                        for k in 0..n {
                            let b_row: &[f64; NR] = rhs.data
                                [k * rcols + jb..k * rcols + jb + NR]
                                .try_into()
                                .expect("full tile");
                            for ri in 0..MR {
                                let aik = a_rows[ri][k];
                                for j in 0..NR {
                                    acc[ri][j] += aik * b_row[j];
                                }
                            }
                        }
                        for (ri, acc_row) in acc.iter().enumerate() {
                            let base = (r + ri) * rcols + jb;
                            out_rows[base..base + NR].copy_from_slice(acc_row);
                        }
                    } else {
                        // Ragged edge tiles: same algorithm, dynamic bounds.
                        let mut acc = [[0.0f64; NR]; MR];
                        for k in 0..n {
                            let b_row = &rhs.data[k * rcols + jb..k * rcols + jb + nr];
                            for (ri, acc_row) in acc.iter_mut().enumerate().take(mr) {
                                let aik = self.data[(row0 + r + ri) * n + k];
                                if aik == 0.0 {
                                    continue;
                                }
                                for (a, &bkj) in acc_row.iter_mut().zip(b_row) {
                                    *a += aik * bkj;
                                }
                            }
                        }
                        for (ri, acc_row) in acc.iter().enumerate().take(mr) {
                            let base = (r + ri) * rcols + jb;
                            out_rows[base..base + nr].copy_from_slice(&acc_row[..nr]);
                        }
                    }
                    jb += nr;
                }
                r += mr;
            }
        };
        if self.rows * rcols >= PAR_THRESHOLD {
            out.data
                .par_chunks_mut(ROW_BLOCK * rcols)
                .enumerate()
                .for_each(compute_block);
        } else {
            out.data
                .chunks_mut(ROW_BLOCK * rcols)
                .enumerate()
                .for_each(compute_block);
        }
        Ok(out)
    }

    /// The untiled reference multiplication kernel: one pass over the whole
    /// right-hand side per output row.  Kept as the before/after baseline of
    /// the `abft_factorization` bench and as an oracle for the tiled kernel.
    pub fn matmul_naive(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.cols != rhs.rows {
            return Err(AbftError::DimensionMismatch {
                op: "matmul_naive",
                left: (self.rows, self.cols),
                right: (rhs.rows, rhs.cols),
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        let n = self.cols;
        let rcols = rhs.cols;
        for (i, out_row) in out.data.chunks_mut(rcols).enumerate() {
            let a_row = &self.data[i * n..(i + 1) * n];
            for (k, &aik) in a_row.iter().enumerate() {
                if aik == 0.0 {
                    continue;
                }
                let b_row = &rhs.data[k * rcols..(k + 1) * rcols];
                for (j, &bkj) in b_row.iter().enumerate() {
                    out_row[j] += aik * bkj;
                }
            }
        }
        Ok(out)
    }

    /// Element-wise difference `self - rhs`.
    pub fn sub(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.rows != rhs.rows || self.cols != rhs.cols {
            return Err(AbftError::DimensionMismatch {
                op: "sub",
                left: (self.rows, self.cols),
                right: (rhs.rows, rhs.cols),
            });
        }
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a - b)
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Largest absolute entry.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |acc, x| acc.max(x.abs()))
    }

    /// Writes a block into `[r0, ...) × [c0, ...)`.
    pub fn set_block(&mut self, r0: usize, c0: usize, block: &Matrix) -> Result<()> {
        if r0 + block.rows > self.rows || c0 + block.cols > self.cols {
            return Err(AbftError::IndexOutOfBounds {
                row: r0 + block.rows,
                col: c0 + block.cols,
                dims: (self.rows, self.cols),
            });
        }
        for i in 0..block.rows {
            for j in 0..block.cols {
                self.set(r0 + i, c0 + j, block.get(i, j));
            }
        }
        Ok(())
    }

    /// Extracts the unit-lower-triangular factor stored in an in-place LU
    /// storage of size `n × n` (ignores any extra checksum rows/columns).
    pub fn extract_unit_lower(&self, n: usize) -> Matrix {
        let mut l = Matrix::identity(n);
        for i in 0..n {
            for j in 0..i.min(n) {
                l.set(i, j, self.get(i, j));
            }
        }
        l
    }

    /// Extracts the upper-triangular factor stored in an in-place LU storage
    /// of size `n × n`.
    pub fn extract_upper(&self, n: usize) -> Matrix {
        let mut u = Matrix::zeros(n, n);
        for i in 0..n {
            for j in i..n {
                u.set(i, j, self.get(i, j));
            }
        }
        u
    }

    /// Maximum absolute difference with another matrix of the same shape.
    pub fn max_abs_diff(&self, rhs: &Matrix) -> Result<f64> {
        Ok(self.sub(rhs)?.max_abs())
    }

    /// `true` if the two matrices agree entry-wise within `tol` (absolute).
    pub fn approx_eq(&self, rhs: &Matrix, tol: f64) -> bool {
        self.rows == rhs.rows
            && self.cols == rhs.cols
            && self
                .data
                .iter()
                .zip(&rhs.data)
                .all(|(a, b)| (a - b).abs() <= tol)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let mut m = Matrix::zeros(2, 3);
        assert_eq!((m.rows(), m.cols()), (2, 3));
        m.set(1, 2, 5.0);
        assert_eq!(m.get(1, 2), 5.0);
        assert!(Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]).is_err());
    }

    #[test]
    fn identity_times_anything_is_identity_map() {
        let a = Matrix::random(5, 5, 3);
        let i = Matrix::identity(5);
        let prod = i.matmul(&a).unwrap();
        assert!(prod.approx_eq(&a, 1e-12));
        let prod = a.matmul(&i).unwrap();
        assert!(prod.approx_eq(&a, 1e-12));
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]).unwrap();
        let c = a.matmul(&b).unwrap();
        let expected = Matrix::from_vec(2, 2, vec![58.0, 64.0, 139.0, 154.0]).unwrap();
        assert!(c.approx_eq(&expected, 1e-12));
        assert!(a.matmul(&a).is_err());
    }

    #[test]
    fn parallel_and_serial_matmul_agree() {
        // A size above the parallel threshold.
        let a = Matrix::random(80, 70, 1);
        let b = Matrix::random(70, 90, 2);
        let c = a.matmul(&b).unwrap();
        // Recompute serially by hand.
        let mut expected = Matrix::zeros(80, 90);
        for i in 0..80 {
            for k in 0..70 {
                for j in 0..90 {
                    expected.add_to(i, j, a.get(i, k) * b.get(k, j));
                }
            }
        }
        assert!(c.approx_eq(&expected, 1e-9));
    }

    #[test]
    fn tiled_matmul_matches_the_naive_kernel_bit_for_bit() {
        // The tiling only reorders *which row consumes which panel when*;
        // for any single output entry the k-accumulation order is unchanged,
        // so tiled and naive results are identical to the last bit.  Cover
        // ragged sizes around the tile edge and the parallel threshold.
        for (m, k, p, seed) in [
            (5usize, 3usize, 4usize, 1u64),
            (63, 65, 64, 2),
            (64, 64, 64, 3),
            (100, 130, 70, 4),
            (129, 64, 127, 5),
        ] {
            let a = Matrix::random(m, k, seed);
            let b = Matrix::random(k, p, seed + 100);
            let tiled = a.matmul(&b).unwrap();
            let naive = a.matmul_naive(&b).unwrap();
            assert_eq!(tiled.data(), naive.data(), "{m}x{k}x{p}");
        }
        assert!(Matrix::zeros(2, 3).matmul_naive(&Matrix::zeros(2, 3)).is_err());
    }

    #[test]
    fn set_block_writes_in_place_and_rejects_overflow() {
        let blk = Matrix::random(3, 3, 9);
        let mut b = Matrix::zeros(6, 6);
        b.set_block(1, 2, &blk).unwrap();
        assert_eq!(b.get(2, 3), blk.get(1, 1));
        assert_eq!(b.get(0, 2), 0.0);
        assert!(Matrix::zeros(2, 2).set_block(1, 1, &blk).is_err());
    }

    #[test]
    fn diagonally_dominant_matrices_are_diagonally_dominant() {
        let m = Matrix::random_diagonally_dominant(20, 77);
        for i in 0..20 {
            let off: f64 = (0..20).filter(|&j| j != i).map(|j| m.get(i, j).abs()).sum();
            assert!(m.get(i, i).abs() > off);
        }
    }

    #[test]
    fn norms_behave() {
        let m = Matrix::from_vec(2, 2, vec![3.0, 0.0, 4.0, 0.0]).unwrap();
        assert_eq!(m.max_abs(), 4.0);
        assert_eq!(m.max_abs_diff(&m).unwrap(), 0.0);
    }

    #[test]
    fn lu_factor_extraction_helpers() {
        // In-place storage [[2, 3], [0.5, 4]] means L = [[1,0],[0.5,1]], U = [[2,3],[0,4]].
        let storage = Matrix::from_vec(2, 2, vec![2.0, 3.0, 0.5, 4.0]).unwrap();
        let l = storage.extract_unit_lower(2);
        let u = storage.extract_upper(2);
        assert_eq!(l.get(0, 0), 1.0);
        assert_eq!(l.get(1, 0), 0.5);
        assert_eq!(l.get(0, 1), 0.0);
        assert_eq!(u.get(1, 0), 0.0);
        assert_eq!(u.get(1, 1), 4.0);
        let a = l.matmul(&u).unwrap();
        assert!((a.get(1, 0) - 1.0).abs() < 1e-12);
        assert!((a.get(1, 1) - 5.5).abs() < 1e-12);
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        assert_eq!(Matrix::random(3, 3, 5), Matrix::random(3, 3, 5));
        assert_ne!(Matrix::random(3, 3, 5), Matrix::random(3, 3, 6));
    }
}
