//! Virtual 2-D process grid.
//!
//! The ABFT substrate distributes matrices over a `P × Q` grid of virtual
//! processes, exactly like ScaLAPACK's BLACS grid, and the failure-injection
//! machinery kills one grid member at a time.  No real processes exist —
//! the grid is a pure indexing structure — which is the substitution this
//! reproduction makes for MPI ranks (see DESIGN.md §2).

use crate::error::{PlatformError, Result};

/// A `rows × cols` grid of virtual processes, ranks numbered row-major.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcessGrid {
    rows: usize,
    cols: usize,
}

impl ProcessGrid {
    /// Creates a grid with the given number of process rows and columns.
    pub fn new(rows: usize, cols: usize) -> Result<Self> {
        if rows == 0 || cols == 0 {
            return Err(PlatformError::EmptyGrid);
        }
        Ok(Self { rows, cols })
    }

    /// Creates the most-square grid containing exactly `n` processes
    /// (`rows ≤ cols`, `rows × cols = n`).
    pub fn squarest(n: usize) -> Result<Self> {
        if n == 0 {
            return Err(PlatformError::EmptyGrid);
        }
        let mut rows = (n as f64).sqrt().floor() as usize;
        while rows > 1 && !n.is_multiple_of(rows) {
            rows -= 1;
        }
        let rows = rows.max(1);
        Ok(Self { rows, cols: n / rows })
    }

    /// Number of process rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of process columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of processes.
    #[inline]
    pub fn size(&self) -> usize {
        self.rows * self.cols
    }

    /// Grid coordinates `(p, q)` of a rank.
    pub fn coords(&self, rank: usize) -> Result<(usize, usize)> {
        if rank >= self.size() {
            return Err(PlatformError::RankOutOfRange {
                rank,
                size: self.size(),
            });
        }
        Ok((rank / self.cols, rank % self.cols))
    }

    /// Rank of the process at grid coordinates `(p, q)`.
    pub fn rank(&self, p: usize, q: usize) -> Result<usize> {
        if p >= self.rows || q >= self.cols {
            return Err(PlatformError::RankOutOfRange {
                rank: p * self.cols + q,
                size: self.size(),
            });
        }
        Ok(p * self.cols + q)
    }

    /// All ranks in process row `p`.
    pub fn row_ranks(&self, p: usize) -> Result<Vec<usize>> {
        if p >= self.rows {
            return Err(PlatformError::RankOutOfRange {
                rank: p * self.cols,
                size: self.size(),
            });
        }
        Ok((0..self.cols).map(|q| p * self.cols + q).collect())
    }

    /// All ranks in process column `q`.
    pub fn col_ranks(&self, q: usize) -> Result<Vec<usize>> {
        if q >= self.cols {
            return Err(PlatformError::RankOutOfRange {
                rank: q,
                size: self.size(),
            });
        }
        Ok((0..self.rows).map(|p| p * self.cols + q).collect())
    }

    /// Iterator over all ranks.
    pub fn ranks(&self) -> impl Iterator<Item = usize> {
        0..self.size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_rejects_empty() {
        assert!(ProcessGrid::new(0, 3).is_err());
        assert!(ProcessGrid::new(3, 0).is_err());
        assert!(ProcessGrid::squarest(0).is_err());
    }

    #[test]
    fn coords_and_rank_are_inverse() {
        let g = ProcessGrid::new(3, 4).unwrap();
        for rank in g.ranks() {
            let (p, q) = g.coords(rank).unwrap();
            assert_eq!(g.rank(p, q).unwrap(), rank);
        }
        assert!(g.coords(12).is_err());
        assert!(g.rank(3, 0).is_err());
        assert!(g.rank(0, 4).is_err());
    }

    #[test]
    fn squarest_produces_exact_cover() {
        for n in 1..=64 {
            let g = ProcessGrid::squarest(n).unwrap();
            assert_eq!(g.size(), n, "n = {n}");
            assert!(g.rows() <= g.cols());
        }
        let g = ProcessGrid::squarest(12).unwrap();
        assert_eq!((g.rows(), g.cols()), (3, 4));
        let g = ProcessGrid::squarest(16).unwrap();
        assert_eq!((g.rows(), g.cols()), (4, 4));
        // Primes degrade to a 1 × n grid.
        let g = ProcessGrid::squarest(13).unwrap();
        assert_eq!((g.rows(), g.cols()), (1, 13));
    }

    #[test]
    fn row_and_col_ranks() {
        let g = ProcessGrid::new(2, 3).unwrap();
        assert_eq!(g.row_ranks(0).unwrap(), vec![0, 1, 2]);
        assert_eq!(g.row_ranks(1).unwrap(), vec![3, 4, 5]);
        assert_eq!(g.col_ranks(1).unwrap(), vec![1, 4]);
        assert!(g.row_ranks(2).is_err());
        assert!(g.col_ranks(3).is_err());
    }
}
