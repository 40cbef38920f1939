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
}
