//! 2-D block-cyclic distribution and the virtually-distributed matrix.
//!
//! A [`BlockCyclicLayout`] maps every matrix entry to the rank that owns it,
//! exactly like ScaLAPACK's data distribution.  A [`DistributedMatrix`] pairs
//! a global matrix with such a layout and knows how to *lose* the entries of
//! a failed rank — the substitution this reproduction makes for actual
//! distributed memory (see the crate documentation).

use ft_platform::grid::ProcessGrid;

use crate::error::{AbftError, Result};
use crate::matrix::Matrix;

/// 2-D block-cyclic ownership map.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockCyclicLayout {
    grid: ProcessGrid,
    nb: usize,
}

impl BlockCyclicLayout {
    /// Creates a layout over the given grid with square blocks of order `nb`.
    pub fn new(grid: ProcessGrid, nb: usize) -> Self {
        Self { grid, nb: nb.max(1) }
    }

    /// The process grid.
    pub fn grid(&self) -> &ProcessGrid {
        &self.grid
    }

    /// The block size.
    pub fn block_size(&self) -> usize {
        self.nb
    }

    /// Rank owning entry `(i, j)`.
    pub fn owner(&self, i: usize, j: usize) -> usize {
        let p = (i / self.nb) % self.grid.rows();
        let q = (j / self.nb) % self.grid.cols();
        self.grid.rank(p, q).expect("coordinates derived from the grid")
    }

    /// All entries of an `rows × cols` matrix owned by `rank`.
    pub fn entries_of(&self, rank: usize, rows: usize, cols: usize) -> Result<Vec<(usize, usize)>> {
        if rank >= self.grid.size() {
            return Err(AbftError::UnknownRank {
                rank,
                size: self.grid.size(),
            });
        }
        let (p, q) = self.grid.coords(rank).expect("checked above");
        let mut out = Vec::new();
        for i in 0..rows {
            if (i / self.nb) % self.grid.rows() != p {
                continue;
            }
            for j in 0..cols {
                if (j / self.nb) % self.grid.cols() == q {
                    out.push((i, j));
                }
            }
        }
        Ok(out)
    }
}

/// A global matrix together with its (virtual) distribution, able to simulate
/// the loss of one process's data.
#[derive(Debug, Clone, PartialEq)]
pub struct DistributedMatrix {
    data: Matrix,
    layout: BlockCyclicLayout,
    failed_ranks: Vec<usize>,
}

impl DistributedMatrix {
    /// Wraps a global matrix with a distribution.
    pub fn new(data: Matrix, layout: BlockCyclicLayout) -> Self {
        Self {
            data,
            layout,
            failed_ranks: Vec::new(),
        }
    }

    /// The global matrix (degraded entries read as zero after a failure).
    pub fn global(&self) -> &Matrix {
        &self.data
    }

    /// Mutable access to the global matrix.
    pub fn global_mut(&mut self) -> &mut Matrix {
        &mut self.data
    }

    /// The layout.
    pub fn layout(&self) -> &BlockCyclicLayout {
        &self.layout
    }

    /// Ranks that failed and have not been recovered yet.
    pub fn failed_ranks(&self) -> &[usize] {
        &self.failed_ranks
    }

    /// Whether some data is currently lost.
    pub fn is_degraded(&self) -> bool {
        !self.failed_ranks.is_empty()
    }

    /// Simulates the failure of `rank`: zeroes every entry it owns and
    /// records the rank as failed. Returns the lost entries.
    pub fn kill_rank(&mut self, rank: usize) -> Result<Vec<(usize, usize)>> {
        let lost = self
            .layout
            .entries_of(rank, self.data.rows(), self.data.cols())?;
        for &(i, j) in &lost {
            self.data.set(i, j, 0.0);
        }
        if !self.failed_ranks.contains(&rank) {
            self.failed_ranks.push(rank);
        }
        Ok(lost)
    }

    /// Marks `rank` as recovered (the caller is responsible for having
    /// rewritten its entries).
    pub fn mark_recovered(&mut self, rank: usize) {
        self.failed_ranks.retain(|&r| r != rank);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout_2x3(nb: usize) -> BlockCyclicLayout {
        BlockCyclicLayout::new(ProcessGrid::new(2, 3).unwrap(), nb)
    }

    #[test]
    fn ownership_is_a_partition() {
        let layout = layout_2x3(3);
        let (rows, cols) = (14, 17);
        let mut seen = vec![false; rows * cols];
        for rank in 0..6 {
            for (i, j) in layout.entries_of(rank, rows, cols).unwrap() {
                assert_eq!(layout.owner(i, j), rank);
                assert!(!seen[i * cols + j]);
                seen[i * cols + j] = true;
            }
        }
        assert!(seen.into_iter().all(|x| x));
        assert!(layout.entries_of(6, rows, cols).is_err());
    }

    #[test]
    fn block_cyclic_wraps_around() {
        // With nb = 2 and 3 process columns, columns 0-1 and 6-7 belong to
        // the same process column.
        let layout = layout_2x3(2);
        assert_eq!(layout.owner(0, 0), layout.owner(0, 6));
        assert_ne!(layout.owner(0, 0), layout.owner(0, 2));
        assert_eq!(layout.owner(0, 0), layout.owner(4, 0));
        assert_ne!(layout.owner(0, 0), layout.owner(2, 0));
    }

    #[test]
    fn local_counts_are_balanced_for_multiples() {
        // A 12 × 12 matrix with nb = 2 over 2 × 3 processes: each process
        // owns exactly 12*12/6 = 24 entries.
        let layout = layout_2x3(2);
        for rank in 0..6 {
            assert_eq!(layout.entries_of(rank, 12, 12).unwrap().len(), 24);
        }
    }

    #[test]
    fn kill_rank_zeroes_exactly_its_entries() {
        let layout = layout_2x3(2);
        let a = Matrix::random(12, 12, 5);
        let mut dm = DistributedMatrix::new(a.clone(), layout);
        assert!(!dm.is_degraded());
        let lost = dm.kill_rank(4).unwrap();
        assert!(dm.is_degraded());
        assert_eq!(dm.failed_ranks(), &[4]);
        assert_eq!(lost.len(), 24);
        for (i, j) in (0..12).flat_map(|i| (0..12).map(move |j| (i, j))) {
            if lost.contains(&(i, j)) {
                assert_eq!(dm.global().get(i, j), 0.0);
            } else {
                assert_eq!(dm.global().get(i, j), a.get(i, j));
            }
        }
        dm.mark_recovered(4);
        assert!(!dm.is_degraded());
    }
}
