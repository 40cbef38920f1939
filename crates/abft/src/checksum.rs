//! Block-group checksums: the ScaLAPACK-style scheme of Du et al.
//! (PPoPP 2012) used by the LU factorization and the protected dataset.
//!
//! Columns are grouped so that each group contains exactly one block column
//! per process column of the grid; one checksum column per *column class*
//! (position inside a block) accumulates the group sum.  A single process
//! failure then loses at most one member per group, which is recoverable
//! from the group sum.

/// The block-group column/row layout of the LU factorization and the
/// protected dataset.
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
