//! Error type for the checkpoint substrate.

use std::fmt;

/// Errors produced by checkpoint construction, composition and restoration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CkptError {
    /// The referenced process rank does not exist in the process set.
    UnknownRank {
        /// The offending rank.
        rank: usize,
        /// The number of ranks in the process set.
        size: usize,
    },
    /// The referenced memory region does not exist on the process.
    UnknownRegion {
        /// Rank owning (or not) the region.
        rank: usize,
        /// Identifier of the missing region.
        region: usize,
    },
    /// A checkpoint was applied to a process set of a different shape than
    /// the one it was taken from.
    ShapeMismatch {
        /// Ranks covered by the checkpoint.
        checkpoint_ranks: usize,
        /// Ranks of the process set it was applied to.
        target_ranks: usize,
    },
    /// Two checkpoints combined position by position hold different ranks
    /// at the same position.
    RankMismatch {
        /// Position of the snapshot in both checkpoints.
        position: usize,
        /// Rank the base (or entry) checkpoint holds there.
        expected: usize,
        /// Rank the other checkpoint holds there.
        found: usize,
    },
    /// A split checkpoint was assembled from partial checkpoints that do not
    /// cover complementary datasets.
    IncompatiblePartials,
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptError::UnknownRank { rank, size } => {
                write!(f, "rank {rank} does not exist (process set has {size} ranks)")
            }
            CkptError::UnknownRegion { rank, region } => {
                write!(f, "region {region} does not exist on rank {rank}")
            }
            CkptError::ShapeMismatch {
                checkpoint_ranks,
                target_ranks,
            } => write!(
                f,
                "checkpoint covers {checkpoint_ranks} ranks but target process set has {target_ranks}"
            ),
            CkptError::RankMismatch {
                position,
                expected,
                found,
            } => write!(
                f,
                "snapshot {position} holds rank {found} where rank {expected} was expected"
            ),
            CkptError::IncompatiblePartials => {
                write!(f, "partial checkpoints do not cover complementary datasets")
            }
        }
    }
}

impl std::error::Error for CkptError {}

/// Result alias for checkpoint operations.
pub type Result<T> = std::result::Result<T, CkptError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_informative() {
        let e = CkptError::UnknownRank { rank: 9, size: 4 };
        assert!(e.to_string().contains('9'));
        assert!(e.to_string().contains('4'));
        let e = CkptError::ShapeMismatch {
            checkpoint_ranks: 2,
            target_ranks: 3,
        };
        assert!(e.to_string().contains('2') && e.to_string().contains('3'));
        let e = CkptError::RankMismatch {
            position: 1,
            expected: 5,
            found: 7,
        };
        assert!(
            e.to_string().contains('1')
                && e.to_string().contains('5')
                && e.to_string().contains('7')
        );
    }
}
