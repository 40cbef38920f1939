//! Error type for the ABFT substrate.

use std::fmt;

/// Errors produced by the ABFT substrate.
#[derive(Debug, Clone, PartialEq)]
pub enum AbftError {
    /// Matrix dimensions do not allow the requested operation.
    DimensionMismatch {
        /// Description of the operation.
        op: &'static str,
        /// Dimensions of the left/first operand.
        left: (usize, usize),
        /// Dimensions of the right/second operand.
        right: (usize, usize),
    },
    /// An index was out of bounds.
    IndexOutOfBounds {
        /// The row index accessed.
        row: usize,
        /// The column index accessed.
        col: usize,
        /// The matrix dimensions.
        dims: (usize, usize),
    },
    /// A zero (or numerically negligible) pivot was encountered: the
    /// factorization cannot proceed without pivoting.
    SingularPivot {
        /// Elimination step at which the pivot vanished.
        step: usize,
        /// The pivot value.
        value: f64,
    },
    /// Recovery was asked for more simultaneous failures than the checksum
    /// encoding can tolerate.
    TooManyFailures {
        /// Number of failures requested.
        failed: usize,
        /// Number the encoding tolerates.
        tolerated: usize,
    },
    /// The checksum invariant does not hold (data corrupted beyond recovery,
    /// or verification tolerance exceeded).
    ChecksumViolation {
        /// Largest relative violation found.
        violation: f64,
        /// Tolerance used.
        tolerance: f64,
    },
    /// The referenced process rank does not exist in the grid.
    UnknownRank {
        /// The rank.
        rank: usize,
        /// Grid size.
        size: usize,
    },
    /// Recovery was attempted but no failure is pending.
    NothingToRecover,
}

impl fmt::Display for AbftError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AbftError::DimensionMismatch { op, left, right } => write!(
                f,
                "dimension mismatch in {op}: ({} x {}) vs ({} x {})",
                left.0, left.1, right.0, right.1
            ),
            AbftError::IndexOutOfBounds { row, col, dims } => write!(
                f,
                "index ({row}, {col}) out of bounds for a {} x {} matrix",
                dims.0, dims.1
            ),
            AbftError::SingularPivot { step, value } => {
                write!(f, "singular pivot {value:e} at elimination step {step}")
            }
            AbftError::TooManyFailures { failed, tolerated } => write!(
                f,
                "{failed} simultaneous failures requested but the encoding tolerates {tolerated}"
            ),
            AbftError::ChecksumViolation { violation, tolerance } => write!(
                f,
                "checksum invariant violated: relative error {violation:e} exceeds tolerance {tolerance:e}"
            ),
            AbftError::UnknownRank { rank, size } => {
                write!(f, "rank {rank} does not exist in a grid of {size} processes")
            }
            AbftError::NothingToRecover => write!(f, "no pending failure to recover from"),
        }
    }
}

impl std::error::Error for AbftError {}

/// Result alias for ABFT operations.
pub type Result<T> = std::result::Result<T, AbftError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = AbftError::SingularPivot { step: 3, value: 0.0 };
        assert!(e.to_string().contains('3'));
        let e = AbftError::TooManyFailures { failed: 2, tolerated: 1 };
        assert!(e.to_string().contains('2') && e.to_string().contains('1'));
    }
}
