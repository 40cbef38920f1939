//! Error type shared by the platform substrate.

use std::fmt;

/// Errors produced while building or querying platform descriptions.
#[derive(Debug, Clone, PartialEq)]
pub enum PlatformError {
    /// A parameter that must be strictly positive was zero or negative.
    NonPositiveParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// The value that was supplied.
        value: f64,
    },
    /// A process grid with zero rows or columns was requested.
    EmptyGrid,
    /// A rank outside the grid was referenced.
    RankOutOfRange {
        /// The rank that was referenced.
        rank: usize,
        /// Number of ranks actually available.
        size: usize,
    },
}

impl fmt::Display for PlatformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlatformError::NonPositiveParameter { name, value } => {
                write!(f, "parameter `{name}` must be > 0 (got {value})")
            }
            PlatformError::EmptyGrid => write!(f, "a process grid needs at least one row and one column"),
            PlatformError::RankOutOfRange { rank, size } => {
                write!(f, "rank {rank} out of range for {size} processes")
            }
        }
    }
}

impl std::error::Error for PlatformError {}

/// Convenience result alias for platform operations.
pub type Result<T> = std::result::Result<T, PlatformError>;

/// Checks that `value > 0`, returning a [`PlatformError::NonPositiveParameter`] otherwise.
pub fn ensure_positive(name: &'static str, value: f64) -> Result<f64> {
    if value > 0.0 && value.is_finite() {
        Ok(value)
    } else {
        Err(PlatformError::NonPositiveParameter { name, value })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn positive_accepts_positive() {
        assert_eq!(ensure_positive("x", 1.5).unwrap(), 1.5);
    }

    #[test]
    fn positive_rejects_zero_and_negative() {
        assert!(ensure_positive("x", 0.0).is_err());
        assert!(ensure_positive("x", -3.0).is_err());
        assert!(ensure_positive("x", f64::NAN).is_err());
        assert!(ensure_positive("x", f64::INFINITY).is_err());
    }

    #[test]
    fn error_messages_mention_parameter() {
        let err = ensure_positive("mtbf", -1.0).unwrap_err();
        assert!(err.to_string().contains("mtbf"));
    }
}
