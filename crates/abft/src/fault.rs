//! Failure injection for the ABFT substrate.
//!
//! [`FaultInjector`] chooses victims (deterministically from a seed, or
//! scripted) and keeps a record of the injected failures, so that examples,
//! tests and the overhead-measurement harness can describe a failure
//! scenario once and replay it against any of the protected operations.

use ft_platform::grid::ProcessGrid;
use ft_platform::rng::{DeterministicRng, Xoshiro256};

use crate::error::{AbftError, Result};

/// A recorded injected failure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InjectedFault {
    /// Rank that was killed.
    pub rank: usize,
    /// Elimination step (or logical instant) at which it was killed.
    pub at_step: usize,
}

/// Chooses failure victims over a process grid.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    grid: ProcessGrid,
    rng: Xoshiro256,
    history: Vec<InjectedFault>,
}

impl FaultInjector {
    /// Creates an injector over the given grid, seeded deterministically.
    pub fn new(grid: ProcessGrid, seed: u64) -> Self {
        Self {
            grid,
            rng: Xoshiro256::seed_from_u64(seed),
            history: Vec::new(),
        }
    }

    /// The grid the injector targets.
    pub fn grid(&self) -> &ProcessGrid {
        &self.grid
    }

    /// Picks a uniformly random victim rank and records it.
    pub fn random_victim(&mut self, at_step: usize) -> usize {
        let rank = self.rng.index(self.grid.size());
        self.history.push(InjectedFault { rank, at_step });
        rank
    }

    /// Records a scripted failure of a specific rank.
    pub fn scripted(&mut self, rank: usize, at_step: usize) -> Result<usize> {
        if rank >= self.grid.size() {
            return Err(AbftError::UnknownRank {
                rank,
                size: self.grid.size(),
            });
        }
        self.history.push(InjectedFault { rank, at_step });
        Ok(rank)
    }

    /// The failures injected so far.
    pub fn history(&self) -> &[InjectedFault] {
        &self.history
    }

    /// Number of failures injected so far.
    pub fn count(&self) -> usize {
        self.history.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_victims_are_in_range_and_deterministic() {
        let grid = ProcessGrid::new(3, 4).unwrap();
        let mut a = FaultInjector::new(grid, 7);
        let mut b = FaultInjector::new(grid, 7);
        for step in 0..50 {
            let va = a.random_victim(step);
            let vb = b.random_victim(step);
            assert_eq!(va, vb);
            assert!(va < 12);
        }
        assert_eq!(a.count(), 50);
        assert_eq!(a.history()[0].at_step, 0);
    }

    #[test]
    fn scripted_failures_validate_the_rank() {
        let grid = ProcessGrid::new(2, 2).unwrap();
        let mut inj = FaultInjector::new(grid, 1);
        assert_eq!(inj.scripted(3, 10).unwrap(), 3);
        assert!(inj.scripted(4, 10).is_err());
        assert_eq!(inj.count(), 1);
    }

    #[test]
    fn different_seeds_give_different_sequences() {
        let grid = ProcessGrid::new(4, 4).unwrap();
        let mut a = FaultInjector::new(grid, 1);
        let mut b = FaultInjector::new(grid, 2);
        let sa: Vec<usize> = (0..20).map(|s| a.random_victim(s)).collect();
        let sb: Vec<usize> = (0..20).map(|s| b.random_victim(s)).collect();
        assert_ne!(sa, sb);
    }
}
