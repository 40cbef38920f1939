//! Partial checkpoints and the split checkpoint of the composite protocol.
//!
//! The composite protocol never takes a full checkpoint around a library
//! call.  Instead (paper §III-A):
//!
//! * entering the call, it captures only the **REMAINDER** dataset (the
//!   LIBRARY dataset will be recoverable through ABFT);
//! * leaving the call, it captures only the **LIBRARY** dataset (now holding
//!   the results of the call).
//!
//! The two *partial checkpoints* together form a **split checkpoint** which
//! is equivalent to a full coordinated checkpoint taken at the end of the
//! call — that is [`SplitCheckpoint::into_coordinated`].

use crate::coordinated::{CoordinatedCheckpoint, ProcessSnapshot, RegionSnapshot};
use crate::error::{CkptError, Result};
use crate::state::{DatasetKind, ProcessSet};

/// A checkpoint covering only one dataset of every process.
#[derive(Debug, Clone, PartialEq)]
pub struct PartialCheckpoint {
    /// Which dataset is covered.
    pub kind: DatasetKind,
    /// Application time at which the partial checkpoint was taken.
    pub time: f64,
    /// Per-process snapshots containing only regions of `kind`.
    pub snapshots: Vec<ProcessSnapshot>,
}

impl PartialCheckpoint {
    /// Captures the regions of `kind` on every process.
    pub fn capture(set: &ProcessSet, kind: DatasetKind, time: f64) -> Self {
        let snapshots = set
            .iter()
            .map(|p| ProcessSnapshot {
                rank: p.rank(),
                regions: p.regions_of(kind).map(RegionSnapshot::of).collect(),
                progress: p.progress(),
            })
            .collect();
        Self { kind, time, snapshots }
    }

    /// Number of processes covered.
    pub fn ranks(&self) -> usize {
        self.snapshots.len()
    }

    /// Captured volume in bytes.
    pub fn bytes(&self) -> usize {
        self.snapshots.iter().map(ProcessSnapshot::bytes).sum()
    }
}

/// The split checkpoint of the composite protocol: the entry partial
/// checkpoint (REMAINDER dataset, taken when entering the library call)
/// completed by the exit partial checkpoint (LIBRARY dataset, taken when the
/// call returns).
#[derive(Debug, Clone, PartialEq)]
pub struct SplitCheckpoint {
    /// REMAINDER-dataset checkpoint taken at library entry.
    pub entry: PartialCheckpoint,
    /// LIBRARY-dataset checkpoint taken at library exit.
    pub exit: PartialCheckpoint,
}

impl SplitCheckpoint {
    /// Assembles a split checkpoint, verifying that the two halves cover
    /// complementary datasets and the same ranks in the same order (the
    /// halves are combined position by position).
    pub fn new(entry: PartialCheckpoint, exit: PartialCheckpoint) -> Result<Self> {
        if entry.kind != DatasetKind::Remainder || exit.kind != DatasetKind::Library {
            return Err(CkptError::IncompatiblePartials);
        }
        if entry.ranks() != exit.ranks() {
            return Err(CkptError::ShapeMismatch {
                checkpoint_ranks: entry.ranks(),
                target_ranks: exit.ranks(),
            });
        }
        let pairs = entry.snapshots.iter().zip(&exit.snapshots);
        if let Some((position, (e, x))) = pairs.enumerate().find(|(_, (e, x))| e.rank != x.rank) {
            return Err(CkptError::RankMismatch {
                position,
                expected: e.rank,
                found: x.rank,
            });
        }
        Ok(Self { entry, exit })
    }

    /// Total volume of the split checkpoint in bytes.
    pub fn bytes(&self) -> usize {
        self.entry.bytes() + self.exit.bytes()
    }

    /// Combines the two halves into a complete coordinated checkpoint,
    /// timestamped at the exit time (the instant from which execution can
    /// resume after the library call).
    pub fn into_coordinated(self) -> CoordinatedCheckpoint {
        let time = self.exit.time;
        let mut snapshots: Vec<ProcessSnapshot> = Vec::with_capacity(self.entry.ranks());
        for (entry_snap, exit_snap) in self.entry.snapshots.into_iter().zip(self.exit.snapshots) {
            debug_assert_eq!(entry_snap.rank, exit_snap.rank);
            let mut regions = entry_snap.regions;
            regions.extend(exit_snap.regions);
            regions.sort_by_key(|r| r.region_id);
            snapshots.push(ProcessSnapshot {
                rank: exit_snap.rank,
                regions,
                // The REMAINDER dataset was captured at entry but is not
                // modified during the call, so the state as of `exit.time`
                // is the entry REMAINDER + exit LIBRARY + exit progress.
                progress: exit_snap.progress,
            });
        }
        CoordinatedCheckpoint { time, snapshots }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coordinated::CoordinatedCheckpoint;
    use crate::state::ProcessSet;

    #[test]
    fn partial_capture_covers_only_requested_dataset() {
        let set = ProcessSet::uniform(3, 100, 40);
        let lib = PartialCheckpoint::capture(&set, DatasetKind::Library, 1.0);
        let rem = PartialCheckpoint::capture(&set, DatasetKind::Remainder, 1.0);
        assert_eq!(lib.bytes(), 300);
        assert_eq!(rem.bytes(), 120);
        assert!(lib
            .snapshots
            .iter()
            .flat_map(|s| s.regions.iter())
            .all(|r| r.kind == DatasetKind::Library));
    }

    #[test]
    fn split_checkpoint_requires_complementary_datasets() {
        let set = ProcessSet::uniform(2, 10, 10);
        let lib = PartialCheckpoint::capture(&set, DatasetKind::Library, 1.0);
        let rem = PartialCheckpoint::capture(&set, DatasetKind::Remainder, 0.0);
        // Correct order: entry = remainder, exit = library.
        assert!(SplitCheckpoint::new(rem.clone(), lib.clone()).is_ok());
        // Swapped halves are rejected.
        assert_eq!(
            SplitCheckpoint::new(lib.clone(), rem.clone()).unwrap_err(),
            CkptError::IncompatiblePartials
        );
        // Same dataset twice is rejected.
        assert!(SplitCheckpoint::new(rem.clone(), rem).is_err());
    }

    #[test]
    fn split_checkpoint_equals_full_checkpoint_when_remainder_untouched() {
        // Scenario of §III-A: entry checkpoint (remainder), then the library
        // call modifies only the LIBRARY dataset, then exit checkpoint
        // (library). The combination must equal a full coordinated checkpoint
        // taken at exit time.
        let mut set = ProcessSet::uniform(3, 64, 32);
        let entry = PartialCheckpoint::capture(&set, DatasetKind::Remainder, 10.0);

        // Library call: mutate every LIBRARY region, leave REMAINDER alone.
        for p in set.iter_mut() {
            let lib_ids: Vec<usize> = p
                .regions_of(DatasetKind::Library)
                .map(|r| r.id)
                .collect();
            for id in lib_ids {
                p.region_mut(id).unwrap().update(|d| {
                    for b in d.iter_mut() {
                        *b = b.wrapping_add(42);
                    }
                });
            }
            p.advance(100.0);
        }

        let exit = PartialCheckpoint::capture(&set, DatasetKind::Library, 25.0);
        let split = SplitCheckpoint::new(entry, exit).unwrap();
        assert_eq!(split.bytes(), set.total_footprint());

        let combined = split.into_coordinated();
        let reference = CoordinatedCheckpoint::capture(&set, 25.0);
        assert_eq!(combined.time, 25.0);
        assert_eq!(combined.bytes(), reference.bytes());
        for (a, b) in combined.snapshots.iter().zip(reference.snapshots.iter()) {
            assert_eq!(a.rank, b.rank);
            assert_eq!(a.progress, b.progress);
            assert_eq!(a.regions.len(), b.regions.len());
            for (ra, rb) in a.regions.iter().zip(b.regions.iter()) {
                assert_eq!(ra.region_id, rb.region_id);
                assert_eq!(ra.data, rb.data);
            }
        }
    }

    #[test]
    fn mismatched_rank_counts_are_rejected() {
        let small = ProcessSet::uniform(2, 8, 8);
        let big = ProcessSet::uniform(3, 8, 8);
        let entry = PartialCheckpoint::capture(&small, DatasetKind::Remainder, 0.0);
        let exit = PartialCheckpoint::capture(&big, DatasetKind::Library, 1.0);
        assert!(matches!(
            SplitCheckpoint::new(entry, exit),
            Err(CkptError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn rank_permuted_exit_is_rejected() {
        let set = ProcessSet::uniform(3, 8, 8);
        let entry = PartialCheckpoint::capture(&set, DatasetKind::Remainder, 0.0);
        let mut exit = PartialCheckpoint::capture(&set, DatasetKind::Library, 1.0);
        exit.snapshots.swap(1, 2);
        assert_eq!(
            SplitCheckpoint::new(entry, exit).unwrap_err(),
            CkptError::RankMismatch {
                position: 1,
                expected: 1,
                found: 2
            }
        );
    }
}
