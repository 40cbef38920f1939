//! Incremental checkpoints.
//!
//! The BiPeriodicCkpt protocol of the paper (§III-B, §IV-C) exploits the fact
//! that during a LIBRARY phase only the LIBRARY dataset is modified: an
//! incremental checkpoint captures only what changed since a baseline
//! checkpoint, shrinking the checkpoint cost from `C` to `C_L = ρ C`.
//!
//! Our regions carry a generation counter bumped on every write;
//! [`IncrementalCheckpoint::capture_since`] snapshots exactly the regions
//! whose generation moved past the baseline, and
//! [`IncrementalCheckpoint::apply_onto`] folds an increment back into a base
//! [`CoordinatedCheckpoint`] to rebuild the complete restorable image (the
//! paper's remark that "the different incremental checkpoints must be
//! combined to recover the entire dataset at rollback time", which is why the
//! *recovery* cost stays `R` even when the *checkpoint* cost drops to `C_L`).

use std::collections::BTreeMap;

use crate::coordinated::{CoordinatedCheckpoint, ProcessSnapshot, RegionSnapshot};
use crate::error::{CkptError, Result};
use crate::state::ProcessSet;

/// A checkpoint containing only the regions modified since a baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct IncrementalCheckpoint {
    /// Application time at which the increment was taken.
    pub time: f64,
    /// Per-process snapshots containing only the dirty regions.
    pub snapshots: Vec<ProcessSnapshot>,
}

impl IncrementalCheckpoint {
    /// Captures the regions of `set` whose generation is strictly greater
    /// than the generation recorded in `baseline` (region missing from the
    /// baseline counts as dirty).
    pub fn capture_since(set: &ProcessSet, baseline: &CoordinatedCheckpoint, time: f64) -> Self {
        // Index the baseline generations by (rank, region).
        let mut base: BTreeMap<(usize, usize), u64> = BTreeMap::new();
        for (rank, region, generation) in baseline.generations() {
            base.insert((rank, region), generation);
        }
        let snapshots = set
            .iter()
            .map(|p| ProcessSnapshot {
                rank: p.rank(),
                regions: p
                    .regions()
                    .iter()
                    .filter(|r| {
                        base.get(&(p.rank(), r.id))
                            .map(|&g| r.generation() > g)
                            .unwrap_or(true)
                    })
                    .map(RegionSnapshot::of)
                    .collect(),
                progress: p.progress(),
            })
            .collect();
        Self { time, snapshots }
    }

    /// Volume of the increment in bytes.
    pub fn bytes(&self) -> usize {
        self.snapshots.iter().map(ProcessSnapshot::bytes).sum()
    }

    /// Number of dirty regions captured.
    pub fn dirty_regions(&self) -> usize {
        self.snapshots.iter().map(|s| s.regions.len()).sum()
    }

    /// Folds this increment onto a base coordinated checkpoint, producing the
    /// complete checkpoint an application would restore from.  Snapshots are
    /// paired by position; a position whose ranks differ is a
    /// [`CkptError::RankMismatch`].
    pub fn apply_onto(&self, base: &CoordinatedCheckpoint) -> Result<CoordinatedCheckpoint> {
        if base.ranks() != self.snapshots.len() {
            return Err(CkptError::ShapeMismatch {
                checkpoint_ranks: base.ranks(),
                target_ranks: self.snapshots.len(),
            });
        }
        let mut combined = base.clone();
        combined.time = self.time;
        let pairs = combined.snapshots.iter_mut().zip(&self.snapshots);
        for (position, (snap, inc)) in pairs.enumerate() {
            if snap.rank != inc.rank {
                return Err(CkptError::RankMismatch {
                    position,
                    expected: snap.rank,
                    found: inc.rank,
                });
            }
            snap.progress = inc.progress;
            for dirty in &inc.regions {
                if let Some(existing) = snap
                    .regions
                    .iter_mut()
                    .find(|r| r.region_id == dirty.region_id)
                {
                    *existing = dirty.clone();
                } else {
                    snap.regions.push(dirty.clone());
                    snap.regions.sort_by_key(|r| r.region_id);
                }
            }
        }
        Ok(combined)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::restore::restore_full;
    use crate::state::{DatasetKind, ProcessSet};

    #[test]
    fn clean_state_produces_empty_increment() {
        let set = ProcessSet::uniform(3, 32, 32);
        let base = CoordinatedCheckpoint::capture(&set, 0.0);
        let inc = IncrementalCheckpoint::capture_since(&set, &base, 1.0);
        assert_eq!(inc.bytes(), 0);
        assert_eq!(inc.dirty_regions(), 0);
    }

    #[test]
    fn only_dirty_regions_are_captured() {
        let mut set = ProcessSet::uniform(3, 100, 50);
        let base = CoordinatedCheckpoint::capture(&set, 0.0);

        // A library phase modifies only the LIBRARY regions of every process.
        for p in set.iter_mut() {
            let ids: Vec<usize> = p.regions_of(DatasetKind::Library).map(|r| r.id).collect();
            for id in ids {
                p.region_mut(id).unwrap().update(|d| d[0] ^= 0xFF);
            }
        }
        let inc = IncrementalCheckpoint::capture_since(&set, &base, 2.0);
        // Exactly the LIBRARY bytes: 3 processes × 100 B — the ρ C reduction.
        assert_eq!(inc.bytes(), 300);
        assert_eq!(inc.dirty_regions(), 3);
        assert!(inc
            .snapshots
            .iter()
            .flat_map(|s| s.regions.iter())
            .all(|r| r.kind == DatasetKind::Library));
    }

    #[test]
    fn increment_applied_on_base_equals_full_checkpoint() {
        let mut set = ProcessSet::uniform(2, 64, 64);
        let base = CoordinatedCheckpoint::capture(&set, 0.0);

        // Modify a mix of regions and progress.
        set.process_mut(0).unwrap().region_mut(0).unwrap().write(vec![7; 64]);
        set.process_mut(1).unwrap().region_mut(1).unwrap().write(vec![9; 64]);
        set.process_mut(0).unwrap().advance(10.0);

        let inc = IncrementalCheckpoint::capture_since(&set, &base, 3.0);
        let combined = inc.apply_onto(&base).unwrap();
        let reference = CoordinatedCheckpoint::capture(&set, 3.0);

        assert_eq!(combined.bytes(), reference.bytes());
        // Restoring from the combined image reproduces the exact state.
        let fp = set.fingerprint();
        let mut scratch = set.clone();
        scratch.process_mut(0).unwrap().crash();
        scratch.process_mut(1).unwrap().crash();
        restore_full(&combined, &mut scratch).unwrap();
        assert_eq!(scratch.fingerprint(), fp);
    }

    #[test]
    fn chained_increments_compose() {
        let mut set = ProcessSet::uniform(2, 32, 32);
        let base = CoordinatedCheckpoint::capture(&set, 0.0);

        set.process_mut(0).unwrap().region_mut(0).unwrap().write(vec![1; 32]);
        let inc1 = IncrementalCheckpoint::capture_since(&set, &base, 1.0);
        let image1 = inc1.apply_onto(&base).unwrap();

        set.process_mut(1).unwrap().region_mut(1).unwrap().write(vec![2; 32]);
        let inc2 = IncrementalCheckpoint::capture_since(&set, &image1, 2.0);
        // The second increment only carries the second modification.
        assert_eq!(inc2.bytes(), 32);
        let image2 = inc2.apply_onto(&image1).unwrap();

        let fp = set.fingerprint();
        let mut scratch = set.clone();
        scratch.process_mut(0).unwrap().crash();
        restore_full(&image2, &mut scratch).unwrap();
        assert_eq!(scratch.fingerprint(), fp);
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let small = ProcessSet::uniform(2, 8, 8);
        let big = ProcessSet::uniform(3, 8, 8);
        let base_small = CoordinatedCheckpoint::capture(&small, 0.0);
        let inc_big = IncrementalCheckpoint::capture_since(&big, &CoordinatedCheckpoint::capture(&big, 0.0), 1.0);
        assert!(inc_big.apply_onto(&base_small).is_err());
    }

    #[test]
    fn rank_permuted_delta_is_rejected() {
        let mut set = ProcessSet::uniform(3, 16, 16);
        let base = CoordinatedCheckpoint::capture(&set, 0.0);
        set.process_mut(0).unwrap().region_mut(0).unwrap().write(vec![1; 16]);
        set.process_mut(2).unwrap().region_mut(1).unwrap().write(vec![2; 16]);
        let mut inc = IncrementalCheckpoint::capture_since(&set, &base, 1.0);
        inc.snapshots.swap(0, 2);
        assert_eq!(
            inc.apply_onto(&base).unwrap_err(),
            CkptError::RankMismatch {
                position: 0,
                expected: 0,
                found: 2
            }
        );
    }
}
