//! Rollback recovery: applying checkpoints back onto a process set.

use crate::coordinated::CoordinatedCheckpoint;
use crate::error::{CkptError, Result};
use crate::partial::PartialCheckpoint;
use crate::state::ProcessSet;

/// Summary of what a restore operation touched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RestoreReport {
    /// Number of processes whose state was (at least partly) rewritten.
    pub ranks_restored: usize,
    /// Number of memory regions rewritten.
    pub regions_restored: usize,
    /// Number of bytes rewritten.
    pub bytes_restored: usize,
}

impl RestoreReport {
    fn accumulate(&mut self, other: RestoreReport) {
        self.ranks_restored += other.ranks_restored;
        self.regions_restored += other.regions_restored;
        self.bytes_restored += other.bytes_restored;
    }
}

/// Restores every process from a coordinated checkpoint (classic rollback
/// recovery: all processes go back to the snapshot, whatever their state).
pub fn restore_full(ckpt: &CoordinatedCheckpoint, set: &mut ProcessSet) -> Result<RestoreReport> {
    if ckpt.ranks() != set.len() {
        return Err(CkptError::ShapeMismatch {
            checkpoint_ranks: ckpt.ranks(),
            target_ranks: set.len(),
        });
    }
    let mut report = RestoreReport {
        ranks_restored: 0,
        regions_restored: 0,
        bytes_restored: 0,
    };
    for snap in &ckpt.snapshots {
        let process = set.process_mut(snap.rank)?;
        let mut regions = 0;
        let mut bytes = 0;
        for r in &snap.regions {
            let region = process.region_mut(r.region_id)?;
            region.restore(&r.data, r.generation);
            regions += 1;
            bytes += r.data.len();
        }
        process.set_progress(snap.progress);
        report.accumulate(RestoreReport {
            ranks_restored: 1,
            regions_restored: regions,
            bytes_restored: bytes,
        });
    }
    Ok(report)
}

/// Restores only the dataset covered by a partial checkpoint, on the given
/// ranks (or on every rank when `ranks` is `None`).
///
/// This is the recovery path of the composite protocol when a failure strikes
/// *inside* a library call: the REMAINDER dataset of the failed process is
/// reloaded from the entry partial checkpoint, while the LIBRARY dataset is
/// rebuilt by ABFT (not by this function).
pub fn restore_partial(
    ckpt: &PartialCheckpoint,
    set: &mut ProcessSet,
    ranks: Option<&[usize]>,
) -> Result<RestoreReport> {
    if ckpt.ranks() != set.len() {
        return Err(CkptError::ShapeMismatch {
            checkpoint_ranks: ckpt.ranks(),
            target_ranks: set.len(),
        });
    }
    let mut report = RestoreReport {
        ranks_restored: 0,
        regions_restored: 0,
        bytes_restored: 0,
    };
    for snap in &ckpt.snapshots {
        if let Some(filter) = ranks {
            if !filter.contains(&snap.rank) {
                continue;
            }
        }
        let process = set.process_mut(snap.rank)?;
        let mut regions = 0;
        let mut bytes = 0;
        for r in &snap.regions {
            let region = process.region_mut(r.region_id)?;
            region.restore(&r.data, r.generation);
            regions += 1;
            bytes += r.data.len();
        }
        // Partial restores do not rewind progress on their own: the caller
        // decides (the composite protocol restores the stack "before
        // quitting the library routine", i.e. progress is handled at the
        // protocol level).
        report.accumulate(RestoreReport {
            ranks_restored: 1,
            regions_restored: regions,
            bytes_restored: bytes,
        });
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::{DatasetKind, ProcessSet};

    fn scramble(set: &mut ProcessSet) {
        for p in set.iter_mut() {
            let ids: Vec<usize> = p.regions().iter().map(|r| r.id).collect();
            for id in ids {
                p.region_mut(id).unwrap().update(|d| {
                    for b in d.iter_mut() {
                        *b = b.wrapping_mul(3).wrapping_add(17);
                    }
                });
            }
            p.advance(999.0);
        }
    }

    #[test]
    fn full_restore_round_trips() {
        let mut set = ProcessSet::uniform(4, 64, 32);
        let original_fp = set.fingerprint();
        let ckpt = CoordinatedCheckpoint::capture(&set, 5.0);

        scramble(&mut set);
        assert_ne!(set.fingerprint(), original_fp);

        let report = restore_full(&ckpt, &mut set).unwrap();
        assert_eq!(set.fingerprint(), original_fp);
        assert_eq!(report.ranks_restored, 4);
        assert_eq!(report.regions_restored, 8);
        assert_eq!(report.bytes_restored, set.total_footprint());
    }

    #[test]
    fn full_restore_rejects_shape_mismatch() {
        let set = ProcessSet::uniform(2, 8, 8);
        let ckpt = CoordinatedCheckpoint::capture(&set, 0.0);
        let mut other = ProcessSet::uniform(3, 8, 8);
        assert!(matches!(
            restore_full(&ckpt, &mut other),
            Err(CkptError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn partial_restore_touches_only_its_dataset() {
        let mut set = ProcessSet::uniform(3, 64, 32);
        let rem_ckpt = PartialCheckpoint::capture(&set, DatasetKind::Remainder, 0.0);

        // Record library fingerprints, then scramble everything.
        let lib_fps: Vec<u64> = set
            .iter()
            .flat_map(|p| p.regions_of(DatasetKind::Library).map(|r| r.fingerprint()))
            .collect();
        scramble(&mut set);
        let scrambled_lib_fps: Vec<u64> = set
            .iter()
            .flat_map(|p| p.regions_of(DatasetKind::Library).map(|r| r.fingerprint()))
            .collect();
        assert_ne!(lib_fps, scrambled_lib_fps);

        let report = restore_partial(&rem_ckpt, &mut set, None).unwrap();
        assert_eq!(report.ranks_restored, 3);
        assert_eq!(report.bytes_restored, 3 * 32);

        // REMAINDER regions recovered their original content...
        for (p, reference) in set.iter().zip(rem_ckpt.snapshots.iter()) {
            for (region, snap) in p.regions_of(DatasetKind::Remainder).zip(reference.regions.iter()) {
                assert_eq!(region.data(), snap.data.as_slice());
            }
        }
        // ...while LIBRARY regions kept their scrambled content.
        let lib_after: Vec<u64> = set
            .iter()
            .flat_map(|p| p.regions_of(DatasetKind::Library).map(|r| r.fingerprint()))
            .collect();
        assert_eq!(lib_after, scrambled_lib_fps);
    }

    #[test]
    fn partial_restore_can_target_a_single_rank() {
        let mut set = ProcessSet::uniform(3, 16, 16);
        let ckpt = PartialCheckpoint::capture(&set, DatasetKind::Remainder, 0.0);
        scramble(&mut set);
        let fp_rank1_before = set.process(1).unwrap().fingerprint();

        let report = restore_partial(&ckpt, &mut set, Some(&[0])).unwrap();
        assert_eq!(report.ranks_restored, 1);
        // Rank 1 untouched.
        assert_eq!(set.process(1).unwrap().fingerprint(), fp_rank1_before);
    }
}
