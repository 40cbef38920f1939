//! Coordinated (globally consistent) checkpoints.
//!
//! A coordinated checkpoint captures the state of *every* process of a
//! [`ProcessSet`] at the same logical instant — the classic
//! Chandy–Lamport-style snapshot that periodic checkpointing relies on.
//! Because our processes are virtual, "coordination" reduces to quiescing
//! (no in-flight messages to flush) and capturing every region of every
//! process; the interesting part for the study is *what* is captured and how
//! many bytes it amounts to, which is what drives the checkpoint cost `C`.
//! A capture shares each region's copy-on-write buffer instead of copying it
//! (see [`crate::state`]).

use std::sync::Arc;

use crate::state::{DatasetKind, MemoryRegion, ProcessSet};

/// Snapshot of one memory region.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionSnapshot {
    /// Region id within its process.
    pub region_id: usize,
    /// Dataset the region belongs to.
    pub kind: DatasetKind,
    /// Captured contents, shared with the region until either side is
    /// written.
    pub data: Arc<Vec<u8>>,
    /// Generation of the region at capture time.
    pub generation: u64,
}

impl RegionSnapshot {
    /// Captures `region`, sharing its buffer.
    pub(crate) fn of(region: &MemoryRegion) -> Self {
        Self {
            region_id: region.id,
            kind: region.kind,
            data: Arc::clone(region.shared_data()),
            generation: region.generation(),
        }
    }
}

/// Snapshot of one process.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessSnapshot {
    /// Rank of the captured process.
    pub rank: usize,
    /// Captured regions (possibly a subset, for partial checkpoints).
    pub regions: Vec<RegionSnapshot>,
    /// Captured computation progress.
    pub progress: f64,
}

impl ProcessSnapshot {
    /// Bytes captured for this process.
    pub fn bytes(&self) -> usize {
        self.regions.iter().map(|r| r.data.len()).sum()
    }
}

/// A complete coordinated checkpoint of a process set.
#[derive(Debug, Clone, PartialEq)]
pub struct CoordinatedCheckpoint {
    /// Application time (seconds) at which the checkpoint was taken.
    pub time: f64,
    /// Per-process snapshots, indexed by rank.
    pub snapshots: Vec<ProcessSnapshot>,
}

impl CoordinatedCheckpoint {
    /// Captures a coordinated checkpoint of every region of every process.
    pub fn capture(set: &ProcessSet, time: f64) -> Self {
        let snapshots = set
            .iter()
            .map(|p| ProcessSnapshot {
                rank: p.rank(),
                regions: p.regions().iter().map(RegionSnapshot::of).collect(),
                progress: p.progress(),
            })
            .collect();
        Self { time, snapshots }
    }

    /// Number of processes covered.
    pub fn ranks(&self) -> usize {
        self.snapshots.len()
    }

    /// Total captured volume in bytes.
    pub fn bytes(&self) -> usize {
        self.snapshots.iter().map(ProcessSnapshot::bytes).sum()
    }

    /// Rebuilds a live [`ProcessSet`] from this checkpoint image — the
    /// crash-resume path where no process survives to be restored in place
    /// (the runtime reloads a frame stream and reconstitutes the whole set).
    ///
    /// Region ids must be sequential per process (the invariant
    /// [`CoordinatedCheckpoint::capture`] guarantees); a gap means the image
    /// does not describe a materialisable layout.
    pub fn materialize(&self) -> crate::error::Result<ProcessSet> {
        let mut set = ProcessSet::new(self.snapshots.len());
        for snap in &self.snapshots {
            let process = set.process_mut(snap.rank)?;
            for r in &snap.regions {
                let id = process.add_region(r.kind, Vec::new());
                if id != r.region_id {
                    return Err(crate::error::CkptError::UnknownRegion {
                        rank: snap.rank,
                        region: r.region_id,
                    });
                }
                process.region_mut(id)?.restore(&r.data, r.generation);
            }
            process.set_progress(snap.progress);
        }
        Ok(set)
    }

    /// Per-(rank, region) generations at capture time — the baseline an
    /// incremental checkpoint is computed against.
    pub fn generations(&self) -> Vec<(usize, usize, u64)> {
        self.snapshots
            .iter()
            .flat_map(|s| {
                s.regions
                    .iter()
                    .map(move |r| (s.rank, r.region_id, r.generation))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::ProcessSet;

    #[test]
    fn capture_covers_every_byte() {
        let set = ProcessSet::uniform(3, 100, 50);
        let ckpt = CoordinatedCheckpoint::capture(&set, 42.0);
        assert_eq!(ckpt.ranks(), 3);
        assert_eq!(ckpt.bytes(), set.total_footprint());
        assert_eq!(ckpt.time, 42.0);
    }

    #[test]
    fn capture_preserves_contents() {
        let set = ProcessSet::uniform(2, 16, 8);
        let ckpt = CoordinatedCheckpoint::capture(&set, 0.0);
        for snap in &ckpt.snapshots {
            let p = set.process(snap.rank).unwrap();
            for r in &snap.regions {
                assert_eq!(r.data.as_slice(), p.region(r.region_id).unwrap().data());
            }
            assert_eq!(snap.progress, p.progress());
        }
    }

    #[test]
    fn capture_is_a_copy_not_a_view() {
        let mut set = ProcessSet::uniform(1, 8, 8);
        let ckpt = CoordinatedCheckpoint::capture(&set, 0.0);
        // A copy of the bytes: cloning `data` would clone the shared handle.
        let before = ckpt.snapshots[0].regions[0].data.to_vec();
        set.process_mut(0)
            .unwrap()
            .region_mut(0)
            .unwrap()
            .update(|d| d.iter_mut().for_each(|b| *b = 0xAA));
        assert_eq!(
            ckpt.snapshots[0].regions[0].data.as_slice(),
            before.as_slice()
        );
    }

    #[test]
    fn materialize_rebuilds_an_identical_process_set() {
        let mut set = ProcessSet::uniform(3, 64, 32);
        set.process_mut(1).unwrap().advance(12.5);
        set.process_mut(2).unwrap().region_mut(0).unwrap().write(vec![3; 64]);
        let ckpt = CoordinatedCheckpoint::capture(&set, 8.0);
        let rebuilt = ckpt.materialize().unwrap();
        assert_eq!(rebuilt.fingerprint(), set.fingerprint());
        assert_eq!(rebuilt.len(), set.len());
        // Generations survive the round trip (restore, not rewrite).
        assert_eq!(
            rebuilt.process(2).unwrap().region(0).unwrap().generation(),
            set.process(2).unwrap().region(0).unwrap().generation()
        );
    }

    #[test]
    fn generations_baseline_matches_capture() {
        let mut set = ProcessSet::uniform(2, 8, 8);
        set.process_mut(0).unwrap().region_mut(0).unwrap().write(vec![9; 8]);
        let ckpt = CoordinatedCheckpoint::capture(&set, 0.0);
        let gens = ckpt.generations();
        assert_eq!(gens.len(), 4);
        assert!(gens.contains(&(0, 0, 1)));
        assert!(gens.contains(&(1, 0, 0)));
    }
}
