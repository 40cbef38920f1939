//! An executable state machine of the composite protocol.
//!
//! [`CompositeRuntime`] drives the `ft-ckpt` substrate with the decisions of
//! the ABFT&PeriodicCkpt protocol on *real process state*: forced partial
//! checkpoints at library entry/exit, periodic coordinated checkpoints in
//! GENERAL phases, rollback recovery for GENERAL-phase failures and ABFT
//! reconstruction for LIBRARY-phase failures: at library entry the LIBRARY
//! dataset is encoded as an `ft-abft` [`ProtectedDataset`], and a failed
//! rank's LIBRARY bytes are rebuilt from the checksums and the surviving
//! ranks' data, without rollback.
//!
//! The runtime is *not* the performance simulator (`ft-sim` is): its role is
//! to demonstrate, with byte-exact data, that the protocol's recovery paths
//! restore the exact application state the failure destroyed, and to produce
//! the decision trace shown by the `composite_trace` example.  Time is
//! accounted with the costs of a [`ModelParams`] value.

use std::ops::Range;

use ft_abft::blockcyclic::{BlockCyclicLayout, DistributedMatrix};
use ft_abft::error::AbftError;
use ft_abft::matrix::Matrix;
use ft_abft::recovery::ProtectedDataset;
use ft_ckpt::coordinated::CoordinatedCheckpoint;
use ft_ckpt::frame::{decode_coordinated, encode_coordinated};
use ft_ckpt::partial::PartialCheckpoint;
use ft_ckpt::restore::{restore_full, restore_partial};
use ft_ckpt::state::{DatasetKind, ProcessSet};
use ft_platform::grid::ProcessGrid;

use crate::error::{ModelError, Result};
use crate::params::ModelParams;
use crate::scenario::{ApplicationProfile, PhaseKind};
use crate::young_daly::paper_optimal_period;

/// One entry of the runtime's decision/event trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RuntimeEvent {
    /// A periodic coordinated checkpoint completed.
    PeriodicCheckpoint {
        /// Completion time.
        time: f64,
    },
    /// The forced REMAINDER-dataset checkpoint at library entry completed.
    EntryCheckpoint {
        /// Completion time.
        time: f64,
        /// Epoch index.
        epoch: usize,
    },
    /// The forced LIBRARY-dataset checkpoint at library exit completed.
    ExitCheckpoint {
        /// Completion time.
        time: f64,
        /// Epoch index.
        epoch: usize,
    },
    /// A failure struck.
    Failure {
        /// Failure time.
        time: f64,
        /// Victim rank.
        rank: usize,
        /// Phase during which the failure struck.
        phase: PhaseKind,
    },
    /// A rollback recovery (GENERAL-phase failure) completed.
    RollbackRecovery {
        /// Completion time.
        time: f64,
        /// Work that had to be re-executed.
        lost_work: f64,
    },
    /// An ABFT reconstruction (LIBRARY-phase failure) completed.
    AbftRecovery {
        /// Completion time.
        time: f64,
        /// Victim rank whose LIBRARY data was rebuilt.
        rank: usize,
    },
    /// An epoch completed.
    EpochComplete {
        /// Completion time.
        time: f64,
        /// Epoch index.
        epoch: usize,
    },
}

/// A failure scripted into a runtime execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlannedFailure {
    /// Epoch during which the failure strikes.
    pub epoch: usize,
    /// Phase during which it strikes.
    pub phase: PhaseKind,
    /// Position within the phase, as a fraction of its work in `[0, 1)`.
    pub fraction: f64,
    /// Victim rank.
    pub rank: usize,
}

/// Result of a runtime execution.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Total (simulated) wall-clock time of the run.
    pub total_time: f64,
    /// Failure-free work contained in the profile.
    pub useful_work: f64,
    /// The event trace.
    pub events: Vec<RuntimeEvent>,
    /// Fingerprint of the final process state.
    pub final_fingerprint: u64,
}

impl RunReport {
    /// The waste observed on this particular run.
    pub fn waste(&self) -> f64 {
        if self.total_time <= 0.0 {
            0.0
        } else {
            (1.0 - self.useful_work / self.total_time).max(0.0)
        }
    }

    /// Number of events matching a predicate (helper for assertions).
    pub fn count_events(&self, predicate: impl Fn(&RuntimeEvent) -> bool) -> usize {
        self.events.iter().filter(|e| predicate(e)).count()
    }
}

/// A serializable snapshot of a [`CompositeRuntime`] at an epoch boundary —
/// everything the runtime needs to continue bit-identically: the live
/// process image, the rollback target, the accounted clock, the event trace
/// so far and the next epoch to execute.  No ABFT checksums are stored:
/// they exist only inside a LIBRARY phase, never at an epoch boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeSnapshot {
    /// Index of the next epoch to execute.
    pub next_epoch: usize,
    /// Accounted wall-clock time at capture, raw `f64` bits.
    pub clock_bits: u64,
    /// Event trace up to the capture point.
    pub events: Vec<RuntimeEvent>,
    /// The live process state.
    pub image: CoordinatedCheckpoint,
    /// The newest rollback target (the coordinated checkpoint a
    /// GENERAL-phase failure would restore).
    pub last_full_checkpoint: CoordinatedCheckpoint,
}

impl RuntimeSnapshot {
    /// Serializes the snapshot into a little-endian byte stream suitable for
    /// an `ft-ckpt` `State` frame payload.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&(self.next_epoch as u64).to_le_bytes());
        out.extend_from_slice(&self.clock_bits.to_le_bytes());
        out.extend_from_slice(&(self.events.len() as u32).to_le_bytes());
        for event in &self.events {
            encode_event(event, &mut out);
        }
        for image in [&self.image, &self.last_full_checkpoint] {
            let body = encode_coordinated(image);
            out.extend_from_slice(&(body.len() as u64).to_le_bytes());
            out.extend_from_slice(&body);
        }
        out
    }

    /// Deserializes a snapshot; `None` on any malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let mut r = SnapReader { bytes, at: 0 };
        let next_epoch = r.u64()? as usize;
        let clock_bits = r.u64()?;
        let count = r.u32()? as usize;
        let mut events = Vec::with_capacity(count.min(4096));
        for _ in 0..count {
            events.push(decode_event(&mut r)?);
        }
        let image_len = r.u64()? as usize;
        let image = decode_coordinated(r.take(image_len)?).ok()?;
        let lfc_len = r.u64()? as usize;
        let last_full_checkpoint = decode_coordinated(r.take(lfc_len)?).ok()?;
        if r.at != bytes.len() {
            return None;
        }
        Some(Self {
            next_epoch,
            clock_bits,
            events,
            image,
            last_full_checkpoint,
        })
    }
}

struct SnapReader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> SnapReader<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.at.checked_add(n)?;
        if end > self.bytes.len() {
            return None;
        }
        let slice = &self.bytes[self.at..end];
        self.at = end;
        Some(slice)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4).map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8).map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    fn f64(&mut self) -> Option<f64> {
        self.u64().map(f64::from_bits)
    }
}

fn encode_event(event: &RuntimeEvent, out: &mut Vec<u8>) {
    let (tag, time) = match event {
        RuntimeEvent::PeriodicCheckpoint { time } => (0u8, *time),
        RuntimeEvent::EntryCheckpoint { time, .. } => (1, *time),
        RuntimeEvent::ExitCheckpoint { time, .. } => (2, *time),
        RuntimeEvent::Failure { time, .. } => (3, *time),
        RuntimeEvent::RollbackRecovery { time, .. } => (4, *time),
        RuntimeEvent::AbftRecovery { time, .. } => (5, *time),
        RuntimeEvent::EpochComplete { time, .. } => (6, *time),
    };
    out.push(tag);
    out.extend_from_slice(&time.to_bits().to_le_bytes());
    match event {
        RuntimeEvent::PeriodicCheckpoint { .. } => {}
        RuntimeEvent::EntryCheckpoint { epoch, .. }
        | RuntimeEvent::ExitCheckpoint { epoch, .. }
        | RuntimeEvent::EpochComplete { epoch, .. } => {
            out.extend_from_slice(&(*epoch as u64).to_le_bytes());
        }
        RuntimeEvent::Failure { rank, phase, .. } => {
            out.extend_from_slice(&(*rank as u64).to_le_bytes());
            out.push(match phase {
                PhaseKind::General => 0,
                PhaseKind::Library => 1,
            });
        }
        RuntimeEvent::RollbackRecovery { lost_work, .. } => {
            out.extend_from_slice(&lost_work.to_bits().to_le_bytes());
        }
        RuntimeEvent::AbftRecovery { rank, .. } => {
            out.extend_from_slice(&(*rank as u64).to_le_bytes());
        }
    }
}

fn decode_event(r: &mut SnapReader<'_>) -> Option<RuntimeEvent> {
    let tag = r.u8()?;
    let time = r.f64()?;
    Some(match tag {
        0 => RuntimeEvent::PeriodicCheckpoint { time },
        1 => RuntimeEvent::EntryCheckpoint { time, epoch: r.u64()? as usize },
        2 => RuntimeEvent::ExitCheckpoint { time, epoch: r.u64()? as usize },
        3 => {
            let rank = r.u64()? as usize;
            let phase = match r.u8()? {
                0 => PhaseKind::General,
                1 => PhaseKind::Library,
                _ => return None,
            };
            RuntimeEvent::Failure { time, rank, phase }
        }
        4 => RuntimeEvent::RollbackRecovery { time, lost_work: r.f64()? },
        5 => RuntimeEvent::AbftRecovery { time, rank: r.u64()? as usize },
        6 => RuntimeEvent::EpochComplete { time, epoch: r.u64()? as usize },
        _ => return None,
    })
}

/// The composite-protocol runtime.
#[derive(Debug, Clone)]
pub struct CompositeRuntime {
    processes: ProcessSet,
    params: ModelParams,
    clock: f64,
    events: Vec<RuntimeEvent>,
    last_full_checkpoint: CoordinatedCheckpoint,
    next_epoch: usize,
}

impl CompositeRuntime {
    /// Creates a runtime over an initial process set; an initial coordinated
    /// checkpoint is taken at time 0 (cost accounted).
    pub fn new(processes: ProcessSet, params: ModelParams) -> Self {
        let mut rt = Self {
            last_full_checkpoint: CoordinatedCheckpoint::capture(&processes, 0.0),
            processes,
            params,
            clock: 0.0,
            events: Vec::new(),
            next_epoch: 0,
        };
        rt.clock += rt.params.checkpoint_cost;
        rt
    }

    /// The current process set.
    pub fn processes(&self) -> &ProcessSet {
        &self.processes
    }

    /// Encodes the LIBRARY dataset for ABFT protection: a `rows × P`
    /// matrix over a 1 × P grid with unit blocks, so column `r` is owned by
    /// rank `r` and holds its LIBRARY bytes (regions concatenated in region
    /// order, zero-padded to the longest rank).  Bytes are small integers
    /// and the checksum sums stay far below 2^53, so the checksum arithmetic
    /// and every rebuilt byte are exact.
    fn protect_library(&self) -> Result<ProtectedDataset> {
        let rows = self
            .processes
            .iter()
            .map(|p| p.footprint_of(DatasetKind::Library))
            .max()
            .unwrap_or(0);
        let mut columns = Matrix::zeros(rows, self.processes.len());
        for p in self.processes.iter() {
            let bytes = p.regions_of(DatasetKind::Library).flat_map(|r| r.data());
            for (i, &b) in bytes.enumerate() {
                columns.set(i, p.rank(), f64::from(b));
            }
        }
        let grid = ProcessGrid::new(1, self.processes.len())
            .map_err(|_| ModelError::OutsideValidityDomain { what: "process count" })?;
        let layout = BlockCyclicLayout::new(grid, 1);
        Ok(ProtectedDataset::encode(DistributedMatrix::new(columns, layout)))
    }

    /// Rebuilds the LIBRARY regions of the failed `rank` from the checksums
    /// of `library` and writes them back, in region order.
    fn reconstruct_library(&mut self, library: &mut ProtectedDataset, rank: usize) -> Result<()> {
        match library.fail_and_reconstruct(rank) {
            // No LIBRARY bytes anywhere: nothing was lost.
            Ok(_) | Err(AbftError::NothingToRecover) => {}
            Err(_) => {
                return Err(ModelError::OutsideValidityDomain { what: "library reconstruction" })
            }
        }
        let columns = library.matrix().global();
        let process = self
            .processes
            .process_mut(rank)
            .map_err(|_| ModelError::OutsideValidityDomain { what: "victim rank" })?;
        let regions: Vec<(usize, usize)> = process
            .regions_of(DatasetKind::Library)
            .map(|r| (r.id, r.len()))
            .collect();
        let mut row = 0;
        for (id, len) in regions {
            let data = (row..row + len).map(|i| columns.get(i, rank) as u8).collect();
            row += len;
            process
                .region_mut(id)
                .map_err(|_| ModelError::OutsideValidityDomain { what: "library region" })?
                .write(data);
        }
        Ok(())
    }

    /// Applies the deterministic GENERAL-phase computation of `epoch` to the
    /// REMAINDER dataset.
    fn apply_general_op(&mut self, epoch: usize) {
        for p in self.processes.iter_mut() {
            let ids: Vec<usize> = p.regions_of(DatasetKind::Remainder).map(|r| r.id).collect();
            for id in ids {
                p.region_mut(id)
                    .expect("region enumerated above")
                    .update(|d| {
                        for b in d.iter_mut() {
                            *b = b.wrapping_add(1 + epoch as u8);
                        }
                    });
            }
            p.advance(1.0);
        }
    }

    /// Applies the deterministic LIBRARY-phase computation of `epoch` to the
    /// LIBRARY dataset.
    fn apply_library_op(&mut self, epoch: usize) {
        for p in self.processes.iter_mut() {
            let rank = p.rank() as u8;
            let ids: Vec<usize> = p.regions_of(DatasetKind::Library).map(|r| r.id).collect();
            for id in ids {
                p.region_mut(id)
                    .expect("region enumerated above")
                    .update(|d| {
                        for (k, b) in d.iter_mut().enumerate() {
                            *b = b
                                .wrapping_mul(3)
                                .wrapping_add(epoch as u8)
                                .wrapping_add(rank)
                                .wrapping_add(k as u8);
                        }
                    });
            }
            p.advance(1.0);
        }
    }

    /// Executes a profile with the given scripted failures and returns the
    /// run report. Failures targeting a phase that does not exist are ignored.
    pub fn run(
        &mut self,
        profile: &ApplicationProfile,
        failures: &[PlannedFailure],
    ) -> Result<RunReport> {
        self.run_range(profile, failures, 0..profile.epochs().len())?;
        Ok(self.report(profile))
    }

    /// Captures a consistent snapshot at the current epoch boundary.  Only
    /// valid between [`CompositeRuntime::run_range`] calls (the runtime's
    /// state machine is consistent at epoch boundaries).
    pub fn snapshot(&self) -> RuntimeSnapshot {
        RuntimeSnapshot {
            next_epoch: self.next_epoch,
            clock_bits: self.clock.to_bits(),
            events: self.events.clone(),
            image: CoordinatedCheckpoint::capture(&self.processes, self.clock),
            last_full_checkpoint: self.last_full_checkpoint.clone(),
        }
    }

    /// Reconstitutes a runtime from a snapshot — the crash-resume path where
    /// no live process survives.  Continuing with [`CompositeRuntime::run_range`]
    /// from `snapshot.next_epoch` reproduces the uninterrupted run
    /// bit-identically.
    pub fn resume_from(snapshot: &RuntimeSnapshot, params: ModelParams) -> Result<Self> {
        let processes = snapshot
            .image
            .materialize()
            .map_err(|_| ModelError::OutsideValidityDomain { what: "snapshot image" })?;
        Ok(Self {
            last_full_checkpoint: snapshot.last_full_checkpoint.clone(),
            processes,
            params,
            clock: f64::from_bits(snapshot.clock_bits),
            events: snapshot.events.clone(),
            next_epoch: snapshot.next_epoch,
        })
    }

    /// Builds the run report for the work executed so far.
    pub fn report(&self, profile: &ApplicationProfile) -> RunReport {
        RunReport {
            total_time: self.clock,
            useful_work: profile.total_duration(),
            events: self.events.clone(),
            final_fingerprint: self.processes.fingerprint(),
        }
    }

    /// Executes the epochs `range` of a profile (both ends are epoch
    /// indices). Ranges outside the profile are rejected; an empty range is
    /// a no-op, and a failure whose `fraction` is not finite or whose `rank`
    /// is not in the process set is rejected before any epoch runs.
    /// Splitting a run into consecutive ranges — optionally crossing a
    /// [`RuntimeSnapshot`] round trip between them — produces the same
    /// state, clock and trace as one full-range call.
    pub fn run_range(
        &mut self,
        profile: &ApplicationProfile,
        failures: &[PlannedFailure],
        range: Range<usize>,
    ) -> Result<()> {
        if range.end > profile.epochs().len() {
            return Err(ModelError::OutsideValidityDomain { what: "epoch range" });
        }
        if failures.iter().any(|f| !f.fraction.is_finite()) {
            return Err(ModelError::OutsideValidityDomain { what: "failure fraction" });
        }
        if failures.iter().any(|f| f.rank >= self.processes.len()) {
            return Err(ModelError::OutsideValidityDomain { what: "victim rank" });
        }
        let period = paper_optimal_period(
            self.params.checkpoint_cost,
            self.params.platform_mtbf,
            self.params.downtime,
            self.params.recovery_cost,
        )?;
        for epoch_index in range {
            let epoch = &profile.epochs()[epoch_index];
            // ---- GENERAL phase -------------------------------------------------
            if epoch.general > 0.0 {
                let mut phase_failures: Vec<&PlannedFailure> = failures
                    .iter()
                    .filter(|f| f.epoch == epoch_index && f.phase == PhaseKind::General)
                    .collect();
                let mut executed = 0.0;
                let mut since_checkpoint = 0.0;
                // Sort scripted failures by position.
                phase_failures.sort_by(|a, b| a.fraction.total_cmp(&b.fraction));
                let mut pending = phase_failures.into_iter().peekable();
                while executed < epoch.general {
                    let next_failure_at = pending
                        .peek()
                        .map(|f| f.fraction.clamp(0.0, 1.0) * epoch.general)
                        .unwrap_or(f64::INFINITY);
                    let next_checkpoint_at = executed + (period - since_checkpoint);
                    let phase_end = epoch.general;
                    let target = phase_end.min(next_checkpoint_at).min(next_failure_at.max(executed));
                    let slice = target - executed;
                    self.clock += slice;
                    executed = target;
                    since_checkpoint += slice;
                    if (next_failure_at - executed).abs() < 1e-9 && pending.peek().is_some() {
                        let failure = pending.next().expect("peeked");
                        self.events.push(RuntimeEvent::Failure {
                            time: self.clock,
                            rank: failure.rank,
                            phase: PhaseKind::General,
                        });
                        // Crash, then classic rollback recovery.
                        self.processes
                            .process_mut(failure.rank)
                            .map_err(|_| ModelError::OutsideValidityDomain { what: "victim rank" })?
                            .crash();
                        restore_full(&self.last_full_checkpoint, &mut self.processes)
                            .map_err(|_| ModelError::OutsideValidityDomain { what: "rollback" })?;
                        self.clock += self.params.downtime + self.params.recovery_cost;
                        // All work since the last checkpoint is lost.
                        let lost = since_checkpoint;
                        // The loop re-executes the lost work.
                        executed -= lost;
                        since_checkpoint = 0.0;
                        self.events.push(RuntimeEvent::RollbackRecovery {
                            time: self.clock,
                            lost_work: lost,
                        });
                        continue;
                    }
                    if executed < phase_end && (next_checkpoint_at - executed).abs() < 1e-9 {
                        // Periodic checkpoint.
                        self.last_full_checkpoint =
                            CoordinatedCheckpoint::capture(&self.processes, self.clock);
                        self.clock += self.params.checkpoint_cost;
                        since_checkpoint = 0.0;
                        self.events
                            .push(RuntimeEvent::PeriodicCheckpoint { time: self.clock });
                    }
                }
                // The phase's computation lands in the REMAINDER dataset.
                self.apply_general_op(epoch_index);
            }

            // ---- LIBRARY phase -------------------------------------------------
            if epoch.library > 0.0 {
                // Forced entry checkpoint of the REMAINDER dataset.
                let entry =
                    PartialCheckpoint::capture(&self.processes, DatasetKind::Remainder, self.clock);
                self.clock += self.params.checkpoint_cost_remainder();
                self.events.push(RuntimeEvent::EntryCheckpoint {
                    time: self.clock,
                    epoch: epoch_index,
                });
                // The library call keeps its dataset checksum-encoded.
                let mut library = self.protect_library()?;

                let abft_duration = self.params.phi * epoch.library;
                let mut phase_failures: Vec<&PlannedFailure> = failures
                    .iter()
                    .filter(|f| f.epoch == epoch_index && f.phase == PhaseKind::Library)
                    .collect();
                phase_failures.sort_by(|a, b| a.fraction.total_cmp(&b.fraction));
                let mut executed = 0.0;
                for failure in phase_failures {
                    let at = failure.fraction.clamp(0.0, 1.0) * abft_duration;
                    if at > executed {
                        self.clock += at - executed;
                        executed = at;
                    }
                    self.events.push(RuntimeEvent::Failure {
                        time: self.clock,
                        rank: failure.rank,
                        phase: PhaseKind::Library,
                    });
                    self.processes
                        .process_mut(failure.rank)
                        .map_err(|_| ModelError::OutsideValidityDomain { what: "victim rank" })?
                        .crash();
                    // ABFT recovery: REMAINDER from the entry checkpoint,
                    // LIBRARY from the checksums. No rollback.
                    restore_partial(&entry, &mut self.processes, Some(&[failure.rank]))
                        .map_err(|_| ModelError::OutsideValidityDomain { what: "entry restore" })?;
                    self.reconstruct_library(&mut library, failure.rank)?;
                    // Restore the process stack (progress) to the value the
                    // entry checkpoint recorded — the library call resumes
                    // where the surviving processes are.
                    if let Some(snap) = entry.snapshots.iter().find(|s| s.rank == failure.rank) {
                        self.processes
                            .process_mut(failure.rank)
                            .map_err(|_| ModelError::OutsideValidityDomain { what: "victim rank" })?
                            .set_progress(snap.progress);
                    }
                    self.clock += self.params.downtime
                        + self.params.recovery_cost_remainder()
                        + self.params.abft_reconstruction;
                    self.events.push(RuntimeEvent::AbftRecovery {
                        time: self.clock,
                        rank: failure.rank,
                    });
                }
                if executed < abft_duration {
                    self.clock += abft_duration - executed;
                }
                // The library call's results land in the LIBRARY dataset.
                self.apply_library_op(epoch_index);

                // Forced exit checkpoint of the LIBRARY dataset; combined with
                // the entry checkpoint it forms the split coordinated
                // checkpoint the next phase can roll back to.
                let exit =
                    PartialCheckpoint::capture(&self.processes, DatasetKind::Library, self.clock);
                self.clock += self.params.checkpoint_cost_library();
                self.events.push(RuntimeEvent::ExitCheckpoint {
                    time: self.clock,
                    epoch: epoch_index,
                });
                let split = ft_ckpt::partial::SplitCheckpoint::new(entry, exit)
                    .map_err(|_| ModelError::OutsideValidityDomain { what: "split checkpoint" })?;
                self.last_full_checkpoint = split.into_coordinated();
            }

            self.events.push(RuntimeEvent::EpochComplete {
                time: self.clock,
                epoch: epoch_index,
            });
            self.next_epoch = epoch_index + 1;
        }

        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_platform::units::{hours, minutes};

    fn params(alpha: f64) -> ModelParams {
        ModelParams::builder()
            .epoch_duration(hours(4.0))
            .alpha(alpha)
            .checkpoint_cost(minutes(10.0))
            .recovery_cost(minutes(10.0))
            .downtime(minutes(1.0))
            .rho(0.8)
            .phi(1.03)
            .abft_reconstruction(2.0)
            .platform_mtbf(hours(6.0))
            .build()
            .unwrap()
    }

    fn processes() -> ProcessSet {
        ProcessSet::uniform(4, 256, 64)
    }

    #[test]
    fn failure_free_run_takes_forced_checkpoints_per_epoch() {
        let params = params(0.5);
        let profile = ApplicationProfile::from_params_repeated(&params, 3);
        let mut rt = CompositeRuntime::new(processes(), params);
        let report = rt.run(&profile, &[]).unwrap();
        assert_eq!(report.count_events(|e| matches!(e, RuntimeEvent::EntryCheckpoint { .. })), 3);
        assert_eq!(report.count_events(|e| matches!(e, RuntimeEvent::ExitCheckpoint { .. })), 3);
        assert_eq!(report.count_events(|e| matches!(e, RuntimeEvent::EpochComplete { .. })), 3);
        assert!(report.total_time > report.useful_work);
        assert!(report.waste() > 0.0 && report.waste() < 0.5);
    }

    #[test]
    fn library_failure_is_recovered_without_rollback_and_state_matches() {
        let params = params(0.5);
        let profile = ApplicationProfile::from_params_repeated(&params, 2);

        let mut clean = CompositeRuntime::new(processes(), params);
        let clean_report = clean.run(&profile, &[]).unwrap();

        let failure = PlannedFailure {
            epoch: 1,
            phase: PhaseKind::Library,
            fraction: 0.5,
            rank: 2,
        };
        let mut faulty = CompositeRuntime::new(processes(), params);
        let faulty_report = faulty.run(&profile, &[failure]).unwrap();

        // Same final application state, longer execution, ABFT recovery (and
        // no rollback) in the trace.
        assert_eq!(clean_report.final_fingerprint, faulty_report.final_fingerprint);
        assert!(faulty_report.total_time > clean_report.total_time);
        assert_eq!(
            faulty_report.count_events(|e| matches!(e, RuntimeEvent::AbftRecovery { .. })),
            1
        );
        assert_eq!(
            faulty_report.count_events(|e| matches!(e, RuntimeEvent::RollbackRecovery { .. })),
            0
        );
        // The ABFT recovery is much cheaper than a rollback: the overhead is
        // bounded by D + R_L̄ + Recons plus scheduling noise.
        let overhead = faulty_report.total_time - clean_report.total_time;
        let bound = params.downtime + params.recovery_cost_remainder() + params.abft_reconstruction;
        assert!(overhead <= bound + 1.0, "overhead {overhead} > bound {bound}");
    }

    #[test]
    fn general_failure_rolls_back_and_state_matches() {
        let params = params(0.3);
        let profile = ApplicationProfile::from_params_repeated(&params, 2);

        let mut clean = CompositeRuntime::new(processes(), params);
        let clean_report = clean.run(&profile, &[]).unwrap();

        let failure = PlannedFailure {
            epoch: 0,
            phase: PhaseKind::General,
            fraction: 0.6,
            rank: 1,
        };
        let mut faulty = CompositeRuntime::new(processes(), params);
        let faulty_report = faulty.run(&profile, &[failure]).unwrap();

        assert_eq!(clean_report.final_fingerprint, faulty_report.final_fingerprint);
        assert!(faulty_report.total_time > clean_report.total_time);
        assert_eq!(
            faulty_report.count_events(|e| matches!(e, RuntimeEvent::RollbackRecovery { .. })),
            1
        );
    }

    #[test]
    fn long_general_phase_takes_periodic_checkpoints() {
        // A 4-hour GENERAL-only epoch with a ~49-minute period: several
        // periodic checkpoints must appear.
        let params = params(0.0);
        let profile = ApplicationProfile::from_params(&params);
        let mut rt = CompositeRuntime::new(processes(), params);
        let report = rt.run(&profile, &[]).unwrap();
        let periodic = report.count_events(|e| matches!(e, RuntimeEvent::PeriodicCheckpoint { .. }));
        assert!(periodic >= 2, "only {periodic} periodic checkpoints");
        // And no forced entry/exit checkpoints since there is no library phase.
        assert_eq!(report.count_events(|e| matches!(e, RuntimeEvent::EntryCheckpoint { .. })), 0);
    }

    #[test]
    fn snapshot_resume_matches_uninterrupted_run_bit_identically() {
        let params = params(0.5);
        let profile = ApplicationProfile::from_params_repeated(&params, 4);
        let failures = vec![
            PlannedFailure { epoch: 0, phase: PhaseKind::General, fraction: 0.4, rank: 1 },
            PlannedFailure { epoch: 1, phase: PhaseKind::Library, fraction: 0.3, rank: 2 },
            PlannedFailure { epoch: 3, phase: PhaseKind::Library, fraction: 0.8, rank: 0 },
        ];

        let mut full = CompositeRuntime::new(processes(), params);
        let full_report = full.run(&profile, &failures).unwrap();

        for split_at in 1..=3 {
            // Run a prefix, kill, round-trip the snapshot through its byte
            // codec, resume in a fresh runtime, run the suffix.
            let mut prefix = CompositeRuntime::new(processes(), params);
            prefix.run_range(&profile, &failures, 0..split_at).unwrap();
            let snapshot = prefix.snapshot();
            drop(prefix);

            let bytes = snapshot.to_bytes();
            let reloaded = RuntimeSnapshot::from_bytes(&bytes).unwrap();
            assert_eq!(reloaded, snapshot);

            let mut resumed = CompositeRuntime::resume_from(&reloaded, params).unwrap();
            resumed
                .run_range(&profile, &failures, split_at..profile.epochs().len())
                .unwrap();
            let resumed_report = resumed.report(&profile);

            assert_eq!(resumed_report.final_fingerprint, full_report.final_fingerprint);
            assert_eq!(
                resumed_report.total_time.to_bits(),
                full_report.total_time.to_bits(),
                "split at epoch {split_at}"
            );
            assert_eq!(resumed_report.events, full_report.events);
        }
    }

    #[test]
    fn run_range_rejects_out_of_profile_epochs_and_tolerates_empty_ranges() {
        let params = params(0.5);
        let profile = ApplicationProfile::from_params_repeated(&params, 2);
        let mut rt = CompositeRuntime::new(processes(), params);
        assert!(rt.run_range(&profile, &[], 0..3).is_err());
        rt.run_range(&profile, &[], 1..1).unwrap();
        assert!(rt.report(&profile).events.is_empty());
    }

    #[test]
    fn library_failure_on_a_set_without_library_data_loses_nothing() {
        let params = params(0.5);
        let profile = ApplicationProfile::from_params(&params);
        let remainder_only = || {
            let mut set = ProcessSet::new(3);
            for p in set.iter_mut() {
                p.add_region(DatasetKind::Remainder, vec![7; 32]);
            }
            set
        };
        let clean = CompositeRuntime::new(remainder_only(), params).run(&profile, &[]).unwrap();
        let failure = PlannedFailure { epoch: 0, phase: PhaseKind::Library, fraction: 0.5, rank: 1 };
        let faulty = CompositeRuntime::new(remainder_only(), params)
            .run(&profile, &[failure])
            .unwrap();
        assert_eq!(faulty.final_fingerprint, clean.final_fingerprint);
        assert_eq!(faulty.count_events(|e| matches!(e, RuntimeEvent::AbftRecovery { .. })), 1);
    }

    #[test]
    fn non_finite_failure_fractions_are_rejected_before_any_epoch() {
        let params = params(0.5);
        let profile = ApplicationProfile::from_params_repeated(&params, 2);
        for (phase, fraction) in [
            (PhaseKind::General, f64::NAN),
            (PhaseKind::Library, f64::NAN),
            (PhaseKind::General, f64::INFINITY),
        ] {
            let mut rt = CompositeRuntime::new(processes(), params);
            let failure = PlannedFailure { epoch: 1, phase, fraction, rank: 0 };
            assert_eq!(
                rt.run(&profile, &[failure]),
                Err(ModelError::OutsideValidityDomain { what: "failure fraction" })
            );
            assert!(rt.report(&profile).events.is_empty());
        }
    }

    #[test]
    fn out_of_range_victim_ranks_are_rejected_before_any_epoch() {
        let params = params(0.5);
        let profile = ApplicationProfile::from_params_repeated(&params, 2);
        for phase in [PhaseKind::General, PhaseKind::Library] {
            let mut rt = CompositeRuntime::new(processes(), params);
            let before = rt.snapshot();
            let failure = PlannedFailure { epoch: 1, phase, fraction: 0.5, rank: 9 };
            assert_eq!(
                rt.run(&profile, &[failure]),
                Err(ModelError::OutsideValidityDomain { what: "victim rank" })
            );
            let after = rt.snapshot();
            assert!(after.events.is_empty(), "{phase:?}");
            assert_eq!(after.clock_bits, before.clock_bits, "{phase:?}");
            assert_eq!(after.next_epoch, before.next_epoch, "{phase:?}");
        }
    }

    #[test]
    fn snapshot_codec_rejects_malformed_bytes() {
        let params = params(0.5);
        let profile = ApplicationProfile::from_params(&params);
        let mut rt = CompositeRuntime::new(processes(), params);
        rt.run(&profile, &[]).unwrap();
        let bytes = rt.snapshot().to_bytes();
        assert!(RuntimeSnapshot::from_bytes(&bytes[..bytes.len() - 1]).is_none());
        assert!(RuntimeSnapshot::from_bytes(&[]).is_none());
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(RuntimeSnapshot::from_bytes(&padded).is_none());
        let mut bad_tag = bytes;
        // First event tag byte lives right after next_epoch/clock/count.
        bad_tag[8 + 8 + 4] = 99;
        assert!(RuntimeSnapshot::from_bytes(&bad_tag).is_none());
    }

    #[test]
    fn multiple_failures_in_the_same_library_phase_are_survived() {
        let params = params(0.8);
        let profile = ApplicationProfile::from_params(&params);
        let failures = vec![
            PlannedFailure { epoch: 0, phase: PhaseKind::Library, fraction: 0.2, rank: 0 },
            PlannedFailure { epoch: 0, phase: PhaseKind::Library, fraction: 0.7, rank: 3 },
        ];
        let mut clean = CompositeRuntime::new(processes(), params);
        let clean_report = clean.run(&profile, &[]).unwrap();
        let mut faulty = CompositeRuntime::new(processes(), params);
        let report = faulty.run(&profile, &failures).unwrap();
        assert_eq!(report.final_fingerprint, clean_report.final_fingerprint);
        assert_eq!(report.count_events(|e| matches!(e, RuntimeEvent::AbftRecovery { .. })), 2);
    }
}
