//! Crash-resume for protocol simulations: kill a run mid-epoch, persist a
//! snapshot through the durable checkpoint pipeline, reload, and continue
//! **bit-identically**.
//!
//! [`ResumableSim`] compiles a protocol × profile pair into its step
//! program ([`BatchProgram::compile`], the same [`Step`]s every simulation
//! path runs) and interprets it with the shared retry loops of
//! `Step::run`, tracking *snapshot boundaries*: the points where a
//! consistent [`SimSnapshot`] can be taken — at every step transition
//! (a checkpoint period's commit is one) and after every ABFT recovery
//! inside an [`Step::AbftWork`] step, where no work is lost.
//!
//! A snapshot is an IR position plus the environment: the step index, the
//! within-step progress (as raw `f64` bits), and the clock's `(now,
//! next_failure, failures)` state.  Because the trace-backed clock's draw
//! count is a pure function of the interrupt count (`failures + 1` draws
//! consumed), resuming positions the cursor with [`TraceBuffer::cursor_at`]
//! and continues the run through the identical arithmetic on identical
//! inputs — so the resumed outcome equals the uninterrupted one bit for bit
//! (`tests/crash_resume.rs` proves this differentially across protocols,
//! failure laws and every kill point).
//!
//! Snapshots persist through `ft-ckpt`'s checksummed frame pipeline
//! ([`SimSnapshot::persist`] / [`SimSnapshot::load`]), so a resumed run
//! only ever starts from a *verified* snapshot, and [`ResumableSim::resume`]
//! rejects a snapshot that does not fit its program with a typed
//! [`ResumeError`].

use ft_ckpt::backend::CheckpointBackend;
use ft_ckpt::pipeline::{CheckpointPipeline, RestoreOutcome};
use ft_ckpt::verify::RestoreFault;
use ft_composite::scenario::ApplicationProfile;
use ft_platform::checksum::ChecksumGen;
use ft_platform::failure::{FailureModel, FailureSource};
use ft_platform::trace::TraceBuffer;

use crate::batch::BatchProgram;
use crate::clock::SimClock;
use crate::engine::{Engine, Step};
use crate::protocols::{Protocol, SimOutcome};

/// Where within a step a snapshot was taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WithinStep {
    /// At the start of the step (the previous step just completed).
    StartOfStep,
    /// Inside a [`Step::AbftWork`] step, just after an ABFT recovery:
    /// `done` seconds of its φ-inflated work are performed (raw bits).
    AbftDone(u64),
}

/// A consistent, serializable snapshot of a simulation mid-run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimSnapshot {
    /// Protocol the run simulates (resume must use the same).
    pub protocol: Protocol,
    /// Index of the step the run is in (or about to enter).
    pub step: usize,
    /// Progress within that step.
    pub within: WithinStep,
    /// Clock `now`, raw bits.
    pub now_bits: u64,
    /// Clock `next_failure`, raw bits.
    pub next_failure_bits: u64,
    /// Failures counted so far (⇒ the failure source has consumed
    /// `failures + 1` draws).
    pub failures: u64,
}

/// Leading byte of a snapshot record.  Version 2 counts `step` in program
/// steps; the unversioned records before it counted checkpointed streams,
/// so they must not resume.
const SNAPSHOT_FORMAT: u8 = 2;

const SNAPSHOT_BYTES: usize = 1 + 1 + 8 + 1 + 8 + 8 + 8 + 8;

fn protocol_tag(p: Protocol) -> u8 {
    match p {
        Protocol::PurePeriodicCkpt => 0,
        Protocol::BiPeriodicCkpt => 1,
        Protocol::AbftPeriodicCkpt => 2,
    }
}

impl SimSnapshot {
    /// Serializes the snapshot into a fixed-size little-endian record.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(SNAPSHOT_BYTES);
        out.push(SNAPSHOT_FORMAT);
        out.push(protocol_tag(self.protocol));
        out.extend_from_slice(&(self.step as u64).to_le_bytes());
        let (tag, payload) = match self.within {
            WithinStep::StartOfStep => (0u8, 0u64),
            WithinStep::AbftDone(bits) => (1, bits),
        };
        out.push(tag);
        out.extend_from_slice(&payload.to_le_bytes());
        out.extend_from_slice(&self.now_bits.to_le_bytes());
        out.extend_from_slice(&self.next_failure_bits.to_le_bytes());
        out.extend_from_slice(&self.failures.to_le_bytes());
        out
    }

    /// Deserializes a snapshot; `None` on any malformed input, including a
    /// record of another format version.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        if bytes.len() != SNAPSHOT_BYTES || bytes[0] != SNAPSHOT_FORMAT {
            return None;
        }
        let protocol = match bytes[1] {
            0 => Protocol::PurePeriodicCkpt,
            1 => Protocol::BiPeriodicCkpt,
            2 => Protocol::AbftPeriodicCkpt,
            _ => return None,
        };
        let u64_at = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
        let payload = u64_at(11);
        let within = match bytes[10] {
            0 if payload == 0 => WithinStep::StartOfStep,
            1 => WithinStep::AbftDone(payload),
            _ => return None,
        };
        Some(Self {
            protocol,
            step: u64_at(2) as usize,
            within,
            now_bits: u64_at(19),
            next_failure_bits: u64_at(27),
            failures: u64_at(35),
        })
    }

    /// Persists the snapshot through a durable checkpoint pipeline as a
    /// checksummed `State` frame stream; returns its generation.
    pub fn persist<C, B>(
        &self,
        pipeline: &mut CheckpointPipeline<C, B>,
    ) -> Result<u64, ft_ckpt::backend::StoreFault>
    where
        C: ChecksumGen + Clone,
        B: CheckpointBackend,
    {
        pipeline.commit_state(&self.to_bytes(), f64::from_bits(self.now_bits))
    }

    /// Loads the newest **verified** snapshot from a pipeline (walking back
    /// over damaged generations like any other restore).
    pub fn load<C, B>(
        pipeline: &mut CheckpointPipeline<C, B>,
    ) -> Result<(Self, RestoreOutcome), RestoreFault>
    where
        C: ChecksumGen + Clone,
        B: CheckpointBackend,
    {
        let (bytes, outcome) = pipeline.restore_state()?;
        let snapshot = Self::from_bytes(&bytes).ok_or(RestoreFault::CorruptFrame {
            generation: outcome.generation,
            frame_index: 0,
        })?;
        Ok((snapshot, outcome))
    }
}

/// Outcome of a (possibly killed) resumable run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RunStatus {
    /// The run completed; here is its outcome.
    Finished(SimOutcome),
    /// The run was killed at the requested snapshot boundary.
    Killed(SimSnapshot),
}

/// Why [`ResumableSim::resume`] refused a snapshot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ResumeError {
    /// The snapshot was taken from a run of another protocol.
    ProtocolMismatch {
        /// Protocol recorded in the snapshot.
        snapshot: Protocol,
        /// Protocol of the run asked to resume it.
        run: Protocol,
    },
    /// The snapshot's step index lies past the end of the program.
    StepOutOfRange {
        /// Step index recorded in the snapshot.
        step: usize,
        /// Number of steps of the program.
        steps: usize,
    },
    /// The snapshot's within-step progress does not fit the step at its
    /// index (ABFT progress is only recorded inside [`Step::AbftWork`]).
    WithinMismatch {
        /// Step index recorded in the snapshot.
        step: usize,
        /// Within-step progress recorded in the snapshot.
        within: WithinStep,
    },
}

impl std::fmt::Display for ResumeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResumeError::ProtocolMismatch { snapshot, run } => {
                write!(f, "snapshot of {snapshot:?} cannot resume a {run:?} run")
            }
            ResumeError::StepOutOfRange { step, steps } => {
                write!(f, "snapshot step {step} lies past the {steps}-step program")
            }
            ResumeError::WithinMismatch { step, within } => {
                write!(f, "snapshot progress {within:?} does not fit step {step}")
            }
        }
    }
}

impl std::error::Error for ResumeError {}

/// A protocol run that can be killed at any snapshot boundary and resumed
/// bit-identically from the resulting [`SimSnapshot`].
#[derive(Debug, Clone)]
pub struct ResumableSim<'e> {
    engine: &'e Engine,
    protocol: Protocol,
    program: BatchProgram,
}

impl<'e> ResumableSim<'e> {
    /// Compiles a resumable run of `protocol` over `profile` on `engine`'s
    /// plan and failure model.
    pub fn new(engine: &'e Engine, protocol: Protocol, profile: &ApplicationProfile) -> Self {
        Self {
            engine,
            protocol,
            program: BatchProgram::compile(protocol, profile, engine.plan()),
        }
    }

    /// The compiled step sequence.
    pub fn steps(&self) -> &[Step] {
        self.program.steps()
    }

    /// Interprets the program from step `start`, `done` seconds into it,
    /// calling `boundary` at every snapshot boundary.  Stops at the first
    /// boundary for which `boundary` returns `true` and returns the
    /// snapshot position there; `None` when the run finished.
    fn drive<F: FailureSource>(
        &self,
        clock: &mut SimClock<F>,
        start: usize,
        mut done: f64,
        mut boundary: impl FnMut() -> bool,
    ) -> Option<(usize, WithinStep)> {
        let plan = self.engine.plan();
        for (index, step) in self.steps().iter().enumerate().skip(start) {
            if let Some(done) = step.run_from(clock, plan, done, &mut boundary) {
                return Some((index, WithinStep::AbftDone(done.to_bits())));
            }
            done = 0.0;
            // Step-transition boundary (including run completion, where a
            // snapshot resumes into an immediately-finished run).
            if boundary() {
                return Some((index + 1, WithinStep::StartOfStep));
            }
        }
        None
    }

    fn outcome<F: FailureSource>(&self, clock: &SimClock<F>) -> SimOutcome {
        SimOutcome {
            final_time: clock.now(),
            base_time: self.program.base_time(),
            failures: clock.failures(),
        }
    }

    /// Runs to completion, replaying `buffer`'s failure sequence.
    pub fn run<M: FailureModel>(&self, buffer: &mut TraceBuffer<M>) -> SimOutcome {
        let mut clock = SimClock::with_source(buffer.cursor());
        self.drive(&mut clock, 0, 0.0, || false);
        self.outcome(&clock)
    }

    /// Runs until the `kill_after`-th snapshot boundary (1-based); returns
    /// `Killed` with the snapshot, or `Finished` if the run completes with
    /// fewer boundaries.
    pub fn run_killed<M: FailureModel>(
        &self,
        buffer: &mut TraceBuffer<M>,
        kill_after: usize,
    ) -> RunStatus {
        let mut clock = SimClock::with_source(buffer.cursor());
        let mut boundaries = 0usize;
        let kill_after = kill_after.max(1);
        match self.drive(&mut clock, 0, 0.0, || {
            boundaries += 1;
            boundaries == kill_after
        }) {
            Some((step, within)) => RunStatus::Killed(SimSnapshot {
                protocol: self.protocol,
                step,
                within,
                now_bits: clock.now().to_bits(),
                next_failure_bits: clock.next_failure_time().to_bits(),
                failures: clock.failures() as u64,
            }),
            None => RunStatus::Finished(self.outcome(&clock)),
        }
    }

    /// Total number of snapshot boundaries of the full run on this failure
    /// sequence (kill points `1..=count` are all valid).
    pub fn count_boundaries<M: FailureModel>(&self, buffer: &mut TraceBuffer<M>) -> usize {
        let mut boundaries = 0usize;
        self.drive(&mut SimClock::with_source(buffer.cursor()), 0, 0.0, || {
            boundaries += 1;
            false
        });
        boundaries
    }

    /// Resumes a killed run from its snapshot, repositioning the failure
    /// cursor at `failures + 1` draws (see [`SimClock::resume`]), and runs
    /// to completion.
    ///
    /// # Errors
    ///
    /// A [`ResumeError`] when the snapshot belongs to another protocol, or
    /// its position does not exist in this run's program.
    pub fn resume<M: FailureModel>(
        &self,
        buffer: &mut TraceBuffer<M>,
        snapshot: &SimSnapshot,
    ) -> Result<SimOutcome, ResumeError> {
        if snapshot.protocol != self.protocol {
            return Err(ResumeError::ProtocolMismatch {
                snapshot: snapshot.protocol,
                run: self.protocol,
            });
        }
        let (step, steps) = (snapshot.step, self.steps().len());
        if step > steps {
            return Err(ResumeError::StepOutOfRange { step, steps });
        }
        let done = match snapshot.within {
            WithinStep::StartOfStep => 0.0,
            WithinStep::AbftDone(bits) if matches!(self.steps().get(step), Some(Step::AbftWork { .. })) => {
                f64::from_bits(bits)
            }
            within @ WithinStep::AbftDone(_) => {
                return Err(ResumeError::WithinMismatch { step, within })
            }
        };
        let failures = snapshot.failures as usize;
        let mut clock = SimClock::resume(
            buffer.cursor_at(failures + 1),
            f64::from_bits(snapshot.now_bits),
            f64::from_bits(snapshot.next_failure_bits),
            failures,
        );
        self.drive(&mut clock, step, done, || false);
        Ok(self.outcome(&clock))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_composite::params::ModelParams;
    use ft_platform::units::minutes;

    fn engine() -> Engine {
        let params = ModelParams::paper_figure7(0.5, minutes(120.0)).unwrap();
        Engine::new(&params)
    }

    #[test]
    fn uninterrupted_resumable_run_matches_the_engine_executor() {
        let engine = engine();
        let profile = ApplicationProfile::from_params_repeated(engine.params(), 3);
        let mut buffer = engine.trace_buffer(0);
        for protocol in Protocol::all() {
            let sim = ResumableSim::new(&engine, protocol, &profile);
            buffer.reset(17);
            let via_resume_harness = sim.run(&mut buffer);
            buffer.reset(17);
            let via_engine = engine.simulate_profile_replay(protocol, &profile, &mut buffer);
            assert_eq!(
                via_resume_harness.final_time.to_bits(),
                via_engine.final_time.to_bits(),
                "{protocol:?}"
            );
            assert_eq!(via_resume_harness.failures, via_engine.failures);
        }
    }

    #[test]
    fn kill_and_resume_is_bit_identical_at_a_few_points() {
        let engine = engine();
        let profile = ApplicationProfile::from_params_repeated(engine.params(), 2);
        let mut buffer = engine.trace_buffer(0);
        for protocol in Protocol::all() {
            let sim = ResumableSim::new(&engine, protocol, &profile);
            buffer.reset(5);
            let reference = sim.run(&mut buffer);
            buffer.reset(5);
            let total = sim.count_boundaries(&mut buffer);
            assert!(total > 0, "{protocol:?} produced no boundaries");
            for kill in [1, total / 2 + 1, total] {
                buffer.reset(5);
                let RunStatus::Killed(snapshot) = sim.run_killed(&mut buffer, kill) else {
                    panic!("{protocol:?}: kill point {kill}/{total} did not kill");
                };
                buffer.reset(5);
                let resumed = sim.resume(&mut buffer, &snapshot).unwrap();
                assert_eq!(
                    resumed.final_time.to_bits(),
                    reference.final_time.to_bits(),
                    "{protocol:?} kill {kill}/{total}"
                );
                assert_eq!(resumed.failures, reference.failures);
                assert_eq!(resumed.base_time, reference.base_time);
            }
        }
    }

    #[test]
    fn snapshot_codec_round_trips() {
        let snapshot = SimSnapshot {
            protocol: Protocol::AbftPeriodicCkpt,
            step: 7,
            within: WithinStep::AbftDone(1234.5f64.to_bits()),
            now_bits: 42.0f64.to_bits(),
            next_failure_bits: 99.75f64.to_bits(),
            failures: 13,
        };
        let bytes = snapshot.to_bytes();
        assert_eq!(bytes.len(), SNAPSHOT_BYTES);
        assert_eq!(SimSnapshot::from_bytes(&bytes).unwrap(), snapshot);
        assert!(SimSnapshot::from_bytes(&bytes[1..]).is_none());
        for (at, value) in [(0, SNAPSHOT_FORMAT + 1), (1, 9), (10, 7)] {
            let mut bad = bytes.clone();
            bad[at] = value;
            assert!(SimSnapshot::from_bytes(&bad).is_none(), "byte {at} = {value}");
        }
    }

    #[test]
    fn snapshots_persist_and_load_through_the_checkpoint_pipeline() {
        use ft_ckpt::backend::MemoryBackend;
        use ft_platform::checksum::Crc32;
        let snapshot = SimSnapshot {
            protocol: Protocol::PurePeriodicCkpt,
            step: 1,
            within: WithinStep::StartOfStep,
            now_bits: 1000.0f64.to_bits(),
            next_failure_bits: 1100.0f64.to_bits(),
            failures: 2,
        };
        let mut pipeline = CheckpointPipeline::new(Crc32::new(), MemoryBackend::new());
        let generation = snapshot.persist(&mut pipeline).unwrap();
        let (loaded, outcome) = SimSnapshot::load(&mut pipeline).unwrap();
        assert_eq!(loaded, snapshot);
        assert_eq!(outcome.generation, generation);
        assert_eq!(outcome.fallback_depth, 0);
    }
}
