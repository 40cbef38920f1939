//! # ft-sim — discrete-event simulator for the composite study
//!
//! The validation arm of the paper (Section V-A): a simulator that unfolds an
//! application and a fault-tolerance protocol over a stream of random
//! failures, "accurately reproducing the corresponding costs" including the
//! corner cases the closed-form model neglects (failures during checkpoints,
//! during recoveries, during downtime, several failures per period, …).
//!
//! * [`clock`] — the simulation clock: pluggable failure arrivals (from
//!   `ft-platform`'s allocation-free failure streams, or one lane of a batch
//!   source), the `try_run` primitive (run an activity until it completes or
//!   a failure interrupts it) and the rollback-recovery helper;
//! * [`engine`] — the protocol step IR ([`Step`]), its one compiler
//!   (`emit_steps`) and its one interpreter (`Step::run`), the
//!   per-point precomputed [`PeriodPlan`] and the [`ProtocolExecutor`]s for
//!   the three protocols over multi-epoch application profiles;
//! * [`protocols`] — protocol identities ([`Protocol`]) and simulation
//!   outcomes ([`SimOutcome`]);
//! * [`stats`] — Welford accumulation, confidence intervals, the single
//!   outcome aggregator of the workspace;
//! * [`replicate`] — Monte-Carlo replication plans: a
//!   [`ReplicationBudget`] (fixed counts or adaptive precision-targeted
//!   stopping), antithetic pairing, and the [`PairedAccumulator`] that
//!   pairs protocols over shared failure traces and holds the one
//!   per-sample push and stopping rule; plus the scalar reference driver
//!   [`accumulate_paired_engine`];
//! * [`batch`](mod@batch) — the structure-of-arrays batch engine: many
//!   replications of one parameter point advanced in lockstep through a
//!   compiled step program, with interrupted lanes rerun by the shared
//!   interpreter — bit-exact with the scalar executors (proven by the
//!   differential oracle harness in `tests/batch_engine_oracle.rs`) — and
//!   the one replication driver, [`accumulate_paired_programs_batch`],
//!   parallel within a point on scoped threads;
//! * [`validate`] — the closed-form model arm of a model-versus-simulation
//!   comparison (the right-hand column of Figure 7);
//! * [`resume`](mod@resume) — crash-resume: kill a run at any snapshot
//!   boundary of its step program, persist a [`SimSnapshot`] (program
//!   position + clock state) through `ft-ckpt`'s checksummed frame
//!   pipeline, and resume bit-identically (proven by the differential
//!   harness in `tests/crash_resume.rs`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod batch;
pub mod clock;
pub mod engine;
pub mod protocols;
pub mod replicate;
pub mod resume;
pub mod stats;
pub mod validate;

pub use batch::{
    accumulate_paired_programs_batch, accumulate_profile_program_batch, simulate_profile_batch,
    BatchProgram, BatchProgramCache, BatchState, DEFAULT_BATCH_LANES,
};
pub use clock::{ActivityResult, SimClock};
pub use engine::{
    BiExecutor, CompositeExecutor, Engine, PeriodPlan, ProtocolExecutor, PureExecutor, Step,
};
pub use protocols::{simulate, Protocol, SimOutcome};
pub use resume::{ResumableSim, ResumeError, RunStatus, SimSnapshot, WithinStep};
pub use replicate::{
    accumulate_paired_engine, PairedAccumulator, ReplicationBudget, ReplicationPlan, SimStats,
};
pub use stats::{OutcomeAccumulator, Welford};
pub use validate::model_waste_with;
