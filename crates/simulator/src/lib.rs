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
//! * [`replicate`](mod@replicate) — Monte-Carlo replication: Rayon-parallel
//!   over replications, or sequential (the `ft-bench` sweep subsystem's
//!   path) under a [`ReplicationBudget`] — fixed counts or adaptive
//!   precision-targeted stopping — with common-random-numbers pairing of
//!   protocols over shared failure traces ([`accumulate_paired`]);
//! * [`batch`](mod@batch) — the structure-of-arrays batch engine: many
//!   replications of one parameter point advanced in lockstep through a
//!   compiled step program, with interrupted lanes rerun by the shared
//!   interpreter — bit-exact with the scalar executors (proven by the
//!   differential oracle harness in `tests/batch_engine_oracle.rs`);
//! * [`validate`] — model-versus-simulation comparison grids (the right-hand
//!   column of Figure 7);
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
    accumulate_paired_engine_batch, accumulate_paired_programs_batch,
    accumulate_profile_engine_batch, accumulate_profile_program_batch, simulate_profile_batch,
    simulate_profile_batch_antithetic, simulate_profile_batch_replay, BatchProgram,
    BatchProgramCache, BatchState, DEFAULT_BATCH_LANES,
};
pub use clock::{ActivityResult, SimClock};
pub use engine::{
    BiExecutor, CompositeExecutor, Engine, PeriodPlan, ProtocolExecutor, PureExecutor, Step,
};
pub use protocols::{simulate, Protocol, SimOutcome};
pub use resume::{ResumableSim, ResumeError, RunStatus, SimSnapshot, WithinStep};
pub use replicate::{
    accumulate, accumulate_budget, accumulate_engine_budget, accumulate_paired,
    accumulate_paired_engine, accumulate_profile, accumulate_profile_budget,
    accumulate_profile_engine, replicate, replicate_all, PairedAccumulator, ReplicationBudget,
    ReplicationPlan, SimStats,
};
pub use stats::{OutcomeAccumulator, Welford};
pub use validate::{model_waste_with, validation_grid, ValidationCell};
