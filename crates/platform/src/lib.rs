//! # ft-platform — platform substrate for fault-tolerance studies
//!
//! This crate models the *execution platform* that the composite
//! ABFT + checkpointing study of Bosilca et al. (APDCM 2014) reasons about:
//!
//! * [`failure`] — failure inter-arrival distributions (exponential, Weibull)
//!   with deterministic seeding;
//! * [`trace`] — replayable recordings of one sampled failure sequence, the
//!   common random numbers behind paired protocol comparisons;
//! * [`batch`] — lane-indexed batch failure sampling (independent streams,
//!   antithetic partners and trace replay per lane) and the run-time
//!   dispatched lane kernel of the fast pass, for the structure-of-arrays
//!   simulation engine;
//! * [`grid`] — the virtual 2-D process grid used by the ABFT substrate;
//! * [`scenario`] — trace-driven and non-stationary failure scenarios
//!   (recorded-trace playback, cascade bursts, diurnal modulation,
//!   wear-out) that deliberately break the i.i.d. inter-arrival assumption
//!   while staying bit-exactly replayable;
//! * [`rng`] — small, fully deterministic random number generators so that
//!   every simulation in the workspace is reproducible from a `u64` seed;
//! * [`checksum`] — streaming 32-bit checksum generators (CRC-32 and a null
//!   generator) backing `ft-ckpt`'s verified checkpoint frames;
//! * [`clock`] — the sanctioned measurement [`clock::Stopwatch`] (wall-clock
//!   or injected time), the only place library code may read real time;
//! * [`special`] — the Gamma-function family backing the Weibull moment
//!   helpers ([`failure::FailureSpec::conditional_mean_below`] and friends);
//! * [`units`] — readable constructors for durations.
//!
//! Everything here is a *model* of a platform: no MPI, no real I/O.  The
//! higher-level crates (`ft-ckpt`, `ft-abft`, `ft-sim`, `ft-composite`)
//! consume these descriptions to compute costs and to drive discrete-event
//! simulations.

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod batch;
pub mod checksum;
pub mod clock;
pub mod error;
pub mod failure;
pub mod grid;
pub mod rng;
pub mod scenario;
pub mod special;
pub mod trace;
pub mod units;

pub use batch::{
    BatchFailureSource, BatchFailureStream, BatchTraceBuffer, BatchTraceCursor, CommitKernel,
    ForkRecord, ForkedStream, Worklist,
};
pub use checksum::{ChecksumGen, Crc32, NullChecksum};
pub use error::PlatformError;
pub use failure::{
    AnyFailureModel, ExponentialFailures, FailureModel, FailureSource, FailureSpec, FailureStream,
    LogNormalFailures, SourceState, WeibullFailures,
};
pub use grid::ProcessGrid;
pub use rng::{AntitheticRng, DeterministicRng, SeedStream, SplitMix64, Xoshiro256};
pub use scenario::{
    bundled_playback, playback_from_file, CascadeFailures, DiurnalFailures, RecordedTrace,
    ScenarioError, ScenarioSpec, TraceFileError, TracePlayback, WearoutFailures,
};
pub use trace::{TraceBuffer, TraceCursor};
