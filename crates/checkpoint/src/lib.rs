//! # ft-ckpt — checkpoint/restart substrate
//!
//! An in-memory implementation of the checkpointing machinery the composite
//! protocol of Bosilca et al. (APDCM 2014) relies on:
//!
//! * [`state`] — per-process application state, organised in memory regions
//!   tagged as LIBRARY or REMAINDER dataset, with modification tracking and
//!   copy-on-write buffers that checkpoints share instead of copying;
//! * [`coordinated`] — coordinated (globally consistent) checkpoints across a
//!   set of processes;
//! * [`partial`] — partial checkpoints covering only one dataset, and the
//!   *split checkpoint* formed by composing the entry checkpoint (REMAINDER)
//!   with the exit checkpoint (LIBRARY) of a library call (paper §III-A);
//! * [`incremental`] — incremental checkpoints capturing only the regions
//!   modified since the previous checkpoint (paper §III-B);
//! * [`restore`] — rollback recovery, full or partial;
//! * [`frame`] — the checksummed frame wire format checkpoints are
//!   serialized into (header/chunks/trailer, each carrying a checksum);
//! * [`backend`] — pluggable stores for serialized streams: in-memory,
//!   chunked files with fsync + atomic-rename commit, and a deterministic
//!   fault-injecting decorator (bit flips, truncations, torn writes,
//!   transient read faults);
//! * [`verify`] — verified retrieval with a typed failure taxonomy and
//!   bounded deterministic retry/backoff for transients;
//! * [`pipeline`] — the durable pipeline tying the above together: commit
//!   full/delta/partial/state generations, restore the newest *verifiable*
//!   one with graceful walk-back, retain the newest generations, and
//!   measure per-generation write/verify/restore costs.
//!
//! The substrate gives `ft-composite`'s composite protocol runtime actual
//! dataset semantics (what exactly is restored after a rollback), and its
//! pipeline persists `ft-sim`'s crash-resume snapshots.  The simulator's
//! protocol executors charge checkpoint costs from the model parameters and
//! never touch it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod backend;
pub mod coordinated;
pub mod error;
pub mod frame;
pub mod incremental;
pub mod partial;
pub mod pipeline;
pub mod restore;
pub mod state;
pub mod verify;

pub use backend::{
    CheckpointBackend, ChunkedFileBackend, FaultInjectingBackend, FaultPlan, InjectedKind,
    MemoryBackend, StoreFault,
};
pub use coordinated::CoordinatedCheckpoint;
pub use error::CkptError;
pub use frame::{FrameFault, FrameHeader, FrameWriter, PayloadKind};
pub use incremental::IncrementalCheckpoint;
pub use partial::{PartialCheckpoint, SplitCheckpoint};
pub use pipeline::{
    apply_partial_onto, CheckpointPipeline, GenerationCost, PipelineOp, RestoreOutcome,
};
pub use restore::{restore_full, restore_partial, RestoreReport};
pub use state::{DatasetKind, MemoryRegion, ProcessSet, ProcessState};
pub use verify::{fetch_verified, RestoreFault, RetryPolicy, VerifiedStream};
