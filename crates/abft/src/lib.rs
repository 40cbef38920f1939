//! # ft-abft — Algorithm-Based Fault Tolerance substrate
//!
//! An in-memory, algorithm-level implementation of the ABFT techniques the
//! composite protocol of Bosilca et al. (APDCM 2014) assumes for its LIBRARY
//! phases: block-group checksums à la Du et al. (PPoPP 2012), with
//! process-failure injection and recovery.
//!
//! * [`matrix`] — a small dense-matrix type (row-major `f64`) with the
//!   operations the factorization needs;
//! * [`checksum`] — the block-group layout that decides which checksum
//!   protects which entry;
//! * [`lu`] — right-looking LU factorization (no pivoting) on a
//!   checksum-augmented matrix, with mid-factorization failure recovery;
//! * [`blockcyclic`] — 2-D block-cyclic ownership map over a virtual process
//!   grid, used to decide *which* entries a process failure destroys;
//! * [`recovery`] — a dataset kept checksum-encoded at rest, whose lost
//!   entries are rebuilt from the surviving data and the checksums; the
//!   composite runtime of `ft-composite` repairs LIBRARY-phase failures
//!   with it;
//! * [`overhead`] — measurement of the ABFT overhead factor `φ` and of the
//!   reconstruction time `Recons_ABFT`, the two quantities the analytical
//!   model consumes.
//!
//! ## Scope and substitutions
//!
//! There is no MPI here: the "distributed" matrix is a global matrix plus an
//! ownership map, and killing a process means destroying the entries it owns.
//! This preserves exactly the property the paper relies on — *lost LIBRARY
//! data can be recomputed from the surviving processes' data and checksums,
//! without any rollback* — while keeping the substrate testable on a laptop.
//! The LU factorization skips pivoting (appropriate for the
//! diagonally-dominant test matrices used throughout), which is documented
//! on its type.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod blockcyclic;
pub mod checksum;
pub mod error;
pub mod lu;
pub mod matrix;
pub mod overhead;
pub mod recovery;

pub use blockcyclic::BlockCyclicLayout;
pub use error::AbftError;
pub use lu::{blocked_lu, plain_lu, AbftLu};
pub use matrix::Matrix;
pub use overhead::{measure_overhead, OverheadReport};
