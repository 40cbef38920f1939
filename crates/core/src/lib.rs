//! # ft-composite — the composite ABFT + checkpointing study
//!
//! This crate is the Rust embodiment of the contribution of
//! *Assessing the Impact of ABFT and Checkpoint Composite Strategies*
//! (Bosilca, Bouteiller, Hérault, Robert, Dongarra — APDCM/IPDPSW 2014):
//!
//! * [`params`] — the model parameters of Section IV-A (`T0`, `α`, `C`, `R`,
//!   `D`, `ρ`, `φ`, `Recons_ABFT`, `µ`, …) with validation;
//! * [`young_daly`] — Young's and Daly's optimal checkpoint periods and the
//!   paper's refinement `P_opt = √(2C(µ − D − R))` (Equation 11);
//! * [`model`] — closed-form expected execution times and waste for the three
//!   protocols of the paper: [`model::pure`] (PurePeriodicCkpt),
//!   [`model::bi`] (BiPeriodicCkpt) and [`model::composite`]
//!   (ABFT&PeriodicCkpt) — Equations (1)–(14) — generic over the
//!   [`model::analytic::WasteModel`] failure law (exponential first-order or
//!   Weibull-corrected, dispatched from a `FailureSpec`);
//! * [`safeguard`] — the runtime rule of Section III-B that skips ABFT when
//!   the projected library-call duration is below the optimal checkpoint
//!   period;
//! * [`scenario`] — application profiles (sequences of GENERAL/LIBRARY
//!   phases) consumed by the simulator and by the composite runtime;
//! * [`composite_runtime`] — an executable state machine of the composite
//!   protocol driving the `ft-ckpt` substrate on real process state, with
//!   LIBRARY-phase failures repaired by `ft-abft` checksum reconstruction;
//! * [`scaling`] — the weak-scaling scenario generators behind Figures 8, 9
//!   and 10 of the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod composite_runtime;
pub mod error;
pub mod model;
pub mod params;
pub mod safeguard;
pub mod scaling;
pub mod scenario;
pub mod young_daly;

pub use composite_runtime::{CompositeRuntime, RuntimeEvent, RuntimeSnapshot};
pub use error::ModelError;
pub use model::analytic::{AnyWasteModel, FirstOrderExponential, WasteModel, WeibullCorrected};
pub use model::waste::Waste;
pub use params::ModelParams;
pub use scenario::{ApplicationProfile, Epoch};
