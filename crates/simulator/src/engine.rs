//! The protocol engine: one step program per protocol, one interpreter.
//!
//! The module has four layers:
//!
//! * [`PeriodPlan`] — everything a protocol needs that can be computed
//!   *once per parameter point* instead of once per phase: the optimal
//!   periods `P_opt` for full and LIBRARY-only checkpoints, the split
//!   checkpoint costs, the recovery costs.  Replications of the same point
//!   share the plan, keeping `sqrt`s and parameter validation off the
//!   simulation hot path;
//! * `emit_steps` — the one protocol compiler: it walks a multi-epoch
//!   [`ApplicationProfile`] and emits the protocol's straight-line program
//!   of failure-interruptible [`Step`]s (checkpointed periods, forced
//!   checkpoints, ABFT-protected work and its exit checkpoint);
//! * `Step::run` — the one interpreter: each step kind's retry loop, with
//!   rollback and ABFT recovery.  The scalar executors, the batch engine's
//!   slow path ([`crate::batch`]) and crash-resume ([`crate::resume`]) all
//!   run steps through it;
//! * [`ProtocolExecutor`] — the pluggable strategy: given a clock, a
//!   profile and the plan, unfold the whole application.  [`PureExecutor`],
//!   [`BiExecutor`] and [`CompositeExecutor`] name the paper's three
//!   protocols and interpret their programs as they are emitted; a new
//!   protocol (e.g. a forward/backward composite recovery scheme) adds its
//!   steps here and runs everywhere.
//!
//! The executors are generic over the clock's [`FailureSource`], so the same
//! protocol code runs under exponential (the paper) and Weibull (robustness
//! studies) failures, freshly sampled or replayed from a recorded
//! [`TraceBuffer`] — the latter is how [`Engine::simulate_paired`] shows the
//! **same** failure sequence to every protocol (common random numbers),
//! turning protocol comparisons into paired comparisons.
//!
//! For a single-epoch profile the engine reproduces the pre-refactor
//! `simulate()` results on the same seed, and multi-epoch profiles
//! reproduce golden outcomes under every failure source (see the pinned
//! regression tests in `tests/engine_regression.rs`).

use ft_composite::model::analytic::{AnyWasteModel, WasteModel};
use ft_composite::params::ModelParams;
use ft_composite::scenario::ApplicationProfile;
use ft_platform::failure::{
    AnyFailureModel, ExponentialFailures, FailureModel, FailureSource, FailureSpec, FailureStream,
};
use ft_platform::trace::TraceBuffer;

use crate::clock::{ActivityResult, SimClock};
use crate::protocols::{Protocol, SimOutcome};

/// Per-parameter-point precomputation shared by every replication: optimal
/// checkpoint periods and the split checkpoint/recovery costs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeriodPlan {
    /// Optimal period for full checkpoints of cost `C`
    /// (`+∞` when no finite period is viable).
    pub full_period: f64,
    /// Optimal period for LIBRARY-only checkpoints of cost `ρC`.
    pub library_period: f64,
    /// Full checkpoint cost `C`.
    pub ckpt_full: f64,
    /// LIBRARY-dataset checkpoint cost `C_L = ρC`.
    pub ckpt_library: f64,
    /// REMAINDER-dataset checkpoint cost `C_L̄ = (1 − ρ)C`.
    pub ckpt_remainder: f64,
    /// Full rollback reload cost `R`.
    pub recovery: f64,
    /// REMAINDER-dataset reload cost `(1 − ρ)R`.
    pub recovery_remainder: f64,
    /// Downtime `D` after a failure.
    pub downtime: f64,
    /// ABFT slowdown factor `φ`.
    pub phi: f64,
    /// ABFT reconstruction time.
    pub abft_reconstruction: f64,
}

impl PeriodPlan {
    /// Precomputes the plan for one parameter point under the paper's
    /// exponential first-order periods (Equation 11) — bit-identical to
    /// `with_model(params, &AnyWasteModel::first_order())`.
    pub fn new(params: &ModelParams) -> Self {
        Self::with_model(params, &ft_composite::model::analytic::FirstOrderExponential)
    }

    /// Precomputes the plan with the checkpoint periods an arbitrary
    /// [`WasteModel`] prescribes: a protocol tuned for a Weibull clock
    /// checkpoints at the Weibull-corrected optimal period, not at the
    /// exponential one.  Everything besides the two periods is
    /// model-independent.
    pub fn with_model<M: WasteModel + ?Sized>(params: &ModelParams, model: &M) -> Self {
        let period_for = |ckpt: f64| {
            model
                .optimal_period(
                    ckpt,
                    params.platform_mtbf,
                    params.downtime,
                    params.recovery_cost,
                )
                .unwrap_or(f64::INFINITY)
        };
        Self {
            full_period: period_for(params.checkpoint_cost),
            library_period: period_for(params.checkpoint_cost_library()),
            ckpt_full: params.checkpoint_cost,
            ckpt_library: params.checkpoint_cost_library(),
            ckpt_remainder: params.checkpoint_cost_remainder(),
            recovery: params.recovery_cost,
            recovery_remainder: params.recovery_cost_remainder(),
            downtime: params.downtime,
            phi: params.phi,
            abft_reconstruction: params.abft_reconstruction,
        }
    }
}

/// One failure-interruptible step of a compiled protocol program — the
/// single intermediate form every simulation path runs.
///
/// In every protocol of the study, failures only cause *retries*: they never
/// change **which** activities run in **what order**.  The step sequence is
/// therefore a pure function of `(protocol, profile, plan)` (`emit_steps`),
/// and each step carries its own retry loop (`Step::run`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Step {
    /// One checkpointed-stream attempt unit: `work` seconds of rollback-
    /// protected work followed by a checkpoint of cost `ckpt`; a failure
    /// anywhere in the attempt discards it (after a rollback recovery).
    Period {
        /// Useful work of the period, seconds.
        work: f64,
        /// Cost of the checkpoint that makes the period durable.
        ckpt: f64,
    },
    /// A forced checkpoint retried (after rollback recovery) until clean.
    Forced {
        /// Cost of the checkpoint.
        cost: f64,
    },
    /// An ABFT-protected work phase: failures cost an ABFT recovery but lose
    /// no work.
    AbftWork {
        /// φ-inflated LIBRARY work, seconds.
        work: f64,
    },
    /// The forced LIBRARY exit checkpoint, retried after ABFT recoveries
    /// (the library data is still checksum-encoded).
    AbftCkpt {
        /// Cost of the checkpoint.
        cost: f64,
    },
}

/// Compiles `protocol` over `profile` under `plan` into its step program,
/// handing each [`Step`] to `emit` in execution order — the one protocol
/// compiler.  The scalar executors interpret the steps as they come; the
/// batch engine and crash-resume collect them.
pub(crate) fn emit_steps(
    protocol: Protocol,
    profile: &ApplicationProfile,
    plan: &PeriodPlan,
    mut emit: impl FnMut(Step),
) {
    match protocol {
        // Phase-oblivious: the whole application — all epochs, GENERAL and
        // LIBRARY phases alike — is one checkpointed stream.
        Protocol::PurePeriodicCkpt => emit_stream(
            profile.total_duration(),
            plan.ckpt_full,
            plan.full_period,
            &mut emit,
        ),
        // Phase-aware: full checkpoints in GENERAL phases, incremental (ρC)
        // ones in LIBRARY phases; recovery still reloads everything.
        Protocol::BiPeriodicCkpt => {
            for epoch in profile.epochs() {
                emit_stream(epoch.general, plan.ckpt_full, plan.full_period, &mut emit);
                emit_stream(
                    epoch.library,
                    plan.ckpt_library,
                    plan.library_period,
                    &mut emit,
                );
            }
        }
        // Composite: periodic checkpointing in GENERAL phases ending in the
        // forced entry checkpoint of the REMAINDER dataset, ABFT inside
        // LIBRARY phases ending in the forced exit checkpoint of the LIBRARY
        // dataset.
        Protocol::AbftPeriodicCkpt => {
            for epoch in profile.epochs() {
                let work = epoch.general;
                if work <= 0.0 {
                    // Even with no GENERAL work, entering the library
                    // requires the forced REMAINDER checkpoint.
                    if epoch.library > 0.0 {
                        emit(Step::Forced {
                            cost: plan.ckpt_remainder,
                        });
                    }
                } else if work < plan.full_period {
                    // Short phase: no periodic checkpoint, a failure rolls
                    // back to the start of the phase, which ends with the
                    // forced REMAINDER checkpoint — one attempt unit.
                    emit(Step::Period {
                        work,
                        ckpt: plan.ckpt_remainder,
                    });
                } else {
                    // Long phase: the last periodic checkpoint doubles as
                    // the forced entry checkpoint (the paper's "the last
                    // periodic checkpoint replaces that of size C_L̄").
                    emit_stream(work, plan.ckpt_full, plan.full_period, &mut emit);
                }
                if epoch.library > 0.0 {
                    emit(Step::AbftWork {
                        work: plan.phi * epoch.library,
                    });
                    emit(Step::AbftCkpt {
                        cost: plan.ckpt_library,
                    });
                }
            }
        }
    }
}

/// Emits `work` seconds of useful work protected by periodic checkpoints of
/// cost `ckpt` at period `period` (`+∞` saves the stream in one attempt) as
/// one [`Step::Period`] per checkpoint period.  Work performed since the
/// last completed checkpoint is lost when a failure strikes.
fn emit_stream(work: f64, ckpt: f64, period: f64, mut emit: impl FnMut(Step)) {
    if work <= 0.0 {
        return;
    }
    // Work executed per period (the period includes the checkpoint).
    let work_per_period = if period.is_finite() && period > ckpt {
        period - ckpt
    } else {
        work
    };
    let mut saved = 0.0;
    while saved < work {
        let target = work_per_period.min(work - saved);
        emit(Step::Period { work: target, ckpt });
        saved += target;
    }
}

impl Step {
    /// Runs the step to completion on `clock`, retrying after every failure
    /// — the one retry loop of each step kind, shared by the scalar
    /// executors, the batch engine's slow path and crash-resume.
    #[inline(always)]
    pub(crate) fn run<F: FailureSource>(self, clock: &mut SimClock<F>, plan: &PeriodPlan) {
        self.run_from(clock, plan, 0.0, || false);
    }

    /// `Step::run` entered `done` seconds into an [`Step::AbftWork`] step
    /// (`0.0` for a fresh step).  After every ABFT recovery inside
    /// `AbftWork`, where no work is lost, `suspend` may stop the step: the
    /// call then returns `Some(done)` and resuming with that `done` on the
    /// same clock continues bit-identically.
    #[inline(always)]
    pub(crate) fn run_from<F: FailureSource>(
        self,
        clock: &mut SimClock<F>,
        plan: &PeriodPlan,
        done: f64,
        suspend: impl FnMut() -> bool,
    ) -> Option<f64> {
        match self {
            Step::Period { work, ckpt } => run_period(clock, work, ckpt, plan),
            Step::Forced { cost } => {
                while !clock.try_run(cost).is_completed() {
                    clock.recover(plan.downtime, plan.recovery);
                }
            }
            Step::AbftWork { work } => return run_abft_work(clock, work, plan, done, suspend),
            Step::AbftCkpt { cost } => {
                while !clock.try_run(cost).is_completed() {
                    abft_recover(clock, plan);
                }
            }
        }
        None
    }
}

/// The retry loop of [`Step::Period`]: the period's work restarts from
/// scratch after a rollback, and a failure during its checkpoint discards
/// the attempt.
fn run_period<F: FailureSource>(clock: &mut SimClock<F>, work: f64, ckpt: f64, plan: &PeriodPlan) {
    loop {
        while !clock.try_run(work).is_completed() {
            clock.recover(plan.downtime, plan.recovery);
        }
        if clock.try_run(ckpt).is_completed() {
            return;
        }
        clock.recover(plan.downtime, plan.recovery);
    }
}

/// The retry loop of [`Step::AbftWork`] (see [`Step::run_from`]): failures
/// cost an ABFT recovery but lose no work.
fn run_abft_work<F: FailureSource>(
    clock: &mut SimClock<F>,
    work: f64,
    plan: &PeriodPlan,
    mut done: f64,
    mut suspend: impl FnMut() -> bool,
) -> Option<f64> {
    while done < work {
        match clock.try_run(work - done) {
            ActivityResult::Completed => done = work,
            ActivityResult::Interrupted { progress } => {
                done += progress;
                abft_recover(clock, plan);
                if suspend() {
                    return Some(done);
                }
            }
        }
    }
    None
}

/// ABFT recovery: downtime, reload of the REMAINDER dataset from the entry
/// checkpoint, reconstruction of the LIBRARY dataset from the checksums.
/// Failures during the recovery restart it.
fn abft_recover<F: FailureSource>(clock: &mut SimClock<F>, plan: &PeriodPlan) {
    loop {
        if clock.try_run(plan.downtime).is_completed()
            && clock.try_run(plan.recovery_remainder).is_completed()
            && clock.try_run(plan.abft_reconstruction).is_completed()
        {
            return;
        }
    }
}

/// A pluggable fault-tolerance protocol: unfolds a whole application
/// profile over the failure stream of a clock, charging every
/// protocol-specific overhead.
pub trait ProtocolExecutor<F: FailureSource = FailureStream<ExponentialFailures>> {
    /// Which protocol this executor implements.
    fn protocol(&self) -> Protocol;

    /// Unfolds `profile` on `clock` under this protocol.  The default
    /// interprets the protocol's step program as `emit_steps` emits it,
    /// so no program is allocated per execution.
    fn execute(&self, clock: &mut SimClock<F>, profile: &ApplicationProfile, plan: &PeriodPlan) {
        // Inlining the interpreter into every emit site folds its match on
        // the site's constant step kind, so the executors run straight-line
        // retry loops (without it the fig9 composite executor ran ~45 %
        // slower on a 2-vCPU Xeon).
        emit_steps(
            self.protocol(),
            profile,
            plan,
            #[inline(always)]
            |step| step.run(clock, plan),
        );
    }
}

/// Every [`Protocol`] executes its own step program.
impl<F: FailureSource> ProtocolExecutor<F> for Protocol {
    fn protocol(&self) -> Protocol {
        *self
    }
}

/// Phase-oblivious coordinated periodic checkpointing
/// ([`Protocol::PurePeriodicCkpt`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct PureExecutor;

impl<F: FailureSource> ProtocolExecutor<F> for PureExecutor {
    fn protocol(&self) -> Protocol {
        Protocol::PurePeriodicCkpt
    }
}

/// Phase-aware periodic checkpointing ([`Protocol::BiPeriodicCkpt`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct BiExecutor;

impl<F: FailureSource> ProtocolExecutor<F> for BiExecutor {
    fn protocol(&self) -> Protocol {
        Protocol::BiPeriodicCkpt
    }
}

/// The composite protocol ([`Protocol::AbftPeriodicCkpt`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct CompositeExecutor;

impl<F: FailureSource> ProtocolExecutor<F> for CompositeExecutor {
    fn protocol(&self) -> Protocol {
        Protocol::AbftPeriodicCkpt
    }
}

/// The simulation engine for one parameter point: owns the precomputed
/// [`PeriodPlan`], the point's failure model and assembles [`SimOutcome`]s
/// from executor runs.
#[derive(Debug, Clone, Copy)]
pub struct Engine {
    params: ModelParams,
    plan: PeriodPlan,
    model: AnyFailureModel,
}

impl Engine {
    /// Builds an engine (and its plan) for one parameter point, under the
    /// paper's exponential failure assumption.
    pub fn new(params: &ModelParams) -> Self {
        Self::with_failure_model(
            params,
            AnyFailureModel::Exponential(
                ExponentialFailures::new(params.platform_mtbf).expect("validated positive MTBF"),
            ),
        )
    }

    /// Builds an engine whose simulation arm draws failures from an
    /// arbitrary model (e.g. Weibull for the robustness studies).  The
    /// model's mean should be the point's platform MTBF for the closed-form
    /// predictions to stay comparable.
    ///
    /// The plan is derived from the **matching analytic waste model**
    /// ([`Engine::waste_model`]): under a Weibull clock the simulated
    /// protocols checkpoint at the Weibull-corrected optimal period, so the
    /// model arm and the simulation arm always describe the same protocol
    /// tuned for the same failure law.  (At `k = 1`, and for every
    /// exponential engine, the corrected periods are bit-identical to the
    /// paper's Equation 11 — the historical behaviour.)
    pub fn with_failure_model(params: &ModelParams, model: AnyFailureModel) -> Self {
        let waste_model = AnyWasteModel::from_spec(model.spec())
            .expect("a built failure model always has a valid spec");
        Self {
            params: *params,
            plan: PeriodPlan::with_model(params, &waste_model),
            model,
        }
    }

    /// Builds an engine from a declarative [`FailureSpec`], resolving the
    /// model at the point's platform MTBF.
    pub fn with_failure_spec(
        params: &ModelParams,
        spec: FailureSpec,
    ) -> ft_platform::error::Result<Self> {
        Ok(Self::with_failure_model(params, spec.build(params.platform_mtbf)?))
    }

    /// The parameter point this engine simulates.
    pub fn params(&self) -> &ModelParams {
        &self.params
    }

    /// The precomputed plan.
    pub fn plan(&self) -> &PeriodPlan {
        &self.plan
    }

    /// The failure model the simulation arm draws from.
    pub fn failure_model(&self) -> &AnyFailureModel {
        &self.model
    }

    /// The declarative spec of the engine's failure clock.
    pub fn failure_spec(&self) -> FailureSpec {
        self.model.spec()
    }

    /// The analytic waste model matching the engine's failure clock — the
    /// model arm of a model-versus-simulation pairing over this engine.
    pub fn waste_model(&self) -> AnyWasteModel {
        AnyWasteModel::from_spec(self.model.spec())
            .expect("a built failure model always has a valid spec")
    }

    /// Runs a custom executor over a profile on a caller-supplied clock
    /// (any failure model).
    pub fn run_with<F, E>(
        &self,
        executor: &E,
        profile: &ApplicationProfile,
        mut clock: SimClock<F>,
    ) -> SimOutcome
    where
        F: FailureSource,
        E: ProtocolExecutor<F> + ?Sized,
    {
        executor.execute(&mut clock, profile, &self.plan);
        SimOutcome {
            final_time: clock.now(),
            base_time: profile.total_duration(),
            failures: clock.failures(),
        }
    }

    /// Simulates one of the paper's protocols over an arbitrary multi-epoch
    /// profile, under the engine's failure model seeded deterministically.
    pub fn simulate_profile(
        &self,
        protocol: Protocol,
        profile: &ApplicationProfile,
        seed: u64,
    ) -> SimOutcome {
        self.run_with(&protocol, profile, SimClock::with_model(self.model, seed))
    }

    /// A failure buffer matching this engine's parameter point and failure
    /// model, ready to be reset once per replication and replayed to every
    /// protocol.
    pub fn trace_buffer(&self, seed: u64) -> TraceBuffer<AnyFailureModel> {
        TraceBuffer::new(self.model, seed)
    }

    /// Simulates `protocol` over `profile`, *replaying* the failure sequence
    /// recorded in `buffer` instead of sampling a fresh one.  Replaying the
    /// same buffer (same [`TraceBuffer::reset`] seed) to several protocols
    /// gives a common-random-numbers comparison; with the buffer reset to
    /// seed `s` over the engine's own model, the outcome is bit-identical to
    /// `simulate_profile(p, _, s)` — under exponential *and* Weibull clocks
    /// alike (the buffer is generic over the model).
    pub fn simulate_profile_replay<M: FailureModel>(
        &self,
        protocol: Protocol,
        profile: &ApplicationProfile,
        buffer: &mut TraceBuffer<M>,
    ) -> SimOutcome {
        self.run_with(&protocol, profile, SimClock::with_source(buffer.cursor()))
    }

    /// Single-epoch counterpart of [`Engine::simulate_profile_replay`]:
    /// replays `buffer` through the exact event sequence of
    /// [`Engine::simulate`], bit-for-bit.
    pub fn simulate_replay<M: FailureModel>(
        &self,
        protocol: Protocol,
        buffer: &mut TraceBuffer<M>,
    ) -> SimOutcome {
        self.single_epoch(protocol, SimClock::with_source(buffer.cursor()))
    }

    /// Simulates all three protocols over `profile` on **one** failure
    /// sequence (reseeded from `seed`): the paired, common-random-numbers
    /// counterpart of calling [`Engine::simulate_profile`] three times.
    /// Outcomes are returned in [`Protocol::all`] order.
    pub fn simulate_paired<M: FailureModel>(
        &self,
        profile: &ApplicationProfile,
        seed: u64,
        buffer: &mut TraceBuffer<M>,
    ) -> [SimOutcome; 3] {
        buffer.reset(seed);
        Protocol::all().map(|p| self.simulate_profile_replay(p, profile, buffer))
    }

    /// Simulates the single-epoch application described by the engine's
    /// parameters (the pre-refactor `simulate()` behaviour).
    pub fn simulate(&self, protocol: Protocol, seed: u64) -> SimOutcome {
        self.single_epoch(protocol, SimClock::with_model(self.model, seed))
    }

    /// The single-epoch application of [`Engine::simulate`] on any clock.
    fn single_epoch<F: FailureSource>(
        &self,
        protocol: Protocol,
        mut clock: SimClock<F>,
    ) -> SimOutcome {
        let base_time = self.params.epoch_duration;
        if protocol == Protocol::PurePeriodicCkpt {
            // The pure protocol treats the epoch as one opaque stream of
            // `epoch_duration` seconds, exactly like the closed-form model.
            let plan = &self.plan;
            emit_stream(
                base_time,
                plan.ckpt_full,
                plan.full_period,
                #[inline(always)]
                |step| step.run(&mut clock, plan),
            );
            return SimOutcome {
                final_time: clock.now(),
                base_time,
                failures: clock.failures(),
            };
        }
        let profile = ApplicationProfile::from_params(&self.params);
        SimOutcome {
            base_time,
            ..self.run_with(&protocol, &profile, clock)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_composite::young_daly::paper_optimal_period;
    use ft_platform::failure::WeibullFailures;
    use ft_platform::units::{hours, minutes, weeks};

    fn calm_params() -> ModelParams {
        ModelParams::builder()
            .epoch_duration(weeks(1.0))
            .alpha(0.5)
            .checkpoint_cost(minutes(10.0))
            .recovery_cost(minutes(10.0))
            .downtime(minutes(1.0))
            .rho(0.8)
            .phi(1.03)
            .abft_reconstruction(2.0)
            .platform_mtbf(weeks(20_000.0))
            .build()
            .unwrap()
    }

    #[test]
    fn plan_precomputes_the_paper_periods() {
        let params = ModelParams::paper_figure7(0.5, minutes(120.0)).unwrap();
        let plan = PeriodPlan::new(&params);
        let expected_full = paper_optimal_period(
            params.checkpoint_cost,
            params.platform_mtbf,
            params.downtime,
            params.recovery_cost,
        )
        .unwrap();
        assert_eq!(plan.full_period, expected_full);
        assert!(plan.library_period < plan.full_period);
        assert!((plan.ckpt_library + plan.ckpt_remainder - plan.ckpt_full).abs() < 1e-9);
    }

    #[test]
    fn emitted_programs_respect_each_protocol_phase_structure() {
        let params = ModelParams::paper_figure7(0.5, minutes(120.0)).unwrap();
        let plan = PeriodPlan::new(&params);
        let emit = |protocol, general: f64, library: f64| {
            let profile = ApplicationProfile::uniform(1, general, library).unwrap();
            let mut steps = Vec::new();
            emit_steps(protocol, &profile, &plan, |step| steps.push(step));
            steps
        };
        let library = 100.0;
        let abft = [
            Step::AbftWork {
                work: plan.phi * library,
            },
            Step::AbftCkpt {
                cost: plan.ckpt_library,
            },
        ];
        let composite = Protocol::AbftPeriodicCkpt;
        // A short GENERAL phase is one attempt ending in the forced
        // REMAINDER checkpoint; an empty one keeps only that checkpoint.
        let short = plan.full_period / 2.0;
        let entry = Step::Period {
            work: short,
            ckpt: plan.ckpt_remainder,
        };
        assert_eq!(emit(composite, short, library), [entry, abft[0], abft[1]]);
        let forced = Step::Forced {
            cost: plan.ckpt_remainder,
        };
        assert_eq!(emit(composite, 0.0, library), [forced, abft[0], abft[1]]);
        // Without LIBRARY work there is nothing to enter or protect.
        assert!(emit(composite, 0.0, 0.0).is_empty());
        // A long GENERAL phase streams with periodic full checkpoints.
        let long = (plan.full_period - plan.ckpt_full) * 2.5;
        let steps = emit(composite, long, library);
        let (periods, tail) = steps.split_at(steps.len() - 2);
        assert_eq!(tail, abft);
        assert!(periods.len() >= 3);
        let mut streamed = 0.0;
        for step in periods {
            let Step::Period { work, ckpt } = *step else {
                panic!("{step:?} in a checkpointed stream");
            };
            assert_eq!(ckpt, plan.ckpt_full);
            streamed += work;
        }
        assert!((streamed - long).abs() < 1e-6);
        // Pure streams the whole profile with full checkpoints; Bi closes
        // the GENERAL stream with a full and the LIBRARY one with an
        // incremental checkpoint.
        let pure = emit(Protocol::PurePeriodicCkpt, short, library);
        assert_eq!(
            pure,
            [Step::Period {
                work: short + library,
                ckpt: plan.ckpt_full
            }]
        );
        let bi = emit(Protocol::BiPeriodicCkpt, short, library);
        assert_eq!(
            bi,
            [
                Step::Period {
                    work: short,
                    ckpt: plan.ckpt_full
                },
                Step::Period {
                    work: library,
                    ckpt: plan.ckpt_library
                }
            ]
        );
    }

    #[test]
    fn weibull_engines_checkpoint_at_the_corrected_period() {
        let params = ModelParams::paper_figure7(0.5, minutes(120.0)).unwrap();
        let exponential = Engine::new(&params);
        assert_eq!(exponential.failure_spec(), FailureSpec::Exponential);
        // Bursty clock: less rework per failure, longer corrected period.
        let bursty =
            Engine::with_failure_spec(&params, FailureSpec::Weibull { shape: 0.7 }).unwrap();
        assert_eq!(bursty.failure_spec(), FailureSpec::Weibull { shape: 0.7 });
        assert!(bursty.plan().full_period > exponential.plan().full_period);
        assert!(bursty.plan().library_period > exponential.plan().library_period);
        // k = 1 degenerates to the exponential plan bit for bit.
        let k1 = Engine::with_failure_spec(&params, FailureSpec::Weibull { shape: 1.0 }).unwrap();
        assert_eq!(
            k1.plan().full_period.to_bits(),
            exponential.plan().full_period.to_bits()
        );
        assert_eq!(
            k1.plan().library_period.to_bits(),
            exponential.plan().library_period.to_bits()
        );
        // The paired waste model follows the clock.
        use ft_composite::model::analytic::AnyWasteModel;
        assert!(matches!(exponential.waste_model(), AnyWasteModel::FirstOrder(_)));
        assert!(matches!(bursty.waste_model(), AnyWasteModel::Weibull(_)));
    }

    #[test]
    fn engine_matches_the_wrapper_simulate() {
        let params = ModelParams::paper_figure7(0.8, minutes(90.0)).unwrap();
        let engine = Engine::new(&params);
        for protocol in Protocol::all() {
            for seed in 0..10 {
                assert_eq!(
                    engine.simulate(protocol, seed),
                    crate::protocols::simulate(protocol, &params, seed)
                );
            }
        }
    }

    #[test]
    fn multi_epoch_profile_with_no_failures_has_deterministic_overhead() {
        // Huge MTBF: every epoch is short relative to the optimal period, so
        // the per-protocol time is exactly the work plus a computable number
        // of checkpoints.
        let params = calm_params();
        let engine = Engine::new(&params);
        let (general, library) = (hours(2.0), hours(1.0));
        let epochs = 5;
        let profile = ApplicationProfile::uniform(epochs, general, library).unwrap();
        let work: f64 = profile.total_duration();
        let n = epochs as f64;

        // Pure: one stream, one trailing full checkpoint (period >> work).
        let pure = engine.simulate_profile(Protocol::PurePeriodicCkpt, &profile, 1);
        assert_eq!(pure.failures, 0);
        assert!((pure.final_time - (work + engine.plan().ckpt_full)).abs() < 1e-6);

        // Bi: per epoch, one full checkpoint after GENERAL and one
        // incremental checkpoint after LIBRARY.
        let bi = engine.simulate_profile(Protocol::BiPeriodicCkpt, &profile, 1);
        let bi_expected = work + n * (engine.plan().ckpt_full + engine.plan().ckpt_library);
        assert_eq!(bi.failures, 0);
        assert!((bi.final_time - bi_expected).abs() < 1e-6);

        // Composite: per epoch, the entry (REMAINDER) checkpoint, the
        // φ-inflated library work and the exit (LIBRARY) checkpoint.
        let composite = engine.simulate_profile(Protocol::AbftPeriodicCkpt, &profile, 1);
        let composite_expected = n
            * (general
                + engine.plan().ckpt_remainder
                + engine.plan().phi * library
                + engine.plan().ckpt_library);
        assert_eq!(composite.failures, 0);
        assert!((composite.final_time - composite_expected).abs() < 1e-6);
    }

    #[test]
    fn splitting_an_epoch_only_adds_forced_checkpoint_overhead_when_calm() {
        // Failure-free: a 4-epoch split of the same total work costs exactly
        // 3 extra (entry + exit) checkpoint pairs under the composite
        // protocol.
        let params = calm_params();
        let engine = Engine::new(&params);
        let one = ApplicationProfile::from_params_repeated(&params, 1);
        let four = ApplicationProfile::from_params_repeated(&params, 4);
        let t1 = engine
            .simulate_profile(Protocol::AbftPeriodicCkpt, &one, 3)
            .final_time;
        let t4 = engine
            .simulate_profile(Protocol::AbftPeriodicCkpt, &four, 3)
            .final_time;
        assert!(t4 > t1);
        let extra = t4 - t1;
        // At most 4 extra entry+exit pairs' worth of overhead (the split
        // also moves each shorter GENERAL phase below the periodic-regime
        // threshold, trading periodic checkpoints for the forced one).
        assert!(
            extra <= 4.0 * (engine.plan().ckpt_remainder + engine.plan().ckpt_library) + 1e-6,
            "extra {extra}"
        );
    }

    #[test]
    fn executors_run_under_weibull_failures() {
        let params = ModelParams::paper_figure7(0.5, minutes(120.0)).unwrap();
        let engine = Engine::new(&params);
        let profile = ApplicationProfile::from_params(&params);
        let model = WeibullFailures::new(params.platform_mtbf, 0.7).unwrap();
        for (executor, protocol) in [
            (
                &PureExecutor as &dyn ProtocolExecutor<FailureStream<WeibullFailures>>,
                Protocol::PurePeriodicCkpt,
            ),
            (&BiExecutor, Protocol::BiPeriodicCkpt),
            (&CompositeExecutor, Protocol::AbftPeriodicCkpt),
        ] {
            assert_eq!(executor.protocol(), protocol);
            let out = engine.run_with(executor, &profile, SimClock::with_model(model, 11));
            assert!(out.final_time > out.base_time);
            assert!(out.failures > 0);
            let again = engine.run_with(executor, &profile, SimClock::with_model(model, 11));
            assert_eq!(out, again);
        }
    }

    #[test]
    fn weibull_engine_replays_bit_identically_and_differs_from_exponential() {
        let params = ModelParams::paper_figure7(0.5, minutes(120.0)).unwrap();
        let weibull =
            Engine::with_failure_spec(&params, FailureSpec::Weibull { shape: 0.7 }).unwrap();
        assert_eq!(weibull.failure_model().name(), "weibull");
        assert!(Engine::with_failure_spec(&params, FailureSpec::Weibull { shape: -1.0 }).is_err());
        let exponential = Engine::new(&params);
        let profile = ApplicationProfile::from_params(&params);
        let mut buffer = weibull.trace_buffer(0);
        for protocol in Protocol::all() {
            buffer.reset(9);
            let replayed = weibull.simulate_profile_replay(protocol, &profile, &mut buffer);
            let fresh = weibull.simulate_profile(protocol, &profile, 9);
            assert_eq!(replayed.final_time.to_bits(), fresh.final_time.to_bits());
            assert_eq!(replayed, fresh);
            // Same seed, different clock distribution: genuinely different
            // adversity, not a relabelled exponential run.
            assert_ne!(fresh, exponential.simulate_profile(protocol, &profile, 9));
        }
    }

    #[test]
    fn replay_reproduces_fresh_sampling_bit_for_bit() {
        let params = ModelParams::paper_figure7(0.8, minutes(90.0)).unwrap();
        let engine = Engine::new(&params);
        let profile = ApplicationProfile::from_params_repeated(&params, 3);
        let mut buffer = engine.trace_buffer(0);
        for protocol in Protocol::all() {
            for seed in [1u64, 7, 42] {
                buffer.reset(seed);
                let replayed = engine.simulate_replay(protocol, &mut buffer);
                let fresh = engine.simulate(protocol, seed);
                assert_eq!(replayed.final_time.to_bits(), fresh.final_time.to_bits());
                assert_eq!(replayed, fresh);

                buffer.reset(seed);
                let replayed = engine.simulate_profile_replay(protocol, &profile, &mut buffer);
                let fresh = engine.simulate_profile(protocol, &profile, seed);
                assert_eq!(replayed.final_time.to_bits(), fresh.final_time.to_bits());
                assert_eq!(replayed, fresh);
            }
        }
    }

    #[test]
    fn paired_simulation_shows_every_protocol_the_same_failures() {
        let params = ModelParams::paper_figure7(0.5, minutes(120.0)).unwrap();
        let engine = Engine::new(&params);
        let profile = ApplicationProfile::from_params(&params);
        let mut buffer = engine.trace_buffer(0);
        let [pure, bi, composite] = engine.simulate_paired(&profile, 11, &mut buffer);
        // Each outcome is bit-identical to its unpaired run on the same seed
        // (common random numbers change the *correlation*, not the marginals).
        assert_eq!(pure, engine.simulate_profile(Protocol::PurePeriodicCkpt, &profile, 11));
        assert_eq!(bi, engine.simulate_profile(Protocol::BiPeriodicCkpt, &profile, 11));
        assert_eq!(
            composite,
            engine.simulate_profile(Protocol::AbftPeriodicCkpt, &profile, 11)
        );
        // And the whole paired run is reproducible.
        let again = engine.simulate_paired(&profile, 11, &mut buffer);
        assert_eq!([pure, bi, composite], again);
    }

    #[test]
    fn a_custom_executor_plugs_into_the_engine() {
        // A protocol that ignores failures entirely (an oracle lower bound):
        // the engine accepts it like any built-in executor.
        struct OracleExecutor;
        impl<F: FailureSource> ProtocolExecutor<F> for OracleExecutor {
            fn protocol(&self) -> Protocol {
                Protocol::PurePeriodicCkpt
            }
            fn execute(
                &self,
                clock: &mut SimClock<F>,
                profile: &ApplicationProfile,
                _plan: &PeriodPlan,
            ) {
                let mut remaining = profile.total_duration();
                while remaining > 0.0 {
                    match clock.try_run(remaining) {
                        ActivityResult::Completed => remaining = 0.0,
                        ActivityResult::Interrupted { progress } => remaining -= progress,
                    }
                }
            }
        }
        let params = ModelParams::paper_figure7(0.5, minutes(90.0)).unwrap();
        let engine = Engine::new(&params);
        let profile = ApplicationProfile::from_params(&params);
        let oracle = engine.run_with(&OracleExecutor, &profile, SimClock::new(params.platform_mtbf, 5));
        let real = engine.simulate_profile(Protocol::PurePeriodicCkpt, &profile, 5);
        assert!((oracle.final_time - oracle.base_time).abs() < 1e-6);
        assert!(real.final_time > oracle.final_time);
    }
}
