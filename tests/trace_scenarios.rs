//! Differential replay harness for trace-driven and non-stationary
//! failure scenarios — the certification suite of the scenario subsystem.
//!
//! Every new failure source (recorded-trace playback, cascade bursts,
//! diurnal modulation, wear-out drift, the lognormal family) must be:
//!
//! * **deterministic** — rerunning a simulation with the same seed yields
//!   the same [`SimOutcome`] bit for bit;
//! * **replay-bit-exact** — a recorded trace buffer replays the fresh run
//!   exactly, and a kill-and-resume through the snapshot machinery lands
//!   on the uninterrupted outcome (fresh == replay == resume);
//! * **width- and thread-invariant** — the batched SoA engine (which pins
//!   the non-stationary sources to its scalar per-lane fallback via
//!   [`FailureModel::single_uniform`]` = false`) and the sweep layer's
//!   parallel scheduler reproduce the scalar serial results at every lane
//!   width and thread count.
//!
//! The deep per-family proptest matrix lives in
//! `tests/batch_engine_oracle.rs`; every-kill-point resume coverage in
//! `tests/crash_resume.rs`; lognormal moment properties in
//! `tests/lognormal_model.rs`.  This file is the end-to-end contract.

use abft_ckpt_composite::bench::{figure7_base, Axis, Parameter, SweepSpec};
use abft_ckpt_composite::composite::params::ModelParams;
use abft_ckpt_composite::composite::scenario::ApplicationProfile;
use abft_ckpt_composite::platform::batch::BatchTraceBuffer;
use abft_ckpt_composite::platform::failure::{AnyFailureModel, FailureModel, FailureSpec};
use abft_ckpt_composite::platform::rng::SeedStream;
use abft_ckpt_composite::platform::scenario::ScenarioSpec;
use abft_ckpt_composite::platform::units::{hours, minutes};
use abft_ckpt_composite::sim::batch::simulate_profile_batch;
use abft_ckpt_composite::sim::replicate::{ReplicationBudget, ReplicationPlan};
use abft_ckpt_composite::sim::resume::{ResumableSim, RunStatus};
use abft_ckpt_composite::sim::{Engine, Protocol, SimOutcome};

mod common;
use common::{batch_single, partner_streams, scalar_single, streams};


fn params() -> ModelParams {
    ModelParams::paper_figure7(0.5, minutes(120.0)).unwrap()
}

/// Every failure source this PR introduces, resolved at the Figure-7 MTBF
/// with a two-day nominal horizon (the wear-out budget and the trace
/// cycle length).
fn scenario_models() -> Vec<(&'static str, AnyFailureModel)> {
    let mtbf = minutes(120.0);
    let horizon = hours(48.0);
    vec![
        (
            "trace",
            ScenarioSpec::Trace { path: None }.resolve(mtbf, horizon).unwrap(),
        ),
        ("cascade", ScenarioSpec::Cascade.resolve(mtbf, horizon).unwrap()),
        ("diurnal", ScenarioSpec::Diurnal.resolve(mtbf, horizon).unwrap()),
        ("wearout", ScenarioSpec::Wearout.resolve(mtbf, horizon).unwrap()),
        (
            "lognormal",
            FailureSpec::LogNormal { sigma: 1.0 }.build(mtbf).unwrap(),
        ),
    ]
}

fn assert_bit_identical(a: &SimOutcome, b: &SimOutcome, label: &str) {
    assert_eq!(
        a.final_time.to_bits(),
        b.final_time.to_bits(),
        "{label}: final_time {} vs {}",
        a.final_time,
        b.final_time
    );
    assert_eq!(a.base_time.to_bits(), b.base_time.to_bits(), "{label}: base_time");
    assert_eq!(a.failures, b.failures, "{label}: failures");
}

/// Fresh == rerun == trace-buffer replay, for every source and protocol:
/// the stateful sources (phase-armed playback, cascade cluster counters)
/// must clear their per-stream state on reset so a replayed buffer walks
/// the identical failure sequence.
#[test]
fn fresh_rerun_and_replay_are_bit_identical() {
    let params = params();
    for (name, model) in scenario_models() {
        let engine = Engine::with_failure_model(&params, model);
        let profile = ApplicationProfile::from_params_repeated(&params, 2);
        let mut buffer = engine.trace_buffer(0);
        for protocol in Protocol::all() {
            for seed in [3u64, 41, 0xFEED_FACE] {
                let fresh = engine.simulate_profile(protocol, &profile, seed);
                let rerun = engine.simulate_profile(protocol, &profile, seed);
                assert_bit_identical(&fresh, &rerun, &format!("{name} {protocol:?} rerun"));
                buffer.reset(seed);
                let replay = engine.simulate_profile_replay(protocol, &profile, &mut buffer);
                assert_bit_identical(&fresh, &replay, &format!("{name} {protocol:?} replay"));
                buffer.reset(seed);
                let replay_again = engine.simulate_profile_replay(protocol, &profile, &mut buffer);
                assert_bit_identical(
                    &replay,
                    &replay_again,
                    &format!("{name} {protocol:?} second replay"),
                );
            }
        }
    }
}

/// Different seeds must actually produce different failure sequences (the
/// playback's random phase, not a frozen schedule): a source that ignored
/// its seed would silently collapse every replication onto one trajectory.
#[test]
fn scenario_sources_respond_to_the_seed() {
    let params = params();
    for (name, model) in scenario_models() {
        let engine = Engine::with_failure_model(&params, model);
        let profile = ApplicationProfile::from_params_repeated(&params, 2);
        let a = engine.simulate_profile(Protocol::AbftPeriodicCkpt, &profile, 1);
        let b = engine.simulate_profile(Protocol::AbftPeriodicCkpt, &profile, 2);
        assert_ne!(
            a.final_time.to_bits(),
            b.final_time.to_bits(),
            "{name}: seeds 1 and 2 produced identical runs"
        );
    }
}

/// The mid-run kill-and-resume contract on every source: a run killed at
/// a middle snapshot boundary and resumed finishes bit-identically to the
/// uninterrupted reference (the every-kill-point sweep for the trace and
/// diurnal clocks lives in `tests/crash_resume.rs`).
#[test]
fn mid_run_resume_is_bit_identical_for_every_source() {
    let params = params();
    for (name, model) in scenario_models() {
        let engine = Engine::with_failure_model(&params, model);
        let profile = ApplicationProfile::from_params_repeated(&params, 2);
        let mut buffer = engine.trace_buffer(17);
        for protocol in Protocol::all() {
            let sim = ResumableSim::new(&engine, protocol, &profile);
            buffer.reset(17);
            let reference = sim.run(&mut buffer);
            buffer.reset(17);
            let total = sim.count_boundaries(&mut buffer);
            assert!(total > 0, "{name}/{protocol:?}: no snapshot boundaries");
            let kill = total / 2 + 1;
            buffer.reset(17);
            let RunStatus::Killed(snapshot) = sim.run_killed(&mut buffer, kill) else {
                panic!("{name}/{protocol:?}: kill {kill}/{total} did not kill");
            };
            buffer.reset(17);
            let resumed = sim
                .resume(&mut buffer, &snapshot)
                .expect("a snapshot of this run resumes it");
            assert_bit_identical(
                &resumed,
                &reference,
                &format!("{name}/{protocol:?} kill {kill}/{total}"),
            );
        }
    }
}

/// Batch == scalar at several widths for fresh, replayed and antithetic
/// lanes.  The non-stationary sources must report `single_uniform =
/// false`, which pins them to the batch engine's explicit scalar per-lane
/// fallback; the lognormal family stays on the columnar single-uniform
/// path.  Either way every lane must equal the scalar oracle bit for bit.
#[test]
fn batch_lanes_match_the_scalar_oracle_for_every_source() {
    let params = params();
    for (name, model) in scenario_models() {
        // Pin the dispatch: scenario clocks take the scalar fallback,
        // the lognormal family the columnar fast path.
        assert_eq!(
            model.single_uniform(),
            name == "lognormal",
            "{name}: unexpected batch dispatch"
        );
        let engine = Engine::with_failure_model(&params, model);
        let profile = ApplicationProfile::from_params_repeated(&params, 2);
        let mut scalar_buffer = engine.trace_buffer(0);
        for width in [1usize, 5, 32] {
            let seeds: Vec<u64> = SeedStream::new(0x5CEA ^ width as u64).take(width).collect();
            let mut batch_buffer = BatchTraceBuffer::new(*engine.failure_model(), &seeds);
            for protocol in Protocol::all() {
                let fresh = simulate_profile_batch(
                    &engine,
                    protocol,
                    &profile,
                    &mut streams(&engine, &seeds),
                );
                let replayed = simulate_profile_batch(
                    &engine,
                    protocol,
                    &profile,
                    &mut batch_buffer.cursors(),
                );
                let antithetic = simulate_profile_batch(
                    &engine,
                    protocol,
                    &profile,
                    &mut partner_streams(&engine, &seeds),
                );
                for (lane, &seed) in seeds.iter().enumerate() {
                    let scalar = engine.simulate_profile(protocol, &profile, seed);
                    assert_bit_identical(
                        &fresh[lane],
                        &scalar,
                        &format!("{name} {protocol:?} width {width} lane {lane} fresh"),
                    );
                    scalar_buffer.reset(seed);
                    let scalar_replay =
                        engine.simulate_profile_replay(protocol, &profile, &mut scalar_buffer);
                    assert_bit_identical(
                        &replayed[lane],
                        &scalar_replay,
                        &format!("{name} {protocol:?} width {width} lane {lane} replay"),
                    );
                    scalar_buffer.reset_antithetic(seed);
                    let scalar_anti =
                        engine.simulate_profile_replay(protocol, &profile, &mut scalar_buffer);
                    assert_bit_identical(
                        &antithetic[lane],
                        &scalar_anti,
                        &format!("{name} {protocol:?} width {width} lane {lane} antithetic"),
                    );
                }
            }
        }
    }
}

/// Replication accumulators are lane-width invariant for every source:
/// batch-fed Welford state equals the scalar replication loop bit for
/// bit, plain and antithetic, at ragged and production widths.
#[test]
fn replication_accumulators_are_width_invariant() {
    let params = params();
    for (name, model) in scenario_models() {
        let engine = Engine::with_failure_model(&params, model);
        let profile = ApplicationProfile::from_params_repeated(&params, 2);
        for antithetic in [false, true] {
            let plan = ReplicationPlan::new(ReplicationBudget::Fixed(60)).antithetic(antithetic);
            let scalar =
                scalar_single(&engine, Protocol::AbftPeriodicCkpt, &profile, plan, 7);
            for lanes in [1usize, 33, 256] {
                let batch = batch_single(
                    &engine,
                    Protocol::AbftPeriodicCkpt,
                    &profile,
                    plan,
                    7,
                    lanes,
                );
                assert_eq!(scalar, batch, "{name} antithetic={antithetic} lanes={lanes}");
            }
        }
    }
}

fn scenario_grid(scenario: ScenarioSpec) -> SweepSpec {
    SweepSpec::new("scenario determinism", figure7_base())
        .axis(Axis::values(Parameter::Mtbf, vec![minutes(120.0), minutes(240.0)]))
        .axis(Axis::values(Parameter::Alpha, vec![0.5]))
        .replications(20)
        .seed(0x5CE_A11)
        .model_gap(true)
        .scenario(scenario)
}

fn scenario_specs() -> Vec<ScenarioSpec> {
    vec![
        ScenarioSpec::Trace { path: None },
        ScenarioSpec::Cascade,
        ScenarioSpec::Diurnal,
        ScenarioSpec::Wearout,
    ]
}

/// The sweep layer's whole-grid parallel scheduler is a no-op on the
/// numbers: `run()` == `run_serial()` == a second `run()`, for every
/// scenario, with the model-gap arm attached (the arm that reports the
/// matched-MTBF i.i.d. prediction the scenario is breaking).
#[test]
fn scenario_sweeps_are_schedule_independent() {
    for scenario in scenario_specs() {
        let spec = scenario_grid(scenario.clone());
        let par = spec.run().unwrap();
        let ser = spec.run_serial().unwrap();
        assert_eq!(par.results, ser.results, "{scenario}: parallel != serial");
        let again = spec.run().unwrap();
        assert_eq!(par.results, again.results, "{scenario}: not reproducible");
        assert_eq!(par.failure_scenario, scenario, "{scenario}: spec not recorded");
    }
}

/// Batch lane widths and intra-point thread counts do not perturb a
/// scenario sweep: every (lanes, point_threads) combination reproduces
/// the scalar serial baseline bit for bit.
#[test]
fn scenario_sweeps_are_width_and_thread_invariant() {
    for scenario in scenario_specs() {
        let baseline = scenario_grid(scenario.clone())
            .batch_lanes(1)
            .point_threads(1)
            .run_serial()
            .unwrap();
        for (lanes, threads) in [(64usize, 2usize), (7, 3)] {
            let spec = scenario_grid(scenario.clone())
                .batch_lanes(lanes)
                .point_threads(threads);
            assert_eq!(
                spec.run().unwrap().results,
                baseline.results,
                "{scenario}: lanes={lanes} threads={threads} drifted from the scalar baseline"
            );
        }
    }
}

/// Antithetic pairing composes with every scenario source: the pair-mean
/// sweep is reproducible, keeps the plain sweep's sample count, and
/// charges two executions per pair (the mirrored playback phase makes
/// the pairs genuinely antithetic rather than independent).
#[test]
fn antithetic_scenario_sweeps_are_reproducible() {
    for scenario in scenario_specs() {
        let spec = scenario_grid(scenario.clone()).antithetic(true);
        let first = spec.run().unwrap();
        let second = spec.run_serial().unwrap();
        assert_eq!(first.results, second.results, "{scenario}: antithetic not reproducible");
        let plain = scenario_grid(scenario).run().unwrap();
        assert_eq!(
            first.total_replications(),
            plain.total_replications(),
            "antithetic pairing changed the sample budget"
        );
        assert_eq!(
            first.total_executions(),
            2 * plain.total_executions(),
            "an antithetic sample costs the seed and its mirrored partner"
        );
    }
}
