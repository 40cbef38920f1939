//! Differential oracle harness for the batched SoA simulation engine.
//!
//! The scalar executors of `ft-sim` are the *oracle*: for every sampled
//! configuration — failure family (exponential and Weibull) × protocol
//! (pure / bi-periodic / composite) × multi-epoch application profile ×
//! batch width (including ragged tails) × failure-source flavour (fresh
//! streams, trace replay, antithetic partners) — the batch engine must
//! reproduce every lane's [`SimOutcome`] **bit for bit**: `final_time` and
//! `base_time` compared on their raw bit patterns, `failures` exactly.
//!
//! The driver-level tests additionally pin the replication accumulators:
//! feeding the adaptive budgets in batch-sized blocks must leave the
//! Welford state bit-identical to the scalar reference driver, so the sweep
//! fast path can switch engines freely without perturbing a single figure.

use abft_ckpt_composite::composite::params::ModelParams;
use abft_ckpt_composite::composite::scaling::WeakScalingScenario;
use abft_ckpt_composite::composite::scenario::ApplicationProfile;
use abft_ckpt_composite::platform::batch::BatchTraceBuffer;
use abft_ckpt_composite::platform::failure::{
    AnyFailureModel, ExponentialFailures, FailureModel, FailureSpec,
};
use abft_ckpt_composite::platform::rng::SeedStream;
use abft_ckpt_composite::platform::scenario::ScenarioSpec;
use abft_ckpt_composite::platform::units::{hours, minutes};
use abft_ckpt_composite::sim::batch::{
    accumulate_paired_programs_batch, accumulate_profile_program_batch, simulate_profile_batch,
    BatchProgram, BatchState,
};
use abft_ckpt_composite::sim::replicate::{
    accumulate_paired_engine, PairedAccumulator, ReplicationBudget, ReplicationPlan,
};
use abft_ckpt_composite::sim::{
    Engine, PeriodPlan, Protocol, ProtocolExecutor, SimClock, SimOutcome,
};
use proptest::prelude::*;

mod common;
use common::{batch_single, partner_streams, scalar_single, streams};

/// Asserts two outcomes are bit-identical in every field, with a labelled
/// panic message on mismatch.
fn assert_bit_identical(batch: &SimOutcome, scalar: &SimOutcome, label: &str) {
    assert_eq!(
        batch.final_time.to_bits(),
        scalar.final_time.to_bits(),
        "{label}: final_time {} vs {}",
        batch.final_time,
        scalar.final_time
    );
    assert_eq!(
        batch.base_time.to_bits(),
        scalar.base_time.to_bits(),
        "{label}: base_time"
    );
    assert_eq!(batch.failures, scalar.failures, "{label}: failures");
}

/// A failure family from the study: exponential, or Weibull across the
/// paper's infant-mortality / near-memoryless / wear-out shapes.
fn arb_spec() -> impl Strategy<Value = FailureSpec> {
    (0usize..2, 0.5f64..1.6).prop_map(|(family, shape)| match family {
        0 => FailureSpec::Exponential,
        _ => FailureSpec::Weibull { shape },
    })
}

/// A parameter point plus a multi-epoch profile that exercises every
/// compiled-step shape: long streams, short composite remainders and
/// zero-work epochs.
fn arb_point() -> impl Strategy<Value = (ModelParams, ApplicationProfile)> {
    (
        0.0f64..=1.0,   // alpha
        40.0f64..400.0, // platform MTBF, minutes
        1usize..4,      // epochs
        0usize..3,      // profile flavour
        1.0f64..90.0,   // custom epoch GENERAL duration, minutes
        0.0f64..90.0,   // custom epoch LIBRARY duration, minutes
    )
        .prop_filter_map(
            "figure-7 point must validate",
            |(alpha, mtbf, epochs, flavour, general, library)| {
                let params = ModelParams::paper_figure7(alpha, minutes(mtbf)).ok()?;
                let profile = match flavour {
                    // The paper's own epoch split, repeated.
                    0 => ApplicationProfile::from_params_repeated(&params, epochs),
                    // Short custom epochs: composite remainder periods,
                    // sub-period streams, frequent step boundaries.
                    1 => ApplicationProfile::uniform(epochs, minutes(general), minutes(library))
                        .ok()?,
                    // Degenerate epochs: library-only (forced checkpoint
                    // path) or general-only (no ABFT phase at all).
                    _ => ApplicationProfile::uniform(
                        epochs,
                        if general < 45.0 { 0.0 } else { minutes(general) },
                        if general < 45.0 { minutes(library) } else { 0.0 },
                    )
                    .ok()?,
                };
                Some((params, profile))
            },
        )
}


/// The batch driver over freshly compiled `protocols`, on `threads` threads.
fn batch_paired(
    engine: &Engine,
    protocols: &[Protocol],
    profile: &ApplicationProfile,
    plan: ReplicationPlan,
    master: u64,
    lanes: usize,
    threads: usize,
) -> PairedAccumulator {
    let programs: Vec<BatchProgram> = protocols
        .iter()
        .map(|&p| BatchProgram::compile(p, profile, engine.plan()))
        .collect();
    let refs: Vec<&BatchProgram> = programs.iter().collect();
    accumulate_paired_programs_batch(engine, protocols, &refs, plan, master, lanes, threads)
}

fn lane_seeds(master: u64, width: usize) -> Vec<u64> {
    SeedStream::new(master).take(width).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Fresh per-lane failure streams: every lane of every batch equals the
    /// scalar simulation of its seed, across the full configuration matrix.
    #[test]
    fn fresh_batches_match_scalar_simulations(
        spec in arb_spec(),
        (params, profile) in arb_point(),
        width in 1usize..65,
        master in 0u64..u64::MAX,
    ) {
        let engine = Engine::with_failure_spec(&params, spec).unwrap();
        let seeds = lane_seeds(master, width);
        for protocol in Protocol::all() {
            let batch = simulate_profile_batch(
                &engine,
                protocol,
                &profile,
                &mut streams(&engine, &seeds),
            );
            prop_assert_eq!(batch.len(), width);
            for (lane, &seed) in seeds.iter().enumerate() {
                let scalar = engine.simulate_profile(protocol, &profile, seed);
                assert_bit_identical(
                    &batch[lane],
                    &scalar,
                    &format!("{spec} {protocol:?} width {width} lane {lane}"),
                );
            }
        }
    }

    /// Trace replay: a batch trace buffer replayed through two protocols
    /// (common random numbers) matches the scalar replay of each lane's
    /// recorded trace — and replaying twice yields identical results.
    #[test]
    fn replayed_batches_match_scalar_trace_replays(
        spec in arb_spec(),
        (params, profile) in arb_point(),
        width in 1usize..33,
        master in 0u64..u64::MAX,
    ) {
        let engine = Engine::with_failure_spec(&params, spec).unwrap();
        let seeds = lane_seeds(master, width);
        let mut batch_buffer = BatchTraceBuffer::new(*engine.failure_model(), &seeds);
        let mut scalar_buffer = engine.trace_buffer(0);
        for protocol in Protocol::all() {
            let first = simulate_profile_batch(
                &engine,
                protocol,
                &profile,
                &mut batch_buffer.cursors(),
            );
            let second = simulate_profile_batch(
                &engine,
                protocol,
                &profile,
                &mut batch_buffer.cursors(),
            );
            prop_assert_eq!(&first, &second);
            for (lane, &seed) in seeds.iter().enumerate() {
                scalar_buffer.reset(seed);
                let scalar = engine.simulate_profile_replay(protocol, &profile, &mut scalar_buffer);
                assert_bit_identical(
                    &first[lane],
                    &scalar,
                    &format!("replay {spec} {protocol:?} lane {lane}"),
                );
            }
        }
    }

    /// Antithetic partner sequences: every lane equals the scalar antithetic
    /// replay of its seed.
    #[test]
    fn antithetic_batches_match_scalar_antithetic_replays(
        spec in arb_spec(),
        (params, profile) in arb_point(),
        width in 1usize..33,
        master in 0u64..u64::MAX,
    ) {
        let engine = Engine::with_failure_spec(&params, spec).unwrap();
        let seeds = lane_seeds(master, width);
        let mut scalar_buffer = engine.trace_buffer(0);
        for protocol in Protocol::all() {
            let batch = simulate_profile_batch(
                &engine,
                protocol,
                &profile,
                &mut partner_streams(&engine, &seeds),
            );
            for (lane, &seed) in seeds.iter().enumerate() {
                scalar_buffer.reset_antithetic(seed);
                let scalar = engine.simulate_profile_replay(protocol, &profile, &mut scalar_buffer);
                assert_bit_identical(
                    &batch[lane],
                    &scalar,
                    &format!("antithetic {spec} {protocol:?} lane {lane}"),
                );
            }
        }
    }

    /// Driver level: feeding the accumulator in batch-sized blocks — with a
    /// lane width that does NOT divide the replication blocks, forcing
    /// ragged tail batches — leaves the Welford state bit-identical to the
    /// scalar replication loop, for plain and antithetic plans alike.
    #[test]
    fn batch_driver_accumulators_are_bit_identical_across_ragged_widths(
        spec in arb_spec(),
        (params, profile) in arb_point(),
        total in 1usize..90,
        lanes in 1usize..40,
        antithetic_bit in 0usize..2,
        master in 0u64..u64::MAX,
    ) {
        let engine = Engine::with_failure_spec(&params, spec).unwrap();
        let plan =
            ReplicationPlan::new(ReplicationBudget::Fixed(total)).antithetic(antithetic_bit == 1);
        for protocol in Protocol::all() {
            let scalar = scalar_single(&engine, protocol, &profile, plan, master);
            let batch =
                batch_single(&engine, protocol, &profile, plan, master, lanes);
            assert_eq!(scalar, batch, "{spec} {protocol:?} lanes {lanes}");
        }
    }
}

/// A scenario or lognormal failure source resolved at a sampled MTBF: the
/// trace playback, the three synthesized non-stationary clocks and the
/// lognormal family.  The non-stationary sources report
/// `single_uniform() = false`, which pins them to the batch engine's
/// explicit scalar per-lane fallback — this strategy is what proves that
/// dispatch bit-exact against the scalar oracle.
fn arb_scenario_model() -> impl Strategy<Value = AnyFailureModel> {
    (0usize..5, 50.0f64..300.0, 0.4f64..1.6).prop_map(|(flavour, mtbf_min, sigma)| {
        let mtbf = minutes(mtbf_min);
        let horizon = hours(48.0);
        match flavour {
            0 => ScenarioSpec::Trace { path: None }.resolve(mtbf, horizon).unwrap(),
            1 => ScenarioSpec::Cascade.resolve(mtbf, horizon).unwrap(),
            2 => ScenarioSpec::Diurnal.resolve(mtbf, horizon).unwrap(),
            3 => ScenarioSpec::Wearout.resolve(mtbf, horizon).unwrap(),
            _ => FailureSpec::LogNormal { sigma }.build(mtbf).unwrap(),
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Scenario and lognormal sources across the width range: fresh,
    /// replayed and antithetic batches all equal the scalar oracle lane
    /// for lane, whichever dispatch (columnar single-uniform or scalar
    /// fallback) the source pins.
    #[test]
    fn scenario_batches_match_scalar_simulations(
        model in arb_scenario_model(),
        (params, profile) in arb_point(),
        width in 1usize..33,
        master in 0u64..u64::MAX,
    ) {
        let engine = Engine::with_failure_model(&params, model);
        let seeds = lane_seeds(master, width);
        let mut batch_buffer = BatchTraceBuffer::new(*engine.failure_model(), &seeds);
        let mut scalar_buffer = engine.trace_buffer(0);
        let name = model.name();
        for protocol in Protocol::all() {
            let fresh = simulate_profile_batch(
                &engine,
                protocol,
                &profile,
                &mut streams(&engine, &seeds),
            );
            let replayed =
                simulate_profile_batch(&engine, protocol, &profile, &mut batch_buffer.cursors());
            let antithetic = simulate_profile_batch(
                &engine,
                protocol,
                &profile,
                &mut partner_streams(&engine, &seeds),
            );
            prop_assert_eq!(fresh.len(), width);
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

    /// Driver-level accumulators for scenario and lognormal sources: batch
    /// blocks at a width that leaves ragged tails reproduce the scalar
    /// Welford state bit for bit, plain and antithetic.
    #[test]
    fn scenario_accumulators_are_bit_identical_across_ragged_widths(
        model in arb_scenario_model(),
        (params, profile) in arb_point(),
        total in 1usize..90,
        lanes in 1usize..40,
        antithetic_bit in 0usize..2,
        master in 0u64..u64::MAX,
    ) {
        let engine = Engine::with_failure_model(&params, model);
        let plan =
            ReplicationPlan::new(ReplicationBudget::Fixed(total)).antithetic(antithetic_bit == 1);
        for protocol in Protocol::all() {
            let scalar = scalar_single(&engine, protocol, &profile, plan, master);
            let batch =
                batch_single(&engine, protocol, &profile, plan, master, lanes);
            assert_eq!(scalar, batch, "{} {protocol:?} lanes {lanes}", model.name());
        }
    }
}

/// The production batch widths for the scenario sources, exactly: every
/// protocol × source at widths 128 and 256 (and a ragged 193) against the
/// scalar oracle — the same pin `production_widths_are_bit_exact` places
/// on the i.i.d. families, extended to the scalar-fallback dispatch.
#[test]
fn scenario_production_widths_are_bit_exact() {
    let params = ModelParams::paper_figure7(0.5, minutes(120.0)).unwrap();
    let profile = ApplicationProfile::from_params_repeated(&params, 3);
    let mtbf = minutes(120.0);
    let horizon = hours(48.0);
    let models = [
        ScenarioSpec::Trace { path: None }.resolve(mtbf, horizon).unwrap(),
        ScenarioSpec::Cascade.resolve(mtbf, horizon).unwrap(),
        ScenarioSpec::Diurnal.resolve(mtbf, horizon).unwrap(),
        ScenarioSpec::Wearout.resolve(mtbf, horizon).unwrap(),
        FailureSpec::LogNormal { sigma: 0.9 }.build(mtbf).unwrap(),
    ];
    for model in models {
        let engine = Engine::with_failure_model(&params, model);
        for width in [128usize, 193, 256] {
            let seeds = lane_seeds(0x5CE_0DD5 ^ width as u64, width);
            for protocol in Protocol::all() {
                let batch = simulate_profile_batch(
                    &engine,
                    protocol,
                    &profile,
                    &mut streams(&engine, &seeds),
                );
                for (lane, &seed) in seeds.iter().enumerate() {
                    let scalar = engine.simulate_profile(protocol, &profile, seed);
                    assert_bit_identical(
                        &batch[lane],
                        &scalar,
                        &format!("{} {protocol:?} width {width} lane {lane}", model.name()),
                    );
                }
            }
        }
    }
}

/// The production batch widths, exactly: every protocol × failure family at
/// widths 128 and 256 (and a ragged 193) against the scalar oracle, on the
/// paper's figure-7 point and a 3-epoch profile.
#[test]
fn production_widths_are_bit_exact() {
    for spec in [
        FailureSpec::Exponential,
        FailureSpec::Weibull { shape: 0.7 },
        FailureSpec::Weibull { shape: 1.4 },
    ] {
        let params = ModelParams::paper_figure7(0.5, minutes(120.0)).unwrap();
        let engine = Engine::with_failure_spec(&params, spec).unwrap();
        let profile = ApplicationProfile::from_params_repeated(&params, 3);
        for width in [128usize, 193, 256] {
            let seeds = lane_seeds(0xFAB5_EED5 ^ width as u64, width);
            for protocol in Protocol::all() {
                let batch = simulate_profile_batch(
                    &engine,
                    protocol,
                    &profile,
                    &mut streams(&engine, &seeds),
                );
                for (lane, &seed) in seeds.iter().enumerate() {
                    let scalar = engine.simulate_profile(protocol, &profile, seed);
                    assert_bit_identical(
                        &batch[lane],
                        &scalar,
                        &format!("{spec} {protocol:?} width {width} lane {lane}"),
                    );
                }
            }
        }
    }
}

/// Adaptive budgets stop on the same block boundary with the same state no
/// matter the lane width — including widths larger than the whole budget.
#[test]
fn adaptive_stopping_is_width_invariant() {
    let params = ModelParams::paper_figure7(0.5, minutes(120.0)).unwrap();
    let engine = Engine::with_failure_spec(&params, FailureSpec::Weibull { shape: 0.7 }).unwrap();
    let profile = ApplicationProfile::from_params(&params);
    let budget = ReplicationBudget::Adaptive {
        rel_precision: 0.05,
        min: 60,
        max: 500,
    };
    for antithetic in [false, true] {
        let plan = ReplicationPlan::new(budget).antithetic(antithetic);
        let scalar =
            scalar_single(&engine, Protocol::AbftPeriodicCkpt, &profile, plan, 11);
        for lanes in [1usize, 33, 128, 256, 1024] {
            let batch = batch_single(
                &engine,
                Protocol::AbftPeriodicCkpt,
                &profile,
                plan,
                11,
                lanes,
            );
            assert_eq!(scalar, batch, "antithetic={antithetic} lanes={lanes}");
        }
    }
}

/// A failure-dominated point (platform MTBF 40 minutes against the paper's
/// week of work) drives most checkpoint periods through the interrupted
/// slow path, so the compacted worklist — not the all-lanes fast pass — is
/// what produces these outcomes.  Every lane must still equal the scalar
/// oracle bit for bit, and the point must actually be dense (otherwise the
/// test silently stops covering the compaction).
#[test]
fn dense_failure_grids_exercise_the_compacted_slow_path_bit_exactly() {
    for spec in [FailureSpec::Exponential, FailureSpec::Weibull { shape: 0.5 }] {
        let params = ModelParams::paper_figure7(0.5, minutes(40.0)).unwrap();
        let engine = Engine::with_failure_spec(&params, spec).unwrap();
        let profile = ApplicationProfile::from_params_repeated(&params, 2);
        for width in [1usize, 37, 64] {
            let seeds = lane_seeds(0xDE5E ^ width as u64, width);
            for protocol in Protocol::all() {
                let batch = simulate_profile_batch(
                    &engine,
                    protocol,
                    &profile,
                    &mut streams(&engine, &seeds),
                );
                let mut total_failures = 0usize;
                for (lane, &seed) in seeds.iter().enumerate() {
                    let scalar = engine.simulate_profile(protocol, &profile, seed);
                    total_failures += scalar.failures;
                    assert_bit_identical(
                        &batch[lane],
                        &scalar,
                        &format!("dense {spec} {protocol:?} width {width} lane {lane}"),
                    );
                }
                assert!(
                    total_failures >= width,
                    "dense {spec} {protocol:?} width {width}: only {total_failures} \
                     failures across {width} lanes — the slow path is not being covered"
                );
            }
        }
    }
}

/// The intra-point parallel block driver against the *scalar* oracle: at
/// every thread count, for fixed and adaptive budgets, plain and
/// antithetic, the parallel program driver must reproduce the scalar
/// replication loop's accumulator bit for bit — not merely agree with the
/// serial batch driver.
#[test]
fn parallel_program_driver_matches_the_scalar_oracle() {
    let params = ModelParams::paper_figure7(0.5, minutes(120.0)).unwrap();
    let engine = Engine::with_failure_spec(&params, FailureSpec::Weibull { shape: 0.7 }).unwrap();
    let profile = ApplicationProfile::from_params_repeated(&params, 2);
    let program = BatchProgram::compile(Protocol::AbftPeriodicCkpt, &profile, engine.plan());
    for budget in [
        ReplicationBudget::Fixed(170),
        ReplicationBudget::Adaptive {
            rel_precision: 0.05,
            min: 60,
            max: 400,
        },
    ] {
        for antithetic in [false, true] {
            let plan = ReplicationPlan::new(budget).antithetic(antithetic);
            let scalar = scalar_single(
                &engine,
                Protocol::AbftPeriodicCkpt,
                &profile,
                plan,
                43,
            );
            for threads in [1usize, 2, 3, 8] {
                let batch = accumulate_profile_program_batch(
                    &engine, &program, plan, 43, 48, threads,
                );
                assert_eq!(
                    scalar, batch,
                    "{budget:?} antithetic={antithetic} threads={threads}"
                );
            }
        }
    }
}

/// The paired parallel driver against the scalar paired oracle: marginals,
/// per-trace deltas and the paired-delta stopping rule survive both
/// batching and intra-point threading bit for bit.
#[test]
fn parallel_paired_driver_matches_the_scalar_oracle() {
    let params = ModelParams::paper_figure7(0.5, minutes(120.0)).unwrap();
    let protocols = [Protocol::PurePeriodicCkpt, Protocol::AbftPeriodicCkpt];
    let engine = Engine::with_failure_spec(&params, FailureSpec::Exponential).unwrap();
    let profile = ApplicationProfile::from_params(&params);
    let programs: Vec<BatchProgram> = protocols
        .iter()
        .map(|&p| BatchProgram::compile(p, &profile, engine.plan()))
        .collect();
    let program_refs: Vec<&BatchProgram> = programs.iter().collect();
    for budget in [
        ReplicationBudget::Fixed(137),
        ReplicationBudget::AdaptiveDelta {
            rel_precision: 0.05,
            min: 60,
            max: 400,
        },
    ] {
        for antithetic in [false, true] {
            let plan = ReplicationPlan::new(budget).antithetic(antithetic);
            let scalar = accumulate_paired_engine(&engine, &protocols, &profile, plan, 29);
            for threads in [1usize, 2, 4, 7] {
                let batch = accumulate_paired_programs_batch(
                    &engine,
                    &protocols,
                    &program_refs,
                    plan,
                    29,
                    32,
                    threads,
                );
                assert_eq!(
                    scalar, batch,
                    "{budget:?} antithetic={antithetic} threads={threads}"
                );
            }
        }
    }
}

/// Paired common-random-numbers accumulation (the crossover machinery's
/// engine) survives batching bit for bit: marginals, per-trace deltas and
/// the paired-delta stopping rule.  The protocol sets and α values give
/// programs that share all (α = 0), part (α = 0.5) or none (α = 1 for the
/// Pure/ABFT pair) of their leading steps, so the driver's fork where the
/// programs first differ — taken with the failure stream, including the
/// cascade clock's per-lane `SourceState` — is checked against the scalar
/// oracle, which runs every protocol from step 0.
#[test]
fn paired_accumulation_is_bit_identical_under_batching() {
    let pair = [Protocol::PurePeriodicCkpt, Protocol::AbftPeriodicCkpt];
    let all = Protocol::all();
    for alpha in [0.0, 0.5, 1.0] {
        let params = ModelParams::paper_figure7(alpha, minutes(120.0)).unwrap();
        let profile = ApplicationProfile::from_params(&params);
        let cascade = ScenarioSpec::Cascade.resolve(minutes(120.0), hours(48.0)).unwrap();
        let engines = [
            Engine::with_failure_spec(&params, FailureSpec::Exponential).unwrap(),
            Engine::with_failure_spec(&params, FailureSpec::Weibull { shape: 0.7 }).unwrap(),
            Engine::with_failure_model(&params, cascade),
        ];
        for engine in &engines {
            let name = engine.failure_model().name();
            for protocols in [&pair[..], &all[..]] {
                for budget in [
                    ReplicationBudget::Fixed(137), // ragged against every width below
                    ReplicationBudget::AdaptiveDelta {
                        rel_precision: 0.05,
                        min: 60,
                        max: 400,
                    },
                ] {
                    for antithetic in [false, true] {
                        let plan = ReplicationPlan::new(budget).antithetic(antithetic);
                        let scalar =
                            accumulate_paired_engine(engine, protocols, &profile, plan, 29);
                        for (lanes, threads) in [(1usize, 1usize), (50, 1), (128, 1), (50, 2)] {
                            let batch = batch_paired(
                                engine, protocols, &profile, plan, 29, lanes, threads,
                            );
                            assert_eq!(
                                scalar, batch,
                                "{name} α={alpha} {protocols:?} {budget:?} \
                                 antithetic={antithetic} lanes={lanes} threads={threads}"
                            );
                        }
                    }
                }
            }
        }
    }
}

/// A fig9 weak-scaling point: its engine, drawing failures from
/// exponential arrivals of mean `mtbf` (the point's own MTBF when `None`)
/// while its period plan — and so the batch engine's fused blocks — stays
/// the point's own, and the scenario's `epochs`-epoch profile.
fn fig9_point(nodes: f64, mtbf: Option<f64>, epochs: usize) -> (Engine, ApplicationProfile) {
    fig9_point_of(&WeakScalingScenario::figure9(), nodes, mtbf, epochs)
}

fn fig9_point_of(
    scenario: &WeakScalingScenario,
    nodes: f64,
    mtbf: Option<f64>,
    epochs: usize,
) -> (Engine, ApplicationProfile) {
    let params = scenario.params_at(nodes).unwrap();
    let mtbf = mtbf.unwrap_or(params.platform_mtbf);
    let model = AnyFailureModel::Exponential(ExponentialFailures::new(mtbf).unwrap());
    let profile = ApplicationProfile::uniform(
        epochs,
        scenario.general_duration(nodes),
        scenario.library_duration(nodes),
    )
    .unwrap();
    (Engine::with_failure_model(&params, model), profile)
}

/// Checks every lane of `protocol`'s batch over `seeds` against the scalar
/// oracle, returning the failures the lanes met.
fn check_lanes(
    engine: &Engine,
    protocol: Protocol,
    profile: &ApplicationProfile,
    seeds: &[u64],
    label: &str,
) -> usize {
    let batch = simulate_profile_batch(engine, protocol, profile, &mut streams(engine, seeds));
    let mut failures = 0;
    for (lane, &seed) in seeds.iter().enumerate() {
        let scalar = engine.simulate_profile(protocol, profile, seed);
        assert_bit_identical(
            &batch[lane],
            &scalar,
            &format!("{label} {protocol:?} lane {lane}"),
        );
        failures += scalar.failures;
    }
    failures
}

/// The shape the fused fast pass is for: fig9's composite program, whose
/// epochs (short GENERAL period, ABFT work, exit checkpoint) each fit in
/// one full period, at points around the Pure/ABFT crossover — and at the
/// crossover itself at widths that leave every chunk-tail length of the
/// eight-lane kernel.
#[test]
fn fused_fig9_points_around_the_crossover_are_bit_exact_at_chunk_tails() {
    for (nodes, widths) in [
        (1.4e5, &[1usize, 7, 8, 9, 127, 129][..]),
        (1e5, &[129][..]),
        (2e5, &[129][..]),
    ] {
        let (engine, profile) = fig9_point(nodes, None, 1000);
        for &width in widths {
            let seeds = lane_seeds(0xF19 ^ width as u64, width);
            for protocol in [Protocol::PurePeriodicCkpt, Protocol::AbftPeriodicCkpt] {
                check_lanes(
                    &engine,
                    protocol,
                    &profile,
                    &seeds,
                    &format!("fig9 {nodes} width {width}"),
                );
            }
        }
    }
}

/// Fused blocks at the two extremes of the miss rate, on fig9's plan: an
/// MTBF of 2000 s against ~20 000 s blocks, where nearly every block misses
/// and replays step by step, and an MTBF of 10¹² s, where none does.  (At
/// 2000 s PurePeriodic's ~25 000 s periods would almost never complete;
/// the composite's ABFT work progresses through its failures.)
#[test]
fn fused_blocks_that_all_miss_or_all_commit_are_bit_exact() {
    let seeds = lane_seeds(0xB10C, 129);
    for (mtbf, epochs, protocols) in [
        (2000.0, 20, &[Protocol::AbftPeriodicCkpt][..]),
        (
            1e12,
            1000,
            &[Protocol::PurePeriodicCkpt, Protocol::AbftPeriodicCkpt][..],
        ),
    ] {
        let (engine, profile) = fig9_point(1.4e5, Some(mtbf), epochs);
        for &protocol in protocols {
            let failures =
                check_lanes(&engine, protocol, &profile, &seeds, &format!("MTBF {mtbf}"));
            if mtbf < 1e4 {
                assert!(
                    failures >= seeds.len() * epochs,
                    "{protocol:?}: only {failures} failures — blocks do not all miss"
                );
            } else {
                assert_eq!(failures, 0, "{protocol:?}: a block missed");
            }
        }
    }
}

/// Zero-cost checkpoints are finite, non-negative terms, so they fuse: ρ = 1
/// zeroes the composite's REMAINDER checkpoint (each epoch's short GENERAL
/// period ends in it), ρ = 0 its LIBRARY exit checkpoint and BiPeriodic's
/// LIBRARY-stream checkpoints.
#[test]
fn zero_cost_checkpoint_steps_fuse_bit_exactly() {
    for rho in [1.0, 0.0] {
        let scenario = WeakScalingScenario {
            rho,
            ..WeakScalingScenario::figure9()
        };
        let (engine, profile) = fig9_point_of(&scenario, 1.4e5, None, 200);
        let plan = engine.plan();
        assert_eq!(plan.ckpt_remainder.min(plan.ckpt_library), 0.0, "ρ = {rho}");
        let seeds = lane_seeds(0x2E50 ^ rho.to_bits(), 37);
        for protocol in Protocol::all() {
            check_lanes(&engine, protocol, &profile, &seeds, &format!("ρ = {rho}"));
        }
    }
}

/// A paired antithetic pass whose shared step prefix ends inside a fusable
/// run: BiPeriodic and the composite share the long GENERAL phase of the
/// first epoch, whose short last period fuses with the LIBRARY steps that
/// follow it in both programs — different ones in each.  A block that
/// crossed the fork point would carry the first program's LIBRARY steps
/// into the second's.
#[test]
fn paired_prefix_ending_inside_a_fusable_run_is_bit_exact() {
    for spec in [
        FailureSpec::Exponential,
        FailureSpec::Weibull { shape: 0.7 },
    ] {
        let params = ModelParams::paper_figure7(0.5, minutes(120.0)).unwrap();
        let engine = Engine::with_failure_spec(&params, spec).unwrap();
        let plan = engine.plan();
        let general = 2.0 * (plan.full_period - plan.ckpt_full) + 500.0;
        let profile = ApplicationProfile::uniform(3, general, 500.0).unwrap();
        let bi_abft = [Protocol::BiPeriodicCkpt, Protocol::AbftPeriodicCkpt];
        let abft_bi = [Protocol::AbftPeriodicCkpt, Protocol::BiPeriodicCkpt];
        for protocols in [bi_abft, abft_bi] {
            let plan = ReplicationPlan::new(ReplicationBudget::Fixed(150)).antithetic(true);
            let scalar = accumulate_paired_engine(&engine, &protocols, &profile, plan, 41);
            for lanes in [7usize, 128] {
                let batch = batch_paired(&engine, &protocols, &profile, plan, 41, lanes, 1);
                assert_eq!(scalar, batch, "{spec} {protocols:?} lanes={lanes}");
            }
        }
    }
}

/// A hand-built plan may carry a negative cost or slowdown (its fields are
/// public; only plans derived from validated `ModelParams` are guaranteed
/// non-negative).  The scalar clock treats a negative duration as a no-op,
/// so the batch engine, whose fast pass adds every term to the lane clock,
/// must end each lane where `Protocol::execute` does.
#[test]
fn negative_plan_costs_end_where_the_scalar_executor_ends() {
    let params = ModelParams::paper_figure7(0.5, minutes(120.0)).unwrap();
    let engine = Engine::new(&params);
    let negative_cost = PeriodPlan {
        ckpt_remainder: -10.0,
        ..*engine.plan()
    };
    let negative_phi = PeriodPlan {
        phi: -1.0,
        ..*engine.plan()
    };
    let profile = ApplicationProfile::uniform(2, 1000.0, 500.0).unwrap();
    let protocol = Protocol::AbftPeriodicCkpt;
    let seeds = [1u64, 2, 3];
    for (label, plan) in [("C_L̄ < 0", negative_cost), ("φ < 0", negative_phi)] {
        let program = BatchProgram::compile(protocol, &profile, &plan);
        let mut state = BatchState::new();
        program.run(&mut streams(&engine, &seeds), &mut state);
        for (lane, &seed) in seeds.iter().enumerate() {
            let mut clock = SimClock::with_model(*engine.failure_model(), seed);
            protocol.execute(&mut clock, &profile, &plan);
            let batch = program.outcome(&state, lane);
            assert_eq!(
                batch.final_time.to_bits(),
                clock.now().to_bits(),
                "{label} seed {seed}: batch {} vs scalar {}",
                batch.final_time,
                clock.now()
            );
        }
    }
}
