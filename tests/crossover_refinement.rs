//! Property tests for the crossover-refinement subsystem (ISSUE 4):
//!
//! * the paired-delta budget (`ReplicationBudget::AdaptiveDelta`) stops **no
//!   later** than the marginal-CI rule on the same traces, and `Fixed`
//!   pairing stays bit-compatible with unpaired accumulation;
//! * the bisection driver localises a known analytic crossover of the §IV
//!   waste model to the requested relative tolerance;
//! * Weibull failure sequences replay bit-identically through `TraceCursor`,
//!   so common-random-numbers comparisons are exact under non-exponential
//!   clocks too;
//! * simulated refinements reproduce golden probe outcomes bit for bit, at
//!   every lane width and intra-probe thread count, and antithetic
//!   refinements count two executions per replication and protocol.

use abft_ckpt_composite::bench::{
    Axis, CrossoverRefinement, CrossoverRefiner, Parameter, SweepSpec,
};
use abft_ckpt_composite::composite::params::ModelParams;
use abft_ckpt_composite::composite::scaling::WeakScalingScenario;
use abft_ckpt_composite::composite::scenario::ApplicationProfile;
use abft_ckpt_composite::platform::failure::{
    FailureSource, FailureSpec, FailureStream, WeibullFailures,
};
use abft_ckpt_composite::platform::trace::TraceBuffer;
use abft_ckpt_composite::platform::units::hours;
use abft_ckpt_composite::sim::{
    accumulate_paired_engine, Engine, Protocol, ReplicationBudget, DEFAULT_BATCH_LANES,
};
use proptest::prelude::*;

mod common;
use common::batch_single;

/// Parameter points around the paper's Figure-7 study.
fn arb_params() -> impl Strategy<Value = ModelParams> {
    (0.0f64..=1.0, 1.0f64..=4.0)
        .prop_filter_map("paper parameters must validate", |(alpha, mtbf)| {
            ModelParams::paper_figure7(alpha, hours(mtbf)).ok()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn paired_delta_budget_stops_no_later_than_the_marginal_rule(
        params in arb_params(),
        seed in 0u64..1_000,
        rel in 0.02f64..0.10,
    ) {
        // Identical seed stream → identical traces: the only difference is
        // the stopping rule, and AdaptiveDelta ORs the marginal rule with
        // the delta-resolution rule, so it can never run longer.
        let engine = Engine::new(&params);
        let profile = ApplicationProfile::from_params(&params);
        let protocols = [Protocol::PurePeriodicCkpt, Protocol::AbftPeriodicCkpt];
        let (min, max) = (30, 600);
        let delta = accumulate_paired_engine(
            &engine, &protocols, &profile,
            ReplicationBudget::AdaptiveDelta { rel_precision: rel, min, max },
            seed,
        );
        let marginal = accumulate_paired_engine(
            &engine, &protocols, &profile,
            ReplicationBudget::Adaptive { rel_precision: rel, min, max },
            seed,
        );
        prop_assert!(delta.replications() >= min);
        prop_assert!(delta.replications() <= max);
        prop_assert!(
            delta.replications() <= marginal.replications(),
            "paired-delta used {} replications, marginal rule {}",
            delta.replications(),
            marginal.replications()
        );
        // Shared seed stream: the delta run's traces are a prefix of the
        // marginal run's, so the delta means agree over that prefix.
        let d = delta.delta(Protocol::AbftPeriodicCkpt).unwrap();
        prop_assert_eq!(d.count() as usize, delta.replications());
    }

    #[test]
    fn fixed_pairing_is_bit_compatible_with_unpaired_accumulation(
        params in arb_params(),
        seed in 0u64..1_000,
        n in 5usize..30,
    ) {
        // `Fixed` pairing replays the shared buffer to every protocol, so
        // each marginal must match the protocol's unpaired accumulation
        // (its own program on the batch driver) bit for bit, under the
        // exponential *and* the Weibull clock.
        let profile = ApplicationProfile::from_params(&params);
        for spec in [FailureSpec::Exponential, FailureSpec::Weibull { shape: 0.7 }] {
            let engine = Engine::with_failure_spec(&params, spec).unwrap();
            let paired = accumulate_paired_engine(
                &engine,
                &Protocol::all(),
                &profile,
                ReplicationBudget::Fixed(n),
                seed,
            );
            for (i, &protocol) in Protocol::all().iter().enumerate() {
                let fixed = ReplicationBudget::Fixed(n);
                let unpaired =
                    batch_single(&engine, protocol, &profile, fixed, seed, DEFAULT_BATCH_LANES);
                prop_assert_eq!(&paired.outcomes[i], &unpaired);
            }
        }
    }

    #[test]
    fn weibull_traces_replay_bit_identically_through_the_cursor(
        shape in 0.5f64..2.0,
        seed in 0u64..1_000,
    ) {
        // A trace buffer over a Weibull model yields exactly the sequence a
        // fresh stream samples — the CRN contract is distribution-agnostic.
        let model = WeibullFailures::new(hours(2.0), shape).unwrap();
        let mut stream = FailureStream::new(model, seed);
        let mut buffer = TraceBuffer::new(model, seed);
        let mut cursor = buffer.cursor();
        for _ in 0..200 {
            prop_assert_eq!(
                stream.next_failure().to_bits(),
                FailureSource::next_failure(&mut cursor).to_bits()
            );
        }
    }

    #[test]
    fn weibull_engine_replay_matches_fresh_simulation(
        params in arb_params(),
        shape in 0.5f64..2.0,
        seed in 0u64..1_000,
    ) {
        let engine =
            Engine::with_failure_spec(&params, FailureSpec::Weibull { shape }).unwrap();
        let profile = ApplicationProfile::from_params(&params);
        let mut buffer = engine.trace_buffer(seed);
        for protocol in Protocol::all() {
            buffer.reset(seed);
            let replayed = engine.simulate_profile_replay(protocol, &profile, &mut buffer);
            let fresh = engine.simulate_profile(protocol, &profile, seed);
            prop_assert_eq!(replayed.final_time.to_bits(), fresh.final_time.to_bits());
            prop_assert_eq!(replayed, fresh);
        }
    }
}

#[test]
fn bisection_localises_the_analytic_fig9_crossover_to_the_requested_tolerance() {
    // Ground truth: a fine log-spaced scan of the §IV waste model around the
    // crossover region of the Figure-9 scenario.
    let scenario = WeakScalingScenario::figure9();
    let truth = {
        let steps = 4_000;
        let (lo, hi) = (1e5f64, 2e5f64);
        let value = |i: usize| lo * (hi / lo).powf(i as f64 / steps as f64);
        let beats = |x: f64| {
            let p = scenario.point(x).unwrap();
            p.composite.waste.value() < p.pure.waste.value()
        };
        (1..=steps)
            .find(|&i| !beats(value(i - 1)) && beats(value(i)))
            .map(value)
            .expect("the model crossover lies inside [1e5, 2e5]")
    };
    // The refiner, seeded from the paper's decade grid, must land within the
    // requested relative tolerance of that analytic value (plus the fine
    // scan's own resolution, ~1.7e-4 relative).
    let tol = 0.005;
    let spec = SweepSpec::scaling("fig9", scenario);
    let grid = SweepSpec {
        axes: vec![Axis::decades(Parameter::Nodes, 3, 6, 1)],
        ..spec.clone()
    }
    .run()
    .unwrap();
    let refinement = CrossoverRefiner::new(spec, Parameter::Nodes)
        .tolerance(tol)
        .refine_from(&grid)
        .unwrap();
    assert!(refinement.converged, "refinement must converge: {refinement:?}");
    assert!(refinement.achieved_tolerance <= tol);
    let rel_err = (refinement.crossover - truth).abs() / truth;
    assert!(
        rel_err <= tol + 2e-4,
        "refined {} vs analytic {truth}: relative error {rel_err}",
        refinement.crossover
    );
}

#[test]
fn sequential_sign_test_is_off_by_default_and_pools_noisy_midpoints() {
    // Noisy probes: a small fixed budget keeps each probe's CI wide, so
    // midpoint sign decisions near the crossover stay unresolved at 95 %.
    let spec = SweepSpec::scaling("fig9", WeakScalingScenario::figure9())
        .budget(ReplicationBudget::Fixed(15));

    // Default OFF: `new` sets one probe per midpoint, and an explicit
    // `.sign_repeats(1)` reproduces the default refinement bit for bit.
    let refiner = CrossoverRefiner::new(spec.clone(), Parameter::Nodes).tolerance(0.02);
    assert_eq!(refiner.sign_repeats, 1);
    let single = refiner.clone().refine(1e5, 1e6).unwrap();
    let single_again = refiner.clone().sign_repeats(1).refine(1e5, 1e6).unwrap();
    assert_eq!(single, single_again);

    // The single-probe refinement carries a confidence statement already —
    // the weakest sign decision under the normal approximation.
    let confidence = single.confidence.expect("simulated decisions were taken");
    assert!(confidence > 0.5 && confidence <= 1.0);

    // With the sign test armed, undecided midpoints spend extra pooled
    // probes (visible as consecutive probes of the same coordinate) and the
    // weakest decision can only get stronger on the pooled statistic.
    let pooled = refiner.clone().sign_repeats(4).refine(1e5, 1e6).unwrap();
    let repeated = pooled
        .probes
        .windows(2)
        .filter(|w| w[0].value == w[1].value)
        .count();
    assert!(
        repeated > 0,
        "a Fixed(15) budget must leave some midpoint unresolved: {pooled:?}"
    );
    assert!(pooled.total_replications() > single.total_replications());
    let pooled_confidence = pooled.confidence.unwrap();
    assert!(
        pooled_confidence >= confidence,
        "pooling weakened the bracket: {pooled_confidence} < {confidence}"
    );

    // Model-only probes decide exactly: certainty, no matter the repeats.
    let model = CrossoverRefiner::new(
        SweepSpec {
            budget: ReplicationBudget::Fixed(0),
            ..spec
        },
        Parameter::Nodes,
    )
    .tolerance(0.02)
    .sign_repeats(5)
    .refine(1e5, 1e6)
    .unwrap();
    assert_eq!(model.confidence, Some(1.0));
}

#[test]
fn simulated_refinement_agrees_with_the_model_and_runs_under_weibull() {
    // A small simulated refinement (paired-delta probes) lands near the
    // model crossover, and the same driver completes under a Weibull clock.
    let budget = ReplicationBudget::AdaptiveDelta {
        rel_precision: 0.05,
        min: 40,
        max: 200,
    };
    let spec = SweepSpec::scaling("fig9", WeakScalingScenario::figure9()).budget(budget);
    let model_spec = SweepSpec {
        budget: ReplicationBudget::Fixed(0),
        ..spec.clone()
    };
    let model = CrossoverRefiner::new(model_spec, Parameter::Nodes)
        .tolerance(0.02)
        .refine(1e5, 1e6)
        .unwrap();
    let simulated = CrossoverRefiner::new(spec.clone(), Parameter::Nodes)
        .tolerance(0.02)
        .refine(1e5, 1e6)
        .unwrap();
    assert!(simulated.converged);
    assert!(simulated.total_replications() > 0);
    let gap = (simulated.crossover - model.crossover).abs() / model.crossover;
    assert!(gap < 0.10, "simulated {} vs model {}", simulated.crossover, model.crossover);

    let weibull = CrossoverRefiner::new(
        spec.failure_model(FailureSpec::Weibull { shape: 0.7 }),
        Parameter::Nodes,
    )
    .tolerance(0.02)
    .refine(1e5, 1e6)
    .unwrap();
    assert!(weibull.converged);
    assert!(weibull.crossover > 1e5 && weibull.crossover < 1e6);
}

/// Every probe of a refinement as `(value, delta, ci95)` bit patterns plus
/// the replications it spent: the exact record a golden outcome pins.
fn probe_bits(refinement: &CrossoverRefinement) -> Vec<(u64, u64, u64, usize)> {
    refinement
        .probes
        .iter()
        .map(|p| (p.value.to_bits(), p.delta.to_bits(), p.ci95.to_bits(), p.replications))
        .collect()
}

/// A small simulated fig9 refinement along `nodes` (seed 42, paired-delta
/// probes of 40..200 traces, 2 % tolerance).
fn small_fig9_refiner(failure: FailureSpec, sign_repeats: usize) -> CrossoverRefiner {
    let spec = SweepSpec::scaling("fig9", WeakScalingScenario::figure9())
        .failure_model(failure)
        .budget(ReplicationBudget::AdaptiveDelta {
            rel_precision: 0.05,
            min: 40,
            max: 200,
        });
    CrossoverRefiner::new(spec, Parameter::Nodes)
        .tolerance(0.02)
        .sign_repeats(sign_repeats)
}

/// Probe outcomes of the exponential refinement, recorded with the scalar
/// engine: an oracle independent of the batch engine the probes default to.
const GOLDEN_EXPONENTIAL: &[(u64, u64, u64, usize)] = &[
    (0x40ff57b304a5d2b8, 0x3f6ce46614e48119, 0x3f5c1f17a9b99dd7, 40),
    (0x4101c6f5fc8acb68, 0xbf51c610e6d7c066, 0x3f56d4143e4bb9b3, 40),
    (0x4100b967bf6eda62, 0x3f453dad9973d718, 0x3f5ef4f8f9b50cee, 40),
    (0x4101402eddfcd2e5, 0x3f3bcc55bed97600, 0x3f575c14bc282c59, 40),
    (0x410183926d43cf26, 0xbf610ef6fd6210cd, 0x3f5e7f201c1409d5, 40),
];

/// Probe outcomes of the Weibull k = 0.7 refinement with a three-probe
/// sequential sign test, recorded with the scalar engine.
const GOLDEN_WEIBULL: &[(u64, u64, u64, usize)] = &[
    (0x41003ed0c10dedce, 0x3f64fe903dbb5d59, 0x3f616703137f1cf5, 40),
    (0x41026dad0861d29e, 0xbf5d35193bc72e28, 0x3f61fa5af2440b99, 40),
    (0x4101563ee4b7e036, 0xbf2b3000d1dc6c02, 0x3f60f800b39258d1, 40),
    (0x4101563ee4b7e036, 0x3f4420a3def882b2, 0x3f5d48ec04244f7b, 40),
    (0x4101563ee4b7e036, 0x3f3b0f3a39af04fe, 0x3f636f0f5afdcfd2, 40),
    (0x4101e1f5f68cd96a, 0xbf6077739d0a0a14, 0x3f5eed7c5e62141a, 40),
    (0x41019c1a6da25cd0, 0xbf472589ff071132, 0x3f654255b9308c58, 40),
    (0x41019c1a6da25cd0, 0x3f2026e15b0edf38, 0x3f6241aa97027c2e, 40),
    (0x41019c1a6da25cd0, 0x3f00094ab5e0d51c, 0x3f631868ef123d39, 40),
];

/// The exponential refiner at 1 % precision and up to 400 traces, so that
/// its probes extend past the 40-trace minimum.
fn growing_fig9_refiner() -> CrossoverRefiner {
    let mut refiner = small_fig9_refiner(FailureSpec::Exponential, 1);
    refiner.spec = refiner.spec.budget(ReplicationBudget::AdaptiveDelta {
        rel_precision: 0.01,
        min: 40,
        max: 400,
    });
    refiner
}

/// Probe outcomes of [`growing_fig9_refiner`], recorded with the scalar
/// engine.
const GOLDEN_GROWING: &[(u64, u64, u64, usize)] = &[
    (0x40ff57b304a5d2b8, 0x3f6ce46614e48119, 0x3f5c1f17a9b99dd7, 40),
    (0x4101c6f5fc8acb68, 0xbf5b2d076740433b, 0x3f50e6acc547d135, 90),
    (0x4100b967bf6eda62, 0x3f302159abac5777, 0x3f4575d08ceeff19, 240),
    (0x4101402eddfcd2e5, 0xbf20b6b4c2340230, 0x3f449df99cf92c9e, 190),
    (0x4100fccb4eb5d6a4, 0x3f336c7ae0a3cc74, 0x3f4472c0ad633579, 290),
];

#[test]
fn simulated_refinements_reproduce_their_golden_probes() {
    let exponential = small_fig9_refiner(FailureSpec::Exponential, 1)
        .refine(1e5, 1e6)
        .unwrap();
    assert_eq!(
        probe_bits(&exponential),
        GOLDEN_EXPONENTIAL,
        "exponential probes moved: {:#x?}",
        probe_bits(&exponential)
    );
    let weibull = small_fig9_refiner(FailureSpec::Weibull { shape: 0.7 }, 3)
        .refine(1e5, 1e6)
        .unwrap();
    assert_eq!(
        probe_bits(&weibull),
        GOLDEN_WEIBULL,
        "Weibull probes moved: {:#x?}",
        probe_bits(&weibull)
    );
    let growing = growing_fig9_refiner().refine(1e5, 1e6).unwrap();
    assert_eq!(
        probe_bits(&growing),
        GOLDEN_GROWING,
        "growing probes moved: {:#x?}",
        probe_bits(&growing)
    );
    assert!(GOLDEN_GROWING.iter().any(|&(.., replications)| replications > 40));
}

#[test]
fn refinements_are_invariant_to_lane_width_and_point_threads() {
    // The probes dispatch to the batch engine at any width above one and to
    // the scalar engine at width one: every refinement field, probe bits
    // included, must be identical across widths, ragged ones too, and
    // across intra-probe thread counts.  The last refiner's probes grow
    // past the budget's minimum, so the adaptive extension is covered too.
    let mut grew = false;
    for refiner in [
        small_fig9_refiner(FailureSpec::Exponential, 1),
        small_fig9_refiner(FailureSpec::Weibull { shape: 0.7 }, 3),
        growing_fig9_refiner(),
    ] {
        let run = |lanes: usize, threads: usize| {
            let mut refiner = refiner.clone();
            refiner.spec = refiner.spec.batch_lanes(lanes).point_threads(threads);
            refiner.refine(1e5, 1e6).unwrap()
        };
        let scalar = run(1, 1);
        grew |= scalar.probes.iter().any(|p| p.replications > 40);
        for (lanes, threads) in [(33, 1), (128, 1), (128, 2)] {
            assert_eq!(
                run(lanes, threads),
                scalar,
                "{}: {lanes} lanes on {threads} threads moved the refinement",
                refiner.spec.failure
            );
        }
    }
    assert!(grew, "no probe extended past the 40-trace minimum");
}

#[test]
fn antithetic_refinements_count_two_executions_per_replication() {
    let plain = small_fig9_refiner(FailureSpec::Exponential, 1)
        .refine(1e5, 1e6)
        .unwrap();
    assert!(!plain.antithetic);
    assert_eq!(plain.total_executions(), plain.total_replications());

    let mut refiner = small_fig9_refiner(FailureSpec::Exponential, 1);
    refiner.spec = refiner.spec.antithetic(true);
    let anti = refiner.refine(1e5, 1e6).unwrap();
    assert!(anti.antithetic);
    let traces: usize = anti.probes.iter().map(|p| p.replications).sum();
    assert!(traces > 0);
    // Two protocols per replication, and each replication replays a trace
    // and its antithetic partner.
    assert_eq!(anti.total_replications(), 2 * traces);
    assert_eq!(anti.total_executions(), 4 * traces);
    // Pairing changes the estimates, not the lane-width invariance.
    let mut scalar = refiner.clone();
    scalar.spec = scalar.spec.batch_lanes(1);
    assert_eq!(scalar.refine(1e5, 1e6).unwrap(), anti);
}
