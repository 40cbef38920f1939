//! Property tests for the adaptive replication budget and the paired
//! (common-random-numbers) comparison path (ISSUE 3):
//!
//! * `Adaptive` never exceeds its `max`, never stops before its `min`, and
//!   meets the requested relative precision whenever it stops early;
//! * `Fixed(n)` reproduces the historical replication loop — seeds from
//!   `derive_seeds`, one fresh simulation per seed — bit for bit (the
//!   pinned-seed engine regression guards the executors themselves);
//! * pairing protocols on shared failure traces never widens the confidence
//!   interval of the waste difference relative to independent runs.

use abft_ckpt_composite::composite::params::ModelParams;
use abft_ckpt_composite::composite::scenario::ApplicationProfile;
use abft_ckpt_composite::platform::rng::derive_seeds;
use abft_ckpt_composite::platform::units::{hours, minutes};
use abft_ckpt_composite::sim::{
    accumulate_paired_engine, stats::OutcomeAccumulator, Engine, Protocol, ReplicationBudget,
};
use proptest::prelude::*;

mod common;
use common::replicate_point;

/// Parameter points around the paper's Figure-7 study, varied enough to
/// exercise calm and failure-heavy regimes.
fn arb_params() -> impl Strategy<Value = ModelParams> {
    (
        0.0f64..=1.0,   // alpha
        1.0f64..=4.0,   // mtbf, hours
        5.0f64..=15.0,  // checkpoint = recovery cost, minutes
    )
        .prop_filter_map("paper parameters must validate", |(alpha, mtbf, c)| {
            // `with_checkpoint_cost` sets C = R, the paper's setting.
            ModelParams::paper_figure7(alpha, hours(mtbf))
                .and_then(|p| p.with_checkpoint_cost(minutes(c)))
                .ok()
        })
}

fn arb_protocol() -> impl Strategy<Value = Protocol> {
    (0usize..3).prop_map(|i| Protocol::all()[i])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn adaptive_stays_within_its_bracket_and_meets_the_precision(
        params in arb_params(),
        protocol in arb_protocol(),
        seed in 0u64..1_000,
        rel in 0.01f64..0.20,
    ) {
        let budget = ReplicationBudget::Adaptive { rel_precision: rel, min: 30, max: 400 };
        let acc = replicate_point(protocol, &params, budget, seed);
        let n = acc.count();
        prop_assert!(n >= 30, "stopped below min: {n}");
        prop_assert!(n <= 400, "exceeded max: {n}");
        if n < 400 {
            // Early stop: the requested relative precision was reached (or
            // the absolute floor, which protects near-zero-mean points from
            // burning to `max` on an unreachable relative target).
            let target = (rel * acc.waste.mean().abs())
                .max(ReplicationBudget::ABS_PRECISION_FLOOR);
            prop_assert!(
                acc.waste.ci95_half_width() <= target + 1e-15,
                "stopped at {n} with ci {} > target {}",
                acc.waste.ci95_half_width(), target
            );
        }
    }

    #[test]
    fn fixed_budget_reproduces_the_historical_loop_bit_for_bit(
        params in arb_params(),
        protocol in arb_protocol(),
        seed in 0u64..1_000,
        n in 5usize..40,
    ) {
        // The PR 2 replication loop, reconstructed from public API: derive
        // the seed vector, simulate each replication on a fresh clock.
        let engine = Engine::new(&params);
        let profile = ApplicationProfile::from_params(&params);
        let mut expected = OutcomeAccumulator::new();
        for s in derive_seeds(seed, n) {
            expected.push(&engine.simulate_profile(protocol, &profile, s));
        }
        let got = replicate_point(protocol, &params, ReplicationBudget::Fixed(n), seed);
        // OutcomeAccumulator compares its Welford moments exactly: equality
        // here means every simulated outcome matched to the last bit.
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn paired_interval_is_no_wider_than_independent_runs(
        params in arb_params(),
        seed in 0u64..1_000,
    ) {
        let profile = ApplicationProfile::from_params(&params);
        let protocols = [Protocol::PurePeriodicCkpt, Protocol::AbftPeriodicCkpt];
        let paired = accumulate_paired_engine(
            &Engine::new(&params),
            &protocols,
            &profile,
            ReplicationBudget::Fixed(60),
            seed,
        );
        let delta = paired.delta(Protocol::AbftPeriodicCkpt).expect("non-baseline delta");
        prop_assert_eq!(delta.count(), 60);
        // Mean of differences == difference of means on common traces.
        let marginal = paired.outcomes[1].waste.mean() - paired.outcomes[0].waste.mean();
        prop_assert!((delta.mean() - marginal).abs() < 1e-12);
        // CRN: Var(X - Y) = Var(X) + Var(Y) - 2 Cov(X, Y) with Cov >= 0 on
        // shared traces, so the paired CI cannot exceed the independent one.
        let independent = (paired.outcomes[0].waste.ci95_half_width().powi(2)
            + paired.outcomes[1].waste.ci95_half_width().powi(2))
        .sqrt();
        prop_assert!(
            delta.ci95_half_width() <= independent + 1e-15,
            "paired {} wider than independent {}",
            delta.ci95_half_width(),
            independent
        );
    }
}

#[test]
fn adaptive_spends_replications_where_the_relative_noise_is() {
    // At a *relative* precision target, the calm point (high MTBF) is the
    // expensive one: its mean waste is small, so each failure moves the
    // estimate by a large fraction and more replications are needed; the
    // failure-heavy point averages many failures per run and settles fast.
    let calm = ModelParams::paper_figure7(0.5, minutes(240.0)).unwrap();
    let stormy = ModelParams::paper_figure7(0.5, minutes(60.0)).unwrap();
    let budget = ReplicationBudget::Adaptive {
        rel_precision: 0.01,
        min: 50,
        max: 5_000,
    };
    let calm_n = replicate_point(Protocol::PurePeriodicCkpt, &calm, budget, 7).count();
    let stormy_n = replicate_point(Protocol::PurePeriodicCkpt, &stormy, budget, 7).count();
    assert!(
        stormy_n < calm_n,
        "stormy point used {stormy_n} replications, calm point {calm_n}"
    );
    assert!(calm_n < 5_000, "calm point should still stop before the cap");
}
