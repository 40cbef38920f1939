//! Regression lock on the protocol-engine refactor.
//!
//! The trait-based engine (`ft_sim::engine`) replaced the original
//! hard-coded epoch unfoldings.  For single-epoch profiles the two must be
//! *indistinguishable*: this test pins `simulate()` outcomes captured from
//! the pre-refactor executors on a (protocol x alpha x MTBF x seed) grid and
//! requires the refactored engine to reproduce them bit-for-bit
//! (`f64::to_bits` on the final time, exact failure counts).
//!
//! It also locks the engine's failure-free behaviour on multi-epoch
//! profiles: with a quasi-infinite MTBF every executor must finish in
//! exactly the profile's work time plus its protocol's deterministic
//! checkpoint overhead.

use abft_ckpt_composite::composite::params::ModelParams;
use abft_ckpt_composite::composite::scenario::ApplicationProfile;
use abft_ckpt_composite::platform::units::{hours, minutes, weeks};
use abft_ckpt_composite::sim::{simulate, Engine, Protocol};

/// Outcomes of the pre-refactor `simulate()` on the paper's Figure-7
/// parameters: (protocol, alpha, MTBF in minutes, seed, final_time bits,
/// failures).
const PINNED: &[(Protocol, f64, f64, u64, u64, usize)] = &[
    (Protocol::PurePeriodicCkpt, 0.0, 60.0, 1, 0x413566c386f3fd9b, 385),
    (Protocol::PurePeriodicCkpt, 0.0, 60.0, 7, 0x413580c387d85e38, 401),
    (Protocol::PurePeriodicCkpt, 0.0, 60.0, 42, 0x4134ae3324842021, 350),
    (Protocol::PurePeriodicCkpt, 0.0, 120.0, 1, 0x41302ba38054be3d, 160),
    (Protocol::PurePeriodicCkpt, 0.0, 120.0, 7, 0x412f408ede211588, 144),
    (Protocol::PurePeriodicCkpt, 0.0, 120.0, 42, 0x412deca176066cc3, 118),
    (Protocol::PurePeriodicCkpt, 0.0, 240.0, 1, 0x412a52cf9c529bde, 65),
    (Protocol::PurePeriodicCkpt, 0.0, 240.0, 7, 0x412a8fadc3a71918, 70),
    (Protocol::PurePeriodicCkpt, 0.0, 240.0, 42, 0x412a5bfa80914d3e, 56),
    (Protocol::PurePeriodicCkpt, 0.3, 60.0, 1, 0x413566c386f3fd9b, 385),
    (Protocol::PurePeriodicCkpt, 0.3, 60.0, 7, 0x413580c387d85e38, 401),
    (Protocol::PurePeriodicCkpt, 0.3, 60.0, 42, 0x4134ae3324842021, 350),
    (Protocol::PurePeriodicCkpt, 0.3, 120.0, 1, 0x41302ba38054be3d, 160),
    (Protocol::PurePeriodicCkpt, 0.3, 120.0, 7, 0x412f408ede211588, 144),
    (Protocol::PurePeriodicCkpt, 0.3, 120.0, 42, 0x412deca176066cc3, 118),
    (Protocol::PurePeriodicCkpt, 0.3, 240.0, 1, 0x412a52cf9c529bde, 65),
    (Protocol::PurePeriodicCkpt, 0.3, 240.0, 7, 0x412a8fadc3a71918, 70),
    (Protocol::PurePeriodicCkpt, 0.3, 240.0, 42, 0x412a5bfa80914d3e, 56),
    (Protocol::PurePeriodicCkpt, 0.8, 60.0, 1, 0x413566c386f3fd9b, 385),
    (Protocol::PurePeriodicCkpt, 0.8, 60.0, 7, 0x413580c387d85e38, 401),
    (Protocol::PurePeriodicCkpt, 0.8, 60.0, 42, 0x4134ae3324842021, 350),
    (Protocol::PurePeriodicCkpt, 0.8, 120.0, 1, 0x41302ba38054be3d, 160),
    (Protocol::PurePeriodicCkpt, 0.8, 120.0, 7, 0x412f408ede211588, 144),
    (Protocol::PurePeriodicCkpt, 0.8, 120.0, 42, 0x412deca176066cc3, 118),
    (Protocol::PurePeriodicCkpt, 0.8, 240.0, 1, 0x412a52cf9c529bde, 65),
    (Protocol::PurePeriodicCkpt, 0.8, 240.0, 7, 0x412a8fadc3a71918, 70),
    (Protocol::PurePeriodicCkpt, 0.8, 240.0, 42, 0x412a5bfa80914d3e, 56),
    (Protocol::PurePeriodicCkpt, 1.0, 60.0, 1, 0x413566c386f3fd9b, 385),
    (Protocol::PurePeriodicCkpt, 1.0, 60.0, 7, 0x413580c387d85e38, 401),
    (Protocol::PurePeriodicCkpt, 1.0, 60.0, 42, 0x4134ae3324842021, 350),
    (Protocol::PurePeriodicCkpt, 1.0, 120.0, 1, 0x41302ba38054be3d, 160),
    (Protocol::PurePeriodicCkpt, 1.0, 120.0, 7, 0x412f408ede211588, 144),
    (Protocol::PurePeriodicCkpt, 1.0, 120.0, 42, 0x412deca176066cc3, 118),
    (Protocol::PurePeriodicCkpt, 1.0, 240.0, 1, 0x412a52cf9c529bde, 65),
    (Protocol::PurePeriodicCkpt, 1.0, 240.0, 7, 0x412a8fadc3a71918, 70),
    (Protocol::PurePeriodicCkpt, 1.0, 240.0, 42, 0x412a5bfa80914d3e, 56),
    (Protocol::BiPeriodicCkpt, 0.0, 60.0, 1, 0x413566c386f3fd9b, 385),
    (Protocol::BiPeriodicCkpt, 0.0, 60.0, 7, 0x413580c387d85e38, 401),
    (Protocol::BiPeriodicCkpt, 0.0, 60.0, 42, 0x4134ae3324842021, 350),
    (Protocol::BiPeriodicCkpt, 0.0, 120.0, 1, 0x41302ba38054be3d, 160),
    (Protocol::BiPeriodicCkpt, 0.0, 120.0, 7, 0x412f408ede211588, 144),
    (Protocol::BiPeriodicCkpt, 0.0, 120.0, 42, 0x412deca176066cc3, 118),
    (Protocol::BiPeriodicCkpt, 0.0, 240.0, 1, 0x412a52cf9c529bde, 65),
    (Protocol::BiPeriodicCkpt, 0.0, 240.0, 7, 0x412a8fadc3a71918, 70),
    (Protocol::BiPeriodicCkpt, 0.0, 240.0, 42, 0x412a5bfa80914d3e, 56),
    (Protocol::BiPeriodicCkpt, 0.3, 60.0, 1, 0x4134c2219e573ed6, 371),
    (Protocol::BiPeriodicCkpt, 0.3, 60.0, 7, 0x4134f220ae0988dc, 396),
    (Protocol::BiPeriodicCkpt, 0.3, 60.0, 42, 0x413494e9977d29d5, 350),
    (Protocol::BiPeriodicCkpt, 0.3, 120.0, 1, 0x41300deecca22c57, 159),
    (Protocol::BiPeriodicCkpt, 0.3, 120.0, 7, 0x412eae0f45272026, 142),
    (Protocol::BiPeriodicCkpt, 0.3, 120.0, 42, 0x412d8a64314f7493, 117),
    (Protocol::BiPeriodicCkpt, 0.3, 240.0, 1, 0x412a24906ce572d5, 65),
    (Protocol::BiPeriodicCkpt, 0.3, 240.0, 7, 0x412a1a5f027dfc35, 68),
    (Protocol::BiPeriodicCkpt, 0.3, 240.0, 42, 0x412a115b99519c33, 56),
    (Protocol::BiPeriodicCkpt, 0.8, 60.0, 1, 0x4133dd1ec964523f, 357),
    (Protocol::BiPeriodicCkpt, 0.8, 60.0, 7, 0x4133c68832d7101c, 373),
    (Protocol::BiPeriodicCkpt, 0.8, 60.0, 42, 0x41340bcc46ceb309, 343),
    (Protocol::BiPeriodicCkpt, 0.8, 120.0, 1, 0x412ed4e6f6bd9690, 147),
    (Protocol::BiPeriodicCkpt, 0.8, 120.0, 7, 0x412e310a544ff3da, 141),
    (Protocol::BiPeriodicCkpt, 0.8, 120.0, 42, 0x412d67bac6dfd35e, 117),
    (Protocol::BiPeriodicCkpt, 0.8, 240.0, 1, 0x4129b06fa3292218, 64),
    (Protocol::BiPeriodicCkpt, 0.8, 240.0, 7, 0x412968383ca47238, 65),
    (Protocol::BiPeriodicCkpt, 0.8, 240.0, 42, 0x41296f0941e12fbc, 54),
    (Protocol::BiPeriodicCkpt, 1.0, 60.0, 1, 0x413393da152bfde5, 353),
    (Protocol::BiPeriodicCkpt, 1.0, 60.0, 7, 0x4133b69832d7101c, 373),
    (Protocol::BiPeriodicCkpt, 1.0, 60.0, 42, 0x4133d4616abf95c4, 340),
    (Protocol::BiPeriodicCkpt, 1.0, 120.0, 1, 0x412e98c464eaa840, 146),
    (Protocol::BiPeriodicCkpt, 1.0, 120.0, 7, 0x412e18ee279e9e53, 141),
    (Protocol::BiPeriodicCkpt, 1.0, 120.0, 42, 0x412ca91f83653451, 113),
    (Protocol::BiPeriodicCkpt, 1.0, 240.0, 1, 0x41299d5aa21669cb, 64),
    (Protocol::BiPeriodicCkpt, 1.0, 240.0, 7, 0x41297182f36441ed, 65),
    (Protocol::BiPeriodicCkpt, 1.0, 240.0, 42, 0x41292f35c73015ef, 53),
    (Protocol::AbftPeriodicCkpt, 0.0, 60.0, 1, 0x413566c386f3fd9b, 385),
    (Protocol::AbftPeriodicCkpt, 0.0, 60.0, 7, 0x413580c387d85e38, 401),
    (Protocol::AbftPeriodicCkpt, 0.0, 60.0, 42, 0x4134ae3324842021, 350),
    (Protocol::AbftPeriodicCkpt, 0.0, 120.0, 1, 0x41302ba38054be3d, 160),
    (Protocol::AbftPeriodicCkpt, 0.0, 120.0, 7, 0x412f408ede211588, 144),
    (Protocol::AbftPeriodicCkpt, 0.0, 120.0, 42, 0x412deca176066cc3, 118),
    (Protocol::AbftPeriodicCkpt, 0.0, 240.0, 1, 0x412a52cf9c529bde, 65),
    (Protocol::AbftPeriodicCkpt, 0.0, 240.0, 7, 0x412a8fadc3a71918, 70),
    (Protocol::AbftPeriodicCkpt, 0.0, 240.0, 42, 0x412a5bfa80914d3e, 56),
    (Protocol::AbftPeriodicCkpt, 0.3, 60.0, 1, 0x41323f9e5ba539d8, 340),
    (Protocol::AbftPeriodicCkpt, 0.3, 60.0, 7, 0x41325e38924a094c, 353),
    (Protocol::AbftPeriodicCkpt, 0.3, 60.0, 42, 0x4131a0a53c4af00c, 303),
    (Protocol::AbftPeriodicCkpt, 0.3, 120.0, 1, 0x412cb084d9df0d74, 137),
    (Protocol::AbftPeriodicCkpt, 0.3, 120.0, 7, 0x412bdef59ef409bc, 134),
    (Protocol::AbftPeriodicCkpt, 0.3, 120.0, 42, 0x412b00744e1eac2c, 112),
    (Protocol::AbftPeriodicCkpt, 0.3, 240.0, 1, 0x4127be4ee8b5a4e6, 58),
    (Protocol::AbftPeriodicCkpt, 0.3, 240.0, 7, 0x412842ff9bc97766, 63),
    (Protocol::AbftPeriodicCkpt, 0.3, 240.0, 42, 0x4127f1b9349e1c58, 50),
    (Protocol::AbftPeriodicCkpt, 0.8, 60.0, 1, 0x4128f769a92de768, 243),
    (Protocol::AbftPeriodicCkpt, 0.8, 60.0, 7, 0x412809476a27e61d, 237),
    (Protocol::AbftPeriodicCkpt, 0.8, 60.0, 42, 0x412816f987f96802, 205),
    (Protocol::AbftPeriodicCkpt, 0.8, 120.0, 1, 0x4125bbee72d0b402, 109),
    (Protocol::AbftPeriodicCkpt, 0.8, 120.0, 7, 0x4125ef1ee0e16d6f, 109),
    (Protocol::AbftPeriodicCkpt, 0.8, 120.0, 42, 0x4125d97726e02c96, 93),
    (Protocol::AbftPeriodicCkpt, 0.8, 240.0, 1, 0x41247b5ce5d60611, 44),
    (Protocol::AbftPeriodicCkpt, 0.8, 240.0, 7, 0x41245b669b38d876, 54),
    (Protocol::AbftPeriodicCkpt, 0.8, 240.0, 42, 0x412470d9ead04f7e, 40),
    (Protocol::AbftPeriodicCkpt, 1.0, 60.0, 1, 0x4124231b5ccef75b, 202),
    (Protocol::AbftPeriodicCkpt, 1.0, 60.0, 7, 0x41241b327057b880, 198),
    (Protocol::AbftPeriodicCkpt, 1.0, 60.0, 42, 0x4123f4012b1ae80b, 170),
    (Protocol::AbftPeriodicCkpt, 1.0, 120.0, 1, 0x412392c7ffffffff, 98),
    (Protocol::AbftPeriodicCkpt, 1.0, 120.0, 7, 0x41238de9f7ba4522, 97),
    (Protocol::AbftPeriodicCkpt, 1.0, 120.0, 42, 0x412375faeb56df41, 78),
    (Protocol::AbftPeriodicCkpt, 1.0, 240.0, 1, 0x412341bc00000000, 41),
    (Protocol::AbftPeriodicCkpt, 1.0, 240.0, 7, 0x41235137b47bde6d, 53),
    (Protocol::AbftPeriodicCkpt, 1.0, 240.0, 42, 0x41233d7800000000, 38),];

#[test]
fn new_engine_reproduces_pre_refactor_simulate_bit_for_bit() {
    for &(protocol, alpha, mtbf_min, seed, expected_bits, expected_failures) in PINNED {
        let params = ModelParams::paper_figure7(alpha, minutes(mtbf_min)).unwrap();
        let out = simulate(protocol, &params, seed);
        assert_eq!(
            out.final_time.to_bits(),
            expected_bits,
            "{protocol:?} alpha {alpha} MTBF {mtbf_min} min seed {seed}: \
             final_time {} != pinned {}",
            out.final_time,
            f64::from_bits(expected_bits),
        );
        assert_eq!(
            out.failures, expected_failures,
            "{protocol:?} alpha {alpha} MTBF {mtbf_min} min seed {seed}"
        );
    }
}

#[test]
fn engine_reuse_matches_the_one_shot_wrapper() {
    // Building the Engine once per point (as the sweep subsystem does) and
    // calling the simulate() convenience wrapper must agree exactly.
    let params = ModelParams::paper_figure7(0.8, minutes(120.0)).unwrap();
    let engine = Engine::new(&params);
    for protocol in Protocol::all() {
        for seed in 0..20 {
            assert_eq!(engine.simulate(protocol, seed), simulate(protocol, &params, seed));
        }
    }
}

#[test]
fn multi_epoch_zero_failure_time_is_work_plus_deterministic_checkpoints() {
    // Quasi-infinite MTBF: no failures, every phase is far below the optimal
    // period, so each executor's final time is exactly computable.
    let params = ModelParams::builder()
        .epoch_duration(weeks(1.0))
        .alpha(0.5)
        .checkpoint_cost(minutes(10.0))
        .recovery_cost(minutes(10.0))
        .downtime(minutes(1.0))
        .rho(0.8)
        .phi(1.03)
        .abft_reconstruction(2.0)
        .platform_mtbf(weeks(50_000.0))
        .build()
        .unwrap();
    let engine = Engine::new(&params);
    let plan = *engine.plan();
    let (general, library) = (hours(3.0), hours(2.0));
    let epochs = 7usize;
    let profile = ApplicationProfile::uniform(epochs, general, library).unwrap();
    let work = profile.total_duration();
    let n = epochs as f64;

    let cases = [
        // Pure: one opaque stream, one trailing full checkpoint.
        (Protocol::PurePeriodicCkpt, work + plan.ckpt_full),
        // Bi: per epoch one full + one incremental checkpoint.
        (
            Protocol::BiPeriodicCkpt,
            work + n * (plan.ckpt_full + plan.ckpt_library),
        ),
        // Composite: per epoch the forced entry (REMAINDER) checkpoint, the
        // phi-inflated library work and the forced exit (LIBRARY) checkpoint.
        (
            Protocol::AbftPeriodicCkpt,
            n * (general + plan.ckpt_remainder + plan.phi * library + plan.ckpt_library),
        ),
    ];
    for (protocol, expected) in cases {
        let out = engine.simulate_profile(protocol, &profile, 99);
        assert_eq!(out.failures, 0, "{protocol:?} saw failures");
        assert!(
            (out.final_time - expected).abs() < 1e-6,
            "{protocol:?}: {} != expected {expected}",
            out.final_time
        );
        assert!((out.base_time - work).abs() < 1e-9);
    }
}

// ---------------------------------------------------------------------------
// Golden outcomes beyond the single-epoch grid.
//
// The scalar executors, the batch engine's slow path and the crash-resume
// driver all unfold the same protocol semantics.  The pins below were
// recorded from independent implementations of those three, so they keep
// the differential oracles honest when the implementations are merged: a
// merged interpreter must still land on these exact bit patterns.

use abft_ckpt_composite::platform::failure::{AnyFailureModel, FailureSpec};
use abft_ckpt_composite::platform::scenario::ScenarioSpec;
use abft_ckpt_composite::sim::batch::{accumulate_paired_engine_batch, simulate_profile_batch};
use abft_ckpt_composite::sim::replicate::{
    accumulate_paired_engine, PairedAccumulator, ReplicationBudget, ReplicationPlan,
};
use abft_ckpt_composite::sim::resume::ResumableSim;
use abft_ckpt_composite::sim::{OutcomeAccumulator, Welford};

const PIN_SEEDS: [u64; 3] = [1, 7, 42];

fn pin_params() -> ModelParams {
    ModelParams::paper_figure7(0.5, minutes(120.0)).unwrap()
}

/// Three epochs: a GENERAL phase longer than the optimal period (periodic
/// checkpoints), a shorter one (the composite's single attempt ending in
/// the forced REMAINDER checkpoint) and an empty one (the composite's lone
/// forced entry checkpoint), each followed by LIBRARY work.
fn pin_profile() -> ApplicationProfile {
    use abft_ckpt_composite::composite::scenario::Epoch;
    ApplicationProfile::new(vec![
        Epoch::new(hours(6.0), hours(2.0)).unwrap(),
        Epoch::new(minutes(20.0), minutes(40.0)).unwrap(),
        Epoch::new(0.0, hours(1.0)).unwrap(),
    ])
}

/// Every failure family and scenario the engine runs under, resolved at the
/// pinned point's MTBF.
fn pin_engines() -> Vec<(&'static str, Engine)> {
    let params = pin_params();
    let mtbf = params.platform_mtbf;
    let horizon = hours(48.0);
    let scenario = |spec: ScenarioSpec| -> AnyFailureModel { spec.resolve(mtbf, horizon).unwrap() };
    let spec = |spec: FailureSpec| Engine::with_failure_spec(&params, spec).unwrap();
    vec![
        ("exponential", spec(FailureSpec::Exponential)),
        ("weibull0.7", spec(FailureSpec::Weibull { shape: 0.7 })),
        ("lognormal1.0", spec(FailureSpec::LogNormal { sigma: 1.0 })),
        ("cascade", Engine::with_failure_model(&params, scenario(ScenarioSpec::Cascade))),
        ("diurnal", Engine::with_failure_model(&params, scenario(ScenarioSpec::Diurnal))),
        ("wearout", Engine::with_failure_model(&params, scenario(ScenarioSpec::Wearout))),
        (
            "trace",
            Engine::with_failure_model(&params, scenario(ScenarioSpec::Trace { path: None })),
        ),
    ]
}

/// (source, protocol, seed, final_time bits, failures) of
/// `simulate_profile(protocol, pin_profile(), seed)`.
const PINNED_PROFILE: &[(&str, Protocol, u64, u64, usize)] = &[
    ("exponential", Protocol::PurePeriodicCkpt, 1, 0x40ea375aff1d12c7, 6),
    ("exponential", Protocol::PurePeriodicCkpt, 7, 0x40eaa51957d8f4f7, 7),
    ("exponential", Protocol::PurePeriodicCkpt, 42, 0x40e9838a2dd4a98b, 3),
    ("exponential", Protocol::BiPeriodicCkpt, 1, 0x40ead31451f34d48, 6),
    ("exponential", Protocol::BiPeriodicCkpt, 7, 0x40ed9b2b67f823cf, 8),
    ("exponential", Protocol::BiPeriodicCkpt, 42, 0x40e9f90a040e5cde, 3),
    ("exponential", Protocol::AbftPeriodicCkpt, 1, 0x40e842ff6d97ac7c, 6),
    ("exponential", Protocol::AbftPeriodicCkpt, 7, 0x40e7d175d2c4a7ae, 6),
    ("exponential", Protocol::AbftPeriodicCkpt, 42, 0x40e7badbca74a986, 3),
    ("weibull0.7", Protocol::PurePeriodicCkpt, 1, 0x40ec3e09c5efd34b, 6),
    ("weibull0.7", Protocol::PurePeriodicCkpt, 7, 0x40ed316fe73287f5, 8),
    ("weibull0.7", Protocol::PurePeriodicCkpt, 42, 0x40e7551d2d63e2c7, 2),
    ("weibull0.7", Protocol::BiPeriodicCkpt, 1, 0x40eca709c5efd34a, 6),
    ("weibull0.7", Protocol::BiPeriodicCkpt, 7, 0x40ec30ec8bf3f03b, 8),
    ("weibull0.7", Protocol::BiPeriodicCkpt, 42, 0x40e7be1d2d63e2c6, 2),
    ("weibull0.7", Protocol::AbftPeriodicCkpt, 1, 0x40eb7f89c5efd34a, 6),
    ("weibull0.7", Protocol::AbftPeriodicCkpt, 7, 0x40e960b7508df68a, 6),
    ("weibull0.7", Protocol::AbftPeriodicCkpt, 42, 0x40e6969d2d63e2c7, 2),
    ("lognormal1.0", Protocol::PurePeriodicCkpt, 1, 0x40ee1e0a4e5e6516, 9),
    ("lognormal1.0", Protocol::PurePeriodicCkpt, 7, 0x40eeeae56744ae90, 9),
    ("lognormal1.0", Protocol::PurePeriodicCkpt, 42, 0x40f0ed2797de6b7a, 13),
    ("lognormal1.0", Protocol::BiPeriodicCkpt, 1, 0x40ee4db7d877a538, 9),
    ("lognormal1.0", Protocol::BiPeriodicCkpt, 7, 0x40edbc653d7e61e3, 9),
    ("lognormal1.0", Protocol::BiPeriodicCkpt, 42, 0x40f128882e42da20, 13),
    ("lognormal1.0", Protocol::AbftPeriodicCkpt, 1, 0x40eb884f027fa3ac, 8),
    ("lognormal1.0", Protocol::AbftPeriodicCkpt, 7, 0x40e738a92c2208c4, 6),
    ("lognormal1.0", Protocol::AbftPeriodicCkpt, 42, 0x40ed83aa9d870a12, 13),
    ("cascade", Protocol::PurePeriodicCkpt, 1, 0x40e68effffffffff, 0),
    ("cascade", Protocol::PurePeriodicCkpt, 7, 0x40e8eed29527aba0, 3),
    ("cascade", Protocol::PurePeriodicCkpt, 42, 0x40e68effffffffff, 0),
    ("cascade", Protocol::BiPeriodicCkpt, 1, 0x40e85f11aa471fb0, 5),
    ("cascade", Protocol::BiPeriodicCkpt, 7, 0x40e98a8be7fde620, 3),
    ("cascade", Protocol::BiPeriodicCkpt, 42, 0x40e6ad0000000000, 0),
    ("cascade", Protocol::AbftPeriodicCkpt, 1, 0x40e5858000000000, 0),
    ("cascade", Protocol::AbftPeriodicCkpt, 7, 0x40e6fab703a24555, 3),
    ("cascade", Protocol::AbftPeriodicCkpt, 42, 0x40e5858000000000, 0),
    ("diurnal", Protocol::PurePeriodicCkpt, 1, 0x40ed46cc35c29ab7, 7),
    ("diurnal", Protocol::PurePeriodicCkpt, 7, 0x40ee376b35de3cb7, 8),
    ("diurnal", Protocol::PurePeriodicCkpt, 42, 0x40edba5ba8b94b13, 7),
    ("diurnal", Protocol::BiPeriodicCkpt, 1, 0x40ed3f1e581cc13b, 7),
    ("diurnal", Protocol::BiPeriodicCkpt, 7, 0x40ee556b35de3cb8, 8),
    ("diurnal", Protocol::BiPeriodicCkpt, 42, 0x40edb2adcb137197, 7),
    ("diurnal", Protocol::AbftPeriodicCkpt, 1, 0x40eb6fdb21210bc2, 7),
    ("diurnal", Protocol::AbftPeriodicCkpt, 7, 0x40ed2deb35de3cb8, 8),
    ("diurnal", Protocol::AbftPeriodicCkpt, 42, 0x40ea115924355744, 7),
    ("wearout", Protocol::PurePeriodicCkpt, 1, 0x40e73f2840896999, 1),
    ("wearout", Protocol::PurePeriodicCkpt, 7, 0x40e9c23f1f1c0373, 4),
    ("wearout", Protocol::PurePeriodicCkpt, 42, 0x40e757ac07e09b6e, 1),
    ("wearout", Protocol::BiPeriodicCkpt, 1, 0x40e793cdf0b006f0, 1),
    ("wearout", Protocol::BiPeriodicCkpt, 7, 0x40e7b6cb136fa75a, 3),
    ("wearout", Protocol::BiPeriodicCkpt, 42, 0x40e7ac51b80738c5, 1),
    ("wearout", Protocol::AbftPeriodicCkpt, 1, 0x40e5858000000000, 0),
    ("wearout", Protocol::AbftPeriodicCkpt, 7, 0x40e643c613dc4a6b, 3),
    ("wearout", Protocol::AbftPeriodicCkpt, 42, 0x40e5858000000000, 0),
    ("trace", Protocol::PurePeriodicCkpt, 1, 0x40ed456f6851c6ad, 12),
    ("trace", Protocol::PurePeriodicCkpt, 7, 0x40ef538a4b1bd7ed, 14),
    ("trace", Protocol::PurePeriodicCkpt, 42, 0x40e9dc98f288d247, 8),
    ("trace", Protocol::BiPeriodicCkpt, 1, 0x40edbaef3e8b7a00, 12),
    ("trace", Protocol::BiPeriodicCkpt, 7, 0x40efc90a21558b40, 14),
    ("trace", Protocol::BiPeriodicCkpt, 42, 0x40ec74e7a5b91e26, 12),
    ("trace", Protocol::AbftPeriodicCkpt, 1, 0x40ea534665481846, 12),
    ("trace", Protocol::AbftPeriodicCkpt, 7, 0x40eb358fff2acdb6, 11),
    ("trace", Protocol::AbftPeriodicCkpt, 42, 0x40e8d318f288d248, 8),
];

fn pinned_profile_outcome(source: &str, protocol: Protocol, seed: u64) -> (u64, usize) {
    PINNED_PROFILE
        .iter()
        .find(|&&(s, p, sd, _, _)| s == source && p == protocol && sd == seed)
        .map(|&(_, _, _, bits, failures)| (bits, failures))
        .unwrap_or_else(|| panic!("no pin for {source}/{protocol:?}/seed {seed}"))
}

/// Fails with the full table of actual rows, so a mismatch shows every
/// diverging outcome at once.
fn assert_rows(label: &str, actual: &[String], pinned: &[String]) {
    if actual != pinned {
        panic!(
            "{label}: outcomes differ from the pins; actual rows:\n{}",
            actual.join("\n")
        );
    }
}

#[test]
fn multi_epoch_profiles_reproduce_their_pins_under_every_failure_source() {
    let profile = pin_profile();
    let mut actual = Vec::new();
    for (name, engine) in pin_engines() {
        let plan = engine.plan();
        // The profile exercises every step kind under every plan.
        assert!(profile.epochs()[0].general >= plan.full_period, "{name}");
        assert!(profile.epochs()[1].general < plan.full_period, "{name}");
        let mut failures = 0;
        for protocol in Protocol::all() {
            let batch = simulate_profile_batch(&engine, protocol, &profile, &PIN_SEEDS);
            for (lane, &seed) in PIN_SEEDS.iter().enumerate() {
                let out = engine.simulate_profile(protocol, &profile, seed);
                assert_eq!(batch[lane], out, "{name}/{protocol:?}/seed {seed}: batch lane");
                failures += out.failures;
                actual.push(format!(
                    "    (\"{name}\", Protocol::{protocol:?}, {seed}, {:#018x}, {}),",
                    out.final_time.to_bits(),
                    out.failures
                ));
            }
        }
        assert!(failures > 0, "{name}: the pinned runs saw no failure");
    }
    let pinned: Vec<String> = PINNED_PROFILE
        .iter()
        .map(|&(name, protocol, seed, bits, failures)| {
            format!("    (\"{name}\", Protocol::{protocol:?}, {seed}, {bits:#018x}, {failures}),")
        })
        .collect();
    assert_rows("simulate_profile", &actual, &pinned);
}

#[test]
fn resumable_runs_reproduce_the_profile_pins() {
    let profile = pin_profile();
    for (name, engine) in pin_engines() {
        let mut buffer = engine.trace_buffer(0);
        for protocol in Protocol::all() {
            let sim = ResumableSim::new(&engine, protocol, &profile);
            for seed in PIN_SEEDS {
                buffer.reset(seed);
                let out = sim.run(&mut buffer);
                let (bits, failures) = pinned_profile_outcome(name, protocol, seed);
                assert_eq!(
                    (out.final_time.to_bits(), out.failures),
                    (bits, failures),
                    "{name}/{protocol:?}/seed {seed}"
                );
                assert_eq!(out.base_time, profile.total_duration());
            }
        }
    }
}

fn welford_row(w: &Welford) -> String {
    format!(
        "{}, {:#018x}, {:#018x}",
        w.count(),
        w.mean().to_bits(),
        w.variance().to_bits()
    )
}

fn accumulator_row(acc: &OutcomeAccumulator) -> String {
    format!(
        "{}; {}; {}",
        welford_row(&acc.waste),
        welford_row(&acc.final_time),
        welford_row(&acc.failures)
    )
}

fn paired_rows(label: &str, acc: &PairedAccumulator) -> Vec<String> {
    let mut rows = Vec::new();
    for (i, protocol) in acc.protocols.iter().enumerate() {
        rows.push(format!(
            "    \"{label} {protocol:?} outcomes {}\",",
            accumulator_row(&acc.outcomes[i])
        ));
        rows.push(format!(
            "    \"{label} {protocol:?} delta {}\",",
            welford_row(&acc.deltas[i])
        ));
    }
    rows
}

/// Per-protocol accumulator fields (`count, mean bits, variance bits` of
/// waste; final time; failures) and per-protocol paired deltas of
/// `accumulate_paired_engine` over `pin_profile()`, seed 2024.
const PINNED_PAIRED: &[&str] = &[
    "exponential antithetic=false PurePeriodicCkpt outcomes 48, 0x3fda61af8b8b4708, 0x3f734ea5a671a547; 48, 0x40ee4bc9fa29de34, 0x41879cb7e2b2b05f; 48, 0x4021c00000000002, 0x402c90572620ae4b",
    "exponential antithetic=false PurePeriodicCkpt delta 0, 0x0000000000000000, 0x0000000000000000",
    "exponential antithetic=false BiPeriodicCkpt outcomes 48, 0x3fda0b307f08c532, 0x3f705c869aed6e53; 48, 0x40edf6e677484a69, 0x4183aea34a0e4a7d; 48, 0x4021955555555556, 0x402b50cb58f6ec08",
    "exponential antithetic=false BiPeriodicCkpt delta 48, 0xbf759fc320a074d2, 0x3f3a610bab7b53b4",
    "exponential antithetic=false AbftPeriodicCkpt outcomes 48, 0x3fd539ac1b0d1754, 0x3f7066054e466f98; 48, 0x40ea895c86f93235, 0x417a3e0cce649f52; 48, 0x401faaaaaaaaaaac, 0x4027d0cb58f6ec08",
    "exponential antithetic=false AbftPeriodicCkpt delta 48, 0xbfb4a00dc1f8beba, 0x3f57751f8176260e",
    "exponential antithetic=true PurePeriodicCkpt outcomes 48, 0x3fda7693aaebceae, 0x3f5de92fded717d6; 48, 0x40ee666b6fb180a0, 0x417498fce042b2ec; 48, 0x4021baaaaaaaaaab, 0x400c3bb01d0cb592",
    "exponential antithetic=true PurePeriodicCkpt delta 0, 0x0000000000000000, 0x0000000000000000",
    "exponential antithetic=true BiPeriodicCkpt outcomes 48, 0x3fda0dc11abfc936, 0x3f5956abf9acf5e3; 48, 0x40ee0271db36ac9d, 0x4170332dbcd73443; 48, 0x40216ffffffffffe, 0x400a1ea3677d46cc",
    "exponential antithetic=true BiPeriodicCkpt delta 48, 0xbf7a34a40b015da7, 0x3f2955cc075e27d9",
    "exponential antithetic=true AbftPeriodicCkpt outcomes 48, 0x3fd56f759f33760b, 0x3f54f32ae3853672; 48, 0x40eab24e0239948d, 0x4161fbac7e886b1f; 48, 0x401f6aaaaaaaaaa9, 0x4004979a538489fd",
    "exponential antithetic=true AbftPeriodicCkpt delta 48, 0xbfb41c782ee16280, 0x3f4452b3066c993b",
    "weibull0.7 antithetic=false PurePeriodicCkpt outcomes 48, 0x3fda128ff9c27315, 0x3f784298d5bdcc3f; 48, 0x40ee2d0304624037, 0x4190a4172531af36; 48, 0x40246aaaaaaaaaac, 0x403bbe2f34a70916",
    "weibull0.7 antithetic=false PurePeriodicCkpt delta 0, 0x0000000000000000, 0x0000000000000000",
    "weibull0.7 antithetic=false BiPeriodicCkpt outcomes 48, 0x3fda1aa422f35f41, 0x3f74697e8cc75e26; 48, 0x40ee1baa1cb7b9e5, 0x418a9646cf2f75e9; 48, 0x4024200000000000, 0x4039c310572620ae",
    "weibull0.7 antithetic=false BiPeriodicCkpt delta 48, 0x3f40285261d857ae, 0x3f45a39b45f0318b",
    "weibull0.7 antithetic=false AbftPeriodicCkpt outcomes 48, 0x3fd5a3d76e30ae50, 0x3f7344658e372f0f; 48, 0x40ead856899abcd2, 0x418045f5b7821e6d; 48, 0x40217fffffffffff, 0x40347d46cefa8d9e",
    "weibull0.7 antithetic=false AbftPeriodicCkpt delta 48, 0xbfb1bae22e47130c, 0x3f6207f7ff939dc9",
    "weibull0.7 antithetic=true PurePeriodicCkpt outcomes 48, 0x3fd99778fa34c417, 0x3f64b016c886a8de; 48, 0x40edc3ddcefef78b, 0x417a23ca0764292d; 48, 0x40236ffffffffffe, 0x401e09df51b3be9f",
    "weibull0.7 antithetic=true PurePeriodicCkpt delta 0, 0x0000000000000000, 0x0000000000000000",
    "weibull0.7 antithetic=true BiPeriodicCkpt outcomes 48, 0x3fd9e216ce661494, 0x3f61a5b19957c3fe; 48, 0x40edeea7d980bbb8, 0x4175eeae026faecc; 48, 0x4023700000000000, 0x401c76cefa8d9df5",
    "weibull0.7 antithetic=true BiPeriodicCkpt delta 48, 0x3f72a7750c541f54, 0x3f2e9563b0f67c08",
    "weibull0.7 antithetic=true AbftPeriodicCkpt outcomes 48, 0x3fd57bce1a0c7a38, 0x3f5bd907a6e9879b; 48, 0x40eacb85e88decdc, 0x4168d86011cb0ecc; 48, 0x40212fffffffffff, 0x4014ebea3677d46d",
    "weibull0.7 antithetic=true AbftPeriodicCkpt delta 48, 0xbfb06eab80a1277c, 0x3f4afe8b5eb45367",
];

#[test]
fn paired_accumulators_reproduce_their_pins_plain_and_antithetic() {
    let profile = pin_profile();
    let engines = pin_engines();
    let mut actual = Vec::new();
    for (name, engine) in engines.iter().filter(|(n, _)| ["exponential", "weibull0.7"].contains(n)) {
        for antithetic in [false, true] {
            let plan = ReplicationPlan::new(ReplicationBudget::Fixed(48)).antithetic(antithetic);
            let label = format!("{name} antithetic={antithetic}");
            let acc = accumulate_paired_engine(engine, &Protocol::all(), &profile, plan, 2024);
            actual.extend(paired_rows(&label, &acc));
            for lanes in [1, 20, 64] {
                let batch =
                    accumulate_paired_engine_batch(engine, &Protocol::all(), &profile, plan, 2024, lanes);
                assert_eq!(batch, acc, "{label} lanes {lanes}");
            }
        }
    }
    let pinned: Vec<String> = PINNED_PAIRED.iter().map(|row| format!("    \"{row}\",")).collect();
    assert_rows("accumulate_paired_engine", &actual, &pinned);
}
