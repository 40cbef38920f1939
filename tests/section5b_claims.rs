//! The qualitative claims of §V-B of the paper, checked against both the
//! model and the simulator:
//!
//! * α → 0: the composite protocol behaves exactly like PurePeriodicCkpt;
//! * α → 1 and rare failures: the composite waste tends to the ABFT slowdown
//!   (φ = 1.03, i.e. ≈ 3 %);
//! * α = 0.5: the composite protocol already beats both checkpoint-only
//!   protocols;
//! * BiPeriodicCkpt improves on PurePeriodicCkpt as α grows (cheaper
//!   incremental checkpoints), but much less than the composite protocol.

use abft_ckpt_composite::composite::model;
use abft_ckpt_composite::composite::params::ModelParams;
use abft_ckpt_composite::sim::{Protocol, ReplicationBudget};
use ft_platform::units::{minutes, weeks};

mod common;

/// Mean simulated waste of `replications` executions of `protocol`.
fn mean_waste(protocol: Protocol, params: &ModelParams, replications: usize, seed: u64) -> f64 {
    common::replicate_point(protocol, params, ReplicationBudget::Fixed(replications), seed)
        .waste
        .mean()
}

#[test]
fn alpha_zero_composite_equals_pure_in_model_and_simulation() {
    let params = ModelParams::paper_figure7(0.0, minutes(120.0)).unwrap();
    let model_pure = model::pure::waste(&params).unwrap().value();
    let model_comp = model::composite::waste(&params).unwrap().value();
    assert!((model_pure - model_comp).abs() < 1e-9);

    let sim_pure = mean_waste(Protocol::PurePeriodicCkpt, &params, 300, 5);
    let sim_comp = mean_waste(Protocol::AbftPeriodicCkpt, &params, 300, 5);
    assert!(
        (sim_pure - sim_comp).abs() < 0.02,
        "simulated pure {sim_pure} vs composite {sim_comp}"
    );
}

#[test]
fn alpha_one_composite_waste_tends_to_the_abft_slowdown() {
    // Rare failures so that only the phi overhead remains.
    let params = ModelParams::builder()
        .epoch_duration(weeks(1.0))
        .alpha(1.0)
        .checkpoint_cost(minutes(10.0))
        .recovery_cost(minutes(10.0))
        .downtime(minutes(1.0))
        .rho(0.8)
        .phi(1.03)
        .abft_reconstruction(2.0)
        .platform_mtbf(weeks(100.0))
        .build()
        .unwrap();
    let phi_overhead = 1.0 - 1.0 / 1.03; // ~2.9 %
    let model = model::composite::waste(&params).unwrap().value();
    assert!((model - phi_overhead).abs() < 0.005, "model {model}");
    let sim = mean_waste(Protocol::AbftPeriodicCkpt, &params, 100, 11);
    assert!((sim - phi_overhead).abs() < 0.01, "sim {sim}");
}

#[test]
fn at_half_library_time_the_composite_protocol_beats_both_alternatives() {
    for mtbf_minutes in [60.0, 120.0, 240.0] {
        let params = ModelParams::paper_figure7(0.5, minutes(mtbf_minutes)).unwrap();
        let pure = mean_waste(Protocol::PurePeriodicCkpt, &params, 250, 1);
        let bi = mean_waste(Protocol::BiPeriodicCkpt, &params, 250, 1);
        let comp = mean_waste(Protocol::AbftPeriodicCkpt, &params, 250, 1);
        assert!(
            comp < pure && comp < bi,
            "MTBF {mtbf_minutes} min: composite {comp:.4} vs pure {pure:.4}, bi {bi:.4}"
        );
    }
}

#[test]
fn bi_periodic_gains_over_pure_grow_with_alpha_but_stay_modest() {
    let mtbf = minutes(90.0);
    let mut previous_gain = -1.0;
    for alpha in [0.2, 0.5, 0.8] {
        let params = ModelParams::paper_figure7(alpha, mtbf).unwrap();
        let pure = model::pure::waste(&params).unwrap().value();
        let bi = model::bi::waste(&params).unwrap().value();
        let comp = model::composite::waste(&params).unwrap().value();
        let gain_bi = pure - bi;
        let gain_comp = pure - comp;
        assert!(gain_bi >= previous_gain - 1e-12);
        assert!(gain_bi >= 0.0);
        // The composite protocol's gain dwarfs the incremental-checkpoint gain.
        assert!(gain_comp > gain_bi, "alpha {alpha}: {gain_comp} !> {gain_bi}");
        previous_gain = gain_bi;
    }
}
