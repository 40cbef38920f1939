//! Cross-crate validation of the analytical model against the discrete-event
//! simulator on (a coarse version of) the Figure-7 grid — the reproduction of
//! the paper's §V-A validation claim: "an excellent correspondence between
//! predicted and actual values", with the gap largest at the smallest MTBF
//! and quickly dropping below 5 %.

use abft_ckpt_composite::composite::params::ModelParams;
use abft_ckpt_composite::sim::validate::model_waste;
use abft_ckpt_composite::sim::{Protocol, ReplicationBudget};
use ft_platform::units::minutes;

mod common;

fn base() -> ModelParams {
    ModelParams::paper_figure7(0.5, minutes(120.0)).expect("paper parameters")
}

/// One `(MTBF, α)` cell: the closed-form waste next to the simulated one.
struct Cell {
    model_waste: f64,
    simulated_waste: f64,
    mean_failures: f64,
}

impl Cell {
    /// `WASTE_simul − WASTE_model`, the quantity plotted by Figures 7b/7d/7f.
    fn difference(&self) -> f64 {
        self.simulated_waste - self.model_waste
    }
}

/// Evaluates one cell: the model prediction plus `replications` simulated
/// executions of the point.
fn cell(
    protocol: Protocol,
    base: &ModelParams,
    mtbf: f64,
    alpha: f64,
    replications: usize,
    seed: u64,
) -> Cell {
    let params = base
        .with_alpha(alpha)
        .and_then(|p| p.with_mtbf(mtbf))
        .unwrap_or(*base);
    let budget = ReplicationBudget::Fixed(replications);
    let acc = common::replicate_point(protocol, &params, budget, seed);
    Cell {
        model_waste: model_waste(protocol, &params),
        simulated_waste: acc.waste.mean(),
        mean_failures: acc.failures.mean(),
    }
}

#[test]
fn every_protocol_agrees_with_its_model_on_a_coarse_figure7_grid() {
    let mtbfs = [minutes(90.0), minutes(150.0), minutes(240.0)];
    let alphas = [0.0, 0.5, 1.0];
    for protocol in Protocol::all() {
        for (i, &mtbf) in mtbfs.iter().enumerate() {
            for (j, &alpha) in alphas.iter().enumerate() {
                // Every cell of the panel on its own seed.
                let seed = 2024u64
                    .wrapping_mul(0x9E3779B97F4A7C15)
                    .wrapping_add((i * alphas.len() + j) as u64);
                let cell = cell(protocol, &base(), mtbf, alpha, 150, seed);
                assert!(
                    cell.difference().abs() < 0.06,
                    "{protocol:?}: MTBF {:.0} min, alpha {alpha:.1}: model {:.4} vs sim {:.4}",
                    mtbf / 60.0,
                    cell.model_waste,
                    cell.simulated_waste
                );
            }
        }
    }
}

#[test]
fn the_gap_is_worst_at_the_smallest_mtbf_and_stays_within_the_papers_envelope() {
    // Paper: worst-case underestimation ~12 % at MTBF 60 min, < 5 % elsewhere.
    for protocol in Protocol::all() {
        let harsh = cell(protocol, &base(), minutes(60.0), 0.5, 300, 7);
        let calm = cell(protocol, &base(), minutes(240.0), 0.5, 300, 7);
        assert!(
            harsh.difference().abs() <= 0.13,
            "{protocol:?}: harsh gap {:.4}",
            harsh.difference()
        );
        assert!(
            calm.difference().abs() <= 0.05,
            "{protocol:?}: calm gap {:.4}",
            calm.difference()
        );
        assert!(calm.difference().abs() <= harsh.difference().abs() + 0.02);
    }
}

#[test]
fn model_and_simulation_agree_within_the_papers_tolerance() {
    // §V-A: the difference is at most ~12% at the smallest MTBF and below
    // 5% as soon as the MTBF is reasonable.
    for protocol in Protocol::all() {
        for &(mtbf_min, tolerance) in &[(60.0, 0.13), (240.0, 0.06)] {
            let cell = cell(protocol, &base(), minutes(mtbf_min), 0.6, 200, 17);
            assert!(
                cell.difference().abs() <= tolerance,
                "{protocol:?} at MTBF {mtbf_min} min: model {} vs sim {} (diff {})",
                cell.model_waste,
                cell.simulated_waste,
                cell.difference()
            );
        }
    }
}

#[test]
fn worst_case_gap_at_small_mtbf_stays_within_the_papers_envelope() {
    // §V-A reports a worst-case model/simulation gap of ~12% at the
    // smallest MTBF (the first-order formula is least accurate there).
    let harsh = cell(Protocol::PurePeriodicCkpt, &base(), minutes(60.0), 0.5, 300, 23);
    assert!(
        harsh.difference().abs() <= 0.13,
        "model/simulation gap too large at small MTBF: {}",
        harsh.difference()
    );
    // The gap shrinks when failures become rarer.
    let calm = cell(Protocol::PurePeriodicCkpt, &base(), minutes(240.0), 0.5, 300, 23);
    assert!(calm.difference().abs() < harsh.difference().abs());
}

#[test]
fn simulated_failure_counts_track_the_expected_value() {
    // E[#failures] = T_final / mu; the simulation must agree within a few
    // percent once averaged.
    let params = base();
    let cell = cell(Protocol::PurePeriodicCkpt, &params, minutes(120.0), 0.5, 400, 3);
    let model_final_time = abft_ckpt_composite::composite::model::pure::final_time(&params).unwrap();
    let expected = model_final_time / params.platform_mtbf;
    assert!(
        (cell.mean_failures - expected).abs() / expected < 0.15,
        "simulated {:.1} failures vs {expected:.1} expected",
        cell.mean_failures
    );
}
