//! Tier-2 determinism contract: a whole-grid parallel sweep ([`SweepSpec::run`],
//! rayon-scheduled) must be *bit-identical* to the serial execution
//! ([`SweepSpec::run_serial`], the `--serial` CLI path) on a pinned-seed grid —
//! for every budget shape, variance-reduction mode and engine the sweep
//! subsystem dispatches to.
//!
//! The in-module unit tests pin the plain fixed-budget and paired cases; this
//! suite extends the contract across the dimensions that each derive their
//! replication counts or trace reuse at run time (adaptive stopping,
//! paired-delta stopping, antithetic pairs, Weibull clocks, the batched SoA
//! engine at several lane widths, scenario grids and the model-gap arm), where
//! a scheduling-order dependence would actually have room to hide.

use ft_bench::{figure7_base, Axis, Parameter, SweepSpec};
use ft_composite::scaling::WeakScalingScenario;
use ft_platform::failure::FailureSpec;
use ft_platform::units::minutes;
use ft_sim::ReplicationBudget;

/// Asserts `run()` == `run_serial()` field-for-field (all sim summaries are
/// `f64`s compared exactly, so this is bit-identity of every mean, CI and
/// replication count), plus run-to-run reproducibility of the parallel path.
fn assert_parallel_matches_serial(label: &str, spec: &SweepSpec) {
    let par = spec.run().unwrap();
    let ser = spec.run_serial().unwrap();
    assert_eq!(par.results, ser.results, "{label}: parallel != serial");
    let again = spec.run().unwrap();
    assert_eq!(par.results, again.results, "{label}: parallel not reproducible");
}

fn small_fig7_grid() -> SweepSpec {
    SweepSpec::new("determinism grid", figure7_base())
        .axis(Axis::values(Parameter::Mtbf, vec![minutes(90.0), minutes(240.0)]))
        .axis(Axis::values(Parameter::Alpha, vec![0.2, 0.8]))
        .seed(0xD5EE)
}

#[test]
fn adaptive_budgets_are_schedule_independent() {
    // Adaptive stopping decides each task's replication count from its own
    // running CI — the count must come out identical whichever worker ran it.
    let spec = small_fig7_grid().budget(ReplicationBudget::Adaptive {
        rel_precision: 0.10,
        min: 20,
        max: 200,
    });
    assert_parallel_matches_serial("adaptive", &spec);
}

#[test]
fn paired_delta_budgets_are_schedule_independent() {
    let spec = small_fig7_grid()
        .paired(true)
        .budget(ReplicationBudget::AdaptiveDelta {
            rel_precision: 0.10,
            min: 20,
            max: 200,
        });
    assert_parallel_matches_serial("paired-delta", &spec);
}

#[test]
fn antithetic_sweeps_are_schedule_independent() {
    let spec = small_fig7_grid().replications(30).antithetic(true);
    assert_parallel_matches_serial("antithetic", &spec);
}

#[test]
fn weibull_clocks_are_schedule_independent() {
    let mut spec = small_fig7_grid().replications(30);
    spec.failure = FailureSpec::Weibull { shape: 0.7 };
    assert_parallel_matches_serial("weibull", &spec);
}

#[test]
fn batch_lane_widths_are_schedule_independent_and_width_invariant() {
    // The batched SoA engine must neither perturb parallel-vs-serial
    // determinism nor the results themselves: every lane width reproduces
    // the one-lane sweep bit-for-bit.
    let one_lane = small_fig7_grid().replications(45).batch_lanes(1);
    let baseline = one_lane.run_serial().unwrap();
    for lanes in [1usize, 7, 64, 256] {
        let spec = small_fig7_grid().replications(45).batch_lanes(lanes);
        assert_parallel_matches_serial(&format!("batch lanes {lanes}"), &spec);
        assert_eq!(
            spec.run().unwrap().results,
            baseline.results,
            "batch lanes {lanes} drifted from the one-lane sweep"
        );
    }
}

#[test]
fn point_threads_are_schedule_independent_and_thread_count_invariant() {
    // The intra-point parallel block driver must compose with grid-level
    // rayon parallelism without perturbing a bit: at every `point_threads`
    // the sweep reproduces the fully serial (point_threads = 1) results,
    // whichever of the two parallelism layers actually ran the work.
    for budget in [
        ReplicationBudget::Fixed(45),
        ReplicationBudget::Adaptive {
            rel_precision: 0.10,
            min: 20,
            max: 200,
        },
    ] {
        let serial = small_fig7_grid()
            .budget(budget)
            .batch_lanes(64)
            .point_threads(1);
        let baseline = serial.run_serial().unwrap();
        for threads in [0usize, 2, 4] {
            let spec = small_fig7_grid()
                .budget(budget)
                .batch_lanes(64)
                .point_threads(threads);
            assert_parallel_matches_serial(&format!("{budget:?} point threads {threads}"), &spec);
            assert_eq!(
                spec.run().unwrap().results,
                baseline.results,
                "{budget:?} point threads {threads} drifted from the serial block driver"
            );
        }
    }
}

#[test]
fn paired_point_threads_are_thread_count_invariant() {
    // Same contract for the paired (common-random-numbers) arm, whose
    // stopping rule reads per-trace deltas accumulated in replication order.
    let serial = small_fig7_grid()
        .paired(true)
        .budget(ReplicationBudget::AdaptiveDelta {
            rel_precision: 0.10,
            min: 20,
            max: 200,
        })
        .batch_lanes(32)
        .point_threads(1);
    let baseline = serial.run_serial().unwrap();
    for threads in [2usize, 3] {
        let spec = small_fig7_grid()
            .paired(true)
            .budget(ReplicationBudget::AdaptiveDelta {
                rel_precision: 0.10,
                min: 20,
                max: 200,
            })
            .batch_lanes(32)
            .point_threads(threads);
        assert_parallel_matches_serial(&format!("paired point threads {threads}"), &spec);
        assert_eq!(
            spec.run().unwrap().results,
            baseline.results,
            "paired point threads {threads} drifted from the serial block driver"
        );
    }
}

#[test]
fn scenario_grids_with_model_gap_are_schedule_independent() {
    // Scenario (weak-scaling) grids derive per-point parameters, and the
    // model-gap arm attaches model wastes alongside the simulation.
    let spec = SweepSpec::scaling("fig9 determinism", WeakScalingScenario::figure9())
        .axis(Axis::decades(Parameter::Nodes, 3, 5, 2))
        .replications(25)
        .seed(0xD5EE)
        .model_gap(true)
        .with_simulation_arm();
    assert_parallel_matches_serial("fig9 model-gap", &spec);
}
