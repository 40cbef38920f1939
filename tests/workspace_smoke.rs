//! Workspace-wiring smoke test: touches every module re-exported by the
//! umbrella crate so that a broken manifest, feature gate or re-export
//! fails this suite immediately rather than surfacing deep inside an
//! integration test.

use abft_ckpt_composite::{abft, bench, ckpt, composite, platform, sim};

#[test]
fn every_reexported_module_is_reachable() {
    // platform
    let failures =
        platform::failure::ExponentialFailures::new(platform::units::hours(2.0)).unwrap();
    let mut stream = platform::failure::FailureStream::new(failures, 42);
    assert!(platform::failure::FailureSource::next_failure(&mut stream) > 0.0);
    let grid = platform::grid::ProcessGrid::new(2, 2).unwrap();
    assert_eq!(grid.size(), 4);
    let _ = platform::units::format_duration(platform::units::minutes(90.0));

    // ckpt
    let set = ckpt::state::ProcessSet::uniform(2, 64, 64);
    let image = ckpt::coordinated::CoordinatedCheckpoint::capture(&set, 0.0);
    assert_eq!(image.ranks(), 2);

    // abft
    let a = abft::matrix::Matrix::random_diagonally_dominant(8, 7);
    assert_eq!(a.rows(), 8);

    // composite
    let params = composite::params::ModelParams::paper_figure7(
        0.5,
        platform::units::minutes(120.0),
    )
    .unwrap();
    let waste = composite::model::pure::waste(&params).unwrap();
    assert!(waste.value() > 0.0 && waste.value() < 1.0);

    // sim
    let outcome = sim::simulate(sim::Protocol::PurePeriodicCkpt, &params, 42);
    assert!(outcome.final_time >= params.epoch_duration);
    let engine = sim::Engine::new(&params);
    assert_eq!(engine.simulate(sim::Protocol::PurePeriodicCkpt, 42), outcome);

    // bench: a one-point declarative sweep through the umbrella re-export
    let results = bench::SweepSpec::new("smoke", params)
        .axis(bench::Axis::values(bench::Parameter::Alpha, vec![0.5]))
        .protocols(vec![sim::Protocol::PurePeriodicCkpt])
        .run()
        .unwrap();
    assert_eq!(results.results.len(), 1);
    assert!(results.results[0].model_waste > 0.0);

    // umbrella constant
    assert!(!abft_ckpt_composite::VERSION.is_empty());
}
