//! Criterion bench for the Figure-7 machinery: how fast one model evaluation
//! and one simulated execution are, and how long a small model-versus-
//! simulation grid takes.  (The full figure is regenerated by the `fig7`
//! binary.)

use criterion::{criterion_group, criterion_main, Criterion};
use ft_bench::{figure7_base, Axis, Parameter, SweepSpec};
use ft_platform::units::minutes;
use ft_sim::validate::model_waste;
use ft_sim::{simulate, Protocol};
use std::hint::black_box;

fn bench_model_evaluation(c: &mut Criterion) {
    let base = figure7_base();
    let mut group = c.benchmark_group("fig7/model");
    for protocol in Protocol::all() {
        group.bench_function(protocol.name(), |b| {
            b.iter(|| black_box(model_waste(protocol, black_box(&base))))
        });
    }
    group.finish();
}

fn bench_single_simulation(c: &mut Criterion) {
    let params = figure7_base().with_mtbf(minutes(120.0)).unwrap();
    let mut group = c.benchmark_group("fig7/simulate_one_epoch");
    group.sample_size(20);
    for protocol in Protocol::all() {
        group.bench_function(protocol.name(), |b| {
            let mut seed = 0u64;
            b.iter(|| {
                seed = seed.wrapping_add(1);
                black_box(simulate(protocol, black_box(&params), seed))
            })
        });
    }
    group.finish();
}

fn bench_small_grid(c: &mut Criterion) {
    let spec = SweepSpec::new("fig7 validation grid", figure7_base())
        .axis(Axis::values(
            Parameter::Mtbf,
            vec![minutes(60.0), minutes(150.0), minutes(240.0)],
        ))
        .axis(Axis::values(Parameter::Alpha, vec![0.0, 0.5, 1.0]))
        .protocols(vec![Protocol::AbftPeriodicCkpt])
        .replications(20)
        .seed(7)
        .model_gap(true);
    let mut group = c.benchmark_group("fig7/validation_grid_3x3x20reps");
    group.sample_size(10);
    group.bench_function("ABFT&PeriodicCkpt", |b| {
        b.iter(|| black_box(spec.run_serial().expect("a valid grid")))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_model_evaluation,
    bench_single_simulation,
    bench_small_grid
);
criterion_main!(benches);
