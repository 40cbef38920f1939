//! Criterion bench for the simulator's Monte-Carlo throughput: sequential
//! single executions versus the batch replication driver on every core (the
//! knob that makes the thousand-replication sweeps of the paper practical).

use criterion::{criterion_group, criterion_main, Criterion};
use ft_bench::figure7_base;
use ft_composite::scenario::ApplicationProfile;
use ft_platform::units::minutes;
use ft_sim::{
    accumulate_profile_program_batch, simulate, BatchProgram, Engine, OutcomeAccumulator, Protocol,
    ReplicationBudget, DEFAULT_BATCH_LANES,
};
use std::hint::black_box;

fn bench_sequential_vs_parallel(c: &mut Criterion) {
    let params = figure7_base().with_mtbf(minutes(90.0)).unwrap();
    let reps = 200usize;

    let mut group = c.benchmark_group("simulator/200_replications");
    group.sample_size(10);
    group.bench_function("sequential", |b| {
        b.iter(|| {
            // Same Welford aggregation as the parallel path, so the two
            // arms time identical statistical work.
            let mut acc = OutcomeAccumulator::new();
            for seed in 0..reps as u64 {
                acc.push(&simulate(Protocol::AbftPeriodicCkpt, &params, seed));
            }
            black_box(acc.waste.mean())
        })
    });
    group.bench_function("batch_all_threads", |b| {
        let engine = Engine::new(&params);
        let profile = ApplicationProfile::from_params(&params);
        let program = BatchProgram::compile(Protocol::AbftPeriodicCkpt, &profile, engine.plan());
        let budget = ReplicationBudget::Fixed(reps);
        b.iter(|| {
            // `threads 0`: the driver splits the replications across every
            // available core.
            let acc = accumulate_profile_program_batch(
                &engine,
                &program,
                budget,
                42,
                DEFAULT_BATCH_LANES,
                0,
            );
            black_box(acc.waste.mean())
        })
    });
    group.finish();
}

fn bench_failure_density(c: &mut Criterion) {
    // Simulation cost grows with the number of failures handled; compare a
    // calm and a failure-heavy configuration.
    let mut group = c.benchmark_group("simulator/failure_density");
    group.sample_size(20);
    for (name, mtbf) in [("mtbf_4h", 240.0), ("mtbf_1h", 60.0)] {
        let params = figure7_base().with_mtbf(minutes(mtbf)).unwrap();
        group.bench_function(name, |b| {
            let mut seed = 0u64;
            b.iter(|| {
                seed = seed.wrapping_add(1);
                black_box(simulate(Protocol::PurePeriodicCkpt, &params, seed))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sequential_vs_parallel, bench_failure_density);
criterion_main!(benches);
