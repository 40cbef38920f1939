//! Criterion bench for the sweep subsystem: whole-grid parallel execution
//! versus the serial grid baseline on a reduced Figure-7 grid, reported as
//! tasks per second, plus the adaptive-replication comparison recorded in
//! `BENCH_adaptive.json`: a fixed-1000-replication sweep versus an adaptive
//! sweep targeting the same (worst-case) relative CI95, on one core.
//!
//! Run with `cargo bench -p ft-bench --bench full_grid_sweep`; the final
//! lines print JSON summaries suitable for `BENCH_sweep.json` and
//! `BENCH_adaptive.json`.  Set `FT_BENCH_SMOKE=1` (as CI does) to shrink
//! the grids to a seconds-long smoke run.
//!
//! (The grid-parallelism acceptance criterion of PR 2 still applies:
//! speedup > 1.5x on >= 4 cores; on a single-core host the two paths
//! collapse to the same execution.)

use criterion::{criterion_group, criterion_main, Criterion};
use ft_bench::{figure7_base, host_json_fields, Axis, Parameter, SweepSpec};
use ft_platform::units::minutes;
use ft_sim::ReplicationBudget;
use std::hint::black_box;
use std::time::Instant;

/// Whether CI asked for the tiny smoke grids.
fn smoke() -> bool {
    std::env::var_os("FT_BENCH_SMOKE").is_some_and(|v| v != "0")
}

/// A reduced Figure-7 grid: 4 MTBF x 3 alpha points, 3 protocols, 25
/// replications per task = 36 tasks, 900 simulated executions.
fn reduced_fig7() -> SweepSpec {
    SweepSpec::new("reduced fig7 grid", figure7_base())
        .axis(Axis::linspace(Parameter::Mtbf, minutes(60.0), minutes(240.0), 4))
        .axis(Axis::linspace(Parameter::Alpha, 0.0, 1.0, 3))
        .replications(25)
}

fn bench_grid_execution(c: &mut Criterion) {
    let spec = reduced_fig7();
    let mut group = c.benchmark_group("sweep/fig7_4x3x25reps");
    // Real criterion rejects sample sizes below 10, so the smoke mode keeps
    // the floor and relies on the tiny grid for speed.
    group.sample_size(10);
    group.bench_function("serial_grid", |b| {
        b.iter(|| black_box(spec.run_serial().unwrap()))
    });
    group.bench_function("parallel_grid", |b| b.iter(|| black_box(spec.run().unwrap())));
    group.finish();
}

/// Times one run of each path directly and prints the JSON summary recorded
/// in `BENCH_sweep.json`.
fn report_json(c: &mut Criterion) {
    let spec = reduced_fig7();
    let time = |f: &dyn Fn() -> ft_bench::SweepResults| {
        // Median of five runs.
        let mut secs: Vec<f64> = (0..5)
            .map(|_| {
                let t = Instant::now();
                black_box(f());
                t.elapsed().as_secs_f64()
            })
            .collect();
        secs.sort_by(f64::total_cmp);
        secs[secs.len() / 2]
    };
    let serial = time(&|| spec.run_serial().unwrap());
    let parallel = time(&|| spec.run().unwrap());
    let threads = spec.run().unwrap().threads;
    let tasks = (spec.axes.iter().map(|a| a.values.len()).product::<usize>()
        * spec.protocols.len()) as f64;
    println!(
        "{{\"bench\": \"full_grid_sweep\", \"grid\": \"fig7 4x3, 3 protocols, 25 replications\", \
         \"tasks\": {tasks}, {}, \"threads\": {}, \
         \"serial_seconds\": {serial:.4}, \"parallel_seconds\": {parallel:.4}, \
         \"serial_tasks_per_s\": {:.1}, \"parallel_tasks_per_s\": {:.1}, \
         \"speedup\": {:.2}}}",
        host_json_fields(),
        threads,
        tasks / serial,
        tasks / parallel,
        serial / parallel,
    );
    // Keep criterion's API shape: register a trivial timed closure so the
    // harness owns this function too.
    c.bench_function("sweep/json_report_overhead", |b| b.iter(|| black_box(tasks)));
}

/// The adaptive-replication win (ISSUE 3's acceptance criterion): on the
/// reduced Figure-7 grid, run every task with a fixed 1000 replications,
/// read off the *worst relative* CI95 that budget achieved, then rerun the
/// grid adaptively with that precision as the stopping target.  Every point
/// then meets the fixed run's worst-case precision while easy points stop
/// hundreds of replications earlier; the JSON line (the `BENCH_adaptive.json`
/// payload) reports both wall clocks, the speedup, and the replications
/// actually used per point.
fn report_adaptive_json(c: &mut Criterion) {
    let fixed_reps = if smoke() { 60 } else { 1000 };
    let min_reps = if smoke() { 20 } else { 100 };
    let grid = |spec: SweepSpec| {
        if smoke() {
            spec.axis(Axis::linspace(Parameter::Mtbf, minutes(60.0), minutes(240.0), 2))
                .axis(Axis::values(Parameter::Alpha, vec![0.0, 0.8]))
        } else {
            spec.axis(Axis::linspace(Parameter::Mtbf, minutes(60.0), minutes(240.0), 4))
                .axis(Axis::linspace(Parameter::Alpha, 0.0, 1.0, 3))
        }
    };
    // The serial grid path isolates the replication cost itself (this is a
    // single-core acceptance figure; the parallel path would fold in
    // scheduling noise on multi-core hosts).
    let time = |spec: &SweepSpec| {
        let runs = if smoke() { 1 } else { 3 };
        let mut best = f64::INFINITY;
        let mut results = None;
        for _ in 0..runs {
            let t = Instant::now();
            let r = black_box(spec.run_serial().unwrap());
            best = best.min(t.elapsed().as_secs_f64());
            results = Some(r);
        }
        (best, results.expect("at least one run"))
    };

    let fixed_spec = grid(SweepSpec::new("fixed", figure7_base())).replications(fixed_reps);
    let (fixed_seconds, fixed) = time(&fixed_spec);
    // The loosest relative CI95 the fixed budget produced anywhere on the
    // grid: the precision every point must reach.
    let target = fixed
        .results
        .iter()
        .filter_map(|r| r.sim.map(|s| s.ci95_waste / s.mean_waste.abs().max(1e-12)))
        .fold(0.0f64, f64::max);

    let adaptive_spec = grid(SweepSpec::new("adaptive", figure7_base())).budget(
        ReplicationBudget::Adaptive {
            rel_precision: target,
            min: min_reps,
            max: fixed_reps,
        },
    );
    let (adaptive_seconds, adaptive) = time(&adaptive_spec);

    let reps_used: Vec<usize> = adaptive
        .results
        .iter()
        .filter_map(|r| r.sim.map(|s| s.replications))
        .collect();
    let reps_list = reps_used
        .iter()
        .map(|n| n.to_string())
        .collect::<Vec<_>>()
        .join(",");
    let grid_label = if smoke() {
        "fig7 2x2 smoke grid, 3 protocols"
    } else {
        "fig7 4x3, 3 protocols"
    };
    println!(
        "{{\"bench\": \"adaptive_vs_fixed\", \"grid\": \"{grid_label}\", \
         {}, \
         \"threads\": 1, \"fixed_replications\": {fixed_reps}, \
         \"target_rel_ci95\": {target:.5}, \
         \"fixed_seconds\": {fixed_seconds:.4}, \"adaptive_seconds\": {adaptive_seconds:.4}, \
         \"fixed_total_replications\": {}, \"adaptive_total_replications\": {}, \
         \"adaptive_reps_per_task\": [{reps_list}], \
         \"wall_clock_speedup\": {:.2}}}",
        host_json_fields(),
        fixed.total_replications(),
        adaptive.total_replications(),
        fixed_seconds / adaptive_seconds,
    );
    c.bench_function("sweep/adaptive_report_overhead", |b| {
        b.iter(|| black_box(reps_used.len()))
    });
}

/// Model−simulation gap across the failure-shape variants, the
/// `BENCH_model_gap.json` payload: for each Weibull shape `k` (1.0 is the
/// exponential identity) the headline-point sweep runs with the matching
/// Weibull-corrected model arm and reports the mean and worst absolute gap —
/// the quantity the ISSUE-5 waste-model subsystem exists to shrink.
fn report_model_gap_json(c: &mut Criterion) {
    use ft_platform::failure::FailureSpec;
    let reps = if smoke() { 40 } else { 300 };
    let variants: Vec<String> = [1.0, 1.5, 0.7, 0.5]
        .iter()
        .map(|&shape| {
            let results = SweepSpec::new("model gap", figure7_base())
                .axis(Axis::values(Parameter::Alpha, vec![0.5]))
                .failure_model(FailureSpec::Weibull { shape })
                .replications(reps)
                .model_gap(true)
                .run_serial()
                .unwrap();
            let (significant, total) = results.significant_gap_counts();
            format!(
                "{{\"weibull_shape\": {shape}, \"model\": \"{}\", \
                 \"mean_abs_gap\": {:.5}, \"worst_abs_gap\": {:.5}, \
                 \"significant_gaps\": {significant}, \"tasks\": {total}}}",
                results.model_label(0),
                results.mean_abs_model_sim_gap().unwrap(),
                results.worst_model_sim_gap().unwrap(),
            )
        })
        .collect();
    println!(
        "{{\"bench\": \"model_gap\", \"grid\": \"fig7 headline point (alpha 0.5, mtbf 120 min), 3 protocols\", \
         {}, \"replications\": {reps}, \
         \"variants\": [{}]}}",
        host_json_fields(),
        variants.join(", "),
    );
    c.bench_function("sweep/model_gap_report_overhead", |b| {
        b.iter(|| black_box(variants.len()))
    });
}

/// Batch-width replication throughput, the `BENCH_batch.json` payload: the
/// reduced Figure-7 grid run serially on one-lane batches (`batch_lanes 1`,
/// reported as the `scalar_*` baseline) and at several lane widths.
/// Because every width is bit-exact, every run's `results` are asserted
/// identical to the one-lane run's before any timing is reported — the
/// speedup is a pure width substitution.
/// When `guard_no_regression` is set (the fast-path-bound sparse grid), the
/// reporter doubles as a CI no-regression guard: every batch width must
/// sustain at least the one-lane replication throughput, otherwise the
/// bench panics and the smoke run fails.
fn report_batch_grid(name: &str, base: SweepSpec, guard_no_regression: bool) -> String {
    let time = |spec: &SweepSpec| {
        let runs = if smoke() { 1 } else { 3 };
        let mut best = f64::INFINITY;
        let mut results = None;
        for _ in 0..runs {
            let t = Instant::now();
            let r = black_box(spec.run_serial().unwrap());
            best = best.min(t.elapsed().as_secs_f64());
            results = Some(r);
        }
        (best, results.expect("at least one run"))
    };
    let grid = |lanes: usize| base.clone().batch_lanes(lanes);
    let (scalar_seconds, scalar) = time(&grid(1));
    let total_reps = scalar.total_replications() as f64;
    let widths = if smoke() {
        vec![64usize]
    } else {
        vec![64usize, 128, 256]
    };
    let variants: Vec<String> = widths
        .iter()
        .map(|&lanes| {
            let (seconds, batch) = time(&grid(lanes));
            assert_eq!(
                batch.results, scalar.results,
                "every batch width must be bit-exact with one-lane batches"
            );
            if guard_no_regression {
                assert!(
                    seconds <= scalar_seconds,
                    "batch regression on '{name}': {lanes} lanes took {seconds:.4}s \
                     vs scalar {scalar_seconds:.4}s"
                );
            }
            format!(
                "{{\"batch_lanes\": {lanes}, \"seconds\": {seconds:.4}, \
                 \"replications_per_s\": {:.0}, \"speedup\": {:.2}}}",
                total_reps / seconds,
                scalar_seconds / seconds,
            )
        })
        .collect();
    format!(
        "{{\"grid\": \"{name}\", \
         \"scalar_seconds\": {scalar_seconds:.4}, \"scalar_replications_per_s\": {:.0}, \
         \"total_replications\": {total_reps}, \
         \"variants\": [{}]}}",
        total_reps / scalar_seconds,
        variants.join(", "),
    )
}

fn report_batch_json(c: &mut Criterion) {
    let reps = if smoke() { 50 } else { 500 };
    // The paper's Figure-7 regime (MTBF 1-4 h against a week of work) is
    // failure-dominated: a third to a half of checkpoint periods are
    // interrupted, so most time goes to the per-lane retry loops the
    // lockstep kernel cannot batch.  The sparse grid (MTBF 16-64 h) shows
    // the fast-path-bound regime where batching pays off.
    let fig7 = reduced_fig7().replications(reps);
    let sparse = SweepSpec::new("sparse-failure grid", figure7_base())
        .axis(Axis::linspace(
            Parameter::Mtbf,
            minutes(960.0),
            minutes(3840.0),
            4,
        ))
        .axis(Axis::linspace(Parameter::Alpha, 0.0, 1.0, 3))
        .replications(reps);
    let grids = [
        report_batch_grid(
            &format!("fig7 4x3, 3 protocols, {reps} replications"),
            fig7,
            false,
        ),
        report_batch_grid(
            &format!("sparse MTBF 16-64h 4x3, 3 protocols, {reps} replications"),
            sparse,
            true,
        ),
    ];
    println!(
        "{{\"bench\": \"batch_engine\", \
         \"source\": \"cargo bench -p ft-bench --bench full_grid_sweep \
         (criterion harness=false, vendored stand-in)\", \
         {}, \"threads\": 1, \
         \"note\": \"single-core run, SSE2 compile baseline on an AVX2/FMA/AVX-512F \
         host; fig7 grid is failure-dominated \
         (Amdahl-bound on the interrupt redraws), sparse grid is \
         fast-path-bound; sparse grid doubles as the batch-vs-scalar \
         no-regression guard\", \
         \"grids\": [{}]}}",
        host_json_fields(),
        grids.join(", "),
    );
    c.bench_function("sweep/batch_report_overhead", |b| {
        b.iter(|| black_box(grids.len()))
    });
}

/// Intra-point scaling of the parallel batch driver, the
/// `BENCH_point_threads.json` payload: one sparse sweep point with a large
/// replication budget, run through the batch engine at `--point-threads`
/// 1, 2 and 4.  Every thread count's results are asserted bit-identical to
/// the serial driver's before any timing is reported; on a single-core
/// host the figure records the (annotated) wave-dispatch overhead rather
/// than a speedup.
fn report_point_threads_json(c: &mut Criterion) {
    let reps = if smoke() { 200 } else { 2_000 };
    let point = |threads: usize| {
        SweepSpec::new("point-threads", figure7_base())
            .axis(Axis::values(Parameter::Mtbf, vec![minutes(1_920.0)]))
            .axis(Axis::values(Parameter::Alpha, vec![0.5]))
            .replications(reps)
            .batch_lanes(64)
            .point_threads(threads)
    };
    let time = |spec: &SweepSpec| {
        let runs = if smoke() { 1 } else { 3 };
        let mut best = f64::INFINITY;
        let mut results = None;
        for _ in 0..runs {
            let t = Instant::now();
            let r = black_box(spec.run_serial().unwrap());
            best = best.min(t.elapsed().as_secs_f64());
            results = Some(r);
        }
        (best, results.expect("at least one run"))
    };
    let (serial_seconds, serial) = time(&point(1));
    let variants: Vec<String> = [2usize, 4]
        .iter()
        .map(|&threads| {
            let (seconds, parallel) = time(&point(threads));
            assert_eq!(
                parallel.results, serial.results,
                "parallel block driver must be bit-identical to the serial driver"
            );
            format!(
                "{{\"point_threads\": {threads}, \"seconds\": {seconds:.4}, \
                 \"speedup\": {:.2}}}",
                serial_seconds / seconds,
            )
        })
        .collect();
    println!(
        "{{\"bench\": \"point_threads_scaling\", \
         \"grid\": \"sparse point (mtbf 32h, alpha 0.5), 3 protocols, {reps} replications, 64 lanes\", \
         {}, \
         \"serial_seconds\": {serial_seconds:.4}, \
         \"variants\": [{}]}}",
        host_json_fields(),
        variants.join(", "),
    );
    c.bench_function("sweep/point_threads_report_overhead", |b| {
        b.iter(|| black_box(variants.len()))
    });
}

/// Columnar-sampler micro-bench, cheap enough to ride `FT_BENCH_SMOKE`:
/// the bulk `fill_next_failures` pipeline versus the scalar per-lane
/// `next_failure` loop it replaced, per failure family, with the columns
/// asserted bit-identical before any throughput is reported.
fn report_sampler_json(c: &mut Criterion) {
    use ft_platform::batch::{BatchFailureSource, BatchFailureStream};
    use ft_platform::failure::{AnyFailureModel, ExponentialFailures, WeibullFailures};
    use ft_platform::rng::derive_seeds;
    use ft_platform::units::hours;

    let lanes = 256usize;
    let rounds = if smoke() { 2_000 } else { 20_000 };
    let seeds = derive_seeds(0xC01_0A5, lanes);
    let models: Vec<(&str, AnyFailureModel)> = vec![
        (
            "exponential",
            AnyFailureModel::Exponential(ExponentialFailures::new(hours(2.0)).unwrap()),
        ),
        (
            "weibull(k=0.7)",
            AnyFailureModel::Weibull(WeibullFailures::new(hours(2.0), 0.7).unwrap()),
        ),
    ];
    let variants: Vec<String> = models
        .iter()
        .map(|(label, model)| {
            let mut out = vec![0.0f64; lanes];
            // Scalar baseline: one next_failure call per lane per round.
            let mut stream = BatchFailureStream::new(*model, &seeds);
            let t = Instant::now();
            for _ in 0..rounds {
                for (lane, slot) in out.iter_mut().enumerate() {
                    *slot = black_box(stream.next_failure(lane));
                }
            }
            let scalar_seconds = t.elapsed().as_secs_f64();
            let scalar_last = out.clone();
            // Columnar pipeline from the same seeds.
            stream.reset(&seeds);
            let t = Instant::now();
            for _ in 0..rounds {
                stream.fill_next_failures(lanes, black_box(&mut out));
            }
            let columnar_seconds = t.elapsed().as_secs_f64();
            assert_eq!(
                scalar_last
                    .iter()
                    .map(|x| x.to_bits())
                    .collect::<Vec<_>>(),
                out.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                "columnar sampler must be bit-identical to scalar draws ({label})"
            );
            let draws = (lanes * rounds) as f64;
            format!(
                "{{\"model\": \"{label}\", \
                 \"scalar_draws_per_s\": {:.0}, \"columnar_draws_per_s\": {:.0}, \
                 \"speedup\": {:.2}}}",
                draws / scalar_seconds,
                draws / columnar_seconds,
                scalar_seconds / columnar_seconds,
            )
        })
        .collect();
    println!(
        "{{\"bench\": \"sampler_fill\", \
         \"shape\": \"{lanes} lanes x {rounds} rounds per model\", \
         {}, \
         \"variants\": [{}]}}",
        host_json_fields(),
        variants.join(", "),
    );
    c.bench_function("sweep/sampler_report_overhead", |b| {
        b.iter(|| black_box(variants.len()))
    });
}

/// Trace-driven and non-stationary scenarios versus the matched-MTBF
/// i.i.d. baseline, the `BENCH_traces.json` payload: an MTBF-axis sweep at
/// the headline α runs once with the plain i.i.d. exponential clock and
/// once per scenario (bundled-trace playback, cascade bursts, diurnal
/// modulation, wear-out).  Each scenario row reports how the
/// model-versus-simulation waste gap *moves* when the i.i.d. assumption
/// breaks (the model arm stays the matched-MTBF i.i.d. prediction by
/// construction) and where the pure-versus-composite crossover lands on
/// the MTBF axis relative to the baseline's.  The trace row's crossover is
/// expected to be degenerate: the recorded clock ignores the MTBF
/// coordinate (its empirical rate *is* the clock), which the payload
/// states rather than hides.
fn report_traces_json(c: &mut Criterion) {
    use ft_platform::failure::FailureModel;
    use ft_platform::scenario::{bundled_playback, ScenarioSpec};

    let reps = if smoke() { 40 } else { 300 };
    let steps = if smoke() { 4 } else { 8 };
    let grid = |scenario: ScenarioSpec| {
        SweepSpec::new("trace scenarios", figure7_base())
            .axis(Axis::linspace(Parameter::Mtbf, minutes(30.0), minutes(240.0), steps))
            .axis(Axis::values(Parameter::Alpha, vec![0.5]))
            .replications(reps)
            .model_gap(true)
            .scenario(scenario)
    };
    let baseline = grid(ScenarioSpec::Iid).run_serial().unwrap();
    let base_gap = baseline.mean_abs_model_sim_gap().unwrap();
    let base_cross = baseline.crossover(Parameter::Mtbf);
    let json_opt = |v: Option<f64>| v.map_or("null".to_string(), |x| format!("{x:.0}"));

    let scenarios = [
        ScenarioSpec::Trace { path: None },
        ScenarioSpec::Cascade,
        ScenarioSpec::Diurnal,
        ScenarioSpec::Wearout,
    ];
    let variants: Vec<String> = scenarios
        .iter()
        .map(|scenario| {
            let results = grid(scenario.clone()).run_serial().unwrap();
            let gap = results.mean_abs_model_sim_gap().unwrap();
            let worst = results.worst_model_sim_gap().unwrap();
            let (significant, total) = results.significant_gap_counts();
            let cross = results.crossover(Parameter::Mtbf);
            let shift = match (base_cross, cross) {
                (Some(a), Some(b)) => format!("{:.0}", b - a),
                _ => "null".to_string(),
            };
            format!(
                "{{\"scenario\": \"{scenario}\", \
                 \"mean_abs_gap_vs_iid_model\": {gap:.5}, \"worst_abs_gap\": {worst:.5}, \
                 \"gap_movement_vs_iid_baseline\": {:.5}, \
                 \"significant_gaps\": {significant}, \"tasks\": {total}, \
                 \"crossover_mtbf_s\": {}, \"crossover_shift_s\": {shift}}}",
                gap - base_gap,
                json_opt(cross),
            )
        })
        .collect();
    let trace_mtbf = bundled_playback()
        .map(|p| format!("{:.0}", p.mean()))
        .unwrap_or_else(|_| "null".to_string());
    println!(
        "{{\"bench\": \"trace_scenarios\", \
         \"grid\": \"mtbf 0.5-4h x{steps} (alpha 0.5), 3 protocols\", \
         {}, \"replications\": {reps}, \
         \"note\": \"model arm is always the matched-MTBF iid first-order \
         prediction; gap movement isolates the effect of breaking the iid \
         assumption. The trace clock ignores the MTBF coordinate (its \
         empirical rate governs), so its crossover on this axis is \
         degenerate by design.\", \
         \"trace_empirical_mtbf_s\": {trace_mtbf}, \
         \"iid_baseline\": {{\"mean_abs_gap\": {base_gap:.5}, \
         \"crossover_mtbf_s\": {}}}, \
         \"variants\": [{}]}}",
        host_json_fields(),
        json_opt(base_cross),
        variants.join(", "),
    );
    c.bench_function("sweep/traces_report_overhead", |b| {
        b.iter(|| black_box(variants.len()))
    });
}

criterion_group!(
    benches,
    bench_grid_execution,
    report_json,
    report_adaptive_json,
    report_model_gap_json,
    report_batch_json,
    report_point_threads_json,
    report_sampler_json,
    report_traces_json
);
criterion_main!(benches);
