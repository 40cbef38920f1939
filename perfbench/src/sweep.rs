//! The grid workloads: `fig7`, `sparse` and `cascade`.
//!
//! The untraced run times `SweepSpec::run` plus rendering, exactly as a
//! figure binary does.  The traced run replays the same grid serially
//! through the public layer entry points, twice: once calling the library's
//! replication drivers (task times, model arm, program cache, driver time),
//! once through a driver loop that mirrors the library's serial driver with a
//! [`CountingSource`] around the failure stream (run, draws, accumulation).
//! Both replays must reproduce the untraced results bit for bit.

use std::collections::BTreeMap;
use std::hint::black_box;

use ft_bench::experiment::{GridPoint, PairedDelta, PointResult};
use ft_bench::{figure7_base, Axis, OutputFormat, Parameter, SweepResults, SweepSpec};
use ft_composite::scenario::ApplicationProfile;
use ft_platform::failure::AnyFailureModel;
use ft_platform::rng::{SeedStream, SplitMix64};
use ft_platform::scenario::ScenarioSpec;
use ft_platform::units::{hours, minutes};
use ft_platform::{BatchFailureSource, BatchFailureStream};
use ft_sim::{
    accumulate_paired_programs_batch, accumulate_profile_program_batch, model_waste_with,
    BatchProgram, BatchProgramCache, BatchState, Engine, OutcomeAccumulator, PairedAccumulator,
    Protocol, ReplicationBudget, SimOutcome, SimStats, Welford,
};

use crate::trace::{CountingSource, FailureFree};
use crate::util::{combine, mismatches, point_digest, timed, LayerSamples};
use crate::{Outcome, RunConfig};

/// Replications per task of each grid workload.  Each keeps a pass at
/// 0.2 s or less, so that the fastest pass of a run has many chances to
/// fall in a quiet moment of a shared host (see `README.md`).
const FIG7_REPS: usize = 250;
const SPARSE_REPS: usize = 5_000;
const CASCADE_REPS: usize = 500;

/// Draws per calibration of the slow-path redraw cost.
const REDRAW_CALIBRATION_DRAWS: usize = 4_096;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Fig7,
    Sparse,
    Cascade,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "fig7" => Some(Kind::Fig7),
            "sparse" => Some(Kind::Sparse),
            "cascade" => Some(Kind::Cascade),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Kind::Fig7 => "fig7",
            Kind::Sparse => "sparse",
            Kind::Cascade => "cascade",
        }
    }

    /// Grid threads of the traced run's scheduler measurement.  The timed
    /// end-to-end passes run on one thread: on a shared two-vCPU host a
    /// two-thread wall time swings by up to 40 % between runs, while one
    /// thread repeats within a few percent.
    pub fn sched_threads(self) -> usize {
        match self {
            Kind::Fig7 | Kind::Cascade => 2,
            Kind::Sparse => 1,
        }
    }

    fn reps(self) -> usize {
        match self {
            Kind::Fig7 => FIG7_REPS,
            Kind::Sparse => SPARSE_REPS,
            Kind::Cascade => CASCADE_REPS,
        }
    }

    /// The workload's sweep specification.
    pub fn spec(self, seed: u64) -> SweepSpec {
        let alpha = Axis::linspace(Parameter::Alpha, 0.0, 1.0, 6);
        let spec = match self {
            Kind::Fig7 => SweepSpec::new("fig7", figure7_base())
                .axis(Axis::linspace(
                    Parameter::Mtbf,
                    minutes(60.0),
                    minutes(240.0),
                    7,
                ))
                .axis(alpha),
            Kind::Sparse => SweepSpec::new("sparse", figure7_base())
                .axis(Axis::linspace(Parameter::Mtbf, hours(16.0), hours(64.0), 3))
                .axis(alpha),
            Kind::Cascade => SweepSpec::new("cascade", figure7_base())
                .axis(Axis::linspace(Parameter::Mtbf, hours(0.5), hours(4.0), 8))
                .axis(Axis::values(Parameter::Alpha, vec![0.5]))
                .paired(true)
                .scenario(ScenarioSpec::Cascade),
        };
        spec.replications(self.reps()).seed(seed)
    }
}

/// Set-up: specification, grid expansion and validation (scenario
/// resolution included).
pub fn setup(kind: Kind, seed: u64) -> Result<(SweepSpec, Vec<GridPoint>), String> {
    let spec = kind.spec(seed);
    let grid = spec.expand().map_err(|e| e.to_string())?;
    Ok((spec, grid))
}

/// One timed pass: the grid run plus the rendered table a user reads.
fn pass(spec: &SweepSpec) -> Result<(SweepResults, usize), String> {
    let results = spec.run().map_err(|e| e.to_string())?;
    let text = results.render(OutputFormat::Table);
    Ok((results, black_box(text).len()))
}

fn digests(results: &[PointResult]) -> Vec<u64> {
    results.iter().map(point_digest).collect()
}

/// Domain checks on the reference results: every task simulated its full
/// budget, wastes are fractions, and on the i.i.d. grids the model and the
/// simulation agree (Figure 7's own claim).
fn check(kind: Kind, spec: &SweepSpec, results: &SweepResults) -> Result<(), String> {
    let tasks = results.grid_points() * spec.protocols.len();
    if results.results.len() != tasks {
        return Err(format!(
            "{} results for {tasks} tasks",
            results.results.len()
        ));
    }
    for r in &results.results {
        let sim = r.sim.ok_or("task without a simulation arm")?;
        if sim.replications != kind.reps() || !(0.0..=1.0).contains(&sim.mean_waste) {
            return Err(format!(
                "task {} {:?}: bad statistics {sim:?}",
                r.index, r.protocol
            ));
        }
        if spec.paired && r.protocol != spec.protocols[0] && r.paired.is_none() {
            return Err(format!("task {}: paired row without a delta", r.index));
        }
    }
    if spec.failure_scenario.is_iid() {
        let worst = results.worst_model_sim_gap().unwrap_or(f64::INFINITY);
        if worst > 0.1 {
            return Err(format!("model and simulation disagree by {worst}"));
        }
    }
    Ok(())
}

/// The untraced run.
pub fn run(kind: Kind, cfg: &RunConfig) -> Result<Outcome, String> {
    let (spec, _) = setup(kind, cfg.seed)?;
    let (reference, _) = pass(&spec)?;
    check(kind, &spec, &reference)?;
    let mut setup_sampler = crate::SetupSampler::new(cfg);
    let want = digests(&reference.results);
    let mut out = Outcome::new(kind.name(), cfg, combine(want.iter().copied()));
    let mut walls = Vec::new();
    let budget = ft_platform::clock::Stopwatch::start();
    while walls.len() < 3 || budget.elapsed_seconds() < cfg.seconds {
        setup_sampler.poll(budget.elapsed_seconds())?;
        let (results, wall) = timed(|| pass(&spec));
        let (results, _) = results?;
        walls.push(wall);
        out.attempted += want.len() as u64;
        out.failed += mismatches(&digests(&results.results), &want);
    }
    let wall = out.passes(&walls);
    let executions = reference.total_executions() as f64;
    out.metrics.put("wall_s", wall, "s");
    out.metrics.put("setup_s", setup_sampler.finish()?, "s");
    out.metrics.put("ops_per_s", executions / wall, "1/s");
    out.metrics
        .put("peak_rss_mib", crate::util::peak_rss_mib(), "MiB");
    out.note("executions_per_pass", executions);
    Ok(out)
}

/// The per-task seed of `SweepSpec::run` (per point and protocol, or per
/// point in paired mode).
fn task_seed(master: u64, point: u64, protocol: Option<Protocol>) -> u64 {
    let tag = protocol.map_or(0, crate::util::protocol_tag);
    SplitMix64::new(
        master
            .wrapping_add(point.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(tag.wrapping_mul(0xD1B5_4A32_D192_ED03)),
    )
    .derive_seed()
}

/// The model arm of one task on a plain (non-scaling) grid point.
fn model_arm(spec: &SweepSpec, point: &GridPoint, protocol: Protocol) -> (f64, f64) {
    let params = point.params.expect("plain grid points always resolve");
    let waste = model_waste_with(&point.waste_model(spec.failure), protocol, &params);
    let expected = if waste < 1.0 {
        params.epoch_duration * spec.epochs as f64 / (1.0 - waste) / params.platform_mtbf
    } else {
        f64::INFINITY
    };
    (waste, expected)
}

/// Profile and engine of one grid point; returns the scenario resolution
/// time alongside.
fn inputs(spec: &SweepSpec, point: &GridPoint) -> (ApplicationProfile, Engine, f64) {
    let params = point.params.expect("plain grid points always resolve");
    let profile = ApplicationProfile::from_params_repeated(&params, spec.epochs);
    if spec.failure_scenario.is_iid() {
        let engine = Engine::with_failure_spec(&params, point.failure_spec(spec.failure))
            .expect("failure specs are validated at expansion");
        (profile, engine, 0.0)
    } else {
        let horizon = params.epoch_duration * spec.epochs.max(1) as f64;
        let (model, resolve_s) =
            timed(|| spec.failure_scenario.resolve(params.platform_mtbf, horizon));
        let model = model.expect("scenarios are validated at expansion");
        (
            profile,
            Engine::with_failure_model(&params, model),
            resolve_s,
        )
    }
}

fn paired_rows(
    spec: &SweepSpec,
    point: &GridPoint,
    acc: &PairedAccumulator,
    model: &[(f64, f64)],
) -> Vec<PointResult> {
    spec.protocols
        .iter()
        .enumerate()
        .map(|(i, &protocol)| PointResult {
            index: point.index,
            protocol,
            model_waste: model[i].0,
            expected_failures: model[i].1,
            sim: Some(SimStats::from_accumulator(protocol, &acc.outcomes[i])),
            paired: acc.delta(protocol).map(|d| PairedDelta {
                baseline: spec.protocols[0],
                mean: d.mean(),
                ci95: d.ci95_half_width(),
            }),
        })
        .collect()
}

/// The units of work `SweepSpec::run` schedules: `(point, protocols)`.
fn tasks(spec: &SweepSpec, grid: &[GridPoint]) -> Vec<(usize, Vec<Protocol>)> {
    if spec.paired {
        grid.iter()
            .map(|gp| (gp.index, spec.protocols.clone()))
            .collect()
    } else {
        grid.iter()
            .flat_map(|gp| spec.protocols.iter().map(move |&p| (gp.index, vec![p])))
            .collect()
    }
}

fn reps(spec: &SweepSpec) -> usize {
    match spec.budget {
        ReplicationBudget::Fixed(n) => n,
        other => panic!("grid workloads run fixed budgets, not {other}"),
    }
}

/// Serial replay through the library entry points, one span per layer call.
/// `threads` is the grid thread count the task times are scheduled on.
fn library_pass(
    spec: &SweepSpec,
    grid: &[GridPoint],
    threads: usize,
    s: &mut BTreeMap<&'static str, f64>,
) -> Vec<PointResult> {
    let cache = BatchProgramCache::new();
    let mut results = Vec::new();
    let mut task_times = Vec::new();
    let (mut model_s, mut model_calls, mut compile_s, mut compile_calls) = (0.0, 0.0, 0.0, 0.0);
    let (mut steps, mut driver_s, mut resolve_s) = (0.0, 0.0, 0.0);
    let wall = ft_platform::clock::Stopwatch::start();
    for (index, protocols) in tasks(spec, grid) {
        let task = ft_platform::clock::Stopwatch::start();
        let point = &grid[index];
        let (model, t) = timed(|| {
            protocols
                .iter()
                .map(|&p| model_arm(spec, point, p))
                .collect::<Vec<_>>()
        });
        model_s += t;
        model_calls += protocols.len() as f64;
        let (profile, engine, r) = inputs(spec, point);
        resolve_s += r;
        let mut programs = Vec::new();
        for &p in &protocols {
            let before = cache.len();
            let (program, t) = timed(|| cache.get(p, &profile, engine.plan()));
            compile_s += t;
            compile_calls += 1.0;
            if cache.len() > before {
                steps += program.len() as f64;
            }
            programs.push(program);
        }
        if spec.paired {
            let refs: Vec<&BatchProgram> = programs.iter().map(|p| p.as_ref()).collect();
            let seed = task_seed(spec.seed, index as u64, None);
            let (acc, t) = timed(|| {
                accumulate_paired_programs_batch(
                    &engine,
                    &protocols,
                    &refs,
                    spec.plan(),
                    seed,
                    spec.batch_lanes,
                    spec.point_threads,
                )
            });
            driver_s += t;
            results.extend(paired_rows(spec, point, &acc, &model));
        } else {
            let protocol = protocols[0];
            let seed = task_seed(spec.seed, index as u64, Some(protocol));
            let (acc, t) = timed(|| {
                accumulate_profile_program_batch(
                    &engine,
                    &programs[0],
                    spec.plan(),
                    seed,
                    spec.batch_lanes,
                    spec.point_threads,
                )
            });
            driver_s += t;
            results.push(PointResult {
                index,
                protocol,
                model_waste: model[0].0,
                expected_failures: model[0].1,
                sim: Some(SimStats::from_accumulator(protocol, &acc)),
                paired: None,
            });
        }
        task_times.push(task.elapsed_seconds());
    }
    let busy: f64 = task_times.iter().sum();
    let mean = busy / task_times.len().max(1) as f64;
    s.insert("library_pass_s", wall.elapsed_seconds());
    s.insert("sched.busy_s", busy);
    s.insert(
        "sched.task_max_over_mean",
        task_times.iter().copied().fold(0.0, f64::max) / mean,
    );
    // The grid pool splits the task list into one contiguous block per
    // thread: the idle share that split alone leaves, from the serial times.
    let per_block = task_times.len().div_ceil(threads).max(1);
    let block_max = task_times
        .chunks(per_block)
        .map(|block| block.iter().sum::<f64>())
        .fold(0.0, f64::max);
    s.insert(
        "sched.block_idle_share",
        1.0 - busy / (threads as f64 * block_max),
    );
    s.insert("model.calls", model_calls);
    s.insert("model.s", model_s);
    s.insert("compile.calls", compile_calls);
    s.insert("compile.programs", cache.len() as f64);
    s.insert(
        "compile.hit_ratio",
        1.0 - cache.len() as f64 / compile_calls.max(1.0),
    );
    s.insert("compile.steps", steps);
    s.insert("compile.s", compile_s);
    s.insert("driver.s", driver_s);
    s.insert("scenario.resolve_s", resolve_s);
    results
}

/// Draw, run and accumulation tallies of the decorated replay.
#[derive(Debug, Default)]
struct LayerTally {
    run_s: f64,
    reset_s: f64,
    lane_steps: f64,
    fill_calls: u64,
    fill_draws: u64,
    fill_s: f64,
    redraws: u64,
    bursts: u64,
    redraw_s: f64,
    acc_s: f64,
    acc_pushes: u64,
    fast_s: f64,
    measure_s: f64,
}

impl LayerTally {
    fn absorb<S>(&mut self, source: &CountingSource<S>, redraw_ns: f64) {
        self.fill_calls += source.fill_calls;
        self.fill_draws += source.fill_draws;
        self.fill_s += source.fill_s;
        self.redraws += source.redraws;
        self.bursts += source.bursts;
        self.redraw_s += source.redraws as f64 * redraw_ns * 1e-9;
    }
}

/// Lane-width chunks of `reps` replications, ragged tail last — the chunk
/// loop of the library's serial drivers.
fn chunks(reps: usize, lanes: usize) -> impl Iterator<Item = usize> {
    let full = reps / lanes;
    let tail = reps % lanes;
    std::iter::repeat_n(lanes, full).chain((tail > 0).then_some(tail))
}

/// Mirror of `accumulate_profile_program_batch`'s serial driver under a
/// fixed budget, over a counting source.
fn drive_profile(
    engine: &Engine,
    program: &BatchProgram,
    reps: usize,
    master: u64,
    lanes: usize,
    t: &mut LayerTally,
) -> (
    OutcomeAccumulator,
    CountingSource<BatchFailureStream<AnyFailureModel>>,
) {
    let mut acc = OutcomeAccumulator::new();
    let mut seeds = SeedStream::new(master);
    let mut seed_buf = vec![0u64; lanes];
    let mut source = CountingSource::new(BatchFailureStream::new(*engine.failure_model(), &[]));
    let mut state = BatchState::new();
    let mut outcomes: Vec<SimOutcome> = Vec::with_capacity(lanes);
    for width in chunks(reps, lanes) {
        let chunk = &mut seed_buf[..width];
        let ((), reset_s) = timed(|| {
            seeds.fill(chunk);
            source.inner.reset(chunk);
        });
        t.reset_s += reset_s;
        let ((), run_s) = timed(|| program.run(&mut source, &mut state));
        t.run_s += run_s;
        t.lane_steps += (width * program.len()) as f64;
        outcomes.clear();
        outcomes.extend((0..width).map(|lane| program.outcome(&state, lane)));
        let ((), acc_s) = timed(|| {
            for o in &outcomes {
                acc.push(o);
            }
        });
        t.acc_s += acc_s;
        t.acc_pushes += width as u64;
    }
    (acc, source)
}

/// Mirror of `accumulate_paired_programs_batch`'s serial driver under a
/// fixed budget, over a counting source.
fn drive_paired(
    engine: &Engine,
    protocols: &[Protocol],
    programs: &[&BatchProgram],
    reps: usize,
    master: u64,
    lanes: usize,
    t: &mut LayerTally,
) -> (
    PairedAccumulator,
    CountingSource<BatchFailureStream<AnyFailureModel>>,
) {
    let mut acc = PairedAccumulator {
        protocols: protocols.to_vec(),
        outcomes: vec![OutcomeAccumulator::new(); protocols.len()],
        deltas: vec![Welford::new(); protocols.len()],
    };
    let mut seeds = SeedStream::new(master);
    let mut seed_buf = vec![0u64; lanes];
    let mut source = CountingSource::new(BatchFailureStream::new(*engine.failure_model(), &[]));
    let mut state = BatchState::new();
    let mut firsts: Vec<Vec<SimOutcome>> = vec![Vec::with_capacity(lanes); protocols.len()];
    for width in chunks(reps, lanes) {
        let chunk = &mut seed_buf[..width];
        let ((), reset_s) = timed(|| seeds.fill(chunk));
        t.reset_s += reset_s;
        for (i, program) in programs.iter().enumerate() {
            let ((), reset_s) = timed(|| source.inner.reset(chunk));
            t.reset_s += reset_s;
            let ((), run_s) = timed(|| program.run(&mut source, &mut state));
            t.run_s += run_s;
            t.lane_steps += (width * program.len()) as f64;
            firsts[i].clear();
            firsts[i].extend((0..width).map(|lane| program.outcome(&state, lane)));
        }
        let ((), acc_s) = timed(|| {
            for lane in 0..width {
                let mut baseline = 0.0;
                for (i, outcomes) in firsts.iter().enumerate() {
                    let out = outcomes[lane];
                    acc.outcomes[i].push(&out);
                    if i == 0 {
                        baseline = out.waste();
                    } else {
                        acc.deltas[i].push(out.waste() - baseline);
                    }
                }
            }
        });
        t.acc_s += acc_s;
        t.acc_pushes += (width * (2 * protocols.len() - 1)) as u64;
    }
    (acc, source)
}

/// Seconds per slow-path redraw of `model`, measured on a fresh stream
/// cycling over a full lane width.
pub fn redraw_ns(model: AnyFailureModel, lanes: usize) -> f64 {
    let mut seeds = vec![0u64; lanes];
    SeedStream::new(0xCA11_B4A7).fill(&mut seeds);
    let mut stream = BatchFailureStream::new(model, &seeds);
    let mut sum = 0.0;
    let ((), secs) = timed(|| {
        for k in 0..REDRAW_CALIBRATION_DRAWS {
            sum += stream.next_failure(k % lanes);
        }
    });
    black_box(sum);
    secs * 1e9 / REDRAW_CALIBRATION_DRAWS as f64
}

/// Serial replay through the decorated mirror drivers, plus the fast pass of
/// every program over a failure-free source.
fn layer_pass(
    spec: &SweepSpec,
    grid: &[GridPoint],
    s: &mut BTreeMap<&'static str, f64>,
) -> Vec<PointResult> {
    let reps = reps(spec);
    let lanes = spec.batch_lanes;
    let mut t = LayerTally::default();
    let mut results = Vec::new();
    let mut executions = 0u64;
    let wall = ft_platform::clock::Stopwatch::start();
    for (index, protocols) in tasks(spec, grid) {
        let point = &grid[index];
        let model: Vec<(f64, f64)> = protocols
            .iter()
            .map(|&p| model_arm(spec, point, p))
            .collect();
        let (profile, engine, _) = inputs(spec, point);
        let programs: Vec<BatchProgram> = protocols
            .iter()
            .map(|&p| BatchProgram::compile(p, &profile, engine.plan()))
            .collect();
        let refs: Vec<&BatchProgram> = programs.iter().collect();
        let (ns, calibration_s) = timed(|| redraw_ns(*engine.failure_model(), lanes));
        t.measure_s += calibration_s;
        if spec.paired {
            let seed = task_seed(spec.seed, index as u64, None);
            let (acc, source) = drive_paired(&engine, &protocols, &refs, reps, seed, lanes, &mut t);
            t.absorb(&source, ns);
            results.extend(paired_rows(spec, point, &acc, &model));
        } else {
            let protocol = protocols[0];
            let seed = task_seed(spec.seed, index as u64, Some(protocol));
            let (acc, source) = drive_profile(&engine, &programs[0], reps, seed, lanes, &mut t);
            t.absorb(&source, ns);
            results.push(PointResult {
                index,
                protocol,
                model_waste: model[0].0,
                expected_failures: model[0].1,
                sim: Some(SimStats::from_accumulator(protocol, &acc)),
                paired: None,
            });
        }
        executions += (reps * protocols.len()) as u64;
        // The fast pass alone: the same programs on the same lane widths,
        // over a source that never fails.
        let mut state = BatchState::new();
        let ((), fast_s) = timed(|| {
            for width in chunks(reps, lanes) {
                for program in &refs {
                    program.run(&mut FailureFree { lanes: width }, &mut state);
                    black_box(program.outcome(&state, 0));
                }
            }
        });
        t.fast_s += fast_s;
        t.measure_s += fast_s;
    }
    // The replay alone: the calibration and fast-pass measurements are not
    // part of the work the library pass times.
    s.insert("layer_pass_s", wall.elapsed_seconds() - t.measure_s);
    s.insert("run.s", t.run_s);
    s.insert("reset.s", t.reset_s);
    s.insert("run.lane_steps", t.lane_steps);
    s.insert("fast.s", t.fast_s);
    s.insert("slow.s", t.run_s - t.fast_s - t.fill_s - t.redraw_s);
    s.insert(
        "fast.commit_ratio",
        1.0 - t.bursts as f64 / t.lane_steps.max(1.0),
    );
    s.insert("fill.calls", t.fill_calls as f64);
    s.insert("fill.draws", t.fill_draws as f64);
    s.insert("fill.s", t.fill_s);
    s.insert(
        "fill.ns_per_draw",
        t.fill_s * 1e9 / (t.fill_draws.max(1)) as f64,
    );
    s.insert("redraw.count", t.redraws as f64);
    s.insert("redraw.bursts", t.bursts as f64);
    s.insert(
        "redraw.per_exec",
        t.redraws as f64 / executions.max(1) as f64,
    );
    s.insert("redraw.s", t.redraw_s);
    s.insert(
        "redraw.ns_per_draw",
        t.redraw_s * 1e9 / (t.redraws.max(1)) as f64,
    );
    s.insert("acc.pushes", t.acc_pushes as f64);
    s.insert("acc.s", t.acc_s);
    s.insert("executions", executions as f64);
    s.insert("adaptive.reps_used_ratio", 1.0);
    results
}

/// Counts that must repeat exactly, pass after pass and run after run.
pub const COUNTS: &[&str] = &[
    "expand.points",
    "model.calls",
    "compile.calls",
    "compile.programs",
    "compile.steps",
    "run.lane_steps",
    "fill.calls",
    "fill.draws",
    "redraw.count",
    "redraw.bursts",
    "acc.pushes",
    "executions",
    "render.bytes",
];

/// The traced run.
pub fn traced(kind: Kind, cfg: &RunConfig) -> Result<Outcome, String> {
    let (spec, grid) = setup(kind, cfg.seed)?;
    let (reference, _) = pass(&spec)?;
    check(kind, &spec, &reference)?;
    let want = digests(&reference.results);
    let mut out = Outcome::new(kind.name(), cfg, combine(want.iter().copied()));
    // Only `SweepSpec::run` reads the grid thread count: the replays below
    // are serial.
    out.threads = kind.sched_threads();
    crate::configure_threads(out.threads);
    let mut samples = LayerSamples::default();
    let budget = ft_platform::clock::Stopwatch::start();
    while samples.sets.is_empty() || budget.elapsed_seconds() < cfg.seconds {
        let mut s = BTreeMap::new();
        let (grid_again, expand_s) = timed(|| spec.expand());
        s.insert("expand.s", expand_s);
        s.insert(
            "expand.points",
            grid_again.map_err(|e| e.to_string())?.len() as f64,
        );
        let (text, render_s) = timed(|| reference.render(OutputFormat::Table));
        s.insert("render.s", render_s);
        s.insert("render.bytes", text.len() as f64);
        // The untraced grid run alone (no rendering) on the scheduler's
        // threads, timed next to the serial library pass whose task times
        // it is compared with.
        let (grid_run, par_wall) = timed(|| spec.run());
        grid_run.map_err(|e| e.to_string())?;
        for replay in [
            library_pass(&spec, &grid, out.threads, &mut s),
            layer_pass(&spec, &grid, &mut s),
        ] {
            out.attempted += want.len() as u64;
            out.failed += mismatches(&digests(&replay), &want);
        }
        let busy = s["sched.busy_s"];
        s.insert("sched.grid_wall_s", par_wall);
        s.insert(
            "sched.idle_share",
            1.0 - busy / (out.threads as f64 * par_wall),
        );
        s.insert("trace.overhead_s", s["layer_pass_s"] - s["library_pass_s"]);
        samples.sets.push(s);
    }
    if !samples.counts_repeat(COUNTS) {
        return Err("a count differs between traced passes".into());
    }
    out.note("sched_grid_wall_s", samples.median("sched.grid_wall_s"));
    out.layers = samples;
    Ok(out)
}
