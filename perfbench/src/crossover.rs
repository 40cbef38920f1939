//! The `crossover` workload: the §V-C question "from how many nodes on does
//! ABFT&PeriodicCkpt beat PurePeriodicCkpt?", answered by the fig9
//! weak-scaling crossover refinement along `nodes` and measured as time to
//! solution.
//!
//! A pass localises the crossover once per sub-seed: a model-only seeding
//! grid brackets it, then a `CrossoverRefiner` bisects the bracket with
//! paired-delta adaptive probes down to a 0.1 % relative tolerance.  The
//! traced run calls the same public refiner, times its model-only
//! bisection on its own, then replays every simulated probe the refinement
//! returns — probe `i` draws from `SeedStream::nth_seed(seed ^ TAG, i)` —
//! timing its expansion and replication driver, and counting the failure
//! draws through a [`CountingModel`] under the recorded trace buffers.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::hint::black_box;

use ft_bench::experiment::format_value;
use ft_bench::{
    Axis, CrossoverProbe, CrossoverRefinement, CrossoverRefiner, Parameter, SweepSpec, Table,
};
use ft_composite::scaling::WeakScalingScenario;
use ft_composite::scenario::ApplicationProfile;
use ft_platform::rng::SeedStream;
use ft_platform::trace::TraceBuffer;
use ft_sim::{
    accumulate_paired_engine, CompositeExecutor, Engine, OutcomeAccumulator, PairedAccumulator,
    Protocol, PureExecutor, ReplicationBudget, SimClock, Welford,
};

use crate::trace::{CountingModel, NoFailures};
use crate::util::{combine, mismatches, timed, Digest, LayerSamples};
use crate::{Outcome, RunConfig};

const TOLERANCE: f64 = 0.001;
const PRECISION: f64 = 0.05;
const MIN_REPS: usize = 1_000;
const MAX_REPS: usize = 20_000;
const MAX_PROBES: usize = 40;
/// Localisations per pass, each on its own sub-seed of the workload seed.
const LOCALISATIONS: usize = 4;
/// The refiner's probe-seed tag (`SeedStream::nth_seed(seed ^ TAG, probe)`).
const REFINER_SEED_TAG: u64 = 0xC055_0FEB_15EC_7104;
const AXIS: Parameter = Parameter::Nodes;
const PROTOCOLS: [Protocol; 2] = [Protocol::PurePeriodicCkpt, Protocol::AbftPeriodicCkpt];

pub struct Setup {
    refiner: CrossoverRefiner,
    seeding: SweepSpec,
    seeds: Vec<u64>,
}

/// Set-up: the probe template, the seeding grid (expanded and validated)
/// and the refiner.
pub fn setup(seed: u64) -> Result<Setup, String> {
    let spec = SweepSpec::scaling("crossover", WeakScalingScenario::figure9())
        .seed(seed)
        .budget(ReplicationBudget::AdaptiveDelta {
            rel_precision: PRECISION,
            min: MIN_REPS,
            max: MAX_REPS,
        });
    let seeding = SweepSpec {
        budget: ReplicationBudget::Fixed(0),
        paired: false,
        axes: vec![Axis::decades(AXIS, 3, 6, 1)],
        protocols: PROTOCOLS.to_vec(),
        ..spec.clone()
    };
    seeding.expand().map_err(|e| e.to_string())?;
    let refiner = CrossoverRefiner::new(spec, AXIS)
        .tolerance(TOLERANCE)
        .max_probes(MAX_PROBES);
    let seeds = (0..LOCALISATIONS as u64)
        .map(|j| SeedStream::nth_seed(seed, j))
        .collect();
    Ok(Setup {
        refiner,
        seeding,
        seeds,
    })
}

fn with_seed(refiner: &CrossoverRefiner, seed: u64) -> CrossoverRefiner {
    CrossoverRefiner {
        spec: SweepSpec {
            seed,
            ..refiner.spec.clone()
        },
        ..refiner.clone()
    }
}

/// The grid bracket of the seeding sweep.
fn bracket(setup: &Setup) -> Result<(f64, f64), String> {
    let grid = setup.seeding.run().map_err(|e| e.to_string())?;
    grid.crossover_bracket(AXIS)
        .ok_or_else(|| "the seeding grid shows no crossover".to_string())
}

/// The probe table the `crossover` binary prints.
fn render(r: &CrossoverRefinement) -> String {
    let mut table = Table::new(&[AXIS.label(), "delta", "ci95", "traces", "winner", "decided"]);
    for p in &r.probes {
        table.push_row(vec![
            format_value(AXIS, p.value),
            format!("{:+.5}", p.delta),
            format!("{:.5}", p.ci95),
            format!("{}", p.replications),
            if p.composite_beats {
                "composite"
            } else {
                "pure"
            }
            .to_string(),
            format!("{}", p.decided),
        ]);
    }
    table.render()
}

/// One localisation: seeding grid, bracket, refinement, rendered table.
fn localise(setup: &Setup, seed: u64) -> Result<CrossoverRefinement, String> {
    let (below, above) = bracket(setup)?;
    let r = with_seed(&setup.refiner, seed)
        .refine(below, above)
        .map_err(|e| e.to_string())?;
    black_box(render(&r));
    Ok(r)
}

fn probe_digest(p: &CrossoverProbe) -> u64 {
    let mut d = Digest::default();
    for x in [p.value, p.delta, p.ci95] {
        d.f64(x);
    }
    d.word(p.replications as u64);
    d.word(u64::from(p.composite_beats) << 1 | u64::from(p.decided));
    d.value()
}

/// Digests of a refinement: the bracket and probe count first, then every
/// probe.
fn digests(r: &CrossoverRefinement) -> Vec<u64> {
    let mut head = Digest::default();
    head.f64(r.bracket.0);
    head.f64(r.bracket.1);
    head.f64(r.crossover);
    head.f64(r.model_crossover.unwrap_or(f64::NAN));
    head.word(r.probes.len() as u64);
    head.word(u64::from(r.converged));
    std::iter::once(head.value())
        .chain(r.probes.iter().map(probe_digest))
        .collect()
}

/// The answer must be a converged bracket inside the grid bracket, close to
/// the model's own crossover.
fn check(r: &CrossoverRefinement, grid: (f64, f64)) -> Result<(), String> {
    let (lo, hi) = (grid.0.min(grid.1), grid.0.max(grid.1));
    let inside = |x: f64| (lo..=hi).contains(&x);
    if !r.converged || !inside(r.bracket.0) || !inside(r.bracket.1) {
        return Err(format!(
            "refinement did not converge inside the grid bracket: {r:?}"
        ));
    }
    let model = r.model_crossover.ok_or("refinement was not model-seeded")?;
    if (r.crossover / model - 1.0).abs() > 0.25 {
        return Err(format!(
            "simulated crossover {} far from the model's {model}",
            r.crossover
        ));
    }
    Ok(())
}

/// The untraced run.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let setup = setup(cfg.seed)?;
    let grid = bracket(&setup)?;
    let mut want = Vec::new();
    let mut executions_per_pass = 0.0;
    for &seed in &setup.seeds {
        let r = localise(&setup, seed)?;
        check(&r, grid)?;
        executions_per_pass += r.total_replications() as f64;
        want.push(digests(&r));
    }
    let mut setup_sampler = crate::SetupSampler::new(cfg);
    let mut out = Outcome::new("crossover", cfg, combine(want.iter().flatten().copied()));
    let mut walls = Vec::new();
    let mut fastest = vec![f64::INFINITY; setup.seeds.len()];
    let budget = ft_platform::clock::Stopwatch::start();
    while walls.len() < 3 || budget.elapsed_seconds() < cfg.seconds {
        setup_sampler.poll(budget.elapsed_seconds())?;
        let mut got = Vec::new();
        let mut pass_wall = 0.0;
        for (j, &seed) in setup.seeds.iter().enumerate() {
            let (r, t) = timed(|| localise(&setup, seed));
            got.push(r?);
            fastest[j] = fastest[j].min(t);
            pass_wall += t;
        }
        walls.push(pass_wall);
        for (r, w) in got.iter().zip(&want) {
            out.attempted += w.len() as u64;
            out.failed += mismatches(&digests(r), w);
        }
    }
    out.passes(&walls);
    // Each localisation is deterministic work of about 0.2 s, so the sum of
    // their fastest times needs a quiet moment of one localisation at a
    // time, not of all of them in a row.
    let wall: f64 = fastest.iter().sum();
    out.metrics.put("wall_s", wall, "s");
    out.metrics.put("setup_s", setup_sampler.finish()?, "s");
    out.metrics
        .put("ops_per_s", executions_per_pass / wall, "1/s");
    out.metrics
        .put("peak_rss_mib", crate::util::peak_rss_mib(), "MiB");
    out.note("executions_per_pass", executions_per_pass);
    Ok(out)
}

// ---------------------------------------------------------------------------
// Traced replay: a mirror of `CrossoverRefiner::refine` over public items.
// ---------------------------------------------------------------------------

/// `ReplicationBudget::next_block`.
fn next_block(budget: &ReplicationBudget, done: usize) -> usize {
    match *budget {
        ReplicationBudget::Fixed(n) => n.saturating_sub(done),
        ReplicationBudget::Adaptive { min, max, .. }
        | ReplicationBudget::AdaptiveDelta { min, max, .. } => {
            let cap = max.max(min);
            if done < min {
                min - done
            } else {
                ReplicationBudget::BLOCK.min(cap.saturating_sub(done))
            }
        }
    }
}

fn precision_target(rel: f64, mean: f64) -> f64 {
    (rel * mean.abs()).max(ReplicationBudget::ABS_PRECISION_FLOOR)
}

/// `ReplicationBudget::satisfied`.
fn satisfied(budget: &ReplicationBudget, acc: &Welford) -> bool {
    match *budget {
        ReplicationBudget::Fixed(n) => acc.count() >= n as u64,
        ReplicationBudget::Adaptive {
            rel_precision,
            min,
            max,
        }
        | ReplicationBudget::AdaptiveDelta {
            rel_precision,
            min,
            max,
        } => {
            let n = acc.count();
            if n < min.max(2) as u64 {
                return false;
            }
            if n >= max.max(min) as u64 {
                return true;
            }
            acc.ci95_half_width() <= precision_target(rel_precision, acc.mean())
        }
    }
}

/// `ReplicationBudget::delta_resolved`.
fn delta_resolved(budget: &ReplicationBudget, delta: &Welford) -> bool {
    match *budget {
        ReplicationBudget::AdaptiveDelta {
            rel_precision,
            min,
            max,
        } => {
            let n = delta.count();
            if n < min.max(2) as u64 {
                return false;
            }
            if n >= max.max(min) as u64 {
                return true;
            }
            let hw = delta.ci95_half_width();
            hw < delta.mean().abs() || hw <= precision_target(rel_precision, delta.mean())
        }
        _ => satisfied(budget, delta),
    }
}

/// Per-layer tallies of one traced pass.
#[derive(Debug, Default)]
struct Tally {
    expand_s: f64,
    expand_points: f64,
    model_s: f64,
    model_calls: f64,
    probe_s: f64,
    driver_s: f64,
    mirror_s: f64,
    run_s: f64,
    fast_s: f64,
    draws: u64,
    draw_s: f64,
    traces: u64,
    executions: u64,
    acc_pushes: u64,
    sim_probes: u64,
    mismatched_drivers: u64,
}

/// Seconds per recorded trace draw of `engine`'s model.
fn draw_ns(engine: &Engine) -> f64 {
    const DRAWS: usize = 4_096;
    let mut buffer = TraceBuffer::new(*engine.failure_model(), 0xD8A3);
    let ((), secs) = timed(|| {
        black_box(buffer.time(DRAWS - 1));
    });
    secs * 1e9 / DRAWS as f64
}

/// Seconds per push of one replication into the paired accumulators.
fn push_ns() -> f64 {
    const PUSHES: usize = 16_384;
    let mut acc = [OutcomeAccumulator::new(), OutcomeAccumulator::new()];
    let mut delta = Welford::new();
    let out = ft_sim::SimOutcome {
        final_time: 2.0,
        base_time: 1.0,
        failures: 1,
    };
    let ((), secs) = timed(|| {
        for k in 0..PUSHES {
            let o = ft_sim::SimOutcome {
                final_time: out.final_time + k as f64 * 1e-9,
                ..out
            };
            acc[0].push(black_box(&o));
            acc[1].push(black_box(&o));
            delta.push(o.waste() - out.waste());
        }
    });
    black_box((&acc, &delta));
    secs * 1e9 / PUSHES as f64
}

/// Mirror of `accumulate_paired_engine` (no antithetic pairing) over a
/// trace buffer whose model counts its draws.
fn drive_paired(
    engine: &Engine,
    profile: &ApplicationProfile,
    budget: ReplicationBudget,
    master: u64,
    t: &mut Tally,
) -> PairedAccumulator {
    let draws = Cell::new(0u64);
    let mut acc = PairedAccumulator {
        protocols: PROTOCOLS.to_vec(),
        outcomes: vec![OutcomeAccumulator::new(); PROTOCOLS.len()],
        deltas: vec![Welford::new(); PROTOCOLS.len()],
    };
    let mut seeds = SeedStream::new(master);
    let mut buffer = TraceBuffer::new(
        CountingModel {
            inner: *engine.failure_model(),
            draws: &draws,
        },
        master,
    );
    let mut done = 0;
    loop {
        let block = next_block(&budget, done);
        if block == 0 {
            break;
        }
        for _ in 0..block {
            let seed = seeds.next().expect("seed streams are infinite");
            buffer.reset(seed);
            t.traces += 1;
            let mut baseline = 0.0;
            for (i, &protocol) in PROTOCOLS.iter().enumerate() {
                let (out, run_s) =
                    timed(|| engine.simulate_profile_replay(protocol, profile, &mut buffer));
                t.run_s += run_s;
                t.executions += 1;
                acc.outcomes[i].push(&out);
                if i == 0 {
                    baseline = out.waste();
                } else {
                    acc.deltas[i].push(out.waste() - baseline);
                }
            }
            t.acc_pushes += 3;
        }
        done += block;
        let resolved =
            budget.is_paired_delta() && acc.deltas[1..].iter().all(|d| delta_resolved(&budget, d));
        if resolved || acc.outcomes.iter().all(|o| satisfied(&budget, &o.waste)) {
            break;
        }
    }
    t.draws += draws.get();
    acc
}

/// Replays simulated probe `index` of a refinement by `refiner`: the probe's
/// one-point expansion and the library's replication driver, timed at their
/// boundaries, then the decorated mirror of that driver, which must agree
/// bit for bit.  Returns the replayed probe's digest.
fn replay_probe(
    refiner: &CrossoverRefiner,
    probe: &CrossoverProbe,
    index: u64,
    t: &mut Tally,
) -> Result<u64, String> {
    let spec = SweepSpec {
        axes: vec![Axis::values(refiner.axis, vec![probe.value])],
        protocols: PROTOCOLS.to_vec(),
        paired: true,
        ..refiner.spec.clone()
    };
    let sw = ft_platform::clock::Stopwatch::start();
    let (grid, expand_s) = timed(|| spec.expand());
    t.expand_s += expand_s;
    let grid = grid.map_err(|e| e.to_string())?;
    t.expand_points += grid.len() as f64;
    let point = &grid[0];
    let params = point.params.ok_or("a simulated probe outside the model's domain")?;
    let (scenario, nodes) = point
        .scenario
        .ok_or("the crossover axis is a scaling axis")?;
    let profile = ApplicationProfile::uniform(
        scenario.epochs,
        scenario.general_duration(nodes),
        scenario.library_duration(nodes),
    )
    .map_err(|e| e.to_string())?;
    let engine = Engine::with_failure_spec(&params, point.failure_spec(spec.failure))
        .map_err(|e| e.to_string())?;
    let seed = SeedStream::nth_seed(spec.seed ^ REFINER_SEED_TAG, index);
    let (library, driver_s) =
        timed(|| accumulate_paired_engine(&engine, &PROTOCOLS, &profile, spec.plan(), seed));
    t.driver_s += driver_s;
    t.probe_s += sw.elapsed_seconds();
    let draws_before = t.draws;
    let (acc, mirror_s) = timed(|| drive_paired(&engine, &profile, spec.budget, seed, t));
    t.mirror_s += mirror_s;
    if acc != library {
        t.mismatched_drivers += 1;
    }
    t.draw_s += (t.draws - draws_before) as f64 * draw_ns(&engine) * 1e-9;
    // The fast pass alone: a failure-free execution is the same for every
    // replication, so a few timed samples per protocol scale to all.
    const FREE_SAMPLES: usize = 4;
    let ((), free_s) = timed(|| {
        for _ in 0..FREE_SAMPLES {
            black_box(engine.run_with(
                &PureExecutor,
                &profile,
                SimClock::with_source(NoFailures),
            ));
            black_box(engine.run_with(
                &CompositeExecutor,
                &profile,
                SimClock::with_source(NoFailures),
            ));
        }
    });
    t.fast_s += free_s / FREE_SAMPLES as f64 * library.replications() as f64;
    t.sim_probes += 1;
    let delta = &library.deltas[1];
    let (mean, hw) = (delta.mean(), delta.ci95_half_width());
    Ok(probe_digest(&CrossoverProbe {
        value: probe.value,
        delta: mean,
        ci95: hw,
        replications: library.replications(),
        composite_beats: mean < 0.0,
        decided: hw < mean.abs(),
    }))
}

/// Counts that must repeat exactly.
pub const COUNTS: &[&str] = &[
    "expand.points",
    "model.calls",
    "refine.probes",
    "refine.sim_probes",
    "refine.executions",
    "fill.calls",
    "redraw.count",
    "acc.pushes",
    "executions",
    "render.bytes",
];

/// The traced run.
pub fn traced(cfg: &RunConfig) -> Result<Outcome, String> {
    let setup = setup(cfg.seed)?;
    let grid = bracket(&setup)?;
    let mut want = Vec::new();
    for &seed in &setup.seeds {
        let r = localise(&setup, seed)?;
        check(&r, grid)?;
        want.push(digests(&r));
    }
    let mut out = Outcome::new("crossover", cfg, combine(want.iter().flatten().copied()));
    let mut samples = LayerSamples::default();
    let budget = ft_platform::clock::Stopwatch::start();
    let push = push_ns();
    while samples.sets.is_empty() || budget.elapsed_seconds() < cfg.seconds {
        let mut t = Tally::default();
        let mut s = BTreeMap::new();
        let (mut render_s, mut render_bytes) = (0.0, 0.0);
        let (mut probes, mut executions) = (0.0, 0.0);
        let mut task_times = Vec::new();
        for (&seed, digest) in setup.seeds.iter().zip(&want) {
            let refiner = with_seed(&setup.refiner, seed);
            let ((seeding, bracket), seeding_s) = timed(|| {
                let g = setup.seeding.run().map_err(|e| e.to_string());
                let b = g.as_ref().ok().and_then(|g| g.crossover_bracket(AXIS));
                (g, b)
            });
            seeding?;
            let (below, above) = bracket.ok_or("the seeding grid shows no crossover")?;
            t.model_s += seeding_s;
            t.model_calls += (setup.seeding.axes[0].values.len() * PROTOCOLS.len()) as f64;
            t.expand_points += setup.seeding.axes[0].values.len() as f64;
            // The refiner's model arm on its own: the free analytic
            // bisection its simulated window is seeded from.
            let model_refiner = CrossoverRefiner {
                spec: SweepSpec {
                    budget: ReplicationBudget::Fixed(0),
                    ..refiner.spec.clone()
                },
                model_seed: false,
                ..refiner.clone()
            };
            let (model, model_s) = timed(|| model_refiner.refine(below, above));
            let model = model.map_err(|e| e.to_string())?;
            t.model_s += model_s;
            t.model_calls += (2 * model.probes.len()) as f64;
            let (r, refine_s) = timed(|| refiner.refine(below, above));
            let r = r.map_err(|e| e.to_string())?;
            task_times.push(seeding_s + refine_s);
            let (text, rs) = timed(|| render(&r));
            render_s += rs;
            render_bytes += text.len() as f64;
            probes += r.probes.len() as f64;
            executions += r.total_replications() as f64;
            out.attempted += digest.len() as u64;
            out.failed += mismatches(&digests(&r), digest);
            if r.model_crossover.is_some_and(|c| c != model.crossover) {
                return Err("the model-only bisection found another crossover".into());
            }
            for (i, p) in r.probes.iter().enumerate() {
                if p.replications > 0 {
                    let replayed = replay_probe(&refiner, p, i as u64, &mut t)?;
                    out.attempted += 1;
                    out.failed += u64::from(replayed != probe_digest(p));
                }
            }
        }
        if t.mismatched_drivers > 0 {
            return Err(format!(
                "{} mirrored drivers disagree with the library",
                t.mismatched_drivers
            ));
        }
        let busy: f64 = task_times.iter().sum();
        s.insert("expand.s", t.expand_s);
        s.insert("expand.points", t.expand_points);
        s.insert("model.calls", t.model_calls);
        s.insert("model.s", t.model_s);
        s.insert("sched.busy_s", busy);
        s.insert(
            "sched.task_max_over_mean",
            task_times.iter().copied().fold(0.0, f64::max) * task_times.len() as f64 / busy,
        );
        // No grid scheduler: the localisations and their probes run one
        // after another on the calling thread.
        s.insert("sched.idle_share", 0.0);
        s.insert("render.s", render_s);
        s.insert("render.bytes", render_bytes);
        s.insert("refine.probes", probes);
        s.insert("refine.sim_probes", t.sim_probes as f64);
        s.insert("refine.executions", executions);
        s.insert("probe.s", t.probe_s);
        s.insert("run.s", t.run_s);
        s.insert("fast.s", t.fast_s);
        s.insert("slow.s", t.run_s - t.fast_s - t.draw_s);
        s.insert("driver.s", t.driver_s);
        s.insert(
            "adaptive.reps_used_ratio",
            executions / 2.0 / (t.sim_probes.max(1) as f64 * MAX_REPS as f64),
        );
        // A recorded trace's first draw plays the role of the batch engine's
        // columnar fill; every later draw is an interrupt redraw.
        let ns = t.draw_s * 1e9 / t.draws.max(1) as f64;
        s.insert("fill.calls", t.traces as f64);
        s.insert("fill.draws", t.traces as f64);
        s.insert("fill.s", t.traces as f64 * ns * 1e-9);
        s.insert("fill.ns_per_draw", ns);
        let redraws = t.draws.saturating_sub(t.traces);
        s.insert("redraw.count", redraws as f64);
        s.insert(
            "redraw.per_exec",
            redraws as f64 / t.executions.max(1) as f64,
        );
        s.insert("redraw.s", redraws as f64 * ns * 1e-9);
        s.insert("redraw.ns_per_draw", ns);
        s.insert("acc.pushes", t.acc_pushes as f64);
        s.insert("acc.s", t.acc_pushes as f64 / 3.0 * push * 1e-9);
        s.insert("executions", t.executions as f64);
        // The decorated drivers against the library's, on the same probes.
        s.insert("trace.overhead_s", t.mirror_s - t.driver_s);
        samples.sets.push(s);
    }
    if !samples.counts_repeat(COUNTS) {
        return Err("a count differs between traced passes".into());
    }
    out.layers = samples;
    Ok(out)
}
