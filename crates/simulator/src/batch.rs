//! Batched structure-of-arrays simulation engine.
//!
//! The scalar executors in [`crate::engine`] advance one replication at a
//! time through a chain of dependent float additions: every `try_run` waits
//! on the previous one's clock value.  This module advances **many
//! replications of the same parameter point in lockstep** over
//! structure-of-arrays state (per-lane current time, next-failure time and
//! failure count), so failure-free stretches — the overwhelmingly common
//! case on realistic MTBFs — collapse into fused, branch-free array passes
//! with independent per-lane dependency chains.
//!
//! # Why lockstep is possible at all
//!
//! In every protocol of the study, failures only cause *retries*: they never
//! change **which** activities run in **what order**.  The step program of
//! `engine::emit_steps` — periods of checkpointed work, forced
//! checkpoints, ABFT-protected phases — is a pure function of `(protocol,
//! profile, plan)`.  [`BatchProgram::compile`] collects it once per
//! parameter point; lanes then share the program position while owning their
//! simulation clocks.
//!
//! # Why the result is bit-exact
//!
//! For each program step, a lane is advanced by one of two paths:
//!
//! * **fast path** — the optimistic pass computes the step's end time with
//!   *exactly the float additions, in exactly the order*, that the step's
//!   first attempt would perform, and commits it only if the step provably
//!   completes before the lane's next failure.  For a work+checkpoint
//!   period the single test `(now + work) + ckpt < next_failure` implies the
//!   two sequential `try_run` tests (`now + work ≥ (now + work) + ckpt`
//!   can't hold for a nonnegative checkpoint under round-to-nearest), and the
//!   committed end time is the bit pattern the clock would hold;
//! * **slow path** — a lane whose step may be interrupted is left untouched
//!   by the optimistic pass and then reruns the step on a
//!   [`SimClock`] over that lane's own failure source, through the one
//!   interpreter every simulation path shares (`Step::run`).
//!   At width 1 the batch engine *is* the scalar interpreter behind a
//!   one-lane fast pass.
//!
//! Per-lane failure sequences come from [`BatchFailureSource`]s whose lanes
//! are bit-identical to the scalar sources (see `ft_platform::batch`), so
//! every lane reproduces its scalar replication's [`SimOutcome`] exactly —
//! the contract the differential oracle harness
//! (`tests/batch_engine_oracle.rs`) enforces across failure families,
//! protocols, profiles, batch widths and source flavours.
//!
//! # Entry points
//!
//! * [`simulate_profile_batch`] / [`simulate_profile_batch_antithetic`] /
//!   [`simulate_profile_batch_replay`] — one batch, one outcome per lane
//!   (the oracle harness surface);
//! * [`accumulate_profile_engine_batch`] — batch counterpart of
//!   [`crate::replicate::accumulate_profile_engine`]: same seed stream, same
//!   push order, same adaptive stopping checks, bit-identical accumulator;
//! * [`accumulate_paired_engine_batch`] — batch counterpart of
//!   [`crate::replicate::accumulate_paired_engine`] (common random numbers
//!   across protocols, paired-delta stopping);
//! * [`accumulate_paired_programs_batch`] — the one replication driver:
//!   pre-compiled (usually [`BatchProgramCache`]d) programs, one per
//!   protocol, with an intra-point `threads` knob that splits replication
//!   blocks across OS threads while staying bit-identical to the serial
//!   driver (deterministic [`SeedStream::nth_seed`] offsets,
//!   order-preserving merge, stopping checks on the same block boundaries);
//!   [`accumulate_profile_program_batch`] is that driver over one program.
//!
//! The sweep subsystem runs every simulation through these drivers, at
//! every `--batch-lanes` width including 1.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use ft_composite::scenario::ApplicationProfile;
use ft_platform::batch::{BatchFailureSource, BatchFailureStream, BatchTraceBuffer};
use ft_platform::failure::{FailureModel, FailureSource};
use ft_platform::rng::SeedStream;

use crate::clock::SimClock;
use crate::engine::{emit_steps, Engine, PeriodPlan, Step};
use crate::protocols::{Protocol, SimOutcome};
use crate::replicate::{PairedAccumulator, ReplicationBudget, ReplicationPlan};
use crate::stats::{OutcomeAccumulator, Welford};

/// Default lane width of the batch engine: wide enough to amortise the
/// per-step pass and expose plenty of independent dependency chains, small
/// enough that the SoA state stays resident in L1.
pub const DEFAULT_BATCH_LANES: usize = 128;

/// A protocol × profile × plan compiled into the straight-line sequence of
/// failure-interruptible steps every replication of the point executes.
///
/// Compilation happens once per parameter point; running the program
/// advances all lanes of a [`BatchState`] through the steps in lockstep.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchProgram {
    steps: Vec<Step>,
    base_time: f64,
    plan: PeriodPlan,
}

/// Structure-of-arrays per-lane simulation state: the batch counterpart of a
/// bank of [`crate::clock::SimClock`]s.
#[derive(Debug, Clone, Default)]
pub struct BatchState {
    now: Vec<f64>,
    next_failure: Vec<f64>,
    failures: Vec<usize>,
    /// Dense worklist of the lanes whose current step missed the fast path,
    /// in ascending lane order.  The slow path walks only this compacted
    /// list, so a step with few interrupted lanes never re-reads the dead
    /// ones.
    interrupted: Vec<u32>,
}

impl BatchState {
    /// An empty state; [`BatchProgram::run`] sizes it to the source's lanes.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of lanes currently held.
    #[inline]
    pub fn lanes(&self) -> usize {
        self.now.len()
    }

    /// Resets to `source.lanes()` fresh lanes at time zero, drawing each
    /// lane's first failure — the batch counterpart of
    /// [`crate::clock::SimClock::with_source`]'s eager first draw, taken
    /// through the source's columnar bulk path.
    fn reset<S: BatchFailureSource>(&mut self, source: &mut S) {
        let lanes = source.lanes();
        self.now.clear();
        self.now.resize(lanes, 0.0);
        self.failures.clear();
        self.failures.resize(lanes, 0);
        self.next_failure.clear();
        self.next_failure.resize(lanes, 0.0);
        source.fill_next_failures(lanes, &mut self.next_failure);
        self.interrupted.clear();
    }
}

/// Lane `lane` of a batch failure source seen as a scalar
/// [`FailureSource`]: the slow path runs each interrupted lane on a
/// [`SimClock`] over it, through the same `Step::run` retry loops as the
/// scalar executors.
struct BatchLane<'s, S> {
    source: &'s mut S,
    lane: usize,
}

impl<S: BatchFailureSource> FailureSource for BatchLane<'_, S> {
    #[inline]
    fn next_failure(&mut self) -> f64 {
        self.source.next_failure(self.lane)
    }

    fn mean_interarrival(&self) -> f64 {
        self.source.mean_interarrival()
    }
}

/// Advances every lane one failure-free step of `a + b` cost, branch-free:
/// lanes whose optimistic end time `(now + a) + b` stays strictly before the
/// next failure commit it (the exact float additions, in the exact order, of
/// the scalar engine's first attempt); the rest are **compacted** into
/// `interrupted`, a dense worklist of lane indices in ascending order.  The
/// worklist write is unconditional with a predicated length bump, so the
/// pass stays branch-free even when interrupts are common.
#[inline]
fn fast_pass_two(now: &mut [f64], next_failure: &[f64], interrupted: &mut Vec<u32>, a: f64, b: f64) {
    let lanes = now.len();
    interrupted.clear();
    interrupted.resize(lanes, 0);
    let mut hits = 0usize;
    for (lane, (t, &nf)) in now.iter_mut().zip(next_failure).enumerate() {
        let end = (*t + a) + b;
        let ok = end < nf;
        *t = if ok { end } else { *t };
        interrupted[hits] = lane as u32;
        hits += usize::from(!ok);
    }
    interrupted.truncate(hits);
}

/// Single-addition counterpart of [`fast_pass_two`] for steps with one cost
/// term.
#[inline]
fn fast_pass_one(now: &mut [f64], next_failure: &[f64], interrupted: &mut Vec<u32>, a: f64) {
    let lanes = now.len();
    interrupted.clear();
    interrupted.resize(lanes, 0);
    let mut hits = 0usize;
    for (lane, (t, &nf)) in now.iter_mut().zip(next_failure).enumerate() {
        let end = *t + a;
        let ok = end < nf;
        *t = if ok { end } else { *t };
        interrupted[hits] = lane as u32;
        hits += usize::from(!ok);
    }
    interrupted.truncate(hits);
}

impl BatchProgram {
    /// Collects the step program `emit_steps` compiles for `protocol`
    /// over `profile` under `plan`.
    pub fn compile(protocol: Protocol, profile: &ApplicationProfile, plan: &PeriodPlan) -> Self {
        let mut steps = Vec::new();
        emit_steps(protocol, profile, plan, |step| steps.push(step));
        Self {
            steps,
            base_time: profile.total_duration(),
            plan: *plan,
        }
    }

    /// The compiled steps, in execution order.
    #[inline]
    pub(crate) fn steps(&self) -> &[Step] {
        &self.steps
    }

    /// The failure-free application duration lanes are normalised against.
    #[inline]
    pub fn base_time(&self) -> f64 {
        self.base_time
    }

    /// Number of compiled steps (one per failure-interruptible attempt unit).
    #[inline]
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the program performs no work at all.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Runs every lane of `source` through the whole program in lockstep.
    /// `state` is reset to the source's lane count first; read per-lane
    /// results with [`BatchProgram::outcome`] afterwards.
    ///
    /// Each step first sweeps all lanes through a branch-free fast pass —
    /// two adds, a compare, and a select per lane over contiguous arrays —
    /// committing every lane the step completes failure-free and compacting
    /// the rest into a dense worklist of lane indices.  Only the worklist
    /// lanes take the slow path, `Step::run` on a [`SimClock`] over the
    /// lane — no re-scan of the committed lanes.
    pub fn run<S: BatchFailureSource>(&self, source: &mut S, state: &mut BatchState) {
        state.reset(source);
        let lanes = state.lanes();
        for &step in &self.steps {
            let (now, next_failure) = (&mut state.now[..lanes], &state.next_failure[..lanes]);
            match step {
                Step::Period { work, ckpt } => {
                    fast_pass_two(now, next_failure, &mut state.interrupted, work, ckpt)
                }
                Step::Forced { cost } | Step::AbftWork { work: cost } | Step::AbftCkpt { cost } => {
                    fast_pass_one(now, next_failure, &mut state.interrupted, cost)
                }
            }
            // Interrupted lanes rerun the step from its start on their own
            // clock; indexing the worklist (instead of holding a borrow on
            // it) keeps `state` free for the per-lane load/store.
            for k in 0..state.interrupted.len() {
                let lane = state.interrupted[k] as usize;
                let mut clock = SimClock::resume(
                    BatchLane {
                        source: &mut *source,
                        lane,
                    },
                    state.now[lane],
                    state.next_failure[lane],
                    state.failures[lane],
                );
                step.run(&mut clock, &self.plan);
                state.now[lane] = clock.now();
                state.next_failure[lane] = clock.next_failure_time();
                state.failures[lane] = clock.failures();
            }
        }
    }

    /// The finished outcome of one lane after [`BatchProgram::run`].
    #[inline]
    pub fn outcome(&self, state: &BatchState, lane: usize) -> SimOutcome {
        SimOutcome {
            final_time: state.now[lane],
            base_time: self.base_time,
            failures: state.failures[lane],
        }
    }
}

/// Simulates one batch of `protocol` over `profile`: lane `i` draws a fresh
/// failure sequence from `seeds[i]` and reproduces, bit for bit, the scalar
/// [`Engine::simulate_profile`] outcome on that seed.
pub fn simulate_profile_batch(
    engine: &Engine,
    protocol: Protocol,
    profile: &ApplicationProfile,
    seeds: &[u64],
) -> Vec<SimOutcome> {
    let program = BatchProgram::compile(protocol, profile, engine.plan());
    let mut stream = BatchFailureStream::new(*engine.failure_model(), seeds);
    let mut state = BatchState::new();
    program.run(&mut stream, &mut state);
    (0..seeds.len()).map(|lane| program.outcome(&state, lane)).collect()
}

/// [`simulate_profile_batch`] over the **antithetic partner** sequences of
/// the seeds: lane `i` reproduces the scalar replay of
/// [`ft_platform::trace::TraceBuffer::reset_antithetic`] on `seeds[i]`.
pub fn simulate_profile_batch_antithetic(
    engine: &Engine,
    protocol: Protocol,
    profile: &ApplicationProfile,
    seeds: &[u64],
) -> Vec<SimOutcome> {
    let program = BatchProgram::compile(protocol, profile, engine.plan());
    let mut stream = BatchFailureStream::new(*engine.failure_model(), seeds);
    stream.reset_antithetic(seeds);
    let mut state = BatchState::new();
    program.run(&mut stream, &mut state);
    (0..seeds.len()).map(|lane| program.outcome(&state, lane)).collect()
}

/// Simulates one batch of `protocol` over `profile`, **replaying** the
/// failure sequences recorded in `buffer` lane by lane (batch common random
/// numbers): lane `i` reproduces the scalar
/// [`Engine::simulate_profile_replay`] outcome over `buffer`'s lane `i`.
pub fn simulate_profile_batch_replay<M: FailureModel + Clone>(
    engine: &Engine,
    protocol: Protocol,
    profile: &ApplicationProfile,
    buffer: &mut BatchTraceBuffer<M>,
) -> Vec<SimOutcome> {
    let program = BatchProgram::compile(protocol, profile, engine.plan());
    let lanes = buffer.lanes();
    let mut cursors = buffer.cursors();
    let mut state = BatchState::new();
    program.run(&mut cursors, &mut state);
    (0..lanes).map(|lane| program.outcome(&state, lane)).collect()
}

/// A compiled-program cache keyed by the exact `(protocol, profile, plan)`
/// triple, shared across the threads of a sweep executor.
///
/// Sweep grids revisit the same compiled step sequence many times — every
/// period-plan candidate of a bisection, every replication budget probe —
/// and [`BatchProgram::compile`] walks the whole profile each time.  The
/// cache keys on the protocol, every epoch duration and every plan field *by
/// bit pattern*, so two triples share a program only when compilation would
/// be bit-identical anyway.
#[derive(Debug, Default)]
pub struct BatchProgramCache {
    programs: Mutex<BTreeMap<ProgramKey, Arc<BatchProgram>>>,
}

/// Bit-pattern identity of a compilation input triple.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct ProgramKey {
    protocol: Protocol,
    epochs: Vec<(u64, u64)>,
    plan: [u64; 10],
}

impl ProgramKey {
    fn new(protocol: Protocol, profile: &ApplicationProfile, plan: &PeriodPlan) -> Self {
        Self {
            protocol,
            epochs: profile
                .epochs()
                .iter()
                .map(|e| (e.general.to_bits(), e.library.to_bits()))
                .collect(),
            plan: [
                plan.full_period.to_bits(),
                plan.library_period.to_bits(),
                plan.ckpt_full.to_bits(),
                plan.ckpt_library.to_bits(),
                plan.ckpt_remainder.to_bits(),
                plan.recovery.to_bits(),
                plan.recovery_remainder.to_bits(),
                plan.downtime.to_bits(),
                plan.phi.to_bits(),
                plan.abft_reconstruction.to_bits(),
            ],
        }
    }
}

impl BatchProgramCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The program compiled from `(protocol, profile, plan)`, compiling on
    /// the first request and returning the cached copy afterwards.
    pub fn get(
        &self,
        protocol: Protocol,
        profile: &ApplicationProfile,
        plan: &PeriodPlan,
    ) -> Arc<BatchProgram> {
        let key = ProgramKey::new(protocol, profile, plan);
        let mut programs = self.programs.lock().expect("program cache poisoned");
        Arc::clone(
            programs
                .entry(key)
                .or_insert_with(|| Arc::new(BatchProgram::compile(protocol, profile, plan))),
        )
    }

    /// Number of distinct compiled programs held.
    pub fn len(&self) -> usize {
        self.programs.lock().expect("program cache poisoned").len()
    }

    /// Whether the cache holds no program yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Resolves the `threads` knob of the intra-point drivers: `0` means "use
/// the host's available parallelism", anything else is taken literally.
fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        threads
    }
}

/// The next speculative *wave* of replication blocks: block boundaries are a
/// pure function of the budget and the replications already merged (see
/// [`ReplicationBudget::next_block`]), so the parallel driver can lay out
/// the blocks a wave executes before knowing whether stopping fires inside
/// it.  The wave is capped at `threads` lane-width segments so at most one
/// wave of work is ever speculated past a stopping decision.
fn next_wave(
    budget: &ReplicationBudget,
    done: usize,
    lanes: usize,
    threads: usize,
) -> Vec<(usize, usize)> {
    let mut blocks = Vec::new();
    let mut wave_done = done;
    let mut segments = 0usize;
    while segments < threads {
        let block = budget.next_block(wave_done);
        if block == 0 {
            break;
        }
        blocks.push((wave_done, block));
        segments += block.div_ceil(lanes);
        wave_done += block;
    }
    blocks
}

/// Splits a wave's blocks into the `(start, width)` segments the serial
/// driver's chunk loop would execute — lane-width chunks with a ragged tail
/// per block, in replication order.
fn wave_segments(blocks: &[(usize, usize)], lanes: usize) -> Vec<(usize, usize)> {
    let mut segments = Vec::new();
    for &(block_start, block_len) in blocks {
        let mut start = block_start;
        let mut remaining = block_len;
        while remaining > 0 {
            let width = remaining.min(lanes);
            segments.push((start, width));
            start += width;
            remaining -= width;
        }
    }
    segments
}

/// Runs `f` over every segment on `threads` scoped OS threads, returning the
/// results in segment order.  Segments are dealt to workers in contiguous
/// runs; because every segment's result is a pure function of its `(start,
/// width)` (the seeds come from [`SeedStream::nth_seed`]), the thread layout
/// is unobservable in the output.
fn run_segments<T, F>(segments: &[(usize, usize)], threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, usize) -> T + Sync,
{
    let per_worker = segments.len().div_ceil(threads).max(1);
    let mut results = Vec::with_capacity(segments.len());
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = segments
            .chunks(per_worker)
            .map(|run| {
                scope.spawn(move || {
                    run.iter()
                        .map(|&(start, width)| f(start, width))
                        .collect::<Vec<T>>()
                })
            })
            .collect();
        for handle in handles {
            results.extend(handle.join().expect("segment worker panicked"));
        }
    });
    results
}

/// The per-segment seed column: replication `start + j` draws seed
/// `nth_seed(master, start + j)` — exactly the value the serial driver's
/// shared [`SeedStream`] hands that replication.
fn segment_seeds(master_seed: u64, start: usize, width: usize) -> Vec<u64> {
    (0..width)
        .map(|j| SeedStream::nth_seed(master_seed, (start + j) as u64))
        .collect()
}

/// Batch counterpart of [`crate::replicate::accumulate_profile_engine`]:
/// replications are advanced `lanes` at a time through the compiled program,
/// but consume the **same seed stream in the same order**, feed the
/// [`OutcomeAccumulator`] with the same push sequence and apply the same
/// block-wise adaptive stopping checks — the returned accumulator is
/// bit-identical to the scalar path's.
///
/// `lanes` is the batch width; replication blocks that are not a multiple of
/// it run a ragged tail batch of the remaining width.
pub fn accumulate_profile_engine_batch(
    engine: &Engine,
    protocol: Protocol,
    profile: &ApplicationProfile,
    plan: impl Into<ReplicationPlan>,
    master_seed: u64,
    lanes: usize,
) -> OutcomeAccumulator {
    let program = BatchProgram::compile(protocol, profile, engine.plan());
    accumulate_profile_program_batch(engine, &program, plan, master_seed, lanes, 1)
}

/// [`accumulate_profile_engine_batch`] over a pre-compiled program, with an
/// intra-point `threads` knob: the paired driver
/// ([`accumulate_paired_programs_batch`]) over this one program, which has
/// no deltas to stream and stops by the marginal rule alone.
pub fn accumulate_profile_program_batch(
    engine: &Engine,
    program: &BatchProgram,
    plan: impl Into<ReplicationPlan>,
    master_seed: u64,
    lanes: usize,
    threads: usize,
) -> OutcomeAccumulator {
    let mut acc = PairedAccumulator {
        protocols: Vec::new(),
        outcomes: vec![OutcomeAccumulator::new()],
        deltas: vec![Welford::new()],
    };
    drive_programs(engine, &[program], plan.into(), master_seed, lanes, threads, &mut acc);
    std::mem::take(&mut acc.outcomes[0])
}

/// Batch counterpart of [`crate::replicate::accumulate_paired_engine`]: all
/// protocols replay the same per-lane failure sequences (common random
/// numbers), per-trace waste deltas stream against the baseline, and the
/// paired-delta / marginal stopping rules fire on the same block boundaries
/// as the scalar path — the returned [`PairedAccumulator`] is bit-identical.
pub fn accumulate_paired_engine_batch(
    engine: &Engine,
    protocols: &[Protocol],
    profile: &ApplicationProfile,
    plan: impl Into<ReplicationPlan>,
    master_seed: u64,
    lanes: usize,
) -> PairedAccumulator {
    let programs: Vec<BatchProgram> = protocols
        .iter()
        .map(|&p| BatchProgram::compile(p, profile, engine.plan()))
        .collect();
    let program_refs: Vec<&BatchProgram> = programs.iter().collect();
    accumulate_paired_programs_batch(engine, protocols, &program_refs, plan, master_seed, lanes, 1)
}

/// One protocol-set evaluation of a paired segment: per-protocol first-pass
/// outcomes plus (under antithetic pairing) per-protocol partner outcomes.
type PairedSegment = (Vec<Vec<SimOutcome>>, Vec<Vec<SimOutcome>>);

/// [`accumulate_paired_engine_batch`] over pre-compiled programs (one per
/// protocol, same order), with an intra-point `threads` knob.
///
/// `threads == 0` resolves to the host's available parallelism; `threads <=
/// 1` runs the serial driver.  The parallel driver splits replication blocks
/// into lane-width segments executed across scoped OS threads: every
/// segment derives its seeds by [`SeedStream::nth_seed`] offset (the exact
/// values the serial seed stream yields at those positions), results merge
/// into the accumulator in replication order, and stopping is evaluated on
/// the same block boundaries — so the result is bit-identical at every
/// thread count, speculating at most one wave of blocks past the stopping
/// decision.
pub fn accumulate_paired_programs_batch(
    engine: &Engine,
    protocols: &[Protocol],
    programs: &[&BatchProgram],
    plan: impl Into<ReplicationPlan>,
    master_seed: u64,
    lanes: usize,
    threads: usize,
) -> PairedAccumulator {
    assert_eq!(
        protocols.len(),
        programs.len(),
        "one compiled program per protocol, in protocol order"
    );
    let mut acc = PairedAccumulator {
        protocols: protocols.to_vec(),
        outcomes: vec![OutcomeAccumulator::new(); protocols.len()],
        deltas: vec![Welford::new(); protocols.len()],
    };
    if !protocols.is_empty() {
        drive_programs(engine, programs, plan.into(), master_seed, lanes, threads, &mut acc);
    }
    acc
}

/// The one replication driver of the batch engine: runs every program over
/// the same per-lane failure sequences, `lanes` replications at a time, and
/// pushes the outcomes (and their waste deltas against `programs[0]`) into
/// `acc`, whose `outcomes` and `deltas` hold one slot per program.
fn drive_programs(
    engine: &Engine,
    programs: &[&BatchProgram],
    plan: ReplicationPlan,
    master_seed: u64,
    lanes: usize,
    threads: usize,
    acc: &mut PairedAccumulator,
) {
    let budget = plan.budget;
    let lanes = lanes.max(1);
    let threads = resolve_threads(threads);
    let model = *engine.failure_model();
    // Serial and parallel drivers share the per-segment merge: the per-lane,
    // per-protocol push sequence of the scalar paired loop.
    let merge_segment =
        |acc: &mut PairedAccumulator, firsts: &[Vec<SimOutcome>], partners: &[Vec<SimOutcome>]| {
            let width = firsts[0].len();
            if plan.antithetic {
                for lane in 0..width {
                    let mut baseline_waste = 0.0;
                    for i in 0..firsts.len() {
                        let pair_waste =
                            (firsts[i][lane].waste() + partners[i][lane].waste()) / 2.0;
                        acc.outcomes[i].push_pair(&firsts[i][lane], &partners[i][lane]);
                        if i == 0 {
                            baseline_waste = pair_waste;
                        } else {
                            acc.deltas[i].push(pair_waste - baseline_waste);
                        }
                    }
                }
            } else {
                for lane in 0..width {
                    let mut baseline_waste = 0.0;
                    for (i, outcomes) in firsts.iter().enumerate() {
                        let out = outcomes[lane];
                        let waste = out.waste();
                        acc.outcomes[i].push(&out);
                        if i == 0 {
                            baseline_waste = waste;
                        } else {
                            acc.deltas[i].push(waste - baseline_waste);
                        }
                    }
                }
            }
        };
    let stopped = |acc: &PairedAccumulator| {
        let deltas_resolved = budget.is_paired_delta()
            && acc.deltas.len() > 1
            && acc.deltas[1..].iter().all(|d| budget.delta_resolved(d));
        deltas_resolved || acc.outcomes.iter().all(|o| budget.satisfied(&o.waste))
    };
    // Every program's stream restarts from the same segment seeds — the
    // batch form of replaying one recorded trace per seed to all protocols.
    let run_segment = |stream: &mut BatchFailureStream<_>,
                       state: &mut BatchState,
                       seeds: &[u64],
                       firsts: &mut [Vec<SimOutcome>],
                       partners: &mut [Vec<SimOutcome>]| {
        let outcomes = |program: &BatchProgram, state: &BatchState, out: &mut Vec<SimOutcome>| {
            out.clear();
            out.extend((0..seeds.len()).map(|lane| program.outcome(state, lane)));
        };
        for (program, out) in programs.iter().zip(firsts.iter_mut()) {
            stream.reset(seeds);
            program.run(stream, state);
            outcomes(program, state, out);
        }
        if plan.antithetic {
            for (program, out) in programs.iter().zip(partners.iter_mut()) {
                stream.reset_antithetic(seeds);
                program.run(stream, state);
                outcomes(program, state, out);
            }
        }
    };
    if threads > 1 {
        let mut done = 0usize;
        'drive: loop {
            let blocks = next_wave(&budget, done, lanes, threads);
            if blocks.is_empty() {
                break;
            }
            let segments = wave_segments(&blocks, lanes);
            let results = run_segments(&segments, threads, |start, width| -> PairedSegment {
                let seeds = segment_seeds(master_seed, start, width);
                let mut stream = BatchFailureStream::new(model, &[]);
                let mut firsts = vec![Vec::new(); programs.len()];
                let mut partners = vec![Vec::new(); programs.len()];
                run_segment(&mut stream, &mut BatchState::new(), &seeds, &mut firsts, &mut partners);
                (firsts, partners)
            });
            // Merge in replication order, block by block, replicating the
            // serial push sequence and stopping boundaries exactly; a wave
            // that over-speculated simply drops its unmerged tail.
            let mut segment = 0usize;
            for &(_, block_len) in &blocks {
                let mut merged = 0usize;
                while merged < block_len {
                    let (firsts, partners) = &results[segment];
                    merge_segment(acc, firsts, partners);
                    merged += firsts[0].len();
                    segment += 1;
                }
                done += block_len;
                if stopped(acc) {
                    break 'drive;
                }
            }
        }
        return;
    }
    let mut seeds = SeedStream::new(master_seed);
    let mut seed_buf = vec![0u64; lanes];
    let mut stream = BatchFailureStream::new(model, &[]);
    let mut state = BatchState::new();
    let mut firsts: Vec<Vec<SimOutcome>> = vec![Vec::with_capacity(lanes); programs.len()];
    let mut partners: Vec<Vec<SimOutcome>> = vec![Vec::with_capacity(lanes); programs.len()];
    let mut done = 0usize;
    loop {
        let block = budget.next_block(done);
        if block == 0 {
            break;
        }
        let mut remaining = block;
        while remaining > 0 {
            let width = remaining.min(lanes);
            let chunk = &mut seed_buf[..width];
            seeds.fill(chunk);
            run_segment(&mut stream, &mut state, chunk, &mut firsts, &mut partners);
            merge_segment(acc, &firsts, &partners);
            remaining -= width;
        }
        done += block;
        if stopped(acc) {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replicate::{
        accumulate_paired_engine, accumulate_profile_engine, ReplicationBudget,
    };
    use ft_composite::params::ModelParams;
    use ft_platform::failure::FailureSpec;
    use ft_platform::units::minutes;

    fn fig7_engine(spec: FailureSpec) -> Engine {
        let params = ModelParams::paper_figure7(0.5, minutes(120.0)).unwrap();
        Engine::with_failure_spec(&params, spec).unwrap()
    }

    fn seeds(n: usize) -> Vec<u64> {
        SeedStream::new(0xFEED).take(n).collect()
    }

    #[test]
    fn batch_lanes_match_scalar_simulations_bit_for_bit() {
        for spec in [FailureSpec::Exponential, FailureSpec::Weibull { shape: 0.7 }] {
            let engine = fig7_engine(spec);
            let profile = ApplicationProfile::from_params_repeated(engine.params(), 3);
            let seeds = seeds(33);
            for protocol in Protocol::all() {
                let batch = simulate_profile_batch(&engine, protocol, &profile, &seeds);
                for (lane, &seed) in seeds.iter().enumerate() {
                    let scalar = engine.simulate_profile(protocol, &profile, seed);
                    assert_eq!(
                        batch[lane].final_time.to_bits(),
                        scalar.final_time.to_bits(),
                        "{spec} {protocol:?} lane {lane}"
                    );
                    assert_eq!(batch[lane], scalar);
                }
            }
        }
    }

    #[test]
    fn antithetic_batch_matches_scalar_antithetic_replay() {
        let engine = fig7_engine(FailureSpec::Weibull { shape: 1.4 });
        let profile = ApplicationProfile::from_params(engine.params());
        let seeds = seeds(9);
        let mut buffer = engine.trace_buffer(0);
        for protocol in Protocol::all() {
            let batch = simulate_profile_batch_antithetic(&engine, protocol, &profile, &seeds);
            for (lane, &seed) in seeds.iter().enumerate() {
                buffer.reset_antithetic(seed);
                let scalar = engine.simulate_profile_replay(protocol, &profile, &mut buffer);
                assert_eq!(batch[lane], scalar, "{protocol:?} lane {lane}");
            }
        }
    }

    #[test]
    fn replay_batch_reuses_recorded_lanes() {
        let engine = fig7_engine(FailureSpec::Exponential);
        let profile = ApplicationProfile::from_params(engine.params());
        let seeds = seeds(7);
        let mut batch_buffer = BatchTraceBuffer::new(*engine.failure_model(), &seeds);
        // Two protocols replay the SAME recorded lanes — common random
        // numbers — and each lane matches its scalar replay.
        let pure = simulate_profile_batch_replay(
            &engine,
            Protocol::PurePeriodicCkpt,
            &profile,
            &mut batch_buffer,
        );
        let composite = simulate_profile_batch_replay(
            &engine,
            Protocol::AbftPeriodicCkpt,
            &profile,
            &mut batch_buffer,
        );
        let mut scalar_buffer = engine.trace_buffer(0);
        for (lane, &seed) in seeds.iter().enumerate() {
            scalar_buffer.reset(seed);
            let a = engine.simulate_profile_replay(
                Protocol::PurePeriodicCkpt,
                &profile,
                &mut scalar_buffer,
            );
            let b = engine.simulate_profile_replay(
                Protocol::AbftPeriodicCkpt,
                &profile,
                &mut scalar_buffer,
            );
            assert_eq!(pure[lane], a, "lane {lane}");
            assert_eq!(composite[lane], b, "lane {lane}");
        }
    }

    #[test]
    fn batch_accumulator_is_bit_identical_to_the_scalar_path() {
        let engine = fig7_engine(FailureSpec::Exponential);
        let profile = ApplicationProfile::from_params(engine.params());
        for budget in [
            ReplicationBudget::Fixed(130), // ragged: 130 = 2×50 + 30 over 50-lanes
            ReplicationBudget::Adaptive {
                rel_precision: 0.05,
                min: 60,
                max: 400,
            },
        ] {
            for antithetic in [false, true] {
                let plan = ReplicationPlan::new(budget).antithetic(antithetic);
                let scalar = accumulate_profile_engine(
                    &engine,
                    Protocol::AbftPeriodicCkpt,
                    &profile,
                    plan,
                    77,
                );
                for lanes in [1, 7, 50, 256] {
                    let batch = accumulate_profile_engine_batch(
                        &engine,
                        Protocol::AbftPeriodicCkpt,
                        &profile,
                        plan,
                        77,
                        lanes,
                    );
                    assert_eq!(scalar, batch, "{budget:?} antithetic={antithetic} lanes={lanes}");
                }
            }
        }
    }

    #[test]
    fn paired_batch_accumulator_is_bit_identical_to_the_scalar_path() {
        let engine = fig7_engine(FailureSpec::Weibull { shape: 0.7 });
        let profile = ApplicationProfile::from_params(engine.params());
        let protocols = [Protocol::PurePeriodicCkpt, Protocol::AbftPeriodicCkpt];
        for budget in [
            ReplicationBudget::Fixed(90),
            ReplicationBudget::AdaptiveDelta {
                rel_precision: 0.05,
                min: 60,
                max: 300,
            },
        ] {
            for antithetic in [false, true] {
                let plan = ReplicationPlan::new(budget).antithetic(antithetic);
                let scalar = accumulate_paired_engine(&engine, &protocols, &profile, plan, 5);
                for lanes in [1, 32, 128] {
                    let batch =
                        accumulate_paired_engine_batch(&engine, &protocols, &profile, plan, 5, lanes);
                    assert_eq!(scalar, batch, "{budget:?} antithetic={antithetic} lanes={lanes}");
                }
            }
        }
    }

    #[test]
    fn paired_batch_of_no_protocols_is_an_empty_no_op() {
        let engine = fig7_engine(FailureSpec::Exponential);
        let profile = ApplicationProfile::from_params(engine.params());
        let paired = accumulate_paired_engine_batch(
            &engine,
            &[],
            &profile,
            ReplicationBudget::Fixed(10),
            1,
            64,
        );
        assert_eq!(paired.replications(), 0);
        assert!(paired.outcomes.is_empty());
    }

    #[test]
    fn program_cache_hits_return_the_identical_compiled_program() {
        let engine = fig7_engine(FailureSpec::Exponential);
        let profile = ApplicationProfile::from_params(engine.params());
        let cache = BatchProgramCache::new();
        assert!(cache.is_empty());
        let first = cache.get(Protocol::AbftPeriodicCkpt, &profile, engine.plan());
        let second = cache.get(Protocol::AbftPeriodicCkpt, &profile, engine.plan());
        // A hit is the same allocation, and its steps are exactly what a
        // fresh compilation produces.
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(
            *first,
            BatchProgram::compile(Protocol::AbftPeriodicCkpt, &profile, engine.plan())
        );
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn program_cache_never_crosses_protocol_profile_or_plan_keys() {
        let engine = fig7_engine(FailureSpec::Exponential);
        let profile = ApplicationProfile::from_params(engine.params());
        let cache = BatchProgramCache::new();
        let base = cache.get(Protocol::AbftPeriodicCkpt, &profile, engine.plan());
        // Different protocol, same profile and plan.
        let other_protocol = cache.get(Protocol::PurePeriodicCkpt, &profile, engine.plan());
        assert!(!Arc::ptr_eq(&base, &other_protocol));
        // Different profile (extra epoch), same protocol and plan.
        let longer = ApplicationProfile::from_params_repeated(engine.params(), 2);
        let other_profile = cache.get(Protocol::AbftPeriodicCkpt, &longer, engine.plan());
        assert!(!Arc::ptr_eq(&base, &other_profile));
        // Different plan (perturbed period), same protocol and profile.
        let mut plan = *engine.plan();
        plan.full_period += 1.0;
        let other_plan = cache.get(Protocol::AbftPeriodicCkpt, &profile, &plan);
        assert!(!Arc::ptr_eq(&base, &other_plan));
        assert_eq!(cache.len(), 4);
        // Every distinct key holds the program its own triple compiles.
        assert_eq!(
            *other_plan,
            BatchProgram::compile(Protocol::AbftPeriodicCkpt, &profile, &plan)
        );
        // Re-requesting the original triple after the inserts still hits the
        // original program.
        let again = cache.get(Protocol::AbftPeriodicCkpt, &profile, engine.plan());
        assert!(Arc::ptr_eq(&base, &again));
        assert_eq!(cache.len(), 4);
    }

    #[test]
    fn parallel_block_driver_is_bit_identical_across_thread_counts() {
        let engine = fig7_engine(FailureSpec::Weibull { shape: 0.7 });
        let profile = ApplicationProfile::from_params(engine.params());
        let program = BatchProgram::compile(Protocol::AbftPeriodicCkpt, &profile, engine.plan());
        for budget in [
            ReplicationBudget::Fixed(130),
            ReplicationBudget::Adaptive {
                rel_precision: 0.05,
                min: 60,
                max: 400,
            },
        ] {
            for antithetic in [false, true] {
                let plan = ReplicationPlan::new(budget).antithetic(antithetic);
                let serial =
                    accumulate_profile_program_batch(&engine, &program, plan, 77, 50, 1);
                for threads in [2, 3, 5, 8] {
                    let parallel = accumulate_profile_program_batch(
                        &engine, &program, plan, 77, 50, threads,
                    );
                    assert_eq!(
                        serial, parallel,
                        "{budget:?} antithetic={antithetic} threads={threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn parallel_paired_driver_is_bit_identical_across_thread_counts() {
        let engine = fig7_engine(FailureSpec::Exponential);
        let profile = ApplicationProfile::from_params(engine.params());
        let protocols = [Protocol::PurePeriodicCkpt, Protocol::AbftPeriodicCkpt];
        let programs: Vec<BatchProgram> = protocols
            .iter()
            .map(|&p| BatchProgram::compile(p, &profile, engine.plan()))
            .collect();
        let refs: Vec<&BatchProgram> = programs.iter().collect();
        for budget in [
            ReplicationBudget::Fixed(90),
            ReplicationBudget::AdaptiveDelta {
                rel_precision: 0.05,
                min: 60,
                max: 300,
            },
        ] {
            for antithetic in [false, true] {
                let plan = ReplicationPlan::new(budget).antithetic(antithetic);
                let serial = accumulate_paired_programs_batch(
                    &engine, &protocols, &refs, plan, 5, 32, 1,
                );
                for threads in [2, 4, 7] {
                    let parallel = accumulate_paired_programs_batch(
                        &engine, &protocols, &refs, plan, 5, 32, threads,
                    );
                    assert_eq!(
                        serial, parallel,
                        "{budget:?} antithetic={antithetic} threads={threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn compiled_programs_cover_degenerate_profiles() {
        let engine = fig7_engine(FailureSpec::Exponential);
        // Zero-work profile compiles to an empty program for pure/bi and a
        // lone forced checkpoint for the composite when only library work
        // exists.
        let empty = ApplicationProfile::uniform(1, 0.0, 0.0).unwrap();
        let p = BatchProgram::compile(Protocol::PurePeriodicCkpt, &empty, engine.plan());
        assert!(p.is_empty());
        assert_eq!(p.base_time(), 0.0);
        let lib_only = ApplicationProfile::uniform(1, 0.0, minutes(30.0)).unwrap();
        let p = BatchProgram::compile(Protocol::AbftPeriodicCkpt, &lib_only, engine.plan());
        assert_eq!(p.len(), 3); // Forced + AbftWork + AbftCkpt
        let scalar = engine.simulate_profile(Protocol::AbftPeriodicCkpt, &lib_only, 3);
        let batch = simulate_profile_batch(&engine, Protocol::AbftPeriodicCkpt, &lib_only, &[3]);
        assert_eq!(batch[0], scalar);
    }
}
