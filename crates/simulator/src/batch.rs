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
//! The program runs in **blocks** of consecutive steps.  A block grows
//! greedily while every cost term is finite and non-negative, its summed
//! failure-free cost stays within one full checkpoint period
//! (`plan.full_period`) and it holds at most eight steps; it never crosses
//! the end of the step range being run (the paired driver's fork point).
//! For each block, a lane is advanced by one of two paths:
//!
//! * **fast path** — the optimistic pass computes the block's end time with
//!   *exactly the float additions, in exactly the order*, that its steps'
//!   first attempts would perform, and commits it only if every step
//!   provably completes before the lane's next failure.  Round-to-nearest
//!   addition of non-negative terms is monotone, so one test
//!   `end < next_failure` on the block's end implies every intermediate
//!   `try_run` test — for a work+checkpoint period `(now + work) + ckpt <
//!   next_failure` implies `now + work < next_failure` — and the committed
//!   end time is the bit pattern the clock would hold.  The pass is
//!   `ft_platform::batch::CommitKernel`, picked once per run at run time
//!   (AVX-512 where the CPU has it, a portable loop elsewhere; both add the
//!   same terms in the same order and compare with the same ordered `<`);
//! * **slow path** — a lane the optimistic pass misses is left untouched
//!   and reruns the step on a [`SimClock`] over that lane's own failure
//!   source, through the one interpreter every simulation path shares
//!   (`Step::run`).  A lane that misses a multi-step block first replays
//!   it step by step — each step's own fast-path test, and `Step::run`
//!   where that fails — so the lanes that reach `Step::run` are exactly
//!   those a step-at-a-time pass would send there, step by step in
//!   ascending lane order.
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
//! * [`simulate_profile_batch`] — one batch over any
//!   [`BatchFailureSource`] (fresh streams, antithetic partners, recorded
//!   trace lanes), one outcome per lane: the oracle harness surface;
//! * [`accumulate_paired_programs_batch`] — the one replication driver:
//!   pre-compiled (usually [`BatchProgramCache`]d) programs, one per
//!   protocol, over common random numbers, in one loop of waves of
//!   lane-width segments, at most `threads` per wave and one per worker,
//!   bit-identical at every thread count (deterministic
//!   [`SeedStream::nth_seed`] seeds, a merge in replication order, stopping
//!   checks on the block boundaries).  It reproduces the scalar
//!   reference [`crate::replicate::accumulate_paired_engine`] bit for bit:
//!   same seed stream, same push sequence, same stopping rule (both are
//!   [`PairedAccumulator`] methods);
//! * [`accumulate_profile_program_batch`] — that driver over one program.
//!
//! The sweep subsystem runs every simulation through the driver, at every
//! `--batch-lanes` width including 1.

use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::{Arc, Mutex};

use ft_composite::scenario::ApplicationProfile;
use ft_platform::batch::{
    BatchFailureSource, BatchFailureStream, CommitKernel, ForkRecord, Worklist,
};
use ft_platform::failure::{AnyFailureModel, FailureSource};
use ft_platform::rng::SeedStream;

use crate::clock::SimClock;
use crate::engine::{emit_steps, Engine, PeriodPlan, Step};
use crate::protocols::{Protocol, SimOutcome};
use crate::replicate::{PairedAccumulator, ReplicationPlan};
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
    /// Dense worklist of the lanes whose current step failed its fast-path
    /// test, in ascending lane order.  The slow path walks only this
    /// compacted list, so a step with few interrupted lanes never re-reads
    /// the dead ones.
    interrupted: Worklist,
    /// Dense worklist of the lanes the current multi-step block missed, in
    /// ascending lane order: the lanes that replay the block step by step.
    missed: Worklist,
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
        self.interrupted.clear(lanes);
    }

    /// Replays `step`'s own fast-path test for every lane of the `missed`
    /// worklist, branch-free: a lane the step completes failure-free
    /// commits the step's first attempt, the rest are compacted into
    /// `interrupted`, in ascending lane order.
    fn replay_test(&mut self, step: Step) {
        self.interrupted.clear(self.missed.len());
        for &lane in self.missed.as_slice() {
            let i = lane as usize;
            let end = first_attempt_end(self.now[i], step);
            let ok = end < self.next_failure[i];
            self.now[i] = if ok { end } else { self.now[i] };
            self.interrupted.push_if(lane, !ok);
        }
    }

    /// Overwrites every lane's clock with `snapshot`'s, reusing this state's
    /// allocations (the worklists are per-step scratch and are not copied).
    fn restore(&mut self, snapshot: &Self) {
        self.now.clone_from(&snapshot.now);
        self.next_failure.clone_from(&snapshot.next_failure);
        self.failures.clone_from(&snapshot.failures);
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

/// Most steps one fused block spans.
const MAX_BLOCK_STEPS: usize = 8;

/// The failure-free cost terms of `step`, in the order its first attempt
/// adds them to the clock: `([terms], count)`.
#[inline]
fn cost_terms(step: Step) -> ([f64; 2], usize) {
    match step {
        Step::Period { work, ckpt } => ([work, ckpt], 2),
        Step::Forced { cost } | Step::AbftWork { work: cost } | Step::AbftCkpt { cost } => {
            ([cost, 0.0], 1)
        }
    }
}

/// The end time of `step`'s first attempt from `now`: the additions the
/// fast pass commits, and the value the step's own fast-path test compares
/// with the next failure.
#[inline]
fn first_attempt_end(now: f64, step: Step) -> f64 {
    let (terms, n) = cost_terms(step);
    terms[..n].iter().fold(now, |t, &a| t + a)
}

/// The length of the block that starts at `steps[0]`: it grows over the
/// following steps while every cost term is finite and non-negative, the
/// summed failure-free cost stays at most `cap` and it holds at most
/// [`MAX_BLOCK_STEPS`] steps.  A first step that breaks the rule is a
/// single-step block of its own.
fn block_len(steps: &[Step], cap: f64) -> usize {
    let mut cost = 0.0;
    let mut len = 0;
    for &step in steps.iter().take(MAX_BLOCK_STEPS) {
        let (terms, n) = cost_terms(step);
        let terms = &terms[..n];
        cost = terms.iter().fold(cost, |c, &a| c + a);
        if !(terms.iter().all(|a| a.is_finite() && *a >= 0.0) && cost <= cap) {
            return len.max(1);
        }
        len += 1;
    }
    len
}

/// A step range of one program cut into its blocks once, with each block's
/// cost terms flattened in first-attempt order: what
/// [`BatchProgram::run_steps`] walks.  Consecutive blocks of the same
/// length and the same terms, bit for bit, are stored once as a run; each
/// block starts where the previous one ended.
#[derive(Debug, Clone, Default)]
struct BlockLayout {
    /// The first step of the range.
    start: usize,
    /// The runs of equal blocks, in order.
    runs: Vec<BlockRun>,
    /// Each run's cost terms, back to back.
    terms: Vec<f64>,
}

/// `count` consecutive blocks of `steps` steps each, whose `terms` cost
/// terms are the same bits.
#[derive(Debug, Clone, Copy)]
struct BlockRun {
    steps: u8,
    terms: u8,
    count: usize,
}

impl BlockLayout {
    /// The blocks [`BatchProgram::blocks`] takes over `steps` of `program`.
    fn new(program: &BatchProgram, steps: Range<usize>) -> Self {
        let mut layout = Self {
            start: steps.start,
            ..Self::default()
        };
        for block in program.blocks(steps) {
            let first_term = layout.terms.len();
            for &step in &program.steps[block.clone()] {
                let (terms, n) = cost_terms(step);
                layout.terms.extend_from_slice(&terms[..n]);
            }
            // `block_len` caps a block at `MAX_BLOCK_STEPS` steps of at
            // most two terms each, so both counts fit a byte.
            let run = BlockRun {
                steps: block.len() as u8,
                terms: (layout.terms.len() - first_term) as u8,
                count: 1,
            };
            match layout.runs.last_mut() {
                Some(last)
                    if (last.steps, last.terms) == (run.steps, run.terms)
                        && layout.terms[first_term - usize::from(run.terms)..]
                            .iter()
                            .zip(&layout.terms[first_term..])
                            .all(|(a, b)| a.to_bits() == b.to_bits()) =>
                {
                    last.count += 1;
                    layout.terms.truncate(first_term);
                }
                _ => layout.runs.push(run),
            }
        }
        layout
    }
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
    pub fn run<S: BatchFailureSource>(&self, source: &mut S, state: &mut BatchState) {
        state.reset(source);
        let layout = BlockLayout::new(self, 0..self.steps.len());
        self.run_steps(&layout, CommitKernel::detect(), source, state);
    }

    /// Advances every lane of `state` through the steps `layout` covers —
    /// the one step loop, which [`BatchProgram::run`] enters at step 0 and
    /// the paired driver also enters at the end of a shared prefix.
    ///
    /// The steps are taken in the layout's blocks (see
    /// [`BatchProgram::blocks`]).  Each block sweeps all lanes through one
    /// branch-free pass of `kernel` — the block's adds, one compare and one
    /// select per lane over contiguous arrays — committing every lane the
    /// block completes failure-free and compacting the rest into a dense
    /// worklist of lane indices.  For a single-step block the worklist lanes
    /// take the slow path directly, `Step::run` on a [`SimClock`] over the
    /// lane; the lanes a longer block misses replay it step by step, each
    /// step's own fast-path test first and `Step::run` where that test
    /// fails.
    fn run_steps<S: BatchFailureSource>(
        &self,
        layout: &BlockLayout,
        kernel: CommitKernel,
        source: &mut S,
        state: &mut BatchState,
    ) {
        let (mut step, mut term) = (layout.start, 0);
        for run in &layout.runs {
            let terms = &layout.terms[term..term + usize::from(run.terms)];
            term += terms.len();
            for _ in 0..run.count {
                let block = &self.steps[step..step + usize::from(run.steps)];
                step += block.len();
                let (now, next_failure) = (&mut state.now, &state.next_failure);
                if let [step] = *block {
                    kernel.commit(now, next_failure, terms, &mut state.interrupted);
                    self.slow_path(source, state, step);
                } else {
                    kernel.commit(now, next_failure, terms, &mut state.missed);
                    if state.missed.is_empty() {
                        continue;
                    }
                    for &step in block {
                        state.replay_test(step);
                        self.slow_path(source, state, step);
                    }
                }
            }
        }
    }

    /// The blocks a [`BlockLayout`] of `steps` holds, in order:
    /// from each block's first step, the greedy block of `block_len` under
    /// the plan's full period, cut at the end of `steps` — so no block
    /// crosses the paired driver's fork point.
    fn blocks(&self, steps: Range<usize>) -> impl Iterator<Item = Range<usize>> + '_ {
        let mut start = steps.start;
        std::iter::from_fn(move || {
            (start < steps.end).then(|| {
                let len = block_len(&self.steps[start..steps.end], self.plan.full_period);
                let block = start..start + len;
                start = block.end;
                block
            })
        })
    }

    /// Reruns `step` from its start for every `interrupted` lane, in
    /// order, on a [`SimClock`] over that lane's own failure source — the
    /// slow path, `Step::run`.
    fn slow_path<S: BatchFailureSource>(&self, source: &mut S, state: &mut BatchState, step: Step) {
        // Indexing the worklist (instead of holding a borrow on it) keeps
        // `state` free for the per-lane load/store.
        for k in 0..state.interrupted.len() {
            let lane = state.interrupted.as_slice()[k] as usize;
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

/// Simulates one batch of `protocol` over `profile`, lane `i` drawing its
/// failures from lane `i` of `source`.  Each lane reproduces, bit for bit,
/// the scalar executor over the same sequence: a [`BatchFailureStream`]
/// lane seeded `s` gives [`Engine::simulate_profile`] on seed `s` (after
/// `reset_antithetic`, the replay of the antithetic partner sequence), and
/// a [`ft_platform::batch::BatchTraceBuffer`]'s cursors give
/// [`Engine::simulate_profile_replay`] over each recorded lane.
pub fn simulate_profile_batch(
    engine: &Engine,
    protocol: Protocol,
    profile: &ApplicationProfile,
    source: &mut impl BatchFailureSource,
) -> Vec<SimOutcome> {
    let program = BatchProgram::compile(protocol, profile, engine.plan());
    let mut state = BatchState::new();
    program.run(source, &mut state);
    (0..state.lanes()).map(|lane| program.outcome(&state, lane)).collect()
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
            plan: plan_bits(plan),
        }
    }
}

/// Every field of `plan` by bit pattern.
fn plan_bits(plan: &PeriodPlan) -> [u64; 10] {
    [
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
    ]
}

/// A step's kind and every cost field by bit pattern: `Step`'s derived
/// `PartialEq` would equate `-0.0` with `0.0`.
fn step_bits(step: Step) -> (u8, u64, u64) {
    match step {
        Step::Period { work, ckpt } => (0, work.to_bits(), ckpt.to_bits()),
        Step::Forced { cost } => (1, cost.to_bits(), 0),
        Step::AbftWork { work } => (2, work.to_bits(), 0),
        Step::AbftCkpt { cost } => (3, cost.to_bits(), 0),
    }
}

/// Length of the longest step prefix every program shares, bit for bit —
/// `0` unless their plans (whose recovery costs the slow path reads) are
/// bit-identical too.  Over the same per-lane failure sequences the
/// programs drive every lane through the same states up to this step.
fn shared_prefix(programs: &[&BatchProgram]) -> usize {
    let Some((first, rest)) = programs.split_first() else {
        return 0;
    };
    rest.iter().fold(first.len(), |prefix, program| {
        if plan_bits(&program.plan) != plan_bits(&first.plan) {
            return 0;
        }
        first.steps[..prefix]
            .iter()
            .zip(&program.steps)
            .take_while(|&(&a, &b)| step_bits(a) == step_bits(b))
            .count()
    })
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

/// Resolves the `threads` knob of the replication driver: `0` means "use
/// the host's available parallelism", anything else is taken literally.
fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        threads
    }
}

/// The replication driver ([`accumulate_paired_programs_batch`]) over one
/// pre-compiled program, which has no deltas to stream and stops by the
/// marginal rule alone.
///
/// # Panics
///
/// If `lanes` is 0.
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

/// One driver worker's buffers, reused across waves: the failure stream,
/// the lane state, the fork (record and lane state), the seed column of the
/// one segment the worker runs per wave, and that segment's per-program
/// outcomes (first passes, and partners under antithetic pairing).
struct SegmentBuffers {
    stream: BatchFailureStream<AnyFailureModel>,
    state: BatchState,
    fork: (ForkRecord, BatchState),
    seeds: Vec<u64>,
    firsts: Vec<Vec<SimOutcome>>,
    partners: Vec<Vec<SimOutcome>>,
    /// Whether the segment ends a replication block, where the stopping
    /// rule is checked.
    ends_block: bool,
}

impl SegmentBuffers {
    fn new(model: AnyFailureModel, programs: usize) -> Self {
        Self {
            stream: BatchFailureStream::new(model, &[]),
            state: BatchState::new(),
            fork: (ForkRecord::new(), BatchState::new()),
            seeds: Vec::new(),
            firsts: vec![Vec::new(); programs],
            partners: vec![Vec::new(); programs],
            ends_block: false,
        }
    }
}

/// The replication driver: a common-random-numbers comparison of
/// pre-compiled programs (one per protocol, same order), `lanes`
/// replications at a time, with an intra-point `threads` knob.  All
/// protocols replay the same per-lane failure sequences, per-trace waste
/// deltas stream against the baseline, and the paired-delta / marginal
/// stopping rules fire on the same block boundaries as the scalar
/// reference [`crate::replicate::accumulate_paired_engine`] — the returned
/// [`PairedAccumulator`] is bit-identical to it.  The steps every program
/// begins with (the shared GENERAL stream, say) run once per segment pass;
/// the programs fork from that state.
///
/// `threads == 0` resolves to the host's available parallelism.  The
/// replications run in lane-width segments, in waves of at most `threads`
/// segments, one per worker: worker 0 runs on the calling thread and the
/// others on scoped OS threads (one thread spawns none).  Every segment
/// derives its seeds by [`SeedStream::nth_seed`] offset, results merge into
/// the accumulator in replication order, and stopping is evaluated on the
/// block boundaries — so the result is bit-identical at every thread
/// count, each worker buffers one segment, and at most `threads − 1`
/// segments run past a stopping decision.
///
/// # Panics
///
/// If `programs` and `protocols` differ in length, or `lanes` is 0.
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
    drive_programs(engine, programs, plan.into(), master_seed, lanes, threads, &mut acc);
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
    assert!(lanes > 0, "a batch runs at least one lane");
    if programs.is_empty() {
        return;
    }
    let budget = plan.budget;
    let threads = resolve_threads(threads);
    let model = *engine.failure_model();
    // Every program replays the same segment seeds — the batch form of
    // replaying one recorded trace per seed to all protocols — so each pass
    // runs the programs' shared prefix once and forks there, into buffers
    // reused across segments.  The fork is exact: each lane's failure
    // sequence is a pure function of its seed and draw count, and the prefix
    // makes the same draws for every program.  Past the fork the programs
    // read the stream through a `ForkRecord`, so a failure one program drew
    // is replayed to the others rather than drawn again.
    // The block layouts and the lane kernel are resolved once per call: the
    // prefix's blocks, then each program's blocks from the fork on.
    let prefix = shared_prefix(programs);
    let prefix_layout = BlockLayout::new(programs[0], 0..prefix);
    let layouts: Vec<BlockLayout> = programs
        .iter()
        .map(|program| BlockLayout::new(program, prefix..program.len()))
        .collect();
    let kernel = CommitKernel::detect();
    // Runs the segment seeded in `buffers`, leaving its outcomes there.
    let run_segment = |buffers: &mut SegmentBuffers| {
        let SegmentBuffers {
            stream,
            state,
            fork,
            seeds,
            firsts,
            partners,
            ..
        } = buffers;
        let passes = if plan.antithetic { 2 } else { 1 };
        for (antithetic, outs) in [(false, firsts), (true, partners)].into_iter().take(passes) {
            if antithetic {
                stream.reset_antithetic(seeds);
            } else {
                stream.reset(seeds);
            }
            state.reset(stream);
            programs[0].run_steps(&prefix_layout, kernel, stream, state);
            fork.0.start(stream);
            if programs.len() > 1 {
                fork.1.restore(state);
            }
            let runs = programs.iter().zip(&layouts).zip(outs);
            for (i, ((program, layout), out)) in runs.enumerate() {
                if i > 0 {
                    state.restore(&fork.1);
                }
                program.run_steps(layout, kernel, &mut stream.from_fork(&mut fork.0), state);
                out.clear();
                out.extend((0..seeds.len()).map(|lane| program.outcome(state, lane)));
            }
        }
    };
    let run_segment = &run_segment;
    // The segment cursor walks the budget's blocks in lane-width segments,
    // each with whether it ends its block.  Block boundaries are a pure
    // function of the replications before them (see
    // `ReplicationBudget::next_block`), so a wave lays out segments past
    // a stopping check it has not made yet.
    let (mut next, mut block_end) = (0usize, 0usize);
    let mut segments = std::iter::from_fn(|| {
        if next == block_end {
            let block = budget.next_block(block_end);
            if block == 0 {
                return None;
            }
            block_end += block;
        }
        let start = next;
        next = block_end.min(start + lanes);
        Some((start..next, next == block_end))
    });
    // Worker buffers grow to the widest wave and are kept across waves, so
    // the fork record's tape, the seeds and the outcomes are not regrown.
    let mut workers: Vec<SegmentBuffers> = Vec::new();
    loop {
        let mut wave = 0;
        while wave < threads {
            let Some((replications, ends_block)) = segments.next() else {
                break;
            };
            if workers.len() == wave {
                workers.push(SegmentBuffers::new(model, programs.len()));
            }
            let worker = &mut workers[wave];
            worker.seeds.clear();
            worker
                .seeds
                .extend(replications.map(|r| SeedStream::nth_seed(master_seed, r as u64)));
            worker.ends_block = ends_block;
            wave += 1;
        }
        let Some((first, rest)) = workers[..wave].split_first_mut() else {
            return;
        };
        if rest.is_empty() {
            run_segment(first);
        } else {
            std::thread::scope(|scope| {
                for worker in rest {
                    scope.spawn(move || run_segment(worker));
                }
                run_segment(first);
            });
        }
        // Merge in replication order — lane by lane, the scalar reference's
        // per-sample push sequence — and stop only where a block ends; the
        // rest of an over-speculated wave is dropped.
        for worker in &workers[..wave] {
            let (firsts, partners) = (&worker.firsts, &worker.partners);
            for lane in 0..worker.seeds.len() {
                acc.push_sample(|i| (firsts[i][lane], plan.antithetic.then(|| partners[i][lane])));
            }
            if worker.ends_block && acc.stopped(&budget) {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replicate::{accumulate_paired_engine, ReplicationBudget};
    use ft_composite::params::ModelParams;
    use ft_composite::scaling::WeakScalingScenario;
    use ft_platform::batch::{BatchTraceBuffer, FORK_RECORD};
    use ft_platform::failure::{AnyFailureModel, FailureSpec};
    use ft_platform::units::minutes;

    fn fig7_engine(spec: FailureSpec) -> Engine {
        let params = ModelParams::paper_figure7(0.5, minutes(120.0)).unwrap();
        Engine::with_failure_spec(&params, spec).unwrap()
    }

    fn seeds(n: usize) -> Vec<u64> {
        SeedStream::new(0xFEED).take(n).collect()
    }

    /// Fresh per-lane failure streams of `engine`'s model, one per seed.
    fn fresh(engine: &Engine, seeds: &[u64]) -> BatchFailureStream<AnyFailureModel> {
        BatchFailureStream::new(*engine.failure_model(), seeds)
    }

    #[test]
    fn batch_lanes_match_scalar_simulations_bit_for_bit() {
        for spec in [FailureSpec::Exponential, FailureSpec::Weibull { shape: 0.7 }] {
            let engine = fig7_engine(spec);
            let profile = ApplicationProfile::from_params_repeated(engine.params(), 3);
            let seeds = seeds(33);
            for protocol in Protocol::all() {
                let batch = simulate_profile_batch(
                    &engine,
                    protocol,
                    &profile,
                    &mut fresh(&engine, &seeds),
                );
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
        let mut partners = fresh(&engine, &seeds);
        for protocol in Protocol::all() {
            partners.reset_antithetic(&seeds);
            let batch = simulate_profile_batch(&engine, protocol, &profile, &mut partners);
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
        let pure = simulate_profile_batch(
            &engine,
            Protocol::PurePeriodicCkpt,
            &profile,
            &mut batch_buffer.cursors(),
        );
        let composite = simulate_profile_batch(
            &engine,
            Protocol::AbftPeriodicCkpt,
            &profile,
            &mut batch_buffer.cursors(),
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
        let protocol = Protocol::AbftPeriodicCkpt;
        let program = BatchProgram::compile(protocol, &profile, engine.plan());
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
                let scalar =
                    accumulate_paired_engine(&engine, &[protocol], &profile, plan, 77).outcomes[0];
                for lanes in [1, 7, 50, 256] {
                    let batch =
                        accumulate_profile_program_batch(&engine, &program, plan, 77, lanes, 1);
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
                let scalar = accumulate_paired_engine(&engine, &protocols, &profile, plan, 5);
                for lanes in [1, 32, 128] {
                    let batch = accumulate_paired_programs_batch(
                        &engine, &protocols, &refs, plan, 5, lanes, 1,
                    );
                    assert_eq!(scalar, batch, "{budget:?} antithetic={antithetic} lanes={lanes}");
                }
            }
        }
    }

    /// A lane-counting view of a batch source: how many failures each
    /// lane drew through it.
    struct Counting<S> {
        inner: S,
        draws: Vec<usize>,
    }

    impl<S: BatchFailureSource> BatchFailureSource for Counting<S> {
        fn lanes(&self) -> usize {
            self.inner.lanes()
        }

        fn next_failure(&mut self, lane: usize) -> f64 {
            self.draws[lane] += 1;
            self.inner.next_failure(lane)
        }

        fn mean_interarrival(&self) -> f64 {
            self.inner.mean_interarrival()
        }
    }

    /// Reads that paired programs take from past the fork record's first
    /// chunk in the first segment of `lanes` lanes: for each lane and
    /// program, the post-fork draws past [`FORK_RECORD`] that the programs
    /// before it had already made.
    fn spilled_draws(engine: &Engine, programs: &[&BatchProgram], lanes: usize) -> usize {
        let prefix = shared_prefix(programs);
        let seeds: Vec<u64> = SeedStream::new(5).take(lanes).collect();
        let kernel = CommitKernel::detect();
        let mut stream = fresh(engine, &seeds);
        let mut spilled = 0;
        for antithetic in [false, true] {
            if antithetic {
                stream.reset_antithetic(&seeds);
            } else {
                stream.reset(&seeds);
            }
            let mut state = BatchState::new();
            state.reset(&mut stream);
            let layout = BlockLayout::new(programs[0], 0..prefix);
            programs[0].run_steps(&layout, kernel, &mut stream, &mut state);
            let mut record = ForkRecord::new();
            record.start(&stream);
            let fork = state.clone();
            let mut frontier = vec![0; lanes];
            for program in programs {
                state.restore(&fork);
                let mut counting = Counting {
                    inner: stream.from_fork(&mut record),
                    draws: vec![0; lanes],
                };
                let layout = BlockLayout::new(program, prefix..program.len());
                program.run_steps(&layout, kernel, &mut counting, &mut state);
                for (front, &n) in frontier.iter_mut().zip(&counting.draws) {
                    spilled += n.min(*front).saturating_sub(FORK_RECORD);
                    *front = n.max(*front);
                }
            }
        }
        spilled
    }

    #[test]
    fn paired_programs_replay_past_the_record_bit_exactly() {
        use ft_platform::scenario::CascadeFailures;
        // Cascade bursts at a 30-minute MTBF: hundreds of failures per
        // week, so lanes outrun the record after the fork at α = 0.5.
        let mtbf = minutes(30.0);
        let params = ModelParams::paper_figure7(0.5, mtbf).unwrap();
        let cascade = CascadeFailures::with_defaults(mtbf).unwrap();
        let engine = Engine::with_failure_model(&params, AnyFailureModel::Cascade(cascade));
        let profile = ApplicationProfile::from_params(&params);
        let protocols = Protocol::all();
        let programs: Vec<BatchProgram> = protocols
            .iter()
            .map(|&p| BatchProgram::compile(p, &profile, engine.plan()))
            .collect();
        let refs: Vec<&BatchProgram> = programs.iter().collect();
        assert!(refs.len() >= 3 && shared_prefix(&refs) > 0);
        let lanes = 8;
        let spilled = spilled_draws(&engine, &refs, lanes);
        assert!(spilled > 0, "no program drew past the record behind the frontier");
        let plan = ReplicationPlan::new(ReplicationBudget::Fixed(20)).antithetic(true);
        let scalar = accumulate_paired_engine(&engine, &protocols, &profile, plan, 5);
        for threads in [1, 2] {
            let batch =
                accumulate_paired_programs_batch(&engine, &protocols, &refs, plan, 5, lanes, threads);
            assert_eq!(scalar, batch, "threads={threads}");
        }
    }

    #[test]
    fn paired_batch_of_no_protocols_is_an_empty_no_op() {
        let engine = fig7_engine(FailureSpec::Exponential);
        let paired = accumulate_paired_programs_batch(
            &engine,
            &[],
            &[],
            ReplicationBudget::Fixed(10),
            1,
            64,
            2,
        );
        assert_eq!(paired.replications(), 0);
        assert!(paired.outcomes.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one lane")]
    fn driver_rejects_zero_lanes() {
        let engine = fig7_engine(FailureSpec::Exponential);
        let profile = ApplicationProfile::from_params(engine.params());
        let program = BatchProgram::compile(Protocol::AbftPeriodicCkpt, &profile, engine.plan());
        accumulate_profile_program_batch(&engine, &program, ReplicationBudget::Fixed(10), 1, 0, 1);
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

    /// An adaptive budget of a first block of 40 and later blocks of 50,
    /// at a precision that stops a thread-count test's runs after several
    /// blocks but before the cap: at 16 lanes the blocks split 16 + 16 + 8
    /// and 16 + 16 + 16 + 2, so at most thread counts a block ends in the
    /// middle of a wave and the stopping decision falls inside one.
    fn mid_wave_stop(rel_precision: f64) -> ReplicationBudget {
        ReplicationBudget::Adaptive {
            rel_precision,
            min: 40,
            max: 400,
        }
    }

    /// Whether `replications` stopped after the first stopping check and
    /// before the cap of a [`mid_wave_stop`] budget.
    fn stops_mid_run(replications: usize) -> bool {
        40 < replications && replications < 400
    }

    #[test]
    fn parallel_block_driver_is_bit_identical_across_thread_counts() {
        let engine = fig7_engine(FailureSpec::Weibull { shape: 0.7 });
        let profile = ApplicationProfile::from_params(engine.params());
        let protocol = Protocol::AbftPeriodicCkpt;
        let program = BatchProgram::compile(protocol, &profile, engine.plan());
        // Fixed(1000) at 48 lanes is 21 segments.
        let budgets = [
            (ReplicationBudget::Fixed(130), 50),
            (ReplicationBudget::Fixed(1000), 48),
            (mid_wave_stop(0.015), 16),
        ];
        for (budget, lanes) in budgets {
            for antithetic in [false, true] {
                let plan = ReplicationPlan::new(budget).antithetic(antithetic);
                // The scalar reference: one replication at a time, its own
                // seed stream and stopping checks.
                let scalar =
                    accumulate_paired_engine(&engine, &[protocol], &profile, plan, 77).outcomes[0];
                if matches!(budget, ReplicationBudget::Adaptive { .. }) {
                    assert!(
                        stops_mid_run(scalar.count() as usize),
                        "antithetic={antithetic}"
                    );
                }
                for threads in [1, 2, 3, 5, 8] {
                    let batch = accumulate_profile_program_batch(
                        &engine, &program, plan, 77, lanes, threads,
                    );
                    assert_eq!(
                        scalar, batch,
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
        let budgets = [
            (ReplicationBudget::Fixed(90), 32),
            (ReplicationBudget::Fixed(1000), 48),
            (
                ReplicationBudget::AdaptiveDelta {
                    rel_precision: 0.05,
                    min: 60,
                    max: 300,
                },
                32,
            ),
            (mid_wave_stop(0.01), 16),
        ];
        for (budget, lanes) in budgets {
            for antithetic in [false, true] {
                let plan = ReplicationPlan::new(budget).antithetic(antithetic);
                let scalar = accumulate_paired_engine(&engine, &protocols, &profile, plan, 5);
                if matches!(budget, ReplicationBudget::Adaptive { .. }) {
                    assert!(
                        stops_mid_run(scalar.replications()),
                        "antithetic={antithetic}"
                    );
                }
                for threads in [1, 2, 4, 7] {
                    let batch = accumulate_paired_programs_batch(
                        &engine, &protocols, &refs, plan, 5, lanes, threads,
                    );
                    assert_eq!(
                        scalar, batch,
                        "{budget:?} antithetic={antithetic} threads={threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn shared_prefix_ends_where_the_programs_first_differ() {
        let prefix = |params: &ModelParams, protocols: &[Protocol]| {
            let engine = Engine::new(params);
            let profile = ApplicationProfile::from_params(params);
            let programs: Vec<BatchProgram> = protocols
                .iter()
                .map(|&p| BatchProgram::compile(p, &profile, engine.plan()))
                .collect();
            let refs: Vec<&BatchProgram> = programs.iter().collect();
            (
                shared_prefix(&refs),
                programs.iter().map(BatchProgram::len).collect::<Vec<_>>(),
            )
        };
        // α = 0: no LIBRARY phase, so every protocol compiles the same
        // checkpointed GENERAL stream.
        let (shared, lens) = prefix(
            &ModelParams::paper_figure7(0.0, minutes(120.0)).unwrap(),
            &Protocol::all(),
        );
        assert!(
            lens.iter().all(|&len| len == shared && len > 0),
            "{shared} of {lens:?}"
        );
        // α = 0.5: the GENERAL stream is shared, the LIBRARY phase is not.
        let (shared, lens) = prefix(
            &ModelParams::paper_figure7(0.5, minutes(120.0)).unwrap(),
            &Protocol::all(),
        );
        assert!(
            shared > 0 && lens.iter().all(|&len| shared < len),
            "{shared} of {lens:?}"
        );
        // fig9: the composite's short GENERAL phase is one period ending in
        // the REMAINDER checkpoint, unlike PurePeriodic's first period.
        let fig9 = WeakScalingScenario::figure9().params_at(1e5).unwrap();
        let (shared, _) = prefix(
            &fig9,
            &[Protocol::PurePeriodicCkpt, Protocol::AbftPeriodicCkpt],
        );
        assert_eq!(shared, 0);
        // A single program shares all of itself; none share nothing.
        let (shared, lens) = prefix(&fig9, &[Protocol::BiPeriodicCkpt]);
        assert_eq!(shared, lens[0]);
        assert_eq!(shared_prefix(&[]), 0);
    }

    #[test]
    fn shared_prefix_compares_steps_and_plans_by_bit_pattern() {
        let engine = fig7_engine(FailureSpec::Exponential);
        let profile = ApplicationProfile::from_params(engine.params());
        let program = BatchProgram::compile(Protocol::PurePeriodicCkpt, &profile, engine.plan());
        let full = program.len();
        assert!(full > 1);
        // `-0.0 == 0.0`, but a zero-cost step of either sign is its own step.
        let mut signed = program.clone();
        signed.steps[1] = Step::Forced { cost: 0.0 };
        let mut negative = signed.clone();
        negative.steps[1] = Step::Forced { cost: -0.0 };
        assert_eq!(signed.steps[1], negative.steps[1]);
        assert_eq!(shared_prefix(&[&signed, &negative]), 1);
        // Identical steps under plans whose recovery differs diverge at once.
        let mut replanned = program.clone();
        replanned.plan.recovery += 1.0;
        assert_eq!(shared_prefix(&[&program, &replanned]), 0);
        assert_eq!(shared_prefix(&[&program, &program.clone()]), full);
    }

    /// The kinds of the steps of each block [`BatchProgram::run_steps`]
    /// walks over `range`: `P`eriod, `F`orced, ABFT `W`ork, ABFT `C`kpt.
    fn block_shapes(program: &BatchProgram, range: Range<usize>) -> Vec<String> {
        program
            .blocks(range)
            .map(|block| {
                program.steps[block]
                    .iter()
                    .map(|step| match step {
                        Step::Period { .. } => 'P',
                        Step::Forced { .. } => 'F',
                        Step::AbftWork { .. } => 'W',
                        Step::AbftCkpt { .. } => 'C',
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn fig9_abft_epochs_fuse_and_pure_periods_stay_single() {
        let scenario = WeakScalingScenario::figure9();
        for nodes in [1e5, 1.4e5, 2e5] {
            let params = scenario.params_at(nodes).unwrap();
            let engine = Engine::new(&params);
            let profile = ApplicationProfile::uniform(
                scenario.epochs,
                scenario.general_duration(nodes),
                scenario.library_duration(nodes),
            )
            .unwrap();
            // Each epoch's short GENERAL period, ABFT work and exit
            // checkpoint fit in one full period, and where the next
            // epoch's period fits too, blocks shift to W/C/P: one pass per
            // epoch instead of three.
            let abft = BatchProgram::compile(Protocol::AbftPeriodicCkpt, &profile, engine.plan());
            let shapes = block_shapes(&abft, 0..abft.len());
            assert!(
                shapes
                    .iter()
                    .all(|s| ["PWC", "PWCP", "WCP", "WC"].contains(&s.as_str())),
                "{nodes}: {shapes:?}"
            );
            assert!(
                shapes.len() <= scenario.epochs + 1,
                "{nodes}: {} blocks",
                shapes.len()
            );
            // Two full periods exceed the cap, so PurePeriodic's stream
            // keeps one pass per step.
            let pure = BatchProgram::compile(Protocol::PurePeriodicCkpt, &profile, engine.plan());
            assert!(pure.len() > 1);
            assert_eq!(
                block_shapes(&pure, 0..pure.len()),
                vec!["P"; pure.len()],
                "{nodes}"
            );
        }
    }

    /// The length of the block that would start at each step of `steps`.
    fn block_lengths(steps: &[Step], cap: f64) -> Vec<usize> {
        (0..steps.len())
            .map(|start| block_len(&steps[start..], cap))
            .collect()
    }

    #[test]
    fn a_negative_or_non_finite_cost_stops_fusion() {
        let short = Step::Period {
            work: 100.0,
            ckpt: 10.0,
        };
        // Zero-cost steps fuse: their terms are finite and non-negative.
        let zero = [
            short,
            Step::Forced { cost: 0.0 },
            Step::AbftCkpt { cost: -0.0 },
            short,
        ];
        assert_eq!(block_lengths(&zero, 1e4), vec![4, 3, 2, 1]);
        for bad in [-1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            // A bad step is a block of its own and ends the block before it.
            let steps = [short, Step::AbftWork { work: bad }, short, short];
            assert_eq!(block_lengths(&steps, 1e4), vec![1, 1, 2, 1], "{bad}");
            let steps = [
                short,
                Step::Period {
                    work: 1.0,
                    ckpt: bad,
                },
                short,
            ];
            assert_eq!(block_lengths(&steps, 1e4), vec![1, 1, 1], "{bad}");
        }
        // A zero, negative or NaN cap fuses nothing.
        for cap in [0.0, -1.0, f64::NAN] {
            assert_eq!(block_lengths(&[short; 4], cap), vec![1; 4], "{cap}");
        }
        // The summed cost may reach the cap; the step count is bounded.
        assert_eq!(block_lengths(&[short; 4], 220.0), vec![2, 2, 2, 1]);
        assert_eq!(
            block_lengths(&[short; 12], f64::INFINITY)[..5],
            [8, 8, 8, 8, 8]
        );
    }

    #[test]
    fn blocks_end_at_the_end_of_the_step_range() {
        // BiPeriodic and the composite share the long GENERAL phase of the
        // first epoch, which ends in a short period that fuses with what
        // follows it in both programs.
        let engine = fig7_engine(FailureSpec::Exponential);
        let plan = engine.plan();
        let general = 2.0 * (plan.full_period - plan.ckpt_full) + 500.0;
        let profile = ApplicationProfile::uniform(2, general, 500.0).unwrap();
        let programs: Vec<BatchProgram> = [Protocol::BiPeriodicCkpt, Protocol::AbftPeriodicCkpt]
            .map(|p| BatchProgram::compile(p, &profile, plan))
            .into();
        let prefix = shared_prefix(&[&programs[0], &programs[1]]);
        assert_eq!(prefix, 3);
        for program in &programs {
            let len = program.len();
            let run = program.blocks(prefix - 1..len).next().unwrap();
            assert!(run.end > prefix, "{run:?} does not cross step {prefix}");
            assert_eq!(block_shapes(program, 0..prefix), ["P", "P", "P"]);
            for range in [0..len, 0..prefix, prefix..len, 1..len - 1, 3..4, 2..2] {
                let blocks: Vec<Range<usize>> = program.blocks(range.clone()).collect();
                // The blocks tile the range exactly.
                let mut next = range.start;
                for block in &blocks {
                    assert_eq!(block.start, next, "{range:?}: {blocks:?}");
                    assert!(block.end > block.start && block.end <= range.end);
                    next = block.end;
                }
                assert_eq!(next, range.end, "{range:?}: {blocks:?}");
            }
        }
    }

    #[test]
    fn block_layouts_hold_each_block_and_its_terms_in_runs() {
        let scenario = WeakScalingScenario::figure9();
        let nodes = 1.4e5;
        let engine = Engine::new(&scenario.params_at(nodes).unwrap());
        let profile = ApplicationProfile::uniform(
            scenario.epochs,
            scenario.general_duration(nodes),
            scenario.library_duration(nodes),
        )
        .unwrap();
        for protocol in Protocol::all() {
            let program = BatchProgram::compile(protocol, &profile, engine.plan());
            let len = program.len();
            for range in [0..len, 0..len / 3, len / 3..len, 5..5] {
                let layout = BlockLayout::new(&program, range.clone());
                let blocks: Vec<Range<usize>> = program.blocks(range.clone()).collect();
                let laid: Vec<(usize, &[f64])> = layout
                    .runs
                    .iter()
                    .scan(0, |term, run| {
                        let terms = &layout.terms[*term..*term + usize::from(run.terms)];
                        *term += terms.len();
                        Some(std::iter::repeat_n((usize::from(run.steps), terms), run.count))
                    })
                    .flatten()
                    .collect();
                assert_eq!(laid.len(), blocks.len(), "{protocol:?} {range:?}");
                let mut step = layout.start;
                for (&(steps, got), block) in laid.iter().zip(&blocks) {
                    assert_eq!(step..step + steps, *block);
                    let want: Vec<u64> = program.steps[block.clone()]
                        .iter()
                        .flat_map(|&s| {
                            let (t, n) = cost_terms(s);
                            t.into_iter().take(n)
                        })
                        .map(f64::to_bits)
                        .collect();
                    assert_eq!(got.iter().map(|t| t.to_bits()).collect::<Vec<_>>(), want);
                    step = block.end;
                }
                assert_eq!(step, range.end);
                // fig9's programs repeat one epoch, so up to 1000 blocks
                // fold into a few runs.
                assert!(layout.runs.len() <= 3, "{protocol:?} {range:?}: {:?}", layout.runs);
            }
        }
    }

    #[test]
    fn block_runs_compare_terms_by_bit_pattern() {
        let engine = fig7_engine(FailureSpec::Exponential);
        let profile = ApplicationProfile::from_params(engine.params());
        let mut program = BatchProgram::compile(Protocol::PurePeriodicCkpt, &profile, engine.plan());
        // Whole-period steps are single-step blocks; `-0.0` and `0.0` sums
        // can differ in sign, so only the two `-0.0` blocks share a run.
        let work = program.plan.full_period;
        program.steps = vec![
            Step::Period { work, ckpt: 0.0 },
            Step::Period { work, ckpt: -0.0 },
            Step::Period { work, ckpt: -0.0 },
        ];
        let layout = BlockLayout::new(&program, 0..3);
        let runs: Vec<_> = layout.runs.iter().map(|r| (r.steps, r.terms, r.count)).collect();
        assert_eq!(runs, [(1, 2, 1), (1, 2, 2)]);
        assert_eq!(layout.terms.len(), 4);
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
        let batch = simulate_profile_batch(
            &engine,
            Protocol::AbftPeriodicCkpt,
            &lib_only,
            &mut fresh(&engine, &[3]),
        );
        assert_eq!(batch[0], scalar);
    }
}
