//! Outside-in tracing adapters.
//!
//! The traced run gets its per-layer numbers without touching library code:
//! it wraps the public traits the layers talk through in counting/timing
//! decorators and hands the decorated values to the same public entry points.
//! Every decorator forwards every trait method, overridden or not, so the
//! decorated run takes the same code paths and produces the same bits as the
//! bare one (the tests below and the traced run's digest check prove it).

use std::cell::Cell;
use std::rc::Rc;

use ft_ckpt::backend::{CheckpointBackend, StoreFault};
use ft_platform::checksum::ChecksumGen;
use ft_platform::clock::Stopwatch;
use ft_platform::failure::{FailureModel, FailureSource, SourceState};
use ft_platform::rng::DeterministicRng;
use ft_platform::BatchFailureSource;

/// Counts and times the draws of a lane-indexed failure source.
///
/// `fill_next_failures` (the columnar first draw of every lane) is forwarded
/// to the inner source, never replaced by the trait's per-lane default, so
/// the decorated run keeps the columnar path.  Every `next_failure` call is a
/// slow-path redraw after an interrupt.  A *burst* is a run of redraws on one
/// lane with no other lane's redraw in between: one slow-path excursion, or
/// several excursions of the same lane in adjacent steps when no other lane
/// was interrupted in between.
#[derive(Debug)]
pub struct CountingSource<S> {
    pub inner: S,
    pub fill_calls: u64,
    pub fill_draws: u64,
    pub fill_s: f64,
    pub redraws: u64,
    pub bursts: u64,
    last_lane: Option<usize>,
}

impl<S> CountingSource<S> {
    pub fn new(inner: S) -> Self {
        Self {
            inner,
            fill_calls: 0,
            fill_draws: 0,
            fill_s: 0.0,
            redraws: 0,
            bursts: 0,
            last_lane: None,
        }
    }
}

impl<S: BatchFailureSource> BatchFailureSource for CountingSource<S> {
    fn lanes(&self) -> usize {
        self.inner.lanes()
    }

    fn next_failure(&mut self, lane: usize) -> f64 {
        self.redraws += 1;
        if self.last_lane != Some(lane) {
            self.bursts += 1;
            self.last_lane = Some(lane);
        }
        self.inner.next_failure(lane)
    }

    fn mean_interarrival(&self) -> f64 {
        self.inner.mean_interarrival()
    }

    fn fill_next_failures(&mut self, lanes: usize, out: &mut [f64]) {
        self.last_lane = None;
        self.fill_calls += 1;
        self.fill_draws += lanes as u64;
        let sw = Stopwatch::start();
        self.inner.fill_next_failures(lanes, out);
        self.fill_s += sw.elapsed_seconds();
    }
}

/// A lane-indexed source that never fails: running a program over it takes
/// the branch-free fast pass on every step and never enters the slow path.
#[derive(Debug, Clone, Copy)]
pub struct FailureFree {
    pub lanes: usize,
}

impl BatchFailureSource for FailureFree {
    fn lanes(&self) -> usize {
        self.lanes
    }

    fn next_failure(&mut self, _lane: usize) -> f64 {
        f64::INFINITY
    }

    fn mean_interarrival(&self) -> f64 {
        f64::INFINITY
    }

    fn fill_next_failures(&mut self, lanes: usize, out: &mut [f64]) {
        out[..lanes].fill(f64::INFINITY);
    }
}

/// The scalar counterpart of [`FailureFree`].
#[derive(Debug, Clone, Copy)]
pub struct NoFailures;

impl FailureSource for NoFailures {
    fn next_failure(&mut self) -> f64 {
        f64::INFINITY
    }

    fn mean_interarrival(&self) -> f64 {
        f64::INFINITY
    }
}

/// Counts the draws a failure model makes, for the scalar engine's recorded
/// trace buffers (which are generic over the model, not over a source).
#[derive(Debug, Clone, Copy)]
pub struct CountingModel<'a, M> {
    pub inner: M,
    pub draws: &'a Cell<u64>,
}

impl<M: FailureModel> FailureModel for CountingModel<'_, M> {
    fn next_interarrival(&self, rng: &mut dyn DeterministicRng) -> f64 {
        self.draws.set(self.draws.get() + 1);
        self.inner.next_interarrival(rng)
    }

    fn mean(&self) -> f64 {
        self.inner.mean()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn single_uniform(&self) -> bool {
        self.inner.single_uniform()
    }

    fn interarrivals_from_open(&self, open: &mut [f64]) {
        self.draws.set(self.draws.get() + open.len() as u64);
        self.inner.interarrivals_from_open(open);
    }

    fn next_failure_time(
        &self,
        prev: f64,
        state: &mut SourceState,
        rng: &mut dyn DeterministicRng,
    ) -> f64 {
        self.draws.set(self.draws.get() + 1);
        self.inner.next_failure_time(prev, state, rng)
    }
}

/// Counts and times the operations of a checkpoint storage backend.
#[derive(Debug)]
pub struct CountingBackend<B> {
    pub inner: B,
    pub puts: u64,
    pub put_bytes: u64,
    pub put_s: f64,
    pub gets: u64,
    pub get_bytes: u64,
    pub get_s: f64,
}

impl<B> CountingBackend<B> {
    pub fn new(inner: B) -> Self {
        Self {
            inner,
            puts: 0,
            put_bytes: 0,
            put_s: 0.0,
            gets: 0,
            get_bytes: 0,
            get_s: 0.0,
        }
    }
}

impl<B: CheckpointBackend> CheckpointBackend for CountingBackend<B> {
    fn put(&mut self, generation: u64, bytes: &[u8]) -> Result<(), StoreFault> {
        let sw = Stopwatch::start();
        let out = self.inner.put(generation, bytes);
        self.put_s += sw.elapsed_seconds();
        self.puts += 1;
        self.put_bytes += bytes.len() as u64;
        out
    }

    fn get(&mut self, generation: u64) -> Result<Vec<u8>, StoreFault> {
        let sw = Stopwatch::start();
        let out = self.inner.get(generation);
        self.get_s += sw.elapsed_seconds();
        self.gets += 1;
        if let Ok(bytes) = &out {
            self.get_bytes += bytes.len() as u64;
        }
        out
    }

    fn generations(&self) -> Vec<u64> {
        self.inner.generations()
    }

    fn delete(&mut self, generation: u64) -> Result<(), StoreFault> {
        self.inner.delete(generation)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Counters shared by every clone of a [`CountingChecksum`] (the pipeline
/// clones its generator once per frame stream).
#[derive(Debug, Default)]
pub struct ChecksumCounters {
    pub pushes: Cell<u64>,
    pub bytes: Cell<u64>,
    pub seconds: Cell<f64>,
}

impl ChecksumCounters {
    /// Bytes and seconds so far, for before/after differences.
    pub fn snapshot(&self) -> (u64, f64) {
        (self.bytes.get(), self.seconds.get())
    }
}

/// Counts and times the bytes a checksum generator digests.
#[derive(Debug, Clone)]
pub struct CountingChecksum<C> {
    pub inner: C,
    pub counters: Rc<ChecksumCounters>,
}

impl<C> CountingChecksum<C> {
    pub fn new(inner: C) -> Self {
        Self {
            inner,
            counters: Rc::new(ChecksumCounters::default()),
        }
    }
}

impl<C: ChecksumGen> ChecksumGen for CountingChecksum<C> {
    fn reset(&mut self) {
        self.inner.reset();
    }

    fn push(&mut self, data: &[u8]) {
        let sw = Stopwatch::start();
        self.inner.push(data);
        let c = &self.counters;
        c.seconds.set(c.seconds.get() + sw.elapsed_seconds());
        c.pushes.set(c.pushes.get() + 1);
        c.bytes.set(c.bytes.get() + data.len() as u64);
    }

    fn value(&self) -> u32 {
        self.inner.value()
    }

    fn checksum_of(&mut self, data: &[u8]) -> u32 {
        self.reset();
        self.push(data);
        self.value()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_bench::figure7_base;
    use ft_ckpt::backend::{FaultInjectingBackend, FaultPlan, MemoryBackend};
    use ft_ckpt::coordinated::CoordinatedCheckpoint;
    use ft_ckpt::pipeline::{CheckpointPipeline, PipelineOp};
    use ft_ckpt::state::ProcessSet;
    use ft_composite::scenario::ApplicationProfile;
    use ft_platform::checksum::Crc32;
    use ft_platform::failure::{AnyFailureModel, FailureSpec};
    use ft_platform::rng::SeedStream;
    use ft_platform::scenario::ScenarioSpec;
    use ft_platform::trace::TraceBuffer;
    use ft_platform::units::minutes;
    use ft_platform::BatchFailureStream;
    use ft_sim::{BatchProgram, BatchState, Engine, Protocol, SimOutcome};

    fn engines() -> Vec<Engine> {
        let params = figure7_base().with_mtbf(minutes(60.0)).unwrap();
        let cascade = ScenarioSpec::Cascade
            .resolve(params.platform_mtbf, params.epoch_duration)
            .unwrap();
        vec![
            Engine::with_failure_spec(&params, FailureSpec::Exponential).unwrap(),
            Engine::with_failure_spec(&params, FailureSpec::Weibull { shape: 0.7 }).unwrap(),
            Engine::with_failure_model(&params, cascade),
        ]
    }

    fn seeds(n: usize) -> Vec<u64> {
        let mut s = vec![0u64; n];
        SeedStream::new(0x5EED).fill(&mut s);
        s
    }

    fn outcomes<S: BatchFailureSource>(program: &BatchProgram, source: &mut S) -> Vec<SimOutcome> {
        let mut state = BatchState::new();
        program.run(source, &mut state);
        (0..source.lanes())
            .map(|l| program.outcome(&state, l))
            .collect()
    }

    /// Records which trait methods reach it, to prove the decorator forwards
    /// the columnar fill instead of falling back to per-lane draws.
    struct Probe<S> {
        inner: S,
        fills: u64,
        singles: u64,
    }

    impl<S: BatchFailureSource> BatchFailureSource for Probe<S> {
        fn lanes(&self) -> usize {
            self.inner.lanes()
        }
        fn next_failure(&mut self, lane: usize) -> f64 {
            self.singles += 1;
            self.inner.next_failure(lane)
        }
        fn mean_interarrival(&self) -> f64 {
            self.inner.mean_interarrival()
        }
        fn fill_next_failures(&mut self, lanes: usize, out: &mut [f64]) {
            self.fills += 1;
            self.inner.fill_next_failures(lanes, out);
        }
    }

    #[test]
    fn counting_source_is_transparent_and_counts_every_redraw() {
        let seeds = seeds(100);
        for engine in engines() {
            let profile = ApplicationProfile::from_params_repeated(engine.params(), 2);
            for protocol in Protocol::all() {
                let program = BatchProgram::compile(protocol, &profile, engine.plan());
                let bare = outcomes(
                    &program,
                    &mut BatchFailureStream::new(*engine.failure_model(), &seeds),
                );
                let mut counted = CountingSource::new(Probe {
                    inner: BatchFailureStream::new(*engine.failure_model(), &seeds),
                    fills: 0,
                    singles: 0,
                });
                let traced = outcomes(&program, &mut counted);
                assert_eq!(bare, traced, "{protocol:?}");
                // Every failure interrupt redraws exactly once.
                let failures: u64 = bare.iter().map(|o| o.failures as u64).sum();
                assert_eq!(counted.redraws, failures);
                assert!(counted.bursts <= counted.redraws);
                assert!(failures == 0 || counted.bursts > 0);
                // The first draw of every lane went through one columnar fill.
                assert_eq!(counted.fill_calls, 1);
                assert_eq!(counted.fill_draws, seeds.len() as u64);
                assert_eq!(counted.inner.fills, 1);
                assert_eq!(counted.inner.singles, counted.redraws);
            }
        }
    }

    #[test]
    fn failure_free_source_takes_only_the_fast_pass() {
        let engine = &engines()[0];
        let profile = ApplicationProfile::from_params(engine.params());
        let program = BatchProgram::compile(Protocol::AbftPeriodicCkpt, &profile, engine.plan());
        let mut source = CountingSource::new(FailureFree { lanes: 64 });
        let out = outcomes(&program, &mut source);
        assert_eq!(out.len(), 64);
        assert!(out
            .iter()
            .all(|o| o.failures == 0 && o.final_time >= o.base_time));
        assert_eq!(source.redraws, 0);
    }

    #[test]
    fn counting_model_replays_bit_identically_and_counts_recorded_draws() {
        for engine in engines() {
            let profile = ApplicationProfile::from_params(engine.params());
            let draws = Cell::new(0u64);
            let model: AnyFailureModel = *engine.failure_model();
            let mut bare = TraceBuffer::new(model, 0);
            let mut counted = TraceBuffer::new(
                CountingModel {
                    inner: model,
                    draws: &draws,
                },
                0,
            );
            let mut recorded = 0u64;
            for seed in seeds(20) {
                bare.reset(seed);
                counted.reset(seed);
                for protocol in [Protocol::PurePeriodicCkpt, Protocol::AbftPeriodicCkpt] {
                    let a = engine.simulate_profile_replay(protocol, &profile, &mut bare);
                    let b = engine.simulate_profile_replay(protocol, &profile, &mut counted);
                    assert_eq!(a, b);
                }
                recorded += counted.sampled().len() as u64;
            }
            assert_eq!(draws.get(), recorded);
        }
    }

    #[test]
    fn counting_backend_and_checksum_are_transparent_and_count_bytes() {
        let set = ProcessSet::uniform(4, 8 * 1024, 2 * 1024);
        let image = CoordinatedCheckpoint::capture(&set, 1.0);
        let inject = || FaultInjectingBackend::new(MemoryBackend::new(), FaultPlan::none(), 7);
        let mut bare = CheckpointPipeline::new(Crc32::new(), inject());
        let checksum = CountingChecksum::new(Crc32::new());
        let counters = Rc::clone(&checksum.counters);
        let mut traced = CheckpointPipeline::new(checksum, CountingBackend::new(inject()));
        for pipeline_gen in 0..3 {
            assert_eq!(bare.commit_full(&image).unwrap(), pipeline_gen);
            assert_eq!(traced.commit_full(&image).unwrap(), pipeline_gen);
        }
        let (a, oa) = bare.restore_latest().unwrap();
        let (b, ob) = traced.restore_latest().unwrap();
        assert_eq!(a, b);
        assert_eq!(oa, ob);
        let stored: u64 = traced
            .costs()
            .iter()
            .filter(|c| c.op == PipelineOp::WriteFull)
            .map(|c| c.stored_bytes as u64)
            .sum();
        let backend = traced.backend();
        assert_eq!(backend.puts, 3);
        assert_eq!(backend.put_bytes, stored);
        assert_eq!(backend.gets, 1);
        assert_eq!(backend.get_bytes, stored / 3);
        // Every payload byte is digested on the way down and again on the
        // way up.
        let raw: u64 = traced.costs().iter().map(|c| c.raw_bytes as u64).sum();
        let written = raw - image.bytes() as u64;
        assert!(counters.bytes.get() >= written + written / 3);
        assert!(counters.pushes.get() > 0);
    }
}
