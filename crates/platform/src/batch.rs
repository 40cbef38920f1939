//! Lane-indexed batch failure sampling — the platform substrate of the
//! structure-of-arrays simulation engine in `ft-sim`.
//!
//! The scalar simulator consumes one [`crate::failure::FailureSource`] per
//! replication.  The batch engine advances many replications ("lanes") of the
//! same parameter point in lockstep, so it needs the same three source
//! flavours, indexed by lane:
//!
//! * [`BatchFailureStream`] — one independent sampling stream per lane,
//!   bit-identical per lane to a [`crate::failure::FailureStream`] seeded with
//!   the same seed;
//! * antithetic mode on the same type — every lane draws the antithetic
//!   partner of its seed's sequence, exactly like
//!   [`crate::trace::TraceBuffer::reset_antithetic`];
//! * [`BatchTraceBuffer`] / [`BatchTraceCursor`] — batch replay over one
//!   recorded [`crate::trace::TraceBuffer`] per lane (common random numbers
//!   across protocol executors, lane by lane).
//!
//! The bit-exactness contract of the batch engine rests on a simple
//! observation: the per-lane sequence of failure times is a pure function of
//! `(model, seed, antithetic)` and of *how many* times the lane has been
//! asked for its next failure — never of what other lanes do.  Each type here
//! keeps fully independent per-lane generator state, so interleaving lanes in
//! any order yields the same per-lane sequences as running them alone.

use crate::failure::{FailureModel, SourceState};
use crate::rng::{AntitheticRng, DeterministicRng, Xoshiro256};
use crate::trace::TraceBuffer;

/// The open-uniform grid step `2⁻⁵³` of [`DeterministicRng::next_f64`].
const UNIFORM_SCALE: f64 = 1.0 / (1u64 << 53) as f64;

/// A lane-indexed source of *absolute* failure times: the batch counterpart
/// of [`crate::failure::FailureSource`].
///
/// Implementations must keep per-lane state independent: the sequence a lane
/// yields may depend only on the lane's own history, so that any interleaving
/// of lane queries reproduces the scalar per-lane sequences bit for bit.
pub trait BatchFailureSource {
    /// Number of lanes currently backed by the source.
    fn lanes(&self) -> usize;

    /// Absolute time of the next failure on `lane` (advances that lane only).
    ///
    /// Lanes share no state: the batch engine draws for different lanes in
    /// an order of its own — step by step, and within a fused block only for
    /// the lanes it missed — never in the order a scalar run of each lane
    /// would, so a lane's sequence must not depend on any other lane's draws.
    fn next_failure(&mut self, lane: usize) -> f64;

    /// Mean inter-arrival time of the underlying model (the platform MTBF).
    fn mean_interarrival(&self) -> f64;

    /// Fills `out[lane]` with the next failure time of every lane in
    /// `0..lanes`, advancing each lane by exactly one draw — bit-identical
    /// to, and interchangeable with, one [`BatchFailureSource::next_failure`]
    /// call per lane in ascending lane order.
    ///
    /// The default is that scalar loop; sources backed by single-uniform
    /// inverse-CDF models override it with a **columnar** pipeline (draw the
    /// raw u64s, map to open uniforms, run the `ln`/`powf` inverse CDF over a
    /// contiguous column, accumulate absolute times) that performs the same
    /// per-lane float operations in the same order, so the override is
    /// equally bit-exact while the transform loop vectorises.
    fn fill_next_failures(&mut self, lanes: usize, out: &mut [f64]) {
        for (lane, slot) in out[..lanes].iter_mut().enumerate() {
            *slot = self.next_failure(lane);
        }
    }
}

/// One independent failure-time stream per lane.
///
/// Lane `i` reproduces, bit for bit, the sequence of a scalar
/// [`crate::failure::FailureStream`] built with the same model and
/// `seeds[i]` — or, in antithetic mode, the sequence a
/// [`crate::trace::TraceBuffer::reset_antithetic`] replay of `seeds[i]`
/// yields.  [`BatchFailureStream::reset`] keeps the lane allocations, so a
/// sweep point reuses one stream across all its replication blocks.
#[derive(Debug)]
pub struct BatchFailureStream<M: FailureModel> {
    model: M,
    rngs: Vec<Xoshiro256>,
    now: Vec<f64>,
    states: Vec<SourceState>,
    antithetic: bool,
}

impl<M: FailureModel + Clone> Clone for BatchFailureStream<M> {
    fn clone(&self) -> Self {
        Self {
            model: self.model.clone(),
            rngs: self.rngs.clone(),
            now: self.now.clone(),
            states: self.states.clone(),
            antithetic: self.antithetic,
        }
    }

    /// Copies every lane's generator, time and [`SourceState`] into this
    /// stream's existing allocations: a fork of the stream mid-sequence,
    /// restorable without allocating.
    fn clone_from(&mut self, source: &Self) {
        self.model.clone_from(&source.model);
        self.rngs.clone_from(&source.rngs);
        self.now.clone_from(&source.now);
        self.states.clone_from(&source.states);
        self.antithetic = source.antithetic;
    }
}

impl<M: FailureModel> BatchFailureStream<M> {
    /// Creates a stream with one lane per seed.
    pub fn new(model: M, seeds: &[u64]) -> Self {
        let mut stream = Self {
            model,
            rngs: Vec::with_capacity(seeds.len()),
            now: Vec::with_capacity(seeds.len()),
            states: Vec::with_capacity(seeds.len()),
            antithetic: false,
        };
        stream.reset(seeds);
        stream
    }

    /// Restarts every lane on a fresh sequence (lane `i` from `seeds[i]`),
    /// keeping allocations.  The lane count follows `seeds.len()`.
    pub fn reset(&mut self, seeds: &[u64]) {
        self.rngs.clear();
        self.rngs.extend(seeds.iter().map(|&s| Xoshiro256::seed_from_u64(s)));
        self.now.clear();
        self.now.resize(seeds.len(), 0.0);
        self.states.clear();
        self.states.resize(seeds.len(), SourceState::default());
        self.antithetic = false;
    }

    /// Restarts every lane on the **antithetic partner** of its seed's
    /// sequence: each uniform is flipped to `1 − u` before the inter-arrival
    /// transform, exactly as the scalar antithetic replay does.
    pub fn reset_antithetic(&mut self, seeds: &[u64]) {
        self.reset(seeds);
        self.antithetic = true;
    }

    /// Whether the current sequences are antithetic replays.
    #[inline]
    pub fn is_antithetic(&self) -> bool {
        self.antithetic
    }

    /// The underlying inter-arrival model.
    #[inline]
    pub fn model(&self) -> &M {
        &self.model
    }
}

impl<M: FailureModel> BatchFailureSource for BatchFailureStream<M> {
    #[inline]
    fn lanes(&self) -> usize {
        self.rngs.len()
    }

    #[inline]
    fn next_failure(&mut self, lane: usize) -> f64 {
        // Route through the stateful hook (bit-identical to the historical
        // `now += next_interarrival` for i.i.d. models, which never touch
        // their lane's `SourceState`); per-lane state keeps the lanes fully
        // independent, exactly like the per-lane RNGs.
        self.now[lane] = if self.antithetic {
            self.model.next_failure_time(
                self.now[lane],
                &mut self.states[lane],
                &mut AntitheticRng(&mut self.rngs[lane]),
            )
        } else {
            self.model
                .next_failure_time(self.now[lane], &mut self.states[lane], &mut self.rngs[lane])
        };
        self.now[lane]
    }

    #[inline]
    fn mean_interarrival(&self) -> f64 {
        self.model.mean()
    }

    /// Columnar bulk draw: raw u64 column (antithetic complement applied on
    /// the raw bits, exactly like [`AntitheticRng`]) → open-uniform column →
    /// one in-place inverse-CDF transform → absolute-time accumulation.
    /// Per lane this performs the identical float operations in the identical
    /// order as [`BatchFailureSource::next_failure`], so it is bit-exact; the
    /// model dispatch happens once per column instead of once per lane.
    fn fill_next_failures(&mut self, lanes: usize, out: &mut [f64]) {
        debug_assert!(lanes <= self.rngs.len());
        if !self.model.single_uniform() {
            for (lane, slot) in out[..lanes].iter_mut().enumerate() {
                *slot = self.next_failure(lane);
            }
            return;
        }
        if self.antithetic {
            for (u, rng) in out[..lanes].iter_mut().zip(&mut self.rngs) {
                *u = 1.0 - ((!rng.next_u64()) >> 11) as f64 * UNIFORM_SCALE;
            }
        } else {
            for (u, rng) in out[..lanes].iter_mut().zip(&mut self.rngs) {
                *u = 1.0 - (rng.next_u64() >> 11) as f64 * UNIFORM_SCALE;
            }
        }
        self.model.interarrivals_from_open(&mut out[..lanes]);
        for (t, now) in out[..lanes].iter_mut().zip(&mut self.now) {
            *now += *t;
            *t = *now;
        }
    }
}

/// One recording [`TraceBuffer`] per lane — batch common-random-numbers
/// replay.
///
/// Resetting seeds every lane's buffer; [`BatchTraceBuffer::cursors`] then
/// hands out a lane-indexed replay cursor.  Taking cursors repeatedly replays
/// the same recorded sequences, so several protocol executors can face the
/// same per-lane adversity (the batch analogue of replaying one scalar
/// [`TraceBuffer`] to several executors).
#[derive(Debug, Clone)]
pub struct BatchTraceBuffer<M: FailureModel + Clone> {
    buffers: Vec<TraceBuffer<M>>,
    model: M,
}

impl<M: FailureModel + Clone> BatchTraceBuffer<M> {
    /// Creates a buffer with one recording lane per seed.
    pub fn new(model: M, seeds: &[u64]) -> Self {
        Self {
            buffers: seeds
                .iter()
                .map(|&s| TraceBuffer::new(model.clone(), s))
                .collect(),
            model,
        }
    }

    /// Number of lanes.
    #[inline]
    pub fn lanes(&self) -> usize {
        self.buffers.len()
    }

    /// Starts a fresh recorded sequence on every lane (lane `i` from
    /// `seeds[i]`), keeping each lane's allocation where the lane count is
    /// unchanged.
    pub fn reset(&mut self, seeds: &[u64]) {
        self.resize_lanes(seeds.len());
        for (buffer, &seed) in self.buffers.iter_mut().zip(seeds) {
            buffer.reset(seed);
        }
    }

    /// Starts the antithetic partner sequence on every lane.
    pub fn reset_antithetic(&mut self, seeds: &[u64]) {
        self.resize_lanes(seeds.len());
        for (buffer, &seed) in self.buffers.iter_mut().zip(seeds) {
            buffer.reset_antithetic(seed);
        }
    }

    fn resize_lanes(&mut self, lanes: usize) {
        if self.buffers.len() > lanes {
            self.buffers.truncate(lanes);
        }
        while self.buffers.len() < lanes {
            self.buffers.push(TraceBuffer::new(self.model.clone(), 0));
        }
    }

    /// The recording buffer of one lane.
    #[inline]
    pub fn lane(&mut self, lane: usize) -> &mut TraceBuffer<M> {
        &mut self.buffers[lane]
    }

    /// A lane-indexed replay cursor positioned at the start of every lane's
    /// sequence.  Like the scalar [`TraceBuffer::cursor`], replaying may
    /// extend the recordings, so the cursor borrows the buffer mutably.
    pub fn cursors(&mut self) -> BatchTraceCursor<'_, M> {
        let lanes = self.buffers.len();
        BatchTraceCursor {
            buffer: self,
            next: vec![0; lanes],
        }
    }
}

/// A lane-indexed replay position into a [`BatchTraceBuffer`].
#[derive(Debug)]
pub struct BatchTraceCursor<'a, M: FailureModel + Clone> {
    buffer: &'a mut BatchTraceBuffer<M>,
    next: Vec<usize>,
}

impl<M: FailureModel + Clone> BatchFailureSource for BatchTraceCursor<'_, M> {
    #[inline]
    fn lanes(&self) -> usize {
        self.next.len()
    }

    #[inline]
    fn next_failure(&mut self, lane: usize) -> f64 {
        let index = self.next[lane];
        self.next[lane] += 1;
        self.buffer.buffers[lane].time(index)
    }

    #[inline]
    fn mean_interarrival(&self) -> f64 {
        self.buffer.model.mean()
    }

    /// Columnar bulk replay: lanes whose next index is already recorded read
    /// the memoised time; lanes sitting exactly at their recording frontier
    /// contribute one open uniform to a contiguous column that goes through
    /// the inverse CDF in a single [`FailureModel::interarrivals_from_open`]
    /// call before each gap is committed back in lane order.  Both halves
    /// replicate the scalar [`TraceBuffer::time`] float operations exactly.
    fn fill_next_failures(&mut self, lanes: usize, out: &mut [f64]) {
        debug_assert!(lanes <= self.next.len());
        if !self.buffer.model.single_uniform() {
            for (lane, slot) in out[..lanes].iter_mut().enumerate() {
                *slot = self.next_failure(lane);
            }
            return;
        }
        // Lanes needing exactly one fresh draw, in ascending lane order, and
        // the open uniform each one drew.
        let mut pending: Vec<u32> = Vec::new();
        let mut open: Vec<f64> = Vec::new();
        for (lane, slot) in out[..lanes].iter_mut().enumerate() {
            let index = self.next[lane];
            self.next[lane] += 1;
            let buffer = &mut self.buffer.buffers[lane];
            let sampled = buffer.sampled();
            if index < sampled.len() {
                *slot = sampled[index];
            } else if index == sampled.len() {
                pending.push(lane as u32);
                open.push(buffer.next_open());
            } else {
                // Unreachable through this trait (each call advances a lane
                // by one), kept as a scalar safety net.
                *slot = buffer.time(index);
            }
        }
        if !pending.is_empty() {
            self.buffer.model.interarrivals_from_open(&mut open);
            for (&lane, &gap) in pending.iter().zip(&open) {
                out[lane as usize] = self.buffer.buffers[lane as usize].push_gap(gap);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failure::{ExponentialFailures, FailureSource, FailureStream, WeibullFailures};
    use crate::rng::SeedStream;
    use crate::units;

    fn lane_seeds(n: usize) -> Vec<u64> {
        let mut seeds = vec![0u64; n];
        SeedStream::new(0xBA7C4).fill(&mut seeds);
        seeds
    }

    #[test]
    fn batch_stream_lanes_match_scalar_streams_bit_for_bit() {
        let model = ExponentialFailures::new(units::hours(2.0)).unwrap();
        let seeds = lane_seeds(7);
        let mut batch = BatchFailureStream::new(model, &seeds);
        assert_eq!(batch.lanes(), 7);
        let mut scalars: Vec<_> = seeds.iter().map(|&s| FailureStream::new(model, s)).collect();
        // Interleave lanes in a scrambled order: per-lane sequences must not
        // care.
        for round in 0..50 {
            for lane in [3usize, 0, 6, 1, 5, 2, 4] {
                assert_eq!(
                    batch.next_failure(lane).to_bits(),
                    scalars[lane].next_failure().to_bits(),
                    "lane {lane} round {round}"
                );
            }
        }
    }

    #[test]
    fn batch_stream_antithetic_matches_scalar_antithetic_replay() {
        let model = WeibullFailures::new(units::hours(1.0), 0.7).unwrap();
        let seeds = lane_seeds(5);
        let mut batch = BatchFailureStream::new(model, &seeds);
        batch.reset_antithetic(&seeds);
        assert!(batch.is_antithetic());
        for (lane, &seed) in seeds.iter().enumerate() {
            let mut scalar = TraceBuffer::new(model, seed);
            scalar.reset_antithetic(seed);
            let mut cursor = scalar.cursor();
            for i in 0..40 {
                assert_eq!(
                    batch.next_failure(lane).to_bits(),
                    FailureSource::next_failure(&mut cursor).to_bits(),
                    "lane {lane} index {i}"
                );
            }
        }
    }

    #[test]
    fn batch_stream_reset_reuses_lanes_and_restarts_sequences() {
        let model = ExponentialFailures::new(100.0).unwrap();
        let seeds = lane_seeds(4);
        let mut batch = BatchFailureStream::new(model, &seeds);
        let first: Vec<u64> = (0..4).map(|l| batch.next_failure(l).to_bits()).collect();
        batch.reset(&seeds);
        let again: Vec<u64> = (0..4).map(|l| batch.next_failure(l).to_bits()).collect();
        assert_eq!(first, again);
        // Ragged tail: resetting with fewer seeds shrinks the lane count.
        batch.reset(&seeds[..2]);
        assert_eq!(batch.lanes(), 2);
        assert_eq!(batch.next_failure(0).to_bits(), first[0]);
        assert!((batch.mean_interarrival() - 100.0).abs() < 1e-12);
    }

    #[test]
    fn batch_trace_cursors_replay_like_scalar_cursors() {
        let model = ExponentialFailures::new(units::minutes(45.0)).unwrap();
        let seeds = lane_seeds(6);
        let mut batch = BatchTraceBuffer::new(model, &seeds);
        assert_eq!(batch.lanes(), 6);
        // First replay records, second replay must be bit-identical, and both
        // must match a scalar TraceBuffer per lane.
        let first: Vec<Vec<u64>> = {
            let mut cursors = batch.cursors();
            (0..6)
                .map(|lane| (0..30).map(|_| cursors.next_failure(lane).to_bits()).collect())
                .collect()
        };
        let second: Vec<Vec<u64>> = {
            let mut cursors = batch.cursors();
            assert_eq!(cursors.lanes(), 6);
            (0..6)
                .map(|lane| (0..30).map(|_| cursors.next_failure(lane).to_bits()).collect())
                .collect()
        };
        assert_eq!(first, second);
        for (lane, &seed) in seeds.iter().enumerate() {
            let mut scalar = TraceBuffer::new(model, seed);
            let mut cursor = scalar.cursor();
            for (i, &bits) in first[lane].iter().enumerate() {
                assert_eq!(
                    bits,
                    FailureSource::next_failure(&mut cursor).to_bits(),
                    "lane {lane} index {i}"
                );
            }
        }
    }

    #[test]
    fn batch_trace_reset_grows_and_shrinks_lanes() {
        let model = ExponentialFailures::new(units::hours(1.0)).unwrap();
        let seeds = lane_seeds(3);
        let mut batch = BatchTraceBuffer::new(model, &seeds[..1]);
        batch.reset(&seeds);
        assert_eq!(batch.lanes(), 3);
        let reference = TraceBuffer::new(model, seeds[2]).time(10);
        assert_eq!(batch.lane(2).time(10).to_bits(), reference.to_bits());
        batch.reset_antithetic(&seeds[..2]);
        assert_eq!(batch.lanes(), 2);
        assert!(batch.lane(0).is_antithetic());
        let mut cursors = batch.cursors();
        assert!((cursors.mean_interarrival() - units::hours(1.0)).abs() < 1e-12);
        assert!(cursors.next_failure(1) > 0.0);
    }

    #[test]
    fn seed_stream_fill_matches_iteration() {
        let mut by_fill = vec![0u64; 10];
        SeedStream::new(99).fill(&mut by_fill);
        let by_iter: Vec<u64> = SeedStream::new(99).take(10).collect();
        assert_eq!(by_fill, by_iter);
    }

    /// Drives `bulk` through the columnar fill and `scalar` through one
    /// `next_failure` per lane, asserting bit-identity every round.
    fn assert_fill_matches_scalar<B, S>(bulk: &mut B, scalar: &mut S, lanes: usize, rounds: usize)
    where
        B: BatchFailureSource,
        S: BatchFailureSource,
    {
        let mut out = vec![0.0f64; lanes];
        for round in 0..rounds {
            bulk.fill_next_failures(lanes, &mut out);
            for (lane, &got) in out.iter().enumerate() {
                assert_eq!(
                    got.to_bits(),
                    scalar.next_failure(lane).to_bits(),
                    "round {round} lane {lane}"
                );
            }
        }
    }

    #[test]
    fn bulk_fill_falls_back_to_scalar_for_multi_uniform_models() {
        use crate::failure::FailureModel;
        use crate::rng::DeterministicRng;

        // A model that hides its single-uniform structure: the columnar
        // overrides must take their scalar fallback branch and still match.
        #[derive(Debug, Clone, Copy)]
        struct Opaque(ExponentialFailures);
        impl FailureModel for Opaque {
            fn next_interarrival(&self, rng: &mut dyn DeterministicRng) -> f64 {
                self.0.next_interarrival(rng)
            }
            fn mean(&self) -> f64 {
                self.0.mean()
            }
            fn name(&self) -> &'static str {
                "opaque"
            }
        }

        let model = Opaque(ExponentialFailures::new(units::hours(3.0)).unwrap());
        assert!(!crate::failure::FailureModel::single_uniform(&model));
        let seeds = lane_seeds(9);
        let mut bulk = BatchFailureStream::new(model, &seeds);
        let mut scalar = BatchFailureStream::new(model, &seeds);
        assert_fill_matches_scalar(&mut bulk, &mut scalar, seeds.len(), 6);

        let mut bulk_trace = BatchTraceBuffer::new(model, &seeds);
        let mut scalar_trace = BatchTraceBuffer::new(model, &seeds);
        assert_fill_matches_scalar(
            &mut bulk_trace.cursors(),
            &mut scalar_trace.cursors(),
            seeds.len(),
            6,
        );
    }

    mod bulk_fill_properties {
        use super::*;
        use crate::failure::FailureSpec;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// The tentpole bit-exactness contract: the columnar
            /// `fill_next_failures` path equals one scalar `next_failure`
            /// per lane, bit for bit, across distribution families, lane
            /// widths, and all three source flavours (fresh, antithetic,
            /// partially memoised replay).
            #[test]
            fn bulk_fill_is_bit_identical_to_scalar_draws(
                family in 0u8..2,
                shape in 0.5f64..1.6,
                lanes in 1usize..48,
                rounds in 1usize..6,
                master in 0u64..u64::MAX,
                mode in 0u8..3,
            ) {
                let spec = if family == 0 {
                    FailureSpec::Exponential
                } else {
                    FailureSpec::Weibull { shape }
                };
                let model = spec.build(units::hours(2.0)).unwrap();
                let mut seeds = vec![0u64; lanes];
                SeedStream::new(master).fill(&mut seeds);
                match mode {
                    0 => {
                        let mut bulk = BatchFailureStream::new(model, &seeds);
                        let mut scalar = BatchFailureStream::new(model, &seeds);
                        assert_fill_matches_scalar(&mut bulk, &mut scalar, lanes, rounds);
                    }
                    1 => {
                        let mut bulk = BatchFailureStream::new(model, &seeds);
                        let mut scalar = BatchFailureStream::new(model, &seeds);
                        bulk.reset_antithetic(&seeds);
                        scalar.reset_antithetic(&seeds);
                        assert_fill_matches_scalar(&mut bulk, &mut scalar, lanes, rounds);
                    }
                    _ => {
                        let mut bulk_trace = BatchTraceBuffer::new(model, &seeds);
                        let mut scalar_trace = BatchTraceBuffer::new(model, &seeds);
                        // Pre-memoise a ragged prefix on some lanes so the
                        // bulk path mixes recorded reads with frontier
                        // extensions inside one fill.
                        for lane in 0..lanes {
                            if lane % 3 == 0 {
                                bulk_trace.lane(lane).time(1 + lane % 4);
                            }
                        }
                        assert_fill_matches_scalar(
                            &mut bulk_trace.cursors(),
                            &mut scalar_trace.cursors(),
                            lanes,
                            rounds,
                        );
                    }
                }
            }
        }
    }
}
