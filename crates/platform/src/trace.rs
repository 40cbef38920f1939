//! Replayable failure sequences.
//!
//! A [`TraceBuffer`] records one sampled failure sequence and replays it
//! through [`TraceCursor`]s.  Given the same sequence, every protocol sees
//! exactly the same adversity, which makes protocol comparisons paired
//! rather than independent and drastically reduces comparison variance.

use crate::failure::{FailureModel, FailureSource, SourceState};
use crate::rng::{DeterministicRng, Xoshiro256};

/// A reusable recording buffer of one sampled failure sequence — the
/// common-random-numbers workhorse of the replication fast path.
///
/// Failure times are sampled **lazily** from the model, in exactly the order
/// a [`crate::failure::FailureStream`] with the same model and seed would
/// produce them, and are memoised so the sequence can be replayed any number
/// of times through [`TraceBuffer::cursor`].  Replaying the same buffer to
/// several protocol executors makes their comparison *paired*: every
/// protocol faces the same adversity, and per-trace differences cancel the
/// shared sampling noise.
///
/// The buffer is reused across replications: [`TraceBuffer::reset`] reseeds
/// the generator and clears the recorded times while keeping the allocation,
/// so a whole parameter point (a thousand replications × three protocols)
/// touches the allocator only when a replication sees more failures than any
/// one before it.
///
/// [`TraceBuffer::reset_antithetic`] starts the **antithetic partner** of a
/// seed's sequence instead: every uniform feeding the inter-arrival sampler
/// is replaced by `1 − u` (see [`crate::rng::AntitheticRng`]), so the
/// partner sees long gaps exactly where the original saw short ones.
/// Averaging each `(seed, antithetic-seed)` outcome pair cancels first-order
/// sampling noise on smooth waste responses — the antithetic-variates
/// variance reduction behind the sweep subsystem's `--antithetic` flag.
#[derive(Debug, Clone)]
pub struct TraceBuffer<M: FailureModel> {
    model: M,
    rng: Xoshiro256,
    antithetic: bool,
    times: Vec<f64>,
    last: f64,
    state: SourceState,
}

impl<M: FailureModel> TraceBuffer<M> {
    /// Creates a buffer over `model`, seeded for its first replication.
    pub fn new(model: M, seed: u64) -> Self {
        Self {
            model,
            rng: Xoshiro256::seed_from_u64(seed),
            antithetic: false,
            times: Vec::new(),
            last: 0.0,
            state: SourceState::default(),
        }
    }

    /// Starts a fresh failure sequence for the next replication, keeping the
    /// buffer's allocation.
    pub fn reset(&mut self, seed: u64) {
        self.rng = Xoshiro256::seed_from_u64(seed);
        self.antithetic = false;
        self.times.clear();
        self.last = 0.0;
        self.state = SourceState::default();
    }

    /// Starts the **antithetic partner** of `seed`'s failure sequence: the
    /// same generator states, but every uniform flipped to `1 − u` before it
    /// reaches the inter-arrival transform.
    pub fn reset_antithetic(&mut self, seed: u64) {
        self.reset(seed);
        self.antithetic = true;
    }

    /// Whether the current sequence is an antithetic replay.
    #[inline]
    pub fn is_antithetic(&self) -> bool {
        self.antithetic
    }

    /// Absolute time of the `index`-th failure of the current sequence,
    /// sampling (and recording) any failures not yet drawn.
    pub fn time(&mut self, index: usize) -> f64 {
        while self.times.len() <= index {
            // Advance through the stateful hook: for i.i.d. models this is
            // exactly the historical `last += next_interarrival` step (the
            // default never touches `state`); non-stationary scenario models
            // use `last` and their `SourceState` scratch.  Since the state is
            // rebuilt by replaying from index 0 after every reset, lazily
            // re-extending a reset buffer (the crash-resume repositioning
            // path) reproduces the original sequence bit for bit.
            self.last = if self.antithetic {
                self.model.next_failure_time_static(
                    self.last,
                    &mut self.state,
                    &mut crate::rng::AntitheticRng(&mut self.rng),
                )
            } else {
                self.model
                    .next_failure_time_static(self.last, &mut self.state, &mut self.rng)
            };
            self.times.push(self.last);
        }
        self.times[index]
    }

    /// The failure times sampled so far in the current sequence.
    #[inline]
    pub fn sampled(&self) -> &[f64] {
        &self.times
    }

    /// Draws the next **open uniform** of the current sequence — the exact
    /// bits [`TraceBuffer::time`] would feed the inter-arrival transform
    /// (antithetic complement included) — without applying the transform.
    /// The batch replay cursor uses this to collect one column of uniforms
    /// across lanes and apply the inverse CDF columnar; the draw must be
    /// committed back with [`TraceBuffer::push_gap`].
    #[inline]
    pub(crate) fn next_open(&mut self) -> f64 {
        let raw = if self.antithetic {
            !self.rng.next_u64()
        } else {
            self.rng.next_u64()
        };
        1.0 - (raw >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Appends one sampled inter-arrival `gap` to the recording and returns
    /// the new absolute failure time — the bookkeeping half of
    /// [`TraceBuffer::time`]'s lazy extension, split out for the columnar
    /// batch replay path.
    #[inline]
    pub(crate) fn push_gap(&mut self, gap: f64) -> f64 {
        self.last += gap;
        self.times.push(self.last);
        self.last
    }

    /// The underlying inter-arrival model.
    #[inline]
    pub fn model(&self) -> &M {
        &self.model
    }

    /// A replay cursor positioned at the start of the sequence.  Cursors
    /// borrow the buffer mutably (replaying may need to extend the
    /// recording), so executors consume them one after the other.
    pub fn cursor(&mut self) -> TraceCursor<'_, M> {
        self.cursor_at(0)
    }

    /// A replay cursor positioned at the `index`-th failure of the sequence
    /// — the crash-resume counterpart of [`TraceBuffer::cursor`]: a
    /// simulation checkpoint records how many failure draws it had consumed,
    /// and resuming replays the sequence from exactly that position, so the
    /// resumed run sees the same future the uninterrupted run saw.
    pub fn cursor_at(&mut self, index: usize) -> TraceCursor<'_, M> {
        TraceCursor {
            buffer: self,
            next: index,
        }
    }
}

/// A replay position into a [`TraceBuffer`]: yields the recorded failure
/// sequence from the beginning, extending the recording on demand.
#[derive(Debug)]
pub struct TraceCursor<'a, M: FailureModel> {
    buffer: &'a mut TraceBuffer<M>,
    next: usize,
}

impl<M: FailureModel> TraceCursor<'_, M> {
    /// Index of the next failure this cursor will yield — the value to feed
    /// [`TraceBuffer::cursor_at`] to recreate the cursor at this position.
    #[inline]
    pub fn position(&self) -> usize {
        self.next
    }
}

impl<M: FailureModel> FailureSource for TraceCursor<'_, M> {
    #[inline]
    fn next_failure(&mut self) -> f64 {
        let t = self.buffer.time(self.next);
        self.next += 1;
        t
    }

    #[inline]
    fn mean_interarrival(&self) -> f64 {
        self.buffer.model.mean()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failure::ExponentialFailures;
    use crate::units;

    fn exp_model(mtbf: f64) -> ExponentialFailures {
        ExponentialFailures::new(mtbf).unwrap()
    }

    #[test]
    fn trace_buffer_matches_a_failure_stream_bit_for_bit() {
        use crate::failure::{FailureSource, FailureStream};
        let m = exp_model(units::hours(2.0));
        let mut stream = FailureStream::new(m, 77);
        let mut buffer = TraceBuffer::new(m, 77);
        let mut cursor = buffer.cursor();
        for _ in 0..200 {
            assert_eq!(
                stream.next_failure().to_bits(),
                FailureSource::next_failure(&mut cursor).to_bits()
            );
        }
    }

    #[test]
    fn trace_buffer_replays_identically_to_every_cursor() {
        use crate::failure::FailureSource;
        let m = exp_model(units::minutes(90.0));
        let mut buffer = TraceBuffer::new(m, 5);
        let first: Vec<f64> = {
            let mut c = buffer.cursor();
            (0..50).map(|_| c.next_failure()).collect()
        };
        // A second cursor — possibly reading further — sees the same prefix.
        let second: Vec<f64> = {
            let mut c = buffer.cursor();
            (0..80).map(|_| c.next_failure()).collect()
        };
        assert_eq!(first.as_slice(), &second[..50]);
        assert_eq!(buffer.sampled().len(), 80);
        assert!((buffer.cursor().mean_interarrival() - units::minutes(90.0)).abs() < 1e-9);
    }

    #[test]
    fn trace_buffer_reset_starts_a_fresh_sequence_and_keeps_capacity() {
        let m = exp_model(units::hours(1.0));
        let mut buffer = TraceBuffer::new(m, 1);
        let a = buffer.time(99);
        let cap = buffer.sampled().len();
        buffer.reset(2);
        assert!(buffer.sampled().is_empty());
        let b = buffer.time(99);
        assert_ne!(a.to_bits(), b.to_bits());
        // Same seed again: identical sequence.
        buffer.reset(1);
        assert_eq!(buffer.time(99).to_bits(), a.to_bits());
        assert!(buffer.sampled().len() >= cap.min(100));
    }

    #[test]
    fn antithetic_replay_flips_the_sequence_and_keeps_the_mean() {
        let mtbf = units::hours(2.0);
        let m = exp_model(mtbf);
        let mut buffer = TraceBuffer::new(m, 42);
        assert!(!buffer.is_antithetic());
        let n = 20_000;
        let plain_last = buffer.time(n - 1);
        let plain: Vec<f64> = buffer.sampled().to_vec();
        buffer.reset_antithetic(42);
        assert!(buffer.is_antithetic());
        let anti_last = buffer.time(n - 1);
        let anti: Vec<f64> = buffer.sampled().to_vec();
        // Different sequences drawn from the same seed…
        assert_ne!(plain[0].to_bits(), anti[0].to_bits());
        // …with per-gap negative association: a short plain gap pairs with a
        // long antithetic gap (compare against the exponential median).
        let median = mtbf * std::f64::consts::LN_2;
        let mut opposite = 0usize;
        let gap = |times: &[f64], i: usize| times[i] - if i == 0 { 0.0 } else { times[i - 1] };
        for i in 0..n {
            if (gap(&plain, i) < median) != (gap(&anti, i) < median) {
                opposite += 1;
            }
        }
        assert!(
            opposite as f64 / n as f64 > 0.95,
            "only {opposite}/{n} gaps on opposite sides of the median"
        );
        // Both sequences still realise the model's mean inter-arrival.
        assert!((plain_last / n as f64 - mtbf).abs() / mtbf < 0.05);
        assert!((anti_last / n as f64 - mtbf).abs() / mtbf < 0.05);
        // A plain reset leaves antithetic mode.
        buffer.reset(42);
        assert!(!buffer.is_antithetic());
        assert_eq!(buffer.time(0).to_bits(), plain[0].to_bits());
    }
}
