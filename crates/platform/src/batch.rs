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
//!   across protocol executors, lane by lane);
//! * [`ForkRecord`] / [`ForkedStream`] — several programs reading one
//!   [`BatchFailureStream`] from a fork, each failure drawn once.
//!
//! The bit-exactness contract of the batch engine rests on a simple
//! observation: the per-lane sequence of failure times is a pure function of
//! `(model, seed, antithetic)` and of *how many* times the lane has been
//! asked for its next failure — never of what other lanes do.  Each type here
//! keeps fully independent per-lane generator state, so interleaving lanes in
//! any order yields the same per-lane sequences as running them alone.
//!
//! The engine's fast pass runs on the lane kernel here as well:
//! [`CommitKernel`] advances every lane's clock by a block's cost terms and
//! commits the lanes that finish before their next failure, listing the
//! rest in a [`Worklist`].  It picks an AVX-512 body at run time where the
//! CPU has one and the portable loop elsewhere; both return the same bits.

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

    /// The absolute time of `lane`'s next failure, advancing its generator,
    /// its time and its state: the one draw every stream lane makes, through
    /// the model's statically dispatched hook.
    #[inline]
    fn draw(&mut self, lane: usize) -> f64 {
        let (rng, now, state) = (&mut self.rngs[lane], &mut self.now[lane], &mut self.states[lane]);
        *now = if self.antithetic {
            self.model.next_failure_time_static(*now, state, &mut AntitheticRng(rng))
        } else {
            self.model.next_failure_time_static(*now, state, rng)
        };
        *now
    }
}

impl<M: FailureModel> BatchFailureSource for BatchFailureStream<M> {
    #[inline]
    fn lanes(&self) -> usize {
        self.rngs.len()
    }

    /// Out of line, like [`ForkedStream`]'s: the model's sampling body is
    /// inlined here once rather than at every retry-loop call site.
    #[inline(never)]
    fn next_failure(&mut self, lane: usize) -> f64 {
        // Route through the stateful hook (bit-identical to the historical
        // `now += next_interarrival` for i.i.d. models, which never touch
        // their lane's `SourceState`); per-lane state keeps the lanes fully
        // independent, exactly like the per-lane RNGs.
        self.draw(lane)
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

/// Failure times per chunk of a [`ForkRecord`]'s tape.
pub const FORK_RECORD: usize = 64;

/// Every post-fork failure time of a [`BatchFailureStream`], so that several
/// programs run from the same fork draw each failure once.
///
/// [`ForkRecord::start`] marks the fork; each program then reads the lanes
/// through [`BatchFailureStream::from_fork`], which starts every lane at the
/// fork again.  The record is a *tape*: one `Vec` of [`FORK_RECORD`]-sized
/// chunks, where lane `l`'s chain starts at chunk `l` and each full chunk
/// links to the next one of its lane, appended when a live draw fills it.
/// Per lane the record keeps the tape slot of the live stream's next draw
/// (the *frontier*) and of the running program's next read (`at`).  A
/// program's read on a lane is
///
/// * the time at `at`, when `at` is behind the frontier;
/// * a live draw from the stream, when `at` is the frontier, which is
///   recorded there and advances the frontier.
///
/// A lane's chain holds its post-fork draws in order, so both yield the
/// program's next draw of the lane's sequence bit for bit: that sequence
/// is a pure function of the lane's seed, its antithetic flag and its draw
/// count.  The first program draws live throughout; later programs replay
/// the tape and draw live only where they outrun every program before
/// them.  The shared tape keeps the allocation of the longest segment's
/// total of chunks, where buffers per lane would each keep their own
/// lane's longest run.
#[derive(Debug, Clone, Default)]
pub struct ForkRecord {
    /// [`FORK_RECORD`]-sized chunks of failure times; lane `l`'s chain
    /// starts at chunk `l`.
    tape: Vec<f64>,
    /// The chunk after each full chunk in its lane's chain.
    next: Vec<u32>,
    /// The tape slot of the live stream's next draw per lane.
    frontier: Vec<u32>,
    /// The tape slot of the running program's next read per lane.
    at: Vec<u32>,
}

impl ForkRecord {
    /// An empty record.
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks the fork of `stream`: each lane's chain is its first chunk,
    /// empty.  Keeps the allocations of earlier forks.
    pub fn start<M: FailureModel>(&mut self, stream: &BatchFailureStream<M>) {
        let lanes = stream.lanes();
        self.frontier.clear();
        self.frontier.extend((0..lanes).map(|lane| (lane * FORK_RECORD) as u32));
        self.tape.truncate(lanes * FORK_RECORD);
        self.tape.resize(lanes * FORK_RECORD, 0.0);
        self.next.truncate(lanes);
        self.next.resize(lanes, 0);
    }

    /// The slot after `slot` in its lane's chain.  Past a chunk's end the
    /// chunk is full, so the live draw that filled it linked the next.
    #[inline]
    fn step(&self, slot: u32) -> u32 {
        let next = slot + 1;
        if next.is_multiple_of(FORK_RECORD as u32) {
            self.next[slot as usize / FORK_RECORD] * FORK_RECORD as u32
        } else {
            next
        }
    }
}

impl<M: FailureModel> BatchFailureStream<M> {
    /// Every lane's sequence from the fork `record` marked (see
    /// [`ForkRecord::start`]), for one program: each call starts all lanes
    /// at the fork again.  Between the calls, draw from this stream only
    /// through the sources they return.
    pub fn from_fork<'a>(&'a mut self, record: &'a mut ForkRecord) -> ForkedStream<'a, M> {
        record.at.clear();
        record.at.extend((0..self.lanes()).map(|lane| (lane * FORK_RECORD) as u32));
        ForkedStream {
            stream: self,
            record,
        }
    }
}

/// One program's view of a [`BatchFailureStream`] from a fork: see
/// [`ForkRecord`].
#[derive(Debug)]
pub struct ForkedStream<'a, M: FailureModel> {
    stream: &'a mut BatchFailureStream<M>,
    record: &'a mut ForkRecord,
}

impl<M: FailureModel> BatchFailureSource for ForkedStream<'_, M> {
    #[inline]
    fn lanes(&self) -> usize {
        self.record.at.len()
    }

    /// Out of line: the engine's retry loops call this from many sites,
    /// and the model's sampling body, inlined here once, would swell every
    /// one of them.
    #[inline(never)]
    fn next_failure(&mut self, lane: usize) -> f64 {
        let record = &mut *self.record;
        let at = record.at[lane];
        let slot = at as usize;
        if at != record.frontier[lane] {
            record.at[lane] = record.step(at);
            return record.tape[slot];
        }
        let t = self.stream.draw(lane);
        record.tape[slot] = t;
        if (slot + 1).is_multiple_of(FORK_RECORD) {
            // The chunk is full: append the lane's next one and link it.
            record.next[slot / FORK_RECORD] = (record.tape.len() / FORK_RECORD) as u32;
            record.next.push(0);
            record.tape.resize(record.tape.len() + FORK_RECORD, 0.0);
            assert!(record.tape.len() <= u32::MAX as usize, "fork tape past u32 slots");
        }
        let next = record.step(at);
        record.frontier[lane] = next;
        record.at[lane] = next;
        t
    }

    #[inline]
    fn mean_interarrival(&self) -> f64 {
        self.stream.mean_interarrival()
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

/// Lanes one commit-kernel chunk holds in registers: eight `f64`s, one
/// 512-bit vector.
pub const COMMIT_CHUNK: usize = 8;

/// A dense list of lane indices in ascending order: the lanes a
/// [`CommitKernel`] pass (or a per-lane test) left for the slow path.
///
/// The slots keep [`COMMIT_CHUNK`] entries of slack beyond the lanes they
/// index, so a writer may store a whole chunk of candidate indices at the
/// running length and then advance the length by the chunk's miss count.
/// Clearing only resets the length: once grown, the slots are never
/// zero-filled again.
#[derive(Debug, Clone, Default)]
pub struct Worklist {
    slots: Vec<u32>,
    len: usize,
}

impl Worklist {
    /// Empties the list, with room for the indices of up to `lanes` lanes.
    #[inline]
    pub fn clear(&mut self, lanes: usize) {
        let room = lanes + COMMIT_CHUNK;
        if self.slots.len() < room {
            self.slots.resize(room, 0);
        }
        self.len = 0;
    }

    /// Appends `lane` if `keep`, branch-free: the slot is written either
    /// way and only the length depends on `keep`.  Holds at most as many
    /// pushes as the lanes the list was last cleared for.
    #[inline]
    pub fn push_if(&mut self, lane: u32, keep: bool) {
        self.slots[self.len] = lane;
        self.len += usize::from(keep);
    }

    /// The listed lanes, in the order they were appended.
    #[inline]
    pub fn as_slice(&self) -> &[u32] {
        &self.slots[..self.len]
    }

    /// Number of listed lanes.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no lane is listed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// The lane kernel of the batch engine's fast pass, chosen at run time.
///
/// [`CommitKernel::commit`] advances every lane by a block's failure-free
/// cost and commits the lanes that finish before their next failure.  Every
/// kernel performs the same float additions in the same order, with no
/// fused multiply-add, and the same ordered `<` compare, so all kernels
/// return the same bits; [`CommitKernel::PORTABLE`] is the reference the
/// others are tested against.  Resolve the kernel once with
/// [`CommitKernel::detect`] and reuse it for a whole batch of work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitKernel(KernelKind);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum KernelKind {
    Portable,
    /// Built only by [`CommitKernel::detect`], after it saw AVX-512F,
    /// AVX-512VL and POPCNT on the running CPU.
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl CommitKernel {
    /// The portable kernel: runs on every target, [`COMMIT_CHUNK`] lanes at
    /// a time in plain arrays the compiler may vectorise.
    pub const PORTABLE: Self = Self(KernelKind::Portable);

    /// The fastest kernel the running CPU supports: AVX-512 on x86_64 CPUs
    /// with AVX-512F, AVX-512VL and POPCNT, the portable kernel elsewhere.
    pub fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx512f")
            && is_x86_feature_detected!("avx512vl")
            && is_x86_feature_detected!("popcnt")
        {
            return Self(KernelKind::Avx512);
        }
        Self::PORTABLE
    }

    /// Advances every lane through a block whose cost terms are `terms`.
    ///
    /// Each lane's end time is `now` plus the terms, added one at a time in
    /// order.  A lane whose end stays strictly before its `next_failure`
    /// commits it to `now`; every other lane (a NaN end or failure
    /// included) keeps its `now` and is listed in `worklist`, which is
    /// cleared first and ends up holding those lanes in ascending order.
    ///
    /// # Panics
    ///
    /// If `next_failure` and `now` differ in length.
    #[allow(unsafe_code)]
    #[inline]
    pub fn commit(
        self,
        now: &mut [f64],
        next_failure: &[f64],
        terms: &[f64],
        worklist: &mut Worklist,
    ) {
        assert_eq!(now.len(), next_failure.len(), "one next failure per lane");
        worklist.clear(now.len());
        worklist.len = match self.0 {
            KernelKind::Portable => commit_portable(now, next_failure, terms, &mut worklist.slots),
            #[cfg(target_arch = "x86_64")]
            KernelKind::Avx512 => {
                let slots = &mut worklist.slots;
                // SAFETY: an `Avx512` kernel exists only once `detect` has
                // seen AVX-512F, AVX-512VL and POPCNT on the running CPU,
                // the features `commit_avx512` enables.
                unsafe {
                    match *terms {
                        [a] => commit_avx512(now, next_failure, [a], slots),
                        [a, b] => commit_avx512(now, next_failure, [a, b], slots),
                        [a, b, c] => commit_avx512(now, next_failure, [a, b, c], slots),
                        [a, b, c, d] => commit_avx512(now, next_failure, [a, b, c, d], slots),
                        _ => commit_avx512(now, next_failure, terms, slots),
                    }
                }
            }
        };
    }
}

/// The portable commit kernel: each [`COMMIT_CHUNK`] of lanes sums its end
/// times in a register-sized array, compares, selects and compacts its
/// misses by an unconditional store at the running count; a ragged tail
/// runs the same sums one lane at a time.  Returns the number of listed
/// lanes.  `slots` holds at least `now.len()` entries.
fn commit_portable(
    now: &mut [f64],
    next_failure: &[f64],
    terms: &[f64],
    slots: &mut [u32],
) -> usize {
    let mut hits = 0usize;
    let (chunks, tail) = now.as_chunks_mut::<COMMIT_CHUNK>();
    let (failure_chunks, failure_tail) = next_failure.as_chunks::<COMMIT_CHUNK>();
    let base = chunks.len() * COMMIT_CHUNK;
    for (c, (t, nf)) in chunks.iter_mut().zip(failure_chunks).enumerate() {
        let mut end = *t;
        for &a in terms {
            for e in &mut end {
                *e += a;
            }
        }
        let mut ok = [false; COMMIT_CHUNK];
        for lane in 0..COMMIT_CHUNK {
            ok[lane] = end[lane] < nf[lane];
            t[lane] = if ok[lane] { end[lane] } else { t[lane] };
        }
        for (lane, ok) in ok.into_iter().enumerate() {
            slots[hits] = (c * COMMIT_CHUNK + lane) as u32;
            hits += usize::from(!ok);
        }
    }
    for (lane, (t, &nf)) in tail.iter_mut().zip(failure_tail).enumerate() {
        let end = terms.iter().fold(*t, |e, &a| e + a);
        let ok = end < nf;
        *t = if ok { end } else { *t };
        slots[hits] = (base + lane) as u32;
        hits += usize::from(!ok);
    }
    hits
}

/// The AVX-512 commit kernel: eight lanes per 512-bit vector, the ragged
/// tail under a lane mask.  The terms are added one `vaddpd` at a time in
/// order, the ordered-quiet `<` compare (`_CMP_LT_OQ`, false on NaN like
/// Rust's `<`) yields the commit mask, a blend keeps the missed lanes' own
/// clocks, and the missed lanes' indices are packed with `vpcompressd` into
/// a full 8-slot store at the running count, which then advances by the
/// miss count.  Returns the number of listed lanes.  `next_failure` holds
/// `now.len()` lanes and `slots` at least `now.len() + COMMIT_CHUNK`
/// entries.
///
/// Full chunks move with plain vector loads and stores; only the tail is
/// masked.  The slow path reads single clocks right after this store and
/// the next pass reloads them, and a load cannot take its data from a
/// pending masked store: committing under the mask made the kernel about
/// 1.3 times slower inside the engine, and the slow path 10–20 % slower.
/// `terms` is an array for the common short blocks, so the adds unroll,
/// and a slice otherwise.
///
/// # Safety
///
/// Calling it is sound only on a CPU with AVX-512F, AVX-512VL and POPCNT;
/// [`CommitKernel::commit`] reaches it only through a kernel
/// [`CommitKernel::detect`] built after checking all three.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vl,popcnt")]
#[allow(unsafe_code)]
fn commit_avx512(
    now: &mut [f64],
    next_failure: &[f64],
    terms: impl AsRef<[f64]>,
    slots: &mut [u32],
) -> usize {
    use std::arch::x86_64::{
        __mmask8, _mm256_add_epi32, _mm256_maskz_compress_epi32, _mm256_set1_epi32,
        _mm256_setr_epi32, _mm256_storeu_si256, _mm512_add_pd, _mm512_loadu_pd,
        _mm512_mask_blend_pd, _mm512_mask_cmp_pd_mask, _mm512_mask_storeu_pd,
        _mm512_maskz_loadu_pd, _mm512_set1_pd, _mm512_storeu_pd, _CMP_LT_OQ,
    };
    let terms = terms.as_ref();
    let lanes = now.len();
    let mut hits = 0usize;
    let mut index = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    let stride = _mm256_set1_epi32(COMMIT_CHUNK as i32);
    for start in (0..lanes).step_by(COMMIT_CHUNK) {
        let n = (lanes - start).min(COMMIT_CHUNK);
        let full = n == COMMIT_CHUNK;
        let valid: __mmask8 = 0xFF >> (COMMIT_CHUNK - n);
        let t = &mut now[start..start + n];
        let nf = &next_failure[start..start + n];
        // SAFETY: both slices hold `n` lanes: all eight when `full`, else
        // exactly the lanes `valid` enables; masked-off lanes are neither
        // read nor faulted on.
        let (t0, nf) = unsafe {
            if full {
                (_mm512_loadu_pd(t.as_ptr()), _mm512_loadu_pd(nf.as_ptr()))
            } else {
                (
                    _mm512_maskz_loadu_pd(valid, t.as_ptr()),
                    _mm512_maskz_loadu_pd(valid, nf.as_ptr()),
                )
            }
        };
        let mut end = t0;
        for &a in terms {
            end = _mm512_add_pd(end, _mm512_set1_pd(a));
        }
        let ok = _mm512_mask_cmp_pd_mask::<_CMP_LT_OQ>(valid, end, nf);
        let committed = _mm512_mask_blend_pd(ok, t0, end);
        // SAFETY: as for the loads, only the `n` lanes of `t` are written.
        unsafe {
            if full {
                _mm512_storeu_pd(t.as_mut_ptr(), committed);
            } else {
                _mm512_mask_storeu_pd(t.as_mut_ptr(), valid, committed);
            }
        }
        let missed = valid & !ok;
        let slot = &mut slots[hits..hits + COMMIT_CHUNK];
        // SAFETY: `slot` is exactly eight `u32`s, the 256 bits stored; the
        // store is unaligned.
        unsafe {
            _mm256_storeu_si256(
                slot.as_mut_ptr().cast(),
                _mm256_maskz_compress_epi32(missed, index),
            )
        };
        hits += missed.count_ones() as usize;
        index = _mm256_add_epi32(index, stride);
    }
    hits
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

    /// Programs reading a stream from a fork each see every lane's own
    /// sequence from the fork on, bit for bit, whether a draw comes from
    /// the tape or the live stream: lanes stop inside the first chunk, at
    /// its end and far past it, and later programs both fall behind and
    /// outrun the ones before them.
    #[test]
    fn forked_streams_replay_every_lanes_sequence_from_the_fork() {
        let model = crate::scenario::CascadeFailures::with_defaults(units::hours(1.0)).unwrap();
        let model = crate::failure::AnyFailureModel::Cascade(model);
        let seeds = lane_seeds(6);
        let r = FORK_RECORD;
        // Draws before the fork, then each program's draws after it, per lane.
        let before = [0, 3, 1, 0, 7, 2];
        let after = [
            [10, 0, r, r - 1, 3 * r, 2 * r],
            [r + 6, r + 1, r, r, r + 2, 0],
            [3 * r, 2 * r, r + 1, r + 1, 2 * r, 3 * r],
            [2, 5 * r, r + 1, 0, r + 9, 3 * r + 4],
        ];
        for antithetic in [false, true] {
            let mut stream = BatchFailureStream::new(model, &seeds);
            if antithetic {
                stream.reset_antithetic(&seeds);
            }
            let mut reference: Vec<TraceBuffer<_>> = seeds
                .iter()
                .map(|&seed| {
                    let mut buffer = TraceBuffer::new(model, seed);
                    if antithetic {
                        buffer.reset_antithetic(seed);
                    }
                    buffer
                })
                .collect();
            for (lane, &n) in before.iter().enumerate() {
                for _ in 0..n {
                    stream.next_failure(lane);
                }
            }
            let mut record = ForkRecord::new();
            // A wider fork first, so the record reuses larger allocations.
            record.start(&BatchFailureStream::new(model, &lane_seeds(9)));
            record.start(&stream);
            for (program, counts) in after.iter().enumerate() {
                let mut forked = stream.from_fork(&mut record);
                assert_eq!(forked.lanes(), seeds.len());
                let mut drawn = [0usize; 6];
                // Lanes take turns, so their draws interleave.
                while drawn.iter().zip(counts).any(|(d, c)| d < c) {
                    for lane in [4, 1, 5, 0, 3, 2] {
                        if drawn[lane] < counts[lane] {
                            let want = reference[lane].time(before[lane] + drawn[lane]);
                            let got = forked.next_failure(lane);
                            let at = (antithetic, program, lane, drawn[lane]);
                            assert_eq!(got.to_bits(), want.to_bits(), "{at:?}");
                            drawn[lane] += 1;
                        }
                    }
                }
            }
        }
    }

    /// However the programs' reads interleave and however far past the
    /// first chunk they run, the live stream draws each post-fork failure
    /// once: every lane ends `before + max over programs of its draws`
    /// draws into its sequence.
    #[test]
    fn forked_streams_draw_each_post_fork_failure_once() {
        let model = crate::scenario::CascadeFailures::with_defaults(units::hours(1.0)).unwrap();
        let model = crate::failure::AnyFailureModel::Cascade(model);
        let seeds = lane_seeds(5);
        let r = FORK_RECORD;
        let before = [2, 0, 5, 1, 0];
        // Later programs both fall behind and outrun the ones before them.
        let after = [
            [5 * r, r + 3, 0, 2 * r, 7],
            [r, 5 * r, 3 * r + 1, 2 * r - 1, 0],
            [2 * r + 5, 4 * r, 3 * r, 5 * r, r],
        ];
        let most: Vec<usize> = (0..seeds.len())
            .map(|lane| before[lane] + after.iter().map(|c| c[lane]).max().unwrap())
            .collect();
        for antithetic in [false, true] {
            // A stream whose lane `l` has drawn `draws[l]` times.
            let advanced = |draws: &[usize]| {
                let mut stream = BatchFailureStream::new(model, &seeds);
                if antithetic {
                    stream.reset_antithetic(&seeds);
                }
                for (lane, &n) in draws.iter().enumerate() {
                    for _ in 0..n {
                        stream.next_failure(lane);
                    }
                }
                stream
            };
            let mut stream = advanced(&before);
            let mut record = ForkRecord::new();
            record.start(&stream);
            for counts in &after {
                let mut forked = stream.from_fork(&mut record);
                // Lanes take turns, so their draws interleave.
                for round in 0..5 * r {
                    for lane in [3, 0, 4, 2, 1].into_iter().filter(|&l| round < counts[l]) {
                        forked.next_failure(lane);
                    }
                }
            }
            let fresh = advanced(&most);
            for lane in 0..seeds.len() {
                let at = (antithetic, lane);
                assert_eq!(stream.rngs[lane], fresh.rngs[lane], "{at:?}");
                assert_eq!(stream.now[lane].to_bits(), fresh.now[lane].to_bits(), "{at:?}");
                assert_eq!(stream.states[lane], fresh.states[lane], "{at:?}");
            }
        }
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

    /// The plainest statement of a commit: lane by lane, the terms folded
    /// onto `now` in order, one `<` against the next failure.
    fn commit_reference(now: &mut [f64], next_failure: &[f64], terms: &[f64]) -> Vec<u32> {
        let mut missed = Vec::new();
        for (lane, (t, &nf)) in now.iter_mut().zip(next_failure).enumerate() {
            let end = terms.iter().fold(*t, |e, &a| e + a);
            if end < nf {
                *t = end;
            } else {
                missed.push(lane as u32);
            }
        }
        missed
    }

    /// Every kernel the host runs, against the lane-by-lane reference, bit
    /// for bit on `now` and on the worklist: widths 0–40 and 128 (every
    /// chunk tail), 0–16 terms, failures tied with the end or one ulp either
    /// side of it, NaN and ±∞ in terms, clocks and failures, and −0.0.  Each
    /// kernel reuses one worklist throughout, so a long pass's stale slots
    /// sit under every shorter one.
    #[test]
    fn every_commit_kernel_matches_the_portable_reference_bit_for_bit() {
        let mut kernels = vec![CommitKernel::PORTABLE, CommitKernel::detect()];
        kernels.dedup();
        let mut worklists = vec![Worklist::default(); kernels.len()];
        let mut rng = Xoshiro256::seed_from_u64(0xC0417);
        let special = [
            0.0,
            -0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -1.0,
            f64::MIN_POSITIVE,
            f64::MAX,
        ];
        let draw = |rng: &mut Xoshiro256, odd: bool| {
            if odd && rng.next_u64().is_multiple_of(5) {
                special[(rng.next_u64() % special.len() as u64) as usize]
            } else {
                (rng.next_u64() % 4096) as f64 / 8.0
            }
        };
        for lanes in (0..=40).chain([128]) {
            for n_terms in 0..=16 {
                for round in 0..3 {
                    let odd = round > 0;
                    let now: Vec<f64> = (0..lanes).map(|_| draw(&mut rng, odd)).collect();
                    let terms: Vec<f64> = (0..n_terms).map(|_| draw(&mut rng, odd)).collect();
                    let next_failure: Vec<f64> = now
                        .iter()
                        .map(|&t| {
                            let end = terms.iter().fold(t, |e, &a| e + a);
                            match rng.next_u64() % 5 {
                                0 => end,
                                1 => end.next_up(),
                                2 => end.next_down(),
                                3 => draw(&mut rng, true),
                                _ => t + draw(&mut rng, odd) * n_terms as f64,
                            }
                        })
                        .collect();
                    let mut expected = now.clone();
                    let missed = commit_reference(&mut expected, &next_failure, &terms);
                    for (&kernel, worklist) in kernels.iter().zip(&mut worklists) {
                        let mut got = now.clone();
                        kernel.commit(&mut got, &next_failure, &terms, worklist);
                        let what = format!("{kernel:?} lanes {lanes} terms {n_terms}");
                        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        assert_eq!(bits(&got), bits(&expected), "{what}");
                        assert_eq!(worklist.as_slice(), missed.as_slice(), "{what}");
                        assert_eq!(worklist.len(), missed.len(), "{what}");
                    }
                }
            }
        }
    }

    #[test]
    fn worklist_pushes_branch_free_and_clears_without_shrinking() {
        let mut list = Worklist::default();
        assert!(list.is_empty());
        list.clear(4);
        for lane in 0..4 {
            list.push_if(lane, lane % 2 == 1);
        }
        assert_eq!(list.as_slice(), [1, 3]);
        list.clear(2);
        assert!(list.is_empty() && list.slots.len() >= 4 + COMMIT_CHUNK);
    }
}
