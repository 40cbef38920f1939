//! Trace-driven and non-stationary failure scenarios.
//!
//! Everything the sweeps measured before this module assumed i.i.d.
//! exponential/Weibull/lognormal inter-arrivals.  Real failure logs are
//! bursty, correlated, and non-stationary; this module provides the sources
//! that break the i.i.d. assumption deliberately, so the composite-strategy
//! comparison can be re-run against the regimes fault-injection campaigns
//! actually face:
//!
//! * [`RecordedTrace`] / [`TracePlayback`] — a small versioned, checksummed
//!   byte format for log-derived failure traces (loadable from a file or
//!   from the [`bundled_trace_bytes`] embedded in the crate), played back
//!   cyclically with a seeded random rotation so every replication sees the
//!   trace's empirical burst structure at a different phase;
//! * [`CascadeFailures`] — post-failure cascade bursts: each primary
//!   failure triggers a geometric number of short-gap aftershocks
//!   (correlated clusters, the "one node takes its neighbours with it"
//!   regime);
//! * [`DiurnalFailures`] — day/night intensity modulation: a
//!   piecewise-constant periodic hazard inverted in closed form (failures
//!   concentrate in the high-rate window);
//! * [`WearoutFailures`] — platform-age wear-out: a Weibull hazard in
//!   *absolute* time (not per-gap), so the platform degrades over the run;
//! * [`ScenarioSpec`] — the declarative CLI/config layer
//!   (`trace:<path> | cascade | diurnal | wearout`) resolving to an
//!   [`AnyFailureModel`] arm at a parameter point.
//!
//! # Determinism
//!
//! Every source here is a pure function of `(model parameters, seed,
//! antithetic flag, draw index)`.  The non-stationary sources advance
//! through the stateful [`FailureModel::next_failure_time`] hook; their
//! small between-draw memory lives in the caller-owned
//! [`SourceState`], which every stream/buffer reset clears, so replay,
//! antithetic pairing, crash-resume repositioning (reset + lazy
//! re-extension), and batch lane independence all hold exactly as they do
//! for the i.i.d. models.  All scenario sources report
//! [`FailureModel::single_uniform`]` = false`, which pins every batch
//! source to its scalar per-lane fallback branch — the explicitly pinned
//! dispatch the batch differential oracle certifies.
//!
//! Calibration: each synthesized scenario is parameterised by the platform
//! MTBF `µ` and keeps its *long-run average* failure rate at `1/µ`, so a
//! scenario sweep is compared against an i.i.d. exponential baseline at
//! matched MTBF — any crossover/waste movement is the effect of the broken
//! i.i.d. assumption alone, not of a different failure budget.

use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock, PoisonError};

use crate::checksum::{ChecksumGen, Crc32};
use crate::error::{ensure_positive, PlatformError};
use crate::failure::{AnyFailureModel, ExponentialFailures, FailureModel, SourceState};
use crate::rng::DeterministicRng;

/// Magic + version prefix of the trace byte format: `b"FTTRACE"` followed by
/// the format version byte (`b'1'`).
pub const TRACE_MAGIC: [u8; 8] = *b"FTTRACE1";

/// Byte length of the fixed trace header (magic, horizon, ranks, count).
const TRACE_HEADER_LEN: usize = 24;

/// Byte length of one encoded event (time `f64` LE + victim rank `u32` LE).
const TRACE_EVENT_LEN: usize = 12;

/// Typed failures of the trace byte format's trust boundary.  Parsing never
/// panics: truncated, corrupt, or semantically invalid inputs all map to a
/// variant here.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceFileError {
    /// The byte stream is shorter (or longer) than the header + events +
    /// checksum layout requires.
    Truncated {
        /// Exact byte length the header demands.
        needed: usize,
        /// Byte length actually supplied.
        actual: usize,
    },
    /// The leading magic is not `b"FTTRACE"`.
    BadMagic,
    /// The magic matched but the version byte is not a known revision.
    UnsupportedVersion {
        /// The version byte found in the stream.
        found: u8,
    },
    /// The CRC-32 trailer does not match the header + event bytes.
    ChecksumMismatch {
        /// Checksum recorded in the trailer.
        expected: u32,
        /// Checksum recomputed over the received bytes.
        actual: u32,
    },
    /// The trace contains no events (playback needs at least one).
    Empty,
    /// The trace declares zero ranks.
    NoRanks,
    /// The horizon is not a positive finite number.
    BadHorizon {
        /// The horizon value found.
        value: f64,
    },
    /// An event timestamp is not finite, not positive, or beyond the
    /// horizon.
    BadTimestamp {
        /// Index of the offending event.
        index: usize,
        /// The timestamp value found.
        value: f64,
    },
    /// Event timestamps are not strictly increasing.
    NonMonotone {
        /// Index of the first event at or before its predecessor.
        index: usize,
    },
    /// An event's victim rank is outside the declared rank count.
    RankOutOfRange {
        /// Index of the offending event.
        index: usize,
        /// The rank value found.
        rank: u32,
        /// The declared rank count.
        ranks: u32,
    },
    /// Reading the trace file failed at the I/O layer.
    Io {
        /// Path and OS error description.
        detail: String,
    },
}

impl std::fmt::Display for TraceFileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceFileError::Truncated { needed, actual } => {
                write!(f, "trace file needs exactly {needed} bytes, got {actual}")
            }
            TraceFileError::BadMagic => write!(f, "not a trace file (bad magic)"),
            TraceFileError::UnsupportedVersion { found } => {
                write!(f, "unsupported trace format version byte 0x{found:02x}")
            }
            TraceFileError::ChecksumMismatch { expected, actual } => {
                write!(f, "trace checksum mismatch: trailer {expected:#010x}, computed {actual:#010x}")
            }
            TraceFileError::Empty => write!(f, "trace contains no events"),
            TraceFileError::NoRanks => write!(f, "trace declares zero ranks"),
            TraceFileError::BadHorizon { value } => {
                write!(f, "trace horizon must be positive and finite (got {value})")
            }
            TraceFileError::BadTimestamp { index, value } => {
                write!(f, "event {index} timestamp {value} is not in (0, horizon]")
            }
            TraceFileError::NonMonotone { index } => {
                write!(f, "event {index} is not strictly after its predecessor")
            }
            TraceFileError::RankOutOfRange { index, rank, ranks } => {
                write!(f, "event {index} strikes rank {rank} of {ranks}")
            }
            TraceFileError::Io { detail } => write!(f, "trace I/O error: {detail}"),
        }
    }
}

impl std::error::Error for TraceFileError {}

fn f64_at(bytes: &[u8], at: usize) -> Option<f64> {
    bytes
        .get(at..at + 8)
        .and_then(|s| <[u8; 8]>::try_from(s).ok())
        .map(f64::from_le_bytes)
}

fn u32_at(bytes: &[u8], at: usize) -> Option<u32> {
    bytes
        .get(at..at + 4)
        .and_then(|s| <[u8; 4]>::try_from(s).ok())
        .map(u32::from_le_bytes)
}

/// A parsed, validated failure trace: strictly increasing event times in
/// `(0, horizon]`, each with a victim rank, plus the horizon the log covers.
///
/// This is the owned form straight off the byte format; simulation plays it
/// back through [`RecordedTrace::into_playback`].
#[derive(Debug, Clone, PartialEq)]
pub struct RecordedTrace {
    times: Vec<f64>,
    victims: Vec<u32>,
    horizon: f64,
    ranks: u32,
}

impl RecordedTrace {
    /// Builds a trace from in-memory events, enforcing the same invariants
    /// as [`RecordedTrace::parse`] (strictly increasing times in
    /// `(0, horizon]`, ranks in range, at least one event).
    pub fn new(
        events: &[(f64, u32)],
        horizon: f64,
        ranks: u32,
    ) -> Result<RecordedTrace, TraceFileError> {
        if !(horizon.is_finite() && horizon > 0.0) {
            return Err(TraceFileError::BadHorizon { value: horizon });
        }
        if ranks == 0 {
            return Err(TraceFileError::NoRanks);
        }
        if events.is_empty() {
            return Err(TraceFileError::Empty);
        }
        let mut times = Vec::with_capacity(events.len());
        let mut victims = Vec::with_capacity(events.len());
        let mut previous = 0.0f64;
        for (index, &(time, rank)) in events.iter().enumerate() {
            if !(time.is_finite() && time > 0.0 && time <= horizon) {
                return Err(TraceFileError::BadTimestamp { index, value: time });
            }
            if time <= previous {
                return Err(TraceFileError::NonMonotone { index });
            }
            if rank >= ranks {
                return Err(TraceFileError::RankOutOfRange { index, rank, ranks });
            }
            previous = time;
            times.push(time);
            victims.push(rank);
        }
        Ok(RecordedTrace {
            times,
            victims,
            horizon,
            ranks,
        })
    }

    /// Parses and validates the byte format:
    ///
    /// | bytes | field |
    /// |---|---|
    /// | `0..8` | magic `b"FTTRACE"` + version byte `b'1'` |
    /// | `8..16` | horizon, `f64` little-endian seconds |
    /// | `16..20` | rank count, `u32` little-endian |
    /// | `20..24` | event count, `u32` little-endian |
    /// | `24..24+12n` | events: time `f64` LE + victim rank `u32` LE |
    /// | last 4 | CRC-32 (ISO-HDLC) of every preceding byte, `u32` LE |
    ///
    /// The byte length must match the layout exactly.  Structural checks
    /// (length, magic, version, checksum) run before semantic ones, so a
    /// corrupt file reports [`TraceFileError::ChecksumMismatch`] rather than
    /// whichever semantic invariant its garbage happens to break first.
    pub fn parse(bytes: &[u8]) -> Result<RecordedTrace, TraceFileError> {
        if bytes.len() < TRACE_HEADER_LEN + 4 {
            return Err(TraceFileError::Truncated {
                needed: TRACE_HEADER_LEN + 4,
                actual: bytes.len(),
            });
        }
        if bytes[..7] != TRACE_MAGIC[..7] {
            return Err(TraceFileError::BadMagic);
        }
        if bytes[7] != TRACE_MAGIC[7] {
            return Err(TraceFileError::UnsupportedVersion { found: bytes[7] });
        }
        let horizon = f64_at(bytes, 8).unwrap_or(f64::NAN);
        let ranks = u32_at(bytes, 16).unwrap_or(0);
        let count = u32_at(bytes, 20).unwrap_or(0) as usize;
        let needed = TRACE_HEADER_LEN + count * TRACE_EVENT_LEN + 4;
        if bytes.len() != needed {
            return Err(TraceFileError::Truncated {
                needed,
                actual: bytes.len(),
            });
        }
        let body = needed - 4;
        let actual = Crc32::new().checksum_of(&bytes[..body]);
        let expected = u32_at(bytes, body).unwrap_or(0);
        if actual != expected {
            return Err(TraceFileError::ChecksumMismatch { expected, actual });
        }
        let mut events = Vec::with_capacity(count);
        for index in 0..count {
            let at = TRACE_HEADER_LEN + index * TRACE_EVENT_LEN;
            let time = f64_at(bytes, at).unwrap_or(f64::NAN);
            let rank = u32_at(bytes, at + 8).unwrap_or(u32::MAX);
            events.push((time, rank));
        }
        RecordedTrace::new(&events, horizon, ranks)
    }

    /// Serialises the trace into the byte format [`RecordedTrace::parse`]
    /// reads (including the CRC-32 trailer).
    pub fn encode(&self) -> Vec<u8> {
        let mut bytes =
            Vec::with_capacity(TRACE_HEADER_LEN + self.times.len() * TRACE_EVENT_LEN + 4);
        bytes.extend_from_slice(&TRACE_MAGIC);
        bytes.extend_from_slice(&self.horizon.to_le_bytes());
        bytes.extend_from_slice(&self.ranks.to_le_bytes());
        bytes.extend_from_slice(&(self.times.len() as u32).to_le_bytes());
        for (&time, &rank) in self.times.iter().zip(&self.victims) {
            bytes.extend_from_slice(&time.to_le_bytes());
            bytes.extend_from_slice(&rank.to_le_bytes());
        }
        let crc = Crc32::new().checksum_of(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
        bytes
    }

    /// Reads and parses a trace file from disk.
    pub fn load(path: &str) -> Result<RecordedTrace, TraceFileError> {
        let bytes = std::fs::read(path).map_err(|e| TraceFileError::Io {
            detail: format!("{path}: {e}"),
        })?;
        RecordedTrace::parse(&bytes)
    }

    /// The event timestamps, strictly increasing in `(0, horizon]`.
    #[inline]
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// The victim rank of each event.
    #[inline]
    pub fn victims(&self) -> &[u32] {
        &self.victims
    }

    /// The horizon (seconds) the log covers.
    #[inline]
    pub fn horizon(&self) -> f64 {
        self.horizon
    }

    /// The declared rank count.
    #[inline]
    pub fn ranks(&self) -> u32 {
        self.ranks
    }

    /// Number of events.
    #[inline]
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Whether the trace has no events (never true for a parsed trace).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Empirical mean time between failures: `horizon / events`.
    #[inline]
    pub fn empirical_mtbf(&self) -> f64 {
        self.horizon / self.times.len() as f64
    }

    /// Converts the trace into a [`TracePlayback`] failure model.
    ///
    /// The event times are moved into leaked `'static` storage — a
    /// deliberate once-per-loaded-trace allocation that lets the playback
    /// model stay `Copy` (so [`AnyFailureModel`] and the simulation engine
    /// keep their by-value semantics).  Load traces once and reuse the
    /// returned model; [`playback_from_file`] memoises by path to enforce
    /// exactly that.
    pub fn into_playback(self) -> TracePlayback {
        TracePlayback {
            times: Box::leak(self.times.into_boxed_slice()),
            horizon: self.horizon,
            mean: self.horizon / self.victims.len() as f64,
        }
    }
}

/// The bytes of the bundled log-derived trace (embedded in the crate, so
/// trace-driven scenarios work without any file on disk).
///
/// Regenerate with the `regenerate_bundled_trace` test in this module (run
/// with `--ignored`); docs/TRACES.md describes its derivation.
pub fn bundled_trace_bytes() -> &'static [u8] {
    include_bytes!("../data/bundled_burst.fttrace")
}

/// The bundled trace, parsed and validated once per process.
pub fn bundled_playback() -> Result<TracePlayback, TraceFileError> {
    static BUNDLED: OnceLock<Result<TracePlayback, TraceFileError>> = OnceLock::new();
    BUNDLED
        .get_or_init(|| RecordedTrace::parse(bundled_trace_bytes()).map(RecordedTrace::into_playback))
        .clone()
}

/// Loads a trace file into a playback model, memoising by path so the
/// `'static` leak of [`RecordedTrace::into_playback`] happens at most once
/// per distinct file per process (sweeps resolve their scenario at every
/// grid point).
pub fn playback_from_file(path: &str) -> Result<TracePlayback, TraceFileError> {
    static CACHE: OnceLock<Mutex<BTreeMap<String, TracePlayback>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(BTreeMap::new()));
    let mut map = cache.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(playback) = map.get(path) {
        return Ok(*playback);
    }
    let playback = RecordedTrace::load(path)?.into_playback();
    map.insert(path.to_string(), playback);
    Ok(playback)
}

/// Cyclic playback of a recorded failure trace, randomised by a seeded
/// rotation — the [`FailureModel`] face of a [`RecordedTrace`].
///
/// On its first draw the playback consumes **one** uniform `u` and sets the
/// phase `θ = u · horizon`; an antithetic replay (raw-bit complement) sees
/// the mirrored phase `≈ (1 − u) · horizon`.  The `k`-th failure is then the
/// deterministic value `cycle · horizon + shift(times, θ)[k mod n]`, where
/// `shift` rotates the trace by `θ` with wrap-around — so every replication
/// replays the log's exact gap structure (bursts included) starting at a
/// random point of the cycle, and the long-run rate is exactly
/// `n / horizon`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TracePlayback {
    /// Strictly increasing event times in `(0, horizon]` (leaked once at
    /// load; see [`RecordedTrace::into_playback`]).
    times: &'static [f64],
    horizon: f64,
    mean: f64,
}

impl TracePlayback {
    /// The horizon of one playback cycle (seconds).
    #[inline]
    pub fn horizon(&self) -> f64 {
        self.horizon
    }

    /// Number of events per cycle.
    #[inline]
    pub fn events_per_cycle(&self) -> usize {
        self.times.len()
    }

    /// The sampling body behind [`FailureModel::next_failure_time`].
    pub(crate) fn failure_time<R: DeterministicRng + ?Sized>(
        &self,
        _prev: f64,
        state: &mut SourceState,
        rng: &mut R,
    ) -> f64 {
        if !state.armed {
            // One uniform, drawn lazily on the first failure of the
            // sequence; `next_f64` lands in [0, 1), so θ ∈ [0, horizon).
            state.offset = rng.next_f64() * self.horizon;
            state.armed = true;
        }
        let n = self.times.len();
        let k = state.count as usize;
        state.count += 1;
        let (cycle, idx) = (k / n, k % n);
        // Events shifted by θ: those that would land past the horizon wrap
        // to the front of the cycle, so within one cycle the wrapped tail
        // (indices ≥ p) precedes the unshifted head (indices < p).
        let p = self
            .times
            .partition_point(|&t| t + state.offset <= self.horizon);
        let wrapped = n - p;
        let within = if idx < wrapped {
            self.times[p + idx] + state.offset - self.horizon
        } else {
            self.times[idx - wrapped] + state.offset
        };
        cycle as f64 * self.horizon + within
    }
}

impl FailureModel for TracePlayback {
    fn next_interarrival(&self, rng: &mut dyn DeterministicRng) -> f64 {
        // Stationary fallback for callers outside the stream/buffer path:
        // each call is treated as a fresh playback at t = 0 (draws a new
        // phase).  Streams advance through `next_failure_time`.
        self.next_failure_time(0.0, &mut SourceState::default(), rng)
    }

    #[inline]
    fn mean(&self) -> f64 {
        self.mean
    }

    fn name(&self) -> &'static str {
        "trace"
    }

    fn next_failure_time(
        &self,
        prev: f64,
        state: &mut SourceState,
        rng: &mut dyn DeterministicRng,
    ) -> f64 {
        self.failure_time(prev, state, rng)
    }
}

/// Post-failure cascade bursts over an exponential base clock.
///
/// Failures arrive in clusters: a *primary* failure (gap `Exp(γ)`) is
/// followed by a geometric number of *aftershocks* (mean `m`, each at gap
/// `Exp(δ)` after its predecessor).  Per cluster that is `1 + m` expected
/// events in `γ + m·δ` expected seconds, so `γ = µ(1 + m) − m·δ` keeps the
/// long-run mean inter-arrival at exactly the platform MTBF `µ` — the
/// burstiness changes, the failure budget does not.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CascadeFailures {
    mtbf: f64,
    aftershocks: f64,
    aftershock_gap: f64,
    primary_gap: f64,
    /// `ln(m/(1 + m))`, the log-survival of the cluster-size draw: a
    /// constant of the model, taken once here instead of at every cluster
    /// start.
    ln_survival: f64,
}

impl CascadeFailures {
    /// Creates a cascade model: platform MTBF `µ`, mean aftershock count
    /// `m > 0` per primary, and mean aftershock gap `δ`.  Requires
    /// `δ < µ(1 + m)/m` so the derived primary gap `γ` stays positive.
    pub fn new(mtbf: f64, aftershocks: f64, aftershock_gap: f64) -> Result<Self, PlatformError> {
        ensure_positive("mtbf", mtbf)?;
        ensure_positive("aftershocks", aftershocks)?;
        ensure_positive("aftershock_gap", aftershock_gap)?;
        let primary_gap = mtbf * (1.0 + aftershocks) - aftershocks * aftershock_gap;
        ensure_positive("primary_gap", primary_gap)?;
        Ok(Self {
            mtbf,
            aftershocks,
            aftershock_gap,
            primary_gap,
            ln_survival: (aftershocks / (1.0 + aftershocks)).ln(),
        })
    }

    /// The default scenario calibration: `m = 3` aftershocks at mean gap
    /// `µ/20` (a tight burst after each primary).
    pub fn with_defaults(mtbf: f64) -> Result<Self, PlatformError> {
        Self::new(mtbf, 3.0, mtbf / 20.0)
    }

    /// Mean aftershock count per primary failure.
    #[inline]
    pub fn aftershocks(&self) -> f64 {
        self.aftershocks
    }

    /// Mean gap between aftershocks (seconds).
    #[inline]
    pub fn aftershock_gap(&self) -> f64 {
        self.aftershock_gap
    }

    /// The derived mean primary gap `γ = µ(1 + m) − m·δ` (seconds).
    #[inline]
    pub fn primary_gap(&self) -> f64 {
        self.primary_gap
    }

    /// The sampling body behind [`FailureModel::next_failure_time`].
    pub(crate) fn failure_time<R: DeterministicRng + ?Sized>(
        &self,
        prev: f64,
        state: &mut SourceState,
        rng: &mut R,
    ) -> f64 {
        if state.count > 0 {
            state.count -= 1;
            return prev + rng.exponential(self.aftershock_gap);
        }
        // Cluster start: always exactly two draws (primary gap, cluster
        // size), so the draw count per call is deterministic and antithetic
        // replays stay paired draw for draw.
        let gap = rng.exponential(self.primary_gap);
        let u = rng.next_f64_open();
        // K ~ Geometric on {0, 1, …} with survival (1 − p)^k, p = 1/(1 + m),
        // so E[K] = m: K = ⌊ln u / ln(m/(1 + m))⌋.
        state.count = (u.ln() / self.ln_survival) as u64;
        prev + gap
    }
}

impl FailureModel for CascadeFailures {
    fn next_interarrival(&self, rng: &mut dyn DeterministicRng) -> f64 {
        // Stationary fallback: a fresh state draws a primary gap (and a
        // cluster size that is immediately discarded).  Streams advance
        // through `next_failure_time`.
        self.next_failure_time(0.0, &mut SourceState::default(), rng)
    }

    #[inline]
    fn mean(&self) -> f64 {
        self.mtbf
    }

    fn name(&self) -> &'static str {
        "cascade"
    }

    fn next_failure_time(
        &self,
        prev: f64,
        state: &mut SourceState,
        rng: &mut dyn DeterministicRng,
    ) -> f64 {
        self.failure_time(prev, state, rng)
    }
}

/// Day/night intensity modulation: a piecewise-constant periodic hazard.
///
/// The rate is `r_hi` for the first `day_fraction` of every `period` and
/// `r_lo = r_hi / contrast` for the rest, normalised so the average rate is
/// exactly `1/µ`.  Sampling inverts the cumulative hazard in closed form
/// (time-rescaling: `Λ(t_next) = Λ(prev) + Exp(1)`), so each draw costs one
/// uniform and a handful of arithmetic operations — but the gap depends on
/// *where in the cycle* `prev` falls, which is exactly the non-stationarity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiurnalFailures {
    mean: f64,
    period: f64,
    day_fraction: f64,
    contrast: f64,
    rate_hi: f64,
    rate_lo: f64,
}

impl DiurnalFailures {
    /// Creates a diurnal model: platform MTBF `µ`, cycle `period` (seconds),
    /// high-rate window fraction `day_fraction ∈ (0, 1)`, and rate contrast
    /// `r_hi / r_lo = contrast ≥ 1`.
    pub fn new(
        mean: f64,
        period: f64,
        day_fraction: f64,
        contrast: f64,
    ) -> Result<Self, PlatformError> {
        ensure_positive("mean", mean)?;
        ensure_positive("period", period)?;
        ensure_positive("day_fraction", day_fraction)?;
        ensure_positive("night_fraction", 1.0 - day_fraction)?;
        ensure_positive("contrast", contrast)?;
        let mean_rate = 1.0 / mean;
        let rate_lo = mean_rate / (day_fraction * contrast + (1.0 - day_fraction));
        let rate_hi = contrast * rate_lo;
        Ok(Self {
            mean,
            period,
            day_fraction,
            contrast,
            rate_hi,
            rate_lo,
        })
    }

    /// The default scenario calibration: a 24 h cycle whose high-rate half
    /// runs at 4× the low-rate half (rate contrast observed in
    /// production-cluster failure logs between peak and quiet hours).
    pub fn with_defaults(mean: f64) -> Result<Self, PlatformError> {
        Self::new(mean, 86_400.0, 0.5, 4.0)
    }

    /// The cycle period (seconds).
    #[inline]
    pub fn period(&self) -> f64 {
        self.period
    }

    /// The high/low rate contrast.
    #[inline]
    pub fn contrast(&self) -> f64 {
        self.contrast
    }

    /// Cumulative hazard `Λ(t)` of the periodic rate.
    fn cumulative_hazard(&self, t: f64) -> f64 {
        let day = self.day_fraction * self.period;
        let per_cycle = self.rate_hi * day + self.rate_lo * (self.period - day);
        let cycles = (t / self.period).floor();
        let s = t - cycles * self.period;
        let local = if s <= day {
            self.rate_hi * s
        } else {
            self.rate_hi * day + self.rate_lo * (s - day)
        };
        cycles * per_cycle + local
    }

    /// The sampling body behind [`FailureModel::next_failure_time`].
    pub(crate) fn failure_time<R: DeterministicRng + ?Sized>(&self, prev: f64, rng: &mut R) -> f64 {
        let day = self.day_fraction * self.period;
        let per_cycle = self.rate_hi * day + self.rate_lo * (self.period - day);
        // Time-rescaling: the next arrival sits where the cumulative hazard
        // reaches Λ(prev) + Exp(1).
        let target = self.cumulative_hazard(prev) - rng.next_f64_open().ln();
        let cycles = (target / per_cycle).floor();
        let rem = target - cycles * per_cycle;
        let s = if rem <= self.rate_hi * day {
            rem / self.rate_hi
        } else {
            day + (rem - self.rate_hi * day) / self.rate_lo
        };
        cycles * self.period + s
    }
}

impl FailureModel for DiurnalFailures {
    fn next_interarrival(&self, rng: &mut dyn DeterministicRng) -> f64 {
        // Stationary fallback: the first arrival of a playback starting at
        // t = 0.  Streams advance through `next_failure_time`.
        self.next_failure_time(0.0, &mut SourceState::default(), rng)
    }

    #[inline]
    fn mean(&self) -> f64 {
        self.mean
    }

    fn name(&self) -> &'static str {
        "diurnal"
    }

    fn next_failure_time(
        &self,
        prev: f64,
        _state: &mut SourceState,
        rng: &mut dyn DeterministicRng,
    ) -> f64 {
        self.failure_time(prev, rng)
    }
}

/// Platform-age wear-out: a Weibull hazard in **absolute** time.
///
/// Unlike [`crate::failure::WeibullFailures`] (i.i.d. Weibull *gaps*), the
/// hazard here grows with the age of the platform itself:
/// `Λ(t) = (t/λ)^k` with `k > 1`, so failures are sparse early in the run
/// and pile up towards the end.  The scale λ is calibrated so the *average*
/// rate over a nominal horizon `T` equals `1/µ` (`Λ(T) = T/µ`) — runs of
/// roughly that length see the platform-MTBF failure budget, distributed
/// wear-out-style.
///
/// Beyond the nominal horizon the hazard **saturates**: for `t > T` the
/// rate stays at its `t = T` level (`Λ` continues linearly), i.e. the
/// platform is as worn as it gets.  The cap matters for more than realism:
/// failure-heavy parameter points push a run's finish time well past `T`,
/// and an unbounded power-law hazard then shrinks the failure gaps below
/// the checkpoint-attempt length — the success probability of each attempt
/// decays exponentially with platform age, and the simulation's expected
/// finish time diverges (a positive feedback between waste and hazard).
/// The calibration window `[0, T]` pins `Λ(T)` either way, so the cap
/// changes nothing the calibration promises.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WearoutFailures {
    mean: f64,
    shape: f64,
    scale: f64,
    horizon: f64,
    hazard_at_horizon: f64,
    rate_at_horizon: f64,
}

impl WearoutFailures {
    /// Creates a wear-out model: nominal platform MTBF `µ`, hazard shape
    /// `k` (`> 1` wears out; `k = 1` degenerates to the exponential), and
    /// the nominal horizon `T` over which the average rate is calibrated.
    pub fn new(mean: f64, shape: f64, nominal_horizon: f64) -> Result<Self, PlatformError> {
        ensure_positive("mean", mean)?;
        ensure_positive("shape", shape)?;
        ensure_positive("nominal_horizon", nominal_horizon)?;
        let scale = nominal_horizon / (nominal_horizon / mean).powf(1.0 / shape);
        ensure_positive("scale", scale)?;
        let hazard_at_horizon = (nominal_horizon / scale).powf(shape);
        // dΛ/dt at T: k·(T/λ)^{k-1}/λ = k·Λ(T)/T.
        let rate_at_horizon = shape * hazard_at_horizon / nominal_horizon;
        Ok(Self {
            mean,
            shape,
            scale,
            horizon: nominal_horizon,
            hazard_at_horizon,
            rate_at_horizon,
        })
    }

    /// The default scenario calibration: quadratic hazard (`k = 2`) over the
    /// given nominal horizon.
    pub fn with_defaults(mean: f64, nominal_horizon: f64) -> Result<Self, PlatformError> {
        Self::new(mean, 2.0, nominal_horizon)
    }

    /// The hazard shape `k`.
    #[inline]
    pub fn shape(&self) -> f64 {
        self.shape
    }

    /// The hazard scale λ (seconds).
    #[inline]
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// The nominal horizon `T` past which the hazard rate saturates.
    #[inline]
    pub fn nominal_horizon(&self) -> f64 {
        self.horizon
    }

    /// The saturated cumulative hazard: `(t/λ)^k` for `t ≤ T`, continued
    /// linearly at the `t = T` slope beyond.
    #[inline]
    fn cumulative_hazard(&self, t: f64) -> f64 {
        if t <= self.horizon {
            (t / self.scale).powf(self.shape)
        } else {
            self.hazard_at_horizon + self.rate_at_horizon * (t - self.horizon)
        }
    }

    /// Inverse of [`Self::cumulative_hazard`] (exact on both branches).
    #[inline]
    fn invert_hazard(&self, target: f64) -> f64 {
        if target <= self.hazard_at_horizon {
            self.scale * target.powf(1.0 / self.shape)
        } else {
            self.horizon + (target - self.hazard_at_horizon) / self.rate_at_horizon
        }
    }

    /// The sampling body behind [`FailureModel::next_failure_time`].
    pub(crate) fn failure_time<R: DeterministicRng + ?Sized>(&self, prev: f64, rng: &mut R) -> f64 {
        // Saturated Λ inverted at Λ(prev) + Exp(1); draws that stay inside
        // [0, T] are bit-identical to the uncapped power-law inversion.
        let target = self.cumulative_hazard(prev) - rng.next_f64_open().ln();
        self.invert_hazard(target)
    }
}

impl FailureModel for WearoutFailures {
    fn next_interarrival(&self, rng: &mut dyn DeterministicRng) -> f64 {
        // Stationary fallback: the first arrival on a fresh platform.
        // Streams advance through `next_failure_time`.
        self.next_failure_time(0.0, &mut SourceState::default(), rng)
    }

    #[inline]
    fn mean(&self) -> f64 {
        self.mean
    }

    fn name(&self) -> &'static str {
        "wearout"
    }

    fn next_failure_time(
        &self,
        prev: f64,
        _state: &mut SourceState,
        rng: &mut dyn DeterministicRng,
    ) -> f64 {
        self.failure_time(prev, rng)
    }
}

/// Errors resolving a [`ScenarioSpec`] into a concrete failure model.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// Loading or validating a recorded trace failed.
    Trace(TraceFileError),
    /// A synthesized scenario's parameters were invalid.
    Platform(PlatformError),
    /// The CLI spelling did not name a known scenario.
    UnknownScenario(String),
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::Trace(e) => write!(f, "{e}"),
            ScenarioError::Platform(e) => write!(f, "{e}"),
            ScenarioError::UnknownScenario(s) => write!(
                f,
                "unknown scenario `{s}` (expected iid, trace, trace:<path>, cascade, diurnal or wearout)"
            ),
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<TraceFileError> for ScenarioError {
    fn from(e: TraceFileError) -> Self {
        ScenarioError::Trace(e)
    }
}

impl From<PlatformError> for ScenarioError {
    fn from(e: PlatformError) -> Self {
        ScenarioError::Platform(e)
    }
}

/// The declarative scenario layer: what the `--scenario` CLI axis carries
/// through sweep specifications, resolved to an [`AnyFailureModel`] per
/// parameter point by [`ScenarioSpec::resolve`].
#[derive(Debug, Clone, PartialEq, Default)]
pub enum ScenarioSpec {
    /// No scenario: the i.i.d. clock of the sweep's `FailureSpec` (the
    /// default, and the baseline every scenario is compared against).
    #[default]
    Iid,
    /// Cyclic playback of a recorded trace (`None` = the bundled trace).
    Trace {
        /// Path of the trace file; `None` plays the bundled trace.
        path: Option<String>,
    },
    /// Post-failure cascade bursts ([`CascadeFailures::with_defaults`]).
    Cascade,
    /// Day/night intensity modulation ([`DiurnalFailures::with_defaults`]).
    Diurnal,
    /// Platform-age wear-out ([`WearoutFailures::with_defaults`]).
    Wearout,
}

impl ScenarioSpec {
    /// Parses the CLI spelling: `iid`, `trace` (bundled), `trace:<path>`,
    /// `cascade`, `diurnal`, or `wearout`.
    pub fn parse(text: &str) -> Result<ScenarioSpec, ScenarioError> {
        match text {
            "iid" => Ok(ScenarioSpec::Iid),
            "trace" => Ok(ScenarioSpec::Trace { path: None }),
            "cascade" => Ok(ScenarioSpec::Cascade),
            "diurnal" => Ok(ScenarioSpec::Diurnal),
            "wearout" | "wear-out" => Ok(ScenarioSpec::Wearout),
            other => match other.strip_prefix("trace:") {
                Some(path) if !path.is_empty() => Ok(ScenarioSpec::Trace {
                    path: Some(path.to_string()),
                }),
                _ => Err(ScenarioError::UnknownScenario(other.to_string())),
            },
        }
    }

    /// Whether this is the plain i.i.d. (no-scenario) arm.
    #[inline]
    pub fn is_iid(&self) -> bool {
        matches!(self, ScenarioSpec::Iid)
    }

    /// Resolves the scenario at one parameter point: `mtbf` is the
    /// platform MTBF the synthesized scenarios calibrate their long-run
    /// rate to, `horizon` the nominal run length (the wear-out hazard's
    /// calibration window).
    ///
    /// A trace scenario ignores both — its empirical rate *is* the clock —
    /// and `Iid` resolves to the matched-MTBF exponential baseline (sweeps
    /// with a non-default `FailureSpec` build their i.i.d. clock directly
    /// and never call `resolve`).
    pub fn resolve(&self, mtbf: f64, horizon: f64) -> Result<AnyFailureModel, ScenarioError> {
        match self {
            ScenarioSpec::Iid => Ok(AnyFailureModel::Exponential(ExponentialFailures::new(
                mtbf,
            )?)),
            ScenarioSpec::Trace { path: None } => Ok(AnyFailureModel::Trace(bundled_playback()?)),
            ScenarioSpec::Trace { path: Some(path) } => {
                Ok(AnyFailureModel::Trace(playback_from_file(path)?))
            }
            ScenarioSpec::Cascade => Ok(AnyFailureModel::Cascade(CascadeFailures::with_defaults(
                mtbf,
            )?)),
            ScenarioSpec::Diurnal => Ok(AnyFailureModel::Diurnal(DiurnalFailures::with_defaults(
                mtbf,
            )?)),
            ScenarioSpec::Wearout => Ok(AnyFailureModel::Wearout(WearoutFailures::with_defaults(
                mtbf, horizon,
            )?)),
        }
    }
}

impl std::fmt::Display for ScenarioSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioSpec::Iid => write!(f, "iid"),
            ScenarioSpec::Trace { path: None } => write!(f, "trace(bundled)"),
            ScenarioSpec::Trace { path: Some(p) } => write!(f, "trace({p})"),
            ScenarioSpec::Cascade => write!(f, "cascade"),
            ScenarioSpec::Diurnal => write!(f, "diurnal"),
            ScenarioSpec::Wearout => write!(f, "wearout"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{AntitheticRng, Xoshiro256};
    use crate::special::gamma;

    fn tiny_events() -> Vec<(f64, u32)> {
        vec![(100.0, 0), (250.0, 3), (260.0, 1), (700.0, 2)]
    }

    fn tiny_trace() -> RecordedTrace {
        RecordedTrace::new(&tiny_events(), 1_000.0, 4).unwrap()
    }

    /// Raw encoder that skips validation, for crafting malformed inputs.
    fn encode_raw(events: &[(f64, u32)], horizon: f64, ranks: u32) -> Vec<u8> {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&TRACE_MAGIC);
        bytes.extend_from_slice(&horizon.to_le_bytes());
        bytes.extend_from_slice(&ranks.to_le_bytes());
        bytes.extend_from_slice(&(events.len() as u32).to_le_bytes());
        for &(time, rank) in events {
            bytes.extend_from_slice(&time.to_le_bytes());
            bytes.extend_from_slice(&rank.to_le_bytes());
        }
        let crc = Crc32::new().checksum_of(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
        bytes
    }

    /// The deterministic synthesizer behind the bundled trace: two weeks of
    /// a 64-rank cluster with heavy-tailed base gaps (Weibull k = 0.7,
    /// mean 2 h) and occasional tight aftershock bursts — the burst
    /// structure real log-derived traces show.
    fn synthesize_bundled() -> RecordedTrace {
        let horizon = 1_209_600.0; // two weeks in seconds
        let ranks = 64u32;
        let shape = 0.7;
        let scale = 7_200.0 / gamma(1.0 + 1.0 / shape); // mean base gap 2 h
        let mut rng = Xoshiro256::seed_from_u64(0xF7_7AACE);
        let mut events = Vec::new();
        let mut t = 0.0f64;
        loop {
            t += rng.weibull(scale, shape).max(1.0);
            if t > horizon {
                break;
            }
            events.push((t, rng.index(ranks as usize) as u32));
            if rng.next_f64() < 0.15 {
                // A burst: 2–4 aftershocks at mean gap six minutes.
                let shocks = 2 + rng.index(3);
                for _ in 0..shocks {
                    t += rng.exponential(360.0).max(1.0);
                    if t > horizon {
                        break;
                    }
                    events.push((t, rng.index(ranks as usize) as u32));
                }
            }
        }
        RecordedTrace::new(&events, horizon, ranks).unwrap()
    }

    /// Run once (`cargo test -p ft-platform --lib regenerate_bundled_trace
    /// -- --ignored`) to materialise the bundled trace bytes.
    #[test]
    #[ignore = "regenerates the checked-in bundled trace file"]
    fn regenerate_bundled_trace() {
        let trace = synthesize_bundled();
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/data/bundled_burst.fttrace");
        std::fs::write(path, trace.encode()).unwrap();
    }

    #[test]
    fn encode_parse_round_trips() {
        let trace = tiny_trace();
        let parsed = RecordedTrace::parse(&trace.encode()).unwrap();
        assert_eq!(parsed, trace);
        assert_eq!(parsed.len(), 4);
        assert_eq!(parsed.ranks(), 4);
        assert_eq!(parsed.horizon(), 1_000.0);
        assert_eq!(parsed.empirical_mtbf(), 250.0);
        assert_eq!(parsed.victims(), &[0, 3, 1, 2]);
        assert!(!parsed.is_empty());
    }

    #[test]
    fn truncated_input_is_a_typed_error() {
        let bytes = tiny_trace().encode();
        // Too short for even the header.
        assert_eq!(
            RecordedTrace::parse(&bytes[..10]),
            Err(TraceFileError::Truncated {
                needed: TRACE_HEADER_LEN + 4,
                actual: 10
            })
        );
        // Header intact but an event chopped off.
        let chopped = &bytes[..bytes.len() - 5];
        assert_eq!(
            RecordedTrace::parse(chopped),
            Err(TraceFileError::Truncated {
                needed: bytes.len(),
                actual: bytes.len() - 5
            })
        );
        // Trailing garbage is also a length mismatch, not silently ignored.
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(matches!(
            RecordedTrace::parse(&padded),
            Err(TraceFileError::Truncated { .. })
        ));
    }

    #[test]
    fn bad_magic_and_version_are_typed_errors() {
        let mut bytes = tiny_trace().encode();
        bytes[0] = b'X';
        assert_eq!(RecordedTrace::parse(&bytes), Err(TraceFileError::BadMagic));
        let mut bytes = tiny_trace().encode();
        bytes[7] = b'2';
        assert_eq!(
            RecordedTrace::parse(&bytes),
            Err(TraceFileError::UnsupportedVersion { found: b'2' })
        );
    }

    #[test]
    fn corrupt_bytes_fail_the_checksum() {
        let mut bytes = tiny_trace().encode();
        let mid = TRACE_HEADER_LEN + 3;
        bytes[mid] ^= 0x40;
        match RecordedTrace::parse(&bytes) {
            Err(TraceFileError::ChecksumMismatch { expected, actual }) => {
                assert_ne!(expected, actual);
            }
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
        // A corrupt trailer is also a mismatch.
        let mut bytes = tiny_trace().encode();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        assert!(matches!(
            RecordedTrace::parse(&bytes),
            Err(TraceFileError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn semantic_invariants_are_typed_errors() {
        assert_eq!(
            RecordedTrace::parse(&encode_raw(&[], 1_000.0, 4)),
            Err(TraceFileError::Empty)
        );
        assert_eq!(
            RecordedTrace::parse(&encode_raw(&tiny_events(), 1_000.0, 0)),
            Err(TraceFileError::NoRanks)
        );
        assert!(matches!(
            RecordedTrace::parse(&encode_raw(&tiny_events(), f64::NAN, 4)),
            Err(TraceFileError::BadHorizon { .. })
        ));
        assert!(matches!(
            RecordedTrace::parse(&encode_raw(&tiny_events(), -5.0, 4)),
            Err(TraceFileError::BadHorizon { .. })
        ));
        // Timestamp beyond the horizon.
        assert_eq!(
            RecordedTrace::parse(&encode_raw(&tiny_events(), 500.0, 4)),
            Err(TraceFileError::BadTimestamp {
                index: 3,
                value: 700.0
            })
        );
        // Zero / negative / non-finite timestamps.
        assert!(matches!(
            RecordedTrace::parse(&encode_raw(&[(0.0, 0)], 1_000.0, 4)),
            Err(TraceFileError::BadTimestamp { index: 0, .. })
        ));
        assert!(matches!(
            RecordedTrace::parse(&encode_raw(&[(f64::INFINITY, 0)], 1_000.0, 4)),
            Err(TraceFileError::BadTimestamp { index: 0, .. })
        ));
        // Non-monotone pair.
        assert_eq!(
            RecordedTrace::parse(&encode_raw(&[(10.0, 0), (10.0, 1)], 1_000.0, 4)),
            Err(TraceFileError::NonMonotone { index: 1 })
        );
        // Rank out of range.
        assert_eq!(
            RecordedTrace::parse(&encode_raw(&[(10.0, 7)], 1_000.0, 4)),
            Err(TraceFileError::RankOutOfRange {
                index: 0,
                rank: 7,
                ranks: 4
            })
        );
    }

    #[test]
    fn loading_a_missing_file_is_a_typed_error() {
        assert!(matches!(
            RecordedTrace::load("/nonexistent/path/to.fttrace"),
            Err(TraceFileError::Io { .. })
        ));
    }

    #[test]
    fn error_messages_render() {
        // Display impls exist for diagnostics; smoke each variant.
        let errors: Vec<TraceFileError> = vec![
            TraceFileError::Truncated {
                needed: 28,
                actual: 4,
            },
            TraceFileError::BadMagic,
            TraceFileError::UnsupportedVersion { found: 0x32 },
            TraceFileError::ChecksumMismatch {
                expected: 1,
                actual: 2,
            },
            TraceFileError::Empty,
            TraceFileError::NoRanks,
            TraceFileError::BadHorizon { value: -1.0 },
            TraceFileError::BadTimestamp {
                index: 0,
                value: -1.0,
            },
            TraceFileError::NonMonotone { index: 1 },
            TraceFileError::RankOutOfRange {
                index: 0,
                rank: 9,
                ranks: 4,
            },
            TraceFileError::Io {
                detail: "gone".to_string(),
            },
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
        assert!(!ScenarioError::Trace(TraceFileError::Empty).to_string().is_empty());
        assert!(!ScenarioError::UnknownScenario("zap".into()).to_string().is_empty());
    }

    #[test]
    fn playback_is_deterministic_and_strictly_increasing() {
        let playback = tiny_trace().into_playback();
        let mut rng_a = Xoshiro256::seed_from_u64(41);
        let mut rng_b = Xoshiro256::seed_from_u64(41);
        let mut state_a = SourceState::default();
        let mut state_b = SourceState::default();
        let mut prev = 0.0f64;
        for _ in 0..40 {
            let a = playback.next_failure_time(prev, &mut state_a, &mut rng_a);
            let b = playback.next_failure_time(prev, &mut state_b, &mut rng_b);
            assert_eq!(a.to_bits(), b.to_bits());
            assert!(a > prev, "playback must be strictly increasing: {a} !> {prev}");
            prev = a;
        }
    }

    #[test]
    fn playback_repeats_with_the_trace_period() {
        let playback = tiny_trace().into_playback();
        let n = playback.events_per_cycle();
        let mut rng = Xoshiro256::seed_from_u64(7);
        let mut state = SourceState::default();
        let mut prev = 0.0;
        let mut times = Vec::new();
        for _ in 0..3 * n {
            prev = playback.next_failure_time(prev, &mut state, &mut rng);
            times.push(prev);
        }
        for k in 0..2 * n {
            let diff = times[k + n] - times[k];
            assert!(
                (diff - playback.horizon()).abs() < 1e-9 * playback.horizon(),
                "event {k}: period {diff} != horizon {}",
                playback.horizon()
            );
        }
    }

    #[test]
    fn playback_long_run_rate_matches_the_empirical_mtbf() {
        let playback = tiny_trace().into_playback();
        let mut rng = Xoshiro256::seed_from_u64(3);
        let mut state = SourceState::default();
        let mut prev = 0.0;
        let count = 4_000usize;
        for _ in 0..count {
            prev = playback.next_failure_time(prev, &mut state, &mut rng);
        }
        let mean = prev / count as f64;
        assert!(
            (mean - playback.mean()).abs() < 0.01 * playback.mean(),
            "empirical mean {mean} vs model mean {}",
            playback.mean()
        );
    }

    #[test]
    fn playback_antithetic_phase_is_mirrored() {
        let playback = tiny_trace().into_playback();
        let mut rng = Xoshiro256::seed_from_u64(99);
        let mut anti = Xoshiro256::seed_from_u64(99);
        let mut state = SourceState::default();
        let mut state_anti = SourceState::default();
        playback.next_failure_time(0.0, &mut state, &mut rng);
        playback.next_failure_time(0.0, &mut state_anti, &mut AntitheticRng(&mut anti));
        // Complemented raw bits give u' ≈ 1 − u, so the phases mirror
        // around horizon/2 to within one ulp of the uniform.
        let mirrored = playback.horizon() - state.offset;
        assert!(
            (state_anti.offset - mirrored).abs() < 1e-9 * playback.horizon(),
            "antithetic offset {} vs mirrored {mirrored}",
            state_anti.offset
        );
    }

    #[test]
    fn cascade_calibration_keeps_the_platform_mtbf() {
        let mtbf = 1_000.0;
        let model = CascadeFailures::with_defaults(mtbf).unwrap();
        assert_eq!(model.mean(), mtbf);
        assert_eq!(model.aftershocks(), 3.0);
        // γ = µ(1 + m) − mδ with m = 3, δ = µ/20.
        assert!((model.primary_gap() - (mtbf * 4.0 - 3.0 * mtbf / 20.0)).abs() < 1e-9);
        let mut rng = Xoshiro256::seed_from_u64(11);
        let mut state = SourceState::default();
        let mut prev = 0.0;
        let count = 400_000usize;
        for _ in 0..count {
            prev = model.next_failure_time(prev, &mut state, &mut rng);
        }
        let mean = prev / count as f64;
        assert!(
            (mean - mtbf).abs() < 0.02 * mtbf,
            "cascade empirical mean {mean} vs mtbf {mtbf}"
        );
    }

    #[test]
    fn cascade_rejects_impossible_calibrations() {
        // δ so large the primary gap would go negative.
        assert!(CascadeFailures::new(100.0, 3.0, 150.0).is_err());
        assert!(CascadeFailures::new(-1.0, 3.0, 5.0).is_err());
        assert!(CascadeFailures::new(100.0, 0.0, 5.0).is_err());
    }

    #[test]
    fn diurnal_long_run_rate_matches_and_concentrates_by_day() {
        let mean = 2_000.0;
        let model = DiurnalFailures::with_defaults(mean).unwrap();
        assert_eq!(model.mean(), mean);
        assert_eq!(model.period(), 86_400.0);
        let mut rng = Xoshiro256::seed_from_u64(5);
        let mut state = SourceState::default();
        let mut prev = 0.0;
        let count = 300_000usize;
        let mut in_day = 0usize;
        let day = 0.5 * model.period();
        for _ in 0..count {
            prev = model.next_failure_time(prev, &mut state, &mut rng);
            if prev % model.period() <= day {
                in_day += 1;
            }
        }
        let empirical_mean = prev / count as f64;
        assert!(
            (empirical_mean - mean).abs() < 0.02 * mean,
            "diurnal empirical mean {empirical_mean} vs {mean}"
        );
        // With contrast 4 over equal halves, 4/5 of failures land in the
        // high-rate window.
        let frac = in_day as f64 / count as f64;
        assert!(
            (frac - 0.8).abs() < 0.01,
            "day-window fraction {frac}, expected 0.8"
        );
    }

    #[test]
    fn diurnal_hazard_inversion_round_trips() {
        let model = DiurnalFailures::new(500.0, 1_000.0, 0.3, 6.0).unwrap();
        let mut rng = Xoshiro256::seed_from_u64(17);
        let mut state = SourceState::default();
        let mut prev = 123.4;
        for _ in 0..200 {
            let next = model.next_failure_time(prev, &mut state, &mut rng);
            assert!(next > prev);
            // Λ increments are Exp(1): each must be positive and finite.
            let inc = model.cumulative_hazard(next) - model.cumulative_hazard(prev);
            assert!(inc.is_finite() && inc > 0.0);
            prev = next;
        }
    }

    #[test]
    fn diurnal_rejects_degenerate_windows() {
        assert!(DiurnalFailures::new(500.0, 1_000.0, 0.0, 4.0).is_err());
        assert!(DiurnalFailures::new(500.0, 1_000.0, 1.0, 4.0).is_err());
        assert!(DiurnalFailures::new(500.0, -1.0, 0.5, 4.0).is_err());
        assert!(DiurnalFailures::new(0.0, 1_000.0, 0.5, 4.0).is_err());
    }

    #[test]
    fn wearout_failures_accelerate_and_hit_the_calibrated_budget() {
        let mean = 1_000.0;
        let horizon = 1_000_000.0;
        let model = WearoutFailures::with_defaults(mean, horizon).unwrap();
        assert_eq!(model.shape(), 2.0);
        // Λ(T) = T/µ by calibration.
        let lam = (horizon / model.scale()).powf(model.shape());
        assert!((lam - horizon / mean).abs() < 1e-6 * (horizon / mean));
        // Count failures before the nominal horizon over replications.
        let mut total = 0usize;
        let reps = 20;
        for rep in 0..reps {
            let mut rng = Xoshiro256::seed_from_u64(100 + rep);
            let mut state = SourceState::default();
            let mut prev = 0.0;
            let mut early_gap_sum = 0.0;
            let mut early = 0usize;
            let mut late_gap_sum = 0.0;
            let mut late = 0usize;
            loop {
                let next = model.next_failure_time(prev, &mut state, &mut rng);
                if next > horizon {
                    break;
                }
                let gap = next - prev;
                if next < horizon / 2.0 {
                    early_gap_sum += gap;
                    early += 1;
                } else {
                    late_gap_sum += gap;
                    late += 1;
                }
                prev = next;
                total += 1;
            }
            // Wear-out: gaps in the second half are much shorter.
            if early > 10 && late > 10 {
                assert!(late_gap_sum / (late as f64) < early_gap_sum / (early as f64));
            }
        }
        let mean_count = total as f64 / reps as f64;
        let expected = horizon / mean;
        assert!(
            (mean_count - expected).abs() < 0.05 * expected,
            "wear-out failure budget {mean_count} vs calibrated {expected}"
        );
    }

    #[test]
    fn wearout_hazard_saturates_past_the_nominal_horizon() {
        let mean = 1_000.0;
        let horizon = 1_000_000.0;
        let model = WearoutFailures::with_defaults(mean, horizon).unwrap();
        assert_eq!(model.nominal_horizon(), horizon);
        // Continuity at T: both branches agree on Λ(T) and its inverse.
        let lam_t = (horizon / model.scale()).powf(model.shape());
        assert!((model.cumulative_hazard(horizon) - lam_t).abs() <= 1e-9 * lam_t);
        assert!((model.invert_hazard(lam_t) - horizon).abs() <= 1e-6 * horizon);
        let just_past = model.cumulative_hazard(horizon * 1.000001);
        assert!(just_past > lam_t && just_past < lam_t * 1.001);
        // Beyond T the clock is a constant-rate Poisson process at the
        // t = T rate (k/µ for the power-law calibration): the mean gap
        // deep past the horizon must match µ/k instead of shrinking.
        let rate_t = model.shape() * lam_t / horizon;
        assert!((rate_t - model.shape() / mean).abs() <= 1e-9 * rate_t);
        let mut rng = Xoshiro256::seed_from_u64(4242);
        let mut state = SourceState::default();
        let mut prev = 10.0 * horizon;
        let mut gap_sum = 0.0;
        let draws = 4_000;
        for _ in 0..draws {
            let next = model.next_failure_time(prev, &mut state, &mut rng);
            assert!(next > prev);
            gap_sum += next - prev;
            prev = next;
        }
        let mean_gap = gap_sum / draws as f64;
        let expected = 1.0 / rate_t;
        assert!(
            (mean_gap - expected).abs() < 0.05 * expected,
            "saturated mean gap {mean_gap} vs expected {expected}"
        );
    }

    #[test]
    fn scenario_spec_parses_labels_and_resolves() {
        assert_eq!(ScenarioSpec::parse("iid").unwrap(), ScenarioSpec::Iid);
        assert_eq!(
            ScenarioSpec::parse("trace").unwrap(),
            ScenarioSpec::Trace { path: None }
        );
        assert_eq!(
            ScenarioSpec::parse("trace:/tmp/x.fttrace").unwrap(),
            ScenarioSpec::Trace {
                path: Some("/tmp/x.fttrace".to_string())
            }
        );
        assert_eq!(ScenarioSpec::parse("cascade").unwrap(), ScenarioSpec::Cascade);
        assert_eq!(ScenarioSpec::parse("diurnal").unwrap(), ScenarioSpec::Diurnal);
        assert_eq!(ScenarioSpec::parse("wearout").unwrap(), ScenarioSpec::Wearout);
        assert_eq!(ScenarioSpec::parse("wear-out").unwrap(), ScenarioSpec::Wearout);
        assert!(matches!(
            ScenarioSpec::parse("gaussian"),
            Err(ScenarioError::UnknownScenario(_))
        ));
        assert!(matches!(
            ScenarioSpec::parse("trace:"),
            Err(ScenarioError::UnknownScenario(_))
        ));

        assert!(ScenarioSpec::Iid.is_iid());
        assert!(!ScenarioSpec::Cascade.is_iid());
        assert_eq!(ScenarioSpec::default(), ScenarioSpec::Iid);

        assert_eq!(ScenarioSpec::Iid.to_string(), "iid");
        assert_eq!(ScenarioSpec::Trace { path: None }.to_string(), "trace(bundled)");
        assert_eq!(
            ScenarioSpec::Trace {
                path: Some("a/b".into())
            }
            .to_string(),
            "trace(a/b)"
        );
        assert_eq!(ScenarioSpec::Wearout.to_string(), "wearout");

        let mtbf = 500.0;
        let horizon = 100_000.0;
        assert_eq!(
            ScenarioSpec::Iid.resolve(mtbf, horizon).unwrap().name(),
            "exponential"
        );
        assert_eq!(
            ScenarioSpec::Cascade.resolve(mtbf, horizon).unwrap().name(),
            "cascade"
        );
        assert_eq!(
            ScenarioSpec::Diurnal.resolve(mtbf, horizon).unwrap().name(),
            "diurnal"
        );
        assert_eq!(
            ScenarioSpec::Wearout.resolve(mtbf, horizon).unwrap().name(),
            "wearout"
        );
        assert!(matches!(
            ScenarioSpec::Trace {
                path: Some("/nonexistent.fttrace".into())
            }
            .resolve(mtbf, horizon),
            Err(ScenarioError::Trace(TraceFileError::Io { .. }))
        ));
        // Synthesized scenarios propagate parameter errors.
        assert!(matches!(
            ScenarioSpec::Cascade.resolve(-1.0, horizon),
            Err(ScenarioError::Platform(_))
        ));
    }

    #[test]
    fn bundled_trace_parses_and_plays() {
        let playback = bundled_playback().unwrap();
        assert!(playback.events_per_cycle() > 100);
        assert!(playback.horizon() == 1_209_600.0);
        // The bundled trace is the synthesizer's output, verbatim.
        let expected = synthesize_bundled();
        let parsed = RecordedTrace::parse(bundled_trace_bytes()).unwrap();
        assert_eq!(parsed, expected);
        // Resolving the bundled scenario works end to end.
        let model = ScenarioSpec::Trace { path: None }.resolve(1.0, 1.0).unwrap();
        assert_eq!(model.name(), "trace");
    }

    #[test]
    fn file_loading_round_trips_through_the_cache() {
        let dir = std::env::temp_dir();
        let path = dir.join("ft_platform_scenario_test.fttrace");
        let path = path.to_string_lossy().to_string();
        std::fs::write(&path, tiny_trace().encode()).unwrap();
        let a = playback_from_file(&path).unwrap();
        let b = playback_from_file(&path).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.events_per_cycle(), 4);
        let spec = ScenarioSpec::parse(&format!("trace:{path}")).unwrap();
        assert_eq!(spec.resolve(1.0, 1.0).unwrap().name(), "trace");
        std::fs::remove_file(&path).ok();
    }
}
