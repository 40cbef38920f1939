//! Failure inter-arrival models.
//!
//! The simulator of the paper draws platform-level failures from an
//! exponential distribution whose mean is the platform MTBF (Section V-A).
//! We provide that model ([`ExponentialFailures`]) plus a Weibull model
//! ([`WeibullFailures`]) commonly used to fit real failure logs (infant
//! mortality / wear-out), which the extended experiments use to probe the
//! robustness of the first-order model to its exponential assumption.

use crate::error::{ensure_positive, Result};
use crate::rng::{DeterministicRng, Xoshiro256};
use crate::special::{gamma, inverse_normal_cdf, lower_incomplete_gamma, normal_cdf};

/// Per-stream scratch state for stateful [`FailureModel`]s.
///
/// The i.i.d. models ignore it entirely (the default
/// [`FailureModel::next_failure_time`] never touches it), but the
/// non-stationary scenario sources of [`crate::scenario`] keep their small
/// amount of between-draw memory here instead of in the model itself: the
/// model stays an immutable, `Copy` description shared by every stream, and
/// each stream/lane owns one `SourceState` that its reset paths clear.
/// Because the state is rebuilt deterministically by replaying draws from a
/// reset stream, crash-resume's "reset + fast-forward" repositioning works
/// unchanged for stateful sources.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SourceState {
    /// A lazily drawn phase (the trace playback's cyclic rotation offset).
    pub offset: f64,
    /// A pending-event counter (outstanding cascade aftershocks).
    pub count: u64,
    /// Whether the lazy draw behind `offset` has happened yet.
    pub armed: bool,
}

/// A source of failure inter-arrival times (seconds).
pub trait FailureModel {
    /// Samples the next inter-arrival time using the provided RNG.
    fn next_interarrival(&self, rng: &mut dyn DeterministicRng) -> f64;

    /// The mean inter-arrival time (platform MTBF) of the model.
    fn mean(&self) -> f64;

    /// Human-readable name of the model (used in reports).
    fn name(&self) -> &'static str;

    /// Whether every [`FailureModel::next_interarrival`] call consumes
    /// **exactly one** open uniform — a single raw 64-bit draw mapped through
    /// [`DeterministicRng::next_f64_open`].  Only such models are eligible
    /// for the columnar [`FailureModel::interarrivals_from_open`] path; batch
    /// sources fall back to scalar per-lane sampling when this is `false`.
    ///
    /// The conservative default is `false`; both inverse-CDF models of this
    /// crate override it to `true`.
    #[inline]
    fn single_uniform(&self) -> bool {
        false
    }

    /// Applies the inter-arrival inverse CDF to a whole column of open
    /// uniforms `u ∈ (0, 1]` **in place**, turning each entry into the
    /// inter-arrival time [`FailureModel::next_interarrival`] would sample
    /// from that uniform — the columnar kernel of the batch engine's failure
    /// sampling, where the `ln`/`powf` loop runs over a contiguous column
    /// instead of being interleaved with per-lane RNG stepping.
    ///
    /// Contract: callers may only use this when
    /// [`FailureModel::single_uniform`] is `true`, and implementations must
    /// be **bit-identical** to the scalar sampler — the per-entry float
    /// operations of the overrides below are exactly the scalar expressions,
    /// evaluated in the scalar order.
    ///
    /// The default implementation achieves bit-identity mechanically: the
    /// open uniform lies on the 53-bit grid (`u = m·2⁻⁵³` with integer `m`),
    /// so `1 − u` and the rescale back to an integer are both exact, and the
    /// reconstructed raw draw replayed through `next_interarrival` reproduces
    /// the scalar result bit for bit.  Single-uniform models get the columnar
    /// path for free; overriding with a fused loop is purely a throughput
    /// refinement.
    fn interarrivals_from_open(&self, open: &mut [f64]) {
        for u in open.iter_mut() {
            let high = ((1.0 - *u) * (1u64 << 53) as f64) as u64;
            *u = self.next_interarrival(&mut ReplayOneRng(high << 11));
        }
    }

    /// Absolute time of the next failure after `prev` — the stateful hook
    /// every stream/buffer advances through.
    ///
    /// The default is the renewal (i.i.d.) step `prev + next_interarrival`,
    /// bit-identical to the historical `last += gap` accumulation, and it
    /// never touches `state`.  Non-stationary sources (recorded traces,
    /// cascades, time-varying hazards) override this to make the next
    /// failure depend on the current absolute time and on their
    /// [`SourceState`] scratch.  Overriding models must return a value
    /// `> prev` for every `u ∈ (0, 1)` draw, must consume a deterministic
    /// number of raw RNG draws per call (so antithetic replay stays paired),
    /// and must keep [`FailureModel::single_uniform`] at `false` — the
    /// columnar fast path assumes the stationary default.
    fn next_failure_time(
        &self,
        prev: f64,
        state: &mut SourceState,
        rng: &mut dyn DeterministicRng,
    ) -> f64 {
        let _ = state;
        prev + self.next_interarrival(rng)
    }

    /// [`FailureModel::next_failure_time`] over a generator known at
    /// compile time: the same draws and the same bits, with the model's
    /// sampling body inlined into the caller instead of reached through
    /// `&mut dyn` calls.  The streams and buffers of this crate draw
    /// through it.
    ///
    /// The default forwards to the `dyn` hook, so every model gets it for
    /// free; [`AnyFailureModel`] overrides it arm by arm.
    #[inline]
    fn next_failure_time_static<R: DeterministicRng>(
        &self,
        prev: f64,
        state: &mut SourceState,
        rng: &mut R,
    ) -> f64
    where
        Self: Sized,
    {
        self.next_failure_time(prev, state, rng)
    }
}

/// Adapter replaying one already-drawn raw output, so the default columnar
/// transform can reuse `next_interarrival` verbatim on a reconstructed draw.
struct ReplayOneRng(u64);

impl DeterministicRng for ReplayOneRng {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.0
    }
}

/// Exponential (memoryless) failures with a fixed platform MTBF.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExponentialFailures {
    mtbf: f64,
}

impl ExponentialFailures {
    /// Creates the model with the given platform MTBF in seconds.
    pub fn new(mtbf: f64) -> Result<Self> {
        ensure_positive("mtbf", mtbf)?;
        Ok(Self { mtbf })
    }

    /// Platform MTBF in seconds.
    #[inline]
    pub fn mtbf(&self) -> f64 {
        self.mtbf
    }

    /// The sampling body behind [`FailureModel::next_interarrival`].
    #[inline]
    fn interarrival<R: DeterministicRng + ?Sized>(&self, rng: &mut R) -> f64 {
        rng.exponential(self.mtbf)
    }
}

impl FailureModel for ExponentialFailures {
    #[inline]
    fn next_interarrival(&self, rng: &mut dyn DeterministicRng) -> f64 {
        self.interarrival(rng)
    }

    #[inline]
    fn mean(&self) -> f64 {
        self.mtbf
    }

    fn name(&self) -> &'static str {
        "exponential"
    }

    #[inline]
    fn single_uniform(&self) -> bool {
        true
    }

    fn interarrivals_from_open(&self, open: &mut [f64]) {
        // Exactly `DeterministicRng::exponential`'s expression per entry.
        for u in open.iter_mut() {
            *u = -self.mtbf * u.ln();
        }
    }
}

/// Weibull-distributed failure inter-arrival times.
///
/// Parameterised by its *mean* (so it is directly comparable to an
/// exponential model of the same MTBF) and its shape `k`:
/// `k < 1` models infant mortality (bursty failures), `k = 1` degenerates to
/// the exponential, `k > 1` models wear-out.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeibullFailures {
    mean: f64,
    shape: f64,
    scale: f64,
}

impl WeibullFailures {
    /// Creates a Weibull model with the given mean inter-arrival time
    /// (seconds) and shape parameter.
    pub fn new(mean: f64, shape: f64) -> Result<Self> {
        ensure_positive("mean", mean)?;
        ensure_positive("shape", shape)?;
        let scale = mean / gamma(1.0 + 1.0 / shape);
        Ok(Self { mean, shape, scale })
    }

    /// The shape parameter `k`.
    #[inline]
    pub fn shape(&self) -> f64 {
        self.shape
    }

    /// The scale parameter λ derived from the requested mean.
    #[inline]
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// The sampling body behind [`FailureModel::next_interarrival`].
    #[inline]
    fn interarrival<R: DeterministicRng + ?Sized>(&self, rng: &mut R) -> f64 {
        rng.weibull(self.scale, self.shape)
    }
}

impl FailureModel for WeibullFailures {
    #[inline]
    fn next_interarrival(&self, rng: &mut dyn DeterministicRng) -> f64 {
        self.interarrival(rng)
    }

    #[inline]
    fn mean(&self) -> f64 {
        self.mean
    }

    fn name(&self) -> &'static str {
        "weibull"
    }

    #[inline]
    fn single_uniform(&self) -> bool {
        true
    }

    fn interarrivals_from_open(&self, open: &mut [f64]) {
        // Exactly `DeterministicRng::weibull`'s expression per entry; the
        // hoisted `1/k` is the same division the scalar sampler performs.
        let inv_shape = 1.0 / self.shape;
        for u in open.iter_mut() {
            *u = self.scale * (-u.ln()).powf(inv_shape);
        }
    }
}

/// Lognormal failure inter-arrival times — the heavy-tailed family failure
/// logs are often fitted with when Weibull underestimates the long gaps.
///
/// Parameterised by its *mean* (pinned to the platform MTBF, like
/// [`WeibullFailures`]) and the log-scale standard deviation `σ`:
/// `ln X ~ N(µ_ln, σ²)` with `µ_ln = ln(mean) − σ²/2` so `E[X] = mean`
/// exactly.  Sampling is the inverse-CDF transform
/// `X = exp(µ_ln + σ Φ⁻¹(U))` — one open uniform per draw, which keeps the
/// model on the columnar single-uniform fast path of the batch engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormalFailures {
    mean: f64,
    sigma: f64,
    mu_ln: f64,
}

impl LogNormalFailures {
    /// Creates a lognormal model with the given mean inter-arrival time
    /// (seconds) and log-scale standard deviation `σ > 0`.
    pub fn new(mean: f64, sigma: f64) -> Result<Self> {
        ensure_positive("mean", mean)?;
        ensure_positive("sigma", sigma)?;
        Ok(Self {
            mean,
            sigma,
            mu_ln: mean.ln() - sigma * sigma / 2.0,
        })
    }

    /// The log-scale standard deviation `σ`.
    #[inline]
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// The log-scale location `µ_ln = ln(mean) − σ²/2`.
    #[inline]
    pub fn mu_ln(&self) -> f64 {
        self.mu_ln
    }

    /// The sampling body behind [`FailureModel::next_interarrival`].
    #[inline]
    fn interarrival<R: DeterministicRng + ?Sized>(&self, rng: &mut R) -> f64 {
        // `next_f64_open` lands in (0, 1]; the u = 1 atom (probability 2⁻⁵³)
        // would map to Φ⁻¹(1) = ∞, so it is clamped to the largest
        // representable quantile below 1.
        let u = rng.next_f64_open().min(1.0 - f64::EPSILON / 2.0);
        (self.mu_ln + self.sigma * inverse_normal_cdf(u)).exp()
    }
}

impl FailureModel for LogNormalFailures {
    #[inline]
    fn next_interarrival(&self, rng: &mut dyn DeterministicRng) -> f64 {
        self.interarrival(rng)
    }

    #[inline]
    fn mean(&self) -> f64 {
        self.mean
    }

    fn name(&self) -> &'static str {
        "lognormal"
    }

    #[inline]
    fn single_uniform(&self) -> bool {
        true
    }

    // `interarrivals_from_open` deliberately uses the mechanical default:
    // the reconstructed-draw replay is bit-identical to the scalar sampler
    // by construction, and Φ⁻¹ dominates the cost either way.
}

/// A declarative choice of failure inter-arrival distribution, resolved to a
/// concrete model once the platform MTBF is known.
///
/// This is the configuration-level counterpart of [`FailureModel`]: sweep
/// specifications and CLIs carry a `FailureSpec` (cheap, serialisable,
/// MTBF-agnostic) and [`FailureSpec::build`] turns it into an
/// [`AnyFailureModel`] for one parameter point.  The default is the paper's
/// exponential assumption; `Weibull` drives the robustness studies.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum FailureSpec {
    /// Memoryless failures (the paper's Section V-A assumption).
    #[default]
    Exponential,
    /// Weibull failures of the given shape `k` (mean pinned to the MTBF).
    Weibull {
        /// Shape parameter `k` (`< 1` infant mortality, `1` exponential,
        /// `> 1` wear-out).
        shape: f64,
    },
    /// Lognormal failures of the given log-scale standard deviation `σ`
    /// (mean pinned to the MTBF).
    LogNormal {
        /// Log-scale standard deviation `σ` (`ln X ~ N(µ_ln, σ²)`); larger
        /// `σ` means heavier tails and burstier clocks.
        sigma: f64,
    },
}

impl FailureSpec {
    /// Parses the CLI spelling (`exponential`/`exp`, `weibull`, or
    /// `lognormal`/`lognorm`); a Weibull spec takes its shape `k` — and a
    /// lognormal its `σ` — from `shape`.
    pub fn parse(name: &str, shape: f64) -> Option<FailureSpec> {
        match name {
            "exponential" | "exp" => Some(FailureSpec::Exponential),
            "weibull" => Some(FailureSpec::Weibull { shape }),
            "lognormal" | "lognorm" => Some(FailureSpec::LogNormal { sigma: shape }),
            _ => None,
        }
    }

    /// Checks the spec without building a model (a Weibull shape and a
    /// lognormal σ must be positive finite numbers).
    pub fn validate(&self) -> Result<()> {
        match *self {
            FailureSpec::Exponential => Ok(()),
            FailureSpec::Weibull { shape } => ensure_positive("shape", shape).map(|_| ()),
            FailureSpec::LogNormal { sigma } => ensure_positive("sigma", sigma).map(|_| ()),
        }
    }

    /// Resolves the spec into a concrete model with the given mean
    /// inter-arrival time (the platform MTBF, seconds).
    pub fn build(&self, mtbf: f64) -> Result<AnyFailureModel> {
        match *self {
            FailureSpec::Exponential => {
                Ok(AnyFailureModel::Exponential(ExponentialFailures::new(mtbf)?))
            }
            FailureSpec::Weibull { shape } => {
                Ok(AnyFailureModel::Weibull(WeibullFailures::new(mtbf, shape)?))
            }
            FailureSpec::LogNormal { sigma } => {
                Ok(AnyFailureModel::LogNormal(LogNormalFailures::new(mtbf, sigma)?))
            }
        }
    }

    /// The shape parameter of the inter-arrival distribution: `k` for a
    /// Weibull spec, exactly `1` for the exponential (its Weibull
    /// degenerate), and the log-scale `σ` for a lognormal.
    #[inline]
    pub fn shape(&self) -> f64 {
        match *self {
            FailureSpec::Exponential => 1.0,
            FailureSpec::Weibull { shape } => shape,
            FailureSpec::LogNormal { sigma } => sigma,
        }
    }

    /// The log-scale location `µ_ln = ln(mtbf) − σ²/2` of a lognormal spec
    /// calibrated to mean `mtbf` (shared by the moment helpers below).
    fn lognormal_mu_ln(mtbf: f64, sigma: f64) -> f64 {
        mtbf.ln() - sigma * sigma / 2.0
    }

    /// The scale parameter λ of the distribution calibrated to mean `mtbf`:
    /// `λ = µ` for the exponential, `λ = µ / Γ(1 + 1/k)` for a Weibull, and
    /// the median `e^{µ_ln} = µ e^{−σ²/2}` for a lognormal.
    pub fn scale(&self, mtbf: f64) -> f64 {
        match *self {
            FailureSpec::Exponential => mtbf,
            FailureSpec::Weibull { shape } => mtbf / gamma(1.0 + 1.0 / shape),
            FailureSpec::LogNormal { sigma } => Self::lognormal_mu_ln(mtbf, sigma).exp(),
        }
    }

    /// The raw moment `E[Xᵐ]` of the inter-arrival time at mean `mtbf`:
    /// `λᵐ Γ(1 + m/k)` for the Weibull family (so `raw_moment(mtbf, 1) =
    /// mtbf` up to the Γ round-trip), `exp(m µ_ln + m²σ²/2)` for the
    /// lognormal (exact at every order).
    pub fn raw_moment(&self, mtbf: f64, m: f64) -> f64 {
        match *self {
            FailureSpec::Exponential | FailureSpec::Weibull { .. } => {
                let shape = self.shape();
                self.scale(mtbf).powf(m) * gamma(1.0 + m / shape)
            }
            FailureSpec::LogNormal { sigma } => {
                (m * Self::lognormal_mu_ln(mtbf, sigma) + m * m * sigma * sigma / 2.0).exp()
            }
        }
    }

    /// The coefficient of variation `σ/µ` of the inter-arrival time: exactly
    /// `1` for the exponential, `> 1` for bursty Weibull clocks (`k < 1`),
    /// `< 1` for wear-out clocks (`k > 1`), and `√(e^{σ²} − 1)` (always
    /// `> 0`, exceeding `1` once `σ > √(ln 2)`) for the lognormal.
    /// Scale-free, so no MTBF is needed.
    pub fn coefficient_of_variation(&self) -> f64 {
        match *self {
            FailureSpec::Exponential => 1.0,
            FailureSpec::Weibull { shape } => {
                let g1 = gamma(1.0 + 1.0 / shape);
                let g2 = gamma(1.0 + 2.0 / shape);
                (g2 / (g1 * g1) - 1.0).max(0.0).sqrt()
            }
            FailureSpec::LogNormal { sigma } => ((sigma * sigma).exp_m1()).max(0.0).sqrt(),
        }
    }

    /// The cumulative distribution `F(t) = P(X ≤ t)` of the inter-arrival
    /// time at mean `mtbf`.
    pub fn cdf(&self, mtbf: f64, t: f64) -> f64 {
        if t <= 0.0 {
            return 0.0;
        }
        match *self {
            FailureSpec::Exponential | FailureSpec::Weibull { .. } => {
                let shape = self.shape();
                1.0 - (-(t / self.scale(mtbf)).powf(shape)).exp()
            }
            FailureSpec::LogNormal { sigma } => {
                normal_cdf((t.ln() - Self::lognormal_mu_ln(mtbf, sigma)) / sigma)
            }
        }
    }

    /// The conditional mean inter-arrival time below a cutoff,
    /// `E[X | X ≤ τ]` — the incomplete-gamma moment behind the
    /// Weibull-corrected expected-rework term of the analytic waste model:
    ///
    /// `E[X·1{X ≤ τ}] = λ γ(1 + 1/k, (τ/λ)^k)` with `γ` the lower incomplete
    /// Gamma function, divided by `F(τ)`; the lognormal partial mean is the
    /// closed form `E[X·1{X ≤ τ}] = µ Φ((ln τ − µ_ln)/σ − σ)`.
    ///
    /// Returns `0` for `τ ≤ 0`.  The exponential spec evaluates the same
    /// expression at `k = 1` (where it reduces to `µ − τ/(e^{τ/µ} − 1)`), so
    /// ratios of Weibull to exponential conditional means are exactly `1`
    /// at `k = 1`.
    pub fn conditional_mean_below(&self, mtbf: f64, tau: f64) -> f64 {
        if tau <= 0.0 {
            return 0.0;
        }
        match *self {
            FailureSpec::Exponential | FailureSpec::Weibull { .. } => {
                let shape = self.shape();
                let scale = self.scale(mtbf);
                let x = (tau / scale).powf(shape);
                let mass = 1.0 - (-x).exp();
                if mass <= 0.0 {
                    // τ far below the distribution's support resolution: the
                    // conditional mean degenerates to τ/2-like smallness;
                    // return τ/2 as the uniform-limit value.
                    return tau / 2.0;
                }
                scale * lower_incomplete_gamma(1.0 + 1.0 / shape, x) / mass
            }
            FailureSpec::LogNormal { sigma } => {
                let mu_ln = Self::lognormal_mu_ln(mtbf, sigma);
                let z = (tau.ln() - mu_ln) / sigma;
                let mass = normal_cdf(z);
                // E[X·1{X ≤ τ}] = e^{µ_ln + σ²/2} Φ(z − σ) = µ Φ(z − σ).
                let partial = mtbf * normal_cdf(z - sigma);
                if mass <= 0.0 || partial <= 0.0 {
                    // Deep-left-tail guard (same spirit as the Weibull
                    // branch).  `Φ(z − σ)` underflows before `Φ(z)` does, so
                    // the numerator must be guarded too or the ratio would
                    // collapse to 0 — below the τ/2 the guard returns for
                    // even smaller cutoffs, breaking monotonicity in τ.
                    return tau / 2.0;
                }
                // Guard the far tail where both Φ evaluations underflow at
                // different rates: the conditional mean can never exceed τ.
                (partial / mass).min(tau)
            }
        }
    }
}

impl std::fmt::Display for FailureSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            FailureSpec::Exponential => write!(f, "exponential"),
            FailureSpec::Weibull { shape } => write!(f, "weibull(k={shape})"),
            FailureSpec::LogNormal { sigma } => write!(f, "lognormal(sigma={sigma})"),
        }
    }
}

/// A runtime-selected failure model: enum dispatch over the concrete
/// distributions and scenario sources, so generic simulation code (clocks,
/// trace buffers, executors) can switch models per parameter point without
/// boxing or virtual calls on the sampling hot path.
///
/// The `Exponential` arm draws exactly the same variates as a bare
/// [`ExponentialFailures`] with the same RNG state, so wrapping the paper's
/// model in `AnyFailureModel` preserves bit-identical failure sequences.
///
/// The scenario arms (`Trace`, `Cascade`, `Diurnal`, `Wearout` — see
/// [`crate::scenario`]) are non-stationary: they advance through the
/// stateful [`FailureModel::next_failure_time`] hook, report
/// [`FailureModel::single_uniform`]` = false` (pinning every batch source to
/// the scalar per-lane fallback), and their [`AnyFailureModel::spec`] is the
/// matched-MTBF `Exponential` baseline — the family the analytic planner
/// assumes when the i.i.d. assumption breaks underneath it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AnyFailureModel {
    /// Exponential inter-arrival times.
    Exponential(ExponentialFailures),
    /// Weibull inter-arrival times.
    Weibull(WeibullFailures),
    /// Lognormal inter-arrival times.
    LogNormal(LogNormalFailures),
    /// Cyclic playback of a recorded failure trace (seeded rotation).
    Trace(crate::scenario::TracePlayback),
    /// Post-failure cascade bursts over an exponential base clock.
    Cascade(crate::scenario::CascadeFailures),
    /// Day/night intensity modulation (piecewise-constant hazard).
    Diurnal(crate::scenario::DiurnalFailures),
    /// Platform-age wear-out (Weibull hazard, increasing in absolute time).
    Wearout(crate::scenario::WearoutFailures),
}

/// Forwards one [`FailureModel`] method through the enum — one match, every
/// arm, so a new arm cannot silently miss a dispatch site.
macro_rules! for_each_model {
    ($self:expr, $m:pat => $body:expr) => {
        match $self {
            AnyFailureModel::Exponential($m) => $body,
            AnyFailureModel::Weibull($m) => $body,
            AnyFailureModel::LogNormal($m) => $body,
            AnyFailureModel::Trace($m) => $body,
            AnyFailureModel::Cascade($m) => $body,
            AnyFailureModel::Diurnal($m) => $body,
            AnyFailureModel::Wearout($m) => $body,
        }
    };
}

impl AnyFailureModel {
    /// The declarative spec this model realises — the inverse of
    /// [`FailureSpec::build`].  Lets consumers that only hold the resolved
    /// model (e.g. the simulation engine) recover the distribution family
    /// and shape, so the analytic waste model can be matched to the clock.
    ///
    /// The non-stationary scenario arms have no i.i.d. spec; they report the
    /// matched-MTBF `Exponential` baseline, which is exactly the assumption
    /// the scenario sweeps measure the planner against.
    #[inline]
    pub fn spec(&self) -> FailureSpec {
        match self {
            AnyFailureModel::Exponential(_) => FailureSpec::Exponential,
            AnyFailureModel::Weibull(w) => FailureSpec::Weibull { shape: w.shape() },
            AnyFailureModel::LogNormal(l) => FailureSpec::LogNormal { sigma: l.sigma() },
            AnyFailureModel::Trace(_)
            | AnyFailureModel::Cascade(_)
            | AnyFailureModel::Diurnal(_)
            | AnyFailureModel::Wearout(_) => FailureSpec::Exponential,
        }
    }
}

impl FailureModel for AnyFailureModel {
    #[inline]
    fn next_interarrival(&self, rng: &mut dyn DeterministicRng) -> f64 {
        for_each_model!(self, m => m.next_interarrival(rng))
    }

    #[inline]
    fn mean(&self) -> f64 {
        for_each_model!(self, m => m.mean())
    }

    fn name(&self) -> &'static str {
        for_each_model!(self, m => m.name())
    }

    #[inline]
    fn single_uniform(&self) -> bool {
        for_each_model!(self, m => m.single_uniform())
    }

    fn interarrivals_from_open(&self, open: &mut [f64]) {
        // One dispatch per column, not per lane.
        for_each_model!(self, m => m.interarrivals_from_open(open))
    }

    #[inline]
    fn next_failure_time(
        &self,
        prev: f64,
        state: &mut SourceState,
        rng: &mut dyn DeterministicRng,
    ) -> f64 {
        for_each_model!(self, m => m.next_failure_time(prev, state, rng))
    }

    /// One match per draw, then each arm's sampling body inlined for `R`:
    /// the i.i.d. arms add their gap to `prev` exactly as the default hook
    /// does, and the scenario arms run their own stateful step.
    #[inline]
    fn next_failure_time_static<R: DeterministicRng>(
        &self,
        prev: f64,
        state: &mut SourceState,
        rng: &mut R,
    ) -> f64 {
        match self {
            AnyFailureModel::Exponential(m) => prev + m.interarrival(rng),
            AnyFailureModel::Weibull(m) => prev + m.interarrival(rng),
            AnyFailureModel::LogNormal(m) => prev + m.interarrival(rng),
            AnyFailureModel::Trace(m) => m.failure_time(prev, state, rng),
            AnyFailureModel::Cascade(m) => m.failure_time(prev, state, rng),
            AnyFailureModel::Diurnal(m) => m.failure_time(prev, rng),
            AnyFailureModel::Wearout(m) => m.failure_time(prev, rng),
        }
    }
}

/// A source of *absolute* failure times, consumed one at a time by the
/// simulation clock.
///
/// Two families implement it:
///
/// * [`FailureStream`] — samples a fresh sequence from a [`FailureModel`]
///   (every consumer sees an independent sequence);
/// * [`crate::trace::TraceCursor`] — replays a recorded sequence from a
///   [`crate::trace::TraceBuffer`], so several consumers can see the **same**
///   failures (common random numbers).
pub trait FailureSource {
    /// Absolute time of the next failure (advances the source).
    fn next_failure(&mut self) -> f64;

    /// Mean inter-arrival time of the underlying model (the platform MTBF).
    fn mean_interarrival(&self) -> f64;
}

/// Stateful failure-time generator: turns an inter-arrival model into an
/// absolute-time stream of failures starting at `t = 0`.
#[derive(Debug, Clone)]
pub struct FailureStream<M: FailureModel> {
    model: M,
    rng: Xoshiro256,
    now: f64,
    state: SourceState,
}

impl<M: FailureModel> FailureStream<M> {
    /// Creates a stream seeded deterministically.
    pub fn new(model: M, seed: u64) -> Self {
        Self {
            model,
            rng: Xoshiro256::seed_from_u64(seed),
            now: 0.0,
            state: SourceState::default(),
        }
    }

    /// Absolute time of the next failure (advances the stream).
    pub fn next_failure(&mut self) -> f64 {
        self.now = self
            .model
            .next_failure_time_static(self.now, &mut self.state, &mut self.rng);
        self.now
    }

    /// The underlying model.
    pub fn model(&self) -> &M {
        &self.model
    }
}

impl<M: FailureModel> Iterator for FailureStream<M> {
    type Item = f64;

    fn next(&mut self) -> Option<f64> {
        Some(self.next_failure())
    }
}

impl<M: FailureModel> FailureSource for FailureStream<M> {
    #[inline]
    fn next_failure(&mut self) -> f64 {
        FailureStream::next_failure(self)
    }

    #[inline]
    fn mean_interarrival(&self) -> f64 {
        self.model.mean()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exponential_requires_positive_mtbf() {
        assert!(ExponentialFailures::new(0.0).is_err());
        assert!(ExponentialFailures::new(-5.0).is_err());
        assert!(ExponentialFailures::new(3600.0).is_ok());
    }

    #[test]
    fn exponential_empirical_mean_matches() {
        let model = ExponentialFailures::new(1234.0).unwrap();
        let mut rng = Xoshiro256::seed_from_u64(99);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| model.next_interarrival(&mut rng)).sum();
        let mean = sum / n as f64;
        assert!((mean - 1234.0).abs() / 1234.0 < 0.02);
    }

    #[test]
    fn spec_moment_helpers_match_the_distributions() {
        let mtbf = 500.0;
        // Exponential: shape 1, scale µ, CV 1, mean moment µ.
        let exp = FailureSpec::Exponential;
        assert_eq!(exp.shape(), 1.0);
        assert_eq!(exp.scale(mtbf), mtbf);
        assert!((exp.coefficient_of_variation() - 1.0).abs() < 1e-12);
        assert!((exp.raw_moment(mtbf, 1.0) - mtbf).abs() / mtbf < 1e-10);
        // E[X²] = 2µ² for the exponential.
        assert!((exp.raw_moment(mtbf, 2.0) - 2.0 * mtbf * mtbf).abs() / (mtbf * mtbf) < 1e-9);
        assert!((exp.cdf(mtbf, mtbf) - (1.0 - (-1.0f64).exp())).abs() < 1e-12);
        assert_eq!(exp.cdf(mtbf, -1.0), 0.0);

        // Weibull: scale matches the built model, first moment returns the
        // requested mean, CV > 1 below k = 1 and < 1 above.
        for shape in [0.6, 0.8, 1.0, 1.4, 2.0] {
            let spec = FailureSpec::Weibull { shape };
            let model = WeibullFailures::new(mtbf, shape).unwrap();
            assert!((spec.scale(mtbf) - model.scale()).abs() < 1e-9, "shape {shape}");
            assert!(
                (spec.raw_moment(mtbf, 1.0) - mtbf).abs() / mtbf < 1e-9,
                "shape {shape}: first moment {}",
                spec.raw_moment(mtbf, 1.0)
            );
            let cv = spec.coefficient_of_variation();
            if shape < 1.0 {
                assert!(cv > 1.0, "shape {shape}: cv {cv}");
            } else if shape > 1.0 {
                assert!(cv < 1.0, "shape {shape}: cv {cv}");
            } else {
                assert!((cv - 1.0).abs() < 1e-7);
            }
        }

        // Lognormal: the scale is the median e^{µ_ln}, the first moment is
        // the requested mean exactly, E[X²] = µ² e^{σ²}, CV = √(e^{σ²} − 1),
        // and the CDF evaluated at the median is exactly 1/2.
        for sigma in [0.4, 0.9, 1.5] {
            let spec = FailureSpec::LogNormal { sigma };
            let model = LogNormalFailures::new(mtbf, sigma).unwrap();
            assert!((spec.scale(mtbf) - model.mu_ln().exp()).abs() < 1e-9, "sigma {sigma}");
            assert!((spec.raw_moment(mtbf, 1.0) - mtbf).abs() / mtbf < 1e-12, "sigma {sigma}");
            let second = mtbf * mtbf * (sigma * sigma).exp();
            assert!(
                (spec.raw_moment(mtbf, 2.0) - second).abs() / second < 1e-12,
                "sigma {sigma}"
            );
            let cv = spec.coefficient_of_variation();
            assert!(((cv * cv + 1.0).ln() - sigma * sigma).abs() < 1e-12, "sigma {sigma}");
            assert!((spec.cdf(mtbf, spec.scale(mtbf)) - 0.5).abs() < 1e-12, "sigma {sigma}");
            assert_eq!(spec.cdf(mtbf, -3.0), 0.0);
        }
    }

    #[test]
    fn conditional_mean_below_matches_monte_carlo() {
        let mtbf = 1_000.0;
        for (spec, seed) in [
            (FailureSpec::Exponential, 5u64),
            (FailureSpec::Weibull { shape: 0.7 }, 6),
            (FailureSpec::Weibull { shape: 1.6 }, 7),
            (FailureSpec::LogNormal { sigma: 0.9 }, 8),
        ] {
            let tau = 700.0;
            let model = spec.build(mtbf).unwrap();
            let mut rng = Xoshiro256::seed_from_u64(seed);
            let (mut sum, mut n) = (0.0, 0u64);
            for _ in 0..400_000 {
                let x = model.next_interarrival(&mut rng);
                if x <= tau {
                    sum += x;
                    n += 1;
                }
            }
            let empirical = sum / n as f64;
            let analytic = spec.conditional_mean_below(mtbf, tau);
            assert!(
                (empirical - analytic).abs() / analytic < 0.01,
                "{spec}: empirical {empirical} vs analytic {analytic}"
            );
            // Bounded by the cutoff and by the unconditional mean.
            assert!(analytic > 0.0 && analytic < tau);
            assert_eq!(spec.conditional_mean_below(mtbf, 0.0), 0.0);
        }
    }

    use proptest::prelude::*;

    proptest! {
        /// `E[X | X ≤ τ]` is monotone non-decreasing in the cutoff τ and
        /// bounded by both the cutoff and the unconditional mean — across
        /// the whole (shape, MTBF, τ) space the Weibull-corrected waste
        /// model evaluates it on, including the mass-underflow τ → 0 branch.
        #[test]
        fn conditional_mean_below_is_monotone_and_bounded(
            kind in 0usize..3,
            shape in 0.15f64..4.0,
            mtbf in 1.0f64..100_000.0,
            tau_rel in 1e-6f64..10.0,
            step_rel in 1e-6f64..2.0,
        ) {
            let spec = match kind {
                0 => FailureSpec::Exponential,
                1 => FailureSpec::Weibull { shape },
                _ => FailureSpec::LogNormal { sigma: shape },
            };
            let tau = tau_rel * mtbf;
            let at = spec.conditional_mean_below(mtbf, tau);
            let further = spec.conditional_mean_below(mtbf, tau + step_rel * mtbf);
            // Monotone in τ (up to accumulated rounding of the two
            // independent incomplete-gamma evaluations).
            prop_assert!(further >= at - 1e-9 * at.abs());
            // Bounded: 0 < E[X | X ≤ τ] ≤ τ, and never above E[X] = MTBF.
            prop_assert!(at > 0.0);
            prop_assert!(at <= tau * (1.0 + 1e-12));
            prop_assert!(at <= mtbf * (1.0 + 1e-9));
        }
    }

    #[test]
    fn any_failure_model_recovers_its_spec() {
        let exp = FailureSpec::Exponential.build(100.0).unwrap();
        assert_eq!(exp.spec(), FailureSpec::Exponential);
        let weibull = FailureSpec::Weibull { shape: 0.7 }.build(100.0).unwrap();
        assert_eq!(weibull.spec(), FailureSpec::Weibull { shape: 0.7 });
        let lognormal = FailureSpec::LogNormal { sigma: 0.9 }.build(100.0).unwrap();
        assert_eq!(lognormal.spec(), FailureSpec::LogNormal { sigma: 0.9 });
    }

    #[test]
    fn lognormal_empirical_mean_matches() {
        for sigma in [0.4, 0.9, 1.5] {
            let model = LogNormalFailures::new(500.0, sigma).unwrap();
            let mut rng = Xoshiro256::seed_from_u64(13);
            let n = 400_000;
            let sum: f64 = (0..n).map(|_| model.next_interarrival(&mut rng)).sum();
            let mean = sum / n as f64;
            assert!(
                (mean - 500.0).abs() / 500.0 < 0.05,
                "sigma {sigma}: empirical mean {mean}"
            );
        }
    }

    #[test]
    fn default_next_failure_time_is_bit_identical_to_gap_accumulation() {
        // The stateful hook's i.i.d. default must reproduce the historical
        // `last += gap` accumulation bit for bit, for every i.i.d. family.
        for spec in [
            FailureSpec::Exponential,
            FailureSpec::Weibull { shape: 0.7 },
            FailureSpec::LogNormal { sigma: 0.9 },
        ] {
            let model = spec.build(444.0).unwrap();
            let mut rng_a = Xoshiro256::seed_from_u64(21);
            let mut rng_b = Xoshiro256::seed_from_u64(21);
            let mut state = SourceState::default();
            let mut last_hook = 0.0f64;
            let mut last_acc = 0.0f64;
            for _ in 0..200 {
                last_hook = model.next_failure_time(last_hook, &mut state, &mut rng_a);
                last_acc += model.next_interarrival(&mut rng_b);
                assert_eq!(last_hook.to_bits(), last_acc.to_bits(), "{spec}");
            }
            assert_eq!(state, SourceState::default(), "{spec}: default hook touched state");
        }
    }

    #[test]
    fn weibull_mean_is_calibrated() {
        for shape in [0.7, 1.0, 1.5, 2.0] {
            let model = WeibullFailures::new(500.0, shape).unwrap();
            let mut rng = Xoshiro256::seed_from_u64(7);
            let n = 200_000;
            let sum: f64 = (0..n).map(|_| model.next_interarrival(&mut rng)).sum();
            let mean = sum / n as f64;
            assert!(
                (mean - 500.0).abs() / 500.0 < 0.03,
                "shape {shape}: empirical mean {mean}"
            );
        }
    }

    #[test]
    fn weibull_shape_one_matches_exponential_scale() {
        let model = WeibullFailures::new(500.0, 1.0).unwrap();
        assert!((model.scale() - 500.0).abs() < 1e-9);
    }

    #[test]
    fn failure_spec_parses_validates_and_builds() {
        assert_eq!(FailureSpec::parse("exponential", 0.7), Some(FailureSpec::Exponential));
        assert_eq!(FailureSpec::parse("exp", 0.7), Some(FailureSpec::Exponential));
        assert_eq!(
            FailureSpec::parse("weibull", 0.7),
            Some(FailureSpec::Weibull { shape: 0.7 })
        );
        assert_eq!(
            FailureSpec::parse("lognormal", 0.7),
            Some(FailureSpec::LogNormal { sigma: 0.7 })
        );
        assert_eq!(
            FailureSpec::parse("lognorm", 1.2),
            Some(FailureSpec::LogNormal { sigma: 1.2 })
        );
        assert_eq!(FailureSpec::parse("gamma", 0.7), None);
        assert_eq!(FailureSpec::default(), FailureSpec::Exponential);
        assert!(FailureSpec::Exponential.validate().is_ok());
        assert!(FailureSpec::Weibull { shape: 0.0 }.validate().is_err());
        assert!(FailureSpec::Weibull { shape: 1.5 }.validate().is_ok());
        assert!(FailureSpec::Weibull { shape: 1.5 }.build(0.0).is_err());
        assert!(FailureSpec::LogNormal { sigma: 0.0 }.validate().is_err());
        assert!(FailureSpec::LogNormal { sigma: f64::NAN }.validate().is_err());
        assert!(FailureSpec::LogNormal { sigma: 0.9 }.validate().is_ok());
        assert!(FailureSpec::LogNormal { sigma: 0.9 }.build(-1.0).is_err());
        let m = FailureSpec::Weibull { shape: 1.5 }.build(500.0).unwrap();
        assert_eq!(m.name(), "weibull");
        assert!((m.mean() - 500.0).abs() < 1e-9);
        let m = FailureSpec::LogNormal { sigma: 0.9 }.build(500.0).unwrap();
        assert_eq!(m.name(), "lognormal");
        assert_eq!(m.mean(), 500.0);
        assert_eq!(format!("{}", FailureSpec::Weibull { shape: 0.7 }), "weibull(k=0.7)");
        assert_eq!(format!("{}", FailureSpec::Exponential), "exponential");
        assert_eq!(
            format!("{}", FailureSpec::LogNormal { sigma: 0.7 }),
            "lognormal(sigma=0.7)"
        );
    }

    #[test]
    fn any_failure_model_exponential_arm_is_bit_identical_to_the_bare_model() {
        let bare = ExponentialFailures::new(777.0).unwrap();
        let wrapped = FailureSpec::Exponential.build(777.0).unwrap();
        let mut rng_a = Xoshiro256::seed_from_u64(3);
        let mut rng_b = Xoshiro256::seed_from_u64(3);
        for _ in 0..500 {
            assert_eq!(
                bare.next_interarrival(&mut rng_a).to_bits(),
                wrapped.next_interarrival(&mut rng_b).to_bits()
            );
        }
        assert_eq!(wrapped.mean(), 777.0);
        assert_eq!(wrapped.name(), "exponential");
    }

    #[test]
    fn any_failure_model_weibull_arm_is_bit_identical_to_the_bare_model() {
        let bare = WeibullFailures::new(300.0, 0.7).unwrap();
        let wrapped = FailureSpec::Weibull { shape: 0.7 }.build(300.0).unwrap();
        let mut rng_a = Xoshiro256::seed_from_u64(9);
        let mut rng_b = Xoshiro256::seed_from_u64(9);
        for _ in 0..500 {
            assert_eq!(
                bare.next_interarrival(&mut rng_a).to_bits(),
                wrapped.next_interarrival(&mut rng_b).to_bits()
            );
        }
    }

    #[test]
    fn columnar_transform_is_bit_identical_to_scalar_sampling() {
        // Both concrete models, the enum dispatch, and the mechanical
        // bit-reconstruction default must all map the same open uniforms to
        // the same inter-arrival bits as `next_interarrival`.
        struct DefaultOnly(ExponentialFailures);
        impl FailureModel for DefaultOnly {
            fn next_interarrival(&self, rng: &mut dyn DeterministicRng) -> f64 {
                self.0.next_interarrival(rng)
            }
            fn mean(&self) -> f64 {
                self.0.mean()
            }
            fn name(&self) -> &'static str {
                "default-only"
            }
            fn single_uniform(&self) -> bool {
                true
            }
            // interarrivals_from_open deliberately NOT overridden.
        }
        let exp = ExponentialFailures::new(777.0).unwrap();
        let models: Vec<Box<dyn FailureModel>> = vec![
            Box::new(exp),
            Box::new(WeibullFailures::new(500.0, 0.7).unwrap()),
            Box::new(WeibullFailures::new(500.0, 1.6).unwrap()),
            Box::new(LogNormalFailures::new(500.0, 0.9).unwrap()),
            Box::new(FailureSpec::Weibull { shape: 0.7 }.build(500.0).unwrap()),
            Box::new(FailureSpec::Exponential.build(777.0).unwrap()),
            Box::new(FailureSpec::LogNormal { sigma: 1.3 }.build(500.0).unwrap()),
            Box::new(DefaultOnly(exp)),
        ];
        for model in &models {
            assert!(model.single_uniform(), "{}", model.name());
            let mut rng = Xoshiro256::seed_from_u64(0xC01);
            // Draw the column of open uniforms exactly as a batch source
            // does, then replay the same raw stream through the scalar path.
            let mut replay = Xoshiro256::seed_from_u64(0xC01);
            let mut column: Vec<f64> = (0..257).map(|_| rng.next_f64_open()).collect();
            model.interarrivals_from_open(&mut column);
            for (i, &gap) in column.iter().enumerate() {
                let scalar = model.next_interarrival(&mut replay);
                assert_eq!(
                    gap.to_bits(),
                    scalar.to_bits(),
                    "{} entry {i}: {gap} vs {scalar}",
                    model.name()
                );
            }
        }
    }

    /// Every arm of [`AnyFailureModel`] — the i.i.d. families and the
    /// stateful scenario sources — draws the same bits and leaves the same
    /// state and generator through the statically dispatched hook as
    /// through the `dyn` one, plain and antithetic.
    #[test]
    fn static_draws_match_the_dyn_path_for_every_model() {
        use crate::rng::AntitheticRng;
        use crate::scenario::{
            bundled_playback, CascadeFailures, DiurnalFailures, WearoutFailures,
        };
        let mtbf = 3_600.0;
        let models = [
            FailureSpec::Exponential.build(mtbf).unwrap(),
            FailureSpec::Weibull { shape: 0.7 }.build(mtbf).unwrap(),
            FailureSpec::LogNormal { sigma: 0.9 }.build(mtbf).unwrap(),
            AnyFailureModel::Trace(bundled_playback().unwrap()),
            AnyFailureModel::Cascade(CascadeFailures::with_defaults(mtbf).unwrap()),
            AnyFailureModel::Diurnal(DiurnalFailures::with_defaults(mtbf).unwrap()),
            AnyFailureModel::Wearout(WearoutFailures::with_defaults(mtbf, 1e7).unwrap()),
        ];
        for model in models {
            for antithetic in [false, true] {
                let what = format!("{} antithetic={antithetic}", model.name());
                let mut by_dyn = (Xoshiro256::seed_from_u64(0x57A7), SourceState::default(), 0.0);
                let mut by_static = by_dyn;
                for draw in 0..20_000 {
                    let (rng, state, prev) = &mut by_dyn;
                    *prev = if antithetic {
                        model.next_failure_time(*prev, state, &mut AntitheticRng(rng))
                    } else {
                        model.next_failure_time(*prev, state, rng)
                    };
                    let (rng, state, prev) = &mut by_static;
                    *prev = if antithetic {
                        model.next_failure_time_static(*prev, state, &mut AntitheticRng(rng))
                    } else {
                        model.next_failure_time_static(*prev, state, rng)
                    };
                    assert_eq!(by_dyn.2.to_bits(), by_static.2.to_bits(), "{what} draw {draw}");
                    assert_eq!(by_dyn.1, by_static.1, "{what} draw {draw}");
                }
                assert_eq!(by_dyn.0, by_static.0, "{what}: generators drifted apart");
            }
        }
    }

    #[test]
    fn failure_stream_is_increasing_and_deterministic() {
        let model = ExponentialFailures::new(100.0).unwrap();
        let a: Vec<f64> = FailureStream::new(model, 11).take(50).collect();
        let b: Vec<f64> = FailureStream::new(model, 11).take(50).collect();
        assert_eq!(a, b);
        for w in a.windows(2) {
            assert!(w[1] > w[0]);
        }
        assert!(a[0] > 0.0);
    }
}
