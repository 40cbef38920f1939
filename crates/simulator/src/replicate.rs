//! Monte-Carlo replication: budgets, plans, accumulators and the scalar
//! reference driver.
//!
//! The paper's evaluation averages "the termination time over a thousand
//! executions" per parameter point.  Three ideas shape how this crate runs
//! that loop:
//!
//! * **Common random numbers** — every replication's failure sequence is
//!   derived from the allocation-free [`SeedStream`], so several protocols
//!   can replay the *same* failures and be compared pairwise
//!   trace-for-trace ([`PairedAccumulator`]);
//! * **Adaptive budgets** — a [`ReplicationBudget`] either runs a fixed
//!   count (`Fixed(n)`, bit-compatible with the historical behaviour and
//!   guarded by the pinned-seed engine regression) or runs replications in
//!   blocks and stops as soon as the 95 % confidence interval of the waste
//!   is tight enough (`Adaptive`), which cuts most points of a sweep from
//!   1000 replications down to the few hundred they actually need;
//! * **Paired-delta budgets** — when only the *comparison* between
//!   protocols matters (crossover hunting in Figures 8–10),
//!   `AdaptiveDelta` stops as soon as the paired waste differences are
//!   resolved (sign decided or precision met) — provably no later, and
//!   usually far earlier, than the marginal rule on the same traces.
//!
//! The replication driver is the batch engine's
//! [`accumulate_paired_programs_batch`](crate::batch::accumulate_paired_programs_batch)
//! (with its one-program wrapper
//! [`accumulate_profile_program_batch`](crate::batch::accumulate_profile_program_batch)).
//! [`accumulate_paired_engine`] is its scalar reference — one replication
//! at a time through the executors — which the oracle tests compare it
//! against.  Both drivers feed samples through [`PairedAccumulator`]'s one
//! push sequence and stop by its one stopping rule.
//!
//! All aggregation goes through [`crate::stats::Welford`] (via
//! [`OutcomeAccumulator`]); no ad-hoc mean/variance sums anywhere.

use ft_composite::scenario::ApplicationProfile;
use ft_platform::rng::SeedStream;

use crate::engine::Engine;
use crate::protocols::{Protocol, SimOutcome};
use crate::stats::{OutcomeAccumulator, Welford};

/// How many replications a Monte-Carlo evaluation runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReplicationBudget {
    /// Exactly `n` replications — bit-compatible with the historical
    /// fixed-count behaviour (`Fixed(0)` means "no simulation arm" to the
    /// sweep subsystem).
    Fixed(usize),
    /// Sequential stopping: run replications in blocks of
    /// [`ReplicationBudget::BLOCK`] and stop as soon as the CI95 half-width
    /// of the mean waste falls to `rel_precision` times the mean (but never
    /// before `min` nor beyond `max` replications).
    Adaptive {
        /// Target relative precision: stop once
        /// `ci95_half_width ≤ rel_precision × mean_waste` (floored by
        /// [`ReplicationBudget::ABS_PRECISION_FLOOR`]).
        rel_precision: f64,
        /// Minimum replications before the first stopping check (keeps the
        /// normal-approximation interval honest).
        min: usize,
        /// Hard cap on replications.
        max: usize,
    },
    /// Paired-delta sequential stopping for common-random-numbers
    /// comparisons ([`PairedAccumulator`]): instead of tightening every
    /// protocol's *marginal* waste interval, stop as soon as each per-trace
    /// waste **difference** against the baseline is resolved — either its
    /// CI95 excludes zero (the sign of the comparison is decided, which is
    /// all a crossover search needs) or the difference is localised to the
    /// requested precision.  As a safety net the marginal rule of
    /// [`ReplicationBudget::Adaptive`] also stops the loop, so this budget
    /// never runs longer than the marginal rule would on the same traces —
    /// and on clearly-ordered points it stops right after `min`.
    ///
    /// Outside a paired accumulation this budget degrades to the plain
    /// `Adaptive` rule with the same parameters.
    AdaptiveDelta {
        /// Target relative precision on the waste difference (and the
        /// marginal fallback): stop once
        /// `ci95_half_width ≤ rel_precision × |mean_delta|` (floored by
        /// [`ReplicationBudget::ABS_PRECISION_FLOOR`]).
        rel_precision: f64,
        /// Minimum replications before the first stopping check.
        min: usize,
        /// Hard cap on replications.
        max: usize,
    },
}

impl ReplicationBudget {
    /// Replications run between two stopping checks of the adaptive modes.
    pub const BLOCK: usize = 50;

    /// Absolute floor on the adaptive precision targets, in waste units
    /// (waste lives in `[0, 1]`, so `1e-4` is 0.01 % of the full scale).
    ///
    /// Without the floor, a point whose mean waste (or waste difference) is
    /// ≈ 0 — a failure-free corner, or a paired delta right at a crossover —
    /// can never satisfy `ci95 ≤ rel_precision × |mean|` and silently burns
    /// replications up to `max`; the floor stops it as soon as the interval
    /// is tight in absolute terms instead.
    pub const ABS_PRECISION_FLOOR: f64 = 1e-4;

    /// An adaptive budget with the workspace's default bracket
    /// (`min = 100`, `max = 10_000`).
    pub fn adaptive(rel_precision: f64) -> Self {
        ReplicationBudget::Adaptive {
            rel_precision,
            min: 100,
            max: 10_000,
        }
    }

    /// A paired-delta budget with the workspace's default bracket
    /// (`min = 100`, `max = 10_000`).
    pub fn adaptive_delta(rel_precision: f64) -> Self {
        ReplicationBudget::AdaptiveDelta {
            rel_precision,
            min: 100,
            max: 10_000,
        }
    }

    /// The largest number of replications this budget can spend.
    pub fn max_replications(&self) -> usize {
        match *self {
            ReplicationBudget::Fixed(n) => n,
            ReplicationBudget::Adaptive { min, max, .. }
            | ReplicationBudget::AdaptiveDelta { min, max, .. } => max.max(min),
        }
    }

    /// Whether the budget runs a simulation arm at all.
    pub fn runs_simulation(&self) -> bool {
        self.max_replications() > 0
    }

    /// Whether this budget stops on paired per-trace deltas rather than on
    /// marginal waste intervals.
    pub fn is_paired_delta(&self) -> bool {
        matches!(self, ReplicationBudget::AdaptiveDelta { .. })
    }

    /// The adaptive precision target for an estimate with mean `mean`:
    /// relative to the magnitude, floored absolutely.
    fn precision_target(rel_precision: f64, mean: f64) -> f64 {
        (rel_precision * mean.abs()).max(Self::ABS_PRECISION_FLOOR)
    }

    /// Whether `acc` (the waste accumulator) satisfies the stopping rule.
    fn satisfied(&self, acc: &Welford) -> bool {
        match *self {
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
                acc.ci95_half_width() <= Self::precision_target(rel_precision, acc.mean())
            }
        }
    }

    /// Whether a paired waste-difference accumulator is *resolved* under the
    /// [`ReplicationBudget::AdaptiveDelta`] rule: its sign is decided at
    /// 95 % (the CI excludes zero) or the difference itself meets the
    /// requested precision.  Non-delta budgets fall back to the marginal
    /// rule on the delta accumulator.
    fn delta_resolved(&self, delta: &Welford) -> bool {
        match *self {
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
                hw < delta.mean().abs() || hw <= Self::precision_target(rel_precision, delta.mean())
            }
            _ => self.satisfied(delta),
        }
    }

    /// How many replications to run before the next stopping check, given
    /// `done` so far.
    pub(crate) fn next_block(&self, done: usize) -> usize {
        match *self {
            ReplicationBudget::Fixed(n) => n.saturating_sub(done),
            ReplicationBudget::Adaptive { min, max, .. }
            | ReplicationBudget::AdaptiveDelta { min, max, .. } => {
                let cap = max.max(min);
                if done < min {
                    min - done
                } else {
                    Self::BLOCK.min(cap.saturating_sub(done))
                }
            }
        }
    }
}

/// A replication budget plus the variance-reduction knobs that ride along
/// with it — currently antithetic variates.
///
/// Every replication driver takes `impl Into<ReplicationPlan>`, so call
/// sites that only care about the budget keep passing a bare
/// [`ReplicationBudget`] unchanged.
///
/// With `antithetic` set, each seed of the replication stream runs **twice**
/// — once on its recorded failure sequence and once on the antithetic
/// partner sequence
/// ([`TraceBuffer::reset_antithetic`](ft_platform::trace::TraceBuffer::reset_antithetic):
/// every uniform flipped to `1 − u`) — and the pair *average* enters the
/// accumulators as one sample ([`OutcomeAccumulator::push_pair`]).  A budget of `n` then
/// means `n` pair-samples (2·`n` simulated executions); on smooth waste
/// responses the pair averaging cancels first-order sampling noise, so the
/// same execution count buys a tighter confidence interval (and adaptive
/// budgets stop earlier).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplicationPlan {
    /// The stopping rule (fixed or adaptive), counted in samples — pair
    /// averages when `antithetic` is set.
    pub budget: ReplicationBudget,
    /// Run each seed with its antithetic partner and accumulate pair means.
    pub antithetic: bool,
}

impl ReplicationPlan {
    /// A plan with the given budget and no variance-reduction extras.
    pub fn new(budget: ReplicationBudget) -> Self {
        Self {
            budget,
            antithetic: false,
        }
    }

    /// Enables (or disables) antithetic pairing.
    pub fn antithetic(mut self, antithetic: bool) -> Self {
        self.antithetic = antithetic;
        self
    }
}

impl From<ReplicationBudget> for ReplicationPlan {
    fn from(budget: ReplicationBudget) -> Self {
        Self::new(budget)
    }
}

impl std::fmt::Display for ReplicationPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.antithetic {
            write!(f, "{} x antithetic pairs", self.budget)
        } else {
            write!(f, "{}", self.budget)
        }
    }
}

impl std::fmt::Display for ReplicationBudget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            ReplicationBudget::Fixed(n) => write!(f, "fixed({n})"),
            ReplicationBudget::Adaptive {
                rel_precision,
                min,
                max,
            } => write!(
                f,
                "adaptive({:.1}% CI95, {min}..{max} reps)",
                rel_precision * 100.0
            ),
            ReplicationBudget::AdaptiveDelta {
                rel_precision,
                min,
                max,
            } => write!(
                f,
                "paired-delta({:.1}% CI95, {min}..{max} reps)",
                rel_precision * 100.0
            ),
        }
    }
}

/// Aggregated statistics of a batch of replications.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimStats {
    /// Protocol that was simulated.
    pub protocol: Protocol,
    /// Number of replications actually run (equals the request under
    /// `Fixed`, reported per point under `Adaptive`).
    pub replications: usize,
    /// Mean waste across replications.
    pub mean_waste: f64,
    /// Standard deviation of the waste.
    pub std_waste: f64,
    /// Half-width of the 95 % confidence interval of the mean waste.
    pub ci95_waste: f64,
    /// Mean execution time across replications.
    pub mean_final_time: f64,
    /// Mean number of failures per execution.
    pub mean_failures: f64,
}

impl SimStats {
    /// Assembles the statistics record from a raw accumulator.
    pub fn from_accumulator(protocol: Protocol, acc: &OutcomeAccumulator) -> Self {
        Self {
            protocol,
            replications: acc.count() as usize,
            mean_waste: acc.waste.mean(),
            std_waste: acc.waste.std_dev(),
            ci95_waste: acc.waste.ci95_half_width(),
            mean_final_time: acc.final_time.mean(),
            mean_failures: acc.failures.mean(),
        }
    }
}

/// Common-random-numbers accumulation over several protocols: per
/// replication, one failure sequence is replayed to **every** protocol, and
/// the per-trace waste *differences* against the first protocol stream
/// through their own Welford accumulators.
///
/// Because the two waste samples of a difference share the same failure
/// trace, the sampling noise they have in common cancels and the confidence
/// interval on "protocol B − protocol A" is far tighter than the one derived
/// from two independent runs — the same number of replications resolves much
/// smaller protocol gaps (or the same gap needs far fewer replications).
#[derive(Debug, Clone, PartialEq)]
pub struct PairedAccumulator {
    /// The protocols compared, in evaluation order; `protocols[0]` is the
    /// baseline of every difference.
    pub protocols: Vec<Protocol>,
    /// One outcome accumulator per protocol (same order).
    pub outcomes: Vec<OutcomeAccumulator>,
    /// `deltas[i]` accumulates `waste(protocols[i]) − waste(protocols[0])`
    /// per shared trace; `deltas[0]` stays empty.
    pub deltas: Vec<Welford>,
}

impl PairedAccumulator {
    /// Number of shared failure traces evaluated.
    pub fn replications(&self) -> usize {
        self.outcomes.first().map_or(0, |a| a.count() as usize)
    }

    /// The per-trace waste difference of `protocol` against the baseline.
    pub fn delta(&self, protocol: Protocol) -> Option<&Welford> {
        self.protocols
            .iter()
            .position(|&p| p == protocol)
            .filter(|&i| i > 0)
            .map(|i| &self.deltas[i])
    }

    /// The baseline protocol of the differences.
    pub fn baseline(&self) -> Option<Protocol> {
        self.protocols.first().copied()
    }

    /// Pushes one shared-trace sample: `sample(i)` yields slot `i`'s
    /// outcome, plus its antithetic partner under antithetic pairing (the
    /// pair mean then enters as one sample).  Slots are visited in order,
    /// so slot 0's waste is the baseline of every later slot's delta.
    #[inline]
    pub(crate) fn push_sample(
        &mut self,
        mut sample: impl FnMut(usize) -> (SimOutcome, Option<SimOutcome>),
    ) {
        let mut baseline_waste = 0.0;
        for i in 0..self.outcomes.len() {
            let waste = match sample(i) {
                (first, Some(partner)) => {
                    self.outcomes[i].push_pair(&first, &partner);
                    (first.waste() + partner.waste()) / 2.0
                }
                (first, None) => {
                    self.outcomes[i].push(&first);
                    first.waste()
                }
            };
            if i == 0 {
                baseline_waste = waste;
            } else {
                self.deltas[i].push(waste - baseline_waste);
            }
        }
    }

    /// The stopping rule, checked between replication blocks: every paired
    /// delta is resolved (under [`ReplicationBudget::AdaptiveDelta`]), or
    /// every marginal waste estimate satisfies the budget.
    ///
    /// The paired-delta rule ORs with the marginal rule, so it can only
    /// stop *earlier* than `Adaptive` on the same traces, never later.
    /// With no non-baseline slot there is no delta to resolve and only the
    /// marginal rule applies (a vacuous `all` would otherwise stop every
    /// baseline-only run right after `min`).
    #[inline]
    pub(crate) fn stopped(&self, budget: &ReplicationBudget) -> bool {
        let deltas_resolved = budget.is_paired_delta()
            && self.deltas.len() > 1
            && self.deltas[1..].iter().all(|d| budget.delta_resolved(d));
        deltas_resolved || self.outcomes.iter().all(|o| budget.satisfied(&o.waste))
    }
}

/// Runs a paired (common-random-numbers) comparison of `protocols` over
/// `profile` one replication at a time through the scalar executors: the
/// reference the batch driver
/// ([`accumulate_paired_programs_batch`](crate::batch::accumulate_paired_programs_batch))
/// reproduces bit for bit.  Accepts a bare [`ReplicationBudget`] or a full
/// [`ReplicationPlan`].
///
/// Under [`ReplicationBudget::Adaptive`] the stopping rule applies to the
/// *worst* waste interval across the compared protocols, so every marginal
/// estimate meets the requested precision when the evaluation stops early.
/// Under [`ReplicationBudget::AdaptiveDelta`] the loop additionally stops —
/// usually much earlier — as soon as every per-trace waste *difference*
/// against the baseline is resolved (sign decided or precision met), which
/// is the rule crossover hunting wants: only the comparison matters, not
/// the marginals.  With antithetic pairing enabled, every protocol replays
/// the seed's failure sequence **and** its antithetic partner, and the pair
/// means enter the marginal and delta accumulators as one sample — common
/// random numbers across protocols, antithetic variates across the pair.
pub fn accumulate_paired_engine(
    engine: &Engine,
    protocols: &[Protocol],
    profile: &ApplicationProfile,
    plan: impl Into<ReplicationPlan>,
    master_seed: u64,
) -> PairedAccumulator {
    let plan: ReplicationPlan = plan.into();
    let budget = plan.budget;
    let mut acc = PairedAccumulator {
        protocols: protocols.to_vec(),
        outcomes: vec![OutcomeAccumulator::new(); protocols.len()],
        deltas: vec![Welford::new(); protocols.len()],
    };
    if protocols.is_empty() {
        // Nothing to compare: an empty accumulator, like the unpaired
        // sweep path's empty task list.
        return acc;
    }
    let mut seeds = SeedStream::new(master_seed);
    let mut buffer = engine.trace_buffer(master_seed);
    // First-pass outcomes of an antithetic sample, reused across
    // replications (three protocols — no per-replication allocation).
    let mut first_pass: Vec<SimOutcome> = Vec::with_capacity(protocols.len());
    let mut done = 0usize;
    loop {
        let block = budget.next_block(done);
        if block == 0 {
            break;
        }
        for _ in 0..block {
            let seed = seeds.next().expect("seed streams are infinite");
            buffer.reset(seed);
            if plan.antithetic {
                first_pass.clear();
                for &protocol in protocols {
                    first_pass.push(engine.simulate_profile_replay(protocol, profile, &mut buffer));
                }
                buffer.reset_antithetic(seed);
                acc.push_sample(|i| {
                    let partner =
                        engine.simulate_profile_replay(protocols[i], profile, &mut buffer);
                    (first_pass[i], Some(partner))
                });
            } else {
                acc.push_sample(|i| {
                    (
                        engine.simulate_profile_replay(protocols[i], profile, &mut buffer),
                        None,
                    )
                });
            }
        }
        done += block;
        if acc.stopped(&budget) {
            break;
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_composite::params::ModelParams;
    use ft_platform::units::minutes;

    /// The scalar driver over one protocol on the point's own one-epoch
    /// profile.
    fn single(
        protocol: Protocol,
        params: &ModelParams,
        plan: impl Into<ReplicationPlan>,
        seed: u64,
    ) -> OutcomeAccumulator {
        let profile = ApplicationProfile::from_params(params);
        let engine = Engine::new(params);
        accumulate_paired_engine(&engine, &[protocol], &profile, plan, seed).outcomes[0]
    }

    #[test]
    fn replication_is_reproducible() {
        let params = ModelParams::paper_figure7(0.5, minutes(120.0)).unwrap();
        let fixed = ReplicationBudget::Fixed(50);
        let a = single(Protocol::PurePeriodicCkpt, &params, fixed, 7);
        let b = single(Protocol::PurePeriodicCkpt, &params, fixed, 7);
        assert_eq!(a, b);
        let c = single(Protocol::PurePeriodicCkpt, &params, fixed, 8);
        assert_ne!(a.waste.mean(), c.waste.mean());
    }

    #[test]
    fn statistics_are_sane() {
        let params = ModelParams::paper_figure7(0.8, minutes(90.0)).unwrap();
        let acc = single(Protocol::AbftPeriodicCkpt, &params, ReplicationBudget::Fixed(100), 1);
        let stats = SimStats::from_accumulator(Protocol::AbftPeriodicCkpt, &acc);
        assert_eq!(stats.replications, 100);
        assert!(stats.mean_waste > 0.0 && stats.mean_waste < 1.0);
        assert!(stats.std_waste >= 0.0);
        assert!(stats.ci95_waste < stats.mean_waste, "CI should be tight after 100 reps");
        assert!(stats.mean_final_time > params.epoch_duration);
        assert!(stats.mean_failures > 1.0);
    }

    #[test]
    fn more_replications_tighten_the_confidence_interval() {
        let params = ModelParams::paper_figure7(0.5, minutes(120.0)).unwrap();
        let small = single(Protocol::BiPeriodicCkpt, &params, ReplicationBudget::Fixed(20), 11);
        let large = single(Protocol::BiPeriodicCkpt, &params, ReplicationBudget::Fixed(400), 11);
        assert!(large.waste.ci95_half_width() < small.waste.ci95_half_width());
    }

    #[test]
    fn profile_accumulation_covers_multi_epoch_applications() {
        let params = ModelParams::paper_figure7(0.8, minutes(120.0)).unwrap();
        let engine = Engine::new(&params);
        let profile = ApplicationProfile::from_params_repeated(&params, 4);
        let run = || {
            accumulate_paired_engine(
                &engine,
                &[Protocol::AbftPeriodicCkpt],
                &profile,
                ReplicationBudget::Fixed(30),
                9,
            )
        };
        let acc = run();
        assert_eq!(acc.replications(), 30);
        assert!(acc.outcomes[0].waste.mean() > 0.0 && acc.outcomes[0].waste.mean() < 1.0);
        assert_eq!(acc, run());
    }

    #[test]
    fn adaptive_budget_stops_early_when_the_interval_is_tight() {
        let params = ModelParams::paper_figure7(0.5, minutes(120.0)).unwrap();
        let budget = ReplicationBudget::Adaptive {
            rel_precision: 0.05,
            min: 50,
            max: 2_000,
        };
        let acc = single(Protocol::AbftPeriodicCkpt, &params, budget, 3);
        let n = acc.count();
        assert!(n >= 50);
        assert!(n < 2_000, "a 5 % interval should need far fewer than 2000 reps, used {n}");
        assert!(acc.waste.ci95_half_width() <= 0.05 * acc.waste.mean());
    }

    #[test]
    fn adaptive_budget_respects_the_hard_cap() {
        let params = ModelParams::paper_figure7(0.5, minutes(120.0)).unwrap();
        // An impossible precision: the cap must stop the loop.
        let budget = ReplicationBudget::Adaptive {
            rel_precision: 1e-6,
            min: 10,
            max: 120,
        };
        let acc = single(Protocol::PurePeriodicCkpt, &params, budget, 1);
        assert_eq!(acc.count(), 120);
    }

    #[test]
    fn adaptive_prefix_is_the_fixed_prefix() {
        // The adaptive path consumes the same seed stream as the fixed path,
        // so its first `min` replications are exactly Fixed(min)'s.
        let params = ModelParams::paper_figure7(0.8, minutes(90.0)).unwrap();
        let fixed = single(
            Protocol::BiPeriodicCkpt,
            &params,
            ReplicationBudget::Fixed(40),
            17,
        );
        let adaptive = single(
            Protocol::BiPeriodicCkpt,
            &params,
            ReplicationBudget::Adaptive {
                rel_precision: 10.0, // absurdly lax: stops right after `min`
                min: 40,
                max: 500,
            },
            17,
        );
        assert_eq!(fixed, adaptive);
    }

    #[test]
    fn paired_accumulation_pairs_traces_and_tightens_deltas() {
        let params = ModelParams::paper_figure7(0.8, minutes(90.0)).unwrap();
        let profile = ApplicationProfile::from_params(&params);
        let protocols = [Protocol::PurePeriodicCkpt, Protocol::AbftPeriodicCkpt];
        let paired = accumulate_paired_engine(
            &Engine::new(&params),
            &protocols,
            &profile,
            ReplicationBudget::Fixed(120),
            21,
        );
        assert_eq!(paired.replications(), 120);
        assert_eq!(paired.baseline(), Some(Protocol::PurePeriodicCkpt));
        let delta = paired.delta(Protocol::AbftPeriodicCkpt).unwrap();
        assert_eq!(delta.count(), 120);
        // Composite beats pure at alpha 0.8 / 90 min: the paired delta mean
        // is clearly negative, consistent with the marginal means.
        let marginal =
            paired.outcomes[1].waste.mean() - paired.outcomes[0].waste.mean();
        assert!((delta.mean() - marginal).abs() < 1e-12);
        assert!(delta.mean() < 0.0);
        // Pairing on common traces must not widen the interval relative to
        // independent runs (it cancels the shared sampling noise).
        let independent_ci = (paired.outcomes[0].waste.ci95_half_width().powi(2)
            + paired.outcomes[1].waste.ci95_half_width().powi(2))
        .sqrt();
        assert!(
            delta.ci95_half_width() <= independent_ci,
            "paired {} vs independent {independent_ci}",
            delta.ci95_half_width()
        );
        // No baseline delta against itself.
        assert!(paired.delta(Protocol::PurePeriodicCkpt).is_none());
    }

    #[test]
    fn paired_marginals_match_single_protocol_runs_bit_for_bit() {
        // Every protocol replays the seed's recorded sequence, so a
        // protocol's marginal is what it accumulates when run alone — plain
        // and antithetic.
        let params = ModelParams::paper_figure7(0.5, minutes(120.0)).unwrap();
        let engine = Engine::new(&params);
        let profile = ApplicationProfile::from_params(&params);
        for antithetic in [false, true] {
            let plan = ReplicationPlan::new(ReplicationBudget::Fixed(30)).antithetic(antithetic);
            let paired = accumulate_paired_engine(&engine, &Protocol::all(), &profile, plan, 5);
            assert_eq!(paired.replications(), 30);
            for (i, &protocol) in Protocol::all().iter().enumerate() {
                let alone = single(protocol, &params, plan, 5);
                assert_eq!(paired.outcomes[i], alone, "{protocol:?} antithetic={antithetic}");
            }
            // Delta bookkeeping: one delta sample per (pair-)sample, mean
            // consistent with the marginal means.
            let d = paired.delta(Protocol::AbftPeriodicCkpt).unwrap();
            assert_eq!(d.count(), 30);
            let marginal = paired.outcomes[2].waste.mean() - paired.outcomes[0].waste.mean();
            assert!((d.mean() - marginal).abs() < 1e-12);
        }
    }

    #[test]
    fn paired_accumulation_of_no_protocols_is_an_empty_no_op() {
        let params = ModelParams::paper_figure7(0.5, minutes(120.0)).unwrap();
        let profile = ApplicationProfile::from_params(&params);
        let engine = Engine::new(&params);
        let paired =
            accumulate_paired_engine(&engine, &[], &profile, ReplicationBudget::Fixed(10), 1);
        assert_eq!(paired.replications(), 0);
        assert_eq!(paired.baseline(), None);
        assert!(paired.outcomes.is_empty());
    }

    #[test]
    fn adaptive_predicate_has_an_absolute_floor_for_near_zero_means() {
        // The degenerate case pinned: mean ≈ 0 with nonzero variance (a
        // failure-free or near-zero-waste corner, or a paired delta right at
        // a crossover).  The pure relative rule `hw ≤ rel × |mean|` can
        // never be satisfied there, so without the absolute floor the
        // budget silently burns replications up to `max`.
        let mut acc = Welford::new();
        for i in 0..1_000 {
            acc.push(if i % 2 == 0 { 2e-5 } else { -2e-5 });
        }
        assert!(acc.mean().abs() < 1e-9);
        let hw = acc.ci95_half_width();
        assert!(hw > 0.0 && hw < ReplicationBudget::ABS_PRECISION_FLOOR);
        let budget = ReplicationBudget::Adaptive {
            rel_precision: 0.02,
            min: 100,
            max: 1_000_000,
        };
        assert!(
            hw > 0.02 * acc.mean().abs(),
            "the relative rule alone would never stop this point"
        );
        assert!(
            budget.satisfied(&acc),
            "the absolute floor must stop the near-zero-mean point"
        );
        // Far from zero the floor is inert: the relative rule decides.
        let mut wide = Welford::new();
        for i in 0..200 {
            wide.push(0.5 + if i % 2 == 0 { 0.2 } else { -0.2 });
        }
        assert!(!budget.satisfied(&wide));
    }

    #[test]
    fn paired_delta_budget_stops_no_later_than_the_marginal_rule() {
        let params = ModelParams::paper_figure7(0.8, minutes(90.0)).unwrap();
        let engine = Engine::new(&params);
        let profile = ApplicationProfile::from_params(&params);
        let protocols = [Protocol::PurePeriodicCkpt, Protocol::AbftPeriodicCkpt];
        let (rel, min, max) = (0.02, 50, 5_000);
        let delta = accumulate_paired_engine(
            &engine,
            &protocols,
            &profile,
            ReplicationBudget::AdaptiveDelta { rel_precision: rel, min, max },
            21,
        );
        let marginal = accumulate_paired_engine(
            &engine,
            &protocols,
            &profile,
            ReplicationBudget::Adaptive { rel_precision: rel, min, max },
            21,
        );
        assert!(delta.replications() <= marginal.replications());
        // At α = 0.8 / µ = 90 min the composite clearly beats pure, so the
        // CRN delta's sign resolves immediately: the paired-delta rule stops
        // right after `min` while the marginal 2 % rule keeps replicating.
        assert_eq!(delta.replications(), min);
        assert!(marginal.replications() > min);
        let d = delta.delta(Protocol::AbftPeriodicCkpt).unwrap();
        assert!(
            d.ci95_half_width() < d.mean().abs(),
            "sign must be resolved at stop: hw {} vs |mean| {}",
            d.ci95_half_width(),
            d.mean().abs()
        );
        // Same traces, same prefix: the delta run's marginals are the
        // marginal run's first `min` replications, bit for bit.
        assert_eq!(delta.deltas[1].count(), min as u64);
    }

    #[test]
    fn paired_delta_budget_degrades_to_adaptive_outside_paired_mode() {
        // A single protocol has no delta to resolve: the marginal rule alone
        // decides, exactly as under `Adaptive`.
        let params = ModelParams::paper_figure7(0.5, minutes(120.0)).unwrap();
        let adaptive = single(
            Protocol::AbftPeriodicCkpt,
            &params,
            ReplicationBudget::Adaptive { rel_precision: 0.05, min: 50, max: 2_000 },
            3,
        );
        let delta = single(
            Protocol::AbftPeriodicCkpt,
            &params,
            ReplicationBudget::AdaptiveDelta { rel_precision: 0.05, min: 50, max: 2_000 },
            3,
        );
        assert_eq!(adaptive, delta);
    }

    #[test]
    fn antithetic_pairs_tighten_the_interval_at_equal_execution_count() {
        let params = ModelParams::paper_figure7(0.5, minutes(120.0)).unwrap();
        // n antithetic pairs = 2n executions; compare against 2n plain
        // samples so both sides simulate the same number of executions.
        let n = 150;
        let anti_plan = ReplicationPlan::new(ReplicationBudget::Fixed(n)).antithetic(true);
        let anti = single(Protocol::PurePeriodicCkpt, &params, anti_plan, 7);
        let plain = single(Protocol::PurePeriodicCkpt, &params, ReplicationBudget::Fixed(2 * n), 7);
        assert_eq!(anti.count(), n as u64);
        assert_eq!(plain.count(), 2 * n as u64);
        // Means agree (both unbiased estimators of the same waste)…
        assert!((anti.waste.mean() - plain.waste.mean()).abs() < 0.01);
        // …but the pair averaging cancels first-order sampling noise: the
        // antithetic interval is tighter on the same execution count.
        assert!(
            anti.waste.ci95_half_width() < plain.waste.ci95_half_width(),
            "antithetic {} vs plain {}",
            anti.waste.ci95_half_width(),
            plain.waste.ci95_half_width()
        );
        // And the whole accumulation is reproducible.
        assert_eq!(anti, single(Protocol::PurePeriodicCkpt, &params, anti_plan, 7));
    }

    #[test]
    fn replication_plan_conversions_and_display() {
        let plan: ReplicationPlan = ReplicationBudget::Fixed(10).into();
        assert!(!plan.antithetic);
        assert_eq!(plan.budget, ReplicationBudget::Fixed(10));
        assert_eq!(format!("{plan}"), "fixed(10)");
        let anti = plan.antithetic(true);
        assert_eq!(format!("{anti}"), "fixed(10) x antithetic pairs");
        // A non-antithetic plan is bit-compatible with the bare budget path.
        let params = ModelParams::paper_figure7(0.5, minutes(120.0)).unwrap();
        let via_budget = single(Protocol::BiPeriodicCkpt, &params, ReplicationBudget::Fixed(25), 9);
        let via_plan = single(
            Protocol::BiPeriodicCkpt,
            &params,
            ReplicationPlan::new(ReplicationBudget::Fixed(25)),
            9,
        );
        assert_eq!(via_budget, via_plan);
    }

    #[test]
    fn budget_bookkeeping_helpers() {
        assert!(!ReplicationBudget::Fixed(0).runs_simulation());
        assert!(ReplicationBudget::Fixed(3).runs_simulation());
        assert_eq!(ReplicationBudget::Fixed(7).max_replications(), 7);
        let adaptive = ReplicationBudget::adaptive(0.02);
        assert!(adaptive.runs_simulation());
        assert!(!adaptive.is_paired_delta());
        assert_eq!(adaptive.max_replications(), 10_000);
        assert_eq!(adaptive.next_block(0), 100);
        assert_eq!(adaptive.next_block(100), ReplicationBudget::BLOCK);
        assert_eq!(ReplicationBudget::Fixed(10).next_block(4), 6);
        assert_eq!(ReplicationBudget::Fixed(10).next_block(10), 0);
        let delta = ReplicationBudget::adaptive_delta(0.05);
        assert!(delta.runs_simulation());
        assert!(delta.is_paired_delta());
        assert_eq!(delta.max_replications(), 10_000);
        assert_eq!(delta.next_block(0), 100);
        assert_eq!(format!("{delta}"), "paired-delta(5.0% CI95, 100..10000 reps)");
    }
}
