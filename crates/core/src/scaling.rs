//! Weak-scaling scenarios (Section V-C, Figures 8–10).
//!
//! The paper's scalability study considers an application of 1000 epochs on a
//! growing machine, following Gustafson's law:
//!
//! * memory per node is fixed, so the total problem size grows linearly with
//!   the node count `x`; for an `O(n³)` kernel on an `O(n²) = O(x)` dataset
//!   the parallel time grows as `√x`;
//! * the platform MTBF shrinks as `1/x`;
//! * the checkpoint cost either grows linearly with the checkpointed volume
//!   (bandwidth-bound storage — Figures 8 and 9) or stays constant
//!   (buddy/NVRAM storage — Figure 10).
//!
//! [`WeakScalingScenario`] captures those rules; [`ScalingPoint`] is the
//! model's answer for one node count (the waste and the expected failure
//! count of each of the three protocols), i.e. one x-position of the figures.

use crate::error::{ensure_positive, Result};
use crate::model::analytic::{FirstOrderExponential, WasteModel};
use crate::model::composite;
use crate::model::phase::{checkpointed_phase_with, PhaseOutcome, PhaseParams};
use crate::model::waste::Waste;
use crate::params::ModelParams;
use ft_platform::units::{days, minutes};

/// How the checkpoint (and recovery) cost scales with the node count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointScaling {
    /// Cost proportional to the checkpointed volume — i.e. to the node count
    /// under weak scaling (shared bandwidth-bound storage).
    LinearInNodes,
    /// Cost independent of the node count (buddy / NVRAM storage).
    Constant,
}

/// How a phase's duration scales with the node count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseScaling {
    /// `O(n³)` kernel under weak scaling: duration grows as `√(x/x_ref)`.
    CubicKernel,
    /// `O(n²)` work under weak scaling: duration stays constant.
    QuadraticKernel,
}

impl PhaseScaling {
    fn factor(&self, nodes: f64, reference: f64) -> f64 {
        match self {
            PhaseScaling::CubicKernel => (nodes / reference).sqrt(),
            PhaseScaling::QuadraticKernel => 1.0,
        }
    }
}

/// A weak-scaling scenario: all reference values plus the scaling rules.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeakScalingScenario {
    /// Node count at which the reference values are given.
    pub reference_nodes: f64,
    /// Epoch duration at the reference scale (seconds).
    pub epoch_at_reference: f64,
    /// Fraction of the epoch spent in the LIBRARY phase at the reference
    /// scale.
    pub alpha_at_reference: f64,
    /// Number of epochs the application iterates over.
    pub epochs: usize,
    /// Full checkpoint cost at the reference scale (seconds); `R = C`.
    pub checkpoint_at_reference: f64,
    /// Platform MTBF at the reference scale (seconds).
    pub mtbf_at_reference: f64,
    /// Downtime (seconds), independent of scale.
    pub downtime: f64,
    /// LIBRARY-dataset memory fraction ρ.
    pub rho: f64,
    /// ABFT overhead factor φ.
    pub phi: f64,
    /// ABFT reconstruction time (seconds).
    pub abft_reconstruction: f64,
    /// Scaling law of the GENERAL phase.
    pub general_scaling: PhaseScaling,
    /// Scaling law of the LIBRARY phase.
    pub library_scaling: PhaseScaling,
    /// Scaling law of the checkpoint/recovery cost.
    pub checkpoint_scaling: CheckpointScaling,
}

impl WeakScalingScenario {
    /// The scenario of Figure 8: both phases `O(n³)`, fixed α = 0.8,
    /// bandwidth-bound checkpoints.
    ///
    /// **Calibration note.** The paper's text states a 1-minute epoch, a
    /// 1-minute checkpoint and a 1-day MTBF at the 10,000-node reference.
    /// Taken literally, those values make *every* rollback-based protocol
    /// infeasible at 10⁶ nodes (the checkpoint cost, scaled linearly, exceeds
    /// the platform MTBF), which contradicts the published curves; the
    /// figures were evidently produced with a milder calibration.  This
    /// constructor therefore keeps every *ratio and scaling law* of the paper
    /// (α = 0.8, ρ = 0.8, φ = 1.03, R = C, C ∝ nodes, µ ∝ 1/nodes, epoch ∝
    /// √nodes, 1000 epochs) but sets the reference epoch to 100 minutes and
    /// the reference MTBF to 60 days so that the checkpoint-only protocols
    /// remain evaluable across the whole 10³–10⁶ node range, reproducing the
    /// published *shape* (crossover near 10⁵ nodes, composite dominant at
    /// 10⁶).  See EXPERIMENTS.md for the paper-vs-measured discussion.
    pub fn figure8() -> Self {
        Self {
            reference_nodes: 10_000.0,
            epoch_at_reference: minutes(100.0),
            alpha_at_reference: 0.8,
            epochs: 1_000,
            checkpoint_at_reference: minutes(1.0),
            mtbf_at_reference: days(60.0),
            downtime: minutes(1.0),
            rho: 0.8,
            phi: 1.03,
            abft_reconstruction: 2.0,
            general_scaling: PhaseScaling::CubicKernel,
            library_scaling: PhaseScaling::CubicKernel,
            checkpoint_scaling: CheckpointScaling::LinearInNodes,
        }
    }

    /// The Figure-8 scenario with the *literal* reference values stated in
    /// the paper's text (1-minute epoch, 1-minute checkpoint, 1-day MTBF at
    /// 10,000 nodes).  At 10⁵–10⁶ nodes the checkpoint-only protocols
    /// saturate (waste 1): the checkpoint cost overtakes the MTBF.  This is
    /// the scenario `fig8 --literal` plots.
    pub fn figure8_literal() -> Self {
        Self {
            epoch_at_reference: minutes(1.0),
            mtbf_at_reference: days(1.0),
            ..Self::figure8()
        }
    }

    /// The scenario of Figure 9: LIBRARY `O(n³)`, GENERAL `O(n²)` (so α grows
    /// with the node count), bandwidth-bound checkpoints.
    pub fn figure9() -> Self {
        Self {
            general_scaling: PhaseScaling::QuadraticKernel,
            ..Self::figure8()
        }
    }

    /// The scenario of Figure 10: same as Figure 9 but with constant
    /// checkpoint/recovery cost (60 s at every scale).
    pub fn figure10() -> Self {
        Self {
            checkpoint_scaling: CheckpointScaling::Constant,
            ..Self::figure9()
        }
    }

    /// GENERAL-phase duration of one epoch at `nodes` nodes.
    pub fn general_duration(&self, nodes: f64) -> f64 {
        (1.0 - self.alpha_at_reference)
            * self.epoch_at_reference
            * self.general_scaling.factor(nodes, self.reference_nodes)
    }

    /// LIBRARY-phase duration of one epoch at `nodes` nodes.
    pub fn library_duration(&self, nodes: f64) -> f64 {
        self.alpha_at_reference
            * self.epoch_at_reference
            * self.library_scaling.factor(nodes, self.reference_nodes)
    }

    /// Fraction of time spent in the LIBRARY phase at `nodes` nodes.
    pub fn alpha(&self, nodes: f64) -> f64 {
        let l = self.library_duration(nodes);
        let g = self.general_duration(nodes);
        if l + g == 0.0 {
            0.0
        } else {
            l / (l + g)
        }
    }

    /// Checkpoint (and recovery) cost at `nodes` nodes.
    pub fn checkpoint_cost(&self, nodes: f64) -> f64 {
        match self.checkpoint_scaling {
            CheckpointScaling::LinearInNodes => {
                self.checkpoint_at_reference * nodes / self.reference_nodes
            }
            CheckpointScaling::Constant => self.checkpoint_at_reference,
        }
    }

    /// Platform MTBF at `nodes` nodes.
    pub fn mtbf(&self, nodes: f64) -> f64 {
        self.mtbf_at_reference * self.reference_nodes / nodes
    }

    /// Model parameters for a *single epoch* at `nodes` nodes.
    pub fn params_at(&self, nodes: f64) -> Result<ModelParams> {
        ensure_positive("nodes", nodes)?;
        ModelParams::builder()
            .epoch_duration(self.general_duration(nodes) + self.library_duration(nodes))
            .alpha(self.alpha(nodes))
            .checkpoint_cost(self.checkpoint_cost(nodes))
            .recovery_cost(self.checkpoint_cost(nodes))
            .downtime(self.downtime)
            .rho(self.rho)
            .phi(self.phi)
            .abft_reconstruction(self.abft_reconstruction)
            .platform_mtbf(self.mtbf(nodes))
            .build()
    }

    /// Evaluates the three protocols at `nodes` nodes over the whole
    /// `epochs`-epoch application.
    ///
    /// Periodic checkpointing is not constrained by epoch boundaries, so the
    /// checkpoint-only protocols are evaluated over the *aggregate* phase
    /// durations (1000 epochs of GENERAL time form one long checkpointed
    /// stream, likewise for the LIBRARY time under BiPeriodicCkpt), while the
    /// composite protocol pays its forced entry/exit checkpoints once per
    /// epoch.
    ///
    /// With bandwidth-bound checkpoint storage and the paper's stated
    /// reference values, checkpoint-only protocols become infeasible near
    /// 10⁶ nodes (the checkpoint cost exceeds the MTBF); such points are
    /// reported as *saturated* (waste 1, infinite expected execution) rather
    /// than as an error.
    pub fn point(&self, nodes: f64) -> Result<ScalingPoint> {
        self.point_with(&FirstOrderExponential, nodes)
    }

    /// [`WeakScalingScenario::point`] under an arbitrary
    /// [`WasteModel`] — the entry point of the model arm of a
    /// `--failure-model weibull` scenario sweep, where the analytic
    /// predictions carry the same shape-`k` correction as the simulation
    /// clock.
    pub fn point_with<M: WasteModel + ?Sized>(
        &self,
        model: &M,
        nodes: f64,
    ) -> Result<ScalingPoint> {
        ensure_positive("nodes", nodes)?;
        // Model parameters describing one epoch. When the MTBF falls below
        // D + R even ABFT-protected execution is hopeless; build the raw
        // parameter pieces by hand in that case so the checkpoint-only
        // protocols still report saturation instead of erroring.
        let mtbf = self.mtbf(nodes);
        let ckpt = self.checkpoint_cost(nodes);
        let general = self.general_duration(nodes);
        let library = self.library_duration(nodes);
        let epochs = self.epochs as f64;
        let total_work = epochs * (general + library);

        // A phase evaluation that saturates instead of failing.
        let saturating = |p: PhaseParams| -> f64 {
            match checkpointed_phase_with(model, &p) {
                Ok(PhaseOutcome { final_time, .. }) => final_time,
                Err(_) => f64::INFINITY,
            }
        };

        // PurePeriodicCkpt over the whole application.
        let pure_total = saturating(PhaseParams {
            work: total_work,
            periodic_checkpoint: ckpt,
            trailing_checkpoint: ckpt,
            recovery: ckpt,
            downtime: self.downtime,
            mtbf,
        });

        // BiPeriodicCkpt: aggregate GENERAL stream + aggregate LIBRARY stream.
        let bi_general = saturating(PhaseParams {
            work: epochs * general,
            periodic_checkpoint: ckpt,
            trailing_checkpoint: ckpt,
            recovery: ckpt,
            downtime: self.downtime,
            mtbf,
        });
        let bi_library = saturating(PhaseParams {
            work: epochs * library,
            periodic_checkpoint: self.rho * ckpt,
            trailing_checkpoint: self.rho * ckpt,
            recovery: ckpt,
            downtime: self.downtime,
            mtbf,
        });
        let bi_total = bi_general + bi_library;

        // Composite: per-epoch costs, multiplied by the number of epochs.
        let composite_total = match self.params_at(nodes) {
            Ok(params) => match composite::prediction_with(model, &params) {
                Ok(p) => epochs * p.final_time(),
                Err(_) => f64::INFINITY,
            },
            Err(_) => f64::INFINITY,
        };

        Ok(ScalingPoint {
            nodes,
            alpha: self.alpha(nodes),
            total_work,
            pure: ProtocolPoint::new(total_work, pure_total, mtbf),
            bi: ProtocolPoint::new(total_work, bi_total, mtbf),
            composite: ProtocolPoint::new(total_work, composite_total, mtbf),
        })
    }

    /// Evaluates a whole sweep of node counts.
    pub fn sweep(&self, nodes: &[f64]) -> Result<Vec<ScalingPoint>> {
        nodes.iter().map(|&x| self.point(x)).collect()
    }
}

/// Waste and expected failure count of one protocol at one scale.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProtocolPoint {
    /// Waste of the protocol.
    pub waste: Waste,
    /// Expected number of failures over the application run.
    pub expected_failures: f64,
}

impl ProtocolPoint {
    fn new(base: f64, final_time: f64, mtbf: f64) -> Self {
        Self {
            waste: Waste::from_times(base, final_time),
            expected_failures: final_time / mtbf,
        }
    }
}

/// One x-position of Figures 8–10: the three protocols evaluated at a given
/// node count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalingPoint {
    /// Node count.
    pub nodes: f64,
    /// LIBRARY-phase time fraction at this scale.
    pub alpha: f64,
    /// Total failure-free work of the application at this scale.
    pub total_work: f64,
    /// PurePeriodicCkpt result.
    pub pure: ProtocolPoint,
    /// BiPeriodicCkpt result.
    pub bi: ProtocolPoint,
    /// ABFT&PeriodicCkpt result.
    pub composite: ProtocolPoint,
}

/// The node counts used on the x-axis of Figures 8–10.
pub fn paper_node_counts() -> Vec<f64> {
    vec![1_000.0, 10_000.0, 100_000.0, 1_000_000.0]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure8_reference_point_parameters() {
        let s = WeakScalingScenario::figure8();
        let p = s.params_at(10_000.0).unwrap();
        assert!((p.epoch_duration - minutes(100.0)).abs() < 1e-9);
        assert!((p.alpha - 0.8).abs() < 1e-12);
        assert!((p.checkpoint_cost - 60.0).abs() < 1e-9);
        assert!((p.platform_mtbf - days(60.0)).abs() < 1e-6);
        // The literal variant keeps the paper's stated values.
        let lit = WeakScalingScenario::figure8_literal();
        assert!((lit.epoch_at_reference - 60.0).abs() < 1e-9);
        assert!((lit.mtbf_at_reference - days(1.0)).abs() < 1e-6);
    }

    #[test]
    fn figure9_alpha_matches_the_paper_annotations() {
        // The x-axis of Figure 9 is annotated α = 0.55, 0.8, 0.92, 0.975 at
        // 1k, 10k, 100k, 1M nodes.
        let s = WeakScalingScenario::figure9();
        let expected = [(1_000.0, 0.55), (10_000.0, 0.8), (100_000.0, 0.92), (1_000_000.0, 0.975)];
        for (nodes, alpha) in expected {
            assert!(
                (s.alpha(nodes) - alpha).abs() < 0.01,
                "alpha({nodes}) = {} expected ~{alpha}",
                s.alpha(nodes)
            );
        }
    }

    #[test]
    fn figure8_alpha_stays_fixed() {
        let s = WeakScalingScenario::figure8();
        for nodes in paper_node_counts() {
            assert!((s.alpha(nodes) - 0.8).abs() < 1e-12);
        }
    }

    #[test]
    fn mtbf_and_checkpoint_scale_as_specified() {
        let s = WeakScalingScenario::figure8();
        assert!((s.mtbf(1_000_000.0) - days(60.0) / 100.0).abs() < 1e-6);
        assert!((s.checkpoint_cost(1_000_000.0) - 6_000.0).abs() < 1e-6);
        let s10 = WeakScalingScenario::figure10();
        assert!((s10.checkpoint_cost(1_000_000.0) - 60.0).abs() < 1e-9);
    }

    #[test]
    fn literal_calibration_saturates_checkpoint_only_protocols_at_scale() {
        // With the paper's literal reference values the checkpoint cost
        // overtakes the MTBF at 10⁶ nodes: the checkpoint-only protocols
        // saturate while the point is still reported (no error).
        let s = WeakScalingScenario::figure8_literal();
        let p = s.point(1_000_000.0).unwrap();
        assert!(p.pure.waste.value() > 0.99);
        assert!(p.bi.waste.value() > 0.99);
    }

    #[test]
    fn figure8_composite_overtakes_checkpointing_at_scale() {
        // The headline qualitative result: with bandwidth-bound checkpoints
        // the composite protocol loses at small scale (ABFT overhead) but
        // wins at large scale.
        let s = WeakScalingScenario::figure8();
        let small = s.point(1_000.0).unwrap();
        assert!(small.composite.waste.value() >= small.bi.waste.value() - 1e-9);
        let large = s.point(1_000_000.0).unwrap();
        assert!(large.composite.waste.value() < large.pure.waste.value());
        assert!(large.composite.waste.value() < large.bi.waste.value());
        // And the gap at 1M nodes is substantial.
        assert!(large.pure.waste.value() - large.composite.waste.value() > 0.05);
    }

    #[test]
    fn figure8_waste_grows_with_scale_for_checkpoint_only() {
        let s = WeakScalingScenario::figure8();
        let points = s.sweep(&paper_node_counts()).unwrap();
        for w in points.windows(2) {
            assert!(w[1].pure.waste.value() > w[0].pure.waste.value());
            assert!(w[1].bi.waste.value() > w[0].bi.waste.value());
        }
    }

    #[test]
    fn figure10_keeps_checkpoint_waste_low_but_composite_still_wins_at_1m() {
        let s = WeakScalingScenario::figure10();
        let large = s.point(1_000_000.0).unwrap();
        // With constant (scalable) checkpointing the checkpoint-only waste
        // stays moderate…
        assert!(large.pure.waste.value() < 0.25, "pure = {}", large.pure.waste.value());
        // …but the composite protocol is still at least as good at 1M nodes
        // (Section V-C: "PurePeriodicCkpt and BiPeriodicCkpt are less
        // efficient than ABFT&PeriodicCkpt at 1 million nodes, despite the
        // perfectly scalable checkpointing hypothesis").
        assert!(large.composite.waste.value() < large.pure.waste.value());
        assert!(large.composite.waste.value() < large.bi.waste.value());
    }

    #[test]
    fn expected_failures_increase_with_scale() {
        let s = WeakScalingScenario::figure8();
        let points = s.sweep(&paper_node_counts()).unwrap();
        for w in points.windows(2) {
            assert!(w[1].composite.expected_failures > w[0].composite.expected_failures);
        }
        // Fewer failures for the faster protocol at scale.
        let last = points.last().unwrap();
        assert!(last.composite.expected_failures <= last.pure.expected_failures);
    }

    #[test]
    fn figure9_number_of_failures_smaller_than_figure8() {
        // Section V-C: because the GENERAL phase stops growing, the total
        // duration grows more slowly and fewer failures are observed than in
        // the Figure-8 scenario.
        let f8 = WeakScalingScenario::figure8().point(1_000_000.0).unwrap();
        let f9 = WeakScalingScenario::figure9().point(1_000_000.0).unwrap();
        assert!(f9.composite.expected_failures < f8.composite.expected_failures);
    }

    #[test]
    fn invalid_node_count_is_rejected() {
        assert!(WeakScalingScenario::figure8().point(0.0).is_err());
    }
}
