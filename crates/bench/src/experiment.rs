//! Declarative parameter sweeps — the unified experiment subsystem.
//!
//! The paper's evaluation is a large grid of `(protocol × α × ρ × µ × N)`
//! points, each averaged over many Monte-Carlo replications.  Instead of
//! hand-rolling nested loops in every figure binary, a [`SweepSpec`]
//! *declares* the experiment — a base parameter point (or a weak-scaling
//! scenario), a list of [`Axis`] values to sweep, the protocols, the
//! replication budget — and [`SweepSpec::run`] executes the **whole expanded
//! grid in parallel** (every task is independent), not just the replications
//! inside one point:
//!
//! * expansion is a cartesian product of the axes, resolved to validated
//!   [`ModelParams`] per point (or to a scenario evaluation when a
//!   [`Parameter::Nodes`] axis is present);
//! * each task derives its seed deterministically from the master seed and
//!   the task identity, so results are independent of execution order and
//!   thread count;
//! * the simulation arm runs under a [`ReplicationBudget`]: a fixed count
//!   (the historical behaviour) or **adaptive sequential stopping** that
//!   ends a point's replications as soon as the waste CI95 meets the
//!   requested relative precision — most points need a fraction of the
//!   fixed budget;
//! * with [`SweepSpec::paired`], all protocols of a point replay the
//!   **same** recorded failure traces (common random numbers) and the
//!   output gains per-trace waste-difference columns whose confidence
//!   intervals are far tighter than unpaired comparisons;
//! * outcomes stream through the single Welford implementation
//!   (`ft_sim::stats`) and render through the shared writer in
//!   [`crate::output`] as an aligned table, CSV or JSON.
//!
//! The figure binaries (`fig7`–`fig10`, `sweep`) are thin `SweepSpec`
//! definitions over this module.

use std::time::Instant;

use ft_composite::model::analytic::{AnyWasteModel, WasteModel};
use ft_composite::params::ModelParams;
use ft_composite::scaling::{paper_node_counts, WeakScalingScenario};
use ft_composite::scenario::ApplicationProfile;
use ft_platform::failure::FailureSpec;
use ft_platform::rng::{SeedStream, SplitMix64};
use ft_platform::scenario::ScenarioSpec;
use ft_platform::special::normal_cdf;
use ft_sim::batch::{
    accumulate_paired_programs_batch, accumulate_profile_program_batch, BatchProgram,
    BatchProgramCache, DEFAULT_BATCH_LANES,
};
use ft_sim::replicate::{PairedAccumulator, ReplicationBudget, ReplicationPlan, SimStats};
use ft_sim::validate::model_waste_with;
use ft_sim::{Engine, Protocol};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use crate::output::{OutputFormat, Table};
use crate::Args;

/// A sweepable quantity: one dimension of the experiment grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Parameter {
    /// LIBRARY-phase fraction `α`.
    Alpha,
    /// Platform MTBF `µ` (seconds).
    Mtbf,
    /// LIBRARY-dataset memory fraction `ρ`.
    Rho,
    /// ABFT slowdown factor `φ`.
    Phi,
    /// Checkpoint *and* recovery cost `C = R` (seconds).
    Checkpoint,
    /// Downtime `D` (seconds).
    Downtime,
    /// ABFT reconstruction time (seconds).
    Reconstruction,
    /// Node count `N` of a weak-scaling scenario (requires
    /// [`SweepSpec::scaling`]).
    Nodes,
    /// Weibull shape `k` of the failure clock (`k = 1` is exponential): the
    /// robustness-study axis.  Both arms react: the simulation clock draws
    /// shape-`k` inter-arrivals and the model arm switches to the
    /// Weibull-corrected closed form
    /// ([`ft_composite::model::analytic::WeibullCorrected`]), so the output
    /// reports a genuine model−simulation gap per shape.
    WeibullShape,
}

impl Parameter {
    /// Column header / CLI spelling of the parameter.
    pub fn label(&self) -> &'static str {
        match self {
            Parameter::Alpha => "alpha",
            Parameter::Mtbf => "mtbf",
            Parameter::Rho => "rho",
            Parameter::Phi => "phi",
            Parameter::Checkpoint => "checkpoint",
            Parameter::Downtime => "downtime",
            Parameter::Reconstruction => "recons",
            Parameter::Nodes => "nodes",
            Parameter::WeibullShape => "weibull_shape",
        }
    }

    /// Parses the CLI spelling used by the `sweep` binary.
    pub fn parse(name: &str) -> Option<Parameter> {
        match name {
            "alpha" => Some(Parameter::Alpha),
            "mtbf" => Some(Parameter::Mtbf),
            "rho" => Some(Parameter::Rho),
            "phi" => Some(Parameter::Phi),
            "checkpoint" => Some(Parameter::Checkpoint),
            "downtime" => Some(Parameter::Downtime),
            "recons" => Some(Parameter::Reconstruction),
            "nodes" => Some(Parameter::Nodes),
            "weibull_shape" | "weibull-shape" | "shape" => Some(Parameter::WeibullShape),
            _ => None,
        }
    }

    /// A sensible sweep range around the paper's headline scenario.
    pub fn default_range(&self) -> (f64, f64) {
        use ft_platform::units::minutes;
        match self {
            Parameter::Rho => (0.1, 1.0),
            Parameter::Phi => (1.0, 1.3),
            Parameter::Checkpoint => (minutes(1.0), minutes(30.0)),
            Parameter::Downtime => (0.0, minutes(10.0)),
            Parameter::Reconstruction => (0.0, 60.0),
            Parameter::Alpha => (0.0, 1.0),
            Parameter::Mtbf => (minutes(60.0), minutes(240.0)),
            Parameter::Nodes => (1e3, 1e6),
            // Infant mortality (0.5) through exponential (1.0) to wear-out.
            Parameter::WeibullShape => (0.5, 1.5),
        }
    }
}

/// One dimension of the sweep grid: a parameter and its values.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Axis {
    /// The swept parameter.
    pub parameter: Parameter,
    /// The values it takes, in grid order.
    pub values: Vec<f64>,
}

impl Axis {
    /// An axis over explicit values.
    pub fn values(parameter: Parameter, values: Vec<f64>) -> Self {
        Self { parameter, values }
    }

    /// A linearly spaced axis with `steps ≥ 2` points from `from` to `to`
    /// inclusive.
    pub fn linspace(parameter: Parameter, from: f64, to: f64, steps: usize) -> Self {
        let steps = steps.max(2);
        let values = (0..steps)
            .map(|i| from + (to - from) * i as f64 / (steps - 1) as f64)
            .collect();
        Self { parameter, values }
    }

    /// A logarithmic node axis over `10^lo .. 10^hi`; with one point per
    /// decade this is exactly the paper's `10³, 10⁴, 10⁵, 10⁶` x-axis.
    pub fn decades(parameter: Parameter, lo: u32, hi: u32, per_decade: usize) -> Self {
        if per_decade <= 1 && (lo, hi) == (3, 6) {
            return Self::values(parameter, paper_node_counts());
        }
        let per_decade = per_decade.max(1);
        let steps = (hi.saturating_sub(lo)) as usize * per_decade;
        let values = (0..=steps)
            .map(|i| 10f64.powf(lo as f64 + i as f64 / per_decade as f64))
            .collect();
        Self { parameter, values }
    }
}

/// An error raised while expanding a sweep grid (invalid parameter value,
/// missing scaling scenario for a `Nodes` axis, ...).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepError(String);

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sweep expansion failed: {}", self.0)
    }
}

impl std::error::Error for SweepError {}

/// A declarative sweep: everything needed to expand and execute one
/// experiment grid.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepSpec {
    /// Human-readable experiment title (printed as the output header).
    pub name: String,
    /// Base parameter point the axes perturb.
    pub base: ModelParams,
    /// Weak-scaling rules, required by a [`Parameter::Nodes`] axis; other
    /// axes then perturb the scenario's reference values instead of `base`.
    pub scaling: Option<WeakScalingScenario>,
    /// The grid dimensions (empty = evaluate `base` alone).
    pub axes: Vec<Axis>,
    /// Protocols to evaluate at every point.  In paired mode the first
    /// protocol is the baseline of every waste difference.
    pub protocols: Vec<Protocol>,
    /// Monte-Carlo replication budget per task (`Fixed(0)` = model
    /// predictions only).
    pub budget: ReplicationBudget,
    /// When `true`, all protocols of a point replay the same recorded
    /// failure traces (common random numbers) and per-trace waste
    /// differences against the first protocol are reported.
    pub paired: bool,
    /// Failure clock of the experiment (exponential by default; Weibull for
    /// the robustness studies).  A [`Parameter::WeibullShape`] axis
    /// overrides this per point.  **Both arms** follow the spec: the
    /// simulation clock draws from it and the model arm uses the matching
    /// analytic waste model ([`AnyWasteModel::from_spec`]), so model and
    /// simulation always share one failure description.
    pub failure: FailureSpec,
    /// Failure *scenario* of the simulation arm (CLI: `--scenario
    /// trace[:<path>]|cascade|diurnal|wearout`; [`ScenarioSpec::Iid`] by
    /// default).  A non-i.i.d. scenario replaces the simulation clock with a
    /// trace playback or a synthesized non-stationary source calibrated to
    /// each point's platform MTBF, while the **model arm keeps the
    /// matched-MTBF i.i.d. prediction** — the `diff`/gap columns then
    /// measure exactly what breaking the i.i.d. assumption does.  Requires
    /// the default exponential `failure` spec (the scenario owns the clock).
    pub failure_scenario: ScenarioSpec,
    /// Run every replication seed together with its antithetic partner
    /// (`1 − u` uniforms) and accumulate pair means — variance reduction on
    /// smooth waste responses (CLI: `--antithetic`).  A budget of `n` then
    /// spends `2n` simulated executions per task.
    pub antithetic: bool,
    /// Emphasise model-versus-simulation gap reporting: the output gains the
    /// per-point model label, relative gap and gap-significance columns, and
    /// [`SweepResults`] carries the grid-level gap summary (CLI:
    /// `--model-gap`).
    pub model_gap: bool,
    /// Number of epochs of the simulated application profile.  Ignored in
    /// scenario mode, where the simulation arm unfolds the scenario's own
    /// epoch count to stay commensurable with the model arm.
    pub epochs: usize,
    /// Master seed; per-task seeds are derived deterministically from it.
    pub seed: u64,
    /// Lane width of the batched SoA simulation engine every simulation
    /// runs on (`0` and `1` both mean one lane per batch).  Purely a
    /// throughput knob: every width is bit-exact with the scalar executors
    /// (proven by the differential oracle harness), so every reported
    /// figure is identical at any width (CLI: `--batch-lanes`).
    pub batch_lanes: usize,
    /// Intra-point thread count of the batch replication drivers: each
    /// point's replication blocks are split across this many OS threads with
    /// deterministic seed offsets and an order-preserving merge, so results
    /// are bit-identical at every value (CLI: `--point-threads`; `0` = the
    /// host's available parallelism, `1` = the serial drivers).  Composes
    /// with the whole-grid rayon parallelism of [`SweepSpec::run`].
    pub point_threads: usize,
}

impl SweepSpec {
    /// Starts a sweep around a base parameter point.
    pub fn new(name: impl Into<String>, base: ModelParams) -> Self {
        Self {
            name: name.into(),
            base,
            scaling: None,
            axes: Vec::new(),
            protocols: Protocol::all().to_vec(),
            budget: ReplicationBudget::Fixed(0),
            paired: false,
            failure: FailureSpec::Exponential,
            failure_scenario: ScenarioSpec::Iid,
            antithetic: false,
            model_gap: false,
            epochs: 1,
            seed: 42,
            batch_lanes: DEFAULT_BATCH_LANES,
            point_threads: 1,
        }
    }

    /// Starts a sweep over a weak-scaling scenario (Figures 8–10); the base
    /// point is the scenario evaluated at its reference node count.
    pub fn scaling(name: impl Into<String>, scenario: WeakScalingScenario) -> Self {
        let base = scenario
            .params_at(scenario.reference_nodes)
            .expect("scenario reference point must be valid");
        Self {
            scaling: Some(scenario),
            ..Self::new(name, base)
        }
    }

    /// Appends a grid axis (the last axis varies fastest).
    pub fn axis(mut self, axis: Axis) -> Self {
        self.axes.push(axis);
        self
    }

    /// Restricts the evaluated protocols.
    pub fn protocols(mut self, protocols: Vec<Protocol>) -> Self {
        self.protocols = protocols;
        self
    }

    /// Sets a fixed Monte-Carlo replication count (0 = model only).
    pub fn replications(mut self, replications: usize) -> Self {
        self.budget = ReplicationBudget::Fixed(replications);
        self
    }

    /// Sets an arbitrary replication budget (fixed or adaptive).
    pub fn budget(mut self, budget: ReplicationBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Enables (or disables) common-random-numbers pairing of the
    /// protocols at every point.
    pub fn paired(mut self, paired: bool) -> Self {
        self.paired = paired;
        self
    }

    /// Sets the failure clock of both arms (simulation distribution and
    /// matching analytic model).
    pub fn failure_model(mut self, failure: FailureSpec) -> Self {
        self.failure = failure;
        self
    }

    /// Sets the failure scenario of the simulation arm (see
    /// [`SweepSpec::failure_scenario`]).
    pub fn scenario(mut self, scenario: ScenarioSpec) -> Self {
        self.failure_scenario = scenario;
        self
    }

    /// Enables (or disables) antithetic-variate pairing of the replication
    /// seeds.
    pub fn antithetic(mut self, antithetic: bool) -> Self {
        self.antithetic = antithetic;
        self
    }

    /// Enables (or disables) the model−simulation gap columns and summary.
    pub fn model_gap(mut self, model_gap: bool) -> Self {
        self.model_gap = model_gap;
        self
    }

    /// Default simulation budget of gap reporting: a gap needs both arms,
    /// so model-only specs asked for `--model-gap` fall back to this.
    pub const DEFAULT_GAP_REPLICATIONS: usize = 100;

    /// Ensures the spec runs a simulation arm, falling back to
    /// [`SweepSpec::DEFAULT_GAP_REPLICATIONS`] fixed replications — the
    /// shared `--model-gap` budget rule of `run_cli` and the `crossover`
    /// binary.
    pub fn with_simulation_arm(mut self) -> Self {
        if !self.budget.runs_simulation() {
            self.budget = ReplicationBudget::Fixed(Self::DEFAULT_GAP_REPLICATIONS);
        }
        self
    }

    /// The replication plan of one task: the budget plus the
    /// variance-reduction knobs.
    pub fn plan(&self) -> ReplicationPlan {
        ReplicationPlan::new(self.budget).antithetic(self.antithetic)
    }

    /// Sets the number of epochs of the simulated profile.
    pub fn epochs(mut self, epochs: usize) -> Self {
        self.epochs = epochs.max(1);
        self
    }

    /// Sets the master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the lane width of the batched simulation engine (`0` and `1`
    /// both mean one lane per batch).  Results are bit-identical at any
    /// width.
    pub fn batch_lanes(mut self, lanes: usize) -> Self {
        self.batch_lanes = lanes;
        self
    }

    /// Sets the intra-point thread count of the batch replication drivers
    /// (`0` = host parallelism, `1` = serial).  Results are bit-identical at
    /// any value.
    pub fn point_threads(mut self, threads: usize) -> Self {
        self.point_threads = threads;
        self
    }

    /// Expands the axes into the full point grid (cartesian product, last
    /// axis fastest).  The expansion is index arithmetic over the axis
    /// lengths — no intermediate combination vectors are cloned.
    pub fn expand(&self) -> Result<Vec<GridPoint>, SweepError> {
        self.failure
            .validate()
            .map_err(|e| SweepError(format!("invalid failure model: {e}")))?;
        if !self.failure_scenario.is_iid() {
            // The scenario *is* the simulation clock: combining it with a
            // non-exponential i.i.d. spec (or a shape axis) would silently
            // drop one of the two clocks, so that is rejected outright.
            if self.failure != FailureSpec::Exponential {
                return Err(SweepError(format!(
                    "--scenario {} replaces the failure clock and cannot be \
                     combined with a non-exponential --failure-model",
                    self.failure_scenario
                )));
            }
            if self.axes.iter().any(|a| a.parameter == Parameter::WeibullShape) {
                return Err(SweepError(format!(
                    "--scenario {} replaces the failure clock and cannot be \
                     combined with a Weibull-shape axis",
                    self.failure_scenario
                )));
            }
            // Resolve once at the base point so the execution path can rely
            // on scenario resolution (trace files load and parse, synthesized
            // parameters are valid).  Per-point MTBF/horizon variations only
            // rescale positive quantities and cannot introduce new failures.
            self.failure_scenario
                .resolve(
                    self.base.platform_mtbf,
                    self.scenario_horizon(&self.base),
                )
                .map_err(|e| SweepError(format!("invalid scenario: {e}")))?;
        }
        for axis in &self.axes {
            if axis.values.is_empty() {
                return Err(SweepError(format!(
                    "axis `{}` has no values",
                    axis.parameter.label()
                )));
            }
            if axis.parameter == Parameter::WeibullShape
                && !axis.values.iter().all(|&v| v.is_finite() && v > 0.0)
            {
                return Err(SweepError("Weibull shapes must be positive and finite".into()));
            }
        }
        let total: usize = self.axes.iter().map(|a| a.values.len()).product();
        (0..total)
            .map(|index| {
                // Decompose the grid index with the last axis fastest.
                let mut coordinates = Vec::with_capacity(self.axes.len() + 1);
                let mut stride = total;
                let mut rem = index;
                for axis in &self.axes {
                    stride /= axis.values.len();
                    let i = rem / stride;
                    rem %= stride;
                    coordinates.push((axis.parameter, axis.values[i]));
                }
                self.resolve(index, coordinates)
            })
            .collect()
    }

    /// Resolves one coordinate combination into a concrete grid point.
    fn resolve(
        &self,
        index: usize,
        mut coordinates: Vec<(Parameter, f64)>,
    ) -> Result<GridPoint, SweepError> {
        let nodes = coordinates
            .iter()
            .find(|(p, _)| *p == Parameter::Nodes)
            .map(|&(_, v)| v);
        if let Some(nodes) = nodes {
            // Scenario mode: non-Nodes coordinates perturb the scenario's
            // reference values, then the scenario is evaluated at `nodes`.
            let mut scenario = self.scaling.ok_or_else(|| {
                SweepError("a `nodes` axis requires a weak-scaling scenario".into())
            })?;
            for &(parameter, value) in &coordinates {
                match parameter {
                    // Nodes is the evaluation coordinate; the Weibull shape
                    // only retargets the simulation clock, never the
                    // scenario's parameter rules.
                    Parameter::Nodes | Parameter::WeibullShape => {}
                    Parameter::Alpha => scenario.alpha_at_reference = value,
                    Parameter::Mtbf => scenario.mtbf_at_reference = value,
                    Parameter::Rho => scenario.rho = value,
                    Parameter::Phi => scenario.phi = value,
                    Parameter::Checkpoint => scenario.checkpoint_at_reference = value,
                    Parameter::Downtime => scenario.downtime = value,
                    Parameter::Reconstruction => scenario.abft_reconstruction = value,
                }
            }
            // At extreme scales the raw parameters can leave the model's
            // validity domain (MTBF below D + R); the scenario evaluation
            // then reports saturation and the simulation arm is skipped.
            let params = scenario.params_at(nodes).ok();
            // The α realised at this scale is a derived coordinate worth
            // reporting (Figures 9 and 10 annotate it on the x-axis).
            if !coordinates.iter().any(|(p, _)| *p == Parameter::Alpha) {
                coordinates.push((Parameter::Alpha, scenario.alpha(nodes)));
            }
            Ok(GridPoint {
                index,
                coordinates,
                params,
                scenario: Some((scenario, nodes)),
            })
        } else {
            let mut params = self.base;
            for &(parameter, value) in &coordinates {
                params = apply(params, parameter, value).map_err(|e| {
                    SweepError(format!(
                        "invalid value {value} for `{}`: {e}",
                        parameter.label()
                    ))
                })?;
            }
            Ok(GridPoint {
                index,
                coordinates,
                params: Some(params),
                scenario: None,
            })
        }
    }

    /// Executes the whole grid in parallel: one task per
    /// `(point, protocol)` — or per point in paired mode — spread over the
    /// available cores.
    pub fn run(&self) -> Result<SweepResults, SweepError> {
        self.execute(true)
    }

    /// Executes the grid sequentially (the baseline the `full_grid_sweep`
    /// bench compares parallel execution against).
    pub fn run_serial(&self) -> Result<SweepResults, SweepError> {
        self.execute(false)
    }

    fn execute(&self, parallel: bool) -> Result<SweepResults, SweepError> {
        let grid = self.expand()?;
        let started = Instant::now();
        // Grid points sharing a (protocol, profile, plan) triple — repeated
        // budgets, shape-only axes — compile their step program once.
        let cache = BatchProgramCache::new();
        let tasks_len = if self.paired {
            grid.len()
        } else {
            grid.len() * self.protocols.len()
        };
        let threads = if parallel {
            rayon::current_num_threads().min(tasks_len).max(1)
        } else {
            1
        };
        let results: Vec<PointResult> = if self.paired {
            // Paired mode: protocols share failure traces, so the task
            // granularity is one whole point.
            let evals: Vec<Vec<PointResult>> = if parallel {
                grid.par_iter()
                    .map(|gp| self.evaluate_paired(gp, &cache))
                    .collect()
            } else {
                grid.iter().map(|gp| self.evaluate_paired(gp, &cache)).collect()
            };
            evals.into_iter().flatten().collect()
        } else {
            let tasks: Vec<(usize, Protocol)> = grid
                .iter()
                .flat_map(|gp| self.protocols.iter().map(move |&p| (gp.index, p)))
                .collect();
            if parallel {
                tasks
                    .par_iter()
                    .map(|&(i, protocol)| self.evaluate(&grid[i], protocol, &cache))
                    .collect()
            } else {
                tasks
                    .iter()
                    .map(|&(i, protocol)| self.evaluate(&grid[i], protocol, &cache))
                    .collect()
            }
        };
        let elapsed_seconds = started.elapsed().as_secs_f64();
        // The coordinate vectors move out of the grid once, instead of being
        // cloned into every (point, protocol) task result.
        let points = grid.into_iter().map(|gp| gp.coordinates).collect();
        Ok(SweepResults {
            name: self.name.clone(),
            budget: self.budget,
            paired: self.paired,
            failure: self.failure,
            failure_scenario: self.failure_scenario.clone(),
            antithetic: self.antithetic,
            model_gap: self.model_gap,
            axes: self.axes.iter().map(|a| a.parameter).collect(),
            points,
            elapsed_seconds,
            threads,
            results,
        })
    }

    /// The model arm of one `(point, protocol)` task: predicted waste and
    /// expected failure count, under the analytic waste model matching the
    /// point's failure clock (exponential first-order, or Weibull-corrected
    /// when the spec — or a [`Parameter::WeibullShape`] coordinate — selects
    /// a Weibull clock).
    ///
    /// The expected failure count is model-independent: a renewal failure
    /// process of mean `µ` fires at long-run rate `1/µ` regardless of its
    /// shape, so only the (model-predicted) execution time matters.
    fn model_arm(&self, point: &GridPoint, protocol: Protocol) -> (f64, f64) {
        let model = point.waste_model(self.failure);
        match point.scenario {
            Some((scenario, nodes)) => match scenario.point_with(&model, nodes) {
                Ok(sp) => {
                    let pp = match protocol {
                        Protocol::PurePeriodicCkpt => sp.pure,
                        Protocol::BiPeriodicCkpt => sp.bi,
                        Protocol::AbftPeriodicCkpt => sp.composite,
                    };
                    (pp.waste.value(), pp.expected_failures)
                }
                Err(_) => (1.0, f64::INFINITY),
            },
            None => {
                let params = point.params.expect("non-scenario points always resolve");
                let waste = model_waste_with(&model, protocol, &params);
                let expected = if waste < 1.0 {
                    let total_work = params.epoch_duration * self.epochs as f64;
                    total_work / (1.0 - waste) / params.platform_mtbf
                } else {
                    f64::INFINITY
                };
                (waste, expected)
            }
        }
    }

    /// The application profile the simulation arm unfolds at one point: in
    /// scenario mode the scenario's own epoch count (Figures 8-10 amortize
    /// checkpoints over 1000 epochs), otherwise the spec's `epochs` knob.
    fn sim_profile(&self, point: &GridPoint, params: &ModelParams) -> ApplicationProfile {
        match point.scenario {
            Some((scenario, nodes)) => ApplicationProfile::uniform(
                scenario.epochs,
                scenario.general_duration(nodes),
                scenario.library_duration(nodes),
            )
            .expect("scenario durations are non-negative"),
            None => ApplicationProfile::from_params_repeated(params, self.epochs),
        }
    }

    /// The nominal simulated duration at one parameter point — the wear-out
    /// scenario's hazard-calibration window (the average failure rate over
    /// this horizon equals the point's `1/µ`).
    fn scenario_horizon(&self, params: &ModelParams) -> f64 {
        params.epoch_duration * self.epochs.max(1) as f64
    }

    /// The simulation engine of one grid point: the point's parameters under
    /// the spec's failure clock (or the clock a
    /// [`Parameter::WeibullShape`] coordinate selects), unless a non-i.i.d.
    /// [`SweepSpec::failure_scenario`] replaces the clock with a trace
    /// playback or synthesized non-stationary source at the point's MTBF.
    fn engine(&self, point: &GridPoint, params: &ModelParams) -> Engine {
        if self.failure_scenario.is_iid() {
            Engine::with_failure_spec(params, point.failure_spec(self.failure))
                .expect("failure specs are validated at expansion")
        } else {
            let model = self
                .failure_scenario
                .resolve(params.platform_mtbf, self.scenario_horizon(params))
                .expect("scenarios are validated at expansion");
            Engine::with_failure_model(params, model)
        }
    }

    /// Evaluates one `(point, protocol)` task: the model prediction plus
    /// (when the budget runs replications) a Monte-Carlo simulation arm.
    fn evaluate(
        &self,
        point: &GridPoint,
        protocol: Protocol,
        cache: &BatchProgramCache,
    ) -> PointResult {
        let (model, expected_failures) = self.model_arm(point, protocol);
        let sim = match point.params {
            Some(params) if self.budget.runs_simulation() => {
                let profile = self.sim_profile(point, &params);
                let engine = self.engine(point, &params);
                let seed = task_seed(self.seed, point.index as u64, Some(protocol));
                let program = cache.get(protocol, &profile, engine.plan());
                let acc = accumulate_profile_program_batch(
                    &engine,
                    &program,
                    self.plan(),
                    seed,
                    self.batch_lanes,
                    self.point_threads,
                );
                Some(SimStats::from_accumulator(protocol, &acc))
            }
            _ => None,
        };
        PointResult {
            index: point.index,
            protocol,
            model_waste: model,
            expected_failures,
            sim,
            paired: None,
        }
    }

    /// The paired simulation of one point: every protocol replays the
    /// failure traces drawn from `seed` on the batch engine (programs from
    /// `cache`).  The one paired simulation site, shared by grid points and
    /// crossover probes.
    fn simulate_paired(
        &self,
        point: &GridPoint,
        params: &ModelParams,
        seed: u64,
        cache: &BatchProgramCache,
    ) -> PairedAccumulator {
        let profile = self.sim_profile(point, params);
        let engine = self.engine(point, params);
        let programs: Vec<std::sync::Arc<BatchProgram>> = self
            .protocols
            .iter()
            .map(|&p| cache.get(p, &profile, engine.plan()))
            .collect();
        let refs: Vec<&BatchProgram> = programs.iter().map(|p| p.as_ref()).collect();
        accumulate_paired_programs_batch(
            &engine,
            &self.protocols,
            &refs,
            self.plan(),
            seed,
            self.batch_lanes,
            self.point_threads,
        )
    }

    /// Evaluates one whole point in paired mode: every protocol replays the
    /// same failure traces, and waste differences against the first protocol
    /// ride along with each non-baseline row.
    fn evaluate_paired(&self, point: &GridPoint, cache: &BatchProgramCache) -> Vec<PointResult> {
        let sim = match point.params {
            Some(params) if self.budget.runs_simulation() => {
                let seed = task_seed(self.seed, point.index as u64, None);
                Some(self.simulate_paired(point, &params, seed, cache))
            }
            _ => None,
        };
        self.protocols
            .iter()
            .enumerate()
            .map(|(i, &protocol)| {
                let (model, expected_failures) = self.model_arm(point, protocol);
                let (stats, paired) = match &sim {
                    Some(acc) => (
                        Some(SimStats::from_accumulator(protocol, &acc.outcomes[i])),
                        acc.delta(protocol).map(|d| PairedDelta {
                            baseline: self.protocols[0],
                            mean: d.mean(),
                            ci95: d.ci95_half_width(),
                        }),
                    ),
                    None => (None, None),
                };
                PointResult {
                    index: point.index,
                    protocol,
                    model_waste: model,
                    expected_failures,
                    sim: stats,
                    paired,
                }
            })
            .collect()
    }
}

/// Applies one coordinate to a parameter point through the validated
/// `with_*` helpers.
fn apply(
    params: ModelParams,
    parameter: Parameter,
    value: f64,
) -> ft_composite::error::Result<ModelParams> {
    match parameter {
        Parameter::Alpha => params.with_alpha(value),
        Parameter::Mtbf => params.with_mtbf(value),
        Parameter::Rho => params.with_rho(value),
        Parameter::Phi => params.with_phi(value),
        Parameter::Checkpoint => params.with_checkpoint_cost(value),
        Parameter::Downtime => params.with_downtime(value),
        Parameter::Reconstruction => params.with_abft_reconstruction(value),
        // Not parameter-point coordinates: resolved at the engine level
        // (node count) or at clock construction (Weibull shape).
        Parameter::Nodes | Parameter::WeibullShape => Ok(params),
    }
}

/// Derives the seed of one task from the master seed: per
/// `(point, protocol)` for independent tasks, per point (protocol `None`)
/// for paired tasks.  Independent of execution order and thread count.
fn task_seed(master: u64, point_index: u64, protocol: Option<Protocol>) -> u64 {
    let tag = match protocol {
        None => 0u64,
        Some(Protocol::PurePeriodicCkpt) => 1,
        Some(Protocol::BiPeriodicCkpt) => 2,
        Some(Protocol::AbftPeriodicCkpt) => 3,
    };
    SplitMix64::new(
        master
            .wrapping_add(point_index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(tag.wrapping_mul(0xD1B5_4A32_D192_ED03)),
    )
    .derive_seed()
}

/// One resolved point of the expanded grid.
#[derive(Debug, Clone, PartialEq)]
pub struct GridPoint {
    /// Position in grid order.
    pub index: usize,
    /// The coordinate values (axis coordinates plus derived ones).
    pub coordinates: Vec<(Parameter, f64)>,
    /// The resolved parameter point (`None` when the scenario's raw values
    /// leave the model's validity domain at this scale — the point is then
    /// reported as saturated and not simulated).
    pub params: Option<ModelParams>,
    /// In scenario mode: the perturbed scenario and the node count.
    pub scenario: Option<(WeakScalingScenario, f64)>,
}

/// The failure clock of one grid point: a [`Parameter::WeibullShape`]
/// coordinate overrides the sweep-wide `base` spec.  The single resolution
/// rule shared by the arms ([`GridPoint::failure_spec`]) and the output
/// labels ([`SweepResults::model_label`]).
fn coordinates_failure_spec(coordinates: &[(Parameter, f64)], base: FailureSpec) -> FailureSpec {
    coordinates
        .iter()
        .find(|(p, _)| *p == Parameter::WeibullShape)
        .map_or(base, |&(_, shape)| FailureSpec::Weibull { shape })
}

impl GridPoint {
    /// The failure clock of this point: a [`Parameter::WeibullShape`]
    /// coordinate overrides the sweep-wide `base` spec.
    pub fn failure_spec(&self, base: FailureSpec) -> FailureSpec {
        coordinates_failure_spec(&self.coordinates, base)
    }

    /// The analytic waste model matching this point's failure clock — the
    /// model arm's dispatch (shapes are validated at expansion).
    pub fn waste_model(&self, base: FailureSpec) -> AnyWasteModel {
        AnyWasteModel::from_spec(self.failure_spec(base))
            .expect("failure specs are validated at expansion")
    }
}

/// Common-random-numbers waste difference of one protocol against the
/// paired baseline, over the shared failure traces of one grid point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairedDelta {
    /// The protocol the difference is measured against.
    pub baseline: Protocol,
    /// Mean per-trace waste difference `this − baseline`.
    pub mean: f64,
    /// Half-width of the 95 % confidence interval of the difference.
    pub ci95: f64,
}

/// The outcome of one `(point, protocol)` task.  Coordinates live once per
/// point in [`SweepResults::points`], keyed by [`PointResult::index`].
#[derive(Debug, Clone, PartialEq)]
pub struct PointResult {
    /// Grid-point index the task belongs to.
    pub index: usize,
    /// Protocol evaluated.
    pub protocol: Protocol,
    /// Waste predicted by the closed-form model (or scenario evaluation).
    pub model_waste: f64,
    /// Expected failures over the (model-predicted) execution.
    pub expected_failures: f64,
    /// Monte-Carlo statistics, when the sweep has a simulation arm.
    pub sim: Option<SimStats>,
    /// Paired waste difference against the baseline protocol (paired mode,
    /// non-baseline rows only).
    pub paired: Option<PairedDelta>,
}

impl PointResult {
    /// The waste this task measured: simulated when available, else the
    /// model prediction.
    pub fn waste(&self) -> f64 {
        self.sim.map_or(self.model_waste, |s| s.mean_waste)
    }

    /// `WASTE_simul − WASTE_model` (the quantity of Figures 7b/7d/7f), when
    /// a simulation arm ran.
    pub fn model_sim_gap(&self) -> Option<f64> {
        self.sim.map(|s| s.mean_waste - self.model_waste)
    }

    /// The 95 % confidence half-width of the model−simulation gap.  The
    /// model prediction is deterministic, so the gap inherits the simulated
    /// waste's Welford interval unchanged.
    pub fn model_sim_gap_ci95(&self) -> Option<f64> {
        self.sim.map(|s| s.ci95_waste)
    }

    /// Whether the model−simulation gap is statistically resolved: the gap's
    /// CI95 excludes zero, i.e. the residual model bias at this point is
    /// larger than the remaining sampling noise.
    pub fn model_sim_gap_significant(&self) -> Option<bool> {
        self.model_sim_gap()
            .zip(self.model_sim_gap_ci95())
            .map(|(gap, hw)| gap.abs() > hw)
    }
}

/// The executed sweep: every task outcome plus timing metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepResults {
    /// Experiment title.
    pub name: String,
    /// Replication budget each task ran under.
    pub budget: ReplicationBudget,
    /// Whether protocols were paired on common failure traces.
    pub paired: bool,
    /// Failure clock of the experiment (both arms).
    pub failure: FailureSpec,
    /// Failure scenario of the simulation arm ([`ScenarioSpec::Iid`] unless
    /// the sweep broke the i.i.d. assumption).
    pub failure_scenario: ScenarioSpec,
    /// Whether replication seeds ran with their antithetic partners.
    pub antithetic: bool,
    /// Whether the gap columns/summary were requested.
    pub model_gap: bool,
    /// The swept parameters, in axis order — the first `axes.len()`
    /// coordinates of every point; anything after them is derived (e.g. the
    /// realised α of a scenario sweep).
    pub axes: Vec<Parameter>,
    /// Coordinates of each grid point, in grid order (one entry per point,
    /// shared by that point's protocol rows).
    pub points: Vec<Vec<(Parameter, f64)>>,
    /// Wall-clock execution time of the grid.
    pub elapsed_seconds: f64,
    /// Worker threads the grid ran on: 1 for [`SweepSpec::run_serial`], the
    /// pool's threads capped at the number of grid tasks for
    /// [`SweepSpec::run`].
    pub threads: usize,
    /// One result per `(point, protocol)` task, in grid order.
    pub results: Vec<PointResult>,
}

impl SweepResults {
    /// Number of grid points (tasks = points × protocols).
    pub fn grid_points(&self) -> usize {
        self.points.len()
    }

    /// Executed tasks per wall-clock second.
    pub fn tasks_per_second(&self) -> f64 {
        if self.elapsed_seconds > 0.0 {
            self.results.len() as f64 / self.elapsed_seconds
        } else {
            f64::INFINITY
        }
    }

    /// Total samples accumulated across the grid (replications actually
    /// used — the quantity the adaptive budget shrinks).  In antithetic mode
    /// a sample is a pair mean; see [`SweepResults::total_executions`].
    pub fn total_replications(&self) -> usize {
        self.results
            .iter()
            .filter_map(|r| r.sim.map(|s| s.replications))
            .sum()
    }

    /// Total simulated executions across the grid: equals
    /// [`SweepResults::total_replications`] except in antithetic mode, where
    /// every sample cost two executions (the seed and its partner).
    pub fn total_executions(&self) -> usize {
        self.total_replications() * if self.antithetic { 2 } else { 1 }
    }

    /// The coordinate value of grid point `index` on `parameter`.
    pub fn coordinate(&self, index: usize, parameter: Parameter) -> Option<f64> {
        self.points.get(index).and_then(|coords| {
            coords
                .iter()
                .find(|(p, _)| *p == parameter)
                .map(|&(_, v)| v)
        })
    }

    /// The waste of `protocol` at grid point `index` (simulated when
    /// available, else the model's).
    pub fn waste_at(&self, index: usize, protocol: Protocol) -> Option<f64> {
        self.results
            .iter()
            .find(|r| r.index == index && r.protocol == protocol)
            .map(PointResult::waste)
    }

    /// The grid-point indices of the slice along `axis` through the grid
    /// origin — the points whose *other* axis coordinates all equal the
    /// first grid point's — ordered by ascending `axis` value.  Derived
    /// coordinates (e.g. the realised α of a scenario sweep) vary freely
    /// along the slice and are ignored.
    fn axis_slice(&self, axis: Parameter) -> Vec<usize> {
        let Some(axis_pos) = self.axes.iter().position(|&p| p == axis) else {
            return Vec::new();
        };
        let Some(origin) = self.points.first() else {
            return Vec::new();
        };
        let mut slice: Vec<usize> = (0..self.points.len())
            .filter(|&i| {
                self.points[i][..self.axes.len()]
                    .iter()
                    .enumerate()
                    .all(|(j, &(_, v))| j == axis_pos || v == origin[j].1)
            })
            .collect();
        slice.sort_by(|&a, &b| self.points[a][axis_pos].1.total_cmp(&self.points[b][axis_pos].1));
        slice
    }

    /// Classifies the pure-versus-composite comparison along `axis`: walks
    /// the grid slice through the origin in ascending axis order (never raw
    /// grid order, which is not monotone on multi-axis grids) over a
    /// once-built waste index, looking for the first true *sign change* —
    /// pure no worse before, composite strictly better after.
    pub fn crossover_outcome(&self, axis: Parameter) -> CrossoverOutcome {
        // Index every (point, protocol) waste in one pass instead of
        // re-scanning all results per grid point.
        let mut wastes: Vec<(Option<f64>, Option<f64>)> = vec![(None, None); self.points.len()];
        for r in &self.results {
            match r.protocol {
                Protocol::PurePeriodicCkpt => wastes[r.index].0 = Some(r.waste()),
                Protocol::AbftPeriodicCkpt => wastes[r.index].1 = Some(r.waste()),
                _ => {}
            }
        }
        let comparable: Vec<(f64, bool)> = self
            .axis_slice(axis)
            .into_iter()
            .filter_map(|i| {
                let (pure, composite) = wastes[i];
                Some((self.coordinate(i, axis)?, composite? < pure?))
            })
            .collect();
        if let Some(window) = comparable.windows(2).find(|w| !w[0].1 && w[1].1) {
            return CrossoverOutcome::At {
                value: window[1].0,
                below: window[0].0,
            };
        }
        match comparable.first() {
            Some(&(_, true)) => CrossoverOutcome::CompositeDominant,
            _ => CrossoverOutcome::NoCrossover,
        }
    }

    /// The crossover annotation of Figures 8–10: the first `axis` value (in
    /// ascending order along the origin slice) at which the comparison's
    /// sign *changes* to "composite strictly better".  `None` both when the
    /// composite never wins and when it wins everywhere (no sign change in
    /// range — use [`SweepResults::crossover_outcome`] to distinguish).
    pub fn crossover(&self, axis: Parameter) -> Option<f64> {
        match self.crossover_outcome(axis) {
            CrossoverOutcome::At { value, .. } => Some(value),
            _ => None,
        }
    }

    /// The bracket around the crossover on `axis`: the last value where pure
    /// still held and the first where the composite wins — the seed interval
    /// of a [`CrossoverRefiner`] bisection.
    pub fn crossover_bracket(&self, axis: Parameter) -> Option<(f64, f64)> {
        match self.crossover_outcome(axis) {
            CrossoverOutcome::At { value, below } => Some((below, value)),
            _ => None,
        }
    }

    /// How far the *simulated* crossover sits from the *model* crossover
    /// along `axis`, measured on this grid: each arm's waste difference
    /// `composite − pure` is walked along the origin slice, the sign-change
    /// root of each arm located by linear interpolation, and the distance
    /// between the two roots returned.  `None` when either arm lacks a
    /// sign change in range (or no simulation ran).
    ///
    /// This is the measured model bias a [`CrossoverRefiner`] uses to size
    /// its model-seeded bisection window: a fixed safety margin either
    /// wastes probes re-verifying an over-wide window or gets rejected when
    /// the bias exceeds it, while `2 ×` the measured bias tracks the actual
    /// disagreement of the two curves.
    pub fn crossover_model_sim_bias(&self, axis: Parameter) -> Option<f64> {
        let mut wastes: Vec<[Option<f64>; 4]> = vec![[None; 4]; self.points.len()];
        for r in &self.results {
            let slot = match r.protocol {
                Protocol::PurePeriodicCkpt => 0,
                Protocol::AbftPeriodicCkpt => 2,
                _ => continue,
            };
            wastes[r.index][slot] = Some(r.model_waste);
            wastes[r.index][slot + 1] = r.sim.as_ref().map(|s| s.mean_waste);
        }
        let mut curve: Vec<(f64, f64, f64)> = Vec::new();
        for i in self.axis_slice(axis) {
            let [pm, ps, cm, cs] = wastes[i];
            if let (Some(x), Some(pm), Some(ps), Some(cm), Some(cs)) =
                (self.coordinate(i, axis), pm, ps, cm, cs)
            {
                curve.push((x, cm - pm, cs - ps));
            }
        }
        // The composite wins where its waste difference turns negative; the
        // root of each delta curve is its crossover estimate.
        let root = |deltas: &dyn Fn(&(f64, f64, f64)) -> f64| {
            curve.windows(2).find_map(|w| {
                let (da, db) = (deltas(&w[0]), deltas(&w[1]));
                (da >= 0.0 && db < 0.0).then(|| {
                    let (xa, xb) = (w[0].0, w[1].0);
                    xa + (xb - xa) * da / (da - db)
                })
            })
        };
        let model_root = root(&|p| p.1)?;
        let sim_root = root(&|p| p.2)?;
        Some((sim_root - model_root).abs())
    }

    /// Largest `|WASTE_simul − WASTE_model|` across the grid, when a
    /// simulation arm ran.
    pub fn worst_model_sim_gap(&self) -> Option<f64> {
        self.results
            .iter()
            .filter_map(|r| r.model_sim_gap().map(f64::abs))
            .fold(None, |acc, g| Some(acc.map_or(g, |a: f64| a.max(g))))
    }

    /// Mean `|WASTE_simul − WASTE_model|` across the grid, when a simulation
    /// arm ran — the headline number of a model-validation sweep.
    pub fn mean_abs_model_sim_gap(&self) -> Option<f64> {
        let gaps: Vec<f64> = self
            .results
            .iter()
            .filter_map(|r| r.model_sim_gap().map(f64::abs))
            .collect();
        if gaps.is_empty() {
            None
        } else {
            Some(gaps.iter().sum::<f64>() / gaps.len() as f64)
        }
    }

    /// How many tasks show a statistically resolved model−simulation gap
    /// (CI95 excluding zero), and how many carried a simulation arm at all.
    pub fn significant_gap_counts(&self) -> (usize, usize) {
        let mut significant = 0;
        let mut total = 0;
        for r in &self.results {
            if let Some(sig) = r.model_sim_gap_significant() {
                total += 1;
                if sig {
                    significant += 1;
                }
            }
        }
        (significant, total)
    }

    /// The grid-level gap summary line (`--model-gap` footers): mean and
    /// worst `|WASTE_simul − WASTE_model|` plus how many tasks resolved
    /// their gap beyond the CI95.  `None` when no simulation arm ran.
    pub fn model_gap_summary(&self) -> Option<String> {
        let (mean, worst) = (self.mean_abs_model_sim_gap()?, self.worst_model_sim_gap()?);
        let (significant, total) = self.significant_gap_counts();
        Some(format!(
            "mean |gap| {mean:.4}, worst |gap| {worst:.4}, {significant}/{total} tasks resolved beyond CI95"
        ))
    }

    /// The analytic-model label of grid point `index` (a
    /// [`Parameter::WeibullShape`] coordinate overrides the sweep-wide
    /// failure spec, exactly like the arms themselves).
    pub fn model_label(&self, index: usize) -> String {
        let spec = self
            .points
            .get(index)
            .map_or(self.failure, |coords| {
                coordinates_failure_spec(coords, self.failure)
            });
        let label = AnyWasteModel::from_spec(spec)
            .map(|m| m.label())
            .unwrap_or_else(|_| "invalid".to_string());
        if self.failure_scenario.is_iid() {
            label
        } else {
            // Under a non-i.i.d. scenario the model arm is the matched-MTBF
            // i.i.d. baseline, not a model of the scenario clock — say so,
            // rather than letting the label claim the clocks agree.
            format!("{label} [iid baseline; clock={}]", self.failure_scenario)
        }
    }

    /// Renders the results as a [`Table`] for the shared output writer.
    pub fn to_table(&self) -> Table {
        let has_sim = self.budget.runs_simulation();
        let mut headers: Vec<&str> = Vec::new();
        if let Some(first) = self.points.first() {
            for (p, _) in first {
                headers.push(p.label());
            }
        }
        headers.extend(["protocol", "model_waste", "expected_failures"]);
        if has_sim {
            headers.extend(["sim_waste", "diff", "ci95", "mean_failures", "reps"]);
        }
        if self.paired {
            headers.extend(["paired_delta", "paired_ci95"]);
        }
        if self.model_gap {
            headers.extend(["model", "gap_rel", "gap_sig"]);
        }
        let mut table = Table::new(&headers);
        for r in &self.results {
            let mut row: Vec<String> = self.points[r.index]
                .iter()
                .map(|&(p, v)| format_value(p, v))
                .collect();
            row.push(r.protocol.name().to_string());
            row.push(format!("{:.4}", r.model_waste));
            row.push(format!("{:.1}", r.expected_failures));
            if has_sim {
                match r.sim {
                    Some(s) => {
                        row.push(format!("{:.4}", s.mean_waste));
                        row.push(format!("{:+.4}", s.mean_waste - r.model_waste));
                        row.push(format!("{:.4}", s.ci95_waste));
                        row.push(format!("{:.1}", s.mean_failures));
                        row.push(format!("{}", s.replications));
                    }
                    None => row.extend(std::iter::repeat_n(String::new(), 5)),
                }
            }
            if self.paired {
                match r.paired {
                    Some(d) => {
                        row.push(format!("{:+.4}", d.mean));
                        row.push(format!("{:.4}", d.ci95));
                    }
                    None => row.extend(std::iter::repeat_n(String::new(), 2)),
                }
            }
            if self.model_gap {
                // The analytic model the prediction came from, the gap as a
                // fraction of it, and whether the gap's CI95 (the `ci95`
                // column — the model is deterministic) excludes zero.
                row.push(self.model_label(r.index));
                match (r.model_sim_gap(), r.model_sim_gap_significant()) {
                    (Some(gap), Some(sig)) => {
                        let rel = if r.model_waste.abs() > 0.0 {
                            gap / r.model_waste
                        } else {
                            f64::INFINITY
                        };
                        row.push(format!("{rel:+.4}"));
                        row.push(sig.to_string());
                    }
                    _ => row.extend(std::iter::repeat_n(String::new(), 2)),
                }
            }
            table.push_row(row);
        }
        table
    }

    /// Renders through the shared writer: aligned text, CSV or JSON.
    pub fn render(&self, format: OutputFormat) -> String {
        let table = self.to_table();
        match format {
            OutputFormat::Table => table.render(),
            OutputFormat::Csv => table.to_csv(),
            OutputFormat::Json => table.to_json(),
        }
    }
}

/// Classification of the pure-versus-composite comparison along one sweep
/// axis (see [`SweepResults::crossover_outcome`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CrossoverOutcome {
    /// The comparison changes sign: pure no worse at `below`, composite
    /// strictly better at `value` (adjacent slice points).
    At {
        /// First axis value at which the composite wins.
        value: f64,
        /// Last axis value at which pure still held.
        below: f64,
    },
    /// The composite already wins at the first point of the range — no sign
    /// change is visible, the crossover (if any) lies below the sweep.
    CompositeDominant,
    /// The composite never wins in the swept range.
    NoCrossover,
}

/// Prints the shared crossover footer of the Figure 8–10 binaries,
/// distinguishing "no crossover in range" from "composite dominant from the
/// first point" (one helper, not three copies).
pub fn report_crossover(results: &SweepResults, axis: Parameter) {
    let label = axis.label();
    match results.crossover_outcome(axis) {
        CrossoverOutcome::At { value, below } => println!(
            "# composite overtakes PurePeriodicCkpt between {label} = {} and {label} = {}",
            format_value(axis, below),
            format_value(axis, value),
        ),
        CrossoverOutcome::CompositeDominant => println!(
            "# composite dominant from the first grid point — crossover below the swept {label} range"
        ),
        CrossoverOutcome::NoCrossover => {
            println!("# no crossover in range — composite never overtakes PurePeriodicCkpt")
        }
    }
}

/// Seed-stream tag separating refiner probe seeds from grid task seeds.
const REFINER_SEED_TAG: u64 = 0xC055_0FEB_15EC_7104;

/// One bisection probe of a [`CrossoverRefiner`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrossoverProbe {
    /// The probed axis coordinate.
    pub value: f64,
    /// Waste difference `composite − pure` at the probe (paired simulation
    /// mean, or the closed-form model difference for model-only probes).
    pub delta: f64,
    /// CI95 half-width of the paired delta (0 for model probes).
    pub ci95: f64,
    /// Shared failure traces the probe replayed (0 for model probes).
    pub replications: usize,
    /// Whether the composite protocol wins at this coordinate.
    pub composite_beats: bool,
    /// Whether the comparison was statistically resolved (CI95 excludes
    /// zero; always `true` for model probes).
    pub decided: bool,
}

/// The outcome of a bisection refinement.
#[derive(Debug, Clone, PartialEq)]
pub struct CrossoverRefinement {
    /// Axis that was bisected.
    pub axis: Parameter,
    /// Final bracket `(pure side, composite side)`.
    pub bracket: (f64, f64),
    /// Localised crossover coordinate (geometric midpoint of the bracket).
    pub crossover: f64,
    /// Requested relative tolerance.
    pub rel_tolerance: f64,
    /// Achieved relative bracket width `|hi − lo| / crossover`.
    pub achieved_tolerance: f64,
    /// Whether the requested tolerance was reached within the probe budget.
    pub converged: bool,
    /// The crossover the free analytic-model bisection located before the
    /// simulated probes ran (`None` when the refinement was not model-seeded
    /// or the seeded window was rejected and the full bracket used instead).
    pub model_crossover: Option<f64>,
    /// Confidence that the final bracket is correct: the *minimum*, over
    /// every sign decision that shaped it (the two bracket verifications and
    /// each bisection decision), of the normal-approximated probability
    /// `Φ(|z|)` that the decided sign is the true one.  Model probes decide
    /// exactly (`Φ = 1`); `None` when no decision was taken (a bracket
    /// already within tolerance).  Raising
    /// [`CrossoverRefiner::sign_repeats`] tightens this by pooling repeated
    /// midpoint probes.
    pub confidence: Option<f64>,
    /// Every simulated probe, in order: a rejected model-seed window's two
    /// verification probes first (when that happened — their cost is real
    /// and stays accounted), then the used bracket's two verification
    /// probes, then the bisection steps (a midpoint contributes several
    /// consecutive entries when [`CrossoverRefiner::sign_repeats`] pooled
    /// repeated probes into its decision).  The model-seeding bisection
    /// itself is free and not recorded; every entry here cost
    /// `2 × replications` simulated executions (0 for model-only probes),
    /// twice that under antithetic pairing.
    pub probes: Vec<CrossoverProbe>,
    /// Whether the probes ran antithetic pairs
    /// ([`SweepSpec::antithetic`]): each replication then replays a trace
    /// and its antithetic partner, two executions per protocol.
    pub antithetic: bool,
}

impl CrossoverRefinement {
    /// Replications spent across all probes, counted per protocol (traces ×
    /// protocols): equals [`CrossoverRefinement::total_executions`] except
    /// under antithetic pairing, where each replication is a trace pair.
    pub fn total_replications(&self) -> usize {
        self.probes.iter().map(|p| p.replications * 2).sum()
    }

    /// Total simulated executions spent across all probes — the quantity to
    /// compare against a fixed-budget grid scan's
    /// [`SweepResults::total_executions`].  Twice
    /// [`CrossoverRefinement::total_replications`] under antithetic pairing.
    pub fn total_executions(&self) -> usize {
        self.total_replications() * if self.antithetic { 2 } else { 1 }
    }
}

/// Bisection driver that localises the pure→composite crossover along one
/// axis to a requested *relative tolerance*, instead of the grid resolution
/// [`SweepResults::crossover`] is limited to.
///
/// Each probe evaluates one coordinate with a **paired** comparison of
/// `PurePeriodicCkpt` and `AbftPeriodicCkpt` — under the spec's replication
/// budget (a [`ReplicationBudget::AdaptiveDelta`] budget stops each probe as
/// soon as the sign of the waste difference is resolved, which is all a
/// bisection step consumes) — and halves the bracket on the observed sign.
/// Probe seeds are derived deterministically from the spec's master seed
/// through [`SeedStream::nth_seed`], so refinements are reproducible and
/// independent of how many probes earlier runs spent.  With a
/// `Fixed(0)` budget (or on points outside the model's validity domain) a
/// probe falls back to the closed-form model difference, which makes
/// model-level refinement essentially free.
///
/// The driver works on any spec the sweep subsystem accepts: node counts of
/// the Figures 8–10 scenarios (under exponential *and* Weibull clocks),
/// MTBF or α around a base point, …  The bracket ends need not be ordered —
/// `refine(a, b)` expects pure to hold at `a` and the composite to win at
/// `b`, whichever side is numerically larger.
#[derive(Debug, Clone)]
pub struct CrossoverRefiner {
    /// Probe template: base point or scenario, budget, failure model, seed.
    /// Its axes and protocol list are ignored — every probe is a one-point
    /// grid over `[PurePeriodicCkpt, AbftPeriodicCkpt]`.
    pub spec: SweepSpec,
    /// The bisected axis.
    pub axis: Parameter,
    /// Requested relative tolerance on the crossover coordinate.
    pub rel_tolerance: f64,
    /// Hard cap on bisection probes — bracket-verification probes included,
    /// as are probes spent verifying a rejected model-seed window (the cap
    /// bounds the refinement's total simulated cost).
    pub max_probes: usize,
    /// Seed the simulated bisection from the analytic model: a free
    /// model-probe bisection first localises the *model* crossover inside
    /// the bracket, and the simulated probes start from a window around it
    /// instead of the full grid bracket — typically several simulated probes
    /// fewer.  On by default; inert for model-only (`Fixed(0)`) budgets; the
    /// refiner falls back to the full bracket when the simulation disagrees
    /// with the model about either end of the seeded window.
    pub model_seed: bool,
    /// Noise-aware bisection: the maximum number of *independent* simulated
    /// probes a bisection midpoint may spend on its sign decision.  The
    /// probes (each on fresh failure traces) are pooled inverse-variance;
    /// the sequential sign test stops as soon as the pooled statistic
    /// reaches `|z| ≥ 1.96` (95 % confidence on the sign), so quiet
    /// midpoints still cost one probe.  `1` (the default) disables the
    /// test and reproduces the single-probe decisions exactly; every
    /// repeated probe is recorded and charged like any other probe, and the
    /// [`CrossoverRefiner::max_probes`] cap keeps bounding the total cost.
    pub sign_repeats: usize,
}

impl CrossoverRefiner {
    /// Creates a refiner over `spec` along `axis` with the default 1 %
    /// tolerance, a 40-probe cap and model seeding on.
    pub fn new(spec: SweepSpec, axis: Parameter) -> Self {
        Self {
            spec,
            axis,
            rel_tolerance: 0.01,
            max_probes: 40,
            model_seed: true,
            sign_repeats: 1,
        }
    }

    /// Sets the relative tolerance.
    pub fn tolerance(mut self, rel_tolerance: f64) -> Self {
        self.rel_tolerance = rel_tolerance.max(1e-12);
        self
    }

    /// Sets the probe cap.
    pub fn max_probes(mut self, max_probes: usize) -> Self {
        self.max_probes = max_probes.max(3);
        self
    }

    /// Enables (or disables) model seeding of the simulated bisection.
    pub fn model_seed(mut self, model_seed: bool) -> Self {
        self.model_seed = model_seed;
        self
    }

    /// Sets the sequential-sign-test probe cap per bisection midpoint
    /// (`1` disables the test).
    pub fn sign_repeats(mut self, sign_repeats: usize) -> Self {
        self.sign_repeats = sign_repeats.max(1);
        self
    }

    /// Confidence that a single probe's sign decision is correct:
    /// `Φ(|z|)` with `z = mean / se` under the probe's own CI95 half-width
    /// (`se = ci95 / 1.96`); exact probes (model, or zero variance) decide
    /// with certainty.
    fn probe_confidence(probe: &CrossoverProbe) -> f64 {
        if probe.ci95 <= 0.0 {
            1.0
        } else {
            normal_cdf(1.96 * probe.delta.abs() / probe.ci95)
        }
    }

    /// Evaluates one probe at `value` (probe `index` of this refinement).
    fn probe(&self, value: f64, index: u64) -> Result<CrossoverProbe, SweepError> {
        let spec = SweepSpec {
            axes: vec![Axis::values(self.axis, vec![value])],
            protocols: vec![Protocol::PurePeriodicCkpt, Protocol::AbftPeriodicCkpt],
            paired: true,
            ..self.spec.clone()
        };
        let grid = spec.expand()?;
        let point = &grid[0];
        if let (Some(params), true) = (point.params, spec.budget.runs_simulation()) {
            let seed = SeedStream::nth_seed(spec.seed ^ REFINER_SEED_TAG, index);
            // Programs compile afresh per probe: compiling is a small share
            // of a probe, and a bisection rarely revisits a coordinate.
            let acc = spec.simulate_paired(point, &params, seed, &BatchProgramCache::new());
            let delta = &acc.deltas[1];
            let (mean, hw) = (delta.mean(), delta.ci95_half_width());
            Ok(CrossoverProbe {
                value,
                delta: mean,
                ci95: hw,
                replications: acc.replications(),
                composite_beats: mean < 0.0,
                decided: hw < mean.abs(),
            })
        } else {
            // Model probe: exact closed-form (or saturated-scenario) wastes.
            let (pure, _) = spec.model_arm(point, Protocol::PurePeriodicCkpt);
            let (composite, _) = spec.model_arm(point, Protocol::AbftPeriodicCkpt);
            Ok(CrossoverProbe {
                value,
                delta: composite - pure,
                ci95: 0.0,
                replications: 0,
                composite_beats: composite < pure,
                decided: true,
            })
        }
    }

    /// Refines the crossover inside a bracket: pure must hold at
    /// `pure_side`, the composite must win at `composite_side` (both are
    /// verified with the first two probes).
    ///
    /// With [`CrossoverRefiner::model_seed`] on (the default) and a
    /// simulating budget, a free analytic-model bisection first shrinks the
    /// bracket to a window around the model-predicted crossover, and the
    /// simulated probes bisect only that window; when the simulation
    /// disagrees with the model about an end of the window (model bias
    /// larger than the safety margin), the refiner transparently falls back
    /// to the full bracket.
    pub fn refine(
        &self,
        pure_side: f64,
        composite_side: f64,
    ) -> Result<CrossoverRefinement, SweepError> {
        self.refine_with_bias(pure_side, composite_side, None)
    }

    /// [`CrossoverRefiner::refine`] with a measured model−simulation bias
    /// (typically [`SweepResults::crossover_model_sim_bias`] from the
    /// seeding grid) sizing the model-seeded window: the window reaches `2 ×
    /// bias` beyond the model crossover instead of the fixed 5 % fallback
    /// margin.  A window sized from the measured disagreement is verified
    /// and accepted where a fixed margin smaller than the bias would be
    /// rejected — wasting its two verification probes — and is narrower
    /// than a fixed margin much larger than the bias.
    pub fn refine_with_bias(
        &self,
        pure_side: f64,
        composite_side: f64,
        bias: Option<f64>,
    ) -> Result<CrossoverRefinement, SweepError> {
        if self.model_seed && self.spec.budget.runs_simulation() {
            let model_refiner = CrossoverRefiner {
                spec: SweepSpec {
                    budget: ReplicationBudget::Fixed(0),
                    ..self.spec.clone()
                },
                model_seed: false,
                ..self.clone()
            };
            if let Ok(model) = model_refiner.bisect(pure_side, composite_side) {
                // Window around the model crossover: a few model-bracket
                // widths, floored at twice the measured model−simulation
                // bias (or 5 % of the coordinate when no bias was
                // measured), clamped to the original bracket — wide enough
                // to absorb the model's actual disagreement with the
                // simulation, narrow enough to save most of the decade-wide
                // grid bracket's bisection steps.
                let (mp, mc) = model.bracket;
                let floor = bias.map_or(0.05 * model.crossover.abs(), |b| 2.0 * b);
                let shift = (3.0 * (mc - mp).abs()).max(floor);
                let toward = |from: f64, limit: f64| {
                    let d = limit - from;
                    if d.abs() <= shift {
                        limit
                    } else {
                        from + shift * d.signum()
                    }
                };
                match self.bisect_with(
                    toward(mp, pure_side),
                    toward(mc, composite_side),
                    Vec::new(),
                ) {
                    Ok(mut refinement) => {
                        refinement.model_crossover = Some(model.crossover);
                        return Ok(refinement);
                    }
                    // The simulation rejected the seeded window (model bias
                    // larger than the safety margin): fall back to the full
                    // bracket, *carrying the spent window probes* so the
                    // refinement's probe list and execution accounting stay
                    // honest about the seeding attempt's cost.
                    Err((_, wasted)) => {
                        return self
                            .bisect_with(pure_side, composite_side, wasted)
                            .map_err(|(e, _)| e);
                    }
                }
            }
        }
        self.bisect(pure_side, composite_side)
    }

    /// The bisection core of [`CrossoverRefiner::refine`], always working on
    /// the bracket it is given.
    fn bisect(
        &self,
        pure_side: f64,
        composite_side: f64,
    ) -> Result<CrossoverRefinement, SweepError> {
        self.bisect_with(pure_side, composite_side, Vec::new())
            .map_err(|(e, _)| e)
    }

    /// [`CrossoverRefiner::bisect`] with previously spent probes carried
    /// into the accounting: `carried` probes are prepended to the
    /// refinement's probe list (and probe-seed indices continue after them),
    /// and on error the probes spent so far ride along so the caller can
    /// keep charging them.
    fn bisect_with(
        &self,
        pure_side: f64,
        composite_side: f64,
        carried: Vec<CrossoverProbe>,
    ) -> Result<CrossoverRefinement, (SweepError, Vec<CrossoverProbe>)> {
        if !pure_side.is_finite() || !composite_side.is_finite() {
            return Err((
                SweepError("bisection brackets must be finite coordinates".into()),
                carried,
            ));
        }
        let mut probes = carried;
        let lo_probe = match self.probe(pure_side, probes.len() as u64) {
            Ok(p) => p,
            Err(e) => return Err((e, probes)),
        };
        probes.push(lo_probe);
        let hi_probe = match self.probe(composite_side, probes.len() as u64) {
            Ok(p) => p,
            Err(e) => return Err((e, probes)),
        };
        probes.push(hi_probe);
        let mut confidence: Option<f64> = None;
        let note_decision = |c: f64, confidence: &mut Option<f64>| {
            *confidence = Some(confidence.map_or(c, |m: f64| m.min(c)));
        };
        note_decision(Self::probe_confidence(&lo_probe), &mut confidence);
        note_decision(Self::probe_confidence(&hi_probe), &mut confidence);
        let bracket_ok = !lo_probe.composite_beats && hi_probe.composite_beats;
        if !bracket_ok {
            return Err((
                SweepError(format!(
                    "not a crossover bracket: composite {} at {} and {} at {}",
                    if lo_probe.composite_beats { "wins" } else { "loses" },
                    pure_side,
                    if hi_probe.composite_beats { "wins" } else { "loses" },
                    composite_side,
                )),
                probes,
            ));
        }
        let (mut pure_at, mut composite_at) = (pure_side, composite_side);
        // Wide positive brackets (node counts, MTBFs spanning decades):
        // bisect in log space, which keeps the relative tolerance uniform
        // across the bracket.  Narrow or zero-touching brackets (fractions
        // like α, ρ, a Weibull shape): plain arithmetic bisection.
        let (lo, hi) = (
            pure_side.min(composite_side),
            pure_side.max(composite_side),
        );
        let geometric = lo > 0.0 && hi / lo >= 4.0;
        let midpoint = move |a: f64, b: f64| {
            if geometric {
                (a * b).sqrt()
            } else {
                0.5 * (a + b)
            }
        };
        let width = move |a: f64, b: f64| {
            let mid = midpoint(a, b);
            if mid.abs() > 0.0 {
                (a - b).abs() / mid.abs()
            } else {
                f64::INFINITY
            }
        };
        while width(pure_at, composite_at) > self.rel_tolerance && probes.len() < self.max_probes {
            let mid = midpoint(pure_at, composite_at);
            // Sequential sign test: pool up to `sign_repeats` independent
            // probes of the midpoint inverse-variance, stopping as soon as
            // the pooled statistic resolves the sign at 95 %.
            let mut sum_w = 0.0;
            let mut sum_wd = 0.0;
            let mut composite_beats = false;
            let mut decision_confidence = 1.0;
            for _ in 0..self.sign_repeats.max(1) {
                let probe = match self.probe(mid, probes.len() as u64) {
                    Ok(p) => p,
                    Err(e) => return Err((e, probes)),
                };
                probes.push(probe);
                if probe.ci95 <= 0.0 {
                    // Exact (model) probe: the sign is certain.
                    composite_beats = probe.composite_beats;
                    decision_confidence = 1.0;
                    break;
                }
                let se = probe.ci95 / 1.96;
                let w = 1.0 / (se * se);
                sum_w += w;
                sum_wd += w * probe.delta;
                let pooled_mean = sum_wd / sum_w;
                let z = pooled_mean * sum_w.sqrt();
                composite_beats = pooled_mean < 0.0;
                decision_confidence = normal_cdf(z.abs());
                if z.abs() >= 1.96 || probes.len() >= self.max_probes {
                    break;
                }
            }
            note_decision(decision_confidence, &mut confidence);
            if composite_beats {
                composite_at = mid;
            } else {
                pure_at = mid;
            }
        }
        let achieved = width(pure_at, composite_at);
        Ok(CrossoverRefinement {
            axis: self.axis,
            bracket: (pure_at, composite_at),
            crossover: midpoint(pure_at, composite_at),
            rel_tolerance: self.rel_tolerance,
            achieved_tolerance: achieved,
            converged: achieved <= self.rel_tolerance,
            model_crossover: None,
            confidence,
            probes,
            antithetic: self.spec.antithetic,
        })
    }

    /// Refines starting from a grid-level sweep's crossover bracket
    /// ([`SweepResults::crossover_bracket`]).  When the seeding sweep also
    /// carried a simulation arm, its measured model−simulation bias
    /// ([`SweepResults::crossover_model_sim_bias`]) sizes the model-seeded
    /// window.
    pub fn refine_from(&self, results: &SweepResults) -> Result<CrossoverRefinement, SweepError> {
        let (below, value) = results.crossover_bracket(self.axis).ok_or_else(|| {
            SweepError(format!(
                "the seeding sweep shows no crossover along `{}`",
                self.axis.label()
            ))
        })?;
        self.refine_with_bias(below, value, results.crossover_model_sim_bias(self.axis))
    }
}

/// Formats a coordinate for display: integral values (node counts, seconds)
/// print without a fractional part, fractions keep four digits.  Shared by
/// the grid tables, the crossover footers and the `crossover` binary.
pub fn format_value(parameter: Parameter, v: f64) -> String {
    match parameter {
        Parameter::Alpha | Parameter::Rho | Parameter::Phi | Parameter::WeibullShape => {
            format!("{v:.4}")
        }
        _ if v == v.trunc() && v.abs() < 1e15 => format!("{v:.0}"),
        _ => format!("{v:.4}"),
    }
}

/// Parses the shared `--failure-model`/`--weibull-shape` flags into a
/// [`FailureSpec`]: `None` when `--failure-model` is absent, a CLI error
/// exit on unknown models or invalid shapes.
pub fn failure_spec_from_args(args: &Args) -> Option<FailureSpec> {
    let model_name = args.string("--failure-model", "");
    if model_name.is_empty() {
        return None;
    }
    let shape: f64 = args.value("--weibull-shape", 0.7);
    let spec = FailureSpec::parse(&model_name, shape).unwrap_or_else(|| {
        eprintln!("unknown --failure-model `{model_name}`; use exponential|weibull");
        std::process::exit(2);
    });
    if spec.validate().is_err() {
        eprintln!("--weibull-shape must be a positive finite number, got {shape}");
        std::process::exit(2);
    }
    Some(spec)
}

/// Applies the shared CLI knobs (`--replications`, `--precision`,
/// `--delta-precision`, `--min-replications`, `--max-replications`,
/// `--paired`, `--antithetic`, `--model-gap`, `--failure-model`,
/// `--weibull-shape`, `--seed`, `--epochs`, `--threads`, `--batch-lanes`)
/// to a spec, runs it
/// (serially with `--serial`) and prints the header, the rendered grid
/// (`--format table|csv|json`, with `--csv` as a shorthand) and a
/// throughput footer.  Returns the results for binary-specific footers.
///
/// `--precision 0.02` switches the budget to adaptive sequential stopping:
/// each point replicates until the waste CI95 half-width falls below 2 % of
/// the mean (bracketed by `--min-replications`/`--max-replications`).
/// `--delta-precision 0.05` instead targets the **paired waste difference**
/// (implies `--paired`): a point stops as soon as every protocol-versus-
/// baseline comparison is resolved.  `--paired` replays the same failure
/// traces to every protocol and adds the paired waste-difference columns.
/// `--antithetic` runs every replication seed together with its antithetic
/// partner (`1 − u` uniforms) and accumulates pair means — tighter CIs per
/// simulated execution on smooth responses.  `--failure-model weibull
/// --weibull-shape 0.7` swaps the failure description of **both** arms: the
/// simulation clock draws Weibull inter-arrivals and the model arm uses the
/// Weibull-corrected closed form, so the `diff`/`ci95` columns report a
/// genuine model−simulation gap.  `--model-gap` adds the per-point model
/// label, relative-gap and gap-significance columns plus a grid-level gap
/// summary footer (and gives model-only specs a default simulation budget).
/// `--scenario trace[:<path>]|cascade|diurnal|wearout` replaces the
/// simulation clock with a recorded-trace playback or a synthesized
/// non-stationary source calibrated to each point's MTBF, while the model
/// arm keeps the matched-MTBF i.i.d. prediction (and its labels say so) —
/// the gap columns then measure the effect of breaking the i.i.d.
/// assumption.
/// `--batch-lanes` resizes the batched SoA simulation engine (`1` runs
/// one-lane batches) — a pure throughput knob: every width is bit-exact
/// with the scalar executors, so every reported figure is identical at any
/// width.  `--point-threads` splits each point's replication blocks
/// across that many OS threads inside the batch drivers (`0` = host
/// parallelism) — also bit-exact at every value, and composes with the
/// whole-grid `--threads` parallelism.
pub fn run_cli(mut spec: SweepSpec, args: &Args) -> SweepResults {
    if let Some(n) = args.maybe_value::<usize>("--replications") {
        spec.budget = ReplicationBudget::Fixed(n);
    }
    let precision: f64 = args.value("--precision", 0.0);
    if precision > 0.0 {
        spec.budget = ReplicationBudget::Adaptive {
            rel_precision: precision,
            min: args.value("--min-replications", 100),
            max: args.value("--max-replications", 10_000),
        };
    }
    let delta_precision: f64 = args.value("--delta-precision", 0.0);
    if delta_precision > 0.0 {
        spec.budget = ReplicationBudget::AdaptiveDelta {
            rel_precision: delta_precision,
            min: args.value("--min-replications", 100),
            max: args.value("--max-replications", 10_000),
        };
        spec.paired = true;
    }
    if args.flag("--paired") {
        spec.paired = true;
    }
    if args.flag("--antithetic") {
        spec.antithetic = true;
    }
    if let Some(failure) = failure_spec_from_args(args) {
        spec.failure = failure;
    }
    let scenario_text = args.string("--scenario", "");
    if !scenario_text.is_empty() {
        spec.failure_scenario = ScenarioSpec::parse(&scenario_text).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        });
    }
    if args.flag("--model-gap") {
        // A gap needs both arms: give model-only specs the default
        // simulation budget instead of printing empty gap columns.  (A
        // fixed default, not `--replications` again — an explicit
        // `--replications 0` would otherwise defeat exactly the fallback
        // this branch exists for.)
        spec = spec.model_gap(true).with_simulation_arm();
    }
    spec.seed = args.value("--seed", spec.seed);
    spec.epochs = args.value("--epochs", spec.epochs).max(1);
    spec.batch_lanes = args.value("--batch-lanes", spec.batch_lanes);
    spec.point_threads = args.value("--point-threads", spec.point_threads);
    let threads: usize = args.value("--threads", 0);
    if threads > 0 {
        let _ = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build_global();
    }
    // Validate the output format *before* spending CPU on the grid.
    let format = if args.flag("--csv") {
        OutputFormat::Csv
    } else {
        OutputFormat::parse(&args.string("--format", "table")).unwrap_or_else(|| {
            eprintln!("unknown --format; use table|csv|json");
            std::process::exit(2);
        })
    };
    let run = if args.flag("--serial") {
        spec.run_serial()
    } else {
        spec.run()
    };
    let results = run.unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    println!("# {}", results.name);
    println!(
        "# {} grid points x {} protocols, budget {} per task{}, {} failures{}, {} epochs",
        results.grid_points(),
        spec.protocols.len(),
        spec.plan(),
        if spec.paired { " (paired)" } else { "" },
        spec.failure,
        if spec.failure_scenario.is_iid() {
            String::new()
        } else {
            format!(" under scenario {}", spec.failure_scenario)
        },
        spec.epochs,
    );
    print!("{}", results.render(format));
    if spec.model_gap {
        if let Some(summary) = results.model_gap_summary() {
            println!(
                "# model-simulation gap: {summary} (model arm per row in the `model` column)"
            );
        }
    }
    println!("{}", run_footer(&results));
    results
}

/// The closing line of a CLI run: task count, executions, wall clock and the
/// worker threads the grid actually ran on.
fn run_footer(results: &SweepResults) -> String {
    format!(
        "# {} tasks ({} simulated executions) in {:.2} s ({:.0} tasks/s) on {} thread{}",
        results.results.len(),
        results.total_executions(),
        results.elapsed_seconds,
        results.tasks_per_second(),
        results.threads,
        if results.threads == 1 { "" } else { "s" },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figure7_base;
    use ft_platform::units::minutes;

    #[test]
    fn expansion_is_a_cartesian_product_with_the_last_axis_fastest() {
        let spec = SweepSpec::new("t", figure7_base())
            .axis(Axis::values(Parameter::Mtbf, vec![minutes(60.0), minutes(120.0)]))
            .axis(Axis::values(Parameter::Alpha, vec![0.0, 0.5, 1.0]));
        let grid = spec.expand().unwrap();
        assert_eq!(grid.len(), 6);
        assert_eq!(grid[0].coordinates[0].1, minutes(60.0));
        assert_eq!(grid[0].coordinates[1].1, 0.0);
        assert_eq!(grid[1].coordinates[1].1, 0.5);
        assert_eq!(grid[3].coordinates[0].1, minutes(120.0));
        let resolved = grid[4].params.unwrap();
        assert!((resolved.alpha - 0.5).abs() < 1e-12);
        assert!((resolved.platform_mtbf - minutes(120.0)).abs() < 1e-9);
    }

    #[test]
    fn invalid_values_and_missing_scenarios_are_rejected() {
        let bad = SweepSpec::new("t", figure7_base())
            .axis(Axis::values(Parameter::Phi, vec![0.5]));
        assert!(bad.expand().is_err());
        let orphan_nodes = SweepSpec::new("t", figure7_base())
            .axis(Axis::values(Parameter::Nodes, vec![1e4]));
        assert!(orphan_nodes.expand().is_err());
        let empty = SweepSpec::new("t", figure7_base())
            .axis(Axis::values(Parameter::Alpha, vec![]));
        assert!(empty.expand().is_err());
    }

    #[test]
    fn model_only_run_covers_every_task() {
        let spec = SweepSpec::new("t", figure7_base())
            .axis(Axis::linspace(Parameter::Alpha, 0.0, 1.0, 3));
        let results = spec.run().unwrap();
        assert_eq!(results.grid_points(), 3);
        assert_eq!(results.results.len(), 9);
        assert_eq!(results.total_replications(), 0);
        for r in &results.results {
            assert!(r.model_waste >= 0.0 && r.model_waste <= 1.0);
            assert!(r.sim.is_none());
            assert!(r.paired.is_none());
            assert!(r.expected_failures.is_finite());
        }
    }

    #[test]
    fn parallel_and_serial_runs_agree_exactly() {
        let spec = SweepSpec::new("t", figure7_base())
            .axis(Axis::values(Parameter::Mtbf, vec![minutes(90.0), minutes(180.0)]))
            .axis(Axis::values(Parameter::Alpha, vec![0.2, 0.8]))
            .replications(20);
        let par = spec.run().unwrap();
        let ser = spec.run_serial().unwrap();
        assert_eq!(par.results, ser.results);
        // And the whole run is reproducible.
        let again = spec.run().unwrap();
        assert_eq!(par.results, again.results);
    }

    #[test]
    fn the_footer_reports_the_threads_the_grid_ran_on() {
        let spec = SweepSpec::new("t", figure7_base())
            .axis(Axis::linspace(Parameter::Alpha, 0.0, 1.0, 3));
        let args = Args::from_vec(["--serial", "--replications", "2"].map(String::from).to_vec());
        let serial = run_cli(spec.clone(), &args);
        assert_eq!(serial.threads, 1);
        let footer = run_footer(&serial);
        assert!(footer.ends_with(" on 1 thread"), "{footer}");
        let par = spec.run().unwrap();
        assert_eq!(par.threads, rayon::current_num_threads().min(9));
        let one_task = SweepSpec::new("t", figure7_base())
            .protocols(vec![Protocol::PurePeriodicCkpt])
            .run()
            .unwrap();
        assert_eq!(one_task.threads, 1);
    }

    #[test]
    fn task_seeds_differ_per_point_and_protocol() {
        let a = task_seed(42, 0, Some(Protocol::PurePeriodicCkpt));
        let b = task_seed(42, 1, Some(Protocol::PurePeriodicCkpt));
        let c = task_seed(42, 0, Some(Protocol::AbftPeriodicCkpt));
        let d = task_seed(43, 0, Some(Protocol::PurePeriodicCkpt));
        let e = task_seed(42, 0, None);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
        assert_ne!(a, e);
        assert_eq!(a, task_seed(42, 0, Some(Protocol::PurePeriodicCkpt)));
    }

    #[test]
    fn scenario_sweeps_reproduce_the_scaling_point_values() {
        let scenario = ft_composite::scaling::WeakScalingScenario::figure8();
        let spec = SweepSpec::scaling("fig8", scenario)
            .axis(Axis::decades(Parameter::Nodes, 3, 6, 1));
        let results = spec.run().unwrap();
        assert_eq!(results.grid_points(), 4);
        for (i, &nodes) in paper_node_counts().iter().enumerate() {
            let sp = scenario.point(nodes).unwrap();
            let pure = results.waste_at(i, Protocol::PurePeriodicCkpt).unwrap();
            assert!((pure - sp.pure.waste.value()).abs() < 1e-12);
            let composite = results.waste_at(i, Protocol::AbftPeriodicCkpt).unwrap();
            assert!((composite - sp.composite.waste.value()).abs() < 1e-12);
        }
        // The crossover matches the direct evaluation (§V-C: near 10⁵).
        let x = results.crossover(Parameter::Nodes).unwrap();
        assert!(x >= 1e5, "crossover at {x}");
    }

    #[test]
    fn scenario_simulation_arm_is_commensurable_with_the_scenario_model() {
        // The model arm amortizes checkpoints over the scenario's epoch
        // count; the simulation arm must unfold the same application, so on
        // a calm point the two wastes agree closely.
        let scenario = ft_composite::scaling::WeakScalingScenario {
            epochs: 4,
            ..ft_composite::scaling::WeakScalingScenario::figure8()
        };
        let spec = SweepSpec::scaling("t", scenario)
            .axis(Axis::values(Parameter::Nodes, vec![100_000.0]))
            .protocols(vec![Protocol::AbftPeriodicCkpt])
            .replications(20);
        let results = spec.run().unwrap();
        let r = &results.results[0];
        let sim = r.sim.expect("simulation arm ran");
        assert!(
            (sim.mean_waste - r.model_waste).abs() < 0.02,
            "sim {} vs model {}",
            sim.mean_waste,
            r.model_waste
        );
    }

    #[test]
    fn simulation_arm_reports_statistics_and_gaps() {
        let spec = SweepSpec::new("t", figure7_base())
            .axis(Axis::values(Parameter::Alpha, vec![0.5]))
            .protocols(vec![Protocol::AbftPeriodicCkpt])
            .replications(50);
        let results = spec.run().unwrap();
        assert_eq!(results.results.len(), 1);
        let r = &results.results[0];
        let sim = r.sim.expect("simulation arm ran");
        assert_eq!(sim.replications, 50);
        assert_eq!(results.total_replications(), 50);
        assert!(sim.mean_waste > 0.0 && sim.mean_waste < 1.0);
        assert!(results.worst_model_sim_gap().unwrap() < 0.06);
        let table = results.to_table();
        assert!(!table.is_empty());
    }

    #[test]
    fn adaptive_budget_uses_fewer_replications_per_easy_point() {
        let spec = SweepSpec::new("t", figure7_base())
            .axis(Axis::values(Parameter::Alpha, vec![0.3, 0.8]))
            .protocols(vec![Protocol::AbftPeriodicCkpt])
            .budget(ReplicationBudget::Adaptive {
                rel_precision: 0.05,
                min: 50,
                max: 1_000,
            });
        let results = spec.run().unwrap();
        for r in &results.results {
            let sim = r.sim.expect("adaptive budgets always simulate");
            assert!(sim.replications >= 50);
            assert!(
                sim.replications < 1_000,
                "5 % precision should stop early, used {}",
                sim.replications
            );
            assert!(sim.ci95_waste <= 0.05 * sim.mean_waste);
        }
        // The rendered table reports the replications actually used.
        let table = results.to_table();
        assert!(results.render(OutputFormat::Csv).lines().next().unwrap().contains("reps"));
        assert!(!table.is_empty());
    }

    #[test]
    fn paired_sweeps_report_deltas_and_match_serial_execution() {
        let spec = SweepSpec::new("t", figure7_base())
            .axis(Axis::values(Parameter::Alpha, vec![0.8]))
            .replications(60)
            .paired(true);
        let par = spec.run().unwrap();
        let ser = spec.run_serial().unwrap();
        assert_eq!(par.results, ser.results);
        assert_eq!(par.results.len(), 3);
        // Baseline row (pure) carries no delta; the others do.
        assert!(par.results[0].paired.is_none());
        for r in &par.results[1..] {
            let d = r.paired.expect("non-baseline rows carry a delta");
            assert_eq!(d.baseline, Protocol::PurePeriodicCkpt);
            let sim = r.sim.unwrap();
            let marginal = sim.mean_waste - par.results[0].sim.unwrap().mean_waste;
            assert!((d.mean - marginal).abs() < 1e-12);
            // CRN pairing: the delta interval is no wider than the
            // independent-runs interval.
            let independent = (sim.ci95_waste.powi(2)
                + par.results[0].sim.unwrap().ci95_waste.powi(2))
            .sqrt();
            assert!(d.ci95 <= independent, "paired {} vs independent {independent}", d.ci95);
        }
        let csv = par.render(OutputFormat::Csv);
        assert!(csv.lines().next().unwrap().contains("paired_delta"));
    }

    /// A hand-built result set: `wastes[i] = (pure, composite)` per point.
    fn synthetic(
        axes: Vec<Parameter>,
        points: Vec<Vec<(Parameter, f64)>>,
        wastes: &[(f64, f64)],
    ) -> SweepResults {
        let results = wastes
            .iter()
            .enumerate()
            .flat_map(|(i, &(pure, composite))| {
                [
                    (Protocol::PurePeriodicCkpt, pure),
                    (Protocol::AbftPeriodicCkpt, composite),
                ]
                .map(|(protocol, waste)| PointResult {
                    index: i,
                    protocol,
                    model_waste: waste,
                    expected_failures: 0.0,
                    sim: None,
                    paired: None,
                })
            })
            .collect();
        SweepResults {
            name: "synthetic".into(),
            budget: ReplicationBudget::Fixed(0),
            paired: false,
            failure: FailureSpec::Exponential,
            failure_scenario: ScenarioSpec::Iid,
            antithetic: false,
            model_gap: false,
            axes,
            points,
            elapsed_seconds: 0.0,
            threads: 1,
            results,
        }
    }

    #[test]
    fn crossover_walks_the_axis_slice_not_raw_grid_order() {
        // 3 MTBF x 2 alpha grid, last axis fastest.  The composite wins at
        // (mtbf=100, alpha=0.9) — a point of a *different* alpha slice that
        // raw grid order visits early — and genuinely crosses over on the
        // origin slice (alpha = 0.1) between mtbf 200 and 300.  The old
        // first-satisfying-point walk reported 100; the slice walk must
        // report the true sign change at 300.
        let mut points = Vec::new();
        for mtbf in [100.0, 200.0, 300.0] {
            for alpha in [0.1, 0.9] {
                points.push(vec![(Parameter::Mtbf, mtbf), (Parameter::Alpha, alpha)]);
            }
        }
        let wastes = [
            (0.5, 0.6), // (100, 0.1): pure wins
            (0.5, 0.4), // (100, 0.9): composite wins — wrong slice!
            (0.5, 0.6), // (200, 0.1): pure wins
            (0.5, 0.4), // (200, 0.9)
            (0.5, 0.4), // (300, 0.1): composite wins — the real crossover
            (0.5, 0.4), // (300, 0.9)
        ];
        let results = synthetic(
            vec![Parameter::Mtbf, Parameter::Alpha],
            points,
            &wastes,
        );
        assert_eq!(results.crossover(Parameter::Mtbf), Some(300.0));
        assert_eq!(results.crossover_bracket(Parameter::Mtbf), Some((200.0, 300.0)));
        // The alpha axis' origin slice (mtbf = 100) has its own sign change
        // between alpha 0.1 and 0.9.
        assert_eq!(results.crossover(Parameter::Alpha), Some(0.9));
        // An axis that was never swept has no slice at all.
        assert_eq!(results.crossover(Parameter::Rho), None);
    }

    #[test]
    fn crossover_requires_a_true_sign_change_and_sorts_the_axis() {
        let points = |values: &[f64]| {
            values
                .iter()
                .map(|&v| vec![(Parameter::Nodes, v)])
                .collect::<Vec<_>>()
        };
        // Composite dominant from the first point: no sign change in range.
        let dominant = synthetic(
            vec![Parameter::Nodes],
            points(&[1e3, 1e4, 1e5]),
            &[(0.5, 0.4), (0.5, 0.4), (0.5, 0.3)],
        );
        assert_eq!(
            dominant.crossover_outcome(Parameter::Nodes),
            CrossoverOutcome::CompositeDominant
        );
        assert_eq!(dominant.crossover(Parameter::Nodes), None);
        // Composite never wins.
        let never = synthetic(
            vec![Parameter::Nodes],
            points(&[1e3, 1e4]),
            &[(0.5, 0.6), (0.5, 0.7)],
        );
        assert_eq!(never.crossover_outcome(Parameter::Nodes), CrossoverOutcome::NoCrossover);
        assert_eq!(never.crossover(Parameter::Nodes), None);
        // Axis values declared in descending order: the walk is by ascending
        // coordinate, so the crossover is still the smallest winning value.
        let descending = synthetic(
            vec![Parameter::Nodes],
            points(&[1e5, 1e4, 1e3]),
            &[(0.5, 0.4), (0.5, 0.4), (0.5, 0.6)],
        );
        assert_eq!(descending.crossover(Parameter::Nodes), Some(1e4));
        assert_eq!(descending.crossover_bracket(Parameter::Nodes), Some((1e3, 1e4)));
    }

    #[test]
    fn weibull_shape_axis_drives_the_simulation_clock() {
        let spec = SweepSpec::new("t", figure7_base())
            .axis(Axis::values(Parameter::WeibullShape, vec![0.7, 1.0]))
            .protocols(vec![Protocol::AbftPeriodicCkpt])
            .replications(30);
        let results = spec.run().unwrap();
        assert_eq!(results.grid_points(), 2);
        let shape07 = results.results[0].sim.unwrap();
        let shape10 = results.results[1].sim.unwrap();
        // Different shapes, same seed stream: genuinely different adversity.
        assert_ne!(shape07.mean_waste, shape10.mean_waste);
        // The model arm follows the clock: the k = 0.7 point carries the
        // Weibull-corrected (lower) prediction, the k = 1 point the
        // exponential one, bit for bit.
        assert!(results.results[0].model_waste < results.results[1].model_waste);
        assert_eq!(results.model_label(0), "weibull-corrected(k=0.7)");
        let exponential_model = ft_sim::validate::model_waste(
            Protocol::AbftPeriodicCkpt,
            &figure7_base(),
        );
        assert_eq!(results.results[1].model_waste.to_bits(), exponential_model.to_bits());
        // Weibull with k = 1 degenerates to the exponential clock (up to the
        // ulp-level rounding of the Lanczos Γ(2) in the scale calibration).
        let exponential = SweepSpec::new("t", figure7_base())
            .protocols(vec![Protocol::AbftPeriodicCkpt])
            .replications(30)
            .run()
            .unwrap();
        // Seeds differ per point index; compare against a one-point weibull
        // sweep so the indices line up.
        let k1 = SweepSpec::new("t", figure7_base())
            .axis(Axis::values(Parameter::WeibullShape, vec![1.0]))
            .protocols(vec![Protocol::AbftPeriodicCkpt])
            .replications(30)
            .run()
            .unwrap();
        let (a, b) = (
            k1.results[0].sim.unwrap().mean_waste,
            exponential.results[0].sim.unwrap().mean_waste,
        );
        assert!((a - b).abs() < 1e-9, "k=1 {a} vs exponential {b}");
    }

    #[test]
    fn sweep_wide_weibull_spec_and_invalid_shapes() {
        let weibull = SweepSpec::new("t", figure7_base())
            .axis(Axis::values(Parameter::Alpha, vec![0.5]))
            .protocols(vec![Protocol::AbftPeriodicCkpt])
            .failure_model(FailureSpec::Weibull { shape: 0.7 })
            .replications(25);
        let exponential = weibull.clone().failure_model(FailureSpec::Exponential);
        let w = weibull.run().unwrap();
        assert_eq!(w.failure, FailureSpec::Weibull { shape: 0.7 });
        let e = exponential.run().unwrap();
        assert_ne!(
            w.results[0].sim.unwrap().mean_waste,
            e.results[0].sim.unwrap().mean_waste
        );
        // Invalid shapes are rejected at expansion, not mid-grid.
        assert!(weibull
            .clone()
            .failure_model(FailureSpec::Weibull { shape: 0.0 })
            .expand()
            .is_err());
        let bad_axis = SweepSpec::new("t", figure7_base())
            .axis(Axis::values(Parameter::WeibullShape, vec![0.7, -1.0]));
        assert!(bad_axis.expand().is_err());
    }

    #[test]
    fn antithetic_sweeps_pair_seeds_and_tighten_intervals() {
        let base = SweepSpec::new("t", figure7_base())
            .axis(Axis::values(Parameter::Alpha, vec![0.5]))
            .protocols(vec![Protocol::PurePeriodicCkpt]);
        let anti = base.clone().replications(100).antithetic(true).run().unwrap();
        let plain = base.replications(200).run().unwrap();
        assert!(anti.antithetic);
        // 100 pair samples = 200 executions, matching the plain run.
        assert_eq!(anti.total_replications(), 100);
        assert_eq!(anti.total_executions(), 200);
        assert_eq!(plain.total_executions(), 200);
        let (a, p) = (anti.results[0].sim.unwrap(), plain.results[0].sim.unwrap());
        assert!((a.mean_waste - p.mean_waste).abs() < 0.01);
        assert!(
            a.ci95_waste < p.ci95_waste,
            "antithetic {} vs plain {}",
            a.ci95_waste,
            p.ci95_waste
        );
        // Reproducible, and paired mode composes with antithetic pairing.
        assert_eq!(anti.results, anti.clone().results);
        let paired = SweepSpec::new("t", figure7_base())
            .axis(Axis::values(Parameter::Alpha, vec![0.5]))
            .replications(40)
            .paired(true)
            .antithetic(true)
            .run()
            .unwrap();
        assert_eq!(paired.results.len(), 3);
        for r in &paired.results[1..] {
            assert!(r.paired.is_some());
        }
    }

    #[test]
    fn model_gap_columns_and_summary_follow_the_failure_spec() {
        let spec = SweepSpec::new("t", figure7_base())
            .axis(Axis::values(Parameter::Alpha, vec![0.5]))
            .protocols(vec![Protocol::PurePeriodicCkpt])
            .replications(150)
            .model_gap(true);
        let exponential = spec.clone().run().unwrap();
        let weibull = spec
            .failure_model(FailureSpec::Weibull { shape: 0.7 })
            .run()
            .unwrap();
        // Gap bookkeeping: gap, its CI (the simulated waste's Welford CI)
        // and significance are exposed per task.
        let r = &exponential.results[0];
        assert_eq!(r.model_sim_gap_ci95(), Some(r.sim.unwrap().ci95_waste));
        assert!(r.model_sim_gap_significant().is_some());
        // The Weibull-corrected model arm tracks the Weibull clock far
        // better than the exponential formula would: its |gap| must be
        // well below the correction it applies.
        let exp_model = r.model_waste;
        let weibull_r = &weibull.results[0];
        assert!(weibull_r.model_waste < exp_model);
        let corrected_gap = weibull_r.model_sim_gap().unwrap().abs();
        let uncorrected_gap = (weibull_r.sim.unwrap().mean_waste - exp_model).abs();
        assert!(
            corrected_gap < uncorrected_gap,
            "corrected {corrected_gap} vs uncorrected {uncorrected_gap}"
        );
        // Rendered output carries the gap columns and the model label.
        let csv = weibull.render(OutputFormat::Csv);
        let header = csv.lines().next().unwrap();
        assert!(header.contains("model") && header.contains("gap_rel") && header.contains("gap_sig"));
        assert!(csv.contains("weibull-corrected(k=0.7)"));
        assert_eq!(weibull.model_label(0), "weibull-corrected(k=0.7)");
        assert!(weibull.mean_abs_model_sim_gap().is_some());
        let (significant, total) = weibull.significant_gap_counts();
        assert_eq!(total, 1);
        assert!(significant <= total);
    }

    #[test]
    fn model_seeded_refinement_spends_fewer_simulated_probes() {
        let budget = ReplicationBudget::AdaptiveDelta {
            rel_precision: 0.05,
            min: 40,
            max: 400,
        };
        let spec = SweepSpec::scaling("t", WeakScalingScenario::figure9()).budget(budget);
        let seeded = CrossoverRefiner::new(spec.clone(), Parameter::Nodes)
            .tolerance(0.02)
            .refine(1e5, 1e6)
            .unwrap();
        let unseeded = CrossoverRefiner::new(spec, Parameter::Nodes)
            .tolerance(0.02)
            .model_seed(false)
            .refine(1e5, 1e6)
            .unwrap();
        assert!(seeded.converged && unseeded.converged);
        assert!(seeded.model_crossover.is_some());
        assert!(unseeded.model_crossover.is_none());
        // Both land on compatible crossovers…
        let gap = (seeded.crossover - unseeded.crossover).abs() / unseeded.crossover;
        assert!(gap < 0.05, "seeded {} vs unseeded {}", seeded.crossover, unseeded.crossover);
        // …but the seeded run bisects a window around the model crossover
        // instead of the full decade bracket: fewer simulated probes and
        // fewer simulated executions.
        assert!(
            seeded.probes.len() < unseeded.probes.len(),
            "seeded {} probes vs unseeded {}",
            seeded.probes.len(),
            unseeded.probes.len()
        );
        assert!(seeded.total_replications() < unseeded.total_replications());
    }

    #[test]
    fn bias_aware_window_survives_the_fig9_weibull_model_bias() {
        // Under a Weibull k=0.7 clock the fig9 model crossover used to sit
        // ~13 % from the simulated one, so the fixed 5 % seed window was
        // rejected and wasted its two verification probes.  The blended
        // rework law shrank that bias to ~3 %, so the real-world rejection
        // case is gone (asserted below — the fixed window now survives);
        // the reject-then-fall-back path is pinned instead with a window
        // deliberately sized from a far-too-small bias, and the window
        // sized from the seeding grid's *measured* bias must survive it.
        let mut spec = SweepSpec::scaling("t", WeakScalingScenario::figure9()).seed(42);
        spec.failure = FailureSpec::Weibull { shape: 0.7 };
        spec.budget = ReplicationBudget::AdaptiveDelta {
            rel_precision: 0.05,
            min: 100,
            max: 1000,
        };
        let seeding = SweepSpec {
            budget: ReplicationBudget::Fixed(0),
            paired: false,
            axes: vec![Axis::decades(Parameter::Nodes, 3, 6, 1)],
            protocols: vec![Protocol::PurePeriodicCkpt, Protocol::AbftPeriodicCkpt],
            ..spec.clone()
        };
        let (below, above) = seeding
            .run()
            .unwrap()
            .crossover_bracket(Parameter::Nodes)
            .unwrap();
        let gap = SweepSpec {
            budget: spec.budget,
            ..seeding
        }
        .model_gap(true)
        .with_simulation_arm()
        .run()
        .unwrap();
        let bias = gap
            .crossover_model_sim_bias(Parameter::Nodes)
            .expect("the simulated seeding grid measures a crossover bias");

        // A tight tolerance keeps the model bracket (and with it the
        // `3 × bracket` component of the window margin) far below the
        // measured bias, so an under-sized bias is *guaranteed* to produce
        // a window the simulation rejects.
        let refiner = CrossoverRefiner::new(spec, Parameter::Nodes).tolerance(0.002);
        let fixed = refiner.refine_with_bias(below, above, None).unwrap();
        assert!(
            fixed.model_crossover.is_some(),
            "the blended rework law holds the fig9 k=0.7 model bias inside \
             the fixed 5% margin — the fixed window must now survive"
        );
        let narrow = refiner.refine_with_bias(below, above, Some(1.0)).unwrap();
        assert!(
            narrow.model_crossover.is_none(),
            "a window sized from a 1-node bias cannot contain the simulated \
             crossover — it must be rejected and fall back to the bracket"
        );
        let aware = refiner.refine_with_bias(below, above, Some(bias)).unwrap();
        assert!(aware.model_crossover.is_some(), "bias-sized window rejected");
        // The accepted window skips the rejected attempt's wasted
        // verification probes and the full-bracket bisection they force.
        assert!(
            aware.probes.len() < narrow.probes.len(),
            "bias-aware {} probes vs rejected-window {}",
            aware.probes.len(),
            narrow.probes.len()
        );
        assert!(aware.total_replications() < narrow.total_replications());
        // All runs still localise compatible crossovers inside the bracket.
        let gap_rel = (aware.crossover - narrow.crossover).abs() / narrow.crossover;
        assert!(gap_rel < 0.05, "aware {} vs rejected {}", aware.crossover, narrow.crossover);
        // refine_from wires the measured bias through end to end.
        let from_grid = refiner.refine_from(&gap).unwrap();
        assert!(from_grid.model_crossover.is_some());
    }

    #[test]
    fn refiner_localises_the_model_crossover_of_fig9() {
        let spec = SweepSpec::scaling("t", WeakScalingScenario::figure9());
        let grid = SweepSpec {
            axes: vec![Axis::decades(Parameter::Nodes, 3, 6, 1)],
            ..spec.clone()
        }
        .run()
        .unwrap();
        let refiner = CrossoverRefiner::new(spec, Parameter::Nodes).tolerance(0.01);
        let refinement = refiner.refine_from(&grid).unwrap();
        assert!(refinement.converged);
        assert!(refinement.achieved_tolerance <= 0.01);
        // Model probes are exact and free.
        assert_eq!(refinement.total_replications(), 0);
        assert!(refinement.probes.iter().all(|p| p.decided));
        // The located coordinate separates the two regimes: the bracket ends
        // carry opposite signs by construction.
        let (pure_at, composite_at) = refinement.bracket;
        assert!(pure_at < refinement.crossover && refinement.crossover < composite_at);
        assert!(refinement.crossover > 1e5 && refinement.crossover < 2e5);
        // A degenerate "bracket" with equal signs is rejected.
        let refiner = CrossoverRefiner::new(
            SweepSpec::scaling("t", WeakScalingScenario::figure9()),
            Parameter::Nodes,
        );
        assert!(refiner.refine(1e3, 1e4).is_err());
        assert!(refiner.refine(-1.0, 1e4).is_err());
    }

    #[test]
    fn rendering_covers_all_three_formats() {
        let spec = SweepSpec::new("t", figure7_base())
            .axis(Axis::values(Parameter::Alpha, vec![0.0, 1.0]))
            .protocols(vec![Protocol::PurePeriodicCkpt]);
        let results = spec.run().unwrap();
        let text = results.render(OutputFormat::Table);
        assert!(text.contains("model_waste"));
        let csv = results.render(OutputFormat::Csv);
        assert!(csv.lines().next().unwrap().starts_with("alpha,protocol"));
        let json = results.render(OutputFormat::Json);
        assert!(json.trim_start().starts_with('['));
        assert!(json.contains("\"model_waste\""));
    }
}
