//! Crossover refinement driver: localises *where* the composite protocol
//! starts beating pure periodic checkpointing — the headline annotation of
//! Figures 8–10 — to a requested relative tolerance, instead of the grid
//! resolution the figure binaries report.
//!
//! A cheap model-arm seeding sweep brackets the crossover at grid
//! resolution, then a [`CrossoverRefiner`] bisects the bracket: a free
//! analytic-model bisection first shrinks it to a window around the
//! model-predicted crossover (the model arm follows the failure spec —
//! Weibull-corrected under a Weibull clock — so this works on every axis,
//! `weibull_shape` included), and paired-delta adaptive probes bisect only
//! that window: each probe replays common failure traces to
//! `PurePeriodicCkpt` and `AbftPeriodicCkpt` and stops as soon as the sign
//! of the waste difference is resolved, so the whole refinement costs far
//! fewer simulated executions than re-scanning a finer grid with a fixed
//! budget.
//!
//! ```text
//! cargo run -p ft-bench --release --bin crossover -- \
//!     [--target fig8|fig9|fig10] [--axis nodes|mtbf|alpha|...] \
//!     [--tolerance 0.01] [--precision 0.05] \
//!     [--min-replications 100] [--max-replications 1000] [--max-probes 40] \
//!     [--sign-repeats 3] \
//!     [--failure-model exponential|weibull --weibull-shape 0.7] \
//!     [--batch-lanes 128] [--point-threads 1] \
//!     [--model-only] [--model-gap] [--compare-fixed 1000] [--json] [--seed 42]
//! ```
//!
//! `--model-only` probes the closed-form model instead of simulating
//! (exact and essentially free).  `--model-gap` also simulates the seeding
//! grid and prints the model−simulation gap columns and summary — a
//! validation of the model arm the seeded bisection trusts.
//! `--compare-fixed N` additionally runs the
//! seeding grid as a paired fixed-`N` scan and reports both execution
//! counts — the `BENCH_crossover.json` payload.  `--json` prints the
//! machine-readable summary line.
//!
//! `--batch-lanes` and `--point-threads` pick the lane width and intra-probe
//! threads of the batch engine the probes run on (`--batch-lanes 1` runs
//! one-lane batches), as on the sweep CLIs; the output is identical at
//! every setting.

use ft_bench::experiment::{failure_spec_from_args, format_value};
use ft_bench::{
    figure7_base, report_crossover, Args, Axis, CrossoverRefiner, Parameter, SweepSpec, Table,
};
use ft_composite::scaling::WeakScalingScenario;
use ft_sim::{Protocol, ReplicationBudget};

fn main() {
    let args = Args::capture();
    let target = args.string("--target", "fig9");
    let axis_name = args.string("--axis", "nodes");
    let axis = Parameter::parse(&axis_name).unwrap_or_else(|| {
        eprintln!("unknown --axis `{axis_name}`; use one of the sweep parameters (e.g. nodes, mtbf, alpha)");
        std::process::exit(2);
    });

    // The experiment the refinement runs inside: a Figures 8–10 weak-scaling
    // scenario for the node-count axis, the paper's headline base point for
    // every other axis.
    let (spec, grid_axis) = if axis == Parameter::Nodes {
        let scenario = match target.as_str() {
            "fig8" => WeakScalingScenario::figure8(),
            "fig9" => WeakScalingScenario::figure9(),
            "fig10" => WeakScalingScenario::figure10(),
            other => {
                eprintln!("unknown --target `{other}`; use fig8|fig9|fig10");
                std::process::exit(2);
            }
        };
        let ppd = args.value("--points-per-decade", 1);
        (
            SweepSpec::scaling(format!("Crossover refinement — {target}"), scenario),
            Axis::decades(Parameter::Nodes, 3, 6, ppd),
        )
    } else {
        let (from, to) = axis.default_range();
        (
            SweepSpec::new(
                format!("Crossover refinement — `{axis_name}` around the headline scenario"),
                figure7_base(),
            ),
            Axis::linspace(axis, args.value("--from", from), args.value("--to", to), 9),
        )
    };

    let mut spec = spec.seed(args.value("--seed", 42));
    if let Some(failure) = failure_spec_from_args(&args) {
        spec.failure = failure;
    }
    spec.batch_lanes = args.value("--batch-lanes", spec.batch_lanes);
    spec.point_threads = args.value("--point-threads", spec.point_threads);

    // Probe budget: paired-delta adaptive stopping unless the caller asked
    // for exact model probes.  (Model probes work on every axis, including
    // weibull_shape: the model arm dispatches to the Weibull-corrected
    // closed form, so it is no longer shape-blind.)
    spec.budget = if args.flag("--model-only") {
        ReplicationBudget::Fixed(0)
    } else {
        ReplicationBudget::AdaptiveDelta {
            rel_precision: args.value("--precision", 0.05),
            min: args.value("--min-replications", 100),
            max: args.value("--max-replications", 1_000),
        }
    };

    // 1. Seed: a free model-arm grid sweep brackets the crossover.  The
    // model arm follows the failure spec (Weibull-corrected closed form
    // under a Weibull clock), so every axis — including weibull_shape —
    // brackets analytically; the refinement then bisects with model probes
    // first and simulated probes only inside the model-located window.
    let seeding = SweepSpec {
        budget: ReplicationBudget::Fixed(0),
        paired: false,
        axes: vec![grid_axis],
        protocols: vec![Protocol::PurePeriodicCkpt, Protocol::AbftPeriodicCkpt],
        ..spec.clone()
    };
    let grid = seeding.run().unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    println!("# {}", spec.name);
    println!(
        "# seeding grid: {} points along `{}`, model arm ({} failures)",
        grid.grid_points(),
        axis.label(),
        spec.failure,
    );
    report_crossover(&grid, axis);

    // `--model-gap`: validate the model arm the refinement trusts by also
    // simulating the seeding grid and printing the gap columns + summary.
    let mut measured_bias = None;
    if args.flag("--model-gap") {
        let gap_grid = ft_bench::SweepSpec {
            budget: spec.budget,
            ..seeding.clone()
        }
        .model_gap(true)
        .with_simulation_arm();
        let results = gap_grid.run().unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        });
        print!("{}", results.render(ft_bench::output::OutputFormat::Table));
        if let Some(summary) = results.model_gap_summary() {
            println!("# model-simulation gap along the seeding grid: {summary}");
        }
        measured_bias = results.crossover_model_sim_bias(axis);
        if let Some(bias) = measured_bias {
            println!(
                "# measured crossover bias |sim - model| ~= {} along `{}`; sizing the model-seed window from it",
                format_value(axis, bias),
                axis.label(),
            );
        }
    }
    let Some((below, above)) = grid.crossover_bracket(axis) else {
        println!("# nothing to refine — widen the grid or change the scenario");
        return;
    };

    // 2. Bisect the bracket with paired-delta probes.
    let refiner = CrossoverRefiner::new(spec.clone(), axis)
        .tolerance(args.value("--tolerance", 0.01))
        .max_probes(args.value("--max-probes", 40))
        .sign_repeats(args.value("--sign-repeats", 1));
    let refinement = refiner
        .refine_with_bias(below, above, measured_bias)
        .unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        });

    let mut table = Table::new(&[axis.label(), "delta", "ci95", "traces", "winner", "decided"]);
    for p in &refinement.probes {
        table.push_row(vec![
            format_value(axis, p.value),
            format!("{:+.5}", p.delta),
            format!("{:.5}", p.ci95),
            format!("{}", p.replications),
            if p.composite_beats { "composite" } else { "pure" }.to_string(),
            format!("{}", p.decided),
        ]);
    }
    print!("{}", table.render());
    println!(
        "# crossover localised at {} ~= {} (bracket {}..{}, rel width {:.4} vs tolerance {:.4}, {}converged)",
        axis.label(),
        format_value(axis, refinement.crossover),
        format_value(axis, refinement.bracket.0),
        format_value(axis, refinement.bracket.1),
        refinement.achieved_tolerance,
        refinement.rel_tolerance,
        if refinement.converged { "" } else { "NOT " },
    );
    if let Some(confidence) = refinement.confidence {
        println!(
            "# bracket confidence: every sign decision correct with p >= {confidence:.4} \
             (sequential sign test, {} probe(s) per midpoint max)",
            refiner.sign_repeats,
        );
    }
    if let Some(model_crossover) = refinement.model_crossover {
        println!(
            "# model-seeded: free analytic bisection located {} ~= {} first; simulated probes only bisected a window around it",
            axis.label(),
            format_value(axis, model_crossover),
        );
    }
    println!(
        "# refinement cost: {} probes, {} shared traces, {} simulated executions (budget {})",
        refinement.probes.len(),
        refinement.total_executions() / 2,
        refinement.total_executions(),
        spec.budget,
    );

    // 3. Optional comparison: the historical approach, a paired fixed-N scan
    // of the same grid, which only localises the crossover to the grid
    // resolution.
    let compare_fixed: usize = args.value("--compare-fixed", 0);
    let fixed_scan = (compare_fixed > 0).then(|| {
        let scan = SweepSpec {
            budget: ReplicationBudget::Fixed(compare_fixed),
            paired: true,
            ..seeding.clone()
        };
        let results = scan.run().expect("the seeding grid already expanded");
        println!(
            "# fixed-{compare_fixed} grid scan: {} simulated executions, crossover at grid resolution only:",
            results.total_executions(),
        );
        report_crossover(&results, axis);
        results
    });

    if args.flag("--json") {
        let probes = refinement.probes.len();
        let (fixed_execs, fixed_crossover) = fixed_scan.as_ref().map_or((0, None), |r| {
            (r.total_executions(), r.crossover(axis))
        });
        println!(
            "{{\"bench\": \"crossover_refinement\", \"target\": \"{target}\", \
             \"axis\": \"{}\", \"failure_model\": \"{}\", \"budget\": \"{}\", \
             \"seed\": {}, \"grid_bracket\": [{below}, {above}], \
             \"crossover\": {}, \"bracket\": [{}, {}], \
             \"model_crossover\": {}, \
             \"rel_tolerance\": {}, \"achieved_tolerance\": {:.6}, \
             \"converged\": {}, \"probes\": {probes}, \
             \"refiner_executions\": {}, \"fixed_scan_replications\": {compare_fixed}, \
             \"fixed_scan_executions\": {fixed_execs}, \"fixed_scan_crossover\": {}}}",
            axis.label(),
            spec.failure,
            spec.budget,
            spec.seed,
            refinement.crossover,
            refinement.bracket.0,
            refinement.bracket.1,
            refinement
                .model_crossover
                .map_or("null".to_string(), |x| format!("{x}")),
            refinement.rel_tolerance,
            refinement.achieved_tolerance,
            refinement.converged,
            refinement.total_executions(),
            fixed_crossover.map_or("null".to_string(), |x| format!("{x}")),
        );
    }
}
