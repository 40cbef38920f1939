//! Regenerates Figure 7 of the paper: the waste of the three protocols as a
//! function of the platform MTBF (60–240 min) and of the LIBRARY-phase
//! fraction α (0–1), as predicted by the model (Figures 7a/7c/7e) and as
//! measured by the simulator, plus the difference between the two
//! (Figures 7b/7d/7f).
//!
//! ```text
//! cargo run -p ft-bench --release --bin fig7 -- \
//!     [--protocol pure|bi|abft|all] [--mtbf-points 7] [--alpha-points 6] \
//!     [--replications 200 | --precision 0.02 [--min-replications 100] [--max-replications 10000]] \
//!     [--paired] [--antithetic] [--model-gap] [--failure-model weibull --weibull-shape 0.7] \
//!     [--seed 42] [--threads N] [--format table|csv|json]
//! ```
//!
//! `--precision` switches to adaptive sequential stopping (each point stops
//! replicating once the waste CI95 meets the target); `--paired` replays the
//! same failure traces to all protocols and adds paired-delta columns.

use ft_bench::{figure7_base, run_cli, Args, Axis, Parameter, SweepSpec};
use ft_platform::units::minutes;
use ft_sim::Protocol;

fn main() {
    let args = Args::capture();
    let protocols = match args.string("--protocol", "all").as_str() {
        "all" => Protocol::all().to_vec(),
        name => match Protocol::parse(name) {
            Some(p) => vec![p],
            None => {
                eprintln!("unknown value `{name}` for --protocol; use pure|bi|abft|all");
                std::process::exit(2);
            }
        },
    };
    let spec = SweepSpec::new(
        "Figure 7 — T0 = 1 week, C = R = 10 min, D = 1 min, rho = 0.8, phi = 1.03, Recons = 2 s",
        figure7_base(),
    )
    .axis(Axis::linspace(
        Parameter::Mtbf,
        minutes(60.0),
        minutes(240.0),
        args.count("--mtbf-points", 7),
    ))
    .axis(Axis::linspace(
        Parameter::Alpha,
        0.0,
        1.0,
        args.count("--alpha-points", 6),
    ))
    .protocols(protocols)
    .replications(200);
    let results = run_cli(spec, &args);
    if let Some(worst) = results.worst_model_sim_gap() {
        println!("# worst |sim - model| across the grid: {worst:.4}");
    }
}
