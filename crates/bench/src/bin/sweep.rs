//! Generic one-dimensional sweep driver: varies one model parameter around
//! the paper's headline scenario and prints model and simulated waste for
//! the three protocols.  Useful for exploring the sensitivity of the
//! comparison to parameters the figures keep fixed (ρ, φ, C, D, Recons).
//!
//! ```text
//! cargo run -p ft-bench --release --bin sweep -- \
//!     --parameter rho|phi|checkpoint|downtime|recons|alpha|mtbf|weibull_shape \
//!     [--from 0.1] [--to 1.0] [--steps 10] \
//!     [--replications 100 | --precision 0.02 | --delta-precision 0.05] \
//!     [--paired] [--antithetic] [--model-gap] [--failure-model weibull --weibull-shape 0.7] \
//!     [--scenario trace[:<path>]|cascade|diurnal|wearout] \
//!     [--epochs 1] [--threads N] [--format table|csv|json]
//! ```
//!
//! `--precision` enables adaptive sequential stopping, `--paired` pairs the
//! protocols on common failure traces (tight CIs on waste differences),
//! `--delta-precision` stops each point on the paired waste *differences*
//! instead.  `--parameter weibull_shape` sweeps the failure clock's Weibull
//! shape (the robustness-study axis); `--failure-model weibull` switches
//! the clock for any other sweep.  `--scenario` replaces the simulation
//! clock with a recorded-trace playback or a synthesized non-stationary
//! source (cascade bursts, diurnal modulation, wear-out) while the model
//! arm keeps the matched-MTBF i.i.d. prediction — see docs/TRACES.md.

use ft_bench::{figure7_base, run_cli, Args, Axis, Parameter, SweepSpec};

fn main() {
    let args = Args::capture();
    let name = args.string("--parameter", "rho");
    let parameter = Parameter::parse(&name).unwrap_or_else(|| {
        eprintln!(
            "unknown parameter `{name}`; use rho|phi|checkpoint|downtime|recons|alpha|mtbf|weibull_shape"
        );
        std::process::exit(2);
    });
    let (default_from, default_to) = parameter.default_range();
    let spec = SweepSpec::new(
        format!("Sweep of `{name}` around the paper's headline scenario"),
        figure7_base(),
    )
    .axis(Axis::linspace(
        parameter,
        args.value("--from", default_from),
        args.value("--to", default_to),
        args.count("--steps", 10),
    ))
    .replications(100);
    run_cli(spec, &args);
}
