//! Quickstart: evaluate the three fault-tolerance protocols on the paper's
//! headline scenario, with both the analytical model and the simulator.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use abft_ckpt_composite::composite::model;
use abft_ckpt_composite::composite::params::ModelParams;
use abft_ckpt_composite::composite::scenario::ApplicationProfile;
use abft_ckpt_composite::sim::{
    accumulate_paired_programs_batch, BatchProgram, Engine, Protocol, ReplicationBudget, SimStats,
    DEFAULT_BATCH_LANES,
};
use ft_platform::units::{format_duration, minutes, weeks};

fn main() {
    // One week of work, C = R = 10 min, D = 1 min, rho = 0.8, phi = 1.03,
    // 2-hour platform MTBF, 80% of the time spent in an ABFT-able library.
    let params = ModelParams::builder()
        .epoch_duration(weeks(1.0))
        .alpha(0.8)
        .checkpoint_cost(minutes(10.0))
        .recovery_cost(minutes(10.0))
        .downtime(minutes(1.0))
        .rho(0.8)
        .phi(1.03)
        .abft_reconstruction(2.0)
        .platform_mtbf(minutes(120.0))
        .build()
        .expect("valid parameters");

    println!("Scenario: {} of work, MTBF {}, checkpoint {}, alpha = {}",
        format_duration(params.epoch_duration),
        format_duration(params.platform_mtbf),
        format_duration(params.checkpoint_cost),
        params.alpha);

    let model_pure = model::pure::waste(&params).expect("model");
    let model_bi = model::bi::waste(&params).expect("model");
    let model_abft = model::composite::waste(&params).expect("model");

    println!("\nAnalytical model (Section IV):");
    println!("  PurePeriodicCkpt   waste = {:>6.2} %", model_pure.percent());
    println!("  BiPeriodicCkpt     waste = {:>6.2} %", model_bi.percent());
    println!("  ABFT&PeriodicCkpt  waste = {:>6.2} %", model_abft.percent());

    // One paired run: every replication replays the same failure sequence
    // to all three protocols (common random numbers), on every core.
    let engine = Engine::new(&params);
    let profile = ApplicationProfile::from_params(&params);
    let protocols = Protocol::all();
    let programs = protocols.map(|p| BatchProgram::compile(p, &profile, engine.plan()));
    let paired = accumulate_paired_programs_batch(
        &engine,
        &protocols,
        &programs.each_ref(),
        ReplicationBudget::Fixed(500),
        2024,
        DEFAULT_BATCH_LANES,
        0,
    );

    println!("\nSimulation (500 replications each, on shared failure traces):");
    for (&protocol, acc) in protocols.iter().zip(&paired.outcomes) {
        let stats = SimStats::from_accumulator(protocol, acc);
        println!(
            "  {:<18} waste = {:>6.2} % (+/- {:.2}), {:.1} failures per run",
            stats.protocol.name(),
            stats.mean_waste * 100.0,
            stats.ci95_waste * 100.0,
            stats.mean_failures
        );
    }
    let gain = paired
        .delta(Protocol::AbftPeriodicCkpt)
        .expect("composite is not the baseline");
    println!(
        "  composite - pure, paired per trace: {:+.2} % (+/- {:.2})",
        gain.mean() * 100.0,
        gain.ci95_half_width() * 100.0
    );

    println!("\nThe composite protocol keeps the platform busy: it disables periodic");
    println!("checkpoints during the ABFT-protected library call and recovers library");
    println!("data algorithmically instead of rolling back.");
}
