//! Helpers shared by the integration tests: per-lane failure sources for
//! `simulate_profile_batch`, and one protocol replicated alone on the
//! scalar reference driver or on the batch replication driver.

// Each integration test links this module and uses a subset of it.
#![allow(dead_code)]

use abft_ckpt_composite::composite::params::ModelParams;
use abft_ckpt_composite::composite::scenario::ApplicationProfile;
use abft_ckpt_composite::platform::batch::BatchFailureStream;
use abft_ckpt_composite::platform::failure::AnyFailureModel;
use abft_ckpt_composite::sim::{
    accumulate_paired_engine, accumulate_profile_program_batch, BatchProgram, Engine,
    OutcomeAccumulator, Protocol, ReplicationPlan, DEFAULT_BATCH_LANES,
};

/// Fresh per-lane failure streams of `engine`'s model, one per seed.
pub fn streams(engine: &Engine, seeds: &[u64]) -> BatchFailureStream<AnyFailureModel> {
    BatchFailureStream::new(*engine.failure_model(), seeds)
}

/// The antithetic partners of [`streams`]'s streams.
pub fn partner_streams(engine: &Engine, seeds: &[u64]) -> BatchFailureStream<AnyFailureModel> {
    let mut stream = streams(engine, seeds);
    stream.reset_antithetic(seeds);
    stream
}

/// The scalar reference driver over `protocol` alone.
pub fn scalar_single(
    engine: &Engine,
    protocol: Protocol,
    profile: &ApplicationProfile,
    plan: impl Into<ReplicationPlan>,
    master: u64,
) -> OutcomeAccumulator {
    accumulate_paired_engine(engine, &[protocol], profile, plan, master).outcomes[0]
}

/// The serial batch driver over `protocol`'s freshly compiled program.
pub fn batch_single(
    engine: &Engine,
    protocol: Protocol,
    profile: &ApplicationProfile,
    plan: impl Into<ReplicationPlan>,
    master: u64,
    lanes: usize,
) -> OutcomeAccumulator {
    let program = BatchProgram::compile(protocol, profile, engine.plan());
    accumulate_profile_program_batch(engine, &program, plan, master, lanes, 1)
}

/// `protocol` replicated at `params` over the point's own one-epoch
/// profile, on the serial batch driver at the default lane width.
pub fn replicate_point(
    protocol: Protocol,
    params: &ModelParams,
    plan: impl Into<ReplicationPlan>,
    seed: u64,
) -> OutcomeAccumulator {
    let engine = Engine::new(params);
    let profile = ApplicationProfile::from_params(params);
    batch_single(&engine, protocol, &profile, plan, seed, DEFAULT_BATCH_LANES)
}
