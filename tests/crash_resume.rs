//! Crash-resume differential harness.
//!
//! Proves the acceptance criterion of the durable-checkpoint pipeline: a run
//! killed at *any* snapshot boundary, its snapshot persisted through the
//! checksummed frame pipeline into a (possibly faulty) backend, reloaded
//! with verification and resumed, finishes with a [`SimOutcome`] that is
//! **bit-identical** to the uninterrupted run — for every protocol, under
//! exponential and Weibull failure laws, at every injection point.

use abft_ckpt_composite::ckpt::backend::{FaultInjectingBackend, FaultPlan, MemoryBackend};
use abft_ckpt_composite::ckpt::pipeline::CheckpointPipeline;
use abft_ckpt_composite::composite::params::ModelParams;
use abft_ckpt_composite::platform::checksum::Crc32;
use abft_ckpt_composite::platform::failure::FailureSpec;
use abft_ckpt_composite::platform::units::minutes;
use abft_ckpt_composite::sim::engine::Engine;
use abft_ckpt_composite::sim::protocols::Protocol;
use abft_ckpt_composite::platform::scenario::ScenarioSpec;
use abft_ckpt_composite::platform::units::hours;
use abft_ckpt_composite::ckpt::verify::RestoreFault;
use abft_ckpt_composite::sim::engine::Step;
use abft_ckpt_composite::sim::resume::{
    ResumableSim, ResumeError, RunStatus, SimSnapshot, WithinStep,
};
use abft_ckpt_composite::composite::scenario::ApplicationProfile;

fn params() -> ModelParams {
    ModelParams::paper_figure7(0.5, minutes(120.0)).unwrap()
}

fn specs() -> Vec<FailureSpec> {
    vec![FailureSpec::Exponential, FailureSpec::Weibull { shape: 0.7 }]
}

/// Every kill point, every protocol, both failure laws: resumed == reference
/// on every `SimOutcome` field, bit for bit.
#[test]
fn resume_is_bit_identical_at_every_injection_point() {
    let params = params();
    for spec in specs() {
        let engine = Engine::with_failure_spec(&params, spec).unwrap();
        let profile = ApplicationProfile::from_params_repeated(engine.params(), 2);
        let mut buffer = engine.trace_buffer(0xC0FFEE);
        for protocol in Protocol::all() {
            let sim = ResumableSim::new(&engine, protocol, &profile);
            buffer.reset(41);
            let reference = sim.run(&mut buffer);
            buffer.reset(41);
            let total = sim.count_boundaries(&mut buffer);
            assert!(total > 0, "{spec:?}/{protocol:?}: no snapshot boundaries");
            for kill in 1..=total {
                buffer.reset(41);
                let RunStatus::Killed(snapshot) = sim.run_killed(&mut buffer, kill) else {
                    panic!("{spec:?}/{protocol:?}: kill {kill}/{total} did not kill");
                };
                buffer.reset(41);
                let resumed = sim
                    .resume(&mut buffer, &snapshot)
                    .expect("a snapshot of this run resumes it");
                assert_eq!(
                    resumed.final_time.to_bits(),
                    reference.final_time.to_bits(),
                    "{spec:?}/{protocol:?} kill {kill}/{total}: final_time differs"
                );
                assert_eq!(
                    resumed.base_time.to_bits(),
                    reference.base_time.to_bits(),
                    "{spec:?}/{protocol:?} kill {kill}/{total}: base_time differs"
                );
                assert_eq!(
                    resumed.failures, reference.failures,
                    "{spec:?}/{protocol:?} kill {kill}/{total}: failures differ"
                );
            }
        }
    }
}

/// The same every-kill-point contract through a trace-driven and a
/// synthesized non-stationary clock: the recorded playback's armed phase
/// and the diurnal clock's absolute-time hazard are reconstructed by the
/// trace buffer on resume, so a run killed at *any* snapshot boundary
/// still lands on the uninterrupted outcome bit for bit.
#[test]
fn scenario_clocks_resume_bit_identical_at_every_injection_point() {
    let params = params();
    let mtbf = params.platform_mtbf;
    let horizon = hours(48.0);
    let models = [
        ("trace", ScenarioSpec::Trace { path: None }.resolve(mtbf, horizon).unwrap()),
        ("diurnal", ScenarioSpec::Diurnal.resolve(mtbf, horizon).unwrap()),
    ];
    for (name, model) in models {
        let engine = Engine::with_failure_model(&params, model);
        let profile = ApplicationProfile::from_params_repeated(engine.params(), 2);
        let mut buffer = engine.trace_buffer(0xC0FFEE);
        for protocol in Protocol::all() {
            let sim = ResumableSim::new(&engine, protocol, &profile);
            buffer.reset(41);
            let reference = sim.run(&mut buffer);
            buffer.reset(41);
            let total = sim.count_boundaries(&mut buffer);
            assert!(total > 0, "{name}/{protocol:?}: no snapshot boundaries");
            for kill in 1..=total {
                buffer.reset(41);
                let RunStatus::Killed(snapshot) = sim.run_killed(&mut buffer, kill) else {
                    panic!("{name}/{protocol:?}: kill {kill}/{total} did not kill");
                };
                buffer.reset(41);
                let resumed = sim
                    .resume(&mut buffer, &snapshot)
                    .expect("a snapshot of this run resumes it");
                assert_eq!(
                    resumed.final_time.to_bits(),
                    reference.final_time.to_bits(),
                    "{name}/{protocol:?} kill {kill}/{total}: final_time differs"
                );
                assert_eq!(
                    resumed.base_time.to_bits(),
                    reference.base_time.to_bits(),
                    "{name}/{protocol:?} kill {kill}/{total}: base_time differs"
                );
                assert_eq!(
                    resumed.failures, reference.failures,
                    "{name}/{protocol:?} kill {kill}/{total}: failures differ"
                );
            }
        }
    }
}

/// A trace-driven snapshot survives the *real* durable pipeline too:
/// persist mid-run under the recorded playback, reload with verification,
/// resume to the reference outcome.
#[test]
fn trace_clock_resumes_through_the_frame_pipeline() {
    let params = params();
    let model = ScenarioSpec::Trace { path: None }
        .resolve(params.platform_mtbf, hours(48.0))
        .unwrap();
    let engine = Engine::with_failure_model(&params, model);
    let profile = ApplicationProfile::from_params_repeated(engine.params(), 2);
    let mut buffer = engine.trace_buffer(7);
    for protocol in Protocol::all() {
        let sim = ResumableSim::new(&engine, protocol, &profile);
        buffer.reset(7);
        let reference = sim.run(&mut buffer);
        buffer.reset(7);
        let total = sim.count_boundaries(&mut buffer);
        let kill = total / 2 + 1;
        buffer.reset(7);
        let RunStatus::Killed(snapshot) = sim.run_killed(&mut buffer, kill) else {
            panic!("{protocol:?}: kill {kill}/{total} did not kill");
        };

        let mut pipeline = CheckpointPipeline::new(Crc32::new(), MemoryBackend::new());
        snapshot.persist(&mut pipeline).unwrap();
        let (loaded, outcome) = SimSnapshot::load(&mut pipeline).unwrap();
        assert_eq!(loaded, snapshot);
        assert_eq!(outcome.fallback_depth, 0);

        buffer.reset(7);
        let resumed = sim
        .resume(&mut buffer, &loaded)
        .expect("a snapshot of this run resumes it");
        assert_eq!(resumed.final_time.to_bits(), reference.final_time.to_bits());
        assert_eq!(resumed.failures, reference.failures);
    }
}

/// The snapshot round-trips through the *real* durable pipeline (CRC32
/// frames, backend commit), not just in memory.
#[test]
fn resume_through_the_frame_pipeline_is_bit_identical() {
    let params = params();
    let engine = Engine::with_failure_spec(&params, FailureSpec::Weibull { shape: 0.7 }).unwrap();
    let profile = ApplicationProfile::from_params_repeated(engine.params(), 2);
    let mut buffer = engine.trace_buffer(7);
    for protocol in Protocol::all() {
        let sim = ResumableSim::new(&engine, protocol, &profile);
        buffer.reset(7);
        let reference = sim.run(&mut buffer);
        buffer.reset(7);
        let total = sim.count_boundaries(&mut buffer);
        let kill = total / 2 + 1;
        buffer.reset(7);
        let RunStatus::Killed(snapshot) = sim.run_killed(&mut buffer, kill) else {
            panic!("{protocol:?}: kill {kill}/{total} did not kill");
        };

        let mut pipeline = CheckpointPipeline::new(Crc32::new(), MemoryBackend::new());
        snapshot.persist(&mut pipeline).unwrap();
        let (loaded, outcome) = SimSnapshot::load(&mut pipeline).unwrap();
        assert_eq!(loaded, snapshot);
        assert_eq!(outcome.fallback_depth, 0);

        buffer.reset(7);
        let resumed = sim
        .resume(&mut buffer, &loaded)
        .expect("a snapshot of this run resumes it");
        assert_eq!(resumed.final_time.to_bits(), reference.final_time.to_bits());
        assert_eq!(resumed.failures, reference.failures);
    }
}

/// A corrupted newest snapshot generation degrades gracefully: the verified
/// restore falls back to the older intact generation and the resumed run
/// still matches the outcome that snapshot leads to — never a silently
/// wrong state.
#[test]
fn corrupted_snapshot_falls_back_to_an_older_intact_generation() {
    let params = params();
    let engine = Engine::with_failure_spec(&params, FailureSpec::Exponential).unwrap();
    let profile = ApplicationProfile::from_params_repeated(engine.params(), 2);
    let sim = ResumableSim::new(&engine, Protocol::AbftPeriodicCkpt, &profile);
    let mut buffer = engine.trace_buffer(3);
    buffer.reset(3);
    let reference = sim.run(&mut buffer);
    buffer.reset(3);
    let total = sim.count_boundaries(&mut buffer);
    assert!(total >= 2, "need at least two kill points, have {total}");

    // Commit an early snapshot intact, then a later one through a backend
    // that corrupts every write.
    buffer.reset(3);
    let RunStatus::Killed(early) = sim.run_killed(&mut buffer, 1) else {
        panic!("kill 1 did not kill");
    };
    buffer.reset(3);
    let RunStatus::Killed(late) = sim.run_killed(&mut buffer, total) else {
        panic!("kill {total} did not kill");
    };

    let backend = FaultInjectingBackend::new(MemoryBackend::new(), FaultPlan::none(), 99);
    let mut pipeline = CheckpointPipeline::new(Crc32::new(), backend);
    early.persist(&mut pipeline).unwrap();
    *pipeline.backend_mut().plan_mut() = FaultPlan::only(
        abft_ckpt_composite::ckpt::backend::InjectedKind::BitFlip,
        1.0,
    );
    late.persist(&mut pipeline).unwrap();
    assert_eq!(pipeline.backend().injected().len(), 1);

    let (loaded, outcome) = SimSnapshot::load(&mut pipeline).unwrap();
    assert_eq!(loaded, early, "fallback must land on the intact generation");
    assert!(outcome.fallback_depth > 0);
    assert_eq!(outcome.rejected.len(), 1);

    buffer.reset(3);
    let resumed = sim
        .resume(&mut buffer, &loaded)
        .expect("a snapshot of this run resumes it");
    assert_eq!(resumed.final_time.to_bits(), reference.final_time.to_bits());
    assert_eq!(resumed.failures, reference.failures);
}

/// A composite run and the snapshot of its first boundary, whose fields the
/// rejection tests then break one at a time.
fn composite_snapshot<'e>(
    engine: &'e Engine,
    profile: &ApplicationProfile,
) -> (ResumableSim<'e>, SimSnapshot) {
    let sim = ResumableSim::new(engine, Protocol::AbftPeriodicCkpt, profile);
    let mut buffer = engine.trace_buffer(5);
    let RunStatus::Killed(snapshot) = sim.run_killed(&mut buffer, 1) else {
        panic!("kill 1 did not kill");
    };
    (sim, snapshot)
}

#[test]
fn resume_rejects_a_snapshot_of_another_protocol() {
    let engine = Engine::new(&params());
    let profile = ApplicationProfile::from_params_repeated(engine.params(), 2);
    let (_, snapshot) = composite_snapshot(&engine, &profile);
    let pure = ResumableSim::new(&engine, Protocol::PurePeriodicCkpt, &profile);
    let mut buffer = engine.trace_buffer(5);
    assert_eq!(
        pure.resume(&mut buffer, &snapshot),
        Err(ResumeError::ProtocolMismatch {
            snapshot: Protocol::AbftPeriodicCkpt,
            run: Protocol::PurePeriodicCkpt,
        })
    );
}

#[test]
fn resume_rejects_a_step_past_the_end_of_the_program() {
    let engine = Engine::new(&params());
    let profile = ApplicationProfile::from_params_repeated(engine.params(), 2);
    let (sim, snapshot) = composite_snapshot(&engine, &profile);
    let steps = sim.steps().len();
    let mut buffer = engine.trace_buffer(5);
    // One past the last step is the finished-run boundary: it resumes into
    // an immediately finished run at the snapshot's clock.
    let at_end = SimSnapshot {
        step: steps,
        within: WithinStep::StartOfStep,
        ..snapshot
    };
    let finished = sim.resume(&mut buffer, &at_end).unwrap();
    assert_eq!(finished.final_time.to_bits(), snapshot.now_bits);
    assert_eq!(finished.failures as u64, snapshot.failures);
    let past_end = SimSnapshot {
        step: steps + 1,
        ..at_end
    };
    assert_eq!(
        sim.resume(&mut buffer, &past_end),
        Err(ResumeError::StepOutOfRange {
            step: steps + 1,
            steps,
        })
    );
}

#[test]
fn resume_rejects_progress_of_the_wrong_step_kind() {
    let engine = Engine::new(&params());
    let profile = ApplicationProfile::from_params_repeated(engine.params(), 2);
    let (sim, snapshot) = composite_snapshot(&engine, &profile);
    let within = WithinStep::AbftDone(60.0f64.to_bits());
    let mut buffer = engine.trace_buffer(5);
    for (step, kind) in sim.steps().iter().enumerate() {
        let misplaced = SimSnapshot {
            step,
            within,
            ..snapshot
        };
        let resumed = sim.resume(&mut buffer, &misplaced);
        if matches!(kind, Step::AbftWork { .. }) {
            assert!(resumed.is_ok(), "step {step}: {kind:?}");
        } else {
            assert_eq!(
                resumed,
                Err(ResumeError::WithinMismatch { step, within }),
                "step {step}: {kind:?}"
            );
        }
    }
    // ABFT progress has no step to live in at the finished-run boundary.
    let step = sim.steps().len();
    let at_end = SimSnapshot {
        step,
        within,
        ..snapshot
    };
    assert_eq!(
        sim.resume(&mut buffer, &at_end),
        Err(ResumeError::WithinMismatch { step, within })
    );
}

/// A 42-byte record of the unversioned format that counted checkpointed
/// streams, not program steps: `PurePeriodicCkpt`, stream 1, 500 s saved,
/// clock at 1000 s with the next failure at 1100 s, 2 failures.
const UNVERSIONED_RECORD: [u8; 42] = [
    0x00, // protocol
    0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // step
    0x01, // within: saved stream work
    0x00, 0x00, 0x00, 0x00, 0x00, 0x40, 0x7f, 0x40, // 500.0
    0x00, 0x00, 0x00, 0x00, 0x00, 0x40, 0x8f, 0x40, // now 1000.0
    0x00, 0x00, 0x00, 0x00, 0x00, 0x30, 0x91, 0x40, // next failure 1100.0
    0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // failures
];

#[test]
fn unversioned_snapshot_records_are_rejected_not_resumed() {
    assert_eq!(SimSnapshot::from_bytes(&UNVERSIONED_RECORD), None);
    // Through the verified pipeline the frame is intact, but its payload is
    // not a snapshot: the load fails as a corrupt frame.
    let mut pipeline = CheckpointPipeline::new(Crc32::new(), MemoryBackend::new());
    let generation = pipeline.commit_state(&UNVERSIONED_RECORD, 1000.0).unwrap();
    assert!(matches!(
        SimSnapshot::load(&mut pipeline),
        Err(RestoreFault::CorruptFrame { generation: g, .. }) if g == generation
    ));
    // The current format grows the record by its leading version byte.
    let engine = Engine::new(&params());
    let profile = ApplicationProfile::from_params(engine.params());
    let (_, snapshot) = composite_snapshot(&engine, &profile);
    assert_eq!(snapshot.to_bytes().len(), UNVERSIONED_RECORD.len() + 1);
}
