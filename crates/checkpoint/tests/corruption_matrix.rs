//! Corruption-injection matrix: every fault class × every backend × every
//! payload kind.
//!
//! The acceptance criterion of the durable pipeline: a damaged generation is
//! either restored *verified* from an older intact generation (with the
//! degradation reported) or rejected with a typed error — **never** silently
//! restored into a wrong state.  Every cell checks that the restored image
//! is byte-identical to what was committed as the generation the outcome
//! reports.

use ft_ckpt::backend::{
    CheckpointBackend, ChunkedFileBackend, FaultInjectingBackend, FaultPlan, InjectedKind,
    MemoryBackend,
};
use ft_ckpt::coordinated::CoordinatedCheckpoint;
use ft_ckpt::incremental::IncrementalCheckpoint;
use ft_ckpt::partial::PartialCheckpoint;
use ft_ckpt::pipeline::{apply_partial_onto, CheckpointPipeline};
use ft_ckpt::state::{DatasetKind, ProcessSet};
use ft_ckpt::verify::RestoreFault;
use ft_platform::checksum::Crc32;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Payload {
    Full,
    Incremental,
    Partial,
}

const PAYLOADS: [Payload; 3] = [Payload::Full, Payload::Incremental, Payload::Partial];
const WRITE_FAULTS: [InjectedKind; 3] = [
    InjectedKind::BitFlip,
    InjectedKind::Truncate,
    InjectedKind::TornWrite,
];

fn base_set() -> ProcessSet {
    ProcessSet::uniform(3, 96, 48)
}

fn evolve(set: &mut ProcessSet, round: u8) {
    for p in set.iter_mut() {
        let ids: Vec<usize> = p.regions().iter().map(|r| r.id).collect();
        for id in ids {
            p.region_mut(id).unwrap().update(|d| {
                for (k, b) in d.iter_mut().enumerate() {
                    *b = b.wrapping_add(round).wrapping_add(k as u8);
                }
            });
        }
        p.advance(1.0);
    }
}

/// Runs one matrix cell against a concrete backend: commit an intact base
/// generation, commit a `payload`-kind generation with `fault` armed, then
/// restore and check the verified-or-typed-error contract.
fn check_write_fault_cell<B: CheckpointBackend>(backend: B, payload: Payload, fault: InjectedKind) {
    let injector = FaultInjectingBackend::new(backend, FaultPlan::none(), 0xBAD5EED);
    let mut pipeline = CheckpointPipeline::new(Crc32::new(), injector);

    let mut set = base_set();
    let base_image = CoordinatedCheckpoint::capture(&set, 10.0);
    let gen_base = pipeline.commit_full(&base_image).unwrap();

    evolve(&mut set, 3);
    *pipeline.backend_mut().plan_mut() = FaultPlan::only(fault, 1.0);
    let (gen_damaged, expected_damaged) = match payload {
        Payload::Full => {
            let image = CoordinatedCheckpoint::capture(&set, 20.0);
            (pipeline.commit_full(&image).unwrap(), image)
        }
        Payload::Incremental => {
            let delta = IncrementalCheckpoint::capture_since(&set, &base_image, 20.0);
            let expected = delta.apply_onto(&base_image).unwrap();
            (pipeline.commit_delta(&delta, gen_base).unwrap(), expected)
        }
        Payload::Partial => {
            let partial = PartialCheckpoint::capture(&set, DatasetKind::Library, 20.0);
            let expected = apply_partial_onto(&partial, &base_image);
            (pipeline.commit_partial(&partial, gen_base).unwrap(), expected)
        }
    };
    *pipeline.backend_mut().plan_mut() = FaultPlan::none();
    assert_eq!(
        pipeline.backend().injected_into(gen_damaged).len(),
        1,
        "{payload:?}/{fault:?}: exactly the damaged generation is injected"
    );

    // The damaged generation itself must be rejected with a typed fault
    // naming it — never decoded into a wrong image.
    match pipeline.verify(gen_damaged) {
        Err(RestoreFault::CorruptFrame { generation, .. })
        | Err(RestoreFault::TornWrite { generation }) => assert_eq!(generation, gen_damaged),
        other => panic!("{payload:?}/{fault:?}: verify returned {other:?}"),
    }

    // The restore degrades gracefully to the intact base generation, and
    // the restored bytes match the generation the outcome reports.
    let (restored, outcome) = pipeline.restore_latest().unwrap();
    assert_eq!(outcome.generation, gen_base, "{payload:?}/{fault:?}");
    assert_eq!(outcome.fallback_depth, 1);
    assert_eq!(outcome.rejected.len(), 1);
    assert_eq!(outcome.rejected[0].0, gen_damaged);
    assert!(outcome.rework > 0.0, "fallback loses the newer image's work");
    assert_eq!(restored, base_image, "{payload:?}/{fault:?}: silent wrong state");
    assert_ne!(restored, expected_damaged);
    assert_eq!(
        restored.materialize().unwrap().fingerprint(),
        base_image.materialize().unwrap().fingerprint()
    );
}

/// Transient cell: reads fail transiently but retry through; the *newest*
/// generation is restored exactly, with the retries accounted.
fn check_transient_cell<B: CheckpointBackend>(backend: B, payload: Payload) {
    let injector = FaultInjectingBackend::new(backend, FaultPlan::none(), 0x7EE7);
    let mut pipeline = CheckpointPipeline::new(Crc32::new(), injector);

    let mut set = base_set();
    let base_image = CoordinatedCheckpoint::capture(&set, 10.0);
    let gen_base = pipeline.commit_full(&base_image).unwrap();
    evolve(&mut set, 5);
    let (gen_new, expected) = match payload {
        Payload::Full => {
            let image = CoordinatedCheckpoint::capture(&set, 20.0);
            (pipeline.commit_full(&image).unwrap(), image)
        }
        Payload::Incremental => {
            let delta = IncrementalCheckpoint::capture_since(&set, &base_image, 20.0);
            let expected = delta.apply_onto(&base_image).unwrap();
            (pipeline.commit_delta(&delta, gen_base).unwrap(), expected)
        }
        Payload::Partial => {
            let partial = PartialCheckpoint::capture(&set, DatasetKind::Library, 20.0);
            let expected = apply_partial_onto(&partial, &base_image);
            (pipeline.commit_partial(&partial, gen_base).unwrap(), expected)
        }
    };

    // Every get now fails twice before succeeding; the default retry policy
    // (3 attempts) absorbs that.
    *pipeline.backend_mut().plan_mut() = FaultPlan::transient_only(1.0, 2);
    let (restored, outcome) = pipeline.restore_latest().unwrap();
    assert_eq!(outcome.generation, gen_new, "{payload:?}");
    assert_eq!(outcome.fallback_depth, 0);
    assert!(outcome.transient_retries >= 1, "{payload:?}");
    assert!(outcome.backoff_cost > 0.0);
    assert_eq!(outcome.rework, 0.0);
    assert_eq!(restored, expected, "{payload:?}: transient retry changed bytes");
}

#[test]
fn write_fault_matrix_on_the_memory_backend() {
    for payload in PAYLOADS {
        for fault in WRITE_FAULTS {
            check_write_fault_cell(MemoryBackend::new(), payload, fault);
        }
    }
}

#[test]
fn write_fault_matrix_on_the_chunked_file_backend() {
    for payload in PAYLOADS {
        for fault in WRITE_FAULTS {
            check_write_fault_cell(ChunkedFileBackend::new(1024).unwrap(), payload, fault);
        }
    }
}

#[test]
fn transient_faults_retry_through_on_both_backends() {
    for payload in PAYLOADS {
        check_transient_cell(MemoryBackend::new(), payload);
        check_transient_cell(ChunkedFileBackend::new(1024).unwrap(), payload);
    }
}

/// The no-fault cell: a full commit every 4th generation with deltas in
/// between, every generation verified, and a restore that takes the newest
/// generation and matches the live set.
fn check_clean_life_cycle<B: CheckpointBackend>(backend: B) {
    let mut pipeline = CheckpointPipeline::new(Crc32::new(), backend);
    let mut set = base_set();
    let mut base_image = CoordinatedCheckpoint::capture(&set, 0.0);
    let mut base_generation = pipeline.commit_full(&base_image).unwrap();
    pipeline.verify(base_generation).unwrap();
    for g in 1..8u8 {
        evolve(&mut set, g);
        let time = f64::from(g);
        let generation = if g % 4 == 0 {
            base_image = CoordinatedCheckpoint::capture(&set, time);
            base_generation = pipeline.commit_full(&base_image).unwrap();
            base_generation
        } else {
            let delta = IncrementalCheckpoint::capture_since(&set, &base_image, time);
            pipeline.commit_delta(&delta, base_generation).unwrap()
        };
        pipeline.verify(generation).unwrap();
    }
    let (restored, outcome) = pipeline.restore_latest().unwrap();
    assert_eq!(outcome.fallback_depth, 0);
    assert_eq!(
        restored.materialize().unwrap().fingerprint(),
        set.fingerprint(),
        "restored image must match the live state"
    );
}

#[test]
fn clean_life_cycle_restores_the_live_state_on_both_backends() {
    check_clean_life_cycle(MemoryBackend::new());
    check_clean_life_cycle(ChunkedFileBackend::new(1024).unwrap());
}

/// Damaging *every* generation leaves no verifiable candidate: the restore
/// must report the full rejection list, not fabricate a state.
#[test]
fn exhausting_every_generation_yields_a_typed_error_not_a_state() {
    for fault in WRITE_FAULTS {
        let injector =
            FaultInjectingBackend::new(MemoryBackend::new(), FaultPlan::only(fault, 1.0), 31);
        let mut pipeline = CheckpointPipeline::new(Crc32::new(), injector);
        let set = base_set();
        pipeline.commit_full(&CoordinatedCheckpoint::capture(&set, 1.0)).unwrap();
        pipeline.commit_full(&CoordinatedCheckpoint::capture(&set, 2.0)).unwrap();
        match pipeline.restore_latest() {
            Err(RestoreFault::NoVerifiableGeneration { rejected }) => {
                assert_eq!(rejected.len(), 2, "{fault:?}");
            }
            other => panic!("{fault:?}: expected exhaustion, got {other:?}"),
        }
    }
}
