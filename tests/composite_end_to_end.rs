//! End-to-end integration across every substrate: the composite runtime
//! drives real process state through checkpoints and failures, rebuilding
//! lost LIBRARY data from ABFT checksums, and the ABFT substrate factorizes
//! a real matrix while losing a process — the two halves of the protocol
//! the paper composes.

use abft_ckpt_composite::abft::lu::{plain_lu, AbftLu};
use abft_ckpt_composite::abft::matrix::Matrix;
use abft_ckpt_composite::abft::recovery::ProtectedDataset;
use abft_ckpt_composite::abft::blockcyclic::{BlockCyclicLayout, DistributedMatrix};
use abft_ckpt_composite::composite::composite_runtime::{CompositeRuntime, PlannedFailure, RuntimeEvent};
use abft_ckpt_composite::composite::params::ModelParams;
use abft_ckpt_composite::composite::scenario::{ApplicationProfile, PhaseKind};
use ft_ckpt::state::{DatasetKind, ProcessSet};
use ft_platform::grid::ProcessGrid;
use ft_platform::units::{hours, minutes};

fn params() -> ModelParams {
    ModelParams::builder()
        .epoch_duration(hours(3.0))
        .alpha(0.6)
        .checkpoint_cost(minutes(10.0))
        .recovery_cost(minutes(10.0))
        .downtime(minutes(1.0))
        .rho(0.8)
        .phi(1.03)
        .abft_reconstruction(2.0)
        .platform_mtbf(hours(8.0))
        .build()
        .unwrap()
}

#[test]
fn composite_runtime_survives_failures_in_both_phases_with_identical_final_state() {
    let params = params();
    let profile = ApplicationProfile::from_params_repeated(&params, 3);
    let failures = vec![
        PlannedFailure { epoch: 0, phase: PhaseKind::Library, fraction: 0.3, rank: 2 },
        PlannedFailure { epoch: 1, phase: PhaseKind::General, fraction: 0.5, rank: 0 },
        PlannedFailure { epoch: 2, phase: PhaseKind::Library, fraction: 0.9, rank: 3 },
    ];

    let mk = || ProcessSet::uniform(4, 32 * 1024, 8 * 1024);
    let clean = CompositeRuntime::new(mk(), params).run(&profile, &[]).unwrap();
    let faulty = CompositeRuntime::new(mk(), params).run(&profile, &failures).unwrap();

    assert_eq!(clean.final_fingerprint, faulty.final_fingerprint);
    assert!(faulty.total_time > clean.total_time);
    assert_eq!(faulty.count_events(|e| matches!(e, RuntimeEvent::AbftRecovery { .. })), 2);
    assert_eq!(faulty.count_events(|e| matches!(e, RuntimeEvent::RollbackRecovery { .. })), 1);
    // Forced split checkpoints appear once per epoch.
    assert_eq!(faulty.count_events(|e| matches!(e, RuntimeEvent::EntryCheckpoint { .. })), 3);
    assert_eq!(faulty.count_events(|e| matches!(e, RuntimeEvent::ExitCheckpoint { .. })), 3);
}

/// Four ranks whose LIBRARY data spans two regions with a REMAINDER region
/// between them.  With `ragged`, the region lengths differ from rank to
/// rank, and so does each rank's total LIBRARY size.
fn two_library_regions_per_rank(ragged: bool) -> ProcessSet {
    let bytes = |len: usize, step: usize, offset: usize| -> Vec<u8> {
        (0..len).map(|i| (i * step + offset) as u8).collect()
    };
    let mut set = ProcessSet::new(4);
    for rank in 0..4 {
        let (first, second) = if ragged { (64 + 24 * rank, 200 - 50 * rank) } else { (96, 160) };
        let p = set.process_mut(rank).unwrap();
        p.add_region(DatasetKind::Library, bytes(first, 5, rank * 11));
        p.add_region(DatasetKind::Remainder, bytes(48, 7, rank));
        p.add_region(DatasetKind::Library, bytes(second, 3, rank * 7 + 1));
    }
    set
}

#[test]
fn library_failures_on_ranks_with_several_library_regions_recover_exactly() {
    let params = params();
    let profile = ApplicationProfile::from_params_repeated(&params, 2);
    for ragged in [false, true] {
        let mk = || two_library_regions_per_rank(ragged);
        let clean = CompositeRuntime::new(mk(), params).run(&profile, &[]).unwrap();
        for rank in 0..4 {
            let failure =
                PlannedFailure { epoch: 1, phase: PhaseKind::Library, fraction: 0.4, rank };
            let faulty = CompositeRuntime::new(mk(), params).run(&profile, &[failure]).unwrap();
            assert_eq!(
                faulty.final_fingerprint, clean.final_fingerprint,
                "ragged {ragged}, victim rank {rank}"
            );
            let recoveries =
                faulty.count_events(|e| matches!(e, RuntimeEvent::AbftRecovery { .. }));
            assert_eq!(recoveries, 1);
        }
    }
}

#[test]
fn abft_lu_survives_one_failure_per_phase_of_the_factorization() {
    let n = 36;
    let grid = ProcessGrid::new(2, 3).unwrap();
    let a = Matrix::random_diagonally_dominant(n, 7);
    let mut f = AbftLu::new(&a, &grid, 3).unwrap();

    // Failure before any factorization step.
    let lost = f.inject_failure(0).unwrap();
    f.recover(&lost).unwrap();
    // Failure after one third of the steps.
    f.factor_steps(n / 3).unwrap();
    let lost = f.inject_failure(3).unwrap();
    f.recover(&lost).unwrap();
    // Failure after two thirds.
    f.factor_steps(n / 3).unwrap();
    let lost = f.inject_failure(5).unwrap();
    f.recover(&lost).unwrap();

    f.factor_to_completion().unwrap();
    let residual = f.residual(&a).unwrap();
    assert!(residual < 1e-8, "residual {residual}");

    // The plain factorization of the same matrix agrees.
    let plain = plain_lu(&a).unwrap();
    let (l, u) = f.extract_factors();
    assert!(l.approx_eq(&plain.extract_unit_lower(n), 1e-7));
    assert!(u.approx_eq(&plain.extract_upper(n), 1e-7));
}

#[test]
fn protected_dataset_rebuilds_the_entries_of_a_lost_rank() {
    // The LIBRARY dataset at rest is protected by checksums between calls.
    let grid = ProcessGrid::new(2, 2).unwrap();
    let data = Matrix::random(16, 16, 3);
    let layout = BlockCyclicLayout::new(grid, 4);
    let mut dataset = ProtectedDataset::encode(DistributedMatrix::new(data.clone(), layout));
    let outcome = dataset.fail_and_reconstruct(2).unwrap();
    assert!(outcome.entries > 0);
    assert!(dataset.matrix().global().approx_eq(&data, 1e-9));
}

/// Pins the final state of one run whose failures come from a fixed seed.
/// Recorded with the one-chain FNV-1a fingerprint, before the multi-lane
/// kernel existed; never edit the value.
#[test]
fn seeded_composite_run_final_fingerprint_is_pinned() {
    use ft_platform::rng::{DeterministicRng, Xoshiro256};

    let params = params();
    let profile = ApplicationProfile::from_params_repeated(&params, 4);
    let mut rng = Xoshiro256::seed_from_u64(2718);
    let failures: Vec<PlannedFailure> = (0..4)
        .map(|epoch| PlannedFailure {
            epoch,
            phase: if rng.next_u64() & 1 == 0 {
                PhaseKind::Library
            } else {
                PhaseKind::General
            },
            fraction: 0.05 + 0.9 * rng.next_f64(),
            rank: (rng.next_u64() % 6) as usize,
        })
        .collect();
    let report = CompositeRuntime::new(ProcessSet::uniform(6, 24 * 1024, 40 * 1024), params)
        .run(&profile, &failures)
        .unwrap();
    assert_eq!(report.final_fingerprint, 421_923_759_813_458_254);
}
