//! Property-based invariants of the checkpoint store.
//!
//! [`CheckpointPipeline`] over a [`MemoryBackend`] is the one checkpoint
//! store: its retention, restore and cost-accounting behaviour must hold for
//! *any* sequence of full and delta commits interleaved with
//! `retain_latest`, not just the ones the unit tests script.

use std::collections::BTreeMap;

use ft_ckpt::backend::MemoryBackend;
use ft_ckpt::coordinated::CoordinatedCheckpoint;
use ft_ckpt::incremental::IncrementalCheckpoint;
use ft_ckpt::pipeline::{CheckpointPipeline, PipelineOp};
use ft_ckpt::restore::{restore_full, restore_partial};
use ft_ckpt::state::{DatasetKind, ProcessSet};
use ft_platform::checksum::Crc32;
use proptest::prelude::*;

type Store = CheckpointPipeline<Crc32, MemoryBackend>;

/// One scripted commit: delta (`true`) or full, a pick among the retained
/// generations for a delta's base, a bit mask of the regions rewritten
/// before the commit, and the `retain_latest` bound applied after it
/// (`0`: no eviction).
type Commit = (bool, usize, u8, usize);

fn arb_script() -> impl Strategy<Value = Vec<Commit>> {
    prop::collection::vec(
        (
            (0u8..2).prop_map(|d| d == 1),
            0usize..64,
            0u8..16,
            0usize..5,
        ),
        1..24,
    )
}

/// What the script committed: the image each generation must restore to,
/// and the base of every delta.
#[derive(Default)]
struct Ledger {
    images: BTreeMap<u64, CoordinatedCheckpoint>,
    bases: BTreeMap<u64, u64>,
    ops: Vec<PipelineOp>,
}

/// Rewrites the regions `mask` selects (two ranks × two regions), commits
/// a full or delta generation of the result, and records it in `ledger`.
fn commit(store: &mut Store, set: &mut ProcessSet, ledger: &mut Ledger, step: usize, c: Commit) {
    let (delta, pick, mask, _) = c;
    for (rank, p) in set.iter_mut().enumerate() {
        let ids: Vec<usize> = p.regions().iter().map(|r| r.id).collect();
        for (slot, id) in ids.into_iter().enumerate() {
            if (mask >> (2 * rank + slot)) & 1 == 1 {
                p.region_mut(id).unwrap().update(|d| {
                    d.iter_mut()
                        .for_each(|b| *b = b.wrapping_add(step as u8 + 1));
                });
            }
        }
    }
    let time = (step + 1) as f64;
    let image = CoordinatedCheckpoint::capture(set, time);
    let retained = store.generations();
    let generation = if delta && !retained.is_empty() {
        let base = retained[pick % retained.len()];
        let inc = IncrementalCheckpoint::capture_since(set, &ledger.images[&base], time);
        let generation = store.commit_delta(&inc, base).unwrap();
        ledger.bases.insert(generation, base);
        ledger.ops.push(PipelineOp::WriteDelta);
        generation
    } else {
        let generation = store.commit_full(&image).unwrap();
        ledger.ops.push(PipelineOp::WriteFull);
        generation
    };
    ledger.images.insert(generation, image);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `retain_latest(k)` keeps the newest `k` generations and the whole
    /// base chain of every kept delta, and deletes everything else.
    #[test]
    fn retention_keeps_the_newest_generations_and_their_base_chains(script in arb_script()) {
        let mut store = Store::new(Crc32::new(), MemoryBackend::new());
        let mut set = ProcessSet::uniform(2, 48, 32);
        let mut ledger = Ledger::default();
        for (step, &c) in script.iter().enumerate() {
            commit(&mut store, &mut set, &mut ledger, step, c);
            let keep = c.3;
            if keep == 0 {
                continue;
            }
            let before = store.generations();
            store.retain_latest(keep).unwrap();
            let after = store.generations();
            let newest: Vec<u64> = before.iter().rev().take(keep).copied().collect();
            for g in &newest {
                prop_assert!(after.contains(g), "newest generation {} evicted", g);
            }
            // Every kept generation is one of the newest or a base reached
            // from one, and every kept delta's base is kept too.
            let mut reachable = newest.clone();
            let mut frontier = newest;
            while let Some(g) = frontier.pop() {
                if let Some(&base) = ledger.bases.get(&g) {
                    if !reachable.contains(&base) {
                        reachable.push(base);
                        frontier.push(base);
                    }
                }
            }
            reachable.sort_unstable();
            prop_assert_eq!(&after, &reachable);
        }
    }

    /// Whatever was evicted, `restore_latest` rebuilds the newest
    /// generation's image exactly, without falling back.
    #[test]
    fn restore_latest_returns_the_newest_image(script in arb_script()) {
        let mut store = Store::new(Crc32::new(), MemoryBackend::new());
        let mut set = ProcessSet::uniform(2, 48, 32);
        let mut ledger = Ledger::default();
        for (step, &c) in script.iter().enumerate() {
            commit(&mut store, &mut set, &mut ledger, step, c);
            if c.3 > 0 {
                store.retain_latest(c.3).unwrap();
            }
        }
        let (image, outcome) = store.restore_latest().unwrap();
        let newest = *ledger.images.keys().next_back().unwrap();
        prop_assert_eq!(outcome.generation, newest);
        prop_assert_eq!(outcome.fallback_depth, 0);
        prop_assert_eq!(&image, &ledger.images[&newest]);
        prop_assert_eq!(&image, &CoordinatedCheckpoint::capture(&set, script.len() as f64));
    }

    /// Cost accounting survives eviction: `costs()` keeps one write record
    /// per commit ever made, in commit order, however many were pruned.
    #[test]
    fn costs_keep_one_record_per_commit_across_eviction(script in arb_script()) {
        let mut store = Store::new(Crc32::new(), MemoryBackend::new());
        let mut set = ProcessSet::uniform(2, 48, 32);
        let mut ledger = Ledger::default();
        for (step, &c) in script.iter().enumerate() {
            commit(&mut store, &mut set, &mut ledger, step, c);
            if c.3 > 0 {
                store.retain_latest(c.3).unwrap();
            }
        }
        let costs = store.costs();
        prop_assert_eq!(costs.len(), script.len());
        for (generation, (cost, op)) in costs.iter().zip(&ledger.ops).enumerate() {
            prop_assert_eq!(cost.generation, generation as u64);
            prop_assert_eq!(cost.op, *op);
            prop_assert!(cost.stored_bytes > cost.raw_bytes);
        }
    }

    /// `restore_partial` / incremental-delta edge cases: an empty delta is
    /// an identity (only time moves), and a full-overlap delta reproduces a
    /// fresh full capture exactly.
    #[test]
    fn empty_and_full_overlap_deltas_restore_exactly(lib in 1usize..100, rem in 1usize..100) {
        let mut set = ProcessSet::uniform(3, lib, rem);
        let base = CoordinatedCheckpoint::capture(&set, 1.0);

        // Empty delta: nothing changed since the base.
        let empty = IncrementalCheckpoint::capture_since(&set, &base, 2.0);
        prop_assert_eq!(empty.bytes(), 0);
        let rebuilt = empty.apply_onto(&base).unwrap();
        prop_assert_eq!(rebuilt.bytes(), base.bytes());
        let mut target = ProcessSet::uniform(3, lib, rem);
        restore_full(&rebuilt, &mut target).unwrap();
        prop_assert_eq!(target.fingerprint(), set.fingerprint());

        // Full-overlap delta: every region rewritten since the base.
        for p in set.iter_mut() {
            let ids: Vec<usize> = p.regions().iter().map(|r| r.id).collect();
            for id in ids {
                p.region_mut(id).unwrap().update(|d| {
                    d.iter_mut().for_each(|b| *b = b.wrapping_add(7));
                });
            }
        }
        let full = IncrementalCheckpoint::capture_since(&set, &base, 3.0);
        prop_assert_eq!(full.bytes(), set.total_footprint());
        let rebuilt = full.apply_onto(&base).unwrap();
        let fresh = CoordinatedCheckpoint::capture(&set, 3.0);
        prop_assert_eq!(&rebuilt, &fresh);

        // And restore_partial of one dataset touches only that dataset.
        let partial = ft_ckpt::partial::PartialCheckpoint::capture(
            &set,
            DatasetKind::Library,
            3.0,
        );
        let mut victim = ProcessSet::uniform(3, lib, rem);
        let before_rem: Vec<u64> = victim
            .iter()
            .flat_map(|p| p.regions_of(DatasetKind::Remainder).map(|r| r.generation()))
            .collect();
        restore_partial(&partial, &mut victim, None).unwrap();
        let after_rem: Vec<u64> = victim
            .iter()
            .flat_map(|p| p.regions_of(DatasetKind::Remainder).map(|r| r.generation()))
            .collect();
        prop_assert_eq!(before_rem, after_rem);
        for (vp, sp) in victim.iter().zip(set.iter()) {
            for (vr, sr) in vp
                .regions_of(DatasetKind::Library)
                .zip(sp.regions_of(DatasetKind::Library))
            {
                prop_assert_eq!(vr.data(), sr.data());
            }
        }
    }
}
