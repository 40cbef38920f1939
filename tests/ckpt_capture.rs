//! The copy-on-write contract of checkpoint capture.
//!
//! A capture shares each region's buffer with the live process set instead
//! of copying it; the live region copies its bytes only when it is written
//! while a snapshot still shares them.  These tests pin both halves: the
//! sharing (buffer pointers are equal right after a capture, and an
//! unshared region is written in place) and the isolation (no write,
//! overwrite or crash of the live set reaches a snapshot, and folding a
//! delta onto a base image leaves the base untouched).

use abft_ckpt_composite::ckpt::coordinated::{CoordinatedCheckpoint, ProcessSnapshot};
use abft_ckpt_composite::ckpt::incremental::IncrementalCheckpoint;
use abft_ckpt_composite::ckpt::partial::PartialCheckpoint;
use abft_ckpt_composite::ckpt::pipeline::apply_partial_onto;
use abft_ckpt_composite::ckpt::state::{DatasetKind, MemoryRegion, ProcessSet};

/// The live region `id` of process `rank`.
fn region(set: &mut ProcessSet, rank: usize, id: usize) -> &mut MemoryRegion {
    set.process_mut(rank).unwrap().region_mut(id).unwrap()
}

/// Four processes of one LIBRARY and one REMAINDER region, with some
/// progress and one region already rewritten.
fn live_set() -> ProcessSet {
    let mut set = ProcessSet::uniform(4, 4096, 1024);
    for p in set.iter_mut() {
        let rank = p.rank() as f64;
        p.advance(1.0 + rank);
    }
    region(&mut set, 2, 1).write(vec![5; 1024]);
    set
}

/// `(rank, region id, buffer address)` of every live region.
fn live_pointers(set: &ProcessSet) -> Vec<(usize, usize, *const u8)> {
    set.iter()
        .flat_map(|p| {
            p.regions()
                .iter()
                .map(move |r| (p.rank(), r.id, r.data().as_ptr()))
        })
        .collect()
}

/// `(rank, region id, buffer address)` of every captured region.
fn snapshot_pointers(snapshots: &[ProcessSnapshot]) -> Vec<(usize, usize, *const u8)> {
    snapshots
        .iter()
        .flat_map(|s| {
            s.regions
                .iter()
                .map(move |r| (s.rank, r.region_id, r.data.as_ptr()))
        })
        .collect()
}

/// Every captured region's bytes, in capture order.
fn snapshot_bytes(ckpt: &CoordinatedCheckpoint) -> Vec<Vec<u8>> {
    ckpt.snapshots
        .iter()
        .flat_map(|s| s.regions.iter().map(|r| r.data.to_vec()))
        .collect()
}

#[test]
fn captures_share_the_live_buffers() {
    let mut set = live_set();
    let live = live_pointers(&set);

    let full = CoordinatedCheckpoint::capture(&set, 1.0);
    assert_eq!(snapshot_pointers(&full.snapshots), live);

    let clone = set.clone();
    assert_eq!(live_pointers(&clone), live);
    let rebuilt = full.materialize().unwrap();
    assert_eq!(live_pointers(&rebuilt), live);

    let library = PartialCheckpoint::capture(&set, DatasetKind::Library, 1.0);
    let library_live: Vec<_> = live.iter().copied().filter(|&(_, id, _)| id == 0).collect();
    assert_eq!(snapshot_pointers(&library.snapshots), library_live);

    // A delta shares the buffers of exactly the regions it captures.
    region(&mut set, 1, 0).update(|d| d[0] ^= 1);
    let delta = IncrementalCheckpoint::capture_since(&set, &full, 2.0);
    let dirty = set.process(1).unwrap().region(0).unwrap().data().as_ptr();
    assert_eq!(snapshot_pointers(&delta.snapshots), vec![(1, 0, dirty)]);
}

#[test]
fn live_writes_crashes_and_overwrites_never_reach_a_capture() {
    let mut set = live_set();
    let ckpt = CoordinatedCheckpoint::capture(&set, 1.0);
    let bytes = snapshot_bytes(&ckpt);
    let fingerprint = set.fingerprint();
    assert_eq!(ckpt.materialize().unwrap().fingerprint(), fingerprint);

    for p in set.iter_mut() {
        p.region_mut(0)
            .unwrap()
            .update(|d| d.iter_mut().for_each(|b| *b ^= 0xA5));
        p.advance(3.0);
    }
    assert_eq!(snapshot_bytes(&ckpt), bytes);
    region(&mut set, 3, 1).write(vec![9; 7]);
    assert_eq!(snapshot_bytes(&ckpt), bytes);
    set.process_mut(0).unwrap().crash();
    assert_eq!(snapshot_bytes(&ckpt), bytes);

    assert_ne!(set.fingerprint(), fingerprint);
    assert_eq!(ckpt.materialize().unwrap().fingerprint(), fingerprint);
}

#[test]
fn folding_a_delta_leaves_the_base_image_untouched() {
    let mut set = live_set();
    let base = CoordinatedCheckpoint::capture(&set, 1.0);
    let bytes = snapshot_bytes(&base);
    let fingerprint = base.materialize().unwrap().fingerprint();

    region(&mut set, 0, 1).update(|d| d[3] = 0xFF);
    region(&mut set, 2, 0).write(vec![1; 4096]);
    let delta = IncrementalCheckpoint::capture_since(&set, &base, 2.0);
    let combined = delta.apply_onto(&base).unwrap();
    let partial = PartialCheckpoint::capture(&set, DatasetKind::Library, 3.0);
    let folded = apply_partial_onto(&partial, &base);

    assert_eq!(snapshot_bytes(&base), bytes);
    assert_eq!(base.materialize().unwrap().fingerprint(), fingerprint);
    assert_eq!(
        combined.materialize().unwrap().fingerprint(),
        set.fingerprint()
    );
    assert_ne!(folded.materialize().unwrap().fingerprint(), fingerprint);
}

#[test]
fn an_unshared_region_is_updated_in_place() {
    let mut set = live_set();
    let pointer = |set: &ProcessSet| set.process(1).unwrap().region(0).unwrap().data().as_ptr();
    let before = pointer(&set);
    region(&mut set, 1, 0).update(|d| d[0] ^= 1);
    assert_eq!(
        pointer(&set),
        before,
        "an unshared update copied the region"
    );

    // While a capture shares the buffer, an update writes a private copy;
    // once the capture is gone, updates are in place again.
    let ckpt = CoordinatedCheckpoint::capture(&set, 1.0);
    region(&mut set, 1, 0).update(|d| d[0] ^= 1);
    let copied = pointer(&set);
    assert_ne!(copied, before);
    assert_eq!(ckpt.snapshots[1].regions[0].data.as_ptr(), before);
    drop(ckpt);
    region(&mut set, 1, 0).update(|d| d[0] ^= 1);
    assert_eq!(pointer(&set), copied);
}
