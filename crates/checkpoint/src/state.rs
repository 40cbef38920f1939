//! Per-process application state.
//!
//! The composite protocol reasons about *datasets*: during a LIBRARY phase
//! only the LIBRARY dataset is accessed, the rest is the REMAINDER dataset
//! (paper §III).  [`ProcessState`] materialises that view: each process owns
//! a set of [`MemoryRegion`]s, each tagged with a [`DatasetKind`], plus an
//! abstract notion of computation progress.  Regions carry a generation
//! counter bumped on every write, which is what incremental checkpoints use
//! to find dirty data.
//!
//! Region contents are shared, copy-on-write buffers: a snapshot or a clone
//! of a region holds the same `Arc<Vec<u8>>` as the live region, and the live
//! region copies its bytes only when it is written while something still
//! shares them.  A capture therefore costs a reference count per region, not
//! a copy of the region.

use std::sync::Arc;

use crate::error::{CkptError, Result};

/// Which dataset a memory region belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetKind {
    /// Data accessed (and recoverable) by the ABFT-protected library call.
    Library,
    /// Everything else: data only the GENERAL phase touches.
    Remainder,
}

impl DatasetKind {
    /// The other dataset.
    #[inline]
    pub fn complement(self) -> Self {
        match self {
            DatasetKind::Library => DatasetKind::Remainder,
            DatasetKind::Remainder => DatasetKind::Library,
        }
    }
}

/// A contiguous, tagged region of a process's memory.
///
/// Cloning a region shares its buffer; see the module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryRegion {
    /// Identifier of the region, unique within its process.
    pub id: usize,
    /// Dataset the region belongs to.
    pub kind: DatasetKind,
    data: Arc<Vec<u8>>,
    generation: u64,
}

impl MemoryRegion {
    /// Creates a region with initial contents.
    pub fn new(id: usize, kind: DatasetKind, data: Vec<u8>) -> Self {
        Self {
            id,
            kind,
            data: Arc::new(data),
            generation: 0,
        }
    }

    /// The shared buffer holding the contents; a snapshot keeps a clone of
    /// it instead of a copy of the bytes.
    #[inline]
    pub(crate) fn shared_data(&self) -> &Arc<Vec<u8>> {
        &self.data
    }

    /// Read-only view of the region contents.
    #[inline]
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// Size of the region in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the region is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Generation counter: how many times the region has been written.
    #[inline]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Overwrites the region contents, bumping the generation.  The old
    /// buffer is released, not written: a snapshot sharing it keeps it.
    pub fn write(&mut self, data: Vec<u8>) {
        self.data = Arc::new(data);
        self.generation += 1;
    }

    /// Mutates the region contents in place through a closure, bumping the
    /// generation.  The closure writes the region's own buffer when nothing
    /// else shares it, and a private copy of it otherwise.
    pub fn update<F: FnOnce(&mut Vec<u8>)>(&mut self, f: F) {
        f(Arc::make_mut(&mut self.data));
        self.generation += 1;
    }

    /// Restores the region to previously captured contents *without* counting
    /// as an application write: the generation is set to the captured value.
    /// The region shares the captured buffer.
    pub(crate) fn restore(&mut self, data: &Arc<Vec<u8>>, generation: u64) {
        self.data = Arc::clone(data);
        self.generation = generation;
    }

    /// Fingerprint of the contents: the 64-bit FNV-1a hash of the bytes, one
    /// serial chain.  Used by tests and by the ABFT/checkpoint integration to
    /// assert exact restoration cheaply.
    pub fn fingerprint(&self) -> u64 {
        fnv1a(&self.data)
    }
}

/// 64-bit FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
/// 64-bit FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;
/// Hash chains [`fnv1a_lanes`] runs in lockstep.  Each FNV-1a byte step waits
/// on the previous one's multiply; four independent chains keep the
/// multiplier busy while each chain waits.
const LANES: usize = 4;
/// Slices [`Fnv1aLanes`] hands to [`fnv1a_lanes`] at a time.  Its buffers
/// live on the stack: a heap buffer per fingerprint fragments the heap of a
/// caller that holds many region-sized buffers (it cost 1 MiB of peak RSS on
/// the `ckpt` benchmark).
const WINDOW: usize = 32;

/// One FNV-1a byte step.
#[inline(always)]
fn fnv1a_step(hash: u64, byte: u8) -> u64 {
    (hash ^ u64::from(byte)).wrapping_mul(FNV_PRIME)
}

/// Continues an FNV-1a chain from `hash` over `bytes`.
fn fnv1a_from(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| fnv1a_step(h, b))
}

/// FNV-1a over a byte slice.
fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_from(FNV_OFFSET, bytes)
}

/// FNV-1a hashes of many byte slices: for every job `(i, bytes)`, sets
/// `out[i] = fnv1a(bytes)`; the tags `i` are `0..jobs.len()` in any order.
/// [`LANES`] chains hash different jobs in lockstep.  The jobs are sorted
/// longest first and a lane whose slice ends takes the next one, so the
/// lanes run out of work at about the same time.  Once no job is left to
/// take, the lanes still hashing finish one chain at a time.
fn fnv1a_lanes(jobs: &mut [(usize, &[u8])], out: &mut [u64]) {
    if jobs.len() < LANES {
        for &(i, bytes) in jobs.iter() {
            out[i] = fnv1a(bytes);
        }
        return;
    }
    jobs.sort_unstable_by_key(|&(_, bytes)| std::cmp::Reverse(bytes.len()));
    let (first, later) = jobs.split_at(LANES);
    let mut pending = later.iter();
    let mut index: [usize; LANES] = std::array::from_fn(|k| first[k].0);
    let mut rest: [&[u8]; LANES] = std::array::from_fn(|k| first[k].1);
    let mut hash = [FNV_OFFSET; LANES];
    loop {
        // Every lane steps until the shortest rest ends.
        let [a, b, c, d] = rest;
        for (((&x0, &x1), &x2), &x3) in a.iter().zip(b).zip(c).zip(d) {
            hash = [
                fnv1a_step(hash[0], x0),
                fnv1a_step(hash[1], x1),
                fnv1a_step(hash[2], x2),
                fnv1a_step(hash[3], x3),
            ];
        }
        let n = rest.iter().map(|s| s.len()).min().unwrap_or(0);
        rest = rest.map(|s| &s[n..]);
        for k in 0..LANES {
            if !rest[k].is_empty() {
                continue;
            }
            let Some(&(i, bytes)) = pending.next() else {
                // Lane `k` is done and has nothing left to take; the other
                // lanes finish on their own (a done lane's rest is empty).
                for j in 0..LANES {
                    out[index[j]] = fnv1a_from(hash[j], rest[j]);
                }
                return;
            };
            out[index[k]] = hash[k];
            (index[k], rest[k], hash[k]) = (i, bytes, FNV_OFFSET);
        }
    }
}

/// The FNV-1a hash of every slice `slices` yields, in order, computed by
/// [`fnv1a_lanes`] [`WINDOW`] slices at a time.
struct Fnv1aLanes<I> {
    slices: I,
    hashes: [u64; WINDOW],
    len: usize,
    next: usize,
}

impl<I> Fnv1aLanes<I> {
    fn new(slices: I) -> Self {
        Self {
            slices,
            hashes: [0; WINDOW],
            len: 0,
            next: 0,
        }
    }
}

impl<'a, I: Iterator<Item = &'a [u8]>> Iterator for Fnv1aLanes<I> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        if self.next == self.len {
            let mut jobs: [(usize, &[u8]); WINDOW] = [(0, &[]); WINDOW];
            let mut len = 0;
            for bytes in (&mut self.slices).take(WINDOW) {
                jobs[len] = (len, bytes);
                len += 1;
            }
            fnv1a_lanes(&mut jobs[..len], &mut self.hashes[..len]);
            (self.len, self.next) = (len, 0);
        }
        let hash = *self.hashes[..self.len].get(self.next)?;
        self.next += 1;
        Some(hash)
    }
}

/// Folds 64-bit words FNV-style: `acc = (acc ^ word) * FNV_PRIME` from the
/// offset basis.
fn fold_words(words: impl Iterator<Item = u64>) -> u64 {
    words.fold(FNV_OFFSET, |acc, word| (acc ^ word).wrapping_mul(FNV_PRIME))
}

/// The full state of one (virtual) process.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessState {
    rank: usize,
    regions: Vec<MemoryRegion>,
    progress: f64,
}

impl ProcessState {
    /// Creates an empty process state.
    pub fn new(rank: usize) -> Self {
        Self {
            rank,
            regions: Vec::new(),
            progress: 0.0,
        }
    }

    /// Rank of the process.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Adds a region and returns its id.
    pub fn add_region(&mut self, kind: DatasetKind, data: Vec<u8>) -> usize {
        let id = self.regions.len();
        self.regions.push(MemoryRegion::new(id, kind, data));
        id
    }

    /// All regions.
    #[inline]
    pub fn regions(&self) -> &[MemoryRegion] {
        &self.regions
    }

    /// Regions belonging to a dataset.
    pub fn regions_of(&self, kind: DatasetKind) -> impl Iterator<Item = &MemoryRegion> {
        self.regions.iter().filter(move |r| r.kind == kind)
    }

    /// Immutable access to a region.
    pub fn region(&self, id: usize) -> Result<&MemoryRegion> {
        self.regions.get(id).ok_or(CkptError::UnknownRegion {
            rank: self.rank,
            region: id,
        })
    }

    /// Mutable access to a region.
    pub fn region_mut(&mut self, id: usize) -> Result<&mut MemoryRegion> {
        let rank = self.rank;
        self.regions.get_mut(id).ok_or(CkptError::UnknownRegion { rank, region: id })
    }

    /// Total footprint of the process in bytes.
    pub fn footprint(&self) -> usize {
        self.regions.iter().map(MemoryRegion::len).sum()
    }

    /// Footprint of one dataset in bytes.
    pub fn footprint_of(&self, kind: DatasetKind) -> usize {
        self.regions_of(kind).map(MemoryRegion::len).sum()
    }

    /// Abstract computation progress (application-defined work units).
    #[inline]
    pub fn progress(&self) -> f64 {
        self.progress
    }

    /// Advances the computation progress.
    pub fn advance(&mut self, work: f64) {
        self.progress += work;
    }

    /// Sets the progress. Intended for recovery paths (a restore rewinds the
    /// process to the progress recorded in the checkpoint; an ABFT recovery
    /// restores the progress the surviving processes vouch for).
    pub fn set_progress(&mut self, progress: f64) {
        self.progress = progress;
    }

    /// Simulates a crash: all region contents are lost (zeroed) and progress
    /// is reset. Region structure (ids, kinds, sizes) survives because a
    /// replacement process is started with the same memory layout.
    pub fn crash(&mut self) {
        for r in &mut self.regions {
            r.data = Arc::new(vec![0; r.data.len()]);
            r.generation += 1;
        }
        self.progress = 0.0;
    }

    /// Fingerprint of the whole process state (regions of all datasets plus
    /// progress), for cheap equality assertions.  Each region's
    /// [`MemoryRegion::fingerprint`] is rotated left by `id % 63`; the rotated
    /// words are folded in region order as `acc = (acc ^ word) * p` from the
    /// FNV-1a offset basis with the FNV-1a prime `p`, and the bits of the
    /// progress are XORed into the result.  The regions are hashed as
    /// independent chains in lockstep.
    pub fn fingerprint(&self) -> u64 {
        self.fold_region_hashes(Fnv1aLanes::new(self.regions.iter().map(MemoryRegion::data)))
    }

    /// The per-process fold of [`ProcessState::fingerprint`], given the
    /// FNV-1a hash of each region in order.
    fn fold_region_hashes(&self, hashes: impl Iterator<Item = u64>) -> u64 {
        let words = self
            .regions
            .iter()
            .zip(hashes)
            .map(|(r, h)| h.rotate_left((r.id % 63) as u32));
        fold_words(words) ^ self.progress.to_bits()
    }
}

/// A set of processes that checkpoint and recover together.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessSet {
    processes: Vec<ProcessState>,
}

impl ProcessSet {
    /// Creates `n` empty processes with ranks `0..n`.
    pub fn new(n: usize) -> Self {
        Self {
            processes: (0..n).map(ProcessState::new).collect(),
        }
    }

    /// Creates `n` processes, each holding one LIBRARY region of
    /// `library_bytes` and one REMAINDER region of `remainder_bytes`, filled
    /// with a rank-dependent pattern so that restorations are distinguishable.
    pub fn uniform(n: usize, library_bytes: usize, remainder_bytes: usize) -> Self {
        let mut set = Self::new(n);
        for rank in 0..n {
            let lib: Vec<u8> = (0..library_bytes).map(|i| ((i + rank) % 251) as u8).collect();
            let rem: Vec<u8> = (0..remainder_bytes)
                .map(|i| ((i * 7 + rank * 13) % 253) as u8)
                .collect();
            let p = &mut set.processes[rank];
            p.add_region(DatasetKind::Library, lib);
            p.add_region(DatasetKind::Remainder, rem);
        }
        set
    }

    /// Number of processes.
    #[inline]
    pub fn len(&self) -> usize {
        self.processes.len()
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.processes.is_empty()
    }

    /// Immutable access to a process.
    pub fn process(&self, rank: usize) -> Result<&ProcessState> {
        self.processes.get(rank).ok_or(CkptError::UnknownRank {
            rank,
            size: self.processes.len(),
        })
    }

    /// Mutable access to a process.
    pub fn process_mut(&mut self, rank: usize) -> Result<&mut ProcessState> {
        let size = self.processes.len();
        self.processes.get_mut(rank).ok_or(CkptError::UnknownRank { rank, size })
    }

    /// Iterator over the processes.
    pub fn iter(&self) -> impl Iterator<Item = &ProcessState> {
        self.processes.iter()
    }

    /// Mutable iterator over the processes.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut ProcessState> {
        self.processes.iter_mut()
    }

    /// Total footprint across all processes, in bytes.
    pub fn total_footprint(&self) -> usize {
        self.processes.iter().map(ProcessState::footprint).sum()
    }

    /// Footprint of one dataset across all processes, in bytes.
    pub fn footprint_of(&self, kind: DatasetKind) -> usize {
        self.processes.iter().map(|p| p.footprint_of(kind)).sum()
    }

    /// Fingerprint of the whole process set: each process's
    /// [`ProcessState::fingerprint`], folded in rank order as
    /// `acc = (acc ^ word) * p` from the FNV-1a offset basis with the FNV-1a
    /// prime `p`.  The regions of all processes are hashed in one pass, as
    /// independent chains in lockstep.
    pub fn fingerprint(&self) -> u64 {
        let regions = self.processes.iter().flat_map(|p| &p.regions);
        let mut hashes = Fnv1aLanes::new(regions.map(MemoryRegion::data));
        fold_words(
            self.processes
                .iter()
                .map(|p| p.fold_region_hashes(hashes.by_ref().take(p.regions.len()))),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// 64-bit FNV-1a, byte by byte, written independently of the production
    /// kernels so they are not checked against themselves.
    fn reference_fnv1a(bytes: &[u8]) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325_u64;
        for &byte in bytes {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x100_0000_01b3);
        }
        hash
    }

    /// One xorshift64 step.
    fn xorshift(x: &mut u64) -> u64 {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        *x
    }

    /// `len` xorshift bytes from `seed`.
    fn noise(seed: u64, len: usize) -> Vec<u8> {
        let mut x = seed | 1;
        (0..len).map(|_| (xorshift(&mut x) >> 24) as u8).collect()
    }

    /// The kernel's hashes of `buffers`, and the reference's.
    fn lanes_and_reference(buffers: &[Vec<u8>]) -> (Vec<u64>, Vec<u64>) {
        let lanes = Fnv1aLanes::new(buffers.iter().map(Vec::as_slice)).collect();
        let reference = buffers.iter().map(|b| reference_fnv1a(b)).collect();
        (lanes, reference)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random lists of 0–40 slices of 0–2 KiB; a third are empty or
        /// under 64 bytes, so lanes retire at different times.
        #[test]
        fn lanes_equal_the_bytewise_reference(
            shapes in prop::collection::vec((0usize..=2048, 0u8..3), 0..41),
            seed in 0u64..u64::MAX,
        ) {
            let buffers: Vec<Vec<u8>> = shapes
                .iter()
                .enumerate()
                .map(|(i, &(len, short))| {
                    let len = if short == 0 { len % 64 } else { len };
                    noise(seed.wrapping_add(i as u64), len)
                })
                .collect();
            let (lanes, reference) = lanes_and_reference(&buffers);
            prop_assert_eq!(lanes, reference);
        }
    }

    #[test]
    fn lanes_equal_the_bytewise_reference_on_one_mebibyte() {
        // The uniform set's layout (96 KiB + 32 KiB per process) plus two
        // odd-sized slices, 1 MiB in all.
        let mut lens: Vec<usize> = (0..7).flat_map(|_| [96 * 1024, 32 * 1024]).collect();
        lens.extend([96 * 1024 + 12_345, 32 * 1024 - 12_345]);
        assert_eq!(lens.iter().sum::<usize>(), 1 << 20);
        let buffers: Vec<Vec<u8>> = lens
            .iter()
            .enumerate()
            .map(|(i, &n)| noise(i as u64, n))
            .collect();
        let (lanes, reference) = lanes_and_reference(&buffers);
        assert_eq!(lanes, reference);
    }

    #[test]
    fn dataset_complement_is_involutive() {
        assert_eq!(DatasetKind::Library.complement(), DatasetKind::Remainder);
        assert_eq!(DatasetKind::Remainder.complement(), DatasetKind::Library);
        assert_eq!(DatasetKind::Library.complement().complement(), DatasetKind::Library);
    }

    #[test]
    fn writes_bump_generation() {
        let mut r = MemoryRegion::new(0, DatasetKind::Library, vec![1, 2, 3]);
        assert_eq!(r.generation(), 0);
        r.write(vec![4, 5]);
        assert_eq!(r.generation(), 1);
        assert_eq!(r.data(), &[4, 5]);
        r.update(|d| d.push(6));
        assert_eq!(r.generation(), 2);
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn fingerprint_changes_with_content() {
        let a = MemoryRegion::new(0, DatasetKind::Library, vec![1, 2, 3]);
        let mut b = MemoryRegion::new(0, DatasetKind::Library, vec![1, 2, 3]);
        assert_eq!(a.fingerprint(), b.fingerprint());
        b.write(vec![1, 2, 4]);
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn process_footprints_split_by_dataset() {
        let mut p = ProcessState::new(0);
        p.add_region(DatasetKind::Library, vec![0; 100]);
        p.add_region(DatasetKind::Remainder, vec![0; 40]);
        p.add_region(DatasetKind::Library, vec![0; 60]);
        assert_eq!(p.footprint(), 200);
        assert_eq!(p.footprint_of(DatasetKind::Library), 160);
        assert_eq!(p.footprint_of(DatasetKind::Remainder), 40);
    }

    #[test]
    fn crash_wipes_contents_but_keeps_layout() {
        let mut set = ProcessSet::uniform(2, 64, 32);
        let before = set.process(1).unwrap().fingerprint();
        set.process_mut(1).unwrap().crash();
        let p = set.process(1).unwrap();
        assert_ne!(p.fingerprint(), before);
        assert_eq!(p.footprint(), 96);
        assert!(p.regions().iter().all(|r| r.data().iter().all(|&b| b == 0)));
        assert_eq!(p.progress(), 0.0);
    }

    #[test]
    fn uniform_set_has_expected_shape() {
        let set = ProcessSet::uniform(4, 128, 64);
        assert_eq!(set.len(), 4);
        assert_eq!(set.total_footprint(), 4 * (128 + 64));
        assert_eq!(set.footprint_of(DatasetKind::Library), 4 * 128);
        assert_eq!(set.footprint_of(DatasetKind::Remainder), 4 * 64);
        // Different ranks hold different data.
        assert_ne!(
            set.process(0).unwrap().fingerprint(),
            set.process(1).unwrap().fingerprint()
        );
    }

    #[test]
    fn rank_and_region_lookup_errors() {
        let mut set = ProcessSet::uniform(2, 8, 8);
        assert!(matches!(set.process(2), Err(CkptError::UnknownRank { rank: 2, size: 2 })));
        assert!(set.process_mut(5).is_err());
        let p = set.process_mut(0).unwrap();
        assert!(matches!(p.region(7), Err(CkptError::UnknownRegion { region: 7, .. })));
        assert!(p.region_mut(9).is_err());
    }

    #[test]
    fn progress_accumulates_and_resets_on_crash() {
        let mut p = ProcessState::new(0);
        p.advance(10.0);
        p.advance(5.0);
        assert_eq!(p.progress(), 15.0);
        p.crash();
        assert_eq!(p.progress(), 0.0);
    }

    #[test]
    fn set_fingerprint_detects_any_change() {
        let set = ProcessSet::uniform(3, 32, 16);
        let fp = set.fingerprint();
        let mut modified = set.clone();
        modified
            .process_mut(2)
            .unwrap()
            .region_mut(0)
            .unwrap()
            .update(|d| d[0] ^= 0xFF);
        assert_ne!(fp, modified.fingerprint());
    }

    /// Processes with 0, 1, 3 and 70 regions of 0–300 bytes: empty regions,
    /// region ids past the `id % 63` wrap, fewer and more regions than
    /// hashing lanes, and regions of unequal length.
    fn ragged_set() -> ProcessSet {
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut set = ProcessSet::new(4);
        for (rank, regions) in [0usize, 1, 3, 70].into_iter().enumerate() {
            let p = set.process_mut(rank).unwrap();
            for id in 0..regions {
                let len = if id % 5 == 2 {
                    0
                } else {
                    (xorshift(&mut x) % 301) as usize
                };
                let kind = if xorshift(&mut x) & 1 == 0 {
                    DatasetKind::Library
                } else {
                    DatasetKind::Remainder
                };
                p.add_region(kind, (0..len).map(|_| xorshift(&mut x) as u8).collect());
            }
            p.advance(rank as f64 * 1.5);
        }
        set
    }

    // The pinned values below were recorded with the one-chain FNV-1a
    // fingerprint, before the multi-lane kernel existed.  Never edit them.

    #[test]
    fn pinned_uniform_set_fingerprint() {
        let mut set = ProcessSet::uniform(8, 96 * 1024, 32 * 1024);
        assert_eq!(set.fingerprint(), 8_273_167_774_036_378_903);
        for p in set.iter_mut() {
            let rank = p.rank();
            p.region_mut(rank % 2).unwrap().update(|d| {
                for (i, b) in d.iter_mut().enumerate() {
                    *b = b.wrapping_mul(31).wrapping_add((i + rank) as u8);
                }
            });
        }
        assert_eq!(set.fingerprint(), 2_709_871_935_655_499_390);
    }

    #[test]
    fn pinned_ragged_set_fingerprint() {
        let set = ragged_set();
        let per_process: Vec<u64> = set.iter().map(ProcessState::fingerprint).collect();
        assert_eq!(
            per_process,
            [
                14_695_981_039_346_656_037,
                5_235_686_421_419_995_996,
                3_775_149_938_982_591_359,
                1_780_137_068_130_185_197
            ]
        );
        assert_eq!(set.fingerprint(), 13_737_929_745_667_846_196);
    }

    #[test]
    fn pinned_empty_set_fingerprint() {
        assert_eq!(ProcessSet::new(0).fingerprint(), 14_695_981_039_346_656_037);
    }
}
