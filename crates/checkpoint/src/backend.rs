//! Pluggable storage backends for serialized checkpoint streams.
//!
//! A [`CheckpointBackend`] stores opaque frame streams keyed by generation.
//! Three implementations ship with the crate:
//!
//! * [`MemoryBackend`] — a `BTreeMap`, for tests and simulation;
//! * [`ChunkedFileBackend`] — real files in a private temp directory, written
//!   in bounded chunks, fsync'd, and **committed by atomic rename** so a
//!   crash mid-write leaves either no generation or a complete one;
//! * [`FaultInjectingBackend`] — a decorator that deterministically (seeded)
//!   damages writes (bit flips, truncations, torn writes at frame
//!   boundaries) and makes reads fail transiently, so the restore path's
//!   verification and graceful degradation can be exercised under a
//!   controlled fault matrix.

use std::collections::BTreeMap;
use std::fs;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use ft_platform::rng::{DeterministicRng, Xoshiro256};

use crate::frame::frame_boundaries;

/// Why a backend operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreFault {
    /// The requested generation is not stored.
    Missing {
        /// The generation that was requested.
        generation: u64,
    },
    /// A transient fault (timeout, contention): retrying may succeed.
    Transient {
        /// The generation the operation targeted.
        generation: u64,
    },
    /// A hard I/O error from the underlying medium.
    Io {
        /// Human-readable description of the failure.
        detail: String,
    },
}

impl std::fmt::Display for StoreFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreFault::Missing { generation } => {
                write!(f, "generation {generation} is not stored")
            }
            StoreFault::Transient { generation } => {
                write!(f, "transient fault accessing generation {generation}")
            }
            StoreFault::Io { detail } => write!(f, "storage I/O error: {detail}"),
        }
    }
}

impl std::error::Error for StoreFault {}

/// A store of opaque checkpoint streams keyed by generation.
///
/// Backends store bytes; they do not interpret frames.  `put` must be
/// all-or-nothing from the reader's perspective wherever the medium allows
/// (the file backend commits by rename); `generations` lists what is
/// retrievable, in ascending order.
pub trait CheckpointBackend {
    /// Stores `bytes` under `generation`, replacing any previous content.
    fn put(&mut self, generation: u64, bytes: &[u8]) -> Result<(), StoreFault>;

    /// Retrieves the bytes stored under `generation`.
    fn get(&mut self, generation: u64) -> Result<Vec<u8>, StoreFault>;

    /// Generations currently stored, ascending.
    fn generations(&self) -> Vec<u64>;

    /// Removes a generation (absence is not an error).
    fn delete(&mut self, generation: u64) -> Result<(), StoreFault>;

    /// Short human-readable name of the backend.
    fn name(&self) -> &'static str;
}

// ---------------------------------------------------------------------------
// In-memory backend
// ---------------------------------------------------------------------------

/// The reference backend: streams live in a `BTreeMap`.
#[derive(Debug, Default, Clone)]
pub struct MemoryBackend {
    streams: BTreeMap<u64, Vec<u8>>,
}

impl MemoryBackend {
    /// An empty backend.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total bytes currently stored.
    pub fn stored_bytes(&self) -> usize {
        self.streams.values().map(Vec::len).sum()
    }
}

impl CheckpointBackend for MemoryBackend {
    fn put(&mut self, generation: u64, bytes: &[u8]) -> Result<(), StoreFault> {
        self.streams.insert(generation, bytes.to_vec());
        Ok(())
    }

    fn get(&mut self, generation: u64) -> Result<Vec<u8>, StoreFault> {
        self.streams
            .get(&generation)
            .cloned()
            .ok_or(StoreFault::Missing { generation })
    }

    fn generations(&self) -> Vec<u64> {
        self.streams.keys().copied().collect()
    }

    fn delete(&mut self, generation: u64) -> Result<(), StoreFault> {
        self.streams.remove(&generation);
        Ok(())
    }

    fn name(&self) -> &'static str {
        "memory"
    }
}

// ---------------------------------------------------------------------------
// Chunked-file backend
// ---------------------------------------------------------------------------

static DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

/// A real-file backend: each generation is one file in a private temporary
/// directory, written in bounded chunks to `gen-<id>.tmp`, `sync_all`'d, and
/// atomically renamed to `gen-<id>.ckpt`.  A crash between `put` calls can
/// therefore never expose a half-written generation: either the `.ckpt` file
/// exists complete, or the generation is absent.
#[derive(Debug)]
pub struct ChunkedFileBackend {
    dir: PathBuf,
    chunk: usize,
}

impl ChunkedFileBackend {
    /// Creates the backend with its own fresh directory under the system
    /// temp dir.  `chunk` bounds the size of individual write calls.
    pub fn new(chunk: usize) -> Result<Self, StoreFault> {
        let dir = std::env::temp_dir().join(format!(
            "ft-ckpt-{}-{}",
            std::process::id(),
            DIR_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&dir).map_err(|e| StoreFault::Io {
            detail: format!("create {}: {e}", dir.display()),
        })?;
        Ok(Self {
            dir,
            chunk: chunk.max(1),
        })
    }

    /// Directory holding the committed generation files.
    pub fn dir(&self) -> &std::path::Path {
        &self.dir
    }

    fn committed_path(&self, generation: u64) -> PathBuf {
        self.dir.join(format!("gen-{generation:016x}.ckpt"))
    }
}

impl Drop for ChunkedFileBackend {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.dir);
    }
}

impl CheckpointBackend for ChunkedFileBackend {
    fn put(&mut self, generation: u64, bytes: &[u8]) -> Result<(), StoreFault> {
        let tmp = self.dir.join(format!("gen-{generation:016x}.tmp"));
        let io = |what: &str, e: std::io::Error| StoreFault::Io {
            detail: format!("{what}: {e}"),
        };
        let mut f = fs::File::create(&tmp).map_err(|e| io("create tmp", e))?;
        for piece in bytes.chunks(self.chunk) {
            f.write_all(piece).map_err(|e| io("write chunk", e))?;
        }
        // Order matters: data must be durable before the rename publishes it.
        f.sync_all().map_err(|e| io("fsync", e))?;
        drop(f);
        fs::rename(&tmp, self.committed_path(generation)).map_err(|e| io("commit rename", e))?;
        Ok(())
    }

    fn get(&mut self, generation: u64) -> Result<Vec<u8>, StoreFault> {
        match fs::read(self.committed_path(generation)) {
            Ok(bytes) => Ok(bytes),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                Err(StoreFault::Missing { generation })
            }
            Err(e) => Err(StoreFault::Io {
                detail: format!("read: {e}"),
            }),
        }
    }

    fn generations(&self) -> Vec<u64> {
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return Vec::new();
        };
        let mut gens: Vec<u64> = entries
            .filter_map(|e| {
                let name = e.ok()?.file_name().into_string().ok()?;
                let hex = name.strip_prefix("gen-")?.strip_suffix(".ckpt")?;
                u64::from_str_radix(hex, 16).ok()
            })
            .collect();
        gens.sort_unstable();
        gens
    }

    fn delete(&mut self, generation: u64) -> Result<(), StoreFault> {
        match fs::remove_file(self.committed_path(generation)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(StoreFault::Io {
                detail: format!("delete: {e}"),
            }),
        }
    }

    fn name(&self) -> &'static str {
        "chunked-file"
    }
}

// ---------------------------------------------------------------------------
// Fault-injecting decorator
// ---------------------------------------------------------------------------

/// What the injector did to a generation's stored stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedKind {
    /// One bit of the stored stream was flipped.
    BitFlip,
    /// The stream was cut mid-frame at an arbitrary byte.
    Truncate,
    /// The stream was cut exactly at a frame boundary (complete frames, no
    /// trailer) — what a crash between write and commit looks like.
    TornWrite,
}

/// Per-operation fault probabilities of a [`FaultInjectingBackend`].
///
/// Write faults (`bit_flip`, `truncate`, `torn_write`) are drawn in the
/// fixed order torn → truncate → flip and at most one applies per `put`.
/// `transient` is drawn on `get`; a triggered transient makes
/// `max_transient_repeats` consecutive `get`s of that generation fail
/// (including the triggering one) before clearing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Probability a `put` stores a bit-flipped copy.
    pub bit_flip: f64,
    /// Probability a `put` stores a copy truncated mid-frame.
    pub truncate: f64,
    /// Probability a `put` stores only a frame-aligned prefix (torn write).
    pub torn_write: f64,
    /// Probability a `get` fails transiently.
    pub transient: f64,
    /// How many consecutive retries a triggered transient keeps failing.
    pub max_transient_repeats: u32,
}

impl FaultPlan {
    /// A plan that injects nothing — the decorator becomes transparent.
    pub fn none() -> Self {
        Self {
            bit_flip: 0.0,
            truncate: 0.0,
            torn_write: 0.0,
            transient: 0.0,
            max_transient_repeats: 0,
        }
    }

    /// A plan injecting only the given write-fault kind with probability `p`.
    pub fn only(kind: InjectedKind, p: f64) -> Self {
        let mut plan = Self::none();
        match kind {
            InjectedKind::BitFlip => plan.bit_flip = p,
            InjectedKind::Truncate => plan.truncate = p,
            InjectedKind::TornWrite => plan.torn_write = p,
        }
        plan
    }

    /// A plan injecting only transient read faults with probability `p`,
    /// each trigger failing `repeats` consecutive reads in total.
    pub fn transient_only(p: f64, repeats: u32) -> Self {
        Self {
            transient: p,
            max_transient_repeats: repeats,
            ..Self::none()
        }
    }
}

/// A decorator around any backend that deterministically injects storage
/// faults, recording everything it injected so tests can assert that each
/// damaged generation was detected (never silently restored).
#[derive(Debug)]
pub struct FaultInjectingBackend<B: CheckpointBackend> {
    inner: B,
    plan: FaultPlan,
    rng: Xoshiro256,
    injected: Vec<(u64, InjectedKind)>,
    pending_transients: BTreeMap<u64, u32>,
}

impl<B: CheckpointBackend> FaultInjectingBackend<B> {
    /// Wraps `inner`, injecting per `plan`, seeded deterministically.
    pub fn new(inner: B, plan: FaultPlan, seed: u64) -> Self {
        Self {
            inner,
            plan,
            rng: Xoshiro256::seed_from_u64(seed),
            injected: Vec::new(),
            pending_transients: BTreeMap::new(),
        }
    }

    /// Everything injected so far, in order: `(generation, kind)`.
    pub fn injected(&self) -> &[(u64, InjectedKind)] {
        &self.injected
    }

    /// Write-fault kinds injected into one generation.
    pub fn injected_into(&self, generation: u64) -> Vec<InjectedKind> {
        self.injected
            .iter()
            .filter(|(g, _)| *g == generation)
            .map(|&(_, k)| k)
            .collect()
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// Mutable access to the fault plan — lets a test arm or disarm
    /// injection between writes (e.g. commit one generation intact, then
    /// corrupt the next).
    pub fn plan_mut(&mut self) -> &mut FaultPlan {
        &mut self.plan
    }

    fn chance(&mut self, p: f64) -> bool {
        p > 0.0 && self.rng.next_f64() < p
    }
}

impl<B: CheckpointBackend> CheckpointBackend for FaultInjectingBackend<B> {
    fn put(&mut self, generation: u64, bytes: &[u8]) -> Result<(), StoreFault> {
        // Draw in a fixed order so a given seed produces the same faults
        // regardless of which probabilities are non-zero.
        let torn = self.chance(self.plan.torn_write);
        let truncate = self.chance(self.plan.truncate);
        let flip = self.chance(self.plan.bit_flip);
        let kind = if torn {
            InjectedKind::TornWrite
        } else if truncate {
            InjectedKind::Truncate
        } else if flip {
            InjectedKind::BitFlip
        } else {
            return self.inner.put(generation, bytes);
        };
        self.injected.push((generation, kind));
        match kind {
            InjectedKind::TornWrite => {
                // Keep a strict prefix of whole frames (possibly zero
                // frames): the final boundary is the full stream, so never
                // pick it.
                let bounds = frame_boundaries(bytes);
                let cut = if bounds.len() > 1 {
                    bounds[(self.rng.next_u64() as usize) % (bounds.len() - 1)]
                } else {
                    0
                };
                self.inner.put(generation, &bytes[..cut])
            }
            InjectedKind::Truncate => {
                let cut = if bytes.len() > 1 {
                    1 + (self.rng.next_u64() as usize) % (bytes.len() - 1)
                } else {
                    bytes.len()
                };
                self.inner.put(generation, &bytes[..cut])
            }
            InjectedKind::BitFlip => {
                let mut damaged = bytes.to_vec();
                if !damaged.is_empty() {
                    let bit = (self.rng.next_u64() as usize) % (damaged.len() * 8);
                    damaged[bit / 8] ^= 1 << (bit % 8);
                }
                self.inner.put(generation, &damaged)
            }
        }
    }

    fn get(&mut self, generation: u64) -> Result<Vec<u8>, StoreFault> {
        if let Some(left) = self.pending_transients.get_mut(&generation) {
            if *left > 0 {
                *left -= 1;
                return Err(StoreFault::Transient { generation });
            }
            self.pending_transients.remove(&generation);
        } else if self.chance(self.plan.transient) {
            if self.plan.max_transient_repeats > 1 {
                self.pending_transients
                    .insert(generation, self.plan.max_transient_repeats - 1);
            }
            return Err(StoreFault::Transient { generation });
        }
        self.inner.get(generation)
    }

    fn generations(&self) -> Vec<u64> {
        self.inner.generations()
    }

    fn delete(&mut self, generation: u64) -> Result<(), StoreFault> {
        self.inner.delete(generation)
    }

    fn name(&self) -> &'static str {
        "fault-injecting"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{encode_stream, FrameHeader, PayloadKind};
    use ft_platform::checksum::Crc32;

    fn stream(generation: u64) -> Vec<u8> {
        let header = FrameHeader {
            generation,
            payload: PayloadKind::State,
            time: generation as f64,
        };
        let body: Vec<u8> = (0..2000u32).map(|i| (i % 251) as u8).collect();
        encode_stream(header, &body, 256, Crc32::new())
    }

    fn backend_round_trip<B: CheckpointBackend>(mut b: B) {
        assert!(b.generations().is_empty());
        assert!(matches!(b.get(0), Err(StoreFault::Missing { generation: 0 })));
        for generation in [3u64, 1, 7] {
            b.put(generation, &stream(generation)).unwrap();
        }
        assert_eq!(b.generations(), vec![1, 3, 7]);
        for generation in [1u64, 3, 7] {
            assert_eq!(b.get(generation).unwrap(), stream(generation));
        }
        b.delete(3).unwrap();
        b.delete(3).unwrap(); // absent is fine
        assert_eq!(b.generations(), vec![1, 7]);
        assert!(b.get(3).is_err());
        // Overwrite replaces.
        b.put(1, b"short").unwrap();
        assert_eq!(b.get(1).unwrap(), b"short");
    }

    #[test]
    fn memory_backend_round_trips() {
        backend_round_trip(MemoryBackend::new());
        assert_eq!(MemoryBackend::new().name(), "memory");
    }

    #[test]
    fn file_backend_round_trips_and_cleans_up() {
        let b = ChunkedFileBackend::new(128).unwrap();
        let dir = b.dir().to_path_buf();
        assert!(dir.exists());
        backend_round_trip(b);
        assert!(!dir.exists(), "drop must remove the backend directory");
    }

    #[test]
    fn file_backend_commit_is_atomic_no_tmp_files_remain() {
        let mut b = ChunkedFileBackend::new(64).unwrap();
        for generation in 0..5u64 {
            b.put(generation, &stream(generation)).unwrap();
        }
        let leftovers: Vec<_> = std::fs::read_dir(b.dir())
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "tmp files must be renamed away");
        assert_eq!(b.generations(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn injector_with_empty_plan_is_transparent() {
        let mut b = FaultInjectingBackend::new(MemoryBackend::new(), FaultPlan::none(), 42);
        b.put(0, &stream(0)).unwrap();
        assert_eq!(b.get(0).unwrap(), stream(0));
        assert!(b.injected().is_empty());
        backend_round_trip(FaultInjectingBackend::new(
            MemoryBackend::new(),
            FaultPlan::none(),
            7,
        ));
    }

    #[test]
    fn injector_damages_exactly_what_it_records() {
        for kind in [InjectedKind::BitFlip, InjectedKind::Truncate, InjectedKind::TornWrite] {
            let mut b =
                FaultInjectingBackend::new(MemoryBackend::new(), FaultPlan::only(kind, 0.5), 99);
            let mut damaged = 0;
            for generation in 0..40u64 {
                let clean = stream(generation);
                b.put(generation, &clean).unwrap();
                let stored = b.get(generation).unwrap();
                let was_injected = !b.injected_into(generation).is_empty();
                if was_injected {
                    damaged += 1;
                    assert_ne!(stored, clean, "{kind:?} on generation {generation}");
                } else {
                    assert_eq!(stored, clean);
                }
            }
            assert!(damaged > 5, "{kind:?}: seed produced too few injections");
            assert!(damaged < 35, "{kind:?}: seed damaged nearly everything");
        }
    }

    #[test]
    fn torn_write_cuts_exactly_at_a_frame_boundary() {
        let mut b = FaultInjectingBackend::new(
            MemoryBackend::new(),
            FaultPlan::only(InjectedKind::TornWrite, 1.0),
            5,
        );
        let clean = stream(9);
        let bounds = frame_boundaries(&clean);
        b.put(9, &clean).unwrap();
        let stored = b.get(9).unwrap();
        assert!(stored.len() < clean.len());
        assert!(bounds.contains(&stored.len()), "cut must be frame-aligned");
        assert_eq!(stored[..], clean[..stored.len()]);
    }

    #[test]
    fn transients_clear_after_the_configured_retries() {
        // A trigger fails `repeats` consecutive gets, then the read succeeds
        // (the pending counter suppresses a fresh draw on the clearing get).
        let mut b = FaultInjectingBackend::new(
            MemoryBackend::new(),
            FaultPlan::transient_only(1.0, 2),
            11,
        );
        b.put(0, &stream(0)).unwrap();
        assert!(matches!(b.get(0), Err(StoreFault::Transient { .. })));
        assert!(matches!(b.get(0), Err(StoreFault::Transient { .. })));
        assert_eq!(b.get(0).unwrap(), stream(0));
        // With p = 1.0 the next get re-triggers a fresh transient burst.
        assert!(matches!(b.get(0), Err(StoreFault::Transient { .. })));
    }

    #[test]
    fn injection_sequence_is_deterministic_per_seed() {
        let run = |seed| {
            let mut b = FaultInjectingBackend::new(
                MemoryBackend::new(),
                FaultPlan {
                    bit_flip: 0.2,
                    truncate: 0.2,
                    torn_write: 0.2,
                    transient: 0.0,
                    max_transient_repeats: 0,
                },
                seed,
            );
            for generation in 0..30u64 {
                b.put(generation, &stream(generation)).unwrap();
            }
            b.injected().to_vec()
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1), run(2));
    }
}
