//! The durable checkpoint pipeline: framing + backend + verified restore.
//!
//! [`CheckpointPipeline`] is the write/read orchestrator the runtime and the
//! simulator talk to.  On the way **down** it serializes checkpoint images
//! into checksummed frame streams ([`crate::frame`]) and commits them to a
//! pluggable [`CheckpointBackend`]; on the way **up** it fetches, verifies
//! ([`crate::verify`]), resolves delta/partial chains, and — when a
//! generation turns out damaged — **walks back** to the newest generation
//! that still verifies, reporting exactly what was rejected and how much
//! recomputation (rework) the fallback costs.  The pipeline never hands the
//! caller unverified state: every failure mode surfaces as a typed
//! [`RestoreFault`].
//!
//! Every operation is wall-clock timed into a [`GenerationCost`] record, so
//! benchmarks can replace the scalar `C`/`R` parameters of the analytic
//! waste models with measured write/verify/restore distributions.

use std::collections::BTreeMap;

use ft_platform::checksum::ChecksumGen;
use ft_platform::clock::Stopwatch;

use crate::backend::{CheckpointBackend, StoreFault};
use crate::coordinated::CoordinatedCheckpoint;
use crate::frame::{
    decode_coordinated, decode_incremental, decode_partial, encode_coordinated,
    encode_incremental, encode_partial, encode_stream, FrameHeader, PayloadKind,
    DEFAULT_CHUNK_SIZE,
};
use crate::incremental::IncrementalCheckpoint;
use crate::partial::PartialCheckpoint;
use crate::verify::{fetch_verified, fetch_verified_counting, RestoreFault, RetryPolicy};

/// Which pipeline operation a [`GenerationCost`] record measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipelineOp {
    /// Serializing + committing a full coordinated checkpoint.
    WriteFull,
    /// Serializing + committing an incremental (delta) checkpoint.
    WriteDelta,
    /// Serializing + committing a partial (one-dataset) checkpoint.
    WritePartial,
    /// Serializing + committing an opaque state snapshot.
    WriteState,
    /// Fetching + frame-verifying a generation (no image reconstruction).
    Verify,
    /// A full verified restore including chain resolution and fallback.
    Restore,
}

/// One timed pipeline operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenerationCost {
    /// Generation the operation targeted (for restores: the generation that
    /// was eventually restored).
    pub generation: u64,
    /// What was measured.
    pub op: PipelineOp,
    /// Unframed payload bytes.
    pub raw_bytes: usize,
    /// Bytes actually stored/fetched (framing overhead included); for a
    /// restore, summed over every stream it fetched, whether or not the
    /// stream verified: chain bases and rejected candidates included.
    pub stored_bytes: usize,
    /// Wall-clock seconds the operation took.
    pub seconds: f64,
}

/// Outcome of a verified restore, including what graceful degradation cost.
#[derive(Debug, Clone, PartialEq)]
pub struct RestoreOutcome {
    /// Generation actually restored (the newest verifiable one).
    pub generation: u64,
    /// How many newer image generations had to be rejected first.
    pub fallback_depth: usize,
    /// The rejected generations with the fault that disqualified each.
    pub rejected: Vec<(u64, RestoreFault)>,
    /// Total extra read attempts spent on transient faults.
    pub transient_retries: u32,
    /// Total simulated backoff seconds spent retrying transients.
    pub backoff_cost: f64,
    /// Application seconds lost by restoring an older generation than the
    /// newest committed one (`newest committed time − restored time`) — the
    /// extra rework the simulator should charge as waste.
    pub rework: f64,
}

#[derive(Debug, Clone, Copy)]
struct LedgerEntry {
    payload: PayloadKind,
    time: f64,
}

/// The durable pipeline over a checksum generator and a storage backend.
#[derive(Debug)]
pub struct CheckpointPipeline<C: ChecksumGen + Clone, B: CheckpointBackend> {
    checksum: C,
    backend: B,
    chunk_size: usize,
    retry: RetryPolicy,
    next_generation: u64,
    ledger: BTreeMap<u64, LedgerEntry>,
    costs: Vec<GenerationCost>,
}

impl<C: ChecksumGen + Clone, B: CheckpointBackend> CheckpointPipeline<C, B> {
    /// Creates a pipeline with the default chunk size and retry policy.
    pub fn new(checksum: C, backend: B) -> Self {
        Self::with_config(checksum, backend, DEFAULT_CHUNK_SIZE, RetryPolicy::default_policy())
    }

    /// Creates a pipeline with explicit chunking and retry configuration.
    /// The frame writer clamps `chunk_size` to `1..=u32::MAX`.
    pub fn with_config(checksum: C, backend: B, chunk_size: usize, retry: RetryPolicy) -> Self {
        Self {
            checksum,
            backend,
            chunk_size,
            retry,
            next_generation: 0,
            ledger: BTreeMap::new(),
            costs: Vec::new(),
        }
    }

    /// The storage backend (e.g. to inspect injected faults in tests).
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Mutable access to the storage backend.
    pub fn backend_mut(&mut self) -> &mut B {
        &mut self.backend
    }

    /// Generations currently committed, ascending.
    pub fn generations(&self) -> Vec<u64> {
        self.backend.generations()
    }

    /// All timed operation records, in order.
    pub fn costs(&self) -> &[GenerationCost] {
        &self.costs
    }

    fn commit(
        &mut self,
        payload: PayloadKind,
        time: f64,
        body: &[u8],
        op: PipelineOp,
    ) -> Result<u64, StoreFault> {
        let generation = self.next_generation;
        let started = Stopwatch::start();
        let header = FrameHeader {
            generation,
            payload,
            time,
        };
        let bytes = encode_stream(header, body, self.chunk_size, self.checksum.clone());
        self.backend.put(generation, &bytes)?;
        self.costs.push(GenerationCost {
            generation,
            op,
            raw_bytes: body.len(),
            stored_bytes: bytes.len(),
            seconds: started.elapsed_seconds(),
        });
        self.next_generation += 1;
        self.ledger.insert(generation, LedgerEntry { payload, time });
        Ok(generation)
    }

    /// Commits a full coordinated checkpoint; returns its generation.
    pub fn commit_full(&mut self, image: &CoordinatedCheckpoint) -> Result<u64, StoreFault> {
        let body = encode_coordinated(image);
        self.commit(PayloadKind::Full, image.time, &body, PipelineOp::WriteFull)
    }

    /// Commits an incremental checkpoint as a delta frame against `base`.
    pub fn commit_delta(
        &mut self,
        delta: &IncrementalCheckpoint,
        base: u64,
    ) -> Result<u64, StoreFault> {
        let body = encode_incremental(delta);
        self.commit(
            PayloadKind::Delta { base },
            delta.time,
            &body,
            PipelineOp::WriteDelta,
        )
    }

    /// Commits a partial (one-dataset, `(1−ρ)C` / `ρC`) checkpoint against
    /// `base`, which supplies the complementary dataset at restore time.
    pub fn commit_partial(
        &mut self,
        partial: &PartialCheckpoint,
        base: u64,
    ) -> Result<u64, StoreFault> {
        let body = encode_partial(partial);
        self.commit(
            PayloadKind::Partial {
                dataset: partial.kind,
                base,
            },
            partial.time,
            &body,
            PipelineOp::WritePartial,
        )
    }

    /// Commits an opaque state snapshot (e.g. a crash-resume snapshot).
    pub fn commit_state(&mut self, bytes: &[u8], time: f64) -> Result<u64, StoreFault> {
        self.commit(PayloadKind::State, time, bytes, PipelineOp::WriteState)
    }

    /// Fetches and frame-verifies one generation without reconstructing the
    /// image; records the verification cost.
    pub fn verify(&mut self, generation: u64) -> Result<(), RestoreFault> {
        let started = Stopwatch::start();
        let mut fetched = 0;
        let v = fetch_verified_counting(
            &mut self.backend,
            generation,
            &self.checksum,
            self.retry,
            &mut fetched,
        )?;
        self.costs.push(GenerationCost {
            generation,
            op: PipelineOp::Verify,
            raw_bytes: v.body.len(),
            stored_bytes: fetched,
            seconds: started.elapsed_seconds(),
        });
        Ok(())
    }

    /// Resolves one generation into a complete coordinated image, following
    /// delta/partial chains down to their full base.  `retries`, `backoff`
    /// and `fetched` (stream bytes) accumulate across the chain.
    fn resolve_chain(
        &mut self,
        generation: u64,
        retries: &mut u32,
        backoff: &mut f64,
        fetched: &mut usize,
    ) -> Result<CoordinatedCheckpoint, RestoreFault> {
        let v = fetch_verified_counting(
            &mut self.backend,
            generation,
            &self.checksum,
            self.retry,
            fetched,
        )?;
        *retries += v.attempts - 1;
        *backoff += v.backoff_cost;
        fn corrupted<E>(generation: u64) -> impl Fn(E) -> RestoreFault {
            move |_| RestoreFault::CorruptFrame {
                generation,
                frame_index: 0,
            }
        }
        match v.header.payload {
            PayloadKind::Full => decode_coordinated(&v.body).map_err(corrupted(generation)),
            PayloadKind::Delta { base } => {
                let base_image = self.resolve_chain(base, retries, backoff, fetched)?;
                let delta = decode_incremental(&v.body).map_err(corrupted(generation))?;
                delta.apply_onto(&base_image).map_err(corrupted(generation))
            }
            PayloadKind::Partial { base, .. } => {
                let base_image = self.resolve_chain(base, retries, backoff, fetched)?;
                let partial = decode_partial(&v.body).map_err(corrupted(generation))?;
                Ok(apply_partial_onto(&partial, &base_image))
            }
            // A state snapshot is not a restorable image; reaching one
            // through a base chain means the chain metadata is wrong.
            PayloadKind::State => Err(RestoreFault::CorruptFrame {
                generation,
                frame_index: 0,
            }),
        }
    }

    fn newest_image_time(&self) -> Option<f64> {
        self.ledger
            .values()
            .filter(|e| !matches!(e.payload, PayloadKind::State))
            .map(|e| e.time)
            .fold(None, |acc, t| Some(acc.map_or(t, |a: f64| a.max(t))))
    }

    /// Restores the newest **verifiable** coordinated image, walking back
    /// over damaged generations.
    ///
    /// Returns the reconstructed image plus a [`RestoreOutcome`] describing
    /// the degradation: which generations were rejected and why, how much
    /// retry backoff was paid, and how much rework the fallback costs
    /// (computed against the newest image committed *through this pipeline
    /// instance*; zero when nothing newer is known).
    pub fn restore_latest(
        &mut self,
    ) -> Result<(CoordinatedCheckpoint, RestoreOutcome), RestoreFault> {
        let started = Stopwatch::start();
        let mut rejected: Vec<(u64, RestoreFault)> = Vec::new();
        let mut retries = 0u32;
        let mut backoff = 0.0f64;
        let mut fetched = 0usize;
        let mut candidates: Vec<u64> = self.backend.generations();
        candidates.reverse();
        for generation in candidates {
            // State snapshots are not images: skip without penalty.
            if matches!(
                self.ledger.get(&generation).map(|e| e.payload),
                Some(PayloadKind::State)
            ) {
                continue;
            }
            match self.resolve_chain(generation, &mut retries, &mut backoff, &mut fetched) {
                Ok(image) => {
                    let rework = self
                        .newest_image_time()
                        .map(|newest| (newest - image.time).max(0.0))
                        .unwrap_or(0.0);
                    let outcome = RestoreOutcome {
                        generation,
                        fallback_depth: rejected.len(),
                        rejected,
                        transient_retries: retries,
                        backoff_cost: backoff,
                        rework,
                    };
                    self.costs.push(GenerationCost {
                        generation,
                        op: PipelineOp::Restore,
                        raw_bytes: image.bytes(),
                        stored_bytes: fetched,
                        seconds: started.elapsed_seconds(),
                    });
                    return Ok((image, outcome));
                }
                Err(fault) => {
                    // An unledgered generation that turns out to be a state
                    // snapshot is also skipped silently: it was never an
                    // image candidate.
                    if let RestoreFault::CorruptFrame { .. } | RestoreFault::TornWrite { .. }
                    | RestoreFault::MissingGeneration { .. } | RestoreFault::Transient { .. } =
                        &fault
                    {
                        if self.is_state_generation(generation, &mut fetched) {
                            continue;
                        }
                    }
                    rejected.push((generation, fault));
                }
            }
        }
        Err(RestoreFault::NoVerifiableGeneration { rejected })
    }

    /// Whether `generation` holds a state snapshot; an unledgered one is
    /// fetched to peek at its header, its stream length added to `fetched`.
    fn is_state_generation(&mut self, generation: u64, fetched: &mut usize) -> bool {
        if let Some(entry) = self.ledger.get(&generation) {
            return matches!(entry.payload, PayloadKind::State);
        }
        // Unledgered: peek at the header if the stream is readable.
        let retry = RetryPolicy::no_retry();
        fetch_verified_counting(&mut self.backend, generation, &self.checksum, retry, fetched)
            .map(|v| matches!(v.header.payload, PayloadKind::State))
            .unwrap_or(false)
    }

    /// Restores the newest verifiable **state snapshot** (payload kind
    /// `State`), walking back over damaged ones like
    /// [`CheckpointPipeline::restore_latest`].
    pub fn restore_state(&mut self) -> Result<(Vec<u8>, RestoreOutcome), RestoreFault> {
        let mut rejected: Vec<(u64, RestoreFault)> = Vec::new();
        let mut retries = 0u32;
        let mut backoff = 0.0f64;
        let mut candidates: Vec<u64> = self.backend.generations();
        candidates.reverse();
        for generation in candidates {
            if let Some(entry) = self.ledger.get(&generation) {
                if !matches!(entry.payload, PayloadKind::State) {
                    continue;
                }
            }
            match fetch_verified(&mut self.backend, generation, &self.checksum, self.retry) {
                Ok(v) => {
                    if !matches!(v.header.payload, PayloadKind::State) {
                        continue;
                    }
                    retries += v.attempts - 1;
                    backoff += v.backoff_cost;
                    let outcome = RestoreOutcome {
                        generation,
                        fallback_depth: rejected.len(),
                        rejected,
                        transient_retries: retries,
                        backoff_cost: backoff,
                        rework: 0.0,
                    };
                    return Ok((v.body, outcome));
                }
                Err(fault) => {
                    // Only count generations that were (or might be) state
                    // snapshots.
                    if self
                        .ledger
                        .get(&generation)
                        .map(|e| matches!(e.payload, PayloadKind::State))
                        .unwrap_or(true)
                    {
                        rejected.push((generation, fault));
                    }
                }
            }
        }
        Err(RestoreFault::NoVerifiableGeneration { rejected })
    }

    /// Keeps the newest `keep` generations plus every generation reachable
    /// as a base of a kept delta/partial chain; deletes the rest.
    pub fn retain_latest(&mut self, keep: usize) -> Result<(), StoreFault> {
        let generations = self.backend.generations();
        if generations.len() <= keep {
            return Ok(());
        }
        let mut keep_set: std::collections::BTreeSet<u64> =
            generations.iter().rev().take(keep).copied().collect();
        // Close over base chains so retained deltas stay resolvable.
        let mut frontier: Vec<u64> = keep_set.iter().copied().collect();
        while let Some(generation) = frontier.pop() {
            if let Some(entry) = self.ledger.get(&generation) {
                match entry.payload {
                    PayloadKind::Delta { base } | PayloadKind::Partial { base, .. }
                        if keep_set.insert(base) =>
                    {
                        frontier.push(base);
                    }
                    _ => {}
                }
            }
        }
        for generation in generations {
            if !keep_set.contains(&generation) {
                self.backend.delete(generation)?;
                self.ledger.remove(&generation);
            }
        }
        Ok(())
    }
}

/// Folds a partial (one-dataset) checkpoint onto a complete base image: the
/// covered dataset's regions and the per-process progress come from the
/// partial; everything else stays as in the base.  Region sets are matched
/// by `region_id`; a full-overlap partial simply replaces every region of
/// its dataset, an empty partial only updates progress and time.
pub fn apply_partial_onto(
    partial: &PartialCheckpoint,
    base: &CoordinatedCheckpoint,
) -> CoordinatedCheckpoint {
    let mut combined = base.clone();
    combined.time = partial.time;
    for snap in &mut combined.snapshots {
        if let Some(part) = partial.snapshots.iter().find(|p| p.rank == snap.rank) {
            snap.progress = part.progress;
            for region in &part.regions {
                if let Some(existing) = snap
                    .regions
                    .iter_mut()
                    .find(|r| r.region_id == region.region_id)
                {
                    *existing = region.clone();
                } else {
                    snap.regions.push(region.clone());
                    snap.regions.sort_by_key(|r| r.region_id);
                }
            }
        }
    }
    combined
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{FaultInjectingBackend, FaultPlan, InjectedKind, MemoryBackend};
    use crate::state::{DatasetKind, ProcessSet};
    use ft_platform::checksum::Crc32;

    fn pipeline() -> CheckpointPipeline<Crc32, MemoryBackend> {
        CheckpointPipeline::new(Crc32::new(), MemoryBackend::new())
    }

    #[test]
    fn full_commit_and_restore_round_trip() {
        let set = ProcessSet::uniform(3, 200, 100);
        let image = CoordinatedCheckpoint::capture(&set, 10.0);
        let mut p = pipeline();
        let generation = p.commit_full(&image).unwrap();
        let (restored, outcome) = p.restore_latest().unwrap();
        assert_eq!(restored, image);
        assert_eq!(outcome.generation, generation);
        assert_eq!(outcome.fallback_depth, 0);
        assert!(outcome.rejected.is_empty());
        assert_eq!(outcome.rework, 0.0);
    }

    #[test]
    fn delta_chain_resolves_to_the_combined_image() {
        let mut set = ProcessSet::uniform(2, 64, 64);
        let base_image = CoordinatedCheckpoint::capture(&set, 0.0);
        let mut p = pipeline();
        let base_generation = p.commit_full(&base_image).unwrap();

        set.process_mut(0).unwrap().region_mut(0).unwrap().write(vec![7; 64]);
        set.process_mut(0).unwrap().advance(5.0);
        let delta = IncrementalCheckpoint::capture_since(&set, &base_image, 4.0);
        p.commit_delta(&delta, base_generation).unwrap();

        let (restored, outcome) = p.restore_latest().unwrap();
        let reference = delta.apply_onto(&base_image).unwrap();
        assert_eq!(restored, reference);
        assert_eq!(outcome.fallback_depth, 0);
        // Restoring the newest image costs no rework.
        assert_eq!(outcome.rework, 0.0);
    }

    #[test]
    fn partial_chain_overlays_one_dataset() {
        let mut set = ProcessSet::uniform(2, 32, 16);
        let base_image = CoordinatedCheckpoint::capture(&set, 0.0);
        let mut p = pipeline();
        let base_generation = p.commit_full(&base_image).unwrap();

        // Library phase: mutate LIBRARY regions only.
        for proc in set.iter_mut() {
            let ids: Vec<usize> = proc.regions_of(DatasetKind::Library).map(|r| r.id).collect();
            for id in ids {
                proc.region_mut(id).unwrap().update(|d| d.iter_mut().for_each(|b| *b = b.wrapping_add(1)));
            }
            proc.advance(3.0);
        }
        let partial = PartialCheckpoint::capture(&set, DatasetKind::Library, 7.0);
        p.commit_partial(&partial, base_generation).unwrap();

        let (restored, _) = p.restore_latest().unwrap();
        let reference = CoordinatedCheckpoint::capture(&set, 7.0);
        assert_eq!(restored, reference);
    }

    #[test]
    fn corrupt_newest_generation_falls_back_with_rework() {
        let set = ProcessSet::uniform(2, 128, 64);
        let older = CoordinatedCheckpoint::capture(&set, 10.0);
        let newer = CoordinatedCheckpoint::capture(&set, 20.0);
        let mut p = pipeline();
        p.commit_full(&older).unwrap();
        let newest = p.commit_full(&newer).unwrap();
        // Corrupt the newest stream in place.
        let mut bytes = p.backend_mut().get(newest).unwrap();
        let n = bytes.len();
        bytes[n / 2] ^= 0xFF;
        p.backend_mut().put(newest, &bytes).unwrap();

        let (restored, outcome) = p.restore_latest().unwrap();
        assert_eq!(restored.time, 10.0);
        assert_eq!(outcome.fallback_depth, 1);
        assert_eq!(outcome.rejected.len(), 1);
        assert!(matches!(
            outcome.rejected[0],
            (g, RestoreFault::CorruptFrame { .. }) if g == newest
        ));
        // Fallback from t=20 to t=10 costs 10 s of rework.
        assert!((outcome.rework - 10.0).abs() < 1e-12);
    }

    #[test]
    fn rank_swapped_delta_is_rejected_and_restore_falls_back() {
        let mut set = ProcessSet::uniform(3, 64, 32);
        let base_image = CoordinatedCheckpoint::capture(&set, 1.0);
        let mut p = pipeline();
        let base_generation = p.commit_full(&base_image).unwrap();
        set.process_mut(0).unwrap().region_mut(0).unwrap().write(vec![5; 64]);
        let mut delta = IncrementalCheckpoint::capture_since(&set, &base_image, 2.0);
        // Checksums are computed over the permuted body, so every frame of
        // this generation verifies; only the rank order is wrong.
        delta.snapshots.swap(0, 1);
        let swapped = p.commit_delta(&delta, base_generation).unwrap();
        assert!(p.verify(swapped).is_ok());

        let (restored, outcome) = p.restore_latest().unwrap();
        assert_eq!(outcome.generation, base_generation);
        assert_eq!(restored, base_image);
        assert_eq!(outcome.fallback_depth, 1);
        assert!(matches!(
            outcome.rejected[..],
            [(g, RestoreFault::CorruptFrame { .. })] if g == swapped
        ));
    }

    #[test]
    fn corrupt_base_disqualifies_the_delta_that_needs_it() {
        let mut set = ProcessSet::uniform(2, 64, 32);
        let mut p = pipeline();
        let safety = p.commit_full(&CoordinatedCheckpoint::capture(&set, 1.0)).unwrap();
        let base_image = CoordinatedCheckpoint::capture(&set, 2.0);
        let base_generation = p.commit_full(&base_image).unwrap();
        set.process_mut(1).unwrap().region_mut(0).unwrap().write(vec![9; 64]);
        let delta = IncrementalCheckpoint::capture_since(&set, &base_image, 3.0);
        p.commit_delta(&delta, base_generation).unwrap();

        // Corrupt the delta's base: both the delta and the base are now
        // unrestorable; the pipeline must fall back to the safety image.
        let mut bytes = p.backend_mut().get(base_generation).unwrap();
        bytes[10] ^= 0x01;
        p.backend_mut().put(base_generation, &bytes).unwrap();

        let (restored, outcome) = p.restore_latest().unwrap();
        assert_eq!(outcome.generation, safety);
        assert_eq!(restored.time, 1.0);
        assert_eq!(outcome.fallback_depth, 2);
    }

    #[test]
    fn all_generations_damaged_is_a_typed_exhaustion_error() {
        let set = ProcessSet::uniform(1, 32, 32);
        let mut p = CheckpointPipeline::with_config(
            Crc32::new(),
            FaultInjectingBackend::new(
                MemoryBackend::new(),
                FaultPlan::only(InjectedKind::BitFlip, 1.0),
                13,
            ),
            512,
            RetryPolicy::no_retry(),
        );
        for t in [1.0, 2.0, 3.0] {
            p.commit_full(&CoordinatedCheckpoint::capture(&set, t)).unwrap();
        }
        match p.restore_latest() {
            Err(RestoreFault::NoVerifiableGeneration { rejected }) => {
                assert_eq!(rejected.len(), 3);
            }
            other => panic!("expected exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn state_snapshots_are_invisible_to_image_restore_and_vice_versa() {
        let set = ProcessSet::uniform(1, 16, 16);
        let image = CoordinatedCheckpoint::capture(&set, 5.0);
        let mut p = pipeline();
        p.commit_full(&image).unwrap();
        let state_generation = p.commit_state(b"resume-cursor", 6.0).unwrap();

        // Image restore skips the newer state snapshot entirely.
        let (restored, outcome) = p.restore_latest().unwrap();
        assert_eq!(restored, image);
        assert_eq!(outcome.fallback_depth, 0);
        assert!(outcome.rejected.is_empty());

        // State restore finds the snapshot.
        let (state, state_outcome) = p.restore_state().unwrap();
        assert_eq!(state, b"resume-cursor");
        assert_eq!(state_outcome.generation, state_generation);
    }

    #[test]
    fn transient_faults_are_retried_and_accounted() {
        let set = ProcessSet::uniform(1, 64, 0);
        let mut p = CheckpointPipeline::with_config(
            Crc32::new(),
            FaultInjectingBackend::new(
                MemoryBackend::new(),
                FaultPlan::transient_only(1.0, 2),
                7,
            ),
            512,
            RetryPolicy {
                max_attempts: 3,
                base_backoff: 0.5,
            },
        );
        p.commit_full(&CoordinatedCheckpoint::capture(&set, 1.0)).unwrap();
        let (_, outcome) = p.restore_latest().unwrap();
        assert!(outcome.transient_retries >= 1);
        assert!(outcome.backoff_cost > 0.0);
    }

    #[test]
    fn retention_preserves_base_chains() {
        let mut set = ProcessSet::uniform(1, 32, 32);
        let mut p = pipeline();
        let base_image = CoordinatedCheckpoint::capture(&set, 0.0);
        let base_generation = p.commit_full(&base_image).unwrap();
        for k in 1..=4u32 {
            p.commit_full(&CoordinatedCheckpoint::capture(&set, f64::from(k)))
                .unwrap();
        }
        set.process_mut(0).unwrap().region_mut(0).unwrap().write(vec![1; 32]);
        let delta = IncrementalCheckpoint::capture_since(&set, &base_image, 5.0);
        let delta_generation = p.commit_delta(&delta, base_generation).unwrap();

        p.retain_latest(1).unwrap();
        let kept = p.generations();
        // The delta and its base survive; the middle fulls are gone.
        assert!(kept.contains(&delta_generation));
        assert!(kept.contains(&base_generation));
        assert_eq!(kept.len(), 2);
        let (restored, _) = p.restore_latest().unwrap();
        assert_eq!(restored, delta.apply_onto(&base_image).unwrap());
    }

    #[test]
    fn costs_are_recorded_per_operation_class() {
        let set = ProcessSet::uniform(2, 64, 64);
        let image = CoordinatedCheckpoint::capture(&set, 1.0);
        let mut p = pipeline();
        let generation = p.commit_full(&image).unwrap();
        p.verify(generation).unwrap();
        p.restore_latest().unwrap();
        let ops: Vec<PipelineOp> = p.costs().iter().map(|c| c.op).collect();
        assert_eq!(
            ops,
            [PipelineOp::WriteFull, PipelineOp::Verify, PipelineOp::Restore]
        );
        // Framing adds overhead: stored > raw for the write.
        let write = p.costs().iter().find(|c| c.op == PipelineOp::WriteFull).unwrap();
        assert!(write.stored_bytes > write.raw_bytes);
    }

    #[test]
    fn reads_record_the_framed_bytes_they_fetch() {
        let mut set = ProcessSet::uniform(2, 256, 128);
        let base_image = CoordinatedCheckpoint::capture(&set, 1.0);
        let mut p = pipeline();
        let base = p.commit_full(&base_image).unwrap();
        set.process_mut(0)
            .unwrap()
            .region_mut(0)
            .unwrap()
            .write(vec![3; 256]);
        let delta = IncrementalCheckpoint::capture_since(&set, &base_image, 2.0);
        let top = p.commit_delta(&delta, base).unwrap();
        let stored = |p: &CheckpointPipeline<Crc32, MemoryBackend>, op, generation| {
            let record = p
                .costs()
                .iter()
                .rev()
                .find(|c| c.op == op && c.generation == generation);
            record.map(|c| c.stored_bytes).unwrap()
        };
        let (base_bytes, top_bytes) = (
            stored(&p, PipelineOp::WriteFull, base),
            stored(&p, PipelineOp::WriteDelta, top),
        );
        // A verify fetches exactly the stream its write stored.
        for (generation, written) in [(base, base_bytes), (top, top_bytes)] {
            p.verify(generation).unwrap();
            assert_eq!(stored(&p, PipelineOp::Verify, generation), written);
        }
        // A restore fetches the whole chain: the delta and its base.
        p.restore_latest().unwrap();
        assert_eq!(stored(&p, PipelineOp::Restore, top), base_bytes + top_bytes);
        // A restore that falls back past a bit-flipped newer image counts
        // the rejected stream too: it was fetched before it failed.
        let newer = p
            .commit_full(&CoordinatedCheckpoint::capture(&set, 3.0))
            .unwrap();
        let newer_bytes = stored(&p, PipelineOp::WriteFull, newer);
        let mut bytes = p.backend_mut().get(newer).unwrap();
        bytes[newer_bytes / 2] ^= 0x10;
        p.backend_mut().put(newer, &bytes).unwrap();
        let (_, outcome) = p.restore_latest().unwrap();
        assert_eq!((outcome.generation, outcome.fallback_depth), (top, 1));
        assert_eq!(
            stored(&p, PipelineOp::Restore, top),
            newer_bytes + top_bytes + base_bytes
        );
    }

    #[test]
    fn empty_partial_only_moves_progress_and_time() {
        let set = ProcessSet::uniform(2, 16, 16);
        let base = CoordinatedCheckpoint::capture(&set, 1.0);
        let empty = PartialCheckpoint {
            kind: DatasetKind::Library,
            time: 9.0,
            snapshots: base
                .snapshots
                .iter()
                .map(|s| crate::coordinated::ProcessSnapshot {
                    rank: s.rank,
                    regions: Vec::new(),
                    progress: 42.0,
                })
                .collect(),
        };
        let combined = apply_partial_onto(&empty, &base);
        assert_eq!(combined.time, 9.0);
        assert_eq!(combined.bytes(), base.bytes());
        assert!(combined.snapshots.iter().all(|s| s.progress == 42.0));
    }
}
