//! The `ckpt` workload: the durable checkpoint pipeline, write side and read
//! side.
//!
//! One cycle commits `GENERATIONS` generations of an evolving process set
//! (a full image every `FULL_EVERY` generations, incremental deltas in
//! between) through a CRC-32 `CheckpointPipeline` on a `MemoryBackend`
//! behind a seeded `FaultInjectingBackend`, verifying each.  The last
//! generation is written with an injected bit flip, so the closing
//! `restore_latest` must reject it and fall back to the generation before.

use std::collections::BTreeMap;
use std::rc::Rc;

use ft_ckpt::backend::{CheckpointBackend, FaultInjectingBackend, FaultPlan, MemoryBackend};
use ft_ckpt::coordinated::CoordinatedCheckpoint;
use ft_ckpt::incremental::IncrementalCheckpoint;
use ft_ckpt::pipeline::{CheckpointPipeline, PipelineOp};
use ft_ckpt::state::ProcessSet;
use ft_platform::checksum::{ChecksumGen, Crc32};
use ft_platform::rng::{DeterministicRng, Xoshiro256};

use crate::trace::{ChecksumCounters, CountingBackend, CountingChecksum};
use crate::util::{median, quantile, timed, Digest, LayerSamples};
use crate::{Outcome, RunConfig};

const PROCESSES: usize = 8;
const LIBRARY_BYTES: usize = 96 * 1024;
const REMAINDER_BYTES: usize = 32 * 1024;
const GENERATIONS: usize = 8;
const FULL_EVERY: usize = 4;
const MIB: f64 = 1024.0 * 1024.0;

pub struct Setup {
    set: ProcessSet,
    base: CoordinatedCheckpoint,
    seed: u64,
}

/// Set-up: the process set and its first full image.
pub fn setup(seed: u64) -> Setup {
    let mut set = ProcessSet::uniform(PROCESSES, LIBRARY_BYTES, REMAINDER_BYTES);
    let mut rng = Xoshiro256::seed_from_u64(seed);
    evolve(&mut set, 0, &mut rng);
    let base = CoordinatedCheckpoint::capture(&set, 0.0);
    Setup { set, base, seed }
}

/// One step of application progress: every process rewrites one of its two
/// regions (alternating with `round`, so delta sizes do not depend on the
/// seed) by a seed-drawn increment and advances its progress counter.
fn evolve(set: &mut ProcessSet, round: usize, rng: &mut Xoshiro256) {
    for p in set.iter_mut() {
        let ids: Vec<usize> = p.regions().iter().map(|r| r.id).collect();
        let id = ids[round % ids.len()];
        let step = (rng.next_u64() % 251 + 1) as u8;
        if let Ok(region) = p.region_mut(id) {
            region.update(|d| {
                for b in d.iter_mut() {
                    *b = b.wrapping_add(step);
                }
            });
        }
        p.advance(1.0);
    }
}

/// What one cycle observed.
#[derive(Debug, Default)]
struct Cycle {
    commit_s: Vec<f64>,
    capture_s: f64,
    verify_call_s: f64,
    restore_s: f64,
    operations: u64,
    failed: u64,
    digest: u64,
    fallback_depth: usize,
    rejected: usize,
    retries: u32,
}

/// Runs one cycle on `pipeline`.  `spans` is called with `None` right before
/// every commit and before the restore, and with the operation and its
/// duration right after.
fn cycle<C, B>(
    setup: &Setup,
    mut pipeline: CheckpointPipeline<C, B>,
    inject: impl Fn(&mut B, bool),
    mut spans: impl FnMut(&CheckpointPipeline<C, B>, Option<(PipelineOp, f64)>),
) -> Result<Cycle, String>
where
    C: ChecksumGen + Clone,
    B: CheckpointBackend,
{
    let mut c = Cycle::default();
    let mut set = setup.set.clone();
    let mut rng = Xoshiro256::seed_from_u64(setup.seed ^ 0x00C4_EC4B);
    let mut fingerprints = BTreeMap::new();
    let mut base_image = setup.base.clone();
    spans(&pipeline, None);
    let (base_gen, s) = timed(|| pipeline.commit_full(&base_image));
    let mut base_gen = base_gen.map_err(|e| e.to_string())?;
    spans(&pipeline, Some((PipelineOp::WriteFull, s)));
    c.commit_s.push(s);
    c.operations += 1;
    fingerprints.insert(base_gen, set.fingerprint());
    for g in 1..GENERATIONS {
        evolve(&mut set, g, &mut rng);
        let time = g as f64;
        let corrupt = g == GENERATIONS - 1;
        inject(pipeline.backend_mut(), corrupt);
        let (generation, op, s) = if g % FULL_EVERY == 0 {
            let (image, cs) = timed(|| CoordinatedCheckpoint::capture(&set, time));
            c.capture_s += cs;
            base_image = image;
            spans(&pipeline, None);
            let (r, s) = timed(|| pipeline.commit_full(&base_image));
            base_gen = r.map_err(|e| e.to_string())?;
            (base_gen, PipelineOp::WriteFull, s)
        } else {
            let (delta, cs) =
                timed(|| IncrementalCheckpoint::capture_since(&set, &base_image, time));
            c.capture_s += cs;
            spans(&pipeline, None);
            let (r, s) = timed(|| pipeline.commit_delta(&delta, base_gen));
            (r.map_err(|e| e.to_string())?, PipelineOp::WriteDelta, s)
        };
        spans(&pipeline, Some((op, s)));
        c.commit_s.push(s);
        inject(pipeline.backend_mut(), false);
        fingerprints.insert(generation, set.fingerprint());
        let (verified, vs) = timed(|| pipeline.verify(generation));
        c.verify_call_s += vs;
        c.operations += 2;
        // An intact generation must verify; the corrupted one must not.
        if verified.is_ok() == corrupt {
            c.failed += 1;
        }
    }
    spans(&pipeline, None);
    let (restored, s) = timed(|| pipeline.restore_latest());
    spans(&pipeline, Some((PipelineOp::Restore, s)));
    c.restore_s = s;
    c.operations += 1;
    let (image, outcome) =
        restored.map_err(|e| format!("restore found no intact generation: {e}"))?;
    let fingerprint = image
        .materialize()
        .map_err(|e| e.to_string())?
        .fingerprint();
    let expected_gen = (GENERATIONS - 2) as u64;
    if outcome.generation != expected_gen
        || fingerprints.get(&outcome.generation) != Some(&fingerprint)
    {
        c.failed += 1;
    }
    let mut d = Digest::default();
    d.word(outcome.generation);
    d.word(outcome.fallback_depth as u64);
    d.word(fingerprint);
    c.digest = d.value();
    c.fallback_depth = outcome.fallback_depth;
    c.rejected = outcome.rejected.len();
    c.retries = outcome.transient_retries;
    Ok(c)
}

fn fault_backend(seed: u64) -> FaultInjectingBackend<MemoryBackend> {
    FaultInjectingBackend::new(MemoryBackend::new(), FaultPlan::none(), seed)
}

fn arm(b: &mut FaultInjectingBackend<MemoryBackend>, corrupt: bool) {
    b.plan_mut().bit_flip = if corrupt { 1.0 } else { 0.0 };
}

fn untraced_cycle(setup: &Setup) -> Result<Cycle, String> {
    let pipeline = CheckpointPipeline::new(Crc32::new(), fault_backend(setup.seed));
    cycle(setup, pipeline, arm, |_, _| {})
}

/// The untraced run.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let setup = setup(cfg.seed);
    let reference = untraced_cycle(&setup)?;
    if reference.failed > 0 || reference.fallback_depth != 1 {
        return Err("the reference cycle did not restore the intact generation".into());
    }
    let mut setup_sampler = crate::SetupSampler::new(cfg);
    let mut out = Outcome::new("ckpt", cfg, reference.digest);
    let (mut walls, mut commits, mut restores) = (Vec::new(), Vec::new(), Vec::new());
    let budget = ft_platform::clock::Stopwatch::start();
    while walls.len() < 3 || budget.elapsed_seconds() < cfg.seconds {
        setup_sampler.poll(budget.elapsed_seconds())?;
        let (c, wall) = timed(|| untraced_cycle(&setup));
        let c = c?;
        walls.push(wall);
        out.attempted += c.operations;
        out.failed += c.failed + u64::from(c.digest != reference.digest);
        commits.extend_from_slice(&c.commit_s);
        restores.push(c.restore_s);
    }
    let wall = out.passes(&walls);
    out.metrics.put("wall_s", wall, "s");
    out.metrics.put("setup_s", setup_sampler.finish()?, "s");
    out.metrics
        .put("ops_per_s", reference.operations as f64 / wall, "1/s");
    out.metrics
        .put("peak_rss_mib", crate::util::peak_rss_mib(), "MiB");
    out.note("commit_s", median(&commits));
    out.note("commit_p90_s", quantile(&commits, 0.9));
    out.note("restore_s", median(&restores));
    Ok(out)
}

/// Counts that must repeat exactly.
pub const COUNTS: &[&str] = &[
    "backend.put_bytes",
    "restore.fallback_depth",
    "restore.rejected",
    "restore.retries",
];

/// The traced run.
pub fn traced(cfg: &RunConfig) -> Result<Outcome, String> {
    let setup = setup(cfg.seed);
    let reference = untraced_cycle(&setup)?;
    let mut out = Outcome::new("ckpt", cfg, reference.digest);
    // Untraced latencies, the base of the tracing overhead.
    let (mut walls, mut commits, mut restores) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..5 {
        let (c, wall) = timed(|| untraced_cycle(&setup));
        let c = c?;
        walls.push(wall);
        commits.extend_from_slice(&c.commit_s);
        restores.push(c.restore_s);
    }
    let untraced_wall = median(&walls);
    let mut samples = LayerSamples::default();
    let budget = ft_platform::clock::Stopwatch::start();
    while samples.sets.is_empty() || budget.elapsed_seconds() < cfg.seconds {
        let checksum = CountingChecksum::new(Crc32::new());
        let counters: Rc<ChecksumCounters> = Rc::clone(&checksum.counters);
        let pipeline =
            CheckpointPipeline::new(checksum, CountingBackend::new(fault_backend(setup.seed)));
        // Per-side span totals: commit, restore, and the checksum/backend
        // children inside each.
        let mut spans = Spans::default();
        let mut last = (0.0f64, 0.0f64, 0.0f64);
        let (c, wall) = timed(|| {
            cycle(
                &setup,
                pipeline,
                |b: &mut CountingBackend<FaultInjectingBackend<MemoryBackend>>, corrupt| {
                    arm(&mut b.inner, corrupt)
                },
                |p, span| {
                    let b = p.backend();
                    let now = (counters.snapshot().1, b.put_s, b.get_s);
                    let Some((op, s)) = span else {
                        last = now;
                        return;
                    };
                    let (d_ck, d_put, d_get) = (now.0 - last.0, now.1 - last.1, now.2 - last.2);
                    match op {
                        PipelineOp::Restore => {
                            spans.restore += s;
                            spans.restore_checksum += d_ck;
                            spans.restore_get += d_get;
                        }
                        _ => {
                            spans.commit += s;
                            spans.commit_checksum += d_ck;
                            spans.commit_put += d_put;
                            spans.raw_bytes += p.costs().last().map_or(0, |c| c.raw_bytes) as f64;
                        }
                    }
                    spans.put_bytes = b.put_bytes as f64;
                },
            )
        });
        let c = c?;
        out.attempted += c.operations;
        out.failed += c.failed + u64::from(c.digest != reference.digest);
        let (ck_bytes, ck_s) = counters.snapshot();
        let encode_s = spans.commit - spans.commit_checksum - spans.commit_put;
        let mut s = BTreeMap::new();
        s.insert("capture.s", c.capture_s);
        s.insert("frame.encode_s", encode_s);
        s.insert("frame.encode_MiBps", spans.raw_bytes / MIB / encode_s);
        s.insert("checksum.MiBps", ck_bytes as f64 / MIB / ck_s);
        s.insert("checksum.commit_s", spans.commit_checksum);
        s.insert("backend.put_s", spans.commit_put);
        s.insert("backend.put_bytes", spans.put_bytes);
        s.insert("backend.get_s", spans.restore_get);
        s.insert(
            "frame.decode_s",
            spans.restore - spans.restore_get - spans.restore_checksum,
        );
        s.insert("verify.s", spans.restore_checksum);
        s.insert("restore.fallback_depth", c.fallback_depth as f64);
        s.insert("restore.rejected", c.rejected as f64);
        s.insert("restore.retries", f64::from(c.retries));
        s.insert("ckpt.verify_calls_s", c.verify_call_s);
        s.insert("trace.overhead_s", wall - untraced_wall);
        s.insert("ckpt.commit_s", median(&commits));
        s.insert("ckpt.commit_p90_s", quantile(&commits, 0.9));
        s.insert("ckpt.restore_s", median(&restores));
        samples.sets.push(s);
    }
    if !samples.counts_repeat(COUNTS) {
        return Err("a count differs between traced cycles".into());
    }
    out.layers = samples;
    out.note("untraced_cycle_s", untraced_wall);
    Ok(out)
}

#[derive(Debug, Default)]
struct Spans {
    commit: f64,
    commit_checksum: f64,
    commit_put: f64,
    raw_bytes: f64,
    put_bytes: f64,
    restore: f64,
    restore_checksum: f64,
    restore_get: f64,
}
