//! Checksummed checkpoint frames: the wire format of the durable pipeline.
//!
//! A serialized checkpoint is a **frame stream**:
//!
//! ```text
//! [header frame][chunk frame]…[chunk frame][trailer frame]
//! ```
//!
//! Every frame is `[kind: u8][payload_len: u32 LE][payload][checksum: u32 LE]`
//! where the checksum (a pluggable [`ChecksumGen`] — CRC-32 in production,
//! the null generator in benchmarks) covers the kind byte, the length field
//! and the payload.  The header carries the stream's identity (magic,
//! version, generation, payload kind, logical time); the chunk frames carry
//! the body in bounded pieces so a torn write is detectable at chunk
//! granularity; the trailer repeats the body length and chunk count and adds
//! a whole-body checksum, so a stream that merely *ends early* (torn write)
//! is distinguishable from one whose bytes *rotted* (corrupt frame).
//!
//! The body itself is a hand-rolled little-endian codec for the checkpoint
//! images of this crate ([`CoordinatedCheckpoint`], [`IncrementalCheckpoint`]
//! as delta-against-base, [`PartialCheckpoint`] as dataset-delta) plus
//! opaque `State` payloads (the simulator's crash-resume snapshots).

use std::sync::Arc;

use ft_platform::checksum::ChecksumGen;

use crate::coordinated::{CoordinatedCheckpoint, ProcessSnapshot, RegionSnapshot};
use crate::incremental::IncrementalCheckpoint;
use crate::partial::PartialCheckpoint;
use crate::state::DatasetKind;

/// Stream magic: the first bytes of every header frame payload.
pub const FRAME_MAGIC: [u8; 4] = *b"FTCK";
/// Current version of the frame format.
pub const FRAME_VERSION: u16 = 1;
/// Default payload chunk size of the frame writer.
pub const DEFAULT_CHUNK_SIZE: usize = 4096;

const KIND_HEADER: u8 = 1;
const KIND_CHUNK: u8 = 2;
const KIND_TRAILER: u8 = 3;
/// Bytes a frame adds around its payload: kind, length and checksum.
const FRAME_OVERHEAD: usize = 9;
/// Payload length of the trailer frame: body length, chunk count, checksum.
const TRAILER_PAYLOAD: usize = 16;

/// What a frame stream's body contains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PayloadKind {
    /// A complete [`CoordinatedCheckpoint`] image.
    Full,
    /// An [`IncrementalCheckpoint`] delta against a base generation.
    Delta {
        /// Generation the delta must be applied onto.
        base: u64,
    },
    /// A [`PartialCheckpoint`] (one dataset) against a base generation —
    /// the `(1 − ρ)C` / `ρC` forced checkpoints of the composite protocol.
    Partial {
        /// Dataset the partial checkpoint covers.
        dataset: DatasetKind,
        /// Generation whose image supplies the complementary dataset.
        base: u64,
    },
    /// An opaque state snapshot (e.g. a simulator crash-resume snapshot).
    State,
}

impl PayloadKind {
    fn tag(self) -> u8 {
        match self {
            PayloadKind::Full => 0,
            PayloadKind::Delta { .. } => 1,
            PayloadKind::Partial { .. } => 2,
            PayloadKind::State => 3,
        }
    }

    fn base(self) -> u64 {
        match self {
            PayloadKind::Delta { base } | PayloadKind::Partial { base, .. } => base,
            _ => 0,
        }
    }

    fn dataset_tag(self) -> u8 {
        match self {
            PayloadKind::Partial { dataset, .. } => match dataset {
                DatasetKind::Library => 0,
                DatasetKind::Remainder => 1,
            },
            _ => 0xFF,
        }
    }
}

/// The self-describing identity of a frame stream, carried by its header
/// frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameHeader {
    /// Generation identifier of the checkpoint the stream serializes.
    pub generation: u64,
    /// What the body contains.
    pub payload: PayloadKind,
    /// Logical (application) time of the checkpoint.
    pub time: f64,
}

/// Why a frame stream failed verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameFault {
    /// A frame's checksum (or the stream checksum, magic, version or
    /// trailer bookkeeping) does not match its contents: the stored bytes
    /// rotted in place.
    CorruptFrame {
        /// Index of the offending frame within the stream (0 = header).
        frame_index: usize,
    },
    /// The stream ends before its trailer: the write never completed
    /// (partial frame, or complete frames with no commit record).
    TornWrite {
        /// Index of the frame at which the stream breaks off.
        frame_index: usize,
    },
    /// Frames verified but the body does not decode as the declared payload.
    Decode {
        /// What failed to decode.
        what: &'static str,
    },
}

impl std::fmt::Display for FrameFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameFault::CorruptFrame { frame_index } => {
                write!(f, "frame {frame_index} failed checksum verification")
            }
            FrameFault::TornWrite { frame_index } => {
                write!(f, "stream breaks off at frame {frame_index} (torn write)")
            }
            FrameFault::Decode { what } => write!(f, "body does not decode: {what}"),
        }
    }
}

impl std::error::Error for FrameFault {}

// ---------------------------------------------------------------------------
// Frame writer
// ---------------------------------------------------------------------------

/// Streaming writer of one frame stream: emits the header on construction,
/// chunk frames as payload bytes are pushed, and the trailer on
/// [`FrameWriter::finish`].
#[derive(Debug)]
pub struct FrameWriter<C: ChecksumGen + Clone> {
    out: Vec<u8>,
    frame_gen: C,
    stream_gen: C,
    chunk_size: usize,
    pending: Vec<u8>,
    chunks: u32,
    body_len: u64,
}

fn emit_frame<C: ChecksumGen>(out: &mut Vec<u8>, gen: &mut C, kind: u8, payload: &[u8]) {
    let len = payload.len() as u32;
    out.push(kind);
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(payload);
    gen.reset();
    gen.push(&[kind]);
    gen.push(&len.to_le_bytes());
    gen.push(payload);
    out.extend_from_slice(&gen.value().to_le_bytes());
}

impl<C: ChecksumGen + Clone> FrameWriter<C> {
    /// Starts a stream: the header frame is emitted immediately.
    ///
    /// `chunk_size` is clamped to `1..=u32::MAX`, the range of a frame's
    /// length field.
    pub fn new(header: FrameHeader, chunk_size: usize, checksum: C) -> Self {
        let mut stream_gen = checksum.clone();
        stream_gen.reset();
        let mut w = Self {
            out: Vec::new(),
            frame_gen: checksum,
            stream_gen,
            chunk_size: chunk_size.clamp(1, u32::MAX as usize),
            pending: Vec::new(),
            chunks: 0,
            body_len: 0,
        };
        let mut payload = Vec::with_capacity(32);
        payload.extend_from_slice(&FRAME_MAGIC);
        payload.extend_from_slice(&FRAME_VERSION.to_le_bytes());
        payload.push(header.payload.tag());
        payload.extend_from_slice(&header.payload.base().to_le_bytes());
        payload.push(header.payload.dataset_tag());
        payload.extend_from_slice(&header.generation.to_le_bytes());
        payload.extend_from_slice(&header.time.to_bits().to_le_bytes());
        emit_frame(&mut w.out, &mut w.frame_gen, KIND_HEADER, &payload);
        w
    }

    /// Appends body bytes; full chunks are framed and emitted as they fill.
    ///
    /// A partial chunk left by an earlier push is topped up first; full
    /// chunks are then framed straight from `data`, and only the remainder
    /// is buffered, so every body byte is copied into `out` once.
    pub fn push(&mut self, mut data: &[u8]) {
        self.stream_gen.push(data);
        self.body_len += data.len() as u64;
        if !self.pending.is_empty() {
            let take = (self.chunk_size - self.pending.len()).min(data.len());
            self.pending.extend_from_slice(&data[..take]);
            data = &data[take..];
            if self.pending.len() < self.chunk_size {
                return;
            }
            self.emit_chunk_from_pending();
        }
        let chunks = data.chunks_exact(self.chunk_size);
        let rest = chunks.remainder();
        // Room for these chunks, the partial one and the trailer, so a
        // one-shot encode allocates its output once.
        self.out.reserve(
            data.len() + (data.len() / self.chunk_size + 2) * FRAME_OVERHEAD + TRAILER_PAYLOAD,
        );
        for chunk in chunks {
            emit_frame(&mut self.out, &mut self.frame_gen, KIND_CHUNK, chunk);
            self.chunks += 1;
        }
        self.pending.extend_from_slice(rest);
    }

    fn emit_chunk_from_pending(&mut self) {
        emit_frame(&mut self.out, &mut self.frame_gen, KIND_CHUNK, &self.pending);
        self.chunks += 1;
        self.pending.clear();
    }

    /// Flushes any partial chunk, emits the trailer and returns the encoded
    /// stream.
    pub fn finish(mut self) -> Vec<u8> {
        if !self.pending.is_empty() {
            self.emit_chunk_from_pending();
        }
        let mut payload = Vec::with_capacity(TRAILER_PAYLOAD);
        payload.extend_from_slice(&self.body_len.to_le_bytes());
        payload.extend_from_slice(&self.chunks.to_le_bytes());
        payload.extend_from_slice(&self.stream_gen.value().to_le_bytes());
        emit_frame(&mut self.out, &mut self.frame_gen, KIND_TRAILER, &payload);
        self.out
    }
}

/// Encodes one complete frame stream from a contiguous body.
pub fn encode_stream<C: ChecksumGen + Clone>(
    header: FrameHeader,
    body: &[u8],
    chunk_size: usize,
    checksum: C,
) -> Vec<u8> {
    let mut w = FrameWriter::new(header, chunk_size, checksum);
    w.push(body);
    w.finish()
}

// ---------------------------------------------------------------------------
// Frame reader
// ---------------------------------------------------------------------------

/// Parses and verifies a frame stream, returning its header and body.
///
/// Every frame checksum is validated, the stream checksum of the reassembled
/// body is validated against the trailer, and the trailer's bookkeeping
/// (body length, chunk count) must match what was read.  Violations are
/// classified: bytes that end mid-frame or a stream with no trailer are a
/// [`FrameFault::TornWrite`]; everything else is a
/// [`FrameFault::CorruptFrame`].
pub fn decode_stream<C: ChecksumGen + Clone>(
    bytes: &[u8],
    checksum: C,
) -> Result<(FrameHeader, Vec<u8>), FrameFault> {
    let mut frame_gen = checksum.clone();
    let mut stream_gen = checksum;
    stream_gen.reset();
    let mut at = 0usize;
    let mut frame_index = 0usize;
    let mut header: Option<FrameHeader> = None;
    // The body is a strict subset of the stream's bytes.
    let mut body: Vec<u8> = Vec::with_capacity(bytes.len());
    let mut chunks = 0u32;
    loop {
        if at == bytes.len() {
            // Ran out of bytes without seeing a trailer.
            return Err(FrameFault::TornWrite { frame_index });
        }
        if bytes.len() - at < FRAME_OVERHEAD {
            return Err(FrameFault::TornWrite { frame_index });
        }
        let kind = bytes[at];
        let len = u32::from_le_bytes(bytes[at + 1..at + 5].try_into().expect("4 bytes"));
        let total = 5usize
            .checked_add(len as usize)
            .and_then(|n| n.checked_add(4))
            .ok_or(FrameFault::CorruptFrame { frame_index })?;
        if bytes.len() - at < total {
            return Err(FrameFault::TornWrite { frame_index });
        }
        let payload = &bytes[at + 5..at + 5 + len as usize];
        let stored =
            u32::from_le_bytes(bytes[at + 5 + len as usize..at + total].try_into().expect("4 bytes"));
        frame_gen.reset();
        frame_gen.push(&bytes[at..at + 5]);
        frame_gen.push(payload);
        if frame_gen.value() != stored {
            return Err(FrameFault::CorruptFrame { frame_index });
        }
        match (kind, frame_index) {
            (KIND_HEADER, 0) => {
                header = Some(parse_header(payload).ok_or(FrameFault::CorruptFrame { frame_index })?);
            }
            (KIND_CHUNK, i) if i > 0 => {
                stream_gen.push(payload);
                body.extend_from_slice(payload);
                chunks += 1;
            }
            (KIND_TRAILER, i) if i > 0 => {
                if payload.len() != TRAILER_PAYLOAD {
                    return Err(FrameFault::CorruptFrame { frame_index });
                }
                let body_len = u64::from_le_bytes(payload[0..8].try_into().expect("8 bytes"));
                let chunk_count = u32::from_le_bytes(payload[8..12].try_into().expect("4 bytes"));
                let stream_sum = u32::from_le_bytes(payload[12..16].try_into().expect("4 bytes"));
                if body_len != body.len() as u64
                    || chunk_count != chunks
                    || stream_sum != stream_gen.value()
                    || at + total != bytes.len()
                {
                    return Err(FrameFault::CorruptFrame { frame_index });
                }
                let header = header.ok_or(FrameFault::CorruptFrame { frame_index })?;
                return Ok((header, body));
            }
            _ => return Err(FrameFault::CorruptFrame { frame_index }),
        }
        at += total;
        frame_index += 1;
    }
}

fn parse_header(payload: &[u8]) -> Option<FrameHeader> {
    if payload.len() != 32 || payload[0..4] != FRAME_MAGIC {
        return None;
    }
    let version = u16::from_le_bytes(payload[4..6].try_into().ok()?);
    if version != FRAME_VERSION {
        return None;
    }
    let tag = payload[6];
    let base = u64::from_le_bytes(payload[7..15].try_into().ok()?);
    let dataset = match payload[15] {
        0 => Some(DatasetKind::Library),
        1 => Some(DatasetKind::Remainder),
        0xFF => None,
        _ => return None,
    };
    let generation = u64::from_le_bytes(payload[16..24].try_into().ok()?);
    let time = f64::from_bits(u64::from_le_bytes(payload[24..32].try_into().ok()?));
    let payload = match (tag, dataset) {
        (0, None) => PayloadKind::Full,
        (1, None) => PayloadKind::Delta { base },
        (2, Some(dataset)) => PayloadKind::Partial { dataset, base },
        (3, None) => PayloadKind::State,
        _ => return None,
    };
    Some(FrameHeader {
        generation,
        payload,
        time,
    })
}

/// Byte offsets of the frame boundaries of a stream (start of each frame,
/// plus the end of the stream), parsed **structurally** — checksums are not
/// verified.  The fault-injecting backend uses this to tear a write at a
/// frame boundary.
pub fn frame_boundaries(bytes: &[u8]) -> Vec<usize> {
    let mut at = 0usize;
    let mut bounds = vec![0];
    while bytes.len() - at >= FRAME_OVERHEAD {
        let len = u32::from_le_bytes(bytes[at + 1..at + 5].try_into().expect("4 bytes")) as usize;
        let Some(total) = FRAME_OVERHEAD.checked_add(len) else {
            break;
        };
        if bytes.len() - at < total {
            break;
        }
        at += total;
        bounds.push(at);
    }
    bounds
}

// ---------------------------------------------------------------------------
// Body codec
// ---------------------------------------------------------------------------

struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, at: 0 }
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], FrameFault> {
        if self.bytes.len() - self.at < n {
            return Err(FrameFault::Decode { what });
        }
        let s = &self.bytes[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }

    fn u8(&mut self, what: &'static str) -> Result<u8, FrameFault> {
        Ok(self.take(1, what)?[0])
    }

    fn u32(&mut self, what: &'static str) -> Result<u32, FrameFault> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self, what: &'static str) -> Result<u64, FrameFault> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().expect("8 bytes")))
    }

    fn f64(&mut self, what: &'static str) -> Result<f64, FrameFault> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    fn done(&self) -> bool {
        self.at == self.bytes.len()
    }
}

fn dataset_to_tag(kind: DatasetKind) -> u8 {
    match kind {
        DatasetKind::Library => 0,
        DatasetKind::Remainder => 1,
    }
}

fn dataset_from_tag(tag: u8) -> Result<DatasetKind, FrameFault> {
    match tag {
        0 => Ok(DatasetKind::Library),
        1 => Ok(DatasetKind::Remainder),
        _ => Err(FrameFault::Decode { what: "dataset tag" }),
    }
}

/// Encoded length of a snapshot list, so the body encoders allocate once.
fn snapshots_len(snapshots: &[ProcessSnapshot]) -> usize {
    let region = |r: &RegionSnapshot| 25 + r.data.len();
    4 + snapshots
        .iter()
        .map(|s| 20 + s.regions.iter().map(region).sum::<usize>())
        .sum::<usize>()
}

fn write_snapshots(out: &mut Vec<u8>, snapshots: &[ProcessSnapshot]) {
    out.extend_from_slice(&(snapshots.len() as u32).to_le_bytes());
    for s in snapshots {
        out.extend_from_slice(&(s.rank as u64).to_le_bytes());
        out.extend_from_slice(&s.progress.to_bits().to_le_bytes());
        out.extend_from_slice(&(s.regions.len() as u32).to_le_bytes());
        for r in &s.regions {
            out.extend_from_slice(&(r.region_id as u64).to_le_bytes());
            out.push(dataset_to_tag(r.kind));
            out.extend_from_slice(&r.generation.to_le_bytes());
            out.extend_from_slice(&(r.data.len() as u64).to_le_bytes());
            out.extend_from_slice(&r.data);
        }
    }
}

fn read_snapshots(r: &mut Reader<'_>) -> Result<Vec<ProcessSnapshot>, FrameFault> {
    let count = r.u32("snapshot count")? as usize;
    let mut snapshots = Vec::with_capacity(count.min(1 << 16));
    for _ in 0..count {
        let rank = r.u64("rank")? as usize;
        let progress = r.f64("progress")?;
        let regions_len = r.u32("region count")? as usize;
        let mut regions = Vec::with_capacity(regions_len.min(1 << 16));
        for _ in 0..regions_len {
            let region_id = r.u64("region id")? as usize;
            let kind = dataset_from_tag(r.u8("region kind")?)?;
            let generation = r.u64("region generation")?;
            let len = r.u64("region length")? as usize;
            let data = Arc::new(r.take(len, "region data")?.to_vec());
            regions.push(RegionSnapshot {
                region_id,
                kind,
                data,
                generation,
            });
        }
        snapshots.push(ProcessSnapshot {
            rank,
            regions,
            progress,
        });
    }
    Ok(snapshots)
}

/// Encodes a [`CoordinatedCheckpoint`] body.
pub fn encode_coordinated(ckpt: &CoordinatedCheckpoint) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + snapshots_len(&ckpt.snapshots));
    out.extend_from_slice(&ckpt.time.to_bits().to_le_bytes());
    write_snapshots(&mut out, &ckpt.snapshots);
    out
}

/// Decodes a [`CoordinatedCheckpoint`] body.
pub fn decode_coordinated(bytes: &[u8]) -> Result<CoordinatedCheckpoint, FrameFault> {
    let mut r = Reader::new(bytes);
    let time = r.f64("time")?;
    let snapshots = read_snapshots(&mut r)?;
    if !r.done() {
        return Err(FrameFault::Decode { what: "trailing bytes" });
    }
    Ok(CoordinatedCheckpoint { time, snapshots })
}

/// Encodes an [`IncrementalCheckpoint`] body (the delta payload).
pub fn encode_incremental(ckpt: &IncrementalCheckpoint) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + snapshots_len(&ckpt.snapshots));
    out.extend_from_slice(&ckpt.time.to_bits().to_le_bytes());
    write_snapshots(&mut out, &ckpt.snapshots);
    out
}

/// Decodes an [`IncrementalCheckpoint`] body.
pub fn decode_incremental(bytes: &[u8]) -> Result<IncrementalCheckpoint, FrameFault> {
    let mut r = Reader::new(bytes);
    let time = r.f64("time")?;
    let snapshots = read_snapshots(&mut r)?;
    if !r.done() {
        return Err(FrameFault::Decode { what: "trailing bytes" });
    }
    Ok(IncrementalCheckpoint { time, snapshots })
}

/// Encodes a [`PartialCheckpoint`] body (the dataset-delta payload).
pub fn encode_partial(ckpt: &PartialCheckpoint) -> Vec<u8> {
    let mut out = Vec::with_capacity(9 + snapshots_len(&ckpt.snapshots));
    out.push(dataset_to_tag(ckpt.kind));
    out.extend_from_slice(&ckpt.time.to_bits().to_le_bytes());
    write_snapshots(&mut out, &ckpt.snapshots);
    out
}

/// Decodes a [`PartialCheckpoint`] body.
pub fn decode_partial(bytes: &[u8]) -> Result<PartialCheckpoint, FrameFault> {
    let mut r = Reader::new(bytes);
    let kind = dataset_from_tag(r.u8("partial kind")?)?;
    let time = r.f64("time")?;
    let snapshots = read_snapshots(&mut r)?;
    if !r.done() {
        return Err(FrameFault::Decode { what: "trailing bytes" });
    }
    Ok(PartialCheckpoint {
        kind,
        time,
        snapshots,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::ProcessSet;
    use ft_platform::checksum::{Crc32, NullChecksum};

    fn image() -> CoordinatedCheckpoint {
        let mut set = ProcessSet::uniform(3, 300, 150);
        set.process_mut(1).unwrap().advance(7.5);
        CoordinatedCheckpoint::capture(&set, 12.25)
    }

    fn header(generation: u64) -> FrameHeader {
        FrameHeader {
            generation,
            payload: PayloadKind::Full,
            time: 12.25,
        }
    }

    #[test]
    fn round_trip_preserves_header_and_body() {
        let body = encode_coordinated(&image());
        for chunk in [1usize, 64, 4096, 1 << 20] {
            let bytes = encode_stream(header(42), &body, chunk, Crc32::new());
            let (h, decoded) = decode_stream(&bytes, Crc32::new()).unwrap();
            assert_eq!(h, header(42), "chunk {chunk}");
            assert_eq!(decoded, body, "chunk {chunk}");
            let ckpt = decode_coordinated(&decoded).unwrap();
            assert_eq!(ckpt, image());
        }
    }

    #[test]
    fn every_payload_kind_round_trips() {
        let set = ProcessSet::uniform(2, 64, 32);
        let base = CoordinatedCheckpoint::capture(&set, 1.0);
        let inc = IncrementalCheckpoint::capture_since(&set, &base, 2.0);
        let part = PartialCheckpoint::capture(&set, DatasetKind::Remainder, 3.0);

        for (payload, body) in [
            (PayloadKind::Full, encode_coordinated(&base)),
            (PayloadKind::Delta { base: 7 }, encode_incremental(&inc)),
            (
                PayloadKind::Partial {
                    dataset: DatasetKind::Remainder,
                    base: 7,
                },
                encode_partial(&part),
            ),
            (PayloadKind::State, vec![1, 2, 3, 4]),
        ] {
            let h = FrameHeader {
                generation: 9,
                payload,
                time: 3.0,
            };
            let bytes = encode_stream(h, &body, 128, Crc32::new());
            let (decoded_h, decoded_body) = decode_stream(&bytes, Crc32::new()).unwrap();
            assert_eq!(decoded_h, h);
            assert_eq!(decoded_body, body);
        }
        assert_eq!(decode_incremental(&encode_incremental(&inc)).unwrap(), inc);
        assert_eq!(decode_partial(&encode_partial(&part)).unwrap(), part);
    }

    #[test]
    fn any_single_bit_flip_is_caught() {
        let body = encode_coordinated(&image());
        let clean = encode_stream(header(0), &body, 256, Crc32::new());
        // Flip a spread of bits across the stream: header, chunks, trailer.
        let step = (clean.len() * 8 / 97).max(1);
        for bit in (0..clean.len() * 8).step_by(step) {
            let mut bytes = clean.clone();
            bytes[bit / 8] ^= 1 << (bit % 8);
            assert!(
                decode_stream(&bytes, Crc32::new()).is_err(),
                "flip of bit {bit} went undetected"
            );
        }
    }

    #[test]
    fn truncation_is_classified_as_torn_write() {
        let body = encode_coordinated(&image());
        let clean = encode_stream(header(0), &body, 256, Crc32::new());
        // Cut inside a frame payload and at a frame boundary.
        let bounds = frame_boundaries(&clean);
        assert!(bounds.len() > 3);
        assert_eq!(*bounds.last().unwrap(), clean.len());
        let mid_frame = bounds[1] + 3;
        assert!(matches!(
            decode_stream(&clean[..mid_frame], Crc32::new()),
            Err(FrameFault::TornWrite { .. })
        ));
        assert!(matches!(
            decode_stream(&clean[..bounds[2]], Crc32::new()),
            Err(FrameFault::TornWrite { .. })
        ));
        // An empty byte string is torn, not corrupt.
        assert!(matches!(
            decode_stream(&[], Crc32::new()),
            Err(FrameFault::TornWrite { frame_index: 0 })
        ));
    }

    #[test]
    fn null_checksum_still_catches_structural_damage() {
        let body = encode_coordinated(&image());
        let clean = encode_stream(header(0), &body, 256, NullChecksum);
        assert!(decode_stream(&clean, NullChecksum).is_ok());
        // Truncation (structure) is still caught …
        assert!(decode_stream(&clean[..clean.len() - 10], NullChecksum).is_err());
        // … but a payload bit flip sails through: that is the benchmark
        // trade-off the null generator exists to measure.
        let mut flipped = clean.clone();
        let bounds = frame_boundaries(&clean);
        flipped[bounds[1] + 20] ^= 0x01;
        assert!(decode_stream(&flipped, NullChecksum).is_ok());
        // The CRC reader rejects a null-checksummed stream (wrong algorithm).
        assert!(decode_stream(&clean, Crc32::new()).is_err());
    }

    #[test]
    fn decode_rejects_malformed_bodies() {
        assert!(decode_coordinated(&[]).is_err());
        let mut body = encode_coordinated(&image());
        body.push(0); // trailing garbage
        assert!(matches!(
            decode_coordinated(&body),
            Err(FrameFault::Decode { what: "trailing bytes" })
        ));
        // A declared region length pointing past the end of the body.
        let set = ProcessSet::uniform(1, 16, 8);
        let full = CoordinatedCheckpoint::capture(&set, 0.0);
        let mut enc = encode_coordinated(&full);
        let n = enc.len();
        enc.truncate(n - 4);
        assert!(decode_coordinated(&enc).is_err());
    }

    #[test]
    fn chunk_size_is_clamped_to_the_length_field() {
        let writer = |chunk_size| FrameWriter::new(header(1), chunk_size, Crc32::new()).chunk_size;
        assert_eq!(writer(usize::MAX), u32::MAX as usize);
        assert_eq!(writer(u32::MAX as usize), u32::MAX as usize);
        assert_eq!(writer(0), 1);
        let body = encode_coordinated(&image());
        let bytes = encode_stream(header(1), &body, usize::MAX, Crc32::new());
        assert_eq!(decode_stream(&bytes, Crc32::new()).unwrap().1, body);
    }

    #[test]
    fn streaming_writer_matches_one_shot_encoding() {
        let body = encode_coordinated(&image());
        let one_shot = encode_stream(header(3), &body, 512, Crc32::new());
        let mut w = FrameWriter::new(header(3), 512, Crc32::new());
        for piece in body.chunks(100) {
            w.push(piece);
        }
        assert_eq!(w.finish(), one_shot);
    }

    #[test]
    fn body_encoders_allocate_exactly_once() {
        let set = ProcessSet::uniform(3, 70, 30);
        let base = CoordinatedCheckpoint::capture(&set, 1.0);
        let inc = IncrementalCheckpoint::capture_since(&set, &base, 2.0);
        let part = PartialCheckpoint::capture(&set, DatasetKind::Library, 3.0);
        for body in [
            encode_coordinated(&base),
            encode_incremental(&inc),
            encode_partial(&part),
            encode_coordinated(&CoordinatedCheckpoint::capture(&ProcessSet::new(0), 0.0)),
        ] {
            assert_eq!(body.capacity(), body.len());
        }
    }

    #[test]
    fn empty_body_streams_round_trip() {
        let h = FrameHeader {
            generation: 0,
            payload: PayloadKind::State,
            time: 0.0,
        };
        let bytes = encode_stream(h, &[], 4096, Crc32::new());
        let (decoded, body) = decode_stream(&bytes, Crc32::new()).unwrap();
        assert_eq!(decoded, h);
        assert!(body.is_empty());
    }
}
