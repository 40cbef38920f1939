//! The frame-stream wire format, pinned byte for byte.
//!
//! Stored checkpoint streams must stay readable across versions of the
//! codec, so the bytes the writer emits are part of the contract, not an
//! implementation detail.  These tests fix them independently of the
//! checksum kernel under test: golden values are CRC-32s computed by the
//! bit-at-a-time reference below (no lookup table), and one small stream is
//! pinned verbatim.  They also fix the fault injector's behaviour per seed,
//! since seeded corruption matrices are only repeatable if the sequence of
//! injected faults is.

use ft_ckpt::backend::{
    CheckpointBackend, FaultInjectingBackend, FaultPlan, InjectedKind, MemoryBackend,
};
use ft_ckpt::coordinated::CoordinatedCheckpoint;
use ft_ckpt::frame::{
    decode_stream, encode_coordinated, encode_incremental, encode_stream, FrameHeader, FrameWriter,
    PayloadKind,
};
use ft_ckpt::incremental::IncrementalCheckpoint;
use ft_ckpt::state::ProcessSet;
use ft_platform::checksum::Crc32;
use proptest::prelude::*;

/// CRC-32/ISO-HDLC one bit at a time: the reference the golden values are
/// computed with.
fn reference_crc32(data: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in data {
        c ^= u32::from(b);
        for _ in 0..8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
        }
    }
    !c
}

/// The fixed process set behind the golden streams, and its full image.
fn fixed_image() -> (ProcessSet, CoordinatedCheckpoint) {
    let mut set = ProcessSet::uniform(3, 300, 150);
    set.process_mut(1).unwrap().advance(7.5);
    let image = CoordinatedCheckpoint::capture(&set, 12.25);
    (set, image)
}

/// A delta of the fixed image: rank 2's first region rewritten.
fn fixed_delta() -> IncrementalCheckpoint {
    let (mut set, base) = fixed_image();
    let p = set.process_mut(2).unwrap();
    let id = p.regions()[0].id;
    p.region_mut(id).unwrap().update(|d| {
        for (k, b) in d.iter_mut().enumerate() {
            *b ^= (k % 13) as u8;
        }
    });
    p.advance(1.0);
    IncrementalCheckpoint::capture_since(&set, &base, 13.5)
}

const CHUNK_SIZES: [usize; 4] = [1, 7, 256, 4096];

/// `(chunk size, stream length, reference CRC-32 of the stream)` for the
/// full image, generation 42.
const FULL_GOLDEN: [(usize, usize, u32); 4] = [
    (1, 15786, 0xE852_1931),
    (7, 3663, 0xEF1E_2DD9),
    (256, 1701, 0x71DC_BA41),
    (4096, 1647, 0x1AA1_E736),
];

/// The same for the delta, generation 43 against base 42.
const DELTA_GOLDEN: [(usize, usize, u32); 4] = [
    (1, 4036, 0xD635_EA4D),
    (7, 976, 0xE61F_32A6),
    (256, 481, 0x048D_E271),
    (4096, 472, 0x5028_783A),
];

fn check_golden(header: FrameHeader, body: &[u8], golden: &[(usize, usize, u32); 4]) {
    for (&chunk, &(g_chunk, g_len, g_crc)) in CHUNK_SIZES.iter().zip(golden) {
        assert_eq!(chunk, g_chunk);
        let bytes = encode_stream(header, body, chunk, Crc32::new());
        assert_eq!(
            (bytes.len(), reference_crc32(&bytes)),
            (g_len, g_crc),
            "{:?} stream at chunk size {chunk}",
            header.payload
        );
        let (h, decoded) = decode_stream(&bytes, Crc32::new()).unwrap();
        assert_eq!(h, header);
        assert_eq!(decoded, body);
    }
}

#[test]
fn full_image_streams_match_their_golden_checksums() {
    let (_, image) = fixed_image();
    let header = FrameHeader {
        generation: 42,
        payload: PayloadKind::Full,
        time: 12.25,
    };
    check_golden(header, &encode_coordinated(&image), &FULL_GOLDEN);
}

#[test]
fn delta_streams_match_their_golden_checksums() {
    let delta = fixed_delta();
    assert_eq!(delta.dirty_regions(), 1);
    let header = FrameHeader {
        generation: 43,
        payload: PayloadKind::Delta { base: 42 },
        time: 13.5,
    };
    check_golden(header, &encode_incremental(&delta), &DELTA_GOLDEN);
}

#[test]
fn a_small_stream_is_pinned_byte_for_byte() {
    let header = FrameHeader {
        generation: 5,
        payload: PayloadKind::Delta { base: 2 },
        time: 1.5,
    };
    let bytes = encode_stream(header, b"checkpoint", 4, Crc32::new());
    #[rustfmt::skip]
    let golden: &[u8] = &[
        // Header frame: kind 1, length 32, then magic "FTCK", version 1,
        // payload tag 1 (delta), base 2, dataset 0xFF (none), generation 5,
        // time 1.5 as f64 bits, and the frame CRC.
        0x01, 0x20, 0x00, 0x00, 0x00,
        0x46, 0x54, 0x43, 0x4b, 0x01, 0x00, 0x01,
        0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xff,
        0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf8, 0x3f,
        0xc0, 0x83, 0x2a, 0x04,
        // Chunk frames "chec", "kpoi", "nt".
        0x02, 0x04, 0x00, 0x00, 0x00, 0x63, 0x68, 0x65, 0x63, 0xa7, 0x5f, 0xd3, 0xef,
        0x02, 0x04, 0x00, 0x00, 0x00, 0x6b, 0x70, 0x6f, 0x69, 0x14, 0x84, 0x68, 0x22,
        0x02, 0x02, 0x00, 0x00, 0x00, 0x6e, 0x74, 0x50, 0x9c, 0x2d, 0xeb,
        // Trailer frame: kind 3, length 16, body length 10, 3 chunks, the
        // whole-body CRC, and the frame CRC.
        0x03, 0x10, 0x00, 0x00, 0x00,
        0x0a, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x03, 0x00, 0x00, 0x00,
        0xbe, 0xf7, 0x00, 0x0f,
        0xef, 0x10, 0x79, 0x7d,
    ];
    assert_eq!(bytes, golden);
}

/// Turns raw draws into push sizes that exercise every way a piece can meet
/// a chunk boundary: empty, exactly topping up the pending partial chunk,
/// exactly one chunk from a boundary, and arbitrary (often straddling).
fn push_sizes(draws: &[u32], chunk: usize, body_len: usize) -> Vec<usize> {
    let mut sizes = Vec::new();
    let mut at = 0usize;
    for &r in draws {
        if at == body_len {
            break;
        }
        let want = match r % 4 {
            0 => 0,
            1 => chunk - at % chunk,
            2 => chunk,
            _ => (r / 4) as usize % (3 * chunk + 1),
        };
        let n = want.min(body_len - at);
        sizes.push(n);
        at += n;
    }
    sizes.push(body_len - at);
    sizes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn streaming_writer_equals_one_shot_encoding_under_any_split(
        body_len in 0usize..3000,
        chunk in 1usize..300,
        draws in prop::collection::vec(0u32..u32::MAX, 0..40),
        fill in 0u8..=255,
    ) {
        let body: Vec<u8> = (0..body_len).map(|i| (i as u8).wrapping_mul(31) ^ fill).collect();
        let header = FrameHeader { generation: 7, payload: PayloadKind::State, time: 0.5 };
        let one_shot = encode_stream(header, &body, chunk, Crc32::new());
        let mut w = FrameWriter::new(header, chunk, Crc32::new());
        let mut at = 0;
        for n in push_sizes(&draws, chunk, body_len) {
            w.push(&body[at..at + n]);
            at += n;
        }
        prop_assert_eq!(at, body_len);
        prop_assert_eq!(w.finish(), one_shot);
    }
}

fn stream(generation: u64) -> Vec<u8> {
    let header = FrameHeader {
        generation,
        payload: PayloadKind::State,
        time: generation as f64,
    };
    let body: Vec<u8> = (0..2000u32).map(|i| (i % 251) as u8).collect();
    encode_stream(header, &body, 256, Crc32::new())
}

#[test]
fn unfaulted_puts_store_their_input_verbatim() {
    // A plan with non-zero probabilities still draws on every put; the puts
    // whose draws miss must store the input unchanged.
    for plan in [
        FaultPlan::none(),
        FaultPlan::only(InjectedKind::BitFlip, 0.3),
    ] {
        let mut b = FaultInjectingBackend::new(MemoryBackend::new(), plan, 17);
        let mut clean = 0;
        for generation in 0..20u64 {
            b.put(generation, &stream(generation)).unwrap();
            if b.injected_into(generation).is_empty() {
                clean += 1;
                assert_eq!(b.get(generation).unwrap(), stream(generation));
            }
        }
        assert!(clean > 0);
    }
}

/// `(generation, kind)` for every fault the mixed plan below injects at seed
/// 1, and the reference CRC-32 of everything it stored, in generation order.
const MIXED_PLAN_INJECTED: &[(u64, InjectedKind)] = &[
    (0, InjectedKind::BitFlip),
    (1, InjectedKind::TornWrite),
    (2, InjectedKind::TornWrite),
    (3, InjectedKind::TornWrite),
    (6, InjectedKind::TornWrite),
    (7, InjectedKind::TornWrite),
    (10, InjectedKind::TornWrite),
    (13, InjectedKind::Truncate),
    (15, InjectedKind::TornWrite),
    (16, InjectedKind::BitFlip),
    (19, InjectedKind::Truncate),
    (22, InjectedKind::TornWrite),
    (23, InjectedKind::Truncate),
    (25, InjectedKind::Truncate),
    (28, InjectedKind::Truncate),
];
const MIXED_PLAN_STORED_CRC: u32 = 0xB738_AFC5;

#[test]
fn a_seeded_fault_plan_injects_the_pinned_sequence() {
    let mut b = FaultInjectingBackend::new(
        MemoryBackend::new(),
        FaultPlan {
            bit_flip: 0.2,
            truncate: 0.2,
            torn_write: 0.2,
            transient: 0.0,
            max_transient_repeats: 0,
        },
        1,
    );
    for generation in 0..30u64 {
        b.put(generation, &stream(generation)).unwrap();
    }
    assert_eq!(b.injected(), MIXED_PLAN_INJECTED);
    let mut stored = Vec::new();
    for generation in b.generations() {
        stored.extend_from_slice(&b.get(generation).unwrap());
    }
    assert_eq!(reference_crc32(&stored), MIXED_PLAN_STORED_CRC);
}
