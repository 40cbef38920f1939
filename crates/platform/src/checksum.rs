//! Checksum generators for the checkpoint frame pipeline.
//!
//! Every frame the durable checkpoint pipeline (`ft-ckpt`) writes carries a
//! checksum so that restores can *verify* rather than trust the stored
//! image.  [`ChecksumGen`] is the pluggable generator behind the frame
//! writer: [`Crc32`] is the real thing (CRC-32/ISO-HDLC, the polynomial of
//! zlib and Ethernet; a carry-less-multiply folding kernel on x86_64 CPUs
//! with PCLMULQDQ, slicing-by-16 everywhere else), while [`NullChecksum`] is
//! the identity generator the micro-benchmarks use to isolate the cost of
//! checksumming from the cost of framing and I/O.
//!
//! Generators are streaming — `reset`, then any number of `push` calls,
//! then `value` — so the frame writer can checksum chunked payloads without
//! buffering them, and the same generator instance is reused across frames.

/// A streaming 32-bit checksum generator.
///
/// Implementations must be pure functions of the pushed byte sequence:
/// pushing the same bytes in any chunking produces the same value, and
/// `reset` returns the generator to its initial state.
pub trait ChecksumGen {
    /// Returns the generator to its initial state.
    fn reset(&mut self);

    /// Feeds bytes into the running checksum.
    fn push(&mut self, data: &[u8]);

    /// The checksum of everything pushed since the last reset.
    fn value(&self) -> u32;

    /// Convenience: the checksum of one contiguous byte slice (resets the
    /// generator first, so the running state is consumed).
    fn checksum_of(&mut self, data: &[u8]) -> u32 {
        self.reset();
        self.push(data);
        self.value()
    }

    /// Short human-readable name of the algorithm.
    fn name(&self) -> &'static str;
}

/// The CRC-32/ISO-HDLC lookup table (reflected polynomial `0xEDB88320`),
/// built at compile time.
const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

/// The slicing-by-16 tables: `table[0]` is the bytewise table, and
/// `table[k][i]` is the CRC state after feeding byte `i` followed by `k` zero
/// bytes, so sixteen lookups advance the state over sixteen input bytes.
const fn crc32_slice_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    tables[0] = crc32_table();
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static CRC32_TABLES: [[u32; 256]; 16] = crc32_slice_tables();

/// Feeds `data` into the raw CRC state one byte at a time.
#[inline]
fn crc32_bytewise(mut c: u32, data: &[u8]) -> u32 {
    for &b in data {
        c = CRC32_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// Feeds `data` into the raw CRC state sixteen bytes at a time (slicing-by-16),
/// finishing the tail of fewer than sixteen bytes bytewise.
fn crc32_slicing16(mut c: u32, data: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut blocks = data.chunks_exact(16);
    for block in &mut blocks {
        let word =
            |i: usize| u32::from_le_bytes([block[i], block[i + 1], block[i + 2], block[i + 3]]);
        let (a, b, d, e) = (word(0) ^ c, word(4), word(8), word(12));
        let byte = |w: u32, shift: u32| ((w >> shift) & 0xFF) as usize;
        c = t[15][byte(a, 0)]
            ^ t[14][byte(a, 8)]
            ^ t[13][byte(a, 16)]
            ^ t[12][byte(a, 24)]
            ^ t[11][byte(b, 0)]
            ^ t[10][byte(b, 8)]
            ^ t[9][byte(b, 16)]
            ^ t[8][byte(b, 24)]
            ^ t[7][byte(d, 0)]
            ^ t[6][byte(d, 8)]
            ^ t[5][byte(d, 16)]
            ^ t[4][byte(d, 24)]
            ^ t[3][byte(e, 0)]
            ^ t[2][byte(e, 8)]
            ^ t[1][byte(e, 16)]
            ^ t[0][byte(e, 24)];
    }
    crc32_bytewise(c, blocks.remainder())
}

/// The raw CRC state after [`crc32_pclmul`], or `None` when the target or
/// the running CPU lacks the instructions it needs.
#[allow(unsafe_code)]
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
fn crc32_folded(c: u32, data: &[u8]) -> Option<u32> {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1") {
        // SAFETY: `crc32_pclmul` enables exactly `pclmulqdq` and `sse4.1`,
        // and both were just detected on the running CPU.
        return Some(unsafe { crc32_pclmul(c, data) });
    }
    None
}

/// Feeds `data` into the raw CRC state by carry-less-multiply folding
/// (Gopal et al., "Fast CRC Computation for Generic Polynomials Using
/// PCLMULQDQ Instruction", Intel, 2009), bit-reflected for `0xEDB88320`.
///
/// Four 128-bit accumulators fold 64 bytes per step; they are folded into
/// one, which then takes 16 bytes per step; the remaining 128 bits reduce to
/// 64 and a Barrett step gives the 32-bit state.  Inputs under 128 bytes and
/// the final 0–15 bytes go through [`crc32_slicing16`].  The state in and out
/// is the raw (un-inverted) CRC register, so chunked pushes compose exactly.
///
/// Calling it is sound only on a CPU with `pclmulqdq` and `sse4.1`;
/// [`crc32_folded`] checks both before its one `unsafe` call.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "pclmulqdq,sse4.1")]
fn crc32_pclmul(c: u32, data: &[u8]) -> u32 {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };
    // Bit-reflected `x^k mod P(x)` folding constants, each shifted left by
    // one bit: k = 4·128 ± 32 folds across 64 bytes, k = 128 ± 32 across 16
    // and k = 64 reduces 96 bits to 64.  `P` is the reflected polynomial with
    // its x^32 term and `MU` the reflected floor(x^64 / P(x)), for Barrett.
    const K1: i64 = 0x1_5444_2BD4;
    const K2: i64 = 0x1_C6E4_1596;
    const K3: i64 = 0x1_7519_97D0;
    const K4: i64 = 0x0_CCAA_009E;
    const K5: i64 = 0x1_63CD_6124;
    const P: i64 = 0x1_DB71_0641;
    const MU: i64 = 0x1_F701_1641;

    /// `acc` carried `keys`' distance further along the message, plus `next`.
    #[target_feature(enable = "pclmulqdq")]
    fn fold(acc: __m128i, next: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(acc, keys);
        let hi = _mm_clmulepi64_si128::<0x11>(acc, keys);
        _mm_xor_si128(_mm_xor_si128(next, lo), hi)
    }
    #[target_feature(enable = "sse2")]
    fn load(block: &[u8; 16]) -> __m128i {
        let lo = i64::from_le_bytes([
            block[0], block[1], block[2], block[3], block[4], block[5], block[6], block[7],
        ]);
        let hi = i64::from_le_bytes([
            block[8], block[9], block[10], block[11], block[12], block[13], block[14], block[15],
        ]);
        _mm_set_epi64x(hi, lo)
    }

    if data.len() < 128 {
        return crc32_slicing16(c, data);
    }
    let (blocks, tail) = data.as_chunks::<16>();
    let (first, rest) = blocks.split_at(4);
    let mut x: [__m128i; 4] = std::array::from_fn(|i| load(&first[i]));
    x[0] = _mm_xor_si128(x[0], _mm_cvtsi32_si128(c as i32));

    let by_four = _mm_set_epi64x(K2, K1);
    let mut quads = rest.chunks_exact(4);
    for quad in &mut quads {
        for (acc, block) in x.iter_mut().zip(quad) {
            *acc = fold(*acc, load(block), by_four);
        }
    }
    let by_one = _mm_set_epi64x(K4, K3);
    let mut acc = fold(fold(fold(x[0], x[1], by_one), x[2], by_one), x[3], by_one);
    for block in quads.remainder() {
        acc = fold(acc, load(block), by_one);
    }

    // 128 -> 96 -> 64 bits, then Barrett down to the 32-bit state, which the
    // reflected layout leaves in the second 32-bit lane.
    let low32 = _mm_set_epi32(0, 0, 0, -1);
    let r = _mm_xor_si128(_mm_clmulepi64_si128::<0x10>(acc, by_one), _mm_srli_si128::<8>(acc));
    let r = _mm_xor_si128(
        _mm_clmulepi64_si128::<0x00>(_mm_and_si128(r, low32), _mm_set_epi64x(0, K5)),
        _mm_srli_si128::<4>(r),
    );
    let barrett = _mm_set_epi64x(MU, P);
    let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(r, low32), barrett);
    let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, low32), barrett);
    let state = _mm_extract_epi32::<1>(_mm_xor_si128(r, t2)) as u32;
    crc32_slicing16(state, tail)
}

/// CRC-32/ISO-HDLC (a.k.a. the zlib/PNG/Ethernet CRC-32): init `0xFFFFFFFF`,
/// reflected polynomial `0xEDB88320`, final XOR `0xFFFFFFFF`.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// A fresh generator.
    pub fn new() -> Self {
        Self { state: !0 }
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl ChecksumGen for Crc32 {
    #[inline]
    fn reset(&mut self) {
        self.state = !0;
    }

    /// Runs the carry-less-multiply fold where the CPU has it and
    /// slicing-by-16 everywhere else.
    fn push(&mut self, data: &[u8]) {
        let c = self.state;
        self.state = crc32_folded(c, data).unwrap_or_else(|| crc32_slicing16(c, data));
    }

    #[inline]
    fn value(&self) -> u32 {
        !self.state
    }

    fn name(&self) -> &'static str {
        "crc32"
    }
}

/// The identity generator: every checksum is zero.  Frames written with it
/// verify structurally (lengths, magic, frame kinds) but not byte-exactly —
/// it exists so benchmarks can measure the pipeline with checksumming
/// subtracted out.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullChecksum;

impl ChecksumGen for NullChecksum {
    #[inline]
    fn reset(&mut self) {}

    #[inline]
    fn push(&mut self, _data: &[u8]) {}

    #[inline]
    fn value(&self) -> u32 {
        0
    }

    fn name(&self) -> &'static str {
        "null"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::DeterministicRng;
    use proptest::prelude::*;

    #[test]
    fn crc32_matches_the_check_vector() {
        // The canonical CRC-32/ISO-HDLC check value.
        let mut c = Crc32::new();
        assert_eq!(c.checksum_of(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn crc32_of_empty_input_is_zero() {
        let mut c = Crc32::default();
        assert_eq!(c.checksum_of(b""), 0);
    }

    #[test]
    fn chunking_does_not_change_the_checksum() {
        let data: Vec<u8> = (0..=255).cycle().take(10_000).collect();
        let mut whole = Crc32::new();
        let one = whole.checksum_of(&data);
        let mut chunked = Crc32::new();
        chunked.reset();
        for chunk in data.chunks(37) {
            chunked.push(chunk);
        }
        assert_eq!(chunked.value(), one);
    }

    #[test]
    fn reset_restores_the_initial_state() {
        let mut c = Crc32::new();
        let first = c.checksum_of(b"hello");
        c.push(b"more bytes");
        c.reset();
        c.push(b"hello");
        assert_eq!(c.value(), first);
    }

    #[test]
    fn single_bit_flips_change_the_checksum() {
        let data = vec![0x5Au8; 256];
        let mut c = Crc32::new();
        let clean = c.checksum_of(&data);
        for bit in [0usize, 7, 100, 2047] {
            let mut flipped = data.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(c.checksum_of(&flipped), clean, "bit {bit}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn slicing_kernel_equals_the_bytewise_reference(
            len in 0usize..=2048,
            offset in 0usize..16,
            seed in 0u64..u64::MAX,
            state in 0u32..=u32::MAX,
            splits in prop::collection::vec(0usize..=2048, 0..6),
        ) {
            let mut rng = crate::rng::Xoshiro256::seed_from_u64(seed);
            let buf: Vec<u8> = (0..offset + len).map(|_| rng.next_u64() as u8).collect();
            let data = &buf[offset..];
            let reference = crc32_bytewise(state, data);
            prop_assert_eq!(crc32_slicing16(state, data), reference);
            // The dispatched kernel, on the same bytes pushed in arbitrary
            // pieces from an arbitrary incoming state.
            let mut cuts: Vec<usize> = splits.iter().map(|&s| s.min(len)).collect();
            cuts.sort_unstable();
            let mut c = Crc32 { state };
            let mut at = 0;
            for cut in cuts.into_iter().chain([len]) {
                c.push(&data[at..cut]);
                at = cut;
            }
            prop_assert_eq!(c.state, reference);
        }
    }

    /// The folding kernel on its own, whichever kernel `Crc32::push` picks:
    /// every length through the <128 fallback, the 64-byte and 16-byte loops
    /// and each 0–15 byte tail, at unaligned offsets.  A no-op where the CPU
    /// lacks the kernel's instructions.
    #[test]
    fn folding_kernel_equals_the_bytewise_reference() {
        let mut rng = crate::rng::Xoshiro256::seed_from_u64(17);
        let buf: Vec<u8> = (0..(1 << 20) + 16).map(|_| rng.next_u64() as u8).collect();
        for len in (0..=600).chain([4096, 4101, 1 << 20]) {
            for offset in [0usize, 1, 3, 15] {
                let data = &buf[offset..offset + len];
                for state in [!0u32, 0x1234_5678] {
                    let Some(folded) = crc32_folded(state, data) else {
                        return;
                    };
                    assert_eq!(folded, crc32_bytewise(state, data), "len {len} offset {offset}");
                }
            }
        }
    }

    #[test]
    fn crc32_of_a_fixed_mebibyte_is_pinned() {
        // A xorshift64 byte stream; the value was recorded from the bytewise
        // reference before the folding kernel existed.
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let buf: Vec<u8> = (0..1 << 17)
            .flat_map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x.to_le_bytes()
            })
            .collect();
        assert_eq!(buf.len(), 1 << 20);
        assert_eq!(Crc32::new().checksum_of(&buf), 0x6653_10DF);
        assert_eq!(!crc32_slicing16(!0, &buf), 0x6653_10DF);
        let mut seeded = Crc32 { state: 0x1234_5678 };
        seeded.push(&buf);
        assert_eq!(seeded.value(), 0x2CBF_C88C);
    }

    #[test]
    fn null_checksum_is_always_zero() {
        let mut n = NullChecksum;
        assert_eq!(n.checksum_of(b"anything"), 0);
        n.push(b"more");
        assert_eq!(n.value(), 0);
        assert_eq!(n.name(), "null");
        assert_eq!(Crc32::new().name(), "crc32");
    }
}
