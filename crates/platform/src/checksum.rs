//! Checksum generators for the checkpoint frame pipeline.
//!
//! Every frame the durable checkpoint pipeline (`ft-ckpt`) writes carries a
//! checksum so that restores can *verify* rather than trust the stored
//! image.  [`ChecksumGen`] is the pluggable generator behind the frame
//! writer: [`Crc32`] is the real thing (CRC-32/ISO-HDLC, the polynomial of
//! zlib and Ethernet), while [`NullChecksum`] is the identity generator the
//! micro-benchmarks use to isolate the cost of checksumming from the cost of
//! framing and I/O.
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

    fn push(&mut self, data: &[u8]) {
        self.state = crc32_slicing16(self.state, data);
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
            len in 0usize..=300,
            offset in 0usize..16,
            seed in 0u64..u64::MAX,
            splits in prop::collection::vec(0usize..=300, 0..6),
        ) {
            let mut rng = crate::rng::Xoshiro256::seed_from_u64(seed);
            let buf: Vec<u8> = (0..offset + len).map(|_| rng.next_u64() as u8).collect();
            let data = &buf[offset..];
            let reference = !crc32_bytewise(!0, data);
            prop_assert_eq!(!crc32_slicing16(!0, data), reference);
            // The same bytes pushed in arbitrary pieces.
            let mut cuts: Vec<usize> = splits.iter().map(|&s| s.min(len)).collect();
            cuts.sort_unstable();
            let mut c = Crc32::new();
            let mut at = 0;
            for cut in cuts.into_iter().chain([len]) {
                c.push(&data[at..cut]);
                at = cut;
            }
            prop_assert_eq!(c.value(), reference);
        }
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
