//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`), hand-rolled
//! because the workspace vendors no checksum crate.
//!
//! Slicing-by-8: table `t[0]` is the classic byte-at-a-time table, and
//! `t[s][b]` is the CRC of byte `b` followed by `s` zero bytes, so one
//! step folds eight input bytes with eight independent lookups instead
//! of a chain of eight dependent ones. A tail shorter than eight bytes
//! goes through `t[0]` a byte at a time. The tables are built at compile
//! time. Every seal, `Archive::open`'s scan and every run table a query
//! edge parses checksum through here.

const POLY: u32 = 0xEDB8_8320;

/// The eight slicing tables (8 KiB), evaluated at compile time.
static TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 == 1 { POLY ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut s = 1;
        while s < 8 {
            let prev = t[s - 1][i];
            t[s][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            s += 1;
        }
        i += 1;
    }
    t
}

/// A streaming CRC-32 accumulator.
#[derive(Debug, Clone, Copy)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// A fresh accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self { state: 0xFFFF_FFFF }
    }

    /// Folds `bytes` into the checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        let t = &TABLES;
        let mut crc = self.state;
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
            let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
            crc = t[7][(lo & 0xFF) as usize]
                ^ t[6][(lo >> 8 & 0xFF) as usize]
                ^ t[5][(lo >> 16 & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xFF) as usize]
                ^ t[2][(hi >> 8 & 0xFF) as usize]
                ^ t[1][(hi >> 16 & 0xFF) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        for &b in words.remainder() {
            crc = t[0][((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
        }
        self.state = crc;
    }

    /// The final checksum value.
    #[must_use]
    pub fn finish(self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

/// One-shot CRC-32 of `bytes`.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bit-at-a-time CRC-32: the definition, with no table.
    fn bitwise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c ^= u32::from(b);
            for _ in 0..8 {
                c = if c & 1 == 1 { POLY ^ (c >> 1) } else { c >> 1 };
            }
        }
        c ^ 0xFFFF_FFFF
    }

    /// 72 bytes of a fixed xorshift stream.
    fn noise() -> Vec<u8> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        (0..72)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn known_vectors() {
        // The classic check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn slicing_equals_the_bitwise_definition_at_every_length_and_offset() {
        let data = noise();
        for offset in 0..8 {
            for len in 0..=64 {
                let bytes = &data[offset..offset + len];
                assert_eq!(
                    crc32(bytes),
                    bitwise(bytes),
                    "offset {offset}, length {len}"
                );
            }
        }
    }

    #[test]
    fn streaming_equals_one_shot() {
        let data = noise();
        for len in 0..=64 {
            let bytes = &data[..len];
            let whole = bitwise(bytes);
            for split in 0..=len {
                let mut c = Crc32::new();
                c.update(&bytes[..split]);
                c.update(&bytes[split..]);
                assert_eq!(c.finish(), whole, "length {len}, split at {split}");
            }
        }
    }

    #[test]
    fn detects_single_bit_flips() {
        let mut data = vec![0u8; 64];
        data[10] = 0x42;
        let clean = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                data[byte] ^= 1 << bit;
                assert_ne!(crc32(&data), clean, "flip at {byte}.{bit} undetected");
                data[byte] ^= 1 << bit;
            }
        }
    }
}
