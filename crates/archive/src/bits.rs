//! Bit-level primitives for the segment payload codec: an LSB-first
//! bit stream, zigzag signed↔unsigned mapping, and Rice coding with an
//! escape for outliers.
//!
//! Bit order is LSB-first within each byte: the first bit written
//! lands in bit 0 of byte 0. Multi-bit fields are written least
//! significant bit first, so writer and reader agree without any
//! byte-order bookkeeping.
//!
//! Both ends work a 64-bit word at a time over that same bit order.
//! [`BitWriter`] ORs each field into a 64-bit accumulator and moves
//! whole bytes out when the next field would not fit; a Rice codeword
//! (unary prefix, stop bit, remainder) is a single field.
//! [`BitReader`] keeps the stream from its bit cursor on in a 64-bit
//! buffer (bits past the end read as 0) and refills it a word at a
//! time only when a read needs more bits than it holds: a field is one
//! shift and mask, a unary prefix one `trailing_ones`. A read that
//! would reach past the end fails with [`BitStreamExhausted`] exactly
//! where a bit-by-bit reader would.

/// Number of unary `1` bits after which a Rice codeword escapes to a
/// fixed-width raw value (keeps pathological deltas bounded).
pub const RICE_ESCAPE_Q: u32 = 16;

/// Width of the escaped raw value: zigzagged 10-bit deltas span
/// `0..=2046`, which fits in 11 bits.
pub const RICE_ESCAPE_BITS: u8 = 11;

/// The widest field a single window read or accumulator insert takes:
/// whole bytes move between the streams and 64-bit words, so a refill
/// leaves at least 56 bits in the reader's buffer unless the stream
/// ends first, and a flush leaves at most 7 bits in the writer's.
const WINDOW_BITS: u32 = 56;

/// Maps a signed value onto the non-negative integers with small
/// magnitudes first: `0, -1, 1, -2, 2, …` → `0, 1, 2, 3, 4, …`.
#[must_use]
pub fn zigzag64(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag64`].
#[must_use]
pub fn unzigzag64(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// The `n` low bits set, for `n <= 56`.
fn low_mask(n: u32) -> u64 {
    (1u64 << n) - 1
}

/// An append-only LSB-first bit stream.
#[derive(Debug, Default)]
pub struct BitWriter {
    out: Vec<u8>,
    /// Pending bits not yet moved to `out`, LSB first.
    acc: u64,
    /// Bits held in `acc` (at most 64).
    pending: u32,
}

impl BitWriter {
    /// An empty stream.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Moves the whole bytes of the accumulator to `out`, leaving fewer
    /// than 8 bits pending.
    fn flush_bytes(&mut self) {
        let whole = self.pending / 8;
        self.out
            .extend_from_slice(&self.acc.to_le_bytes()[..whole as usize]);
        self.acc = self.acc.checked_shr(8 * whole).unwrap_or(0);
        self.pending -= 8 * whole;
    }

    /// Appends the low `n <= 56` bits of `field`, which must be clear
    /// above them.
    fn push_field(&mut self, field: u64, n: u32) {
        debug_assert!(n <= WINDOW_BITS && field >> n == 0);
        if n == 0 {
            return;
        }
        if self.pending + n > 64 {
            self.flush_bytes();
        }
        self.acc |= field << self.pending;
        self.pending += n;
    }

    /// Appends a single bit.
    pub fn push_bit(&mut self, bit: bool) {
        self.push_field(u64::from(bit), 1);
    }

    /// Appends the `n` least significant bits of `value`, LSB first.
    ///
    /// # Panics
    ///
    /// Panics if `n > 64`.
    pub fn push_bits(&mut self, value: u64, n: u8) {
        assert!(n <= 64, "at most 64 bits per field");
        let n = u32::from(n);
        if n > WINDOW_BITS {
            self.push_field(value & low_mask(32), 32);
            self.push_field((value >> 32) & low_mask(n - 32), n - 32);
        } else {
            self.push_field(value & low_mask(n), n);
        }
    }

    /// Appends `count` one-bits followed by a terminating zero
    /// (classic unary).
    pub fn push_unary(&mut self, count: u32) {
        let mut left = count;
        while left >= WINDOW_BITS {
            self.push_field(low_mask(WINDOW_BITS), WINDOW_BITS);
            left -= WINDOW_BITS;
        }
        // The remaining ones, then the stop bit above them.
        self.push_field(low_mask(left), left + 1);
    }

    /// Rice-codes `value` with parameter `k` (at most 15, the width of
    /// a segment header's per-slot field). Values whose quotient
    /// reaches [`RICE_ESCAPE_Q`] are written as the escape marker
    /// followed by the raw [`RICE_ESCAPE_BITS`]-bit value.
    pub fn push_rice(&mut self, value: u32, k: u8) {
        debug_assert!(k <= 15, "Rice parameter {k} exceeds its 4-bit field");
        let k = u32::from(k);
        let q = value >> k;
        if q >= RICE_ESCAPE_Q {
            let raw = u64::from(value) & low_mask(u32::from(RICE_ESCAPE_BITS));
            self.push_field(
                low_mask(RICE_ESCAPE_Q) | raw << RICE_ESCAPE_Q,
                RICE_ESCAPE_Q + u32::from(RICE_ESCAPE_BITS),
            );
        } else {
            // `q` ones, the zero stop bit, then the `k`-bit remainder.
            let rem = u64::from(value) & low_mask(k);
            self.push_field(low_mask(q) | rem << (q + 1), q + 1 + k);
        }
    }

    /// Number of bits a Rice codeword for `value` at parameter `k`
    /// would occupy (used to pick `k` exactly).
    #[must_use]
    pub fn rice_cost(value: u32, k: u8) -> u32 {
        let q = value >> k;
        if q >= RICE_ESCAPE_Q {
            RICE_ESCAPE_Q + u32::from(RICE_ESCAPE_BITS)
        } else {
            q + 1 + u32::from(k)
        }
    }

    /// Zero-pads to the next byte boundary and returns the byte offset
    /// the next bit lands in.
    pub fn align(&mut self) -> usize {
        self.flush_bytes();
        if self.pending > 0 {
            self.out.push(self.acc as u8);
            self.acc = 0;
            self.pending = 0;
        }
        self.out.len()
    }

    /// Finishes the stream, zero-padding the final partial byte.
    #[must_use]
    pub fn finish(mut self) -> Vec<u8> {
        self.align();
        self.out
    }

    /// Bits written so far.
    #[must_use]
    pub fn bit_len(&self) -> usize {
        self.out.len() * 8 + self.pending as usize
    }
}

/// Reader over a [`BitWriter`] stream. Running off the end is an
/// error (torn payloads must not decode silently).
#[derive(Debug)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    /// Next byte of `bytes` to load into `buf`.
    next: usize,
    /// The stream from the bit cursor on, LSB first: `avail` loaded
    /// bits, then either more stream bits or zeros past the end.
    buf: u64,
    /// Bits of `buf` counted as loaded.
    avail: u32,
}

/// The payload bit stream ended before the decoder was done — the
/// segment is corrupt (CRC should have caught it first).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BitStreamExhausted;

impl<'a> BitReader<'a> {
    /// A reader over `bytes`, starting at bit 0 of byte 0.
    #[must_use]
    pub fn new(bytes: &'a [u8]) -> Self {
        Self {
            bytes,
            next: 0,
            buf: 0,
            avail: 0,
        }
    }

    /// Loads whole bytes into the buffer until it holds at least
    /// [`WINDOW_BITS`] bits or the stream ends. Called with fewer than
    /// `WINDOW_BITS` loaded; a word load's bits above the counted ones
    /// are the stream's own, so the next load ORs the same bits there.
    fn refill(&mut self) {
        if let Some(eight) = self.bytes.get(self.next..self.next + 8) {
            let word = u64::from_le_bytes(eight.try_into().expect("eight bytes"));
            self.buf |= word << self.avail;
            let whole = (63 - self.avail) / 8;
            self.next += whole as usize;
            self.avail += 8 * whole;
        } else {
            while self.avail <= WINDOW_BITS {
                let Some(&byte) = self.bytes.get(self.next) else {
                    break;
                };
                self.buf |= u64::from(byte) << self.avail;
                self.next += 1;
                self.avail += 8;
            }
        }
    }

    /// At least `n <= 56` bits of the stream from the cursor on, with
    /// bits past the end read as 0; or, when the stream holds fewer,
    /// every bit it has left.
    fn window(&mut self, n: u32) -> u64 {
        if self.avail < n {
            self.refill();
        }
        self.buf
    }

    /// Moves the cursor past `n` bits of a [`BitReader::window`] of at
    /// least `n`, or fails (without moving) if the stream holds fewer.
    fn consume(&mut self, n: u32) -> Result<(), BitStreamExhausted> {
        if n > self.avail {
            return Err(BitStreamExhausted);
        }
        self.buf >>= n;
        self.avail -= n;
        Ok(())
    }

    /// Reads one bit.
    ///
    /// # Errors
    ///
    /// [`BitStreamExhausted`] at end of input.
    pub fn read_bit(&mut self) -> Result<bool, BitStreamExhausted> {
        let bit = self.window(1) & 1 == 1;
        self.consume(1)?;
        Ok(bit)
    }

    /// Bytes consumed so far, a partly read final byte included.
    #[must_use]
    pub fn bytes_read(&self) -> usize {
        (8 * self.next - self.avail as usize).div_ceil(8)
    }

    /// Reads `n` bits written by [`BitWriter::push_bits`]: one window
    /// for `n <= 56`, two above.
    ///
    /// # Errors
    ///
    /// [`BitStreamExhausted`] at end of input.
    pub fn read_bits(&mut self, n: u8) -> Result<u64, BitStreamExhausted> {
        let n = u32::from(n);
        if n > WINDOW_BITS {
            let lo = self.read_bits(32)?;
            return Ok(lo | self.read_bits((n - 32) as u8)? << 32);
        }
        let value = self.window(n) & low_mask(n);
        self.consume(n)?;
        Ok(value)
    }

    /// Reads a Rice codeword written with parameter `k` (at most 15):
    /// the unary quotient is the window's trailing ones, capped at
    /// [`RICE_ESCAPE_Q`].
    ///
    /// # Errors
    ///
    /// [`BitStreamExhausted`] at end of input.
    pub fn read_rice(&mut self, k: u8) -> Result<u32, BitStreamExhausted> {
        debug_assert!(k <= 15, "Rice parameter {k} exceeds its 4-bit field");
        let k = u32::from(k);
        // The longest codeword: 15 ones, the stop bit and 15 remainder
        // bits (an escape is 16 + 11).
        let window = self.window(RICE_ESCAPE_Q + 16);
        let q = window.trailing_ones().min(RICE_ESCAPE_Q);
        if q == RICE_ESCAPE_Q {
            let escape_bits = u32::from(RICE_ESCAPE_BITS);
            let value = (window >> RICE_ESCAPE_Q) & low_mask(escape_bits);
            self.consume(RICE_ESCAPE_Q + escape_bits)?;
            return Ok(value as u32);
        }
        let rem = (window >> (q + 1)) & low_mask(k);
        self.consume(q + 1 + k)?;
        Ok((q << k) | rem as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zigzag_round_trips() {
        for v in [-5i64, -1, 0, 1, 2, 1023, -1023, i64::MIN / 2, i64::MAX / 2] {
            assert_eq!(unzigzag64(zigzag64(v)), v, "{v}");
        }
        assert_eq!(zigzag64(0), 0);
        assert_eq!(zigzag64(-1), 1);
        assert_eq!(zigzag64(1), 2);
    }

    #[test]
    fn bits_round_trip() {
        let mut w = BitWriter::new();
        w.push_bit(true);
        w.push_bits(0b1011_0010, 8);
        w.push_bits(0x3FF, 10);
        w.push_unary(5);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert!(r.read_bit().unwrap());
        assert_eq!(r.read_bits(8).unwrap(), 0b1011_0010);
        assert_eq!(r.read_bits(10).unwrap(), 0x3FF);
        for _ in 0..5 {
            assert!(r.read_bit().unwrap());
        }
        assert!(!r.read_bit().unwrap());
    }

    #[test]
    fn rice_round_trips_all_ten_bit_deltas() {
        for k in 0..=10u8 {
            let mut w = BitWriter::new();
            for v in 0..=2046u32 {
                w.push_rice(v, k);
            }
            let bytes = w.finish();
            let mut r = BitReader::new(&bytes);
            for v in 0..=2046u32 {
                assert_eq!(r.read_rice(k).unwrap(), v, "k={k} v={v}");
            }
        }
    }

    #[test]
    fn rice_cost_matches_written_bits() {
        for k in [0u8, 2, 5, 10] {
            for v in [0u32, 1, 7, 100, 2046] {
                let mut w = BitWriter::new();
                w.push_rice(v, k);
                assert_eq!(w.bit_len() as u32, BitWriter::rice_cost(v, k));
            }
        }
    }

    #[test]
    fn exhausted_stream_is_an_error() {
        let bytes = [0xFFu8];
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(8).unwrap(), 0xFF);
        assert_eq!(r.read_bit(), Err(BitStreamExhausted));
    }
}
