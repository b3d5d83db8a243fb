//! The hand-rolled binary codec shared by journaled batch frames and
//! the vendor serving protocol.
//!
//! The workspace is dependency-free, so this is the storage layer's
//! equivalent of the JSON module in `mirage_telemetry`: fixed-width
//! little-endian integers, `u32`-length-prefixed UTF-8 strings, and a
//! bounds-checked [`Cursor`] that turns every malformed input —
//! truncation, invalid UTF-8, absurd element counts, corrupt checksums
//! — into a typed [`WireError`] instead of a panic or an unbounded
//! allocation. The one CRC-32 (IEEE) lives here too; the frame layer
//! checksums every record with it, so it is slicing-by-8 — eight bytes a
//! step from eight compile-time tables — in portable safe code: the
//! hardware `crc32` instruction computes the Castagnoli polynomial, a
//! different checksum and so a different format. [`crc32_combine`]
//! joins two checksums without the bytes, so a span checksummed once
//! (a frozen failure group's encoding) is never read for it again. It
//! also lets one long span be read four times as fast: one register
//! waits on its own previous step, so a part of a few KiB or more is
//! cut into four runs whose registers advance side by side, and the
//! four checksums are combined — the same checksum, at memory speed
//! rather than at the latency of one dependency chain.
//!
//! Readers borrow where the caller only looks: [`Cursor::str_ref`]
//! returns the validated slice of the input, [`Cursor::str_`] is that
//! plus the copy.

use std::fmt;

/// Upper bound on any single length-prefixed element count or byte
/// length. Hostile input can claim a 4 GiB string in 4 bytes; this cap
/// (together with the remaining-bytes check in [`Cursor::list_len`])
/// keeps decode allocation proportional to the actual input size.
pub(crate) const MAX_LEN: usize = 1 << 30;

/// A decoding error from the storage/serving byte codec.
///
/// Every variant is a *clean rejection*: decoding hostile bytes returns
/// one of these, never panics, and never allocates more than the input
/// itself justifies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The input ended before the announced structure did.
    Truncated {
        /// What was being decoded when the bytes ran out.
        what: &'static str,
    },
    /// A length-prefixed string was not valid UTF-8.
    InvalidUtf8,
    /// An enum tag byte had no defined meaning.
    BadTag {
        /// The enum being decoded.
        what: &'static str,
        /// The unrecognised tag value.
        tag: u8,
    },
    /// A declared length exceeded the codec cap or the remaining input.
    Oversize {
        /// The structure whose length was absurd.
        what: &'static str,
    },
    /// A frame failed its integrity checks (magic or checksum).
    BadFrame {
        /// Which check failed.
        what: &'static str,
    },
    /// Structurally valid bytes describing an impossible value (e.g. an
    /// interned id out of table range).
    Corrupt {
        /// The violated invariant.
        what: &'static str,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { what } => write!(f, "truncated input while decoding {what}"),
            WireError::InvalidUtf8 => write!(f, "length-prefixed string is not valid UTF-8"),
            WireError::BadTag { what, tag } => write!(f, "unknown tag {tag} for {what}"),
            WireError::Oversize { what } => write!(f, "declared length for {what} is absurd"),
            WireError::BadFrame { what } => write!(f, "frame integrity check failed: {what}"),
            WireError::Corrupt { what } => write!(f, "corrupt value: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

// ---------------------------------------------------------------------
// CRC-32 (IEEE 802.3), slicing-by-8, tables built at compile time.
// ---------------------------------------------------------------------

/// `CRC_TABLES[0]` is the classic byte-at-a-time table; `CRC_TABLES[k][b]`
/// is the checksum state after byte `b` and then `k` zero bytes, which
/// is what lets eight input bytes be folded in with eight independent
/// lookups instead of eight dependent ones.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xedb8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 8] = crc32_tables();

/// Parts at least this long are checksummed in [`LANES`] interleaved
/// runs: below it, joining the lanes costs more than it saves.
const LANE_MIN: usize = 4 << 10;

/// Independent checksum registers a long part advances side by side.
/// One register is bound by the latency of its own dependency chain;
/// four keep the table lookups of four words in flight at once.
const LANES: usize = 4;

/// CRC-32 (IEEE) over the concatenation of `parts`.
pub(crate) fn crc32(parts: &[&[u8]]) -> u32 {
    crc32_extend(0, parts)
}

/// The CRC-32 of some bytes whose CRC-32 is `crc`, followed by `parts`:
/// eight bytes a step, one byte a step over what is left of a part, the
/// state carried from part to part. A part of [`LANE_MIN`] bytes or more
/// is cut into [`LANES`] equal runs of whole words, checksummed in one
/// loop and joined with [`crc32_combine`]; its last few bytes follow as
/// in a short part.
pub(crate) fn crc32_extend(crc: u32, parts: &[&[u8]]) -> u32 {
    let mut state = !crc;
    for &part in parts {
        let mut rest = part;
        if part.len() >= LANE_MIN {
            let run = part.len() / (8 * LANES) * 8;
            let (lanes, tail) = part.split_at(run * LANES);
            state = !crc32_lanes(!state, lanes, run);
            rest = tail;
        }
        state = slice_by_8(state, rest);
    }
    !state
}

/// The register after `bytes`, from register `state`: eight bytes a
/// step, then one.
fn slice_by_8(mut state: u32, bytes: &[u8]) -> u32 {
    let (words, tail) = bytes.as_chunks::<8>();
    for w in words {
        state = word_step(state, w);
    }
    for &b in tail {
        state = (state >> 8) ^ CRC_TABLES[0][((state ^ u32::from(b)) & 0xff) as usize];
    }
    state
}

/// Folds one eight-byte word into register `state` with eight
/// independent table lookups.
#[inline(always)]
fn word_step(state: u32, w: &[u8; 8]) -> u32 {
    let t = &CRC_TABLES;
    let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ state;
    let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
    t[7][(lo & 0xff) as usize]
        ^ t[6][(lo >> 8 & 0xff) as usize]
        ^ t[5][(lo >> 16 & 0xff) as usize]
        ^ t[4][(lo >> 24) as usize]
        ^ t[3][(hi & 0xff) as usize]
        ^ t[2][(hi >> 8 & 0xff) as usize]
        ^ t[1][(hi >> 16 & 0xff) as usize]
        ^ t[0][(hi >> 24) as usize]
}

/// The CRC-32 of bytes whose CRC-32 is `crc` followed by `bytes`, which
/// is [`LANES`] runs of `run` bytes each (a multiple of 8). The first
/// run continues `crc`'s register, every other starts from scratch, all
/// four advance in one loop, and each run's checksum is then appended
/// to the ones before it — moved past `run` bytes, the same shift every
/// time.
fn crc32_lanes<'a>(crc: u32, bytes: &'a [u8], run: usize) -> u32 {
    let [a, b, c, d]: [&[u8]; LANES] = std::array::from_fn(|k| &bytes[k * run..(k + 1) * run]);
    let mut s = [!crc, !0, !0, !0];
    let words = |lane: &'a [u8]| lane.as_chunks::<8>().0;
    for (((wa, wb), wc), wd) in (words(a).iter()).zip(words(b)).zip(words(c)).zip(words(d)) {
        s[0] = word_step(s[0], wa);
        s[1] = word_step(s[1], wb);
        s[2] = word_step(s[2], wc);
        s[3] = word_step(s[3], wd);
    }
    let shift = x8n_mod_p(run);
    (s[1..].iter()).fold(!s[0], |whole, &lane| mul_mod_p(shift, whole) ^ !lane)
}

/// The reflected IEEE polynomial: bit 31 is the coefficient of x^0.
const POLY: u32 = 0xedb8_8320;

/// `a · b` modulo the polynomial, in the checksum's reflected bit order.
const fn mul_mod_p(a: u32, mut b: u32) -> u32 {
    let mut product = 0;
    let mut bit = 1u32 << 31;
    while bit != 0 {
        if a & bit != 0 {
            product ^= b;
        }
        b = if b & 1 != 0 { (b >> 1) ^ POLY } else { b >> 1 };
        bit >>= 1;
    }
    product
}

/// `X2N[k]` is x^(2^k) modulo the polynomial. The powers cycle with
/// period 32 (x^(2^32) is x again), so 32 entries cover any length.
const fn x2n_table() -> [u32; 32] {
    let mut table = [0u32; 32];
    let mut p = 1u32 << 30; // x^1
    let mut k = 0;
    while k < 32 {
        table[k] = p;
        p = mul_mod_p(p, p);
        k += 1;
    }
    table
}

static X2N: [u32; 32] = x2n_table();

/// x^(8n) modulo the polynomial: the operator that shifts a checksum
/// state past `n` zero bytes, one table entry per set bit of `n`.
fn x8n_mod_p(mut n: usize) -> u32 {
    let mut p = 1u32 << 31; // x^0
    let mut k = 3;
    while n != 0 {
        if n & 1 != 0 {
            p = mul_mod_p(X2N[k & 31], p);
        }
        n >>= 1;
        k += 1;
    }
    p
}

/// The CRC-32 of `a ++ b` from `crc_a`, `crc_b` and `len_b` alone —
/// zlib's `crc32_combine`, in O(log `len_b`) and without reading a byte:
/// `a`'s checksum is moved past `len_b` bytes, and the two are added.
pub(crate) fn crc32_combine(crc_a: u32, crc_b: u32, len_b: usize) -> u32 {
    mul_mod_p(x8n_mod_p(len_b), crc_a) ^ crc_b
}

// ---------------------------------------------------------------------
// Writers
// ---------------------------------------------------------------------

/// Appends a `u8`.
pub(crate) fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

/// Appends a little-endian `u32`.
pub(crate) fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub(crate) fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u32`-length-prefixed UTF-8 string.
pub(crate) fn put_str(buf: &mut Vec<u8>, s: &str) {
    let len = u32::try_from(s.len()).expect("string exceeds u32 length prefix");
    put_u32(buf, len);
    buf.extend_from_slice(s.as_bytes());
}

/// Appends a `u32` element count (the writer side of
/// [`Cursor::list_len`]).
pub(crate) fn put_len(buf: &mut Vec<u8>, n: usize) {
    put_u32(
        buf,
        u32::try_from(n).expect("list exceeds u32 length prefix"),
    );
}

// ---------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------

/// A bounds-checked reader over a byte slice.
#[derive(Debug)]
pub(crate) struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Wraps `buf` with the read position at the start.
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Takes `n` raw bytes.
    pub(crate) fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated { what });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads a `u8`.
    pub(crate) fn u8(&mut self, what: &'static str) -> Result<u8, WireError> {
        Ok(self.take(1, what)?[0])
    }

    /// Reads a little-endian `u32`.
    pub(crate) fn u32(&mut self, what: &'static str) -> Result<u32, WireError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub(crate) fn u64(&mut self, what: &'static str) -> Result<u64, WireError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a `u64` and narrows it to `usize`.
    pub(crate) fn u64_as_usize(&mut self, what: &'static str) -> Result<usize, WireError> {
        usize::try_from(self.u64(what)?).map_err(|_| WireError::Oversize { what })
    }

    /// Reads a `u32`-length-prefixed UTF-8 string, borrowed from the
    /// input.
    pub(crate) fn str_ref(&mut self, what: &'static str) -> Result<&'a str, WireError> {
        let len = self.u32(what)? as usize;
        if len > MAX_LEN || len > self.remaining() {
            return Err(WireError::Oversize { what });
        }
        let bytes = self.take(len, what)?;
        std::str::from_utf8(bytes).map_err(|_| WireError::InvalidUtf8)
    }

    /// Reads a `u32`-length-prefixed UTF-8 string.
    pub(crate) fn str_(&mut self, what: &'static str) -> Result<String, WireError> {
        self.str_ref(what).map(str::to_string)
    }

    /// Reads a `u32` element count for a list whose elements are at
    /// least `min_elem` bytes each, rejecting counts the remaining
    /// input cannot possibly hold. This bounds every decode-side
    /// allocation by the input size.
    pub(crate) fn list_len(
        &mut self,
        min_elem: usize,
        what: &'static str,
    ) -> Result<usize, WireError> {
        let n = self.u32(what)? as usize;
        if n > MAX_LEN || n.saturating_mul(min_elem.max(1)) > self.remaining() {
            return Err(WireError::Oversize { what });
        }
        Ok(n)
    }

    /// Asserts every byte was consumed (a valid document has no slack).
    pub(crate) fn finish(self, what: &'static str) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::Corrupt { what })
        }
    }
}

/// Reads a list of strings written by [`put_string_list`].
pub(crate) fn get_string_list(
    cur: &mut Cursor<'_>,
    what: &'static str,
) -> Result<Vec<String>, WireError> {
    let n = cur.list_len(4, what)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(cur.str_(what)?);
    }
    Ok(out)
}

/// Writes a list of strings as `put_len` + `put_str` each.
pub(crate) fn put_string_list<S: AsRef<str>>(
    buf: &mut Vec<u8>,
    items: impl IntoIterator<Item = S, IntoIter: ExactSizeIterator>,
) {
    let items = items.into_iter();
    put_len(buf, items.len());
    for s in items {
        put_str(buf, s.as_ref());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(&[b""]), 0);
        assert_eq!(crc32(&[b"123456789"]), 0xcbf4_3926);
        assert_eq!(crc32(&[b"1234", b"", b"56789"]), 0xcbf4_3926);
        assert_eq!(
            crc32(&[b"The quick brown fox jumps over the lazy dog"]),
            0x414f_a339
        );
    }

    /// The definition, a byte at a time and a bit at a time with no
    /// table: the reference the slicing tables are checked against.
    fn crc32_bytewise(parts: &[&[u8]]) -> u32 {
        !parts
            .iter()
            .fold(!0, |state, part| bytewise_step(state, part))
    }

    /// The bit-at-a-time register after `bytes`, from `state`.
    fn bytewise_step(mut state: u32, bytes: &[u8]) -> u32 {
        for &b in bytes {
            state ^= u32::from(b);
            for _ in 0..8 {
                state = (state >> 1) ^ (0xedb8_8320 & (state & 1).wrapping_neg());
            }
        }
        state
    }

    /// xorshift64 bytes.
    fn noise(len: usize, seed: u64) -> Vec<u8> {
        let mut x = seed;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u8
            })
            .collect()
    }

    #[test]
    fn crc32_combine_equals_the_bytewise_reference() {
        // Every split of every input of 0..=80 bytes at every start
        // offset: the empty halves at either end included.
        let buf = noise(96, 0x5eed_0026);
        for start in 0..8 {
            for len in 0..=80 {
                let input = &buf[start..start + len];
                let whole = crc32_bytewise(&[input]);
                for cut in 0..=len {
                    let (a, b) = input.split_at(cut);
                    let combined =
                        crc32_combine(crc32_bytewise(&[a]), crc32_bytewise(&[b]), b.len());
                    assert_eq!(combined, whole, "start {start} len {len} cut {cut}");
                }
            }
        }
        // Second parts up to 4 MiB, each power of two and its
        // neighbours, behind a 13-byte first part: one walk keeps the
        // registers of `a ++ b` and of `b` alone.
        let a = noise(13, 0x5eed_0027);
        let b = noise((1 << 22) + 1, 0x5eed_0028);
        let crc_a = crc32_bytewise(&[&a]);
        let (mut whole, mut alone) = (bytewise_step(!0, &a), !0u32);
        let mut done = 0;
        for k in 0..=22 {
            for len in [(1usize << k) - 1, 1 << k, (1 << k) + 1] {
                if len < done {
                    continue;
                }
                whole = bytewise_step(whole, &b[done..len]);
                alone = bytewise_step(alone, &b[done..len]);
                done = len;
                assert_eq!(crc32_combine(crc_a, !alone, len), !whole, "len {len}");
            }
        }
        // Lengths no buffer here can reach, every bit of a `u64`
        // included: moving a checksum past 2^j bytes twice is moving it
        // past 2^(j+1) once, which pins each of the 32 table entries
        // to the square of the one before it, the wrap from the last to
        // the first included, and the real bytes above anchor the chain.
        let (crc_a, crc_b, crc_c) = (0x1234_5678, 0x9abc_def0, 0x0f1e_2d3c);
        for j in 0..usize::BITS - 4 {
            let n = 1usize << j;
            assert_eq!(
                crc32_combine(crc32_combine(crc_a, crc_b, n), crc_c, n),
                crc32_combine(crc_a, crc32_combine(crc_b, crc_c, n), 2 * n),
                "2^{j}"
            );
        }
    }

    #[test]
    fn slicing_crc32_equals_the_bytewise_reference() {
        let buf = noise(96, 0x5eed_0013);
        // Every length around the 8-byte step, at every alignment.
        for start in 0..8 {
            for len in 0..=80 {
                let part = &buf[start..start + len];
                assert_eq!(
                    crc32(&[part]),
                    crc32_bytewise(&[part]),
                    "start {start} len {len}"
                );
            }
        }
        // The state carries across parts wherever they are cut, empty
        // parts included.
        let input = &buf[..40];
        let whole = crc32_bytewise(&[input]);
        for i in 0..=40 {
            assert_eq!(crc32(&[&input[..i], &input[i..]]), whole, "split {i}");
            for j in i..=40 {
                assert_eq!(
                    crc32(&[&input[..i], &input[i..j], &input[j..]]),
                    whole,
                    "split {i}, {j}"
                );
            }
        }
        // Each of the 2 048 table entries, not only the ones the seeded
        // buffer happens to index: one word of eight bytes `b` reads
        // entry `b` of tables 0..4 and entry `!b` of tables 4..8 (the
        // state is all ones), and nothing after it can hide a wrong one.
        for b in 0..=255u8 {
            assert_eq!(crc32(&[&[b; 8]]), crc32_bytewise(&[&[b; 8]]), "byte {b}");
        }

        // Around the lane threshold: every length from 40 below it to
        // 72 above, at every alignment, so the runs and the tail behind
        // them take each length modulo a whole lane step — and a part
        // many lanes long. One bytewise register walks each start.
        let buf = noise(LANE_MIN * 5 + 64, 0x5eed_0039);
        for start in 0..8 {
            let (lo, hi) = (LANE_MIN - 40, LANE_MIN + 72);
            let mut reg = bytewise_step(!0, &buf[start..start + lo]);
            for len in lo..=hi {
                let part = &buf[start..start + len];
                assert_eq!(crc32(&[part]), !reg, "start {start} len {len}");
                reg = bytewise_step(reg, &buf[start + len..start + len + 1]);
            }
        }
        for len in [4 * LANE_MIN - 1, 4 * LANE_MIN, 5 * LANE_MIN + 61] {
            let part = &buf[..len];
            assert_eq!(crc32(&[part]), crc32_bytewise(&[part]), "len {len}");
        }
        // Parts that straddle the threshold, on either side of a cut,
        // and a long part behind short ones: the state carries into the
        // first lane and out of the joined lanes.
        let input = &buf[..3 * LANE_MIN + 13];
        let whole = crc32_bytewise(&[input]);
        for cut in [
            1,
            7,
            LANE_MIN - 1,
            LANE_MIN,
            LANE_MIN + 1,
            2 * LANE_MIN - 9,
            2 * LANE_MIN + 13,
            input.len() - LANE_MIN,
            input.len() - 1,
        ] {
            let (a, b) = input.split_at(cut);
            assert_eq!(crc32(&[a, b]), whole, "cut {cut}");
            assert_eq!(crc32(&[&a[..1], &a[1..], &[], b]), whole, "cut {cut}, 1");
        }
        // `crc32_extend` from a state that is not the empty one's.
        for head in [1, 8, 13, LANE_MIN + 5] {
            let (a, b) = input.split_at(head);
            assert_eq!(crc32_extend(crc32(&[a]), &[b]), whole, "head {head}");
            assert_eq!(
                crc32_extend(crc32_bytewise(&[a]), &[&b[..LANE_MIN], &b[LANE_MIN..]]),
                whole,
                "head {head}, two parts"
            );
        }
    }

    #[test]
    fn ints_and_strings_roundtrip() {
        let mut buf = Vec::new();
        put_u8(&mut buf, 7);
        put_u32(&mut buf, 0xdead_beef);
        put_u64(&mut buf, u64::MAX - 1);
        put_str(&mut buf, "日本語-🦀");
        put_string_list(&mut buf, &["a".to_string(), String::new()]);
        let mut cur = Cursor::new(&buf);
        assert_eq!(cur.u8("t").unwrap(), 7);
        assert_eq!(cur.u32("t").unwrap(), 0xdead_beef);
        assert_eq!(cur.u64("t").unwrap(), u64::MAX - 1);
        assert_eq!(cur.str_("t").unwrap(), "日本語-🦀");
        assert_eq!(get_string_list(&mut cur, "t").unwrap(), vec!["a", ""]);
        cur.finish("t").unwrap();
    }

    #[test]
    fn truncated_reads_are_rejected() {
        let mut buf = Vec::new();
        put_u64(&mut buf, 42);
        let mut cur = Cursor::new(&buf[..5]);
        assert!(matches!(
            cur.u64("num"),
            Err(WireError::Truncated { what: "num" })
        ));
    }

    #[test]
    fn absurd_lengths_are_rejected_without_allocating() {
        // A 4-byte input claiming a 4 GiB string.
        let mut buf = Vec::new();
        put_u32(&mut buf, u32::MAX);
        assert!(matches!(
            Cursor::new(&buf).str_("s"),
            Err(WireError::Oversize { .. })
        ));
        // A list count far beyond what the input could hold.
        let mut buf = Vec::new();
        put_u32(&mut buf, 1_000_000);
        assert!(matches!(
            Cursor::new(&buf).list_len(4, "list"),
            Err(WireError::Oversize { .. })
        ));
    }

    #[test]
    fn invalid_utf8_is_rejected() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 2);
        buf.extend_from_slice(&[0xff, 0xfe]);
        assert_eq!(Cursor::new(&buf).str_("s"), Err(WireError::InvalidUtf8));
    }

    #[test]
    fn trailing_bytes_fail_finish() {
        let cur = Cursor::new(&[0u8]);
        assert!(matches!(
            cur.finish("doc"),
            Err(WireError::Corrupt { what: "doc" })
        ));
    }

    #[test]
    fn errors_display() {
        let variants: Vec<WireError> = vec![
            WireError::Truncated { what: "x" },
            WireError::InvalidUtf8,
            WireError::BadTag { what: "x", tag: 9 },
            WireError::Oversize { what: "x" },
            WireError::BadFrame { what: "x" },
            WireError::Corrupt { what: "x" },
        ];
        for v in variants {
            assert!(!v.to_string().is_empty());
        }
    }
}
