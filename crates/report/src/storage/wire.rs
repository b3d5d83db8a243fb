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
//! different checksum and so a different format.
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

/// CRC-32 (IEEE) over the concatenation of `parts`: eight bytes a step
/// within a part, one byte a step over what is left of it, the state
/// carried from part to part.
pub(crate) fn crc32(parts: &[&[u8]]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xffff_ffffu32;
    for part in parts {
        let mut words = part.chunks_exact(8);
        for w in &mut words {
            let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ crc;
            let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
            crc = t[7][(lo & 0xff) as usize]
                ^ t[6][(lo >> 8 & 0xff) as usize]
                ^ t[5][(lo >> 16 & 0xff) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xff) as usize]
                ^ t[2][(hi >> 8 & 0xff) as usize]
                ^ t[1][(hi >> 16 & 0xff) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        for &b in words.remainder() {
            crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xff) as usize];
        }
    }
    !crc
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

/// Reads a list written as `put_len` + `put_str` each, every element
/// through `elem`.
fn get_list<'a, T>(
    cur: &mut Cursor<'a>,
    what: &'static str,
    elem: impl Fn(&mut Cursor<'a>, &'static str) -> Result<T, WireError>,
) -> Result<Vec<T>, WireError> {
    let n = cur.list_len(4, what)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(elem(cur, what)?);
    }
    Ok(out)
}

/// Reads a list of strings written by [`put_string_list`].
pub(crate) fn get_string_list(
    cur: &mut Cursor<'_>,
    what: &'static str,
) -> Result<Vec<String>, WireError> {
    get_list(cur, what, Cursor::str_)
}

/// Reads a list of strings written by [`put_string_list`], each
/// borrowed from the input.
pub(crate) fn get_str_list<'a>(
    cur: &mut Cursor<'a>,
    what: &'static str,
) -> Result<Vec<&'a str>, WireError> {
    get_list(cur, what, Cursor::str_ref)
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
        let mut crc = 0xffff_ffffu32;
        for &b in parts.iter().copied().flatten() {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = (crc >> 1) ^ (0xedb8_8320 & (crc & 1).wrapping_neg());
            }
        }
        !crc
    }

    #[test]
    fn slicing_crc32_equals_the_bytewise_reference() {
        // xorshift64 bytes.
        let mut x = 0x5eed_0013_u64;
        let buf: Vec<u8> = (0..96)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u8
            })
            .collect();
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
