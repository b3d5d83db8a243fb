//! Length-prefixed, checksummed record framing.
//!
//! Every durable record — a journaled batch, in the WAL or in a
//! snapshot generation — and every serving-protocol request or response
//! travels inside one frame:
//!
//! ```text
//! [magic u32 LE] [kind u8] [payload_len u32 LE] [crc32 u32 LE] [payload…]
//! ```
//!
//! The CRC-32 covers the kind byte and the payload, so a bit flip
//! anywhere in a frame (including its kind) fails validation. A
//! corrupted `payload_len` either truncates (caught by the scanner) or
//! shifts the checksum window (caught by the CRC with probability
//! `1 - 2^-32`).
//!
//! [`put_frame`] is the one encoder: it writes the header, lets its
//! caller encode the payload in place behind it, and patches in the
//! length and checksum, so a frame's bytes are written once and read
//! at most once (by the checksum; a span handed over with its CRC-32
//! through [`Payload::put_checksummed`] is not read at all). Encoder and decoder agree on what a frame may
//! be: a payload over [`MAX_PAYLOAD`] is a panic to write and an
//! [`WireError::Oversize`] to read.
//!
//! [`FrameScanner`] reads a run of frames front to back and implements
//! the crash-tolerance contract: a clean end of input terminates the
//! scan, while a torn, truncated, or corrupt record yields exactly one
//! [`WireError`] and then stops — recovery keeps a WAL's valid prefix
//! and discards the tail, which is the only part a crash can damage
//! (a snapshot generation is all or nothing: any error rejects it).

use super::wire::{crc32, crc32_combine, crc32_extend, put_u32, put_u8, WireError};

/// Frame magic: `"MRF1"` little-endian — Mirage Report Frame v1.
pub(crate) const MAGIC: u32 = 0x3146_524d;

/// Frame header length in bytes (magic + kind + len + crc).
pub(crate) const HEADER_LEN: usize = 4 + 1 + 4 + 4;

/// Largest frame payload, written or accepted (bit-flipped lengths
/// must not drive allocation).
pub(crate) const MAX_PAYLOAD: usize = 1 << 30;

/// Frame kind: one journaled deposit batch. (Kinds 1 and 2 are
/// retired, not free, and must keep being rejected: stores written
/// before name deltas were runs in the name table's layout hold kind 1,
/// stores written before generations were runs of batch frames kind 2.)
pub(crate) const KIND_WAL_BATCH: u8 = 5;
/// Frame kind: a vendor serving-protocol request.
pub(crate) const KIND_REQUEST: u8 = 3;
/// Frame kind: a vendor serving-protocol response.
pub(crate) const KIND_RESPONSE: u8 = 4;

/// A frame's payload while [`put_frame`] writes it. It derefs to the
/// frame's buffer, so every `put_*` writer appends to it directly; what
/// it adds is [`Payload::put_checksummed`], which copies a span whose
/// CRC-32 is already known and combines that CRC into the frame's
/// instead of reading the span again. Writers only append: the bytes
/// behind the last checksummed span are already counted.
pub(crate) struct Payload<'a> {
    buf: &'a mut Vec<u8>,
    /// CRC-32 of the kind byte and `buf[payload start..checked]`.
    crc: u32,
    checked: usize,
}

impl Payload<'_> {
    /// Appends `parts`, whose concatenation has CRC-32 `crc`.
    pub(crate) fn put_checksummed(&mut self, parts: &[&[u8]], crc: u32) {
        self.seal();
        let mut len = 0;
        for part in parts {
            self.buf.extend_from_slice(part);
            len += part.len();
        }
        self.crc = crc32_combine(self.crc, crc, len);
        self.checked = self.buf.len();
    }

    /// Folds the bytes written since the last checksummed span into the
    /// frame's CRC-32 and returns it.
    fn seal(&mut self) -> u32 {
        self.crc = crc32_extend(self.crc, &[&self.buf[self.checked..]]);
        self.checked = self.buf.len();
        self.crc
    }
}

impl std::ops::Deref for Payload<'_> {
    type Target = Vec<u8>;

    fn deref(&self) -> &Vec<u8> {
        self.buf
    }
}

impl std::ops::DerefMut for Payload<'_> {
    fn deref_mut(&mut self) -> &mut Vec<u8> {
        self.buf
    }
}

/// Appends one frame of the given kind to `buf`; `fill` writes the
/// payload in place, so a frame costs no copy of its payload, and the
/// checksum reads only the bytes `fill` did not hand over pre-checksummed.
///
/// # Panics
///
/// Panics if `fill` writes more than [`MAX_PAYLOAD`] bytes: no reader
/// would take the frame back.
pub(crate) fn put_frame(buf: &mut Vec<u8>, kind: u8, fill: impl FnOnce(&mut Payload<'_>)) {
    put_u32(buf, MAGIC);
    put_u8(buf, kind);
    let len_at = buf.len();
    // Length and checksum are known once the payload is written.
    buf.extend_from_slice(&[0; 8]);
    let mut payload = Payload {
        checked: buf.len(),
        crc: crc32(&[&[kind]]),
        buf,
    };
    fill(&mut payload);
    let crc = payload.seal();
    let len = u32::try_from(buf.len() - (len_at + 8))
        .ok()
        .filter(|&len| len as usize <= MAX_PAYLOAD)
        .expect("frame payload exceeds MAX_PAYLOAD");
    buf[len_at..len_at + 4].copy_from_slice(&len.to_le_bytes());
    buf[len_at + 4..len_at + 8].copy_from_slice(&crc.to_le_bytes());
}

/// Encodes `payload` as one frame of the given kind.
pub(crate) fn encode_frame(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(HEADER_LEN + payload.len());
    put_frame(&mut buf, kind, |buf| buf.extend_from_slice(payload));
    buf
}

/// Decodes exactly one frame occupying the whole of `bytes`.
pub(crate) fn decode_frame(bytes: &[u8]) -> Result<(u8, &[u8]), WireError> {
    let mut scanner = FrameScanner::new(bytes);
    let (kind, payload) = match scanner.next_frame() {
        Some(Ok(hit)) => hit,
        Some(Err(e)) => return Err(e),
        None => return Err(WireError::Truncated { what: "frame" }),
    };
    if scanner.offset() != bytes.len() {
        return Err(WireError::Corrupt {
            what: "trailing bytes after frame",
        });
    }
    Ok((kind, payload))
}

/// An incremental reader over a byte stream of consecutive frames.
#[derive(Debug)]
pub(crate) struct FrameScanner<'a> {
    buf: &'a [u8],
    pos: usize,
    dead: bool,
}

impl<'a> FrameScanner<'a> {
    /// Starts a scan at the front of `buf`.
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        FrameScanner {
            buf,
            pos: 0,
            dead: false,
        }
    }

    /// Byte offset of the scan position (end of the last valid frame).
    pub(crate) fn offset(&self) -> usize {
        self.pos
    }

    /// Returns the next `(kind, payload)` frame; `None` at a clean end
    /// of input; `Some(Err(_))` exactly once on a torn or corrupt tail,
    /// after which the scanner stays exhausted.
    pub(crate) fn next_frame(&mut self) -> Option<Result<(u8, &'a [u8]), WireError>> {
        if self.dead || self.pos == self.buf.len() {
            return None;
        }
        match self.parse_at(self.pos) {
            Ok((kind, payload, next)) => {
                self.pos = next;
                Some(Ok((kind, payload)))
            }
            Err(e) => {
                self.dead = true;
                Some(Err(e))
            }
        }
    }

    fn parse_at(&self, at: usize) -> Result<(u8, &'a [u8], usize), WireError> {
        let rest = &self.buf[at..];
        if rest.len() < HEADER_LEN {
            return Err(WireError::Truncated {
                what: "frame header",
            });
        }
        let magic = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]);
        if magic != MAGIC {
            return Err(WireError::BadFrame {
                what: "frame magic",
            });
        }
        let kind = rest[4];
        let len = u32::from_le_bytes([rest[5], rest[6], rest[7], rest[8]]) as usize;
        if len > MAX_PAYLOAD {
            return Err(WireError::Oversize {
                what: "frame payload length",
            });
        }
        let stored_crc = u32::from_le_bytes([rest[9], rest[10], rest[11], rest[12]]);
        if rest.len() < HEADER_LEN + len {
            return Err(WireError::Truncated {
                what: "frame payload",
            });
        }
        let payload = &rest[HEADER_LEN..HEADER_LEN + len];
        if crc32(&[&[kind], payload]) != stored_crc {
            return Err(WireError::BadFrame {
                what: "frame checksum",
            });
        }
        Ok((kind, payload, at + HEADER_LEN + len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let frame = encode_frame(KIND_WAL_BATCH, b"hello");
        let (kind, payload) = decode_frame(&frame).unwrap();
        assert_eq!(kind, KIND_WAL_BATCH);
        assert_eq!(payload, b"hello");
    }

    #[test]
    fn checksummed_spans_frame_as_plain_bytes_do() {
        let parts: [&[u8]; 3] = [b"head", b"", b"a longer middle span"];
        let mut spliced = Vec::new();
        put_frame(&mut spliced, KIND_RESPONSE, |p| {
            put_u8(p, 7);
            p.put_checksummed(&parts, crc32(&parts));
            p.put_checksummed(&[], 0);
            p.extend_from_slice(b"tail");
        });
        let plain = encode_frame(KIND_RESPONSE, b"\x07heada longer middle spantail");
        assert_eq!(spliced, plain);
    }

    #[test]
    fn empty_payload_roundtrip() {
        let frame = encode_frame(KIND_REQUEST, b"");
        assert_eq!(decode_frame(&frame).unwrap(), (KIND_REQUEST, &b""[..]));
    }

    #[test]
    fn scanner_reads_consecutive_frames_then_ends_cleanly() {
        let mut stream = encode_frame(1, b"a");
        stream.extend_from_slice(&encode_frame(2, b"bb"));
        let mut scan = FrameScanner::new(&stream);
        assert_eq!(scan.next_frame().unwrap().unwrap(), (1, &b"a"[..]));
        assert_eq!(scan.next_frame().unwrap().unwrap(), (2, &b"bb"[..]));
        assert!(scan.next_frame().is_none());
        assert_eq!(scan.offset(), stream.len());
    }

    #[test]
    fn truncated_tail_keeps_valid_prefix() {
        let mut stream = encode_frame(1, b"keep me");
        let second = encode_frame(1, b"torn");
        stream.extend_from_slice(&second[..second.len() - 2]);
        let mut scan = FrameScanner::new(&stream);
        assert_eq!(scan.next_frame().unwrap().unwrap(), (1, &b"keep me"[..]));
        assert!(matches!(
            scan.next_frame().unwrap(),
            Err(WireError::Truncated { .. })
        ));
        assert!(scan.next_frame().is_none(), "scanner stays exhausted");
    }

    #[test]
    fn bit_flips_fail_the_checksum() {
        let clean = encode_frame(1, b"payload bytes");
        // Flip one bit in every position of the kind byte and payload;
        // each corruption must be detected.
        for i in [4usize, HEADER_LEN, HEADER_LEN + 5, clean.len() - 1] {
            let mut frame = clean.clone();
            frame[i] ^= 0x10;
            assert!(
                decode_frame(&frame).is_err(),
                "bit flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut frame = encode_frame(1, b"x");
        frame[0] ^= 0xff;
        assert!(matches!(
            decode_frame(&frame),
            Err(WireError::BadFrame {
                what: "frame magic"
            })
        ));
    }

    #[test]
    fn absurd_length_is_rejected_without_allocation() {
        let mut frame = encode_frame(1, b"x");
        frame[5..9].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_frame(&frame),
            Err(WireError::Oversize { .. })
        ));
    }

    #[test]
    fn trailing_garbage_after_single_frame_is_rejected() {
        let mut frame = encode_frame(1, b"x");
        frame.push(0);
        assert!(decode_frame(&frame).is_err());
    }

    #[test]
    fn zero_length_input_is_a_clean_end() {
        let mut scan = FrameScanner::new(b"");
        assert!(scan.next_frame().is_none());
    }
}
