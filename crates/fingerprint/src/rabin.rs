//! Rabin fingerprinting and content-defined chunking.
//!
//! Resources with no parser are fingerprinted as a sequence of hashes of
//! content-delineated chunks (paper §3.2.3, following the LBFS approach the
//! paper cites \[23\]). A Rabin fingerprint — the residue of the sliding
//! window's polynomial over GF(2) modulo a fixed irreducible polynomial —
//! is maintained over a 48-byte window; a chunk boundary is declared
//! whenever the low bits of the fingerprint match a fixed pattern, which
//! yields content-defined boundaries with a configurable expected chunk
//! size (4 KB by default, as in the paper).
//!
//! Content-defined chunking is *local*: editing a byte only disturbs the
//! chunks overlapping the edit window, so two machines whose config files
//! differ in one line share all other chunk hashes. The property tests in
//! this module verify locality, determinism, and the size bounds.

use crate::hash::HashValue;

/// The irreducible polynomial used for fingerprinting (degree 63).
///
/// This is the polynomial used by the LBFS implementation the paper builds
/// on. Irreducibility matters only for fingerprint quality, not soundness.
const POLY: u64 = 0xbfe6_b8a5_bf37_8d83;

/// Degree of [`POLY`].
const POLY_DEGREE: u32 = 63;

/// Parameters of the content-defined chunker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkerParams {
    /// Sliding window width in bytes.
    pub window: usize,
    /// Minimum chunk size in bytes (boundaries are suppressed before this).
    pub min_size: usize,
    /// Average (expected) chunk size in bytes; must be a power of two.
    pub avg_size: usize,
    /// Maximum chunk size in bytes (a boundary is forced at this size).
    pub max_size: usize,
}

impl ChunkerParams {
    /// The paper's configuration: 48-byte window, 4 KB average chunks.
    pub fn paper_default() -> Self {
        ChunkerParams {
            window: 48,
            min_size: 1024,
            avg_size: 4096,
            max_size: 16384,
        }
    }

    /// A small configuration useful in tests (average 64-byte chunks).
    pub fn tiny() -> Self {
        ChunkerParams {
            window: 16,
            min_size: 16,
            avg_size: 64,
            max_size: 256,
        }
    }

    /// Validates the parameter combination.
    ///
    /// Returns an error string when sizes are inconsistent or the average
    /// is not a power of two.
    pub fn validate(&self) -> Result<(), String> {
        if self.window == 0 {
            return Err("window must be non-zero".into());
        }
        if !self.avg_size.is_power_of_two() {
            return Err(format!("avg_size {} is not a power of two", self.avg_size));
        }
        if self.min_size == 0 || self.min_size > self.max_size {
            return Err(format!(
                "invalid min/max sizes: {}/{}",
                self.min_size, self.max_size
            ));
        }
        if self.avg_size < self.min_size || self.avg_size > self.max_size {
            return Err(format!(
                "avg_size {} outside [min, max] = [{}, {}]",
                self.avg_size, self.min_size, self.max_size
            ));
        }
        Ok(())
    }

    fn boundary_mask(&self) -> u64 {
        (self.avg_size as u64) - 1
    }
}

/// Computes `(a * x^n) mod POLY` over GF(2), bit by bit.
///
/// `a` must be a residue (degree < 63); the invariant is maintained
/// throughout the shift loop.
fn shift_mod(mut a: u64, n: u32) -> u64 {
    for _ in 0..n {
        a <<= 1;
        if a & (1u64 << POLY_DEGREE) != 0 {
            a ^= POLY;
        }
    }
    a
}

/// Precomputed byte-folding tables for one window width.
///
/// Table construction costs ~100 µs; sharing the tables (behind an
/// [`Arc`](std::sync::Arc)) across the many small resources a machine
/// fingerprints keeps per-file chunking cheap.
#[derive(Debug, Clone)]
pub(crate) struct RabinTables {
    /// `(b * x^63) mod POLY` for the top byte folded on each shift-by-8.
    shift: [u64; 256],
    /// `(b * x^(8*(window-1))) mod POLY` for the byte leaving the window.
    out: [u64; 256],
    window: usize,
}

impl RabinTables {
    /// Builds the tables for a window of `window` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "window must be non-zero");
        let mut shift = [0u64; 256];
        let mut out = [0u64; 256];
        for b in 0..256usize {
            // A residue `fp` shifted left 8 overflows by its top 8 bits
            // (bits 55..=62); their contribution is `t * x^63` ... but we
            // fold the whole top byte at once: `t * x^55 * x^8 = t * x^63`.
            shift[b] = shift_mod(b as u64, 63);
            out[b] = shift_mod(b as u64, (8 * (window - 1)) as u32);
        }
        RabinTables { shift, out, window }
    }
}

/// A rolling Rabin hash over a fixed-width byte window.
///
/// # Examples
///
/// ```
/// use mirage_fingerprint::RabinHasher;
/// let mut h = RabinHasher::new(4);
/// for b in b"abcdefgh" {
///     h.push(*b);
/// }
/// // The fingerprint depends only on the last `window` bytes:
/// let mut h2 = RabinHasher::new(4);
/// for b in b"efgh" {
///     h2.push(*b);
/// }
/// assert_eq!(h.fingerprint(), h2.fingerprint());
/// ```
#[derive(Debug, Clone)]
pub struct RabinHasher {
    tables: std::sync::Arc<RabinTables>,
    ring: Vec<u8>,
    pos: usize,
    filled: usize,
    fp: u64,
}

impl RabinHasher {
    /// Creates a hasher over windows of `window` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: usize) -> Self {
        Self::with_tables(std::sync::Arc::new(RabinTables::new(window)))
    }

    /// Creates a hasher sharing precomputed tables.
    pub(crate) fn with_tables(tables: std::sync::Arc<RabinTables>) -> Self {
        let window = tables.window;
        RabinHasher {
            tables,
            ring: vec![0; window],
            pos: 0,
            filled: 0,
            fp: 0,
        }
    }

    /// Pushes one byte through the window and returns the new fingerprint.
    pub fn push(&mut self, byte: u8) -> u64 {
        if self.filled == self.tables.window {
            let old = self.ring[self.pos];
            self.fp ^= self.tables.out[old as usize];
        } else {
            self.filled += 1;
        }
        self.ring[self.pos] = byte;
        self.pos = (self.pos + 1) % self.tables.window;
        // fp = (fp * x^8 + byte) mod POLY.
        let top = (self.fp >> 55) as usize;
        self.fp =
            (((self.fp & ((1u64 << 55) - 1)) << 8) | u64::from(byte)) ^ self.tables.shift[top];
        self.fp
    }

    /// Returns the current fingerprint.
    pub fn fingerprint(&self) -> u64 {
        self.fp
    }

    /// Clears the window and fingerprint.
    pub fn reset(&mut self) {
        self.ring.iter_mut().for_each(|b| *b = 0);
        self.pos = 0;
        self.filled = 0;
        self.fp = 0;
    }
}

/// One content-defined chunk of a byte stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Chunk {
    /// Byte offset of the chunk start.
    pub offset: usize,
    /// Chunk length in bytes.
    pub len: usize,
    /// FNV-1a hash of the chunk contents.
    pub hash: HashValue,
}

/// Content-defined chunker producing [`Chunk`]s from a byte slice.
#[derive(Debug, Clone)]
pub struct Chunker {
    params: ChunkerParams,
    tables: std::sync::Arc<RabinTables>,
}

impl Chunker {
    /// Creates a chunker with the given parameters.
    ///
    /// # Panics
    ///
    /// Panics if the parameters are invalid; use
    /// [`ChunkerParams::validate`] to check beforehand.
    pub fn new(params: ChunkerParams) -> Self {
        params
            .validate()
            .unwrap_or_else(|e| panic!("invalid chunker params: {e}"));
        let tables = std::sync::Arc::new(RabinTables::new(params.window));
        Chunker { params, tables }
    }

    /// Creates a chunker with the paper's default parameters.
    pub fn paper_default() -> Self {
        Self::new(ChunkerParams::paper_default())
    }

    /// Splits `data` into content-defined chunks.
    ///
    /// Every byte belongs to exactly one chunk; chunks respect the
    /// min/max size bounds except that the final chunk may be shorter
    /// than the minimum. Empty input yields no chunks.
    pub fn chunk(&self, data: &[u8]) -> Vec<Chunk> {
        let mut chunks = Vec::new();
        if data.is_empty() {
            return chunks;
        }
        let mask = self.params.boundary_mask();
        let mut hasher = RabinHasher::with_tables(std::sync::Arc::clone(&self.tables));
        let mut start = 0usize;
        for (i, &b) in data.iter().enumerate() {
            let fp = hasher.push(b);
            let len = i - start + 1;
            let at_boundary = len >= self.params.min_size && (fp & mask) == mask;
            if at_boundary || len >= self.params.max_size {
                chunks.push(Chunk {
                    offset: start,
                    len,
                    hash: HashValue::of(&data[start..=i]),
                });
                start = i + 1;
                hasher.reset();
            }
        }
        if start < data.len() {
            chunks.push(Chunk {
                offset: start,
                len: data.len() - start,
                hash: HashValue::of(&data[start..]),
            });
        }
        chunks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo_random(len: usize, seed: u64) -> Vec<u8> {
        // Simple xorshift generator; avoids pulling `rand` into unit tests.
        let mut state = seed | 1;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn rolling_hash_depends_only_on_window() {
        let mut a = RabinHasher::new(8);
        let mut b = RabinHasher::new(8);
        for byte in pseudo_random(100, 1) {
            a.push(byte);
        }
        let tail: Vec<u8> = pseudo_random(100, 1)[92..].to_vec();
        for byte in tail {
            b.push(byte);
        }
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn rolling_hash_differs_for_different_windows() {
        let mut a = RabinHasher::new(8);
        let mut b = RabinHasher::new(8);
        for byte in b"abcdefgh" {
            a.push(*byte);
        }
        for byte in b"abcdefgx" {
            b.push(*byte);
        }
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut a = RabinHasher::new(4);
        a.push(1);
        a.push(2);
        a.reset();
        assert_eq!(a.fingerprint(), 0);
        let x = a.push(7);
        let mut fresh = RabinHasher::new(4);
        assert_eq!(fresh.push(7), x);
    }

    #[test]
    fn chunks_cover_input_exactly() {
        let data = pseudo_random(100_000, 42);
        let chunker = Chunker::new(ChunkerParams::tiny());
        let chunks = chunker.chunk(&data);
        assert!(!chunks.is_empty());
        let mut expected_offset = 0;
        for c in &chunks {
            assert_eq!(c.offset, expected_offset);
            expected_offset += c.len;
        }
        assert_eq!(expected_offset, data.len());
    }

    #[test]
    fn chunk_sizes_respect_bounds() {
        let data = pseudo_random(200_000, 7);
        let params = ChunkerParams::tiny();
        let chunks = Chunker::new(params).chunk(&data);
        for (i, c) in chunks.iter().enumerate() {
            assert!(c.len <= params.max_size, "chunk too big: {}", c.len);
            if i + 1 != chunks.len() {
                assert!(c.len >= params.min_size, "chunk too small: {}", c.len);
            }
        }
    }

    #[test]
    fn average_chunk_size_is_plausible() {
        let data = pseudo_random(1_000_000, 3);
        let params = ChunkerParams::paper_default();
        let chunks = Chunker::new(params).chunk(&data);
        let avg = data.len() / chunks.len();
        // Expected ~4096 with truncation effects; accept a generous band.
        assert!(
            (1500..=12000).contains(&avg),
            "average chunk size {avg} wildly off"
        );
    }

    #[test]
    fn single_byte_edit_is_local() {
        let data = pseudo_random(300_000, 11);
        let mut edited = data.clone();
        edited[150_000] ^= 0xff;
        let chunker = Chunker::new(ChunkerParams::tiny());
        let a = chunker.chunk(&data);
        let b = chunker.chunk(&edited);
        let set_a: std::collections::BTreeSet<_> = a.iter().map(|c| c.hash).collect();
        let set_b: std::collections::BTreeSet<_> = b.iter().map(|c| c.hash).collect();
        let differing = set_a.symmetric_difference(&set_b).count();
        // The edit may split/merge a few chunks around it but must not
        // perturb distant chunks.
        assert!(differing <= 8, "edit perturbed {differing} chunks");
        assert!(differing >= 1, "edit went unnoticed");
    }

    #[test]
    fn empty_input_has_no_chunks() {
        assert!(Chunker::paper_default().chunk(&[]).is_empty());
    }

    #[test]
    fn small_file_is_single_chunk() {
        let data = b"[mysqld]\nkey = value\n";
        let chunks = Chunker::paper_default().chunk(data);
        assert_eq!(chunks.len(), 1);
        assert_eq!(chunks[0].hash, HashValue::of(data));
    }

    #[test]
    fn params_validation() {
        assert!(ChunkerParams::paper_default().validate().is_ok());
        assert!(ChunkerParams {
            avg_size: 100, // not a power of two
            ..ChunkerParams::paper_default()
        }
        .validate()
        .is_err());
        assert!(ChunkerParams {
            min_size: 0,
            ..ChunkerParams::paper_default()
        }
        .validate()
        .is_err());
        assert!(ChunkerParams {
            window: 0,
            ..ChunkerParams::paper_default()
        }
        .validate()
        .is_err());
        assert!(ChunkerParams {
            min_size: 8192,
            avg_size: 4096,
            ..ChunkerParams::paper_default()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn chunking_is_deterministic() {
        let data = pseudo_random(50_000, 5);
        let chunker = Chunker::paper_default();
        assert_eq!(chunker.chunk(&data), chunker.chunk(&data));
    }
}
