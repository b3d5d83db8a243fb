//! Content hashing.
//!
//! Mirage needs stable, deterministic content hashes for fingerprint items.
//! Cryptographic strength is not required for the evaluation (collisions
//! only make clusters *coarser*), so a 64-bit FNV-1a is used. The type is
//! wrapped in [`HashValue`] so call sites never confuse a content hash with
//! other integers.

use std::fmt;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A 64-bit content hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HashValue(pub u64);

impl HashValue {
    /// Hashes a byte slice with FNV-1a.
    pub fn of(bytes: &[u8]) -> Self {
        HashValue(fnv1a(bytes))
    }

    /// Hashes the UTF-8 bytes of a string with FNV-1a.
    pub fn of_str(s: &str) -> Self {
        Self::of(s.as_bytes())
    }

    /// Returns the short (8 hex digit) rendering used inside item labels.
    pub fn short(&self) -> String {
        format!("{:08x}", self.0 >> 32)
    }
}

impl fmt::Display for HashValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Computes the 64-bit FNV-1a hash of `bytes`.
///
/// # Examples
///
/// ```
/// use mirage_fingerprint::fnv1a;
/// assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
/// assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
/// ```
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Reference vectors for 64-bit FNV-1a.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn display_and_short() {
        let h = HashValue(0x0123_4567_89ab_cdef);
        assert_eq!(h.to_string(), "0123456789abcdef");
        assert_eq!(h.short(), "01234567");
    }

    #[test]
    fn of_str_equals_of_bytes() {
        assert_eq!(HashValue::of_str("my.cnf"), HashValue::of(b"my.cnf"));
    }
}
