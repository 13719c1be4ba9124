//! FNV-1a, 64-bit: the repo-wide content hash.
//!
//! Cone fingerprints, journal keys and checksums, verdict-store keys and
//! fault-plan seeds all hash through this one module, so a value hashed
//! in one crate can be recomputed in another. Most of these hashes are
//! persisted (cone goldens, journals, verdict stores), so the constants
//! and the byte order below must never change.

const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a hasher.
#[derive(Clone, Copy, Debug)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv1a {
    /// A hasher at the FNV-1a offset basis.
    pub const fn new() -> Self {
        Fnv1a(OFFSET_BASIS)
    }

    /// Folds in one byte.
    pub fn byte(&mut self, b: u8) {
        self.word(b as u64);
    }

    /// Folds in a byte string.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.byte(b);
        }
    }

    /// Folds in `v` as its eight little-endian bytes.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Folds in a whole 64-bit word as one FNV round (xor, then one
    /// multiply) rather than byte by byte.
    pub fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(PRIME);
    }

    /// The hash so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// FNV-1a over a byte string.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.bytes(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn published_test_vectors() {
        // From the FNV reference test suite (64-bit FNV-1a).
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
