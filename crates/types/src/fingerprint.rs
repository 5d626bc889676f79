//! The shared FNV-1a fingerprint hasher behind every memoization and
//! dedup key in the workspace.
//!
//! Two subsystems key their stores by content fingerprints: the trace
//! arena (workload profile → reference stream) and the results warehouse
//! (scenario identity → stored row). Before this module each hand-rolled
//! the same FNV-1a loop; [`Fnv64`] centralises the constants and the
//! mixing discipline so a key is always built the same way — and so the
//! warehouse's persisted keys stay stable across builds (FNV-1a is
//! platform-independent and has no per-process randomisation, unlike
//! `DefaultHasher`).

/// An incremental 64-bit FNV-1a hasher.
///
/// Feed it bytes, integers, floats (hashed by bit pattern), or strings in a
/// fixed order; [`Fnv64::finish`] yields the digest. The same input sequence
/// always produces the same digest, on every platform and in every process.
///
/// # Example
///
/// ```
/// use rnuca_types::fingerprint::Fnv64;
///
/// let mut h = Fnv64::new();
/// h.write_str("OLTP DB2").write_u64(16).write_f64(0.5);
/// let a = h.finish();
///
/// let mut h = Fnv64::new();
/// h.write_str("OLTP DB2").write_u64(16).write_f64(0.5);
/// assert_eq!(a, h.finish());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv64 {
    state: u64,
}

/// The FNV-1a 64-bit offset basis.
const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// The FNV-1a 64-bit prime.
const PRIME: u64 = 0x0000_0100_0000_01b3;

impl Fnv64 {
    /// A hasher at the FNV-1a offset basis.
    pub fn new() -> Self {
        Fnv64 { state: OFFSET }
    }

    /// Mixes raw bytes into the digest.
    pub fn write(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.state = (self.state ^ u64::from(b)).wrapping_mul(PRIME);
        }
        self
    }

    /// Mixes a string's UTF-8 bytes, then a terminator byte that cannot
    /// occur in UTF-8, so adjacent strings cannot alias (`"ab" + "c"` and
    /// `"a" + "bc"` produce different digests).
    pub fn write_str(&mut self, s: &str) -> &mut Self {
        self.write(s.as_bytes());
        self.write(&[0xFF])
    }

    /// Mixes a `u64` as its eight little-endian bytes.
    pub fn write_u64(&mut self, v: u64) -> &mut Self {
        self.write(&v.to_le_bytes())
    }

    /// Mixes an `i64` as its eight little-endian bytes.
    pub fn write_i64(&mut self, v: i64) -> &mut Self {
        self.write(&v.to_le_bytes())
    }

    /// Mixes an `f64` by bit pattern (NaN payloads and signed zeros
    /// distinguish, exactly like the journal codec's `f64` encoding).
    pub fn write_f64(&mut self, v: f64) -> &mut Self {
        self.write_u64(v.to_bits())
    }

    /// Mixes a bool as one byte.
    pub fn write_bool(&mut self, v: bool) -> &mut Self {
        self.write(&[u8::from(v)])
    }

    /// The digest of everything written so far.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

/// One-shot FNV-1a over a byte slice.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn incremental_equals_one_shot() {
        let mut h = Fnv64::new();
        h.write(b"foo").write(b"bar");
        assert_eq!(h.finish(), fnv1a(b"foobar"));
    }

    #[test]
    fn string_terminator_prevents_aliasing() {
        let mut a = Fnv64::new();
        a.write_str("ab").write_str("c");
        let mut b = Fnv64::new();
        b.write_str("a").write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn typed_writers_are_order_sensitive() {
        let mut a = Fnv64::new();
        a.write_u64(1).write_u64(2);
        let mut b = Fnv64::new();
        b.write_u64(2).write_u64(1);
        assert_ne!(a.finish(), b.finish());

        let mut neg = Fnv64::new();
        neg.write_i64(-1);
        let mut max = Fnv64::new();
        max.write_u64(u64::MAX);
        // -1i64 and u64::MAX share a bit pattern by design.
        assert_eq!(neg.finish(), max.finish());

        let mut f = Fnv64::new();
        f.write_f64(-0.0);
        let mut g = Fnv64::new();
        g.write_f64(0.0);
        assert_ne!(f.finish(), g.finish(), "signed zeros distinguish");
    }
}
