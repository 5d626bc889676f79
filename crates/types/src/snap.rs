//! The flat byte codec behind the sweep journal's entries.
//!
//! A type implementing [`Snap`] has a versionless little-endian encoding
//! into a shared byte buffer, plus the exact inverse. The journal encodes
//! every completed job's `MeasuredRun` this way: a fixed-size payload whose
//! `f64` fields round-trip bit for bit, so a replayed result is the
//! identical value the job produced. The journal wraps each payload in its
//! own checksummed frame and file header, so the codec itself carries no
//! headers, tags, or self-description.

/// A reader over an encoded buffer.
///
/// Tracks a cursor into the byte slice; every decode consumes exactly the
/// bytes its encode produced. Running past the end panics — the journal
/// checks a payload's length and checksum before decoding it, so a short
/// buffer is a bug, not an input error.
#[derive(Debug)]
pub struct SnapReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// A reader positioned at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        SnapReader { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Consumes and returns the next `n` bytes.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> &'a [u8] {
        let end = self.pos + n;
        assert!(end <= self.bytes.len(), "snapshot buffer underrun");
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        out
    }

    /// Decodes one value of type `T` at the cursor.
    pub fn get<T: Snap>(&mut self) -> T {
        T::decode(self)
    }
}

/// Byte-exact encoding for one type.
///
/// `decode(encode(x)) == x` field-for-field; for container types the
/// internal layout (slot order, link order) round-trips too.
pub trait Snap: Sized {
    /// Appends this value's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Reads one value back from the cursor of `r`.
    fn decode(r: &mut SnapReader<'_>) -> Self;
}

macro_rules! impl_snap_int {
    ($($t:ty),*) => {$(
        impl Snap for $t {
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }

            fn decode(r: &mut SnapReader<'_>) -> Self {
                let bytes = r.take(std::mem::size_of::<$t>());
                <$t>::from_le_bytes(bytes.try_into().expect("sized take"))
            }
        }
    )*};
}

impl_snap_int!(u8, u16, u32, u64, i64);

impl Snap for usize {
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u64).encode(out);
    }

    fn decode(r: &mut SnapReader<'_>) -> Self {
        let v = u64::decode(r);
        usize::try_from(v).expect("snapshot usize fits the host word")
    }
}

impl Snap for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }

    fn decode(r: &mut SnapReader<'_>) -> Self {
        match u8::decode(r) {
            0 => false,
            1 => true,
            b => panic!("snapshot bool byte {b} is neither 0 nor 1"),
        }
    }
}

impl Snap for f64 {
    /// Encoded via [`f64::to_bits`]: restore is bit-identical, NaN payloads
    /// and signed zeros included.
    fn encode(&self, out: &mut Vec<u8>) {
        self.to_bits().encode(out);
    }

    fn decode(r: &mut SnapReader<'_>) -> Self {
        f64::from_bits(u64::decode(r))
    }
}

impl<T: Snap> Snap for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }

    fn decode(r: &mut SnapReader<'_>) -> Self {
        match u8::decode(r) {
            0 => None,
            1 => Some(T::decode(r)),
            b => panic!("snapshot Option tag {b} is neither 0 nor 1"),
        }
    }
}

impl<A: Snap, B: Snap> Snap for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }

    fn decode(r: &mut SnapReader<'_>) -> Self {
        let a = A::decode(r);
        let b = B::decode(r);
        (a, b)
    }
}

impl<T: Snap> Snap for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        for item in self {
            item.encode(out);
        }
    }

    fn decode(r: &mut SnapReader<'_>) -> Self {
        let len = usize::decode(r);
        let mut v = Vec::with_capacity(len);
        for _ in 0..len {
            v.push(T::decode(r));
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Snap + PartialEq + std::fmt::Debug>(value: T) {
        let mut buf = Vec::new();
        value.encode(&mut buf);
        let mut r = SnapReader::new(&buf);
        assert_eq!(T::decode(&mut r), value);
        assert_eq!(r.remaining(), 0, "decode must consume the whole encoding");
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(0u8);
        roundtrip(u8::MAX);
        roundtrip(0xBEEFu16);
        roundtrip(0xDEAD_BEEFu32);
        roundtrip(u64::MAX - 3);
        roundtrip(usize::MAX);
        roundtrip(true);
        roundtrip(false);
        roundtrip(1.25f64);
        roundtrip(-0.0f64);
    }

    #[test]
    fn f64_is_bit_exact() {
        let nan = f64::from_bits(0x7FF8_0000_0000_1234);
        let mut buf = Vec::new();
        nan.encode(&mut buf);
        let decoded = f64::decode(&mut SnapReader::new(&buf));
        assert_eq!(decoded.to_bits(), nan.to_bits());
    }

    #[test]
    fn containers_roundtrip() {
        roundtrip(Option::<u64>::None);
        roundtrip(Some(42u64));
        roundtrip(vec![1u64, 2, 3]);
        roundtrip(Vec::<u8>::new());
        roundtrip((7u32, Some(vec![false, true])));
    }

    #[test]
    #[should_panic(expected = "snapshot buffer underrun")]
    fn underrun_panics() {
        let mut r = SnapReader::new(&[1, 2]);
        let _ = u64::decode(&mut r);
    }
}
