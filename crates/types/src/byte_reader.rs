//! The checked little-endian reader behind every on-disk decoder.
//!
//! The results warehouse and the sweep journal both decode files that
//! outlive the process that wrote them: a torn write, a bit flip or a file
//! from another build can put any bytes in front of the decoder. Every
//! read through [`ByteReader`] therefore returns a [`DecodeError`] naming
//! what was being read and the absolute byte offset where the input ran
//! out, instead of panicking. Each caller converts that error into its own
//! `Corrupt` variant.
//!
//! # Example
//!
//! ```
//! use rnuca_types::byte_reader::ByteReader;
//!
//! let bytes = [7, 0, 0, 0, 1];
//! let mut r = ByteReader::new(&bytes);
//! assert_eq!(r.u32("count").unwrap(), 7);
//! let err = r.u64("key").unwrap_err();
//! assert_eq!(err.offset, 4);
//! assert!(err.message.contains("key"));
//! ```

/// Why a read ran past the end of its input (or a caller rejected what it
/// read): where, and what was wrong there.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// Byte offset of the damage, counted from the start of the input the
    /// reader was built over.
    pub offset: usize,
    /// What was wrong there.
    pub message: String,
}

/// A cursor over untrusted bytes that decodes little-endian integers and
/// bit-exact `f64`s, failing with a typed [`DecodeError`] on underrun.
#[derive(Debug)]
pub struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader positioned at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        ByteReader { bytes, pos: 0 }
    }

    /// A reader over `bytes` with its cursor already at `pos` (at most
    /// `bytes.len()`). Used to re-bound a reader to a prefix, such as a
    /// checksummed body, while keeping error offsets absolute.
    pub fn at(bytes: &'a [u8], pos: usize) -> Self {
        ByteReader { bytes, pos }
    }

    /// The cursor's byte offset.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Consumes and returns the next `n` bytes; `what` names the field in
    /// the error when fewer remain.
    pub fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError {
                offset: self.pos,
                message: format!(
                    "truncated while reading {what}: need {n} bytes, have {}",
                    self.remaining()
                ),
            });
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn array<const N: usize>(&mut self, what: &str) -> Result<[u8; N], DecodeError> {
        Ok(self.take(N, what)?.try_into().expect("sized take"))
    }

    /// Reads one byte.
    pub fn u8(&mut self, what: &str) -> Result<u8, DecodeError> {
        Ok(self.array::<1>(what)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self, what: &str) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.array(what)?))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self, what: &str) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.array(what)?))
    }

    /// Reads a little-endian `i64`.
    pub fn i64(&mut self, what: &str) -> Result<i64, DecodeError> {
        Ok(i64::from_le_bytes(self.array(what)?))
    }

    /// Reads an `f64` stored as its little-endian bit pattern: NaN
    /// payloads and signed zeros come back bit for bit.
    pub fn f64(&mut self, what: &str) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.u64(what)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip() {
        let mut bytes = Vec::new();
        bytes.push(0xA5u8);
        bytes.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
        bytes.extend_from_slice(&(u64::MAX - 3).to_le_bytes());
        bytes.extend_from_slice(&i64::MIN.to_le_bytes());
        bytes.extend_from_slice(&(-0.0f64).to_bits().to_le_bytes());
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u8("byte").unwrap(), 0xA5);
        assert_eq!(r.u32("word").unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64("wide").unwrap(), u64::MAX - 3);
        assert_eq!(r.i64("signed").unwrap(), i64::MIN);
        assert_eq!(r.f64("zero").unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.remaining(), 0, "every byte must be consumed");
        assert_eq!(r.pos(), bytes.len());
    }

    #[test]
    fn f64_is_bit_exact() {
        let nan = f64::from_bits(0x7FF8_0000_0000_1234);
        let bytes = nan.to_bits().to_le_bytes();
        assert_eq!(
            ByteReader::new(&bytes).f64("nan").unwrap().to_bits(),
            nan.to_bits()
        );
    }

    #[test]
    fn underrun_is_a_typed_error_naming_the_field_and_offset() {
        let mut r = ByteReader::new(&[1, 0, 0, 0, 2, 3]);
        assert_eq!(r.u32("count").unwrap(), 1);
        let err = r.u64("row key").unwrap_err();
        assert_eq!(err.offset, 4);
        assert_eq!(
            err.message,
            "truncated while reading row key: need 8 bytes, have 2"
        );
        assert_eq!(r.pos(), 4, "a failed read consumes nothing");
        assert_eq!(r.take(2, "tail").unwrap(), &[2, 3]);
    }

    #[test]
    fn a_rebound_reader_reports_absolute_offsets() {
        let bytes = [0u8; 12];
        let mut r = ByteReader::at(&bytes[..10], 6);
        assert_eq!(r.remaining(), 4);
        assert_eq!(r.u64("cell").unwrap_err().offset, 6);
    }
}
