//! Binary encoding primitives shared by the WAL and snapshot formats.
//!
//! Little-endian fixed-width integers, LEB128 varints for counts, and a
//! table-driven CRC-32 (IEEE 802.3 polynomial) for frame integrity. Built on
//! the `bytes` crate so encoders can write into any `BufMut`.

use bytes::{Buf, BufMut};

/// Errors raised while decoding binary frames.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended before the value was complete.
    UnexpectedEof,
    /// A varint ran longer than the 10-byte maximum.
    VarintOverflow,
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// A CRC check failed (stored, computed).
    CrcMismatch(u32, u32),
    /// The magic number or version did not match.
    BadMagic,
    /// A well-formed field holds a value the format forbids (names the
    /// field): the body passed its CRC but was not written by `save`.
    Invalid(&'static str),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::UnexpectedEof => write!(f, "unexpected end of input"),
            CodecError::VarintOverflow => write!(f, "varint longer than 10 bytes"),
            CodecError::BadUtf8 => write!(f, "invalid UTF-8 in string field"),
            CodecError::CrcMismatch(want, got) => {
                write!(f, "crc mismatch: stored {want:#010x}, computed {got:#010x}")
            }
            CodecError::BadMagic => write!(f, "bad magic number or version"),
            CodecError::Invalid(what) => write!(f, "invalid value: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Writes an unsigned LEB128 varint.
pub fn put_varint(buf: &mut impl BufMut, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.put_u8(byte);
            return;
        }
        buf.put_u8(byte | 0x80);
    }
}

/// Reads an unsigned LEB128 varint.
pub fn get_varint(buf: &mut impl Buf) -> Result<u64, CodecError> {
    let mut v: u64 = 0;
    let mut shift = 0;
    loop {
        if !buf.has_remaining() {
            return Err(CodecError::UnexpectedEof);
        }
        let byte = buf.get_u8();
        if shift >= 64 {
            return Err(CodecError::VarintOverflow);
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Writes a length-prefixed UTF-8 string.
pub fn put_str(buf: &mut impl BufMut, s: &str) {
    put_varint(buf, s.len() as u64);
    buf.put_slice(s.as_bytes());
}

/// Reads a length-prefixed UTF-8 string.
pub fn get_str(buf: &mut impl Buf) -> Result<String, CodecError> {
    let len = get_varint(buf)? as usize;
    if buf.remaining() < len {
        return Err(CodecError::UnexpectedEof);
    }
    let mut bytes = vec![0u8; len];
    buf.copy_to_slice(&mut bytes);
    String::from_utf8(bytes).map_err(|_| CodecError::BadUtf8)
}

/// Reads a fixed `u32` (little endian) with an EOF check.
pub fn get_u32(buf: &mut impl Buf) -> Result<u32, CodecError> {
    if buf.remaining() < 4 {
        return Err(CodecError::UnexpectedEof);
    }
    Ok(buf.get_u32_le())
}

/// Reads a fixed `u64` (little endian) with an EOF check.
pub fn get_u64(buf: &mut impl Buf) -> Result<u64, CodecError> {
    if buf.remaining() < 8 {
        return Err(CodecError::UnexpectedEof);
    }
    Ok(buf.get_u64_le())
}

/// Reads a fixed `i64` (little endian) with an EOF check.
pub fn get_i64(buf: &mut impl Buf) -> Result<i64, CodecError> {
    if buf.remaining() < 8 {
        return Err(CodecError::UnexpectedEof);
    }
    Ok(buf.get_i64_le())
}

/// Reads a single byte with an EOF check.
pub fn get_u8(buf: &mut impl Buf) -> Result<u8, CodecError> {
    if !buf.has_remaining() {
        return Err(CodecError::UnexpectedEof);
    }
    Ok(buf.get_u8())
}

/// Reads a fixed `u16` (little endian) with an EOF check.
pub fn get_u16(buf: &mut impl Buf) -> Result<u16, CodecError> {
    if buf.remaining() < 2 {
        return Err(CodecError::UnexpectedEof);
    }
    Ok(buf.get_u16_le())
}

/// CRC-32 (IEEE) over a byte slice.
pub fn crc32(data: &[u8]) -> u32 {
    let table = crc_table();
    let mut crc: u32 = 0xFFFF_FFFF;
    for &b in data {
        let idx = ((crc ^ u32::from(b)) & 0xFF) as usize;
        crc = (crc >> 8) ^ table[idx];
    }
    crc ^ 0xFFFF_FFFF
}

fn crc_table() -> &'static [u32; 256] {
    use std::sync::OnceLock;
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, entry) in table.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *entry = c;
        }
        table
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;

    #[test]
    fn varint_roundtrip_boundaries() {
        for v in [
            0u64,
            1,
            127,
            128,
            300,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX,
        ] {
            let mut buf = BytesMut::new();
            put_varint(&mut buf, v);
            let mut slice = &buf[..];
            assert_eq!(get_varint(&mut slice).unwrap(), v);
            assert!(slice.is_empty());
        }
    }

    #[test]
    fn varint_eof_detected() {
        let mut buf = BytesMut::new();
        put_varint(&mut buf, u64::MAX);
        let truncated = &buf[..buf.len() - 1];
        let mut slice = truncated;
        assert_eq!(get_varint(&mut slice), Err(CodecError::UnexpectedEof));
    }

    #[test]
    fn string_roundtrip() {
        let mut buf = BytesMut::new();
        put_str(&mut buf, "C:\\Windows\\System32\\cmd.exe");
        put_str(&mut buf, "");
        let mut slice = &buf[..];
        assert_eq!(
            get_str(&mut slice).unwrap(),
            "C:\\Windows\\System32\\cmd.exe"
        );
        assert_eq!(get_str(&mut slice).unwrap(), "");
    }

    #[test]
    fn string_eof_detected() {
        let mut buf = BytesMut::new();
        put_varint(&mut buf, 100); // claims 100 bytes, provides none
        let mut slice = &buf[..];
        assert_eq!(get_str(&mut slice), Err(CodecError::UnexpectedEof));
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard test vector: CRC-32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_detects_corruption() {
        let a = crc32(b"system monitoring data");
        let b = crc32(b"system monitoring dat4");
        assert_ne!(a, b);
    }
}
