//! Binary encoding primitives shared by the WAL and snapshot formats.
//!
//! Little-endian fixed-width integers, LEB128 varints for counts, and a
//! slicing-by-8 CRC-32 (IEEE 802.3 polynomial) for frame integrity.
//! Encoders append to a `Vec<u8>` (the writers of [`Put`]); decoders read a
//! `&[u8]` that each getter advances, and truncated input is a
//! [`CodecError::UnexpectedEof`], never a panic.

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

/// The little-endian writers the WAL and snapshot encoders call on their
/// byte buffers.
pub trait Put {
    /// Appends one byte.
    fn put_u8(&mut self, v: u8);
    /// Appends a little-endian `u16`.
    fn put_u16_le(&mut self, v: u16);
    /// Appends a little-endian `u32`.
    fn put_u32_le(&mut self, v: u32);
    /// Appends a little-endian `u64`.
    fn put_u64_le(&mut self, v: u64);
    /// Appends a little-endian `i64`.
    fn put_i64_le(&mut self, v: i64);
}

impl Put for Vec<u8> {
    fn put_u8(&mut self, v: u8) {
        self.push(v);
    }

    fn put_u16_le(&mut self, v: u16) {
        self.extend_from_slice(&v.to_le_bytes());
    }

    fn put_u32_le(&mut self, v: u32) {
        self.extend_from_slice(&v.to_le_bytes());
    }

    fn put_u64_le(&mut self, v: u64) {
        self.extend_from_slice(&v.to_le_bytes());
    }

    fn put_i64_le(&mut self, v: i64) {
        self.extend_from_slice(&v.to_le_bytes());
    }
}

/// Writes an unsigned LEB128 varint.
pub fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Reads an unsigned LEB128 varint.
pub fn get_varint(buf: &mut &[u8]) -> Result<u64, CodecError> {
    let mut v: u64 = 0;
    let mut shift = 0;
    loop {
        let byte = get_u8(buf)?;
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
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_varint(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

/// Reads a length-prefixed UTF-8 string.
pub fn get_str(buf: &mut &[u8]) -> Result<String, CodecError> {
    let len = get_varint(buf)? as usize;
    if buf.len() < len {
        return Err(CodecError::UnexpectedEof);
    }
    let (bytes, rest) = buf.split_at(len);
    *buf = rest;
    String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::BadUtf8)
}

/// Takes the next `N` bytes off the front of `buf`, or fails with
/// [`CodecError::UnexpectedEof`] and consumes nothing.
fn take<const N: usize>(buf: &mut &[u8]) -> Result<[u8; N], CodecError> {
    let (head, rest) = buf
        .split_first_chunk::<N>()
        .ok_or(CodecError::UnexpectedEof)?;
    *buf = rest;
    Ok(*head)
}

/// Reads a fixed `u32` (little endian) with an EOF check.
pub fn get_u32(buf: &mut &[u8]) -> Result<u32, CodecError> {
    take(buf).map(u32::from_le_bytes)
}

/// Reads a fixed `u64` (little endian) with an EOF check.
pub fn get_u64(buf: &mut &[u8]) -> Result<u64, CodecError> {
    take(buf).map(u64::from_le_bytes)
}

/// Reads a fixed `i64` (little endian) with an EOF check.
pub fn get_i64(buf: &mut &[u8]) -> Result<i64, CodecError> {
    take(buf).map(i64::from_le_bytes)
}

/// Reads a single byte with an EOF check.
pub fn get_u8(buf: &mut &[u8]) -> Result<u8, CodecError> {
    take(buf).map(u8::from_le_bytes)
}

/// Reads a fixed `u16` (little endian) with an EOF check.
pub fn get_u16(buf: &mut &[u8]) -> Result<u16, CodecError> {
    take(buf).map(u16::from_le_bytes)
}

/// CRC-32 (IEEE) over a byte slice, eight bytes per step (slicing-by-8):
/// the same polynomial and the same values as the one-byte-per-step table
/// walk, so every stored checksum still verifies.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc: u32 = 0xFFFF_FFFF;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    crc ^ 0xFFFF_FFFF
}

/// `CRC_TABLES[0]` is the classic byte table of the reflected IEEE
/// polynomial; `CRC_TABLES[k][b]` is the CRC of byte `b` followed by `k`
/// zero bytes, so one step folds eight input bytes with eight lookups.
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

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
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut slice = &buf[..];
            assert_eq!(get_varint(&mut slice).unwrap(), v);
            assert!(slice.is_empty());
        }
    }

    #[test]
    fn roundtrip_all_widths() {
        let mut buf = Vec::new();
        buf.put_u8(7);
        buf.put_u16_le(300);
        buf.put_u32_le(70_000);
        buf.put_u64_le(1 << 40);
        buf.put_i64_le(-12345);
        buf.extend_from_slice(b"xyz");
        let mut r: &[u8] = &buf;
        assert_eq!(get_u8(&mut r), Ok(7));
        assert_eq!(get_u16(&mut r), Ok(300));
        assert_eq!(get_u32(&mut r), Ok(70_000));
        assert_eq!(get_u64(&mut r), Ok(1 << 40));
        assert_eq!(get_i64(&mut r), Ok(-12345));
        assert_eq!(r, b"xyz");
        // A short read fails typed and consumes nothing.
        assert_eq!(get_u32(&mut r), Err(CodecError::UnexpectedEof));
        assert_eq!(r, b"xyz");
    }

    #[test]
    fn varint_eof_detected() {
        let mut buf = Vec::new();
        put_varint(&mut buf, u64::MAX);
        let truncated = &buf[..buf.len() - 1];
        let mut slice = truncated;
        assert_eq!(get_varint(&mut slice), Err(CodecError::UnexpectedEof));
    }

    #[test]
    fn string_roundtrip() {
        let mut buf = Vec::new();
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
        let mut buf = Vec::new();
        put_varint(&mut buf, 100); // claims 100 bytes, provides none
        let mut slice = &buf[..];
        assert_eq!(get_str(&mut slice), Err(CodecError::UnexpectedEof));
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard test vector: CRC-32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    /// The one-byte-per-step CRC the slicing-by-8 walk must agree with,
    /// computed bit by bit so it shares no table with the code under test.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut crc: u32 = 0xFFFF_FFFF;
        for &b in data {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    0xEDB8_8320 ^ (crc >> 1)
                } else {
                    crc >> 1
                };
            }
        }
        crc ^ 0xFFFF_FFFF
    }

    #[test]
    fn crc32_slicing_matches_bytewise_at_every_length_and_offset() {
        let data: Vec<u8> = (0..320u32)
            .map(|i| (i.wrapping_mul(131) ^ (i >> 3)) as u8)
            .collect();
        for start in 0..8 {
            for len in 0..=300 {
                let slice = &data[start..start + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bytewise(slice),
                    "start {start}, len {len}"
                );
            }
        }
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn crc32_detects_corruption() {
        let a = crc32(b"system monitoring data");
        let b = crc32(b"system monitoring dat4");
        assert_ne!(a, b);
    }
}
