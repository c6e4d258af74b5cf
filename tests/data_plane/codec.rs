//! A real Hadoop data-plane codec, kept as the test oracle for the byte
//! formulas the simulator charges. It is not part of the library: the
//! simulator never serializes a record, it charges
//! `ifile::record_len`, `ifile::SEGMENT_OVERHEAD` and
//! `DataType::wire_len`.
//!
//! The codec covers Hadoop's vint encoding (`WritableUtils.writeVLong` /
//! `readVLong`), `BytesWritable` and `Text` serialization, IFile streams
//! (`[vint keyLen][vint valueLen][key][value]` records, an EOF marker of
//! two `-1` vints, and the CRC-32 `IFileOutputStream` appends), and the
//! suite's synthetic key/value generator.

use hadoop_mr_microbench::mapreduce::ifile;
use hadoop_mr_microbench::mapreduce::io::DataType;
use hadoop_mr_microbench::mapreduce::job::JobSpec;

/// Append the Hadoop vlong encoding of `i` to `out`.
pub fn write_vlong(out: &mut Vec<u8>, i: i64) {
    if (-112..=127).contains(&i) {
        out.push(i as u8);
        return;
    }
    let mut len: i32 = -112;
    let mut value = i;
    if value < 0 {
        value ^= -1; // take one's complement
        len = -120;
    }
    let mut tmp = value;
    while tmp != 0 {
        tmp >>= 8;
        len -= 1;
    }
    out.push(len as u8);
    let len = if len < -120 {
        -(len + 120)
    } else {
        -(len + 112)
    };
    for idx in (1..=len).rev() {
        let shift = (idx - 1) * 8;
        out.push(((value >> shift) & 0xFF) as u8);
    }
}

/// Append the vint encoding of `i` (same wire format as vlong).
pub fn write_vint(out: &mut Vec<u8>, i: i32) {
    write_vlong(out, i64::from(i));
}

/// Decode a vlong from `buf` at `*pos`, advancing `*pos`; `None` when the
/// stream ends inside it.
pub fn read_vlong(buf: &[u8], pos: &mut usize) -> Option<i64> {
    let first = *buf.get(*pos)? as i8;
    *pos += 1;
    let len = decoded_len(first);
    if len == 1 {
        return Some(i64::from(first));
    }
    let mut value: i64 = 0;
    for _ in 0..len - 1 {
        let b = *buf.get(*pos)?;
        *pos += 1;
        value = (value << 8) | i64::from(b);
    }
    // Negatives are stored one's-complemented under tags below -120.
    Some(if i32::from(first) < -120 {
        value ^ -1
    } else {
        value
    })
}

/// Decode a vint (Hadoop trusts the writer beyond truncation).
pub fn read_vint(buf: &[u8], pos: &mut usize) -> Option<i32> {
    read_vlong(buf, pos).map(|v| v as i32)
}

/// Total encoded length (tag byte included) implied by the first byte, as
/// `WritableUtils.decodeVIntSize`.
pub fn decoded_len(first: i8) -> usize {
    let v = i32::from(first);
    if v >= -112 {
        1
    } else if v < -120 {
        (-120 - v) as usize + 1
    } else {
        (-112 - v) as usize + 1
    }
}

/// Serialize one datum as `data_type`: `BytesWritable` writes a 4-byte
/// big-endian length, `Text` a vint length over UTF-8 bytes.
pub fn write_datum(out: &mut Vec<u8>, data_type: DataType, payload: &[u8]) {
    match data_type {
        DataType::BytesWritable => out.extend_from_slice(&(payload.len() as u32).to_be_bytes()),
        DataType::Text => {
            std::str::from_utf8(payload).expect("Text payloads are UTF-8");
            write_vint(out, payload.len() as i32);
        }
    }
    out.extend_from_slice(payload);
}

/// CRC-32 (IEEE 802.3, the polynomial `java.util.zip.CRC32` uses).
pub fn crc32(data: &[u8]) -> u32 {
    // Nibble-driven table: tiny, fast enough for test-sized payloads.
    const TABLE: [u32; 16] = [
        0x00000000, 0x1DB71064, 0x3B6E20C8, 0x26D930AC, 0x76DC4190, 0x6B6B51F4, 0x4DB26158,
        0x5005713C, 0xEDB88320, 0xF00F9344, 0xD6D6A3E8, 0xCB61B38C, 0x9B64C2B0, 0x86D3D2D4,
        0xA00AE278, 0xBDBDF21C,
    ];
    let mut crc: u32 = !0;
    for &b in data {
        crc = (crc >> 4) ^ TABLE[((crc ^ u32::from(b)) & 0xF) as usize];
        crc = (crc >> 4) ^ TABLE[((crc ^ (u32::from(b) >> 4)) & 0xF) as usize];
    }
    !crc
}

/// Trailing CRC-32 length.
const CHECKSUM_LEN: usize = 4;

/// Writes records in IFile format into an in-memory buffer.
#[derive(Debug, Default)]
pub struct IFileWriter {
    buf: Vec<u8>,
    records: u64,
}

impl IFileWriter {
    /// An empty stream.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one serialized key/value pair.
    pub fn append(&mut self, key: &[u8], value: &[u8]) {
        write_vint(&mut self.buf, key.len() as i32);
        write_vint(&mut self.buf, value.len() as i32);
        self.buf.extend_from_slice(key);
        self.buf.extend_from_slice(value);
        self.records += 1;
    }

    /// Records appended so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Write the EOF marker and checksum, returning the finished stream.
    pub fn close(mut self) -> Vec<u8> {
        write_vint(&mut self.buf, -1);
        write_vint(&mut self.buf, -1);
        let crc = crc32(&self.buf);
        self.buf.extend_from_slice(&crc.to_be_bytes());
        self.buf
    }
}

/// Errors from reading an IFile stream.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum IFileError {
    /// Stream ended prematurely.
    Truncated,
    /// Negative length that is not the EOF marker.
    BadLength,
    /// CRC mismatch.
    BadChecksum,
    /// Missing or malformed EOF marker.
    BadEof,
}

/// Reads records from an IFile stream produced by [`IFileWriter`].
#[derive(Debug)]
pub struct IFileReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> IFileReader<'a> {
    /// Validate the checksum and position at the first record.
    pub fn new(stream: &'a [u8]) -> Result<Self, IFileError> {
        // The shortest stream is the two 1-byte EOF vints and the CRC.
        if stream.len() < CHECKSUM_LEN + 2 {
            return Err(IFileError::Truncated);
        }
        let (body, crc) = stream.split_at(stream.len() - CHECKSUM_LEN);
        if crc32(body) != u32::from_be_bytes(crc.try_into().unwrap()) {
            return Err(IFileError::BadChecksum);
        }
        Ok(IFileReader { buf: body, pos: 0 })
    }

    /// The next `(key, value)` pair, or `None` at the EOF marker.
    #[allow(clippy::should_implement_trait, clippy::type_complexity)]
    pub fn next(&mut self) -> Result<Option<(&'a [u8], &'a [u8])>, IFileError> {
        if self.pos >= self.buf.len() {
            return Err(IFileError::BadEof);
        }
        let klen = read_vint(self.buf, &mut self.pos).ok_or(IFileError::Truncated)?;
        if klen == -1 {
            let vlen = read_vint(self.buf, &mut self.pos).ok_or(IFileError::Truncated)?;
            if vlen != -1 {
                return Err(IFileError::BadEof);
            }
            return Ok(None);
        }
        if klen < 0 {
            return Err(IFileError::BadLength);
        }
        let vlen = read_vint(self.buf, &mut self.pos).ok_or(IFileError::Truncated)?;
        if vlen < 0 {
            return Err(IFileError::BadLength);
        }
        let kend = self.pos + klen as usize;
        let vend = kend + vlen as usize;
        if vend > self.buf.len() {
            return Err(IFileError::Truncated);
        }
        let key = &self.buf[self.pos..kend];
        let value = &self.buf[kend..vend];
        self.pos = vend;
        Ok(Some((key, value)))
    }
}

/// The simulator's charge for one IFile stream of `records` fixed-size
/// records: the production record and segment formulas combined.
pub fn stream_len(records: u64, key_len: usize, value_len: usize) -> u64 {
    records * ifile::record_len(key_len, value_len) + ifile::SEGMENT_OVERHEAD
}

/// Generates the synthetic records of one map task (paper Sect. 4.1): a
/// user-specified number of pairs of user-specified sizes and type. The
/// number of *unique* pairs is restricted to the number of reducers
/// (Sect. 4.2), so key content is a pure function of `ordinal % reducers`.
#[derive(Clone, Debug)]
pub struct KvGenerator {
    key_size: usize,
    value_size: usize,
    n_reducers: u32,
    data_type: DataType,
}

impl KvGenerator {
    /// Generator for keys/values of the given payload sizes and type.
    pub fn new(key_size: usize, value_size: usize, n_reducers: u32, data_type: DataType) -> Self {
        assert!(n_reducers > 0, "need at least one reducer");
        KvGenerator {
            key_size,
            value_size,
            n_reducers,
            data_type,
        }
    }

    /// Generator matching a job spec.
    pub fn for_spec(spec: &JobSpec) -> Self {
        KvGenerator::new(
            spec.key_size,
            spec.value_size,
            spec.conf.num_reduces,
            spec.data_type,
        )
    }

    /// Fill `buf` with the key payload of record `ordinal` (content
    /// repeats every `n_reducers` records).
    pub fn key_payload(&self, ordinal: u64, buf: &mut Vec<u8>) {
        buf.clear();
        let uid = ordinal % u64::from(self.n_reducers);
        fill_payload(uid, self.key_size, self.data_type, buf);
    }

    /// Fill `buf` with the value payload of record `ordinal`.
    pub fn value_payload(&self, ordinal: u64, buf: &mut Vec<u8>) {
        buf.clear();
        let uid = ordinal % u64::from(self.n_reducers);
        // Values reuse the key pattern shifted, as the suite only cares
        // about sizes, not content.
        fill_payload(
            uid.wrapping_add(0x9E37),
            self.value_size,
            self.data_type,
            buf,
        );
    }

    /// The serialized key and value of record `ordinal`, exactly as the
    /// map output collector writes them (Writable framing, no IFile
    /// framing).
    pub fn datums(&self, ordinal: u64) -> (Vec<u8>, Vec<u8>) {
        let (mut k, mut v, mut kw, mut vw) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        self.key_payload(ordinal, &mut k);
        self.value_payload(ordinal, &mut v);
        write_datum(&mut kw, self.data_type, &k);
        write_datum(&mut vw, self.data_type, &v);
        (kw, vw)
    }

    /// The simulator's charge for one serialized key.
    pub fn key_wire_len(&self) -> usize {
        self.data_type.wire_len(self.key_size)
    }

    /// The simulator's charge for one serialized value.
    pub fn value_wire_len(&self) -> usize {
        self.data_type.wire_len(self.value_size)
    }

    /// Build a real IFile stream of `n` records.
    pub fn build_ifile(&self, n: u64) -> Vec<u8> {
        let mut w = IFileWriter::new();
        for ordinal in 0..n {
            let (k, v) = self.datums(ordinal);
            w.append(&k, &v);
        }
        w.close()
    }
}

/// Deterministic payload fill. `Text` payloads stay ASCII so they are
/// valid UTF-8; `BytesWritable` uses the full byte range.
fn fill_payload(uid: u64, size: usize, data_type: DataType, buf: &mut Vec<u8>) {
    let seed = uid.to_be_bytes();
    buf.extend((0..size).map(|i| {
        let b = seed[i % 8] ^ (i as u8).wrapping_mul(31);
        match data_type {
            DataType::BytesWritable => b,
            DataType::Text => b'a' + (b % 26),
        }
    }));
}
