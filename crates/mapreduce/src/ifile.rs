//! IFile: Hadoop's intermediate (map-output) file format, as byte counts.
//!
//! Spill files and shuffle payloads are streams of
//! `[vint keyLen][vint valueLen][key bytes][value bytes]` records,
//! terminated by an EOF marker of two `-1` vints, and wrapped by
//! `IFileOutputStream` which appends a CRC-32 of everything written.
//! The shuffle moves IFile bytes verbatim, so the exact framing overhead
//! — which this module computes — is what the simulator charges to disks
//! and NICs. The simulator never serializes a record; the root
//! `data_plane` test checks these formulas against a real codec.

use crate::io::vint::vint_size;

/// Bytes every IFile segment carries beyond its records: the EOF marker
/// (`writeVInt(-1)` twice, 2 bytes) and the trailing 4-byte CRC-32.
pub const SEGMENT_OVERHEAD: u64 = 2 + 4;

/// Exact IFile size of a single record.
pub fn record_len(key_len: usize, value_len: usize) -> u64 {
    (vint_size(key_len as i32) + vint_size(value_len as i32) + key_len + value_len) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_len_includes_vint_headers() {
        // 1 KiB key + 1 KiB value: two 3-byte vints (1024 > 255).
        assert_eq!(record_len(1024, 1024), 3 + 3 + 2048);
        // Tiny records: 1-byte vints.
        assert_eq!(record_len(10, 100), 1 + 1 + 110);
    }
}
