//! Encoded sizes of Hadoop's variable-length integers.
//!
//! `org.apache.hadoop.io.WritableUtils.writeVLong` stores values in
//! `[-112, 127]` in one byte; larger magnitudes take a length-tag byte
//! followed by 1–8 big-endian payload bytes, with negatives stored
//! one's-complemented. IFile records frame their key/value lengths, and
//! `Text` its byte length, with this encoding, so the byte counts the
//! simulator charges to disks and networks depend on these sizes being
//! exact.

/// The number of bytes `writeVLong` emits for `i`.
pub fn vlong_size(i: i64) -> usize {
    if (-112..=127).contains(&i) {
        return 1;
    }
    let value = if i < 0 { i ^ -1 } else { i };
    let mut tmp = value;
    let mut n = 0;
    while tmp != 0 {
        tmp >>= 8;
        n += 1;
    }
    n + 1
}

/// `vlong_size` for an `i32`.
pub fn vint_size(i: i32) -> usize {
    vlong_size(i64::from(i))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_grow_with_magnitude() {
        assert_eq!(vlong_size(0), 1);
        assert_eq!(vlong_size(127), 1);
        assert_eq!(vlong_size(128), 2);
        assert_eq!(vlong_size(65536), 4);
        assert_eq!(vlong_size(i64::MAX), 9);
        assert_eq!(vlong_size(i64::MIN), 9);
    }
}
