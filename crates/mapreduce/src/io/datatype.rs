//! The data-type dimension of the micro-benchmark suite.
//!
//! The paper's suite exposes a parameter selecting the Writable type used
//! for generated keys and values (`BytesWritable` or `Text`, with more
//! planned). The type determines the wire overhead per record and the
//! relative serialization CPU cost.

use super::vint::vint_size;

/// Key/value data types supported by the benchmark suite.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum DataType {
    /// Raw binary payloads framed as `BytesWritable` (4-byte length).
    BytesWritable,
    /// UTF-8 payloads framed as `Text` (vint length).
    Text,
}

impl DataType {
    /// Both supported types, in the order the paper discusses them.
    pub const ALL: [DataType; 2] = [DataType::BytesWritable, DataType::Text];

    /// Display label matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            DataType::BytesWritable => "BytesWritable",
            DataType::Text => "Text",
        }
    }

    /// The exact serialized size of one datum with `payload` bytes of
    /// content: `BytesWritable` writes a 4-byte big-endian length, `Text`
    /// a vint byte length.
    pub fn wire_len(self, payload: usize) -> usize {
        match self {
            DataType::BytesWritable => 4 + payload,
            DataType::Text => vint_size(payload as i32) + payload,
        }
    }

    /// Relative CPU cost factor of serializing this type, versus raw byte
    /// copies. `Text` pays UTF-8 validation on every read.
    pub fn cpu_factor(self) -> f64 {
        match self {
            DataType::BytesWritable => 1.0,
            DataType::Text => 1.25,
        }
    }
}

impl std::fmt::Display for DataType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for DataType {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "byteswritable" | "bytes" => Ok(DataType::BytesWritable),
            "text" => Ok(DataType::Text),
            other => Err(format!("unknown data type: {other}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_lengths_match_writables() {
        assert_eq!(DataType::BytesWritable.wire_len(1024), 1028);
        assert_eq!(DataType::Text.wire_len(1024), 1027);
        assert_eq!(DataType::BytesWritable.wire_len(0), 4);
        assert_eq!(DataType::Text.wire_len(0), 1);
        // 200 bytes need a 2-byte vint (tag + one payload byte).
        assert_eq!(DataType::Text.wire_len(200), 2 + 200);
        // The paper's data-type dimension: Text's 3-byte vint header beats
        // BytesWritable's fixed 4 bytes at 1 KiB, its 1-byte header more so
        // for tiny payloads.
        assert_eq!(DataType::Text.wire_len(10), 11);
        assert_eq!(DataType::BytesWritable.wire_len(10), 14);
    }

    #[test]
    fn parsing() {
        assert_eq!(
            "bytes".parse::<DataType>().unwrap(),
            DataType::BytesWritable
        );
        assert_eq!("Text".parse::<DataType>().unwrap(), DataType::Text);
        assert!("avro".parse::<DataType>().is_err());
    }

    #[test]
    fn text_costs_more_cpu() {
        assert!(DataType::Text.cpu_factor() > DataType::BytesWritable.cpu_factor());
    }
}
