//! Hadoop I/O layer: `Writable` types, varints, and data-type selection.

pub mod datatype;
pub mod vint;
pub mod writable;

pub use datatype::DataType;
pub use writable::{
    BooleanWritable, BytesWritable, DoubleWritable, FloatWritable, IntWritable, LongWritable,
    NullWritable, Text, VLongWritable, WireError, Writable,
};
