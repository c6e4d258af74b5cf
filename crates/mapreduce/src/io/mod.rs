//! Hadoop I/O layer: data-type selection and vint sizes.

pub mod datatype;
pub mod vint;

pub use datatype::DataType;
