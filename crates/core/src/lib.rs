//! # mrbench — a micro-benchmark suite for stand-alone Hadoop MapReduce
//!
//! A Rust reproduction of the micro-benchmark suite of Shankar, Lu,
//! Rahman, Islam & Panda, *"A Micro-benchmark Suite for Evaluating Hadoop
//! MapReduce on High-Performance Networks"* (BPOE 2014): three
//! micro-benchmarks (**MR-AVG**, **MR-RAND**, **MR-SKEW**) that measure
//! the job execution time of stand-alone MapReduce — no HDFS — under
//! different intermediate data distributions, key/value geometries, data
//! types, task counts, and network interconnects.
//!
//! Because no Hadoop cluster or InfiniBand fabric is available here, the
//! suite runs over a faithful discrete-event simulation of the paper's
//! two testbeds (see the `mapreduce`, `cluster`, and `simnet` crates).
//! The partitioners and `java.util.Random` are real code; records are
//! never serialized, but every byte the simulator charges comes from
//! byte-exact `Writable` and IFile framing formulas, and only *time* is
//! simulated.
//!
//! ## Quick start
//!
//! ```
//! use mrbench::{BenchConfig, MicroBenchmark, run};
//! use simcore::units::ByteSize;
//! use simnet::Interconnect;
//!
//! let mut config = BenchConfig::cluster_a_default(
//!     MicroBenchmark::Avg,
//!     Interconnect::IpoibQdr,
//!     ByteSize::from_mib(256),
//! );
//! config.slaves = 2;
//! config.num_maps = 4;
//! config.num_reduces = 4;
//! let report = run(&config).expect("valid config");
//! assert!(report.to_string().contains("SUCCEEDED"));
//! assert!(report.job_time_secs() > 0.0);
//! ```

pub mod artifact;
pub mod bench;
pub mod calib;
pub mod config;
pub mod error;
pub mod multijob;
pub mod partitioners;
pub mod report;
pub mod runner;
pub mod store;
pub mod sweep;

pub use artifact::{Artifacts, Panel};
pub use bench::MicroBenchmark;
pub use config::{Ablation, BackendKind, BenchConfig, ShuffleVolume};
pub use error::Error;
pub use report::BenchReport;
pub use runner::run;
pub use store::{atomic_write, config_digest, ResultStore};
pub use sweep::{run_cells, Sweep, SweepOptions};

// Re-export the substrate names examples need.
pub use cluster::ClusterPreset;
pub use mapreduce::conf::{EngineKind, ShuffleEngineKind};
pub use mapreduce::io::DataType;
pub use simnet::Interconnect;
