//! # mapreduce — a stand-alone Hadoop MapReduce engine on simulated time
//!
//! A faithful model of the Hadoop MapReduce execution pipeline, decoupled
//! from HDFS, as the paper's micro-benchmark suite requires:
//!
//! * [`io`] — the data type (`BytesWritable` or `Text`) and the exact
//!   serialized size of a key or value under Hadoop's wire formats.
//! * [`ifile`] — the byte length of an intermediate-file record and
//!   segment (vint framing, EOF marker, CRC-32), which drives all
//!   simulated I/O and network volume. No record is ever serialized.
//! * [`conf`] — `JobConf` with the `mapred-site.xml` knobs that matter.
//! * [`partition`] — the `Partitioner` contract and `HashPartitioner`.
//! * [`costs`] — the calibrated CPU cost model.
//! * `task` (internal) — map and reduce task state machines
//!   (sort/spill/merge, fetch pipelines).
//! * [`shuffle`] — the job's shuffle plan (maps × reducers record
//!   counts, drawn once per run), map-output registry, page-cache
//!   model, and the RDMA/MRoIB shuffle engine model.
//! * [`schedule`] — MRv1 slot and YARN container scheduling.
//! * [`faults`] — deterministic fault injection ([`faults::FaultPlan`])
//!   and the job-level outcome types for fault tolerance.
//! * [`engine`] — the deterministic event-loop driver, for one job or a
//!   stream of jobs on a shared cluster; start at [`engine::run_job`].
//! * [`analytic`] — the closed-form (Herodotou-style) cost-model backend:
//!   the same [`job::JobResult`] in O(maps + reduces) arithmetic instead
//!   of an event-by-event replay; start at [`analytic::evaluate`].
//!
//! Stand-alone operation needs no input or output format types: each map
//! synthesizes its pairs in memory (the paper's `NullInputFormat`), and a
//! [`job::JobSpec::output_write_amplification`] of 0 discards reduce
//! output (its `NullOutputFormat`).

pub mod analytic;
pub mod conf;
pub mod costs;
pub mod counters;
pub mod engine;
pub mod faults;
pub mod ifile;
pub mod io;
pub mod job;
pub mod partition;
pub mod schedule;
pub mod shuffle;
pub(crate) mod task;

pub use analytic::AnalyticJob;
pub use conf::{EngineKind, JobConf, ShuffleEngineKind};
pub use costs::CostModel;
pub use counters::Counters;
pub use engine::{run_job, Engine, StreamJob};
pub use faults::{FailureDiag, FaultPlan, JobOutcome, NodeCrash, NodeSlowdown};
pub use io::DataType;
pub use job::{JobResult, JobSpec, PartitionerFactory, TaskTiming};
pub use partition::{HashPartitioner, HashPartitionerFactory, Partitioner};
