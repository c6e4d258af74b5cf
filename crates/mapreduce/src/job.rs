//! Job specification and results.

use simcore::jobj;
use simcore::json::Json;
use simcore::stats::TimeSeries;
use simcore::time::{SimDuration, SimTime};
use simcore::trace::{PhaseBreakdown, Trace};
use simcore::units::ByteSize;

use crate::conf::JobConf;
use crate::counters::Counters;
use crate::faults::{FailureDiag, JobOutcome};
use crate::ifile;
use crate::io::DataType;
use crate::partition::Partitioner;

/// Creates one partitioner instance per map task (Hadoop instantiates the
/// partitioner class inside each task JVM).
///
/// `Send + Sync` so a factory can be shared by the parallel sweep runner;
/// implementations are stateless descriptors, the per-task state lives in
/// the [`Partitioner`] each call returns.
pub trait PartitionerFactory: Send + Sync {
    /// Build the partitioner for map task `map_index`. `seed` is derived
    /// from the job seed and the map index, so MR-RAND's `Random` is
    /// reproducible per task.
    fn create(&self, map_index: u32, seed: u64) -> Box<dyn Partitioner>;
    /// Name for reports (e.g. "MR-AVG").
    fn name(&self) -> &str;
    /// True when a map's counts are closed-form, O(reducers) with no
    /// draw: the shuffle plan then draws its rows on the calling thread,
    /// as a helper thread would cost more than the rows themselves.
    fn closed_form_rows(&self) -> bool {
        false
    }
}

/// The synthetic-workload description of one benchmark job.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// Engine configuration.
    pub conf: JobConf,
    /// Payload bytes per key (before Writable framing).
    pub key_size: usize,
    /// Payload bytes per value.
    pub value_size: usize,
    /// Key/value pairs generated by **each** map task.
    pub pairs_per_map: u64,
    /// Writable type for both keys and values.
    pub data_type: DataType,
    /// Bytes of reduce output written to local disk per byte of reduce
    /// input payload. `0.0` is `NullOutputFormat` (the suite's default);
    /// `1.0` models `LocalFileOutputFormat`.
    pub output_write_amplification: f64,
}

impl JobSpec {
    /// Map plus reduce tasks.
    pub(crate) fn n_tasks(&self) -> usize {
        self.conf.num_maps as usize + self.conf.num_reduces as usize
    }

    /// Serialized (Writable) size of one key on the wire.
    pub fn key_wire_len(&self) -> usize {
        self.data_type.wire_len(self.key_size)
    }

    /// Serialized size of one value.
    pub fn value_wire_len(&self) -> usize {
        self.data_type.wire_len(self.value_size)
    }

    /// Exact IFile bytes of one intermediate record.
    pub fn record_ifile_len(&self) -> u64 {
        ifile::record_len(self.key_wire_len(), self.value_wire_len())
    }

    /// Materialized bytes of one map's output: its records, plus one
    /// IFile segment trailer per reducer. The partition never changes it.
    pub fn map_output_bytes(&self) -> u64 {
        self.record_ifile_len() * self.pairs_per_map
            + u64::from(self.conf.num_reduces) * ifile::SEGMENT_OVERHEAD
    }

    /// Total intermediate (shuffle) payload across all maps, IFile-framed
    /// record bodies only.
    pub fn total_shuffle_bytes(&self) -> ByteSize {
        ByteSize::from_bytes(
            self.record_ifile_len() * self.pairs_per_map * u64::from(self.conf.num_maps),
        )
    }

    /// Choose `pairs_per_map` so the job's total shuffle volume is
    /// approximately `total` (the paper's figures sweep this quantity).
    ///
    /// A key or value too large to frame leaves one pair per map, for
    /// [`JobSpec::validate`] to reject.
    pub fn set_shuffle_size(&mut self, total: ByteSize) {
        let per_record = self.checked_record_len().unwrap_or(u64::MAX);
        let per_map = total.as_bytes() / u64::from(self.conf.num_maps);
        self.pairs_per_map = (per_map / per_record).max(1);
    }

    /// [`JobSpec::record_ifile_len`], or why a key or value cannot be
    /// framed: `BytesWritable`'s length prefix and the IFile vint are Java
    /// `int`s, so a serialized datum is at most `i32::MAX` bytes.
    fn checked_record_len(&self) -> Result<u64, String> {
        let framed = |payload: usize| {
            // A payload within `i32::MAX` gains at most a 5-byte header,
            // so `wire_len` cannot overflow once the payload fits.
            i32::try_from(payload)
                .ok()
                .map(|_| self.data_type.wire_len(payload))
                .filter(|&len| i32::try_from(len).is_ok())
                .ok_or_else(|| {
                    format!(
                        "a {payload}-byte {} payload serializes past the {}-byte limit of a key or value",
                        self.data_type,
                        i32::MAX
                    )
                })
        };
        Ok(ifile::record_len(
            framed(self.key_size)?,
            framed(self.value_size)?,
        ))
    }

    /// Validate spec consistency.
    pub fn validate(&self) -> Result<(), String> {
        self.conf.validate()?;
        // Every task's first attempt takes an attempt slot, which a
        // correlation tag numbers in 24 bits.
        let tasks = u64::from(self.conf.num_maps) + u64::from(self.conf.num_reduces);
        if tasks > crate::task::SLOT_LIMIT {
            return Err(format!(
                "{} maps + {} reduces overflow the engine's {} attempt slots",
                self.conf.num_maps,
                self.conf.num_reduces,
                crate::task::SLOT_LIMIT
            ));
        }
        // The shuffle plan is allocated whole, before the first event.
        let entries = u64::from(self.conf.num_maps) * u64::from(self.conf.num_reduces);
        if entries > crate::shuffle::PLAN_LIMIT {
            return Err(format!(
                "{} maps x {} reduces need a {entries}-entry shuffle plan, past its {}-entry limit",
                self.conf.num_maps,
                self.conf.num_reduces,
                crate::shuffle::PLAN_LIMIT
            ));
        }
        if self.pairs_per_map == 0 {
            return Err("pairs_per_map must be at least 1".into());
        }
        if self.key_size == 0 && self.value_size == 0 {
            return Err("key and value cannot both be empty".into());
        }
        let per_map = self
            .checked_record_len()?
            .checked_mul(self.pairs_per_map)
            .filter(|b| b.checked_mul(u64::from(self.conf.num_maps)).is_some())
            .ok_or_else(|| {
                format!(
                    "{} pairs per map x {} maps overflows a 64-bit shuffle byte count",
                    self.pairs_per_map, self.conf.num_maps
                )
            })?;
        // A map numbers its spill chunks in the 32-bit sequence field of
        // a correlation tag.
        let out =
            per_map.saturating_add(u64::from(self.conf.num_reduces) * ifile::SEGMENT_OVERHEAD);
        let chunks = out.div_ceil(self.conf.spill_threshold().as_bytes().max(1));
        if chunks > crate::task::SEQ_LIMIT {
            return Err(format!(
                "each map's {out}-byte output spills in {chunks} chunks, which overflows \
                 the 32-bit chunk number; use more maps or less shuffle data"
            ));
        }
        Ok(())
    }
}

impl Default for JobSpec {
    fn default() -> Self {
        JobSpec {
            conf: JobConf::default(),
            key_size: 1024,
            value_size: 1024,
            pairs_per_map: 1000,
            data_type: DataType::BytesWritable,
            output_write_amplification: 0.0,
        }
    }
}

/// Timing of a single task.
#[derive(Clone, Copy, Debug)]
pub struct TaskTiming {
    /// True for map tasks.
    pub is_map: bool,
    /// Task index within its kind.
    pub index: u32,
    /// Slave node it ran on.
    pub node: usize,
    /// Launch instant.
    pub start: SimTime,
    /// Completion instant.
    pub finish: SimTime,
}

impl TaskTiming {
    /// Task duration.
    pub fn elapsed(&self) -> SimDuration {
        self.finish.since(self.start)
    }

    /// Serialize to JSON.
    pub fn to_json(&self) -> Json {
        jobj! {
            "map": self.is_map,
            "index": self.index,
            "node": self.node,
            "start_ns": self.start.as_nanos(),
            "finish_ns": self.finish.as_nanos(),
        }
    }

    /// Rebuild from the [`TaskTiming::to_json`] encoding.
    pub fn from_json(json: &Json) -> Result<Self, String> {
        Ok(TaskTiming {
            is_map: json.field_bool("map")?,
            index: json.field_u32("index")?,
            node: json.field_usize("node")?,
            start: SimTime::from_nanos(json.field_u64("start_ns")?),
            finish: SimTime::from_nanos(json.field_u64("finish_ns")?),
        })
    }
}

/// Diagnostics captured when the watchdog aborts a run
/// ([`JobOutcome::BudgetExceeded`]): enough to tell *where* a runaway
/// simulation was stuck without rerunning it.
#[derive(Clone, Debug, PartialEq)]
pub struct BudgetDiag {
    /// Which ceiling was crossed, rendered for humans.
    pub breach: String,
    /// Simulated time of the last dispatched event.
    pub at: SimTime,
    /// Events dispatched before the abort.
    pub events: u64,
    /// Live control + timer events still queued at the abort.
    pub queue_depth: usize,
    /// Maps committed out of the total.
    pub maps_done: u32,
    /// Total map tasks.
    pub maps_total: u32,
    /// Reduces committed out of the total.
    pub reduces_done: u32,
    /// Total reduce tasks.
    pub reduces_total: u32,
}

impl BudgetDiag {
    /// One-line rendering for error messages and logs.
    pub fn summary(&self) -> String {
        format!(
            "{} (t={:.3}s, {} events, {} queued; maps {}/{}, reduces {}/{})",
            self.breach,
            self.at.as_secs_f64(),
            self.events,
            self.queue_depth,
            self.maps_done,
            self.maps_total,
            self.reduces_done,
            self.reduces_total,
        )
    }

    /// Serialize to JSON.
    pub fn to_json(&self) -> Json {
        jobj! {
            "breach": self.breach.as_str(),
            "at_ns": self.at.as_nanos(),
            "events": self.events,
            "queue_depth": self.queue_depth,
            "maps_done": self.maps_done,
            "maps_total": self.maps_total,
            "reduces_done": self.reduces_done,
            "reduces_total": self.reduces_total,
        }
    }

    /// Rebuild from the [`BudgetDiag::to_json`] encoding.
    pub fn from_json(json: &Json) -> Result<Self, String> {
        Ok(BudgetDiag {
            breach: json.field_str("breach")?.to_owned(),
            at: SimTime::from_nanos(json.field_u64("at_ns")?),
            events: json.field_u64("events")?,
            queue_depth: json.field_usize("queue_depth")?,
            maps_done: json.field_u32("maps_done")?,
            maps_total: json.field_u32("maps_total")?,
            reduces_done: json.field_u32("reduces_done")?,
            reduces_total: json.field_u32("reduces_total")?,
        })
    }
}

/// Everything a job run produces.
#[derive(Clone, Debug)]
pub struct JobResult {
    /// Whether every task committed or the job was killed after a task
    /// exhausted its attempts.
    pub outcome: JobOutcome,
    /// Why the job failed, when `outcome` is [`JobOutcome::Failed`].
    pub failure: Option<FailureDiag>,
    /// Watchdog diagnostics, when `outcome` is
    /// [`JobOutcome::BudgetExceeded`].
    pub budget: Option<BudgetDiag>,
    /// End-to-end job execution time — the metric every figure of the
    /// paper plots. For failed jobs, time until the abort.
    pub job_time: SimDuration,
    /// When the last map finished.
    pub map_phase_end: SimTime,
    /// When the last shuffle fetch completed.
    pub shuffle_end: SimTime,
    /// Job counters.
    pub counters: Counters,
    /// Per-task timings.
    pub tasks: Vec<TaskTiming>,
    /// Per-node CPU utilization (%) sampled at 1 Hz.
    pub cpu_series: Vec<TimeSeries>,
    /// Per-node network receive throughput (MB/s) sampled at 1 Hz.
    pub net_rx_series: Vec<TimeSeries>,
    /// Per-phase time decomposition; present only when the run was traced.
    pub phases: Option<PhaseBreakdown>,
    /// Simulated-work units the backend spent producing this result: the
    /// DES reports events dispatched, the analytic backend reports
    /// closed-form evaluations (one per task). Comparable across backends
    /// as a wall-clock-free cost measure; `0` in artifacts written before
    /// the field existed.
    pub sim_work: u64,
    /// The raw span stream; present only when the run was traced. NOT
    /// serialized ([`JobResult::from_json`] always yields `None`) — traces
    /// are exported to their own Chrome trace-event files instead of
    /// bloating every artifact.
    pub trace: Option<Trace>,
}

impl JobResult {
    /// Convenience: job time in seconds.
    pub fn job_time_secs(&self) -> f64 {
        self.job_time.as_secs_f64()
    }

    /// True when the job ran to completion.
    pub fn succeeded(&self) -> bool {
        self.outcome == JobOutcome::Succeeded
    }

    /// Serialize to JSON. Times are nanoseconds, so the encoding is
    /// lossless and two results are equal iff their JSON is.
    pub fn to_json(&self) -> Json {
        let series = |v: &[TimeSeries]| Json::Arr(v.iter().map(TimeSeries::to_json).collect());
        let mut doc = jobj! {
            "outcome": self.outcome.as_str(),
            "failure": match &self.failure {
                Some(diag) => diag.to_json(),
                None => Json::Null,
            },
            "budget": match &self.budget {
                Some(diag) => diag.to_json(),
                None => Json::Null,
            },
            "job_time_ns": self.job_time.as_nanos(),
            "map_phase_end_ns": self.map_phase_end.as_nanos(),
            "shuffle_end_ns": self.shuffle_end.as_nanos(),
            "counters": self.counters.to_json(),
            "tasks": Json::Arr(self.tasks.iter().map(TaskTiming::to_json).collect()),
            "cpu_series": series(&self.cpu_series),
            "net_rx_series": series(&self.net_rx_series),
            "phases": match &self.phases {
                Some(p) => p.to_json(),
                None => Json::Null,
            },
        };
        // Emitted only when nonzero so artifacts from before the field
        // existed — and the canonical-bytes round trip through them —
        // stay byte-identical.
        if self.sim_work != 0 {
            if let Json::Obj(fields) = &mut doc {
                fields.push(("sim_work".into(), Json::from(self.sim_work)));
            }
        }
        doc
    }

    /// Rebuild from the [`JobResult::to_json`] encoding.
    pub fn from_json(json: &Json) -> Result<Self, String> {
        let series = |key: &str| -> Result<Vec<TimeSeries>, String> {
            json.field_arr(key)?
                .iter()
                .map(TimeSeries::from_json)
                .collect()
        };
        Ok(JobResult {
            outcome: JobOutcome::from_str_token(json.field_str("outcome")?)?,
            failure: match json.req("failure")? {
                Json::Null => None,
                diag => Some(FailureDiag::from_json(diag)?),
            },
            // Absent in artifacts written before the watchdog existed.
            budget: json
                .opt_field("budget", Some)?
                .map(BudgetDiag::from_json)
                .transpose()?,
            job_time: SimDuration::from_nanos(json.field_u64("job_time_ns")?),
            map_phase_end: SimTime::from_nanos(json.field_u64("map_phase_end_ns")?),
            shuffle_end: SimTime::from_nanos(json.field_u64("shuffle_end_ns")?),
            counters: Counters::from_json(json.req("counters")?)?,
            tasks: json
                .field_arr("tasks")?
                .iter()
                .map(TaskTiming::from_json)
                .collect::<Result<_, String>>()?,
            cpu_series: series("cpu_series")?,
            net_rx_series: series("net_rx_series")?,
            // Absent in artifacts written before phase tracing existed.
            phases: json
                .opt_field("phases", Some)?
                .map(PhaseBreakdown::from_json)
                .transpose()?,
            // Absent in artifacts written before the work counter existed.
            sim_work: json.opt_field("sim_work", Json::as_u64)?.unwrap_or(0),
            trace: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_count_is_bounded_by_the_attempt_slots() {
        let slots = crate::task::SLOT_LIMIT as u32;
        let mut spec = JobSpec {
            pairs_per_map: 1,
            ..JobSpec::default()
        };
        spec.conf.num_maps = slots - 1;
        spec.conf.num_reduces = 1;
        spec.validate().unwrap();
        spec.conf.num_maps = slots;
        let err = spec.validate().unwrap_err();
        assert!(err.contains("attempt slots"), "{err}");
    }

    #[test]
    fn shuffle_plan_size_is_bounded() {
        let mut spec = JobSpec {
            pairs_per_map: 1,
            ..JobSpec::default()
        };
        spec.conf.num_maps = 1 << 14;
        spec.conf.num_reduces = 1 << 14;
        spec.validate().unwrap();
        spec.conf.num_reduces += 1;
        let err = spec.validate().unwrap_err();
        assert!(err.contains("shuffle plan"), "{err}");
        spec.conf.num_maps = 8_000_000;
        spec.conf.num_reduces = 8_000_000;
        let err = spec.validate().unwrap_err();
        assert!(err.contains("shuffle plan"), "{err}");
    }

    #[test]
    fn record_len_uses_data_type_framing() {
        let spec = JobSpec {
            key_size: 1024,
            value_size: 1024,
            ..JobSpec::default()
        };
        // BytesWritable: (4+1024) key + (4+1024) value + 3-byte vints each
        // (1028 needs two payload bytes plus the tag byte).
        assert_eq!(spec.key_wire_len(), 1028);
        assert_eq!(spec.record_ifile_len(), 3 + 3 + 1028 + 1028);
    }

    #[test]
    fn set_shuffle_size_round_trips() {
        let mut spec = JobSpec::default();
        spec.conf.num_maps = 16;
        spec.set_shuffle_size(ByteSize::from_gib(16));
        let total = spec.total_shuffle_bytes();
        let err = (total.as_bytes() as f64 - ByteSize::from_gib(16).as_bytes() as f64).abs()
            / ByteSize::from_gib(16).as_bytes() as f64;
        assert!(err < 0.001, "relative error {err}");
    }

    #[test]
    fn text_shuffles_fewer_bytes_than_bytes_writable() {
        // The paper's data-type dimension: Text's vint framing beats
        // BytesWritable's fixed 4-byte length for 1 KiB payloads.
        let mk = |dt| JobSpec {
            data_type: dt,
            pairs_per_map: 1000,
            ..JobSpec::default()
        };
        let b = mk(DataType::BytesWritable).total_shuffle_bytes();
        let t = mk(DataType::Text).total_shuffle_bytes();
        assert!(t < b);
    }

    #[test]
    fn validation() {
        let mut spec = JobSpec::default();
        spec.validate().unwrap();
        spec.pairs_per_map = 0;
        assert!(spec.validate().is_err());
        spec.pairs_per_map = 1;
        spec.key_size = 0;
        spec.value_size = 0;
        assert!(spec.validate().is_err());
    }

    #[test]
    fn datum_framing_stops_at_i32_max() {
        let max = i32::MAX as usize;
        let spec_with = |data_type, key_size| JobSpec {
            data_type,
            key_size,
            ..JobSpec::default()
        };
        // At the boundary BytesWritable's header is 4 bytes, Text's vint 5.
        for (dt, header) in [(DataType::BytesWritable, 4), (DataType::Text, 5)] {
            assert_eq!(dt.wire_len(max - header), max);
            spec_with(dt, max - header).validate().unwrap();
            assert_eq!(dt.wire_len(max - header + 1), max + 1);
            let err = spec_with(dt, max - header + 1).validate().unwrap_err();
            assert!(err.contains("2147483647-byte limit"), "{err}");
            // Sizes whose framed length would wrap `usize`, too.
            assert!(spec_with(dt, usize::MAX).validate().is_err());
        }
    }

    #[test]
    fn shuffle_volume_overflow_is_rejected() {
        let mut spec = JobSpec::default();
        spec.conf.num_maps = 2;
        spec.pairs_per_map = u64::MAX;
        let err = spec.validate().unwrap_err();
        assert!(err.contains("overflows"), "{err}");
        // The largest volume that still fits is accepted, given a sort
        // buffer large enough to keep each map's spill-chunk count in
        // range.
        spec.conf.io_sort_mb = ByteSize::from_gib(1024);
        spec.pairs_per_map = u64::MAX / (2 * spec.record_ifile_len());
        spec.validate().unwrap();
    }

    #[test]
    fn spill_chunk_counts_past_the_tag_sequence_are_rejected() {
        // One map of ~2^64 bytes spills in ~8.6e10 chunks of 204.8 MiB;
        // their numbers would wrap the tag's 32-bit sequence field.
        let mut spec = JobSpec {
            conf: JobConf::with_tasks(1, 1),
            ..JobSpec::default()
        };
        spec.conf.io_sort_mb = ByteSize::from_mib(256);
        spec.set_shuffle_size(ByteSize::from_bytes(u64::MAX));
        let err = spec.validate().unwrap_err();
        assert!(err.contains("32-bit chunk number"), "{err}");
        // The same volume over 32 maps stays within 2^32 chunks each.
        spec.conf.num_maps = 32;
        spec.set_shuffle_size(ByteSize::from_bytes(u64::MAX));
        spec.validate().unwrap();
    }
}
