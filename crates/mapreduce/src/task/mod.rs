//! Task state machines and the environment they act on.
//!
//! The engine routes subsystem completions (CPU, disk, network) to tasks
//! through correlation tags. A tag encodes `(task id, stage, sequence)`;
//! tag 0 is the *sink* — work that consumes simulated resources but needs
//! no follow-up (e.g. sender-side protocol processing).

pub(crate) mod map;
pub(crate) mod reduce;

use cluster::{CpuSim, DiskSim};
use simcore::event::EventQueue;
use simcore::time::SimTime;
use simcore::trace::{Span, Trace};
use simnet::{Network, ProtocolModel};

use crate::conf::JobConf;
use crate::costs::CostModel;
use crate::counters::Counters;
use crate::faults::FaultInjector;
use crate::job::JobSpec;
use crate::shuffle::rdma::ShuffleModel;
use crate::shuffle::{ShufflePlan, ShuffleRegistry};

/// Pipeline stages a completion can belong to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Stage {
    /// Task JVM launch delay.
    Jvm,
    /// One map collect+sort chunk.
    MapChunkCpu,
    /// Asynchronous spill write of a map chunk.
    MapSpillWrite,
    /// Map-side final merge: reading spill files.
    MapMergeRead,
    /// Map-side final merge: CPU.
    MapMergeCpu,
    /// Map-side final merge: writing the merged output.
    MapMergeWrite,
    /// Shuffle fetch: uncached source-side disk read.
    FetchSrcRead,
    /// Shuffle fetch: the network transfer.
    FetchNet,
    /// Shuffle fetch: receiver-side protocol processing.
    FetchCpu,
    /// Reduce-side spill of accumulated shuffle data.
    ReduceSpillWrite,
    /// Reduce-side final merge: reading spilled segments.
    ReduceMergeRead,
    /// Reduce-side final merge: CPU.
    ReduceMergeCpu,
    /// The reduce function itself.
    ReduceCpu,
    /// Reduce output write (non-null output formats).
    ReduceOutWrite,
    /// Timer: retry a failed shuffle fetch after its backoff delay.
    FetchRetry,
}

impl Stage {
    fn to_u8(self) -> u8 {
        match self {
            Stage::Jvm => 1,
            Stage::MapChunkCpu => 2,
            Stage::MapSpillWrite => 3,
            Stage::MapMergeRead => 4,
            Stage::MapMergeCpu => 5,
            Stage::MapMergeWrite => 6,
            Stage::FetchSrcRead => 7,
            Stage::FetchNet => 8,
            Stage::FetchCpu => 9,
            Stage::ReduceSpillWrite => 10,
            Stage::ReduceMergeRead => 11,
            Stage::ReduceMergeCpu => 12,
            Stage::ReduceCpu => 13,
            Stage::ReduceOutWrite => 14,
            Stage::FetchRetry => 15,
        }
    }

    fn from_u8(v: u8) -> Stage {
        match v {
            1 => Stage::Jvm,
            2 => Stage::MapChunkCpu,
            3 => Stage::MapSpillWrite,
            4 => Stage::MapMergeRead,
            5 => Stage::MapMergeCpu,
            6 => Stage::MapMergeWrite,
            7 => Stage::FetchSrcRead,
            8 => Stage::FetchNet,
            9 => Stage::FetchCpu,
            10 => Stage::ReduceSpillWrite,
            11 => Stage::ReduceMergeRead,
            12 => Stage::ReduceMergeCpu,
            13 => Stage::ReduceCpu,
            14 => Stage::ReduceOutWrite,
            15 => Stage::FetchRetry,
            other => panic!("invalid stage byte {other}"),
        }
    }
}

/// Phase names used in trace spans. One vocabulary for both task kinds so
/// breakdowns and figure labels stay consistent.
pub(crate) mod phase {
    /// JVM start-up delay (both kinds).
    pub const JVM: &str = "jvm";
    /// Map collect + sort, including overlapped spill writes.
    pub const MAP: &str = "map";
    /// Map-side final merge of spill files.
    pub const MAP_MERGE: &str = "map_merge";
    /// Reduce-side shuffle (fetch + in-memory merge backpressure).
    pub const SHUFFLE: &str = "shuffle";
    /// Reduce-side final merge.
    pub const REDUCE_MERGE: &str = "reduce_merge";
    /// The reduce function.
    pub const REDUCE: &str = "reduce";
    /// Reduce output write.
    pub const OUTPUT: &str = "output";
}

/// Per-attempt phase cursor: tracks the currently open phase and emits a
/// [`Span`] each time the attempt moves to the next one (or is cut short).
pub(crate) struct PhaseCursor {
    kind: &'static str,
    index: u32,
    attempt: u32,
    node: u32,
    lane: u32,
    cur: &'static str,
    since: SimTime,
}

impl PhaseCursor {
    pub fn new(
        kind: &'static str,
        index: u32,
        attempt: u32,
        node: usize,
        lane: u32,
        now: SimTime,
    ) -> PhaseCursor {
        PhaseCursor {
            kind,
            index,
            attempt,
            node: node as u32,
            lane,
            cur: phase::JVM,
            since: now,
        }
    }

    /// The currently open phase.
    pub fn current(&self) -> &'static str {
        self.cur
    }

    /// Close the open phase (attributing `bytes` to it) and open `next`.
    pub fn switch(&mut self, trace: &mut Trace, now: SimTime, next: &'static str, bytes: u64) {
        self.emit(trace, now, bytes, false);
        self.cur = next;
        self.since = now;
    }

    /// Close the open phase without opening another (commit or kill).
    pub fn close(&mut self, trace: &mut Trace, now: SimTime, bytes: u64, aborted: bool) {
        self.emit(trace, now, bytes, aborted);
        self.since = now;
    }

    fn emit(&self, trace: &mut Trace, now: SimTime, bytes: u64, aborted: bool) {
        if !trace.is_enabled() {
            return;
        }
        trace.span(Span {
            phase: self.cur,
            kind: self.kind,
            index: self.index,
            attempt: self.attempt,
            node: self.node,
            lane: self.lane,
            start: self.since,
            end: now,
            bytes,
            aborted,
        });
    }
}

/// The sink tag: resource consumption with no follow-up event.
pub(crate) const SINK_TAG: u64 = 0;

/// Attempt slots a tag can name: the slot, plus one, fills the top 24
/// bits (0 marks the sink).
pub(crate) const SLOT_LIMIT: u64 = (1 << 24) - 1;

/// Attempt slot number `index`, or `None` when a tag cannot name it.
pub(crate) fn checked_slot(index: usize) -> Option<u32> {
    u32::try_from(index)
        .ok()
        .filter(|&slot| u64::from(slot) < SLOT_LIMIT)
}

/// Distinct sequence numbers a tag can carry in its low 32 bits.
pub(crate) const SEQ_LIMIT: u64 = 1 << 32;

/// Encode a correlation tag.
pub(crate) fn tag(task: u32, stage: Stage, seq: u32) -> u64 {
    debug_assert!(
        u64::from(task) < SLOT_LIMIT,
        "attempt slot {task} overflows the tag's 24-bit slot field"
    );
    (u64::from(task) + 1) << 40 | u64::from(stage.to_u8()) << 32 | u64::from(seq)
}

/// Decode a correlation tag; `None` for the sink.
pub(crate) fn untag(t: u64) -> Option<(u32, Stage, u32)> {
    if t == SINK_TAG {
        None
    } else {
        let task = (t >> 40) as u32 - 1;
        let stage = Stage::from_u8((t >> 32) as u8);
        let seq = t as u32;
        Some((task, stage, seq))
    }
}

/// Out-of-band signals a task raises for the engine.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Note {
    /// The map attempt in `slot` committed its output; reducers can
    /// fetch it.
    MapOutputReady { slot: u32 },
    /// The attempt in `slot` finished; the scheduler can reuse its slot
    /// and any sibling (speculative) attempts must be killed.
    TaskFinished { slot: u32 },
    /// The attempt in `slot` gave up (shuffle fetch retries exhausted);
    /// the engine treats it like any other failed attempt.
    AttemptFailed { slot: u32 },
    /// The attempt in `slot` reached commit but a sibling attempt had
    /// already committed (speculative commit race, first-wins); its output
    /// was dropped and the engine counts it as killed, not failed.
    AttemptSuperseded { slot: u32 },
}

/// Mutable view of the simulation a task handler acts through.
pub(crate) struct Env<'a> {
    /// Current simulated time.
    pub now: SimTime,
    /// CPU simulator.
    pub cpu: &'a mut CpuSim,
    /// Disk simulator.
    pub disk: &'a mut DiskSim,
    /// Network simulator.
    pub net: &'a mut Network,
    /// Job counters.
    pub counters: &'a mut Counters,
    /// Job configuration.
    pub conf: &'a JobConf,
    /// Workload description.
    pub spec: &'a JobSpec,
    /// CPU cost model.
    pub costs: &'a CostModel,
    /// Network protocol model in effect.
    pub protocol: ProtocolModel,
    /// Shuffle engine behaviour (TCP vs RDMA/MRoIB).
    pub shuffle_model: ShuffleModel,
    /// The job's shuffle matrix: each map-to-reducer segment's records.
    pub plan: &'a ShufflePlan,
    /// Map output registry + page-cache model.
    pub registry: &'a mut ShuffleRegistry,
    /// Fault decisions for this run.
    pub faults: &'a FaultInjector,
    /// Engine timer queue (tags dispatch back to tasks when due), used
    /// for fetch-retry backoff delays.
    pub timers: &'a mut EventQueue<u64>,
    /// Signals raised during this dispatch.
    pub notes: &'a mut Vec<Note>,
    /// Phase-span recorder (disabled unless the run is traced).
    pub trace: &'a mut Trace,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_round_trips() {
        for task in [0u32, 1, 7, 4095, (SLOT_LIMIT - 1) as u32] {
            for stage in [Stage::Jvm, Stage::FetchNet, Stage::ReduceOutWrite] {
                for seq in [0u32, 1, u32::MAX] {
                    let t = tag(task, stage, seq);
                    assert_eq!(untag(t), Some((task, stage, seq)));
                    assert_ne!(t, SINK_TAG);
                }
            }
        }
        assert_eq!(untag(SINK_TAG), None);
    }

    #[test]
    fn the_last_taggable_slot_is_checked_in_and_the_next_out() {
        let last = (SLOT_LIMIT - 1) as usize;
        assert_eq!(checked_slot(last), Some(last as u32));
        assert_eq!(checked_slot(last + 1), None);
        assert_eq!(checked_slot(usize::MAX), None);
    }

    #[test]
    fn stage_bytes_round_trip() {
        for v in 1..=15u8 {
            assert_eq!(Stage::from_u8(v).to_u8(), v);
        }
    }
}
