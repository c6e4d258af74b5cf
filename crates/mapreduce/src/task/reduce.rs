//! Reduce task state machine.
//!
//! A reducer's life: JVM start → shuffle (fetch every map's partition
//! segment with up to `mapred.reduce.parallel.copies` concurrent fetches,
//! spilling to disk when the in-memory buffer fills) → final merge →
//! the reduce function → output (discarded by `NullOutputFormat`).
//!
//! Each fetch is a pipeline: an uncached fraction of the segment is read
//! from the source node's disks, the bytes cross the network as one flow,
//! and — on the socket path — both endpoints pay protocol CPU. The
//! RDMA/MRoIB engine skips the CPU charge and overlaps merging (see
//! [`crate::shuffle::rdma`]).
//!
//! Fetches can fail: the fault plan injects fetch failures, and node
//! crashes invalidate in-flight transfers from the lost node. Failed
//! fetches retry with exponential backoff (Hadoop's
//! `ShuffleScheduler`/`Fetcher` penalty box); when a map's segment stays
//! unfetchable past `fetch_max_retries`, the whole reduce attempt reports
//! failure to the engine, exactly like a crashed attempt.

use std::collections::{BTreeMap, VecDeque};

use cluster::IoKind;
use simcore::time::{SimDuration, SimTime};
use simcore::trace::Trace;
use simcore::units::ByteSize;
use simnet::NodeId;

use super::{phase, tag, Env, Note, PhaseCursor, Stage, SINK_TAG};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum State {
    Jvm,
    Shuffling,
    MergeRead,
    MergeCpu,
    ReduceCpu,
    OutWrite,
    Done,
}

#[derive(Clone, Copy, Debug)]
struct Fetch {
    map: u32,
    src: usize,
    bytes: u64,
    records: u64,
}

/// A reduce task attempt in flight.
pub(crate) struct ReduceTask {
    /// Reduce index.
    pub index: u32,
    /// Attempt slot id (correlation-tag key).
    pub slot: u32,
    /// Slave node.
    pub node: usize,
    /// Launch time.
    pub start: SimTime,
    /// Completion time.
    pub finish: Option<SimTime>,
    /// When the last fetch landed.
    pub shuffle_end: Option<SimTime>,
    state: State,
    num_maps: u32,
    enqueued: Vec<bool>,
    /// Segments fully copied (survive a later loss of the source node).
    fetched: Vec<bool>,
    /// Failed tries per map segment, for retry backoff and the give-up
    /// threshold.
    fetch_tries: Vec<u32>,
    pending: VecDeque<u32>,
    in_flight: u32,
    fetched_maps: u32,
    next_seq: u32,
    // Keyed access only, but BTreeMap keeps any future iteration
    // deterministic by construction.
    fetches: BTreeMap<u32, Fetch>,
    mem_bytes: u64,
    spilled_bytes: u64,
    spills_outstanding: u32,
    input_bytes: u64,
    input_records: u64,
    /// Bytes of reduce output to write (0 for NullOutputFormat).
    output_write_bytes: u64,
    /// Deterministic per-task runtime variability factor.
    jitter: f64,
    /// Injected fault: the attempt runs its whole pipeline, then dies at
    /// commit instead of completing.
    doomed: bool,
    /// Open phase span, for tracing.
    cursor: PhaseCursor,
    /// Bytes landed per map segment, for the shuffle byte-conservation
    /// invariant (map bytes out == reduce bytes in, per partition).
    #[cfg(any(test, feature = "invariants"))]
    fetched_bytes: Vec<u64>,
}

impl ReduceTask {
    /// Create the task and submit its JVM start.
    #[allow(clippy::too_many_arguments)]
    pub fn launch(
        index: u32,
        slot: u32,
        node: usize,
        attempt: u32,
        num_maps: u32,
        output_write_bytes: u64,
        jitter: f64,
        doomed: bool,
        env: &mut Env<'_>,
    ) -> ReduceTask {
        let task = ReduceTask {
            index,
            slot,
            node,
            start: env.now,
            finish: None,
            shuffle_end: None,
            state: State::Jvm,
            num_maps,
            enqueued: vec![false; num_maps as usize],
            fetched: vec![false; num_maps as usize],
            fetch_tries: vec![0; num_maps as usize],
            pending: VecDeque::new(),
            in_flight: 0,
            fetched_maps: 0,
            next_seq: 0,
            fetches: BTreeMap::new(),
            mem_bytes: 0,
            spilled_bytes: 0,
            spills_outstanding: 0,
            input_bytes: 0,
            input_records: 0,
            output_write_bytes,
            jitter,
            doomed,
            cursor: PhaseCursor::new("reduce", index, attempt, node, slot, env.now),
            #[cfg(any(test, feature = "invariants"))]
            fetched_bytes: vec![0; num_maps as usize],
        };
        env.cpu.submit(
            env.now,
            node,
            env.costs.jvm_startup_s * jitter,
            tag(slot, Stage::Jvm, 0),
        );
        task
    }

    /// The engine calls this when a map output commits (and once per
    /// already-committed map right after the reducer's JVM starts).
    pub fn on_map_output(&mut self, map: u32, env: &mut Env<'_>) {
        if self.enqueued[map as usize] {
            return;
        }
        self.enqueued[map as usize] = true;
        self.pending.push_back(map);
        if self.state == State::Shuffling {
            self.start_fetches(env);
        }
    }

    /// The engine calls this when a node crash makes `map`'s output
    /// unfetchable. Segments already copied are kept (the classic
    /// "reducers that finished copying are unaffected" semantics);
    /// queued fetches are withdrawn until the map re-commits; in-flight
    /// transfers are left to fail their validity check on completion.
    pub fn on_map_output_lost(&mut self, map: u32) {
        let m = map as usize;
        if self.fetched[m] || !self.enqueued[m] {
            return;
        }
        if let Some(pos) = self.pending.iter().position(|&x| x == map) {
            self.pending.remove(pos);
            self.enqueued[m] = false;
        }
        // Otherwise the fetch is in flight (or parked on a retry timer);
        // its completion path re-validates against the registry.
    }

    /// Handle a completion routed to this task.
    pub fn on_event(&mut self, stage: Stage, seq: u32, env: &mut Env<'_>) {
        match (self.state, stage) {
            (State::Jvm, Stage::Jvm) => {
                self.state = State::Shuffling;
                self.cursor.switch(env.trace, env.now, phase::SHUFFLE, 0);
                // Pick up everything committed before we started.
                for map in 0..self.num_maps {
                    if env.registry.output(map).is_some() {
                        self.on_map_output(map, env);
                    }
                }
                self.start_fetches(env);
                self.maybe_finish_shuffle(env);
            }
            (State::Shuffling, Stage::FetchSrcRead) => {
                if !self.fetch_still_valid(seq, env) {
                    self.abandon_fetch(seq, env);
                    return;
                }
                let f = self.fetches[&seq];
                self.start_flow(seq, f, env);
            }
            (State::Shuffling, Stage::FetchNet) => {
                if !self.fetch_still_valid(seq, env) {
                    self.abandon_fetch(seq, env);
                    return;
                }
                let f = self.fetches[&seq];
                let remote = f.src != self.node;
                if remote && env.shuffle_model.charges_protocol_cpu {
                    let cost = env.protocol.cpu_seconds_for(f.bytes);
                    // Sender side is cheap: the shuffle server responds
                    // with sendfile(2), so the payload never crosses the
                    // sender's user space.
                    let send_cost = cost * 0.25;
                    env.cpu.submit(env.now, f.src, send_cost, SINK_TAG);
                    env.counters.protocol_cpu_seconds += cost + send_cost;
                    // Receiver side: the fetch isn't done until the socket
                    // stack has copied the payload up.
                    env.cpu.submit(
                        env.now,
                        self.node,
                        cost,
                        tag(self.slot, Stage::FetchCpu, seq),
                    );
                } else {
                    self.finish_fetch(seq, env);
                }
            }
            (State::Shuffling, Stage::FetchCpu) => {
                self.finish_fetch(seq, env);
            }
            (State::Shuffling, Stage::FetchRetry) => {
                self.retry_fetch(seq, env);
            }
            (_, Stage::ReduceSpillWrite) => {
                self.spills_outstanding -= 1;
                if self.state == State::Shuffling {
                    // Backpressure released: resume fetching.
                    self.start_fetches(env);
                }
                self.maybe_finish_shuffle(env);
            }
            (State::MergeRead, Stage::ReduceMergeRead) => {
                // Spilled shuffle segments are deleted after the merge.
                env.disk
                    .discard_writeback(self.node, ByteSize::from_bytes(self.spilled_bytes));
                self.state = State::MergeCpu;
                self.submit_merge_cpu(env);
            }
            (State::MergeCpu, Stage::ReduceMergeCpu) => {
                self.state = State::ReduceCpu;
                self.cursor
                    .switch(env.trace, env.now, phase::REDUCE, self.input_bytes);
                let work = env.costs.reduce(
                    self.input_records,
                    self.input_bytes,
                    env.spec.data_type.cpu_factor(),
                ) * self.jitter
                    * (1.0 - env.shuffle_model.reduce_overlap);
                env.counters.cpu_core_seconds += work;
                env.cpu.submit(
                    env.now,
                    self.node,
                    work,
                    tag(self.slot, Stage::ReduceCpu, 0),
                );
            }
            (State::ReduceCpu, Stage::ReduceCpu) => {
                if self.output_write_bytes > 0 {
                    self.state = State::OutWrite;
                    self.cursor
                        .switch(env.trace, env.now, phase::OUTPUT, self.input_bytes);
                    env.counters.disk_write_bytes += self.output_write_bytes;
                    env.disk.submit_cached(
                        env.now,
                        self.node,
                        ByteSize::from_bytes(self.output_write_bytes),
                        IoKind::Write,
                        tag(self.slot, Stage::ReduceOutWrite, 0),
                    );
                } else {
                    self.complete(env);
                }
            }
            (State::OutWrite, Stage::ReduceOutWrite) => {
                self.complete(env);
            }
            (state, stage) => panic!("reduce {}: unexpected {stage:?} in {state:?}", self.index),
        }
    }

    fn start_fetches(&mut self, env: &mut Env<'_>) {
        // Merge backpressure (mapred.job.shuffle.merge.percent): while an
        // in-memory merge is draining to disk, the fetchers stall.
        if self.spills_outstanding > 0 {
            return;
        }
        while self.in_flight < env.conf.shuffle_parallel_copies {
            let Some(map) = self.pending.pop_front() else {
                break;
            };
            let out = env.registry.output(map).expect("enqueued output exists");
            // Empty partitions still carry their IFile segment overhead
            // (EOF marker + checksum) and are fetched like any other --
            // Hadoop's fetcher always requests every assigned segment.
            let bytes = out.partition_bytes[self.index as usize];
            let records = out.partition_records[self.index as usize];
            let src = out.node;
            let seq = self.next_seq;
            self.next_seq += 1;
            self.fetches.insert(
                seq,
                Fetch {
                    map,
                    src,
                    bytes,
                    records,
                },
            );
            self.in_flight += 1;
            self.try_fetch(seq, env);
        }
        self.maybe_finish_shuffle(env);
    }

    /// Attempt the transfer for fetch `seq`, first consulting the fault
    /// plan: an injected failure goes to the backoff timer (or, past the
    /// retry budget, fails the whole attempt).
    fn try_fetch(&mut self, seq: u32, env: &mut Env<'_>) {
        let f = self.fetches[&seq];
        let m = f.map as usize;
        if env
            .faults
            .fetch_fails(self.index, f.map, self.fetch_tries[m])
        {
            self.fetch_tries[m] += 1;
            env.counters.failed_fetches += 1;
            if self.fetch_tries[m] >= env.conf.fetch_max_retries {
                // Hadoop: a reducer that cannot shuffle reports itself
                // failed so the scheduler can act.
                env.notes.push(Note::AttemptFailed { slot: self.slot });
                return;
            }
            let backoff = env.conf.fetch_retry_base_s
                * f64::powi(2.0, (self.fetch_tries[m] - 1) as i32)
                * env.shuffle_model.retry_backoff_scale;
            env.timers.schedule(
                env.now.saturating_add(SimDuration::from_secs_f64(backoff)),
                tag(self.slot, Stage::FetchRetry, seq),
            );
            return;
        }
        let disk_bytes = (f.bytes as f64 * env.registry.disk_miss_fraction(f.src)) as u64;
        if disk_bytes > 0 {
            env.counters.disk_read_bytes += disk_bytes;
            env.disk.submit(
                env.now,
                f.src,
                ByteSize::from_bytes(disk_bytes),
                IoKind::Read,
                tag(self.slot, Stage::FetchSrcRead, seq),
            );
        } else {
            self.start_flow(seq, f, env);
        }
    }

    /// A backoff timer expired: re-resolve the segment (its map may have
    /// re-run elsewhere after a crash) and try again.
    fn retry_fetch(&mut self, seq: u32, env: &mut Env<'_>) {
        let map = self.fetches[&seq].map;
        match env.registry.output(map) {
            Some(out) => {
                let refreshed = Fetch {
                    map,
                    src: out.node,
                    bytes: out.partition_bytes[self.index as usize],
                    records: out.partition_records[self.index as usize],
                };
                self.fetches.insert(seq, refreshed);
                self.try_fetch(seq, env);
            }
            None => {
                // The source crashed while we were backing off; wait for
                // the map's re-execution to announce itself.
                self.fetches.remove(&seq);
                self.in_flight -= 1;
                self.enqueued[map as usize] = false;
                self.start_fetches(env);
            }
        }
    }

    /// Is the segment this fetch was started against still the one the
    /// registry advertises? False after the source node crashed.
    fn fetch_still_valid(&self, seq: u32, env: &Env<'_>) -> bool {
        let f = self.fetches[&seq];
        env.registry.output(f.map).is_some_and(|o| o.node == f.src)
    }

    /// Drop a fetch whose source vanished mid-transfer and reschedule the
    /// segment if (or when) its map re-commits.
    fn abandon_fetch(&mut self, seq: u32, env: &mut Env<'_>) {
        let f = self.fetches.remove(&seq).expect("fetch exists");
        self.in_flight -= 1;
        env.counters.failed_fetches += 1;
        self.enqueued[f.map as usize] = false;
        if env.registry.output(f.map).is_some() {
            // Already re-registered (the map re-ran faster than our
            // transfer failed): re-enqueue immediately.
            self.on_map_output(f.map, env);
        } else {
            self.start_fetches(env);
        }
    }

    fn start_flow(&mut self, seq: u32, f: Fetch, env: &mut Env<'_>) {
        env.net.start_flow(
            env.now,
            NodeId(f.src),
            NodeId(self.node),
            ByteSize::from_bytes(f.bytes),
            tag(self.slot, Stage::FetchNet, seq),
        );
    }

    fn finish_fetch(&mut self, seq: u32, env: &mut Env<'_>) {
        let f = self.fetches.remove(&seq).expect("fetch exists");
        self.in_flight -= 1;
        self.fetched_maps += 1;
        self.fetched[f.map as usize] = true;
        self.shuffle_end = Some(env.now);
        env.counters.shuffled_fetches += 1;
        if f.src == self.node {
            env.counters.local_shuffle_bytes += f.bytes;
        } else {
            env.counters.remote_shuffle_bytes += f.bytes;
        }
        self.input_bytes += f.bytes;
        self.input_records += f.records;
        self.mem_bytes += f.bytes;
        #[cfg(any(test, feature = "invariants"))]
        {
            self.fetched_bytes[f.map as usize] = f.bytes;
        }

        let buffer =
            (env.conf.shuffle_buffer.as_bytes() as f64 * env.shuffle_model.buffer_boost) as u64;
        if self.mem_bytes >= buffer {
            // In-memory segments merge onto disk.
            let bytes = self.mem_bytes;
            self.mem_bytes = 0;
            self.spilled_bytes += bytes;
            self.spills_outstanding += 1;
            env.counters.disk_write_bytes += bytes;
            env.counters.spilled_records_reduce += bytes / env.spec.record_ifile_len().max(1);
            env.disk.submit_cached(
                env.now,
                self.node,
                ByteSize::from_bytes(bytes),
                IoKind::Write,
                tag(self.slot, Stage::ReduceSpillWrite, 0),
            );
        }
        self.start_fetches(env);
    }

    fn maybe_finish_shuffle(&mut self, env: &mut Env<'_>) {
        if self.state != State::Shuffling
            || self.fetched_maps < self.num_maps
            || self.spills_outstanding != 0
        {
            return;
        }
        // Shuffle byte conservation: what the maps advertised for this
        // partition is exactly what landed here, segment by segment. A
        // mismatch means a fetch was double-counted, dropped, or served
        // from a stale registry entry.
        #[cfg(any(test, feature = "invariants"))]
        {
            let landed: u64 = self.fetched_bytes.iter().sum();
            assert!(
                landed == self.input_bytes,
                "invariant violated: reduce {} shuffled {} bytes but accounted {} — \
                 per-segment and total byte accounting diverged",
                self.index,
                landed,
                self.input_bytes,
            );
            for map in 0..self.num_maps {
                if let Some(out) = env.registry.output(map) {
                    let advertised = out.partition_bytes[self.index as usize];
                    assert!(
                        self.fetched_bytes[map as usize] == advertised,
                        "invariant violated: reduce {} landed {} bytes of map {}'s \
                         partition but the registry advertises {advertised}",
                        self.index,
                        self.fetched_bytes[map as usize],
                        map,
                    );
                }
            }
        }
        // Final merge: only the un-overlapped remainder of the spilled
        // data still needs to come back from disk.
        let read_back =
            (self.spilled_bytes as f64 * (1.0 - env.shuffle_model.merge_overlap)) as u64;
        self.cursor
            .switch(env.trace, env.now, phase::REDUCE_MERGE, self.input_bytes);
        if read_back > 0 {
            self.state = State::MergeRead;
            env.counters.disk_read_bytes += read_back;
            env.disk.submit_cached(
                env.now,
                self.node,
                ByteSize::from_bytes(read_back),
                IoKind::Read,
                tag(self.slot, Stage::ReduceMergeRead, 0),
            );
        } else {
            self.state = State::MergeCpu;
            self.submit_merge_cpu(env);
        }
    }

    fn submit_merge_cpu(&mut self, env: &mut Env<'_>) {
        let merged = (self.input_bytes as f64 * (1.0 - env.shuffle_model.merge_overlap)) as u64;
        let work = env.costs.merge(merged) * self.jitter;
        env.counters.cpu_core_seconds += work;
        env.cpu.submit(
            env.now,
            self.node,
            work,
            tag(self.slot, Stage::ReduceMergeCpu, 0),
        );
    }

    fn complete(&mut self, env: &mut Env<'_>) {
        if self.doomed {
            // The injected fault strikes at commit: the whole attempt —
            // fetches, merges, the reduce function — is wasted.
            env.notes.push(Note::AttemptFailed { slot: self.slot });
            return;
        }
        let phase_bytes = if self.cursor.current() == phase::OUTPUT {
            self.output_write_bytes
        } else {
            self.input_bytes
        };
        self.cursor.close(env.trace, env.now, phase_bytes, false);
        self.state = State::Done;
        self.finish = Some(env.now);
        env.counters.reduces_completed += 1;
        // Input records are charged by the winning attempt only, so
        // speculation cannot double-count them.
        env.counters.reduce_input_records += self.input_records;
        env.notes.push(Note::TaskFinished { slot: self.slot });
    }

    /// Close the open phase span with an `aborted` marker — called by the
    /// engine when the attempt is killed or fails before completing.
    pub fn abort_span(&mut self, now: SimTime, trace: &mut Trace) {
        if self.state != State::Done {
            self.cursor.close(trace, now, 0, true);
        }
    }

    /// True once the reduce completed.
    pub fn is_done(&self) -> bool {
        self.state == State::Done
    }
}
