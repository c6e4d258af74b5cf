//! Map task state machine.
//!
//! A map task in the stand-alone benchmark reads one dummy record from its
//! `NullInputFormat` split and generates `pairs_per_map` key/value pairs
//! into the sort buffer, spilling sorted runs to local disk every
//! `io.sort.mb * io.sort.spill.percent` bytes. Spill writes are
//! asynchronous (Hadoop's SpillThread) and overlap record generation.
//! When more than one spill exists, a final multi-pass merge produces the
//! single map output file the shuffle serves.
//!
//! ```text
//! Jvm ─ chunk0 cpu ─ chunk1 cpu ─ … ─┬─ (all spill writes) ─┐
//!          └─ spill0 write ──────────┘                      │
//!                         MergeRead ─ MergeCpu ─ MergeWrite ┴─ commit
//! ```

use cluster::IoKind;
use simcore::time::SimTime;
use simcore::trace::Trace;
use simcore::units::ByteSize;

use super::{phase, tag, Env, Note, PhaseCursor, Stage};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum State {
    Jvm,
    Collecting,
    AwaitSpills,
    MergeRead,
    MergeCpu,
    MergeWrite,
    Done,
}

/// A map task attempt in flight.
pub(crate) struct MapTask {
    /// Attempt slot id (correlation-tag key).
    pub slot: u32,
    /// Map index.
    pub index: u32,
    /// Slave node.
    pub node: usize,
    /// Launch time.
    pub start: SimTime,
    /// Completion time.
    pub finish: Option<SimTime>,
    state: State,
    /// Per-chunk serialized bytes (spill-sized).
    chunk_bytes: Vec<u64>,
    /// Per-chunk record counts.
    chunk_records: Vec<u64>,
    next_chunk: usize,
    spills_outstanding: u32,
    collect_done: bool,
    /// Total output bytes across partitions.
    out_bytes: u64,
    /// Deterministic per-task runtime variability factor (JIT, GC, OS
    /// noise), applied to all CPU work.
    jitter: f64,
    /// Injected fault: the attempt runs its whole pipeline, then dies at
    /// commit instead of registering its output.
    doomed: bool,
    /// Bytes passing through the final merge (intermediate merge rounds
    /// plus the final pass over everything).
    merge_bytes: u64,
    /// Open phase span, for tracing.
    cursor: PhaseCursor,
}

impl MapTask {
    /// Create the task and submit its JVM start.
    pub fn launch(
        slot: u32,
        index: u32,
        node: usize,
        attempt: u32,
        jitter: f64,
        doomed: bool,
        env: &mut Env<'_>,
    ) -> MapTask {
        let out_bytes = env.spec.map_output_bytes();
        let records = env.spec.pairs_per_map;

        // Spill chunking over the sort buffer.
        let spill = env.conf.spill_threshold().as_bytes().max(1);
        let n_chunks = out_bytes.div_ceil(spill).max(1);
        let mut chunk_bytes = Vec::with_capacity(n_chunks as usize);
        let mut chunk_records = Vec::with_capacity(n_chunks as usize);
        let mut rem_b = out_bytes;
        let mut rem_r = records;
        for i in 0..n_chunks {
            let b = if i + 1 == n_chunks {
                rem_b
            } else {
                spill.min(rem_b)
            };
            let r = if i + 1 == n_chunks {
                rem_r
            } else {
                (records as u128 * b as u128 / out_bytes.max(1) as u128) as u64
            };
            rem_b -= b;
            rem_r -= r;
            chunk_bytes.push(b);
            chunk_records.push(r);
        }

        let merge_bytes = if n_chunks > 1 {
            merge_traffic(&chunk_bytes, env.conf.io_sort_factor)
        } else {
            0
        };

        let task = MapTask {
            slot,
            index,
            node,
            start: env.now,
            finish: None,
            state: State::Jvm,
            chunk_bytes,
            chunk_records,
            next_chunk: 0,
            spills_outstanding: 0,
            collect_done: false,
            out_bytes,
            merge_bytes,
            jitter,
            doomed,
            cursor: PhaseCursor::new("map", index, attempt, node, slot, env.now),
        };
        env.cpu.submit(
            env.now,
            node,
            env.costs.jvm_startup_s * jitter,
            tag(slot, Stage::Jvm, 0),
        );
        task
    }

    /// Handle a completion routed to this task.
    pub fn on_event(&mut self, stage: Stage, seq: u32, env: &mut Env<'_>) {
        match (self.state, stage) {
            (State::Jvm, Stage::Jvm) => {
                env.counters.map_input_records += 1; // the dummy split record
                self.state = State::Collecting;
                self.cursor.switch(env.trace, env.now, phase::MAP, 0);
                self.submit_chunk(env);
            }
            (State::Collecting, Stage::MapChunkCpu) => {
                let idx = seq as usize;
                // Spill the chunk asynchronously.
                let bytes = self.chunk_bytes[idx];
                env.disk.submit_cached(
                    env.now,
                    self.node,
                    ByteSize::from_bytes(bytes),
                    IoKind::Write,
                    tag(self.slot, Stage::MapSpillWrite, seq),
                );
                self.spills_outstanding += 1;
                env.counters.spilled_records_map += self.chunk_records[idx];
                env.counters.disk_write_bytes += bytes;

                self.next_chunk += 1;
                if self.next_chunk < self.chunk_bytes.len() {
                    self.submit_chunk(env);
                } else {
                    self.collect_done = true;
                    self.state = State::AwaitSpills;
                    self.maybe_finish_collect(env);
                }
            }
            (_, Stage::MapSpillWrite) => {
                self.spills_outstanding -= 1;
                self.maybe_finish_collect(env);
            }
            (State::MergeRead, Stage::MapMergeRead) => {
                self.state = State::MergeCpu;
                env.cpu.submit(
                    env.now,
                    self.node,
                    env.costs.merge(self.merge_bytes) * self.jitter,
                    tag(self.slot, Stage::MapMergeCpu, 0),
                );
            }
            (State::MergeCpu, Stage::MapMergeCpu) => {
                self.state = State::MergeWrite;
                env.counters.disk_write_bytes += self.merge_bytes;
                env.disk.submit_cached(
                    env.now,
                    self.node,
                    ByteSize::from_bytes(self.merge_bytes),
                    IoKind::Write,
                    tag(self.slot, Stage::MapMergeWrite, 0),
                );
            }
            (State::MergeWrite, Stage::MapMergeWrite) => {
                // Spill files are deleted after the merge; drop any of
                // their write-back still queued.
                env.disk
                    .discard_writeback(self.node, ByteSize::from_bytes(self.out_bytes));
                self.commit(env);
            }
            (state, stage) => {
                panic!("map {}: unexpected {stage:?} in {state:?}", self.index)
            }
        }
    }

    fn submit_chunk(&mut self, env: &mut Env<'_>) {
        let idx = self.next_chunk;
        let records = self.chunk_records[idx];
        let bytes = self.chunk_bytes[idx];
        let work = (env
            .costs
            .map_collect(records, bytes, env.spec.data_type.cpu_factor())
            + env.costs.sort(records))
            * self.jitter;
        env.counters.cpu_core_seconds += work;
        env.cpu.submit(
            env.now,
            self.node,
            work,
            tag(self.slot, Stage::MapChunkCpu, idx as u32),
        );
    }

    fn maybe_finish_collect(&mut self, env: &mut Env<'_>) {
        if !(self.collect_done && self.spills_outstanding == 0) {
            return;
        }
        if self.state != State::AwaitSpills {
            return;
        }
        if self.chunk_bytes.len() > 1 {
            // Final merge of the spill files.
            self.state = State::MergeRead;
            self.cursor
                .switch(env.trace, env.now, phase::MAP_MERGE, self.out_bytes);
            env.counters.disk_read_bytes += self.merge_bytes;
            env.counters.cpu_core_seconds += env.costs.merge(self.merge_bytes);
            env.disk.submit_cached(
                env.now,
                self.node,
                ByteSize::from_bytes(self.merge_bytes),
                IoKind::Read,
                tag(self.slot, Stage::MapMergeRead, 0),
            );
        } else {
            // A single spill is already the final output file.
            self.commit(env);
        }
    }

    fn commit(&mut self, env: &mut Env<'_>) {
        if self.doomed {
            // The injected fault strikes during commit: all the attempt's
            // work (already charged to the physical counters) is wasted,
            // and nothing is registered for reducers to fetch.
            env.notes.push(Note::AttemptFailed { slot: self.slot });
            return;
        }
        if !env.registry.register(self.index, self.node) {
            // A sibling (speculative) attempt committed first. First-wins:
            // this attempt's output is dropped and the engine retires it
            // as killed, charging nothing to the logical counters.
            env.notes.push(Note::AttemptSuperseded { slot: self.slot });
            return;
        }
        let phase_bytes = if self.cursor.current() == phase::MAP {
            self.out_bytes
        } else {
            self.merge_bytes
        };
        self.cursor.close(env.trace, env.now, phase_bytes, false);
        self.state = State::Done;
        self.finish = Some(env.now);
        env.counters.maps_completed += 1;
        // Logical output counters are charged at commit (and reversed if a
        // node crash later invalidates the output), so re-executed and
        // killed attempts never inflate them.
        let records = env.spec.pairs_per_map;
        env.counters.map_output_records += records;
        let raw = (env.spec.key_size + env.spec.value_size) as u64 * records;
        env.counters.map_output_bytes += raw;
        env.counters.map_output_materialized_bytes += self.out_bytes;
        env.notes.push(Note::MapOutputReady { slot: self.slot });
        env.notes.push(Note::TaskFinished { slot: self.slot });
    }

    /// Close the open phase span with an `aborted` marker — called by the
    /// engine when the attempt is killed or fails before committing.
    pub fn abort_span(&mut self, now: SimTime, trace: &mut Trace) {
        if self.state != State::Done {
            self.cursor.close(trace, now, 0, true);
        }
    }

    /// True once the task committed.
    pub fn is_done(&self) -> bool {
        self.state == State::Done
    }
}

/// Total bytes read (and equally written) by a `factor`-way merge of the
/// given runs: Hadoop's `Merger` first collapses the *smallest* runs in
/// intermediate rounds until at most `factor` remain, then the final pass
/// streams everything into the output file. The returned figure includes
/// the final pass.
fn merge_traffic(runs: &[u64], factor: u32) -> u64 {
    let factor = (factor.max(2)) as usize;
    let total: u64 = runs.iter().sum();
    let mut sizes: Vec<u64> = runs.to_vec();
    sizes.sort_unstable_by(|a, b| b.cmp(a)); // descending; pop() takes smallest
    let mut intermediate = 0u64;
    while sizes.len() > factor {
        // Merge just enough of the smallest runs to approach `factor`.
        let k = factor.min(sizes.len() - factor + 1);
        let mut merged = 0u64;
        for _ in 0..k {
            merged += sizes.pop().expect("len > factor >= k");
        }
        intermediate += merged;
        // Re-insert the merged run, keeping descending order.
        let pos = sizes.partition_point(|&s| s > merged);
        sizes.insert(pos, merged);
    }
    intermediate + total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_traffic_final_pass_only_when_few_runs() {
        // <= factor runs: just the final pass.
        assert_eq!(merge_traffic(&[80, 80, 80], 10), 240);
        assert_eq!(merge_traffic(&[100], 10), 100);
    }

    #[test]
    fn merge_traffic_intermediate_round() {
        // 13 equal runs, factor 10: one intermediate merge of the 4
        // smallest (13 - 10 + 1), then the final pass over everything.
        let runs = vec![80u64; 13];
        assert_eq!(merge_traffic(&runs, 10), 4 * 80 + 13 * 80);
    }

    #[test]
    fn merge_traffic_prefers_small_runs() {
        // The intermediate round must pick the smallest runs.
        let runs = vec![1000, 1000, 10, 10, 10];
        // factor 4: k = min(4, 5-4+1) = 2 smallest (10+10) merged.
        assert_eq!(merge_traffic(&runs, 4), 20 + 2030);
    }

    #[test]
    fn merge_traffic_many_rounds() {
        let runs = vec![1u64; 100];
        let t = merge_traffic(&runs, 10);
        // 100 runs need several intermediate rounds but traffic stays far
        // below quadratic.
        assert!(t > 100 && t < 300, "traffic {t}");
    }
}
