//! Closed-form analytic cost model — the suite's second backend.
//!
//! Where [`crate::engine`] replays the MapReduce pipeline event by event,
//! this module evaluates Herodotou-style per-phase cost equations
//! ("Hadoop Performance Models", arXiv:1106.0940) directly: map
//! collect/sort/spill/merge CPU from the calibrated [`CostModel`], shuffle
//! volume per reducer from the benchmark's expected partition fractions
//! (the Ceesay et al. shuffle-volume observation: volume alone is enough
//! to rank interconnects), network time as the max over per-NIC,
//! rack-uplink, and fabric bottleneck terms from the [`Topology`], and a
//! reduce merge/reduce/write tail on the straggler reducer.
//!
//! One job evaluates in O(M + R) arithmetic — microseconds instead of the
//! DES's millions of events — producing a [`JobResult`] that slots into
//! the same mrbench-artifact-v1 reports, stores, and sweeps. The price is
//! per-task fidelity: no fault injection, no speculation, no per-fetch
//! backpressure. Callers needing those must use the DES; the
//! cross-validation suite (`tests/cross_validation.rs` at the workspace
//! root) pins this model to the simulator within per-figure error bands.
//!
//! Every equation is deliberately *monotone*: job time never decreases
//! when data grows and never increases when slaves are added (locality
//! discounts that would break the latter are applied to counters only,
//! never to time terms). The scale-monotonicity property test relies on
//! this.

use cluster::NodeSpec;
use simcore::stats::TimeSeries;
use simcore::time::{SimDuration, SimTime};
use simcore::trace::{Span, Trace};
use simnet::Topology;

use crate::conf::EngineKind;
use crate::costs::CostModel;
use crate::counters::Counters;
use crate::faults::JobOutcome;
use crate::ifile;
use crate::job::{JobResult, JobSpec, TaskTiming};
use crate::schedule::{page_cache_budget, yarn_pool};
use crate::shuffle::rdma::ShuffleModel;
use crate::task::phase;

/// Everything the closed-form evaluation needs. The reduce fractions are
/// supplied by the caller because the benchmark definitions (MR-AVG /
/// MR-RAND / MR-SKEW / MR-ZIPF) live above this crate; see
/// `mrbench::runner::expected_reduce_fractions`.
#[derive(Debug)]
pub struct AnalyticJob<'a> {
    /// Workload description (task counts, record geometry, conf).
    pub spec: &'a JobSpec,
    /// Slave hardware.
    pub node: &'a NodeSpec,
    /// Cluster fabric (NIC rates, racks, fabric cap).
    pub topology: &'a Topology,
    /// Expected fraction of intermediate records routed to each reducer;
    /// length must equal `num_reduces`. Need not sum to exactly 1 — the
    /// evaluation normalizes — but every entry must be finite and >= 0.
    pub reduce_fractions: Vec<f64>,
    /// Record phase spans and emit a [`simcore::trace::PhaseBreakdown`].
    pub trace: bool,
}

/// Evaluate the analytic model. Fails (with a human-readable reason) on
/// invalid specs or malformed fractions; never panics on valid input.
pub fn evaluate(job: &AnalyticJob<'_>) -> Result<JobResult, String> {
    job.spec.validate()?;
    let conf = &job.spec.conf;
    let n_reduces = conf.num_reduces as usize;
    if job.reduce_fractions.len() != n_reduces {
        return Err(format!(
            "expected {} reduce fractions, got {}",
            n_reduces,
            job.reduce_fractions.len()
        ));
    }
    if job
        .reduce_fractions
        .iter()
        .any(|f| !f.is_finite() || *f < 0.0)
    {
        return Err("reduce fractions must be finite and >= 0".into());
    }
    let frac_sum: f64 = job.reduce_fractions.iter().sum();
    if frac_sum <= 0.0 {
        return Err("reduce fractions must not all be zero".into());
    }
    Ok(Model::new(job, frac_sum).solve())
}

/// Aggregate sequential read/write bandwidth of a node's local disks.
fn disk_bw_bps(node: &NodeSpec) -> (f64, f64) {
    let read_bps: f64 = node
        .disks
        .iter()
        .map(|d| d.read_bw.as_bytes_per_sec())
        .sum();
    let write_bps: f64 = node
        .disks
        .iter()
        .map(|d| d.write_bw.as_bytes_per_sec())
        .sum();
    (read_bps.max(1.0), write_bps.max(1.0))
}

/// Concurrent task lanes per node, mirroring [`crate::schedule`]: MRv1
/// slot counts, or the YARN container pool (memory- and core-bounded).
fn lanes_per_node(conf: &crate::conf::JobConf, node: &NodeSpec) -> (u32, u32) {
    match conf.engine {
        EngineKind::MRv1 => (conf.map_slots_per_node, conf.reduce_slots_per_node),
        EngineKind::Yarn => {
            let pool = yarn_pool(conf, node);
            // Containers are shared; reducers occupy at most half the pool
            // while maps are still running (the scheduler's map priority).
            (pool, (pool / 2).max(1))
        }
    }
}

/// The fraction of the sender-side protocol charge the engine bills (the
/// receiver pays the full per-MiB cost, the sender a quarter of it).
const SENDER_PROTO_SHARE: f64 = 0.25;

/// Derived quantities shared by the phase equations.
struct Model<'a> {
    job: &'a AnalyticJob<'a>,
    costs: CostModel,
    shuffle: ShuffleModel,
    /// Normalized per-reducer byte shares (sum to 1).
    frac: Vec<f64>,
    n_slaves: usize,
    n_maps: u64,
    n_reduces: u64,
    /// IFile record-body bytes emitted by each map task.
    map_out_bytes: u64,
    /// Record-body shuffle volume across all maps.
    total_shuffle_bytes: u64,
    /// One NIC direction, bytes/s.
    nic_bps: f64,
    /// Aggregate local-disk read/write bandwidth per node, bytes/s.
    disk_read_bps: f64,
    disk_write_bps: f64,
    /// CPU speed factor relative to the calibrated Westmere baseline.
    speed: f64,
    /// Serialization cost factor of the data type.
    type_factor: f64,
}

/// Everything `solve` derives, grouped so the artifact assembly reads
/// like the timeline it encodes.
struct Timeline {
    map_task_s: f64,
    map_phase_end_s: f64,
    shuffle_end_s: f64,
    job_end_s: f64,
    /// Per-reducer [shuffle-done, finish] instants, seconds.
    reduce_done_s: Vec<(f64, f64)>,
    /// Per-reducer network transfer seconds (straggler == global).
    reduce_net_s: Vec<f64>,
}

impl<'a> Model<'a> {
    fn new(job: &'a AnalyticJob<'a>, frac_sum: f64) -> Self {
        let spec = job.spec;
        let conf = &spec.conf;
        let map_out_bytes = spec.record_ifile_len() * spec.pairs_per_map;
        let (disk_read_bps, disk_write_bps) = disk_bw_bps(job.node);
        Model {
            job,
            costs: CostModel::calibrated(),
            shuffle: ShuffleModel::for_kind(conf.shuffle_engine),
            frac: job.reduce_fractions.iter().map(|f| f / frac_sum).collect(),
            n_slaves: job.topology.n_nodes(),
            n_maps: u64::from(conf.num_maps),
            n_reduces: u64::from(conf.num_reduces),
            map_out_bytes,
            total_shuffle_bytes: map_out_bytes * u64::from(conf.num_maps),
            nic_bps: job.topology.nic_rate().as_bytes_per_sec().max(1.0),
            disk_read_bps,
            disk_write_bps,
            speed: job.node.speed.max(1e-6),
            type_factor: spec.data_type.cpu_factor(),
        }
    }

    /// Bytes shuffled to reducer `r` (record bodies).
    fn reduce_bytes(&self, r: usize) -> u64 {
        (self.frac[r] * self.total_shuffle_bytes as f64).round() as u64
    }

    /// Records shuffled to reducer `r`.
    fn reduce_records(&self, r: usize) -> u64 {
        (self.frac[r] * (self.n_maps * self.job.spec.pairs_per_map) as f64).round() as u64
    }

    /// The slave hosting reducer `r` (round-robin, as the scheduler's
    /// node rotation converges to).
    fn reduce_node(&self, r: usize) -> usize {
        r % self.n_slaves
    }

    /// Map-side cost: JVM start-up plus collect/sort CPU plus (when the
    /// output exceeds one sort-buffer spill) the multi-spill merge round.
    fn map_task_s(&self) -> f64 {
        let spec = self.job.spec;
        let conf = &spec.conf;
        let pairs = spec.pairs_per_map;
        let collect_s = self
            .costs
            .map_collect(pairs, self.map_out_bytes, self.type_factor)
            + self.costs.sort(pairs);
        let chunk_cap = conf.spill_threshold().as_bytes().max(1);
        let chunks = self.map_out_bytes.div_ceil(chunk_cap).max(1);
        let mut task_s = self.costs.jvm_startup_s + collect_s / self.speed;
        if chunks > 1 {
            // Final merge: read every spill back, merge-CPU it, write the
            // merged output. Spill writes themselves land in the page
            // cache and overlap the next chunk's sort.
            let merge_io_s = self.map_out_bytes as f64 / self.disk_read_bps
                + self.map_out_bytes as f64 / self.disk_write_bps;
            task_s += self.costs.merge(self.map_out_bytes) / self.speed + merge_io_s;
        }
        task_s
    }

    /// Sequential-lane schedule: `n_tasks` identical tasks of `task_s`
    /// seconds over `lanes` lanes starting at `start_s`; returns the
    /// per-task (start, finish) list. Closed form — `ceil` waves — but
    /// expressed per task so timings and traces fall out directly.
    fn lane_schedule(n_tasks: u64, lanes: u64, task_s: f64, start_s: f64) -> Vec<(f64, f64)> {
        (0..n_tasks)
            .map(|t| {
                let wave = (t / lanes) as f64;
                let s = start_s + wave * task_s;
                (s, s + task_s)
            })
            .collect()
    }

    /// Network time of the whole shuffle: the binding bottleneck among
    /// receiver NICs, sender NICs, reduce-side spill disks, rack uplinks,
    /// and the core fabric, plus per-fetch request latency.
    ///
    /// Deliberately conservative about locality: every shuffled byte is
    /// priced as if it crossed the receiver's NIC, so adding slaves can
    /// only relax these terms (scale monotonicity); the remote/local
    /// split shows up in the counters only.
    fn shuffle_net_s(&self) -> f64 {
        let conf = &self.job.spec.conf;
        let total = self.total_shuffle_bytes as f64;
        let s = self.n_slaves as f64;

        // Receiver side: reducers on one node share its NIC; past the
        // in-memory shuffle buffer they also share its disks for spills.
        let buffer_bytes =
            (conf.shuffle_buffer.as_bytes() as f64 * self.shuffle.buffer_boost) as u64;
        let mut ingest_bytes = vec![0u64; self.n_slaves];
        let mut spill_bytes = vec![0u64; self.n_slaves];
        for r in 0..self.n_reduces as usize {
            let b = self.reduce_bytes(r);
            let node = self.reduce_node(r);
            ingest_bytes[node] += b;
            spill_bytes[node] += b.saturating_sub(buffer_bytes);
        }
        let mut bottleneck_s = 0.0f64;
        for node in 0..self.n_slaves {
            let recv_s = ingest_bytes[node] as f64 / self.nic_bps;
            let spill_s = spill_bytes[node] as f64 / self.disk_write_bps;
            bottleneck_s = bottleneck_s.max(recv_s).max(spill_s);
        }

        // Sender side: each node serves ~1/S of the map output; bytes
        // beyond its page cache re-read from disk before they can leave.
        let out_per_node = total / s;
        let send_s = out_per_node * (1.0 - 1.0 / s) / self.nic_bps;
        let cache = page_cache_budget(conf, self.job.node).as_bytes() as f64;
        let uncached_s = (out_per_node - cache).max(0.0) / self.disk_read_bps;
        bottleneck_s = bottleneck_s.max(send_s).max(uncached_s);

        // Core fabric, if capped. No locality discount (see above).
        if let Some(cap) = self.job.topology.fabric_cap() {
            bottleneck_s = bottleneck_s.max(total / cap.as_bytes_per_sec().max(1.0));
        }

        // Rack uplinks, when oversubscribed: per rack, the heavier of the
        // inbound (to its reducers) and outbound (from its maps) volume
        // over the per-direction uplink capacity.
        if self.job.topology.rack_constrained() {
            let topo = self.job.topology;
            let mut down_bytes = vec![0u64; topo.n_racks()];
            for r in 0..self.n_reduces as usize {
                down_bytes[topo.rack_of(self.reduce_node(r))] += self.reduce_bytes(r);
            }
            for (rack, &down) in down_bytes.iter().enumerate() {
                let members = topo.rack_members(rack) as f64;
                let up = total * members / s;
                let cross = (down as f64).max(up);
                bottleneck_s = bottleneck_s.max(cross / topo.uplink_cap_bps(rack).max(1.0));
            }
        }

        // Per-fetch request latency, pipelined over the parallel copies.
        let fetch_rounds =
            (self.n_maps as f64 / f64::from(conf.shuffle_parallel_copies.max(1))).ceil();
        let latency_s = fetch_rounds * self.job.topology.protocol().msg_latency.as_secs_f64();

        // Endpoint protocol processing for socket engines: charged per
        // byte at the receiver (and a quarter at the sender). It runs on
        // the node's cores concurrently with the transfer, so it extends
        // the shuffle only by its per-core residual.
        let mut proto_s = 0.0;
        if self.shuffle.charges_protocol_cpu {
            let proto = self.job.topology.protocol();
            let worst_ingest = ingest_bytes.iter().copied().max().unwrap_or(0);
            let cpu_s = proto.cpu_seconds_for(worst_ingest) * (1.0 + SENDER_PROTO_SHARE);
            proto_s = cpu_s / (self.speed * f64::from(self.job.node.cores.max(1)));
        }

        bottleneck_s + latency_s + proto_s
    }

    /// Reduce tail of reducer `r` after its last fetch: final merge
    /// (disk and CPU, minus the pipelined-overlap credit), the reduce
    /// function (minus its overlap credit), and any output write.
    fn reduce_tail_s(&self, r: usize) -> f64 {
        let spec = self.job.spec;
        let conf = &spec.conf;
        let bytes = self.reduce_bytes(r);
        let records = self.reduce_records(r);
        let buffer_bytes =
            (conf.shuffle_buffer.as_bytes() as f64 * self.shuffle.buffer_boost) as u64;
        let spilled = bytes.saturating_sub(buffer_bytes);
        let merge_s = (self.costs.merge(bytes) / self.speed + spilled as f64 / self.disk_read_bps)
            * (1.0 - self.shuffle.merge_overlap);
        let reduce_s = self.costs.reduce(records, bytes, self.type_factor) / self.speed
            * (1.0 - self.shuffle.reduce_overlap);
        let out_s = bytes as f64 * spec.output_write_amplification / self.disk_write_bps;
        merge_s + reduce_s + out_s
    }

    fn timeline(&self) -> Timeline {
        let conf = &self.job.spec.conf;
        let (map_lanes, reduce_lanes) = lanes_per_node(conf, self.job.node);
        let map_task_s = self.map_task_s();
        let maps = Self::lane_schedule(
            self.n_maps,
            u64::from(map_lanes) * self.n_slaves as u64,
            map_task_s,
            self.costs.job_overhead_s,
        );
        let map_phase_end_s = maps.last().map_or(self.costs.job_overhead_s, |m| m.1);
        let map_waves = self
            .n_maps
            .div_ceil(u64::from(map_lanes) * self.n_slaves as u64);

        // Shuffle: outputs of all but the last map wave are fetchable
        // while later waves still run, so that fraction of the transfer
        // overlaps the map phase (bounded by the map time it can hide in).
        let net_s = self.shuffle_net_s();
        let early_frac = (map_waves - 1) as f64 / map_waves as f64;
        let overlap_s = (net_s * early_frac).min((map_waves - 1) as f64 * map_task_s);
        let post_map_net_s = net_s - overlap_s;

        // Straggler-scaled per-reducer transfers: the heaviest reducer
        // experiences the full aggregate bottleneck; lighter ones finish
        // proportionally sooner. Preserves per-figure orderings (the
        // MR-SKEW straggler is reducer 0) without a per-flow solve.
        let max_bytes = (0..self.n_reduces as usize)
            .map(|r| self.reduce_bytes(r))
            .max()
            .unwrap_or(0)
            .max(1);
        let lanes = (u64::from(reduce_lanes) * self.n_slaves as u64).max(1);
        let mut lane_free_s = vec![self.costs.job_overhead_s; lanes as usize];
        let mut reduce_done_s = Vec::with_capacity(self.n_reduces as usize);
        let mut reduce_net_s = Vec::with_capacity(self.n_reduces as usize);
        let mut shuffle_end_s = map_phase_end_s;
        let mut job_core_end_s = map_phase_end_s;
        for r in 0..self.n_reduces as usize {
            let lane = r % lanes as usize;
            let start_s = lane_free_s[lane];
            let net_r_s = post_map_net_s * (self.reduce_bytes(r) as f64 / max_bytes as f64);
            let fetch_done_s = (start_s + self.costs.jvm_startup_s).max(map_phase_end_s) + net_r_s;
            let finish_s = fetch_done_s + self.reduce_tail_s(r);
            lane_free_s[lane] = finish_s;
            shuffle_end_s = shuffle_end_s.max(fetch_done_s);
            job_core_end_s = job_core_end_s.max(finish_s);
            reduce_done_s.push((fetch_done_s, finish_s));
            reduce_net_s.push(net_r_s);
        }

        Timeline {
            map_task_s,
            map_phase_end_s,
            shuffle_end_s,
            job_end_s: job_core_end_s + self.costs.job_overhead_s,
            reduce_done_s,
            reduce_net_s,
        }
    }

    fn counters(&self) -> Counters {
        let spec = self.job.spec;
        let conf = &spec.conf;
        let pairs = spec.pairs_per_map;
        let records = self.n_maps * pairs;
        let payload = (spec.key_wire_len() + spec.value_wire_len()) as u64;
        let materialized =
            self.n_maps * (self.map_out_bytes + self.n_reduces * ifile::SEGMENT_OVERHEAD);
        let chunk_cap = conf.spill_threshold().as_bytes().max(1);
        let chunks = self.map_out_bytes.div_ceil(chunk_cap).max(1);
        let buffer_bytes =
            (conf.shuffle_buffer.as_bytes() as f64 * self.shuffle.buffer_boost) as u64;

        let mut c = Counters {
            map_input_records: self.n_maps,
            map_output_records: records,
            map_output_bytes: records * payload,
            map_output_materialized_bytes: materialized,
            shuffled_fetches: self.n_maps * self.n_reduces,
            reduce_input_records: records,
            maps_completed: self.n_maps,
            reduces_completed: self.n_reduces,
            ..Counters::default()
        };
        // Locality: with round-robin placement ~1/S of each reducer's
        // input comes from its own node.
        let local = (self.total_shuffle_bytes as f64 / self.n_slaves as f64) as u64;
        c.local_shuffle_bytes = local.min(self.total_shuffle_bytes);
        c.remote_shuffle_bytes = self.total_shuffle_bytes - c.local_shuffle_bytes;

        if chunks > 1 {
            c.spilled_records_map = records;
            // Spills written, then read back and rewritten by the merge.
            c.disk_write_bytes += 2 * self.n_maps * self.map_out_bytes;
            c.disk_read_bytes += self.n_maps * self.map_out_bytes;
        }
        let mut cpu_s = 0.0;
        cpu_s += self.n_maps as f64
            * (self
                .costs
                .map_collect(pairs, self.map_out_bytes, self.type_factor)
                + self.costs.sort(pairs));
        if chunks > 1 {
            cpu_s += self.n_maps as f64 * self.costs.merge(self.map_out_bytes);
        }
        for r in 0..self.n_reduces as usize {
            let bytes = self.reduce_bytes(r);
            let recs = self.reduce_records(r);
            let spilled = bytes.saturating_sub(buffer_bytes);
            if spilled > 0 {
                c.spilled_records_reduce += recs;
                c.disk_write_bytes += spilled;
                c.disk_read_bytes += spilled;
            }
            cpu_s += self.costs.merge(bytes) + self.costs.reduce(recs, bytes, self.type_factor);
            let out = (bytes as f64 * spec.output_write_amplification) as u64;
            c.disk_write_bytes += out;
        }
        c.cpu_core_seconds = cpu_s;
        if self.shuffle.charges_protocol_cpu {
            c.protocol_cpu_seconds = self
                .job
                .topology
                .protocol()
                .cpu_seconds_for(c.remote_shuffle_bytes)
                * (1.0 + SENDER_PROTO_SHARE);
        }
        c
    }

    /// Synthesized per-node utilization series: piecewise-constant CPU%
    /// and network-receive MB/s over the map / shuffle / tail windows,
    /// sampled at the monitor interval (coarsened past a cap so
    /// million-cell sweeps don't drown in samples).
    fn series(&self, tl: &Timeline) -> (Vec<TimeSeries>, Vec<TimeSeries>) {
        let cores = f64::from(self.job.node.cores.max(1));
        let map_window_s = (tl.map_phase_end_s - self.costs.job_overhead_s).max(1e-9);
        let shuffle_window_s = (tl.shuffle_end_s - tl.map_phase_end_s).max(1e-9);
        let tail_window_s = (tl.job_end_s - self.costs.job_overhead_s - tl.shuffle_end_s).max(1e-9);

        // Per-node ingest for the receive series.
        let mut ingest_bytes = vec![0u64; self.n_slaves];
        for r in 0..self.n_reduces as usize {
            ingest_bytes[self.reduce_node(r)] += self.reduce_bytes(r);
        }
        let c = self.counters();
        let map_cpu_s = self.n_maps as f64
            * (self.costs.map_collect(
                self.job.spec.pairs_per_map,
                self.map_out_bytes,
                self.type_factor,
            ) + self.costs.sort(self.job.spec.pairs_per_map));
        let tail_cpu_s = (c.cpu_core_seconds - map_cpu_s).max(0.0);
        let per_node = self.n_slaves as f64;
        let map_cpu_pct =
            (map_cpu_s / per_node / self.speed / map_window_s / cores * 100.0).min(100.0);
        let tail_cpu_pct =
            (tail_cpu_s / per_node / self.speed / tail_window_s / cores * 100.0).min(100.0);

        let mut cpu = Vec::with_capacity(self.n_slaves);
        let mut net = Vec::with_capacity(self.n_slaves);
        for &ingest in ingest_bytes.iter().take(self.n_slaves) {
            let rx_bps = (ingest as f64 / shuffle_window_s).min(self.nic_bps);
            let rx_mb_s = rx_bps / 1e6;
            let windows = [
                (
                    self.costs.job_overhead_s,
                    tl.map_phase_end_s,
                    map_cpu_pct,
                    0.0,
                ),
                (
                    tl.map_phase_end_s,
                    tl.shuffle_end_s,
                    tail_cpu_pct * 0.5,
                    rx_mb_s,
                ),
                (tl.shuffle_end_s, tl.job_end_s, tail_cpu_pct, 0.0),
            ];
            let (c_ts, n_ts) = sample_windows(&windows, self.job.spec.conf.monitor_interval_s);
            cpu.push(c_ts);
            net.push(n_ts);
        }
        (cpu, net)
    }

    fn solve(&self) -> JobResult {
        let tl = self.timeline();
        let counters = self.counters();
        let (cpu_series, net_rx_series) = self.series(&tl);

        let map_lanes =
            u64::from(lanes_per_node(&self.job.spec.conf, self.job.node).0) * self.n_slaves as u64;
        let maps = Self::lane_schedule(
            self.n_maps,
            map_lanes,
            tl.map_task_s,
            self.costs.job_overhead_s,
        );
        let mut tasks = Vec::with_capacity((self.n_maps + self.n_reduces) as usize);
        for (m, (start_s, finish_s)) in maps.iter().enumerate() {
            tasks.push(TaskTiming {
                is_map: true,
                index: m as u32,
                node: m % self.n_slaves,
                start: at(*start_s),
                finish: at(*finish_s),
            });
        }
        for (r, (done_s, finish_s)) in tl.reduce_done_s.iter().enumerate() {
            // Launch when its lane freed up (mirrors timeline()).
            let start_s =
                (finish_s - (finish_s - done_s) - tl.reduce_net_s[r] - self.costs.jvm_startup_s)
                    .min(tl.map_phase_end_s - self.costs.jvm_startup_s)
                    .max(0.0);
            tasks.push(TaskTiming {
                is_map: false,
                index: r as u32,
                node: self.reduce_node(r),
                start: at(start_s),
                finish: at(*finish_s),
            });
        }

        let mut trace = if self.job.trace {
            Trace::enabled()
        } else {
            Trace::disabled()
        };
        if self.job.trace {
            self.record_spans(&mut trace, &tl, &maps);
        }
        let phases = self
            .job
            .trace
            .then(|| trace.breakdown(SimDuration::from_secs_f64(tl.job_end_s)));

        JobResult {
            outcome: JobOutcome::Succeeded,
            failure: None,
            budget: None,
            job_time: SimDuration::from_secs_f64(tl.job_end_s),
            map_phase_end: at(tl.map_phase_end_s),
            shuffle_end: at(tl.shuffle_end_s),
            counters,
            tasks,
            cpu_series,
            net_rx_series,
            phases,
            // One closed-form evaluation per task: the cross-backend
            // "simulated work" measure the speedup assertions compare
            // against the DES's event count.
            sim_work: self.n_maps + self.n_reduces,
            trace: self.job.trace.then_some(trace),
        }
    }

    /// Emit one span per task phase so traced analytic runs produce the
    /// same [`simcore::trace::PhaseBreakdown`] shape as the DES. Lanes
    /// are execution slots; per-lane spans are sequential by
    /// construction (the lane schedule is).
    fn record_spans(&self, trace: &mut Trace, tl: &Timeline, maps: &[(f64, f64)]) {
        let conf = &self.job.spec.conf;
        let chunk_cap = conf.spill_threshold().as_bytes().max(1);
        let chunks = self.map_out_bytes.div_ceil(chunk_cap).max(1);
        let map_lanes = u64::from(lanes_per_node(conf, self.job.node).0) * self.n_slaves as u64;
        for (m, (start_s, finish_s)) in maps.iter().enumerate() {
            let lane = (m as u64 % map_lanes) as u32;
            let node = (m % self.n_slaves) as u32;
            let jvm_end_s = start_s + self.costs.jvm_startup_s;
            let (map_end_s, merge_bytes) = if chunks > 1 {
                let merge_io_s = self.map_out_bytes as f64 / self.disk_read_bps
                    + self.map_out_bytes as f64 / self.disk_write_bps;
                let merge_s = self.costs.merge(self.map_out_bytes) / self.speed + merge_io_s;
                (finish_s - merge_s, self.map_out_bytes)
            } else {
                (*finish_s, 0)
            };
            let mut span = |name, a: f64, b: f64, bytes| {
                trace.span(Span {
                    phase: name,
                    kind: "map",
                    index: m as u32,
                    attempt: 0,
                    node,
                    lane,
                    start: at(a),
                    end: at(b.max(a)),
                    bytes,
                    aborted: false,
                });
            };
            span(phase::JVM, *start_s, jvm_end_s, 0);
            span(phase::MAP, jvm_end_s, map_end_s, self.map_out_bytes);
            if chunks > 1 {
                span(phase::MAP_MERGE, map_end_s, *finish_s, merge_bytes);
            }
        }
        let reduce_lanes =
            (u64::from(lanes_per_node(conf, self.job.node).1) * self.n_slaves as u64).max(1);
        for (r, (done_s, finish_s)) in tl.reduce_done_s.iter().enumerate() {
            let lane = (map_lanes + r as u64 % reduce_lanes) as u32;
            let node = self.reduce_node(r) as u32;
            let bytes = self.reduce_bytes(r);
            let tail_s = finish_s - done_s;
            let merge_frac = if tail_s > 0.0 {
                // Split the tail between merge and reduce in cost ratio.
                let m = (self.costs.merge(bytes) / self.speed) * (1.0 - self.shuffle.merge_overlap);
                (m / tail_s).min(1.0)
            } else {
                0.0
            };
            let merge_end_s = done_s + tail_s * merge_frac;
            let start_s = (done_s - tl.reduce_net_s[r] - self.costs.jvm_startup_s).max(0.0);
            let jvm_end_s = (start_s + self.costs.jvm_startup_s).min(*done_s);
            let mut span = |name, a: f64, b: f64, span_bytes| {
                trace.span(Span {
                    phase: name,
                    kind: "reduce",
                    index: r as u32,
                    attempt: 0,
                    node,
                    lane,
                    start: at(a),
                    end: at(b.max(a)),
                    bytes: span_bytes,
                    aborted: false,
                });
            };
            span(phase::JVM, start_s, jvm_end_s, 0);
            span(phase::SHUFFLE, jvm_end_s, *done_s, bytes);
            span(phase::REDUCE_MERGE, *done_s, merge_end_s, bytes);
            span(phase::REDUCE, merge_end_s, *finish_s, bytes);
        }
    }
}

/// `SimTime` at `instant_s` seconds past the epoch.
fn at(instant_s: f64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs_f64(instant_s.max(0.0))
}

/// Sample piecewise-constant `(start_s, end_s, cpu_pct, rx_mb_s)` windows
/// at `interval_s`, coarsening so one series never exceeds ~256 samples.
fn sample_windows(windows: &[(f64, f64, f64, f64)], interval_s: f64) -> (TimeSeries, TimeSeries) {
    let total_s = windows.last().map_or(0.0, |w| w.1);
    let step_s = interval_s.max(total_s / 256.0);
    let mut cpu = TimeSeries::new();
    let mut net = TimeSeries::new();
    let mut t_s = windows.first().map_or(0.0, |w| w.0);
    for &(start_s, end_s, cpu_pct, rx_mb_s) in windows {
        if end_s <= start_s {
            continue;
        }
        t_s = t_s.max(start_s);
        while t_s < end_s {
            let next_s = (t_s + step_s).min(end_s);
            cpu.push(at(next_s), cpu_pct);
            net.push(at(next_s), rx_mb_s);
            t_s = next_s;
        }
    }
    (cpu, net)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::units::ByteSize;
    use simnet::Interconnect;

    fn job_spec(pairs: u64, maps: u32, reduces: u32) -> JobSpec {
        let mut spec = JobSpec::default();
        spec.conf.num_maps = maps;
        spec.conf.num_reduces = reduces;
        spec.conf.io_sort_mb = ByteSize::from_mib(256);
        spec.conf.map_slots_per_node = 4;
        spec.pairs_per_map = pairs;
        spec
    }

    fn uniform(reduces: u32) -> Vec<f64> {
        vec![1.0 / f64::from(reduces); reduces as usize]
    }

    fn run(spec: &JobSpec, slaves: usize, ic: Interconnect, frac: Vec<f64>) -> JobResult {
        let node = NodeSpec::westmere();
        let topo = Topology::single_switch(slaves, ic);
        evaluate(&AnalyticJob {
            spec,
            node: &node,
            topology: &topo,
            reduce_fractions: frac,
            trace: false,
        })
        .unwrap()
    }

    #[test]
    fn basic_shape_and_counters() {
        let spec = job_spec(10_000, 16, 8);
        let r = run(&spec, 4, Interconnect::GigE1, uniform(8));
        assert!(r.succeeded());
        assert!(r.job_time_secs() > 0.0);
        assert_eq!(r.counters.maps_completed, 16);
        assert_eq!(r.counters.reduces_completed, 8);
        assert_eq!(r.counters.map_output_records, 160_000);
        assert_eq!(r.counters.reduce_input_records, 160_000);
        assert_eq!(r.counters.shuffled_fetches, 16 * 8);
        assert_eq!(r.tasks.len(), 24);
        assert_eq!(r.sim_work, 24);
        assert!(r.map_phase_end <= r.shuffle_end);
        let end = SimTime::ZERO + r.job_time;
        for t in &r.tasks {
            assert!(t.start <= t.finish);
            assert!(t.finish <= end);
        }
        // The JSON artifact round-trips like any DES result.
        let text = r.to_json().to_compact();
        let back = JobResult::from_json(&simcore::json::Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.counters, r.counters);
        assert_eq!(back.job_time, r.job_time);
        assert_eq!(back.sim_work, r.sim_work);
    }

    #[test]
    fn faster_interconnects_are_faster() {
        let mut spec = job_spec(1, 16, 8);
        spec.set_shuffle_size(ByteSize::from_gib(8));
        let t1 = run(&spec, 4, Interconnect::GigE1, uniform(8)).job_time_secs();
        let t10 = run(&spec, 4, Interconnect::GigE10, uniform(8)).job_time_secs();
        let tib = run(&spec, 4, Interconnect::IpoibQdr, uniform(8)).job_time_secs();
        assert!(t1 > t10, "1GigE {t1} vs 10GigE {t10}");
        assert!(t10 >= tib, "10GigE {t10} vs IPoIB {tib}");
    }

    #[test]
    fn skewed_fractions_are_slower_and_straggle_on_reducer_zero() {
        let mut spec = job_spec(1, 16, 8);
        spec.set_shuffle_size(ByteSize::from_gib(8));
        let avg = run(&spec, 4, Interconnect::IpoibQdr, uniform(8));
        let t = 0.125 / 8.0;
        let skew = vec![0.5 + t, 0.25 + t, 0.125 + t, t, t, t, t, t];
        let sk = run(&spec, 4, Interconnect::IpoibQdr, skew);
        assert!(sk.job_time_secs() > avg.job_time_secs());
        let straggler = sk
            .tasks
            .iter()
            .filter(|t| !t.is_map)
            .max_by(|a, b| a.finish.cmp(&b.finish))
            .unwrap();
        assert_eq!(straggler.index, 0);
    }

    #[test]
    fn monotone_in_data_and_slaves() {
        let frac = uniform(8);
        let mut small = job_spec(1, 16, 8);
        small.set_shuffle_size(ByteSize::from_gib(1));
        let mut big = job_spec(1, 16, 8);
        big.set_shuffle_size(ByteSize::from_gib(4));
        let t_small = run(&small, 4, Interconnect::GigE1, frac.clone()).job_time_secs();
        let t_big = run(&big, 4, Interconnect::GigE1, frac.clone()).job_time_secs();
        assert!(t_big >= t_small);
        let t4 = run(&big, 4, Interconnect::GigE1, frac.clone()).job_time_secs();
        let t8 = run(&big, 8, Interconnect::GigE1, frac).job_time_secs();
        assert!(t8 <= t4, "8 slaves {t8} vs 4 slaves {t4}");
    }

    #[test]
    fn traced_run_reconciles_and_plain_run_is_unperturbed() {
        let mut spec = job_spec(1, 16, 8);
        spec.set_shuffle_size(ByteSize::from_mib(512));
        let node = NodeSpec::westmere();
        let topo = Topology::single_switch(4, Interconnect::GigE10);
        let traced = evaluate(&AnalyticJob {
            spec: &spec,
            node: &node,
            topology: &topo,
            reduce_fractions: uniform(8),
            trace: true,
        })
        .unwrap();
        let b = traced.phases.as_ref().expect("breakdown when traced");
        assert!(b.reconciles(0.01), "{b:?}");
        assert!(traced.trace.is_some());
        let plain = run(&spec, 4, Interconnect::GigE10, uniform(8));
        assert_eq!(plain.job_time, traced.job_time);
        assert_eq!(plain.counters, traced.counters);
        assert!(plain.phases.is_none());
    }

    #[test]
    fn bad_inputs_are_rejected() {
        let spec = job_spec(100, 4, 4);
        let node = NodeSpec::westmere();
        let topo = Topology::single_switch(2, Interconnect::GigE1);
        let mk = |frac: Vec<f64>, interval_s: f64| {
            let mut spec = spec.clone();
            spec.conf.monitor_interval_s = interval_s;
            evaluate(&AnalyticJob {
                spec: &spec,
                node: &node,
                topology: &topo,
                reduce_fractions: frac,
                trace: false,
            })
        };
        assert!(mk(vec![0.5; 3], 1.0).is_err()); // wrong arity
        assert!(mk(vec![0.25, 0.25, 0.25, f64::NAN], 1.0).is_err());
        assert!(mk(vec![-0.1, 0.5, 0.3, 0.3], 1.0).is_err());
        assert!(mk(vec![0.0; 4], 1.0).is_err());
        assert!(mk(vec![0.25; 4], 0.0).is_err());
        assert!(mk(vec![0.25; 4], 1.0).is_ok());
    }

    #[test]
    fn rack_and_fabric_constraints_slow_the_job() {
        let mut spec = job_spec(1, 16, 8);
        spec.set_shuffle_size(ByteSize::from_gib(4));
        let node = NodeSpec::westmere();
        let flat = Topology::single_switch(8, Interconnect::GigE10);
        let racked = Topology::single_switch(8, Interconnect::GigE10).with_racks(2, 8.0);
        let capped = Topology::single_switch(8, Interconnect::GigE10)
            .with_fabric_cap(simcore::units::Rate::from_mb_per_sec(200.0));
        let t = |topo: &Topology| {
            evaluate(&AnalyticJob {
                spec: &spec,
                node: &node,
                topology: topo,
                reduce_fractions: uniform(8),
                trace: false,
            })
            .unwrap()
            .job_time_secs()
        };
        assert!(t(&racked) > t(&flat));
        assert!(t(&capped) > t(&flat));
    }
}
