//! The flow-level network simulation engine.
//!
//! [`Network`] tracks a set of point-to-point transfers ("flows") over a
//! [`Topology`]. Each flow passes through a latency phase (the protocol's
//! small-message/setup latency) and then a bandwidth phase whose rate is
//! the max-min fair share given all concurrently active flows. Rates are
//! recomputed whenever the set of active flows changes, which makes the
//! model event-driven and exact for piecewise-constant fair sharing.
//!
//! Transfers where source and destination are the same host are loopback
//! copies: they never touch the fabric and run at a fixed memory-copy
//! rate, mirroring how a Hadoop reducer fetches a map output that lives on
//! its own node.
//!
//! # Hot-path layout
//!
//! Flows live in a slab (`slots` + free list) with two deterministic
//! indexes over it: `order`, the alive slots in ascending flow-id order
//! (flow ids are monotonic, so insertion is a push and removal a binary
//! search), and `latent`, a FIFO of flows still waiting out the protocol
//! latency (latency is a per-topology constant, so arrival order is
//! activation order). Rates come from an incremental [`FairshareSolver`]
//! that holds exactly the active non-loopback flows; its arrival order is
//! flow-id order, so it freezes flows in the same sequence — and produces
//! the same bits — as running the batch solver over the id-ordered flow
//! list on every event, the way the engine originally did. Per-node receive
//! rates are re-summed only for receivers touched by a rate change,
//! again in id order, keeping the drained byte counts bit-identical too.

use std::collections::VecDeque;

use simcore::stats::RateIntegrator;
use simcore::time::{SimDuration, SimTime};
use simcore::units::{ByteSize, Rate};

use crate::fairshare::{FairshareSolver, FlowKey, FlowSpec, RackCaps};
use crate::topology::{NodeId, Topology};

/// Handle to an in-flight transfer.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct FlowId(u64);

/// Default loopback (same-host) copy rate: a conservative memory-to-memory
/// figure that is protocol independent.
pub const LOOPBACK_RATE_MB_S: f64 = 3000.0;

/// Cold per-flow fields; the advance/next-event hot loops only touch the
/// `remaining` / `rate_bps` / `active` parallel arrays so each O(flows)
/// pass streams a few dense `f64` lanes instead of 100-byte structs.
#[derive(Clone, Debug)]
struct FlowSlot {
    /// Public monotonic flow id (`order` is sorted by it).
    id: u64,
    src: NodeId,
    dst: NodeId,
    total: ByteSize,
    /// Activation instant while latent; irrelevant once active.
    latent_until: SimTime,
    tag: u64,
    /// Solver membership, present exactly while active and non-loopback.
    key: Option<FlowKey>,
}

/// A finished transfer, as reported by [`Network::advance_to_into`].
#[derive(Clone, Copy, Debug)]
pub struct FlowCompletion {
    /// The flow that finished.
    pub id: FlowId,
    /// Sending host.
    pub src: NodeId,
    /// Receiving host.
    pub dst: NodeId,
    /// Payload size of the whole transfer.
    pub bytes: ByteSize,
    /// Caller-supplied correlation tag.
    pub tag: u64,
}

/// Flow-level network simulator over a single-switch topology.
#[derive(Debug)]
pub struct Network {
    topology: Topology,
    slots: Vec<FlowSlot>,
    /// Hot lane: bytes left, parallel to `slots`.
    remaining: Vec<f64>,
    /// Hot lane: current rate in bytes/s, parallel to `slots`.
    rate_bps: Vec<f64>,
    /// Hot lane: true once past the latency phase, parallel to `slots`.
    active: Vec<bool>,
    free: Vec<u32>,
    /// Alive slots in ascending flow-id order.
    order: Vec<u32>,
    /// Latent slots in activation order (constant latency ⇒ FIFO).
    latent: VecDeque<u32>,
    solver: FairshareSolver,
    next_id: u64,
    clock: SimTime,
    node_rx: Vec<RateIntegrator>,
    loopback: Rate,
    /// Total payload bytes fully delivered, in exact integer bytes.
    /// (A previous revision accumulated this in an `f64`, which silently
    /// loses whole bytes once the total passes 2^53.)
    delivered: u64,
    /// Cumulative per-flow touches: byte-integration steps plus solver
    /// rate changes — the network's actual inner-loop cost, for
    /// simulated-work accounting (never wall clock).
    work_units: u64,
    // Reusable event-processing scratch, so the advance path allocates
    // nothing in steady state.
    completed_scratch: Vec<u32>,
    dirty_nodes: Vec<u32>,
    node_mark: Vec<u64>,
    mark_epoch: u64,
}

impl Network {
    /// A quiet network over `topology`, starting at t = 0.
    pub fn new(topology: Topology) -> Self {
        let n = topology.n_nodes();
        let nic = topology.nic_rate().as_bytes_per_sec();
        let caps = vec![nic; n];
        let fabric = topology.fabric_cap().map(|r| r.as_bytes_per_sec());
        let rack = topology.rack_assignment();
        let solver = FairshareSolver::with_racks(
            &caps,
            &caps,
            rack.as_ref()
                .map(|(rack_of, uplink)| RackCaps { rack_of, uplink }),
            fabric,
        );
        Network {
            topology,
            slots: Vec::new(),
            remaining: Vec::new(),
            rate_bps: Vec::new(),
            active: Vec::new(),
            free: Vec::new(),
            order: Vec::new(),
            latent: VecDeque::new(),
            solver,
            next_id: 0,
            clock: SimTime::ZERO,
            node_rx: (0..n).map(|_| RateIntegrator::new(SimTime::ZERO)).collect(),
            loopback: Rate::from_mb_per_sec(LOOPBACK_RATE_MB_S),
            delivered: 0,
            work_units: 0,
            completed_scratch: Vec::new(),
            dirty_nodes: Vec::new(),
            node_mark: vec![0; n],
            mark_epoch: 0,
        }
    }

    /// Override the loopback copy rate (tests, calibration). Affects
    /// flows started after the call.
    pub fn set_loopback_rate(&mut self, rate: Rate) {
        self.loopback = rate;
    }

    /// The topology this network runs over.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Current simulated time of the network clock.
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// Number of flows currently latent or active.
    pub fn active_flows(&self) -> usize {
        self.order.len()
    }

    /// Total payload bytes fully delivered so far.
    pub fn delivered_bytes(&self) -> u64 {
        self.delivered
    }

    /// Cumulative simulated-work units: one per flow touched by a
    /// byte-integration step or a solver rate change. The measure of how
    /// much computation the network model performed — deterministic,
    /// comparable across runs, and independent of wall clock.
    pub fn work_units(&self) -> u64 {
        self.work_units
    }

    /// Begin a transfer of `bytes` from `src` to `dst` at time `now`.
    ///
    /// `tag` is an opaque correlation value handed back on completion.
    /// `now` must not be earlier than the last event processed.
    pub fn start_flow(
        &mut self,
        now: SimTime,
        src: NodeId,
        dst: NodeId,
        bytes: ByteSize,
        tag: u64,
    ) -> FlowId {
        assert!(self.topology.contains(src), "unknown src {src}");
        assert!(self.topology.contains(dst), "unknown dst {dst}");
        self.integrate_to(now);

        let latency = if src == dst {
            SimDuration::ZERO
        } else {
            self.topology.protocol().msg_latency
        };
        let id = self.next_id;
        self.next_id += 1;
        let slot = FlowSlot {
            id,
            src,
            dst,
            total: bytes,
            latent_until: now,
            tag,
            key: None,
        };
        let si = match self.free.pop() {
            Some(s) => {
                let i = s as usize;
                self.slots[i] = slot;
                self.remaining[i] = bytes.as_bytes() as f64;
                self.rate_bps[i] = 0.0;
                self.active[i] = true;
                s
            }
            None => {
                self.slots.push(slot);
                self.remaining.push(bytes.as_bytes() as f64);
                self.rate_bps.push(0.0);
                self.active.push(true);
                (self.slots.len() - 1) as u32
            }
        };
        // Ids are monotonic, so a push keeps `order` sorted.
        self.order.push(si);

        if src == dst {
            // Loopback: active immediately at the fixed copy rate; never
            // enters the fair-share solver or the NIC monitors.
            self.rate_bps[si as usize] = self.loopback.as_bytes_per_sec();
        } else if latency.is_zero() {
            // Defensive: no interconnect has zero latency today, but if
            // one did the flow would contend immediately.
            let key = self.solver.add_flow(
                FlowSpec {
                    src: src.0,
                    dst: dst.0,
                },
                u64::from(si),
            );
            self.slots[si as usize].key = Some(key);
            self.begin_rate_update();
            self.resolve_rates();
        } else {
            let at = now + latency;
            debug_assert!(
                self.latent
                    .back()
                    .is_none_or(|&b| self.slots[b as usize].latent_until <= at),
                "constant latency must keep the latent queue sorted"
            );
            self.slots[si as usize].latent_until = at;
            self.active[si as usize] = false;
            self.latent.push_back(si);
        }
        FlowId(id)
    }

    /// The earliest instant at which something happens (an activation or a
    /// completion), or `None` when the network is idle.
    pub fn next_event_time(&self) -> Option<SimTime> {
        // The latent queue is in activation order, so its head is the
        // earliest activation; it is always >= the clock (earlier
        // activations were consumed by `advance_to_into`).
        let latent_at = self
            .latent
            .front()
            .map(|&s| self.slots[s as usize].latent_until);
        // Track the minimum time-to-completion as a raw quotient and
        // convert once at the end: nanosecond conversion is monotone, so
        // min-then-round equals the round-then-min a per-flow
        // construction would compute.
        let mut best_q = f64::INFINITY;
        for &s in &self.order {
            let s = s as usize;
            if !self.active[s] {
                continue;
            }
            let rate = self.rate_bps[s];
            let rem = self.remaining[s];
            if rem <= completion_eps(rate) {
                // A completion is already due; nothing can beat `clock`
                // (latent activations are never in the past).
                return Some(self.clock);
            }
            if rate <= 0.0 {
                continue;
            }
            let q = rem / rate;
            if q < best_q {
                best_q = q;
            }
        }
        let completion = (best_q < f64::INFINITY).then(|| {
            // +1 ns guards against float rounding leaving a sub-byte
            // residue at the computed instant. Saturate: a quotient past
            // the clock's range converts to the maximum duration, and a
            // plain `+` would wrap it back to "now".
            self.clock
                .saturating_add(SimDuration::from_secs_f64(best_q))
                .saturating_add(SimDuration::from_nanos(1))
        });
        match (latent_at, completion) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Advance the network clock to `now`, appending every transfer that
    /// completed at or before `now` to `out`, in deterministic flow-id
    /// order. The buffer is caller-owned, so the event loop allocates
    /// nothing per step.
    ///
    /// The caller must not skip past events: `now` should be at most
    /// [`Network::next_event_time`]. Skipping only loses precision, never
    /// panics.
    pub fn advance_to_into(&mut self, now: SimTime, out: &mut Vec<FlowCompletion>) {
        assert!(now >= self.clock, "network clock cannot run backwards");
        let dt = now.since(self.clock).as_secs_f64();

        // One fused pass: settle every active flow's remaining bytes and
        // collect the ones at (or below) the completion threshold.
        // `order` is id-sorted, so completions come out in flow-id order
        // by construction.
        self.completed_scratch.clear();
        if dt > 0.0 {
            for &s in &self.order {
                let s = s as usize;
                if self.active[s] {
                    let rate = self.rate_bps[s];
                    let rem = (self.remaining[s] - rate * dt).max(0.0);
                    self.remaining[s] = rem;
                    if rem <= completion_eps(rate) {
                        self.completed_scratch.push(s as u32);
                    }
                }
            }
        } else {
            for &s in &self.order {
                let s = s as usize;
                if self.active[s] && self.remaining[s] <= completion_eps(self.rate_bps[s]) {
                    self.completed_scratch.push(s as u32);
                }
            }
        }
        for ri in &mut self.node_rx {
            ri.advance(now);
        }
        self.clock = now;

        // Activations: pop the FIFO while due.
        let mut activated = 0usize;
        while let Some(&s) = self.latent.front() {
            let f = &mut self.slots[s as usize];
            if f.latent_until > now {
                break;
            }
            debug_assert!(!self.active[s as usize], "active flow in latent queue");
            self.active[s as usize] = true;
            let key = self.solver.add_flow(
                FlowSpec {
                    src: f.src.0,
                    dst: f.dst.0,
                },
                u64::from(s),
            );
            f.key = Some(key);
            self.latent.pop_front();
            activated += 1;
        }

        self.begin_rate_update();
        let mut removed = 0usize;
        for i in 0..self.completed_scratch.len() {
            let s = self.completed_scratch[i];
            let f = &mut self.slots[s as usize];
            self.delivered += f.total.as_bytes();
            out.push(FlowCompletion {
                id: FlowId(f.id),
                src: f.src,
                dst: f.dst,
                bytes: f.total,
                tag: f.tag,
            });
            let (id, dst) = (f.id, f.dst);
            if let Some(key) = f.key.take() {
                self.solver.remove_flow(key);
                removed += 1;
                self.mark_dirty(dst);
            }
            let slots = &self.slots;
            let pos = self.order.partition_point(|&o| slots[o as usize].id < id);
            debug_assert_eq!(self.order.get(pos), Some(&s), "order index corrupt");
            self.order.remove(pos);
            self.free.push(s);
        }

        // Re-solve only when the contending set changed — loopback-only
        // traffic never perturbs fair shares.
        if activated > 0 || removed > 0 {
            self.resolve_rates();
        }
    }

    /// Instantaneous receive rate at `node`.
    pub fn rx_rate(&self, node: NodeId) -> Rate {
        Rate::from_bytes_per_sec(self.node_rx[node.0].rate().max(0.0))
    }

    /// Bytes received by `node` since the last drain (advances the
    /// integrator to `now`). Used by 1 Hz resource monitors.
    pub fn drain_rx_bytes(&mut self, node: NodeId, now: SimTime) -> f64 {
        self.node_rx[node.0].drain(now)
    }

    fn integrate_to(&mut self, now: SimTime) {
        assert!(now >= self.clock, "network clock cannot run backwards");
        let dt = now.since(self.clock).as_secs_f64();
        if dt > 0.0 {
            self.work_units += self.order.len() as u64;
            for &s in &self.order {
                let s = s as usize;
                if self.active[s] {
                    self.remaining[s] = (self.remaining[s] - self.rate_bps[s] * dt).max(0.0);
                }
            }
        }
        for ri in &mut self.node_rx {
            ri.advance(now);
        }
        self.clock = now;
    }

    /// Start collecting dirty nodes for the next [`Network::resolve_rates`].
    fn begin_rate_update(&mut self) {
        self.mark_epoch += 1;
        self.dirty_nodes.clear();
    }

    fn mark_dirty(&mut self, node: NodeId) {
        if self.node_mark[node.0] != self.mark_epoch {
            self.node_mark[node.0] = self.mark_epoch;
            self.dirty_nodes.push(node.0 as u32);
        }
    }

    /// Re-solve fair shares and refresh the receive monitors of affected
    /// nodes.
    ///
    /// Only flows whose rate actually changed are touched, and only their
    /// receivers' monitor sums are recomputed — each sum in flow-id order,
    /// so the arithmetic matches a full id-ordered recompute bit for bit.
    fn resolve_rates(&mut self) {
        self.solver.solve();
        // Every registered flow is frozen exactly once per solve, and each
        // changed rate is propagated back into the flow table.
        self.work_units += (self.solver.len() + self.solver.changed().len()) as u64;
        for i in 0..self.solver.changed().len() {
            let (user, rate) = self.solver.changed()[i];
            let s = user as usize;
            self.rate_bps[s] = rate;
            let dst = self.slots[s].dst;
            self.mark_dirty(dst);
        }
        let now = self.clock;
        for i in 0..self.dirty_nodes.len() {
            let node = self.dirty_nodes[i] as usize;
            self.node_rx[node].set_rate(now, self.solver.ingress_rate_sum(node));
        }
    }

    /// Run the network by itself until all flows finish; returns the
    /// completions in order. Mostly useful in tests — the MapReduce engine
    /// interleaves its own events.
    pub fn run_to_idle(&mut self) -> Vec<FlowCompletion> {
        let mut all = Vec::new();
        while let Some(t) = self.next_event_time() {
            self.advance_to_into(t, &mut all);
        }
        all
    }
}

/// Bytes of slack below which a flow counts as finished; covers nanosecond
/// quantization of the completion instant.
fn completion_eps(rate_bps: f64) -> f64 {
    (rate_bps * 2e-9).max(1e-6)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Interconnect;

    fn net(nodes: usize, ic: Interconnect) -> Network {
        Network::new(Topology::single_switch(nodes, ic))
    }

    #[test]
    fn single_transfer_takes_latency_plus_bandwidth_time() {
        let mut n = net(2, Interconnect::GigE1);
        let bytes = ByteSize::from_mib(100);
        n.start_flow(SimTime::ZERO, NodeId(0), NodeId(1), bytes, 7);
        let done = n.run_to_idle();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].tag, 7);
        assert_eq!(done[0].bytes, bytes);
        let expect = 55e-6 + bytes.as_bytes() as f64 / (112.0 * 1e6);
        let got = n.now().as_secs_f64();
        assert!(
            (got - expect).abs() < 1e-3,
            "got {got}, expected about {expect}"
        );
    }

    #[test]
    fn two_flows_into_one_receiver_halve() {
        let mut n = net(3, Interconnect::IpoibQdr);
        let bytes = ByteSize::from_mib(950); // ~1 s alone
        n.start_flow(SimTime::ZERO, NodeId(0), NodeId(2), bytes, 0);
        n.start_flow(SimTime::ZERO, NodeId(1), NodeId(2), bytes, 1);
        n.run_to_idle();
        // Each flow gets ~475 MB/s, so both finish in ~2.1 s (binary MiB
        // vs decimal MB accounts for the 1.048 factor).
        let got = n.now().as_secs_f64();
        let expect = 2.0 * 950.0 * 1024.0 * 1024.0 / (950.0 * 1e6);
        assert!((got - expect).abs() < 0.01, "got {got}, expected {expect}");
    }

    #[test]
    fn flow_rates_rebalance_after_completion() {
        let mut n = net(3, Interconnect::GigE10);
        // Big flow and small flow share the receiver; when the small one
        // completes, the big one speeds up.
        n.start_flow(
            SimTime::ZERO,
            NodeId(0),
            NodeId(2),
            ByteSize::from_mib(400),
            0,
        );
        n.start_flow(
            SimTime::ZERO,
            NodeId(1),
            NodeId(2),
            ByteSize::from_mib(40),
            1,
        );
        // Step through the latency activations until the first completion.
        let mut done = Vec::new();
        while done.is_empty() {
            let t = n.next_event_time().unwrap();
            n.advance_to_into(t, &mut done);
        }
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].tag, 1);
        // Rebalanced: remaining flow now runs at the full ceiling.
        let r = n.rx_rate(NodeId(2)).as_mb_per_sec();
        assert!((r - 545.0).abs() < 1.0, "rate after rebalance: {r}");
        n.run_to_idle();
        assert_eq!(n.active_flows(), 0);
    }

    #[test]
    fn loopback_does_not_touch_nic() {
        let mut n = net(2, Interconnect::GigE1);
        n.start_flow(
            SimTime::ZERO,
            NodeId(0),
            NodeId(0),
            ByteSize::from_mib(300),
            0,
        );
        // NIC monitors see nothing.
        assert_eq!(n.rx_rate(NodeId(0)).as_mb_per_sec(), 0.0);
        let done = n.run_to_idle();
        assert_eq!(done.len(), 1);
        let t = n.now().as_secs_f64();
        let expect = 300.0 * 1024.0 * 1024.0 / (3000.0 * 1e6);
        assert!((t - expect).abs() < 1e-3, "loopback time {t} vs {expect}");
    }

    #[test]
    fn next_event_saturates_instead_of_wrapping() {
        // 1 MiB at 1e-12 B/s is ~1e18 s away, far past the clock's range.
        // The instant must saturate at SimTime::MAX; a wrapping add would
        // report a phantom completion due at once.
        let mut n = net(2, Interconnect::GigE1);
        n.set_loopback_rate(Rate::from_bytes_per_sec(1e-12));
        n.start_flow(
            SimTime::from_secs(1),
            NodeId(0),
            NodeId(0),
            ByteSize::from_mib(1),
            0,
        );
        assert_eq!(n.next_event_time(), Some(SimTime::MAX));
    }

    #[test]
    fn latency_dominates_small_messages() {
        let mut n = net(2, Interconnect::GigE1);
        n.start_flow(
            SimTime::ZERO,
            NodeId(0),
            NodeId(1),
            ByteSize::from_bytes(1),
            0,
        );
        n.run_to_idle();
        assert!(n.now().as_secs_f64() >= 55e-6);
        assert!(n.now().as_secs_f64() < 70e-6);
    }

    #[test]
    fn rdma_much_faster_than_ipoib_for_bulk() {
        let run = |ic: Interconnect| {
            let mut n = net(2, ic);
            n.start_flow(
                SimTime::ZERO,
                NodeId(0),
                NodeId(1),
                ByteSize::from_gib(1),
                0,
            );
            n.run_to_idle();
            n.now().as_secs_f64()
        };
        let ipoib = run(Interconnect::IpoibFdr);
        let rdma = run(Interconnect::RdmaFdr);
        assert!(
            rdma < ipoib / 3.0,
            "rdma {rdma} should be >3x faster than ipoib {ipoib}"
        );
    }

    #[test]
    fn rx_byte_accounting_matches_payload() {
        let mut n = net(2, Interconnect::GigE10);
        let payload = ByteSize::from_mib(64);
        n.start_flow(SimTime::ZERO, NodeId(0), NodeId(1), payload, 0);
        n.run_to_idle();
        let now = n.now();
        let rx = n.drain_rx_bytes(NodeId(1), now);
        assert!(
            (rx - payload.as_bytes() as f64).abs() < 1024.0,
            "rx {rx} vs payload {}",
            payload.as_bytes()
        );
        assert_eq!(n.delivered_bytes(), payload.as_bytes());
    }

    #[test]
    fn delivered_bytes_is_integer_exact_beyond_f64_precision() {
        // Regression: `delivered` used to accumulate in an f64, which
        // cannot represent odd byte counts past 2^53 — each of these
        // payloads would round to 2^53 and the sum would drop 2 bytes.
        let payload = ByteSize::from_bytes((1u64 << 53) + 1);
        let mut n = net(2, Interconnect::GigE1);
        n.start_flow(SimTime::ZERO, NodeId(0), NodeId(0), payload, 0);
        n.start_flow(SimTime::ZERO, NodeId(1), NodeId(1), payload, 1);
        let done = n.run_to_idle();
        assert_eq!(done.len(), 2);
        assert_eq!(n.delivered_bytes(), ((1u64 << 53) + 1) * 2);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut n = net(4, Interconnect::IpoibQdr);
            for i in 0..8u64 {
                n.start_flow(
                    SimTime::from_nanos(i * 1000),
                    NodeId((i % 4) as usize),
                    NodeId(((i + 1) % 4) as usize),
                    ByteSize::from_mib(10 + i * 3),
                    i,
                );
            }
            let done = n.run_to_idle();
            (n.now(), done.iter().map(|c| c.tag).collect::<Vec<_>>())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn simultaneous_completions_report_in_flow_id_order() {
        // Regression for the flows-map migration to the slab: identical
        // flows all complete at the same instant, and `advance_to_into` must
        // report them in flow-id order — slot indexes get recycled, so
        // scanning in slot order would report recycled slots too early.
        // Start flows in scrambled src order so insertion order != node
        // order.
        let run = || {
            let mut n = net(8, Interconnect::GigE10);
            for &s in &[5usize, 2, 7, 0, 6, 1, 4] {
                n.start_flow(
                    SimTime::ZERO,
                    NodeId(s),
                    NodeId(3),
                    ByteSize::from_mib(10),
                    s as u64,
                );
            }
            let done = n.run_to_idle();
            done.iter().map(|c| (c.id, c.tag)).collect::<Vec<_>>()
        };
        let a = run();
        assert_eq!(a, run());
        // Flow ids were assigned in start order, so completions come
        // back in that order.
        assert_eq!(
            a.iter().map(|(_, tag)| *tag).collect::<Vec<_>>(),
            vec![5, 2, 7, 0, 6, 1, 4]
        );
    }

    #[test]
    fn completions_stay_id_ordered_across_slot_reuse() {
        // Force slot recycling: run a first wave to completion, then a
        // second wave that reuses the freed slots in a different id
        // pattern, plus one fresh slot.
        let mut n = net(6, Interconnect::GigE10);
        for s in 0..3 {
            n.start_flow(
                SimTime::ZERO,
                NodeId(s),
                NodeId(5),
                ByteSize::from_mib(5),
                s as u64,
            );
        }
        let first = n.run_to_idle();
        assert_eq!(first.len(), 3);
        let t = n.now();
        for s in 0..4 {
            n.start_flow(
                t,
                NodeId(s),
                NodeId(5),
                ByteSize::from_mib(5),
                100 + s as u64,
            );
        }
        let second = n.run_to_idle();
        let tags: Vec<u64> = second.iter().map(|c| c.tag).collect();
        assert_eq!(tags, vec![100, 101, 102, 103]);
    }

    #[test]
    fn all_to_all_shuffle_pattern_finishes() {
        // 4 nodes, every node sends to every other: 12 flows.
        let mut n = net(4, Interconnect::GigE1);
        for s in 0..4 {
            for d in 0..4 {
                if s != d {
                    n.start_flow(
                        SimTime::ZERO,
                        NodeId(s),
                        NodeId(d),
                        ByteSize::from_mib(112),
                        0,
                    );
                }
            }
        }
        let done = n.run_to_idle();
        assert_eq!(done.len(), 12);
        // Symmetric all-to-all: each NIC carries 3 x 112 MiB in each
        // direction at 112 MB/s -> about 3.15 s.
        let t = n.now().as_secs_f64();
        let expect = 3.0 * 112.0 * 1024.0 * 1024.0 / 112e6;
        assert!((t - expect).abs() < 0.05, "t={t} expect={expect}");
    }
}
