//! Per-node network throughput monitoring.
//!
//! Reproduces the measurement the paper plots in Fig. 7(b): megabytes
//! received per second on one slave node, sampled once per second over the
//! course of the job.

use simcore::stats::TimeSeries;
use simcore::time::{SimDuration, SimTime};

use crate::network::Network;
use crate::topology::NodeId;

/// Samples per-node receive throughput at a fixed interval.
#[derive(Debug)]
pub struct NetworkMonitor {
    interval: SimDuration,
    next_sample: SimTime,
    rx: Vec<TimeSeries>,
}

impl NetworkMonitor {
    /// Monitor `n_nodes` hosts, sampling every `interval`.
    pub fn new(n_nodes: usize, interval: SimDuration) -> Self {
        assert!(!interval.is_zero(), "sampling interval must be positive");
        NetworkMonitor {
            interval,
            next_sample: SimTime::ZERO + interval,
            rx: (0..n_nodes).map(|_| TimeSeries::new()).collect(),
        }
    }

    /// When the next sample is due.
    pub fn next_sample_time(&self) -> SimTime {
        self.next_sample
    }

    /// Take a sample if `now` has reached the sampling instant. The caller
    /// (the simulation driver) must have advanced `network` to `now`.
    pub fn maybe_sample(&mut self, now: SimTime, network: &mut Network) {
        while self.next_sample <= now {
            let at = self.next_sample;
            let dt = self.interval.as_secs_f64();
            for node in 0..self.rx.len() {
                let rx_bytes = network.drain_rx_bytes(NodeId(node), at);
                self.rx[node].push(at, rx_bytes / dt / 1e6);
            }
            self.next_sample += self.interval;
        }
    }

    /// Emit the final, possibly partial, sampling window ending at `end`.
    ///
    /// `maybe_sample` only fires on whole-interval boundaries, so bytes
    /// moved between the last tick and job end would otherwise be
    /// silently dropped from the series. The tail sample reports the
    /// rate over the partial window (bytes / partial seconds), stamped
    /// at `end`. Idempotent: a second flush at the same instant, or a
    /// flush landing exactly on a tick, adds nothing.
    pub fn flush(&mut self, end: SimTime, network: &mut Network) {
        self.maybe_sample(end, network);
        let window_start = self.next_sample - self.interval;
        if end <= window_start {
            return;
        }
        let dt = end.since(window_start).as_secs_f64();
        for node in 0..self.rx.len() {
            let rx_bytes = network.drain_rx_bytes(NodeId(node), end);
            self.rx[node].push(end, rx_bytes / dt / 1e6);
        }
        // The flushed window is consumed; the next whole interval starts
        // at `end`.
        self.next_sample = end + self.interval;
    }

    /// Receive throughput series (MB/s) for `node`.
    pub fn rx_series(&self, node: NodeId) -> &TimeSeries {
        &self.rx[node.0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Interconnect;
    use crate::topology::Topology;
    use simcore::units::ByteSize;

    #[test]
    fn samples_capture_transfer_rate() {
        let mut net = Network::new(Topology::single_switch(2, Interconnect::GigE1));
        let mut mon = NetworkMonitor::new(2, SimDuration::from_secs(1));
        // 560 MiB at 112 MB/s is about 5.2 s of transfer.
        net.start_flow(
            SimTime::ZERO,
            NodeId(0),
            NodeId(1),
            ByteSize::from_mib(560),
            0,
        );
        let mut done = Vec::new();
        loop {
            let sample_at = mon.next_sample_time();
            match net.next_event_time() {
                Some(t) if t <= sample_at => {
                    net.advance_to_into(t, &mut done);
                    if !done.is_empty() {
                        break;
                    }
                }
                _ => {
                    net.advance_to_into(sample_at, &mut done);
                    mon.maybe_sample(sample_at, &mut net);
                }
            }
        }
        let series = mon.rx_series(NodeId(1));
        assert!(series.len() >= 5);
        let peak = series.peak().unwrap();
        assert!((peak - 112.0).abs() < 2.0, "peak {peak}");
        // Node 0 received nothing.
        assert!(mon.rx_series(NodeId(0)).peak().unwrap() < 1.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_interval_rejected() {
        let _ = NetworkMonitor::new(1, SimDuration::ZERO);
    }

    /// Bytes moved between samples: each sample's rate applies to the
    /// window since the previous sample (or t=0).
    fn integrated_bytes(series: &TimeSeries) -> f64 {
        let mut prev = SimTime::ZERO;
        let mut total = 0.0;
        for s in series.samples() {
            total += s.value * 1e6 * s.time.since(prev).as_secs_f64();
            prev = s.time;
        }
        total
    }

    #[test]
    fn flush_captures_final_partial_interval() {
        let mut net = Network::new(Topology::single_switch(2, Interconnect::GigE1));
        let mut mon = NetworkMonitor::new(2, SimDuration::from_secs(1));
        let total = ByteSize::from_mib(280);
        net.start_flow(SimTime::ZERO, NodeId(0), NodeId(1), total, 0);
        let end;
        let mut done = Vec::new();
        loop {
            let sample_at = mon.next_sample_time();
            match net.next_event_time() {
                Some(t) if t <= sample_at => {
                    net.advance_to_into(t, &mut done);
                    if !done.is_empty() {
                        end = t;
                        break;
                    }
                }
                _ => {
                    net.advance_to_into(sample_at, &mut done);
                    mon.maybe_sample(sample_at, &mut net);
                }
            }
        }
        // The flow must end mid-interval for this test to bite.
        assert!(end.as_nanos() % 1_000_000_000 != 0, "end {end:?}");
        let before = integrated_bytes(mon.rx_series(NodeId(1)));
        let len_before = mon.rx_series(NodeId(1)).len();
        mon.flush(end, &mut net);
        let after = integrated_bytes(mon.rx_series(NodeId(1)));
        let sent = total.as_bytes() as f64;
        // Without the flush the tail bytes were dropped; with it the
        // series integrates back to exactly the bytes transferred.
        assert!(after > before, "flush must add the tail window");
        assert!((after - sent).abs() / sent < 1e-9, "{after} vs {sent}");
        let last = *mon.rx_series(NodeId(1)).samples().last().unwrap();
        assert_eq!(last.time, end);
        // Flushing again at the same instant adds nothing.
        mon.flush(end, &mut net);
        assert_eq!(mon.rx_series(NodeId(1)).len(), len_before + 1);
    }

    #[test]
    fn flush_on_tick_boundary_adds_no_sample() {
        let mut net = Network::new(Topology::single_switch(2, Interconnect::GigE1));
        let mut mon = NetworkMonitor::new(2, SimDuration::from_secs(1));
        for t in [1, 2] {
            let at = SimTime::from_secs(t);
            net.advance_to_into(at, &mut Vec::new());
            mon.maybe_sample(at, &mut net);
        }
        mon.flush(SimTime::from_secs(2), &mut net);
        // Whole intervals at 1 s and 2 s only; no extra tail sample.
        assert_eq!(mon.rx_series(NodeId(0)).len(), 2);
    }
}
