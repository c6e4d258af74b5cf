//! The original `BTreeMap` processor-sharing CPU simulator, kept verbatim
//! as the test oracle for the slab `cluster::CpuSim`. It is not part of
//! the library: production code has exactly one CPU model.
//!
//! Each node has `cores` cores. Every runnable job (a map task generating
//! records, a reducer merging, protocol processing on behalf of the
//! kernel…) is single-threaded and owns at most one core; when more jobs
//! are runnable than cores exist, the OS scheduler time-slices them
//! fairly. The fluid limit of that policy is processor sharing:
//!
//! ```text
//! rate(job) = speed * min(1, cores / runnable_jobs)   [core-seconds/sec]
//! ```
//!
//! Work amounts are expressed in *core-seconds at the Westmere baseline*;
//! a node's `speed` factor scales execution.

use std::collections::BTreeMap;

use simcore::stats::RateIntegrator;
use simcore::time::{SimDuration, SimTime};

/// Handle to a unit of queued CPU work.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct CpuJobId(u64);

/// A finished CPU job, reported by [`CpuSim::advance_to`].
#[derive(Clone, Copy, Debug)]
pub struct CpuCompletion {
    /// The finished job.
    pub id: CpuJobId,
    /// Node it ran on.
    pub node: usize,
    /// Caller-supplied correlation tag.
    pub tag: u64,
}

#[derive(Clone, Debug)]
struct Job {
    node: usize,
    remaining: f64,
    // simlint: allow(unit-suffix, core-seconds per second, a dimensionless PS share, not bytes/s)
    rate: f64,
    tag: u64,
}

/// Per-node processor-sharing CPU simulator.
#[derive(Debug)]
pub struct CpuSim {
    cores: Vec<u32>,
    speed: Vec<f64>,
    jobs: BTreeMap<u64, Job>,
    runnable_per_node: Vec<usize>,
    next_id: u64,
    clock: SimTime,
    busy: Vec<RateIntegrator>,
}

impl CpuSim {
    /// A CPU simulator for nodes with the given core counts and speed
    /// factors.
    pub fn new(cores: Vec<u32>, speed: Vec<f64>) -> Self {
        assert_eq!(cores.len(), speed.len());
        assert!(cores.iter().all(|&c| c > 0), "nodes need at least one core");
        let n = cores.len();
        CpuSim {
            cores,
            speed,
            jobs: BTreeMap::new(),
            runnable_per_node: vec![0; n],
            next_id: 0,
            clock: SimTime::ZERO,
            busy: (0..n).map(|_| RateIntegrator::new(SimTime::ZERO)).collect(),
        }
    }

    /// Homogeneous helper.
    pub fn homogeneous(n_nodes: usize, cores: u32, speed: f64) -> Self {
        CpuSim::new(vec![cores; n_nodes], vec![speed; n_nodes])
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.cores.len()
    }

    /// Current clock.
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// Queue `work` core-seconds (baseline-normalized) on `node`.
    pub fn submit(&mut self, now: SimTime, node: usize, work: f64, tag: u64) -> CpuJobId {
        assert!(node < self.cores.len(), "unknown node {node}");
        assert!(work >= 0.0 && work.is_finite(), "work must be non-negative");
        self.integrate_to(now);
        let id = self.next_id;
        self.next_id += 1;
        self.jobs.insert(
            id,
            Job {
                node,
                remaining: work,
                rate: 0.0,
                tag,
            },
        );
        self.runnable_per_node[node] += 1;
        self.recompute(now);
        CpuJobId(id)
    }

    /// The earliest job completion, if any work is queued.
    pub fn next_event_time(&self) -> Option<SimTime> {
        let mut best: Option<SimTime> = None;
        for j in self.jobs.values() {
            let t = if j.remaining <= completion_eps(j.rate) {
                self.clock
            } else if j.rate <= 0.0 {
                continue;
            } else {
                self.clock
                    + SimDuration::from_secs_f64(j.remaining / j.rate)
                    + SimDuration::from_nanos(1)
            };
            best = Some(best.map_or(t, |b| b.min(t)));
        }
        best
    }

    /// Advance to `now`, returning completions in deterministic id order.
    pub fn advance_to(&mut self, now: SimTime) -> Vec<CpuCompletion> {
        self.integrate_to(now);
        // BTreeMap iteration is job-id ordered, so `done` is sorted by
        // construction.
        let done: Vec<u64> = self
            .jobs
            .iter()
            .filter(|(_, j)| j.remaining <= completion_eps(j.rate))
            .map(|(&id, _)| id)
            .collect();
        let mut out = Vec::with_capacity(done.len());
        for id in done {
            let j = self.jobs.remove(&id).expect("job exists");
            self.runnable_per_node[j.node] -= 1;
            out.push(CpuCompletion {
                id: CpuJobId(id),
                node: j.node,
                tag: j.tag,
            });
        }
        if !out.is_empty() {
            self.recompute(now);
        }
        out
    }

    /// Instantaneous utilization of `node` in percent (0..=100).
    pub fn utilization_pct(&self, node: usize) -> f64 {
        let busy = (self.runnable_per_node[node] as f64).min(self.cores[node] as f64);
        busy / self.cores[node] as f64 * 100.0
    }

    /// Core-seconds consumed on `node` since the last drain.
    pub fn drain_busy_core_seconds(&mut self, node: usize, now: SimTime) -> f64 {
        self.busy[node].drain(now)
    }

    /// Number of runnable jobs on `node`.
    pub fn runnable(&self, node: usize) -> usize {
        self.runnable_per_node[node]
    }

    /// Core count of `node`.
    pub fn cores(&self, node: usize) -> u32 {
        self.cores[node]
    }

    fn integrate_to(&mut self, now: SimTime) {
        assert!(now >= self.clock, "cpu clock cannot run backwards");
        let dt = now.since(self.clock).as_secs_f64();
        if dt > 0.0 {
            for j in self.jobs.values_mut() {
                j.remaining = (j.remaining - j.rate * dt).max(0.0);
            }
        }
        for b in &mut self.busy {
            b.advance(now);
        }
        self.clock = now;
    }

    fn recompute(&mut self, now: SimTime) {
        let n = self.cores.len();
        let mut share = vec![0.0f64; n];
        for (node, slot) in share.iter_mut().enumerate() {
            let runnable = self.runnable_per_node[node];
            if runnable > 0 {
                *slot = self.speed[node] * (self.cores[node] as f64 / runnable as f64).min(1.0);
            }
        }
        for j in self.jobs.values_mut() {
            j.rate = share[j.node];
        }
        for node in 0..n {
            let busy_cores = (self.runnable_per_node[node] as f64).min(self.cores[node] as f64);
            self.busy[node].set_rate(now, busy_cores);
        }
    }
}

// simlint: allow(unit-suffix, rate is in core-seconds per second, matching Job::rate)
fn completion_eps(rate: f64) -> f64 {
    (rate * 2e-9).max(1e-12)
}
