//! Processor-sharing CPU simulation.
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
//!
//! # Hot-path layout
//!
//! Jobs live in a slab of dense lanes (`remaining`, `job_node`, `tags`,
//! `ids`) reused through a free list, the layout `simnet::Network` uses
//! for flows. `order` holds the alive slots in ascending job-id order, so
//! completions come out id-ordered. Every job on a node runs at the same
//! rate, so rates live in one per-node lane (`share`): a submit or a
//! completion refreshes only the node whose runnable count changed.

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

/// Per-node processor-sharing CPU simulator.
#[derive(Debug)]
pub struct CpuSim {
    cores: Vec<u32>,
    speed: Vec<f64>,
    runnable_per_node: Vec<usize>,
    /// Core-seconds per second each runnable job on a node receives:
    /// `speed · min(1, cores / runnable)`, 0 while the node is idle.
    share: Vec<f64>,
    busy: Vec<RateIntegrator>,
    /// True while every `busy` integrator has integrated up to `clock`.
    busy_at_clock: bool,
    // Job lanes, parallel and slot-indexed.
    remaining: Vec<f64>,
    job_node: Vec<u32>,
    tags: Vec<u64>,
    ids: Vec<u64>,
    free: Vec<u32>,
    /// Alive slots in ascending job-id order.
    order: Vec<u32>,
    next_id: u64,
    clock: SimTime,
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
            runnable_per_node: vec![0; n],
            share: vec![0.0; n],
            busy: (0..n).map(|_| RateIntegrator::new(SimTime::ZERO)).collect(),
            busy_at_clock: true,
            remaining: Vec::new(),
            job_node: Vec::new(),
            tags: Vec::new(),
            ids: Vec::new(),
            free: Vec::new(),
            order: Vec::new(),
            next_id: 0,
            clock: SimTime::ZERO,
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
        let slot = match self.free.pop() {
            Some(s) => {
                let i = s as usize;
                self.remaining[i] = work;
                self.job_node[i] = node as u32;
                self.tags[i] = tag;
                self.ids[i] = id;
                s
            }
            None => {
                self.remaining.push(work);
                self.job_node.push(node as u32);
                self.tags.push(tag);
                self.ids.push(id);
                (self.remaining.len() - 1) as u32
            }
        };
        // Ids are monotonic, so a push keeps `order` sorted.
        self.order.push(slot);
        self.runnable_per_node[node] += 1;
        self.recompute(node, now);
        CpuJobId(id)
    }

    /// The earliest job completion, if any work is queued.
    pub fn next_event_time(&self) -> Option<SimTime> {
        // Track the minimum time-to-completion as a raw quotient and
        // convert once: nanosecond conversion is monotone, so
        // min-then-round equals the per-job round-then-min.
        let mut best_q = f64::INFINITY;
        for &s in &self.order {
            let s = s as usize;
            let rate = self.share[self.job_node[s] as usize];
            let rem = self.remaining[s];
            if rem <= completion_eps(rate) {
                return Some(self.clock);
            }
            if rate > 0.0 {
                let q = rem / rate;
                if q < best_q {
                    best_q = q;
                }
            }
        }
        // Saturate: a quotient past the clock's range converts to the
        // maximum duration, and a plain `+` would wrap it back to "now".
        (best_q < f64::INFINITY).then(|| {
            self.clock
                .saturating_add(SimDuration::from_secs_f64(best_q))
                .saturating_add(SimDuration::from_nanos(1))
        })
    }

    /// Advance to `now`, returning completions in deterministic id order.
    pub fn advance_to(&mut self, now: SimTime) -> Vec<CpuCompletion> {
        assert!(now >= self.clock, "cpu clock cannot run backwards");
        let dt = now.since(self.clock).as_secs_f64();
        let mut out = Vec::new();
        // One fused pass: integrate every job, collect the finished ones
        // and compact `order` around them. Node shares stay fixed until
        // the pass ends, so every job integrates at its pre-step rate.
        let mut kept = 0;
        for k in 0..self.order.len() {
            let s = self.order[k] as usize;
            let node = self.job_node[s] as usize;
            let rate = self.share[node];
            let mut rem = self.remaining[s];
            if dt > 0.0 {
                rem = (rem - rate * dt).max(0.0);
                self.remaining[s] = rem;
            }
            if rem <= completion_eps(rate) {
                self.runnable_per_node[node] -= 1;
                self.free.push(s as u32);
                out.push(CpuCompletion {
                    id: CpuJobId(self.ids[s]),
                    node,
                    tag: self.tags[s],
                });
            } else {
                self.order[kept] = s as u32;
                kept += 1;
            }
        }
        self.order.truncate(kept);
        self.advance_busy(now);
        // Recomputing a node twice is harmless: the second call stores the
        // same share and sets an unchanged rate at the same instant.
        for c in &out {
            self.recompute(c.node, now);
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
        self.busy_at_clock &= now == self.clock;
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
            for &s in &self.order {
                let s = s as usize;
                let rate = self.share[self.job_node[s] as usize];
                self.remaining[s] = (self.remaining[s] - rate * dt).max(0.0);
            }
        }
        self.advance_busy(now);
    }

    /// Bring every node's busy-core integrator to `now` and move the
    /// clock there. Every integrator is stepped at every instant the
    /// clock visits, so each accumulated sum keeps its exact per-step
    /// summation order.
    fn advance_busy(&mut self, now: SimTime) {
        // An integrator already at `now` would add `rate · 0.0`, a
        // bitwise no-op; skip the walk when all of them are there.
        if now != self.clock || !self.busy_at_clock {
            for b in &mut self.busy {
                b.advance(now);
            }
            self.busy_at_clock = true;
        }
        self.clock = now;
    }

    /// Refresh `node`'s share and busy-core rate after its runnable count
    /// changed. Every other node's rate is unchanged, and setting an
    /// unchanged rate at an instant its integrator already reached is a
    /// bitwise no-op, so only this node needs touching.
    fn recompute(&mut self, node: usize, now: SimTime) {
        let runnable = self.runnable_per_node[node];
        let cores = self.cores[node] as f64;
        self.share[node] = if runnable > 0 {
            self.speed[node] * (cores / runnable as f64).min(1.0)
        } else {
            0.0
        };
        self.busy[node].set_rate(now, (runnable as f64).min(cores));
    }
}

// simlint: allow(unit-suffix, rate is in core-seconds per second, matching CpuSim::share)
fn completion_eps(rate: f64) -> f64 {
    (rate * 2e-9).max(1e-12)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_job_runs_at_full_speed() {
        let mut cpu = CpuSim::homogeneous(1, 8, 1.0);
        cpu.submit(SimTime::ZERO, 0, 3.0, 42);
        let t = cpu.next_event_time().unwrap();
        assert!((t.as_secs_f64() - 3.0).abs() < 1e-6);
        let done = cpu.advance_to(t);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].tag, 42);
    }

    #[test]
    fn speed_factor_scales_execution() {
        let mut cpu = CpuSim::homogeneous(1, 8, 2.0);
        cpu.submit(SimTime::ZERO, 0, 3.0, 0);
        let t = cpu.next_event_time().unwrap();
        assert!((t.as_secs_f64() - 1.5).abs() < 1e-6);
    }

    #[test]
    fn oversubscription_time_slices() {
        // 4 cores, 8 identical jobs of 1 core-second each: every job runs
        // at rate 0.5, all complete at t=2.
        let mut cpu = CpuSim::homogeneous(1, 4, 1.0);
        for i in 0..8 {
            cpu.submit(SimTime::ZERO, 0, 1.0, i);
        }
        assert_eq!(cpu.utilization_pct(0), 100.0);
        let t = cpu.next_event_time().unwrap();
        assert!((t.as_secs_f64() - 2.0).abs() < 1e-6);
        let done = cpu.advance_to(t);
        assert_eq!(done.len(), 8);
        assert_eq!(cpu.utilization_pct(0), 0.0);
    }

    #[test]
    fn undersubscribed_node_not_fully_utilized() {
        let mut cpu = CpuSim::homogeneous(1, 8, 1.0);
        cpu.submit(SimTime::ZERO, 0, 10.0, 0);
        cpu.submit(SimTime::ZERO, 0, 10.0, 1);
        assert_eq!(cpu.utilization_pct(0), 25.0);
        assert_eq!(cpu.runnable(0), 2);
    }

    #[test]
    fn completion_frees_capacity_and_speeds_up_rest() {
        // 1 core, two jobs: 1 cs and 3 cs. PS: both at 0.5; first done at
        // t=2 (its 1 cs), second has 2 cs left, now at rate 1 -> done t=4.
        let mut cpu = CpuSim::homogeneous(1, 1, 1.0);
        cpu.submit(SimTime::ZERO, 0, 1.0, 0);
        cpu.submit(SimTime::ZERO, 0, 3.0, 1);
        let t1 = cpu.next_event_time().unwrap();
        assert!((t1.as_secs_f64() - 2.0).abs() < 1e-6);
        let d1 = cpu.advance_to(t1);
        assert_eq!(d1[0].tag, 0);
        let t2 = cpu.next_event_time().unwrap();
        assert!((t2.as_secs_f64() - 4.0).abs() < 1e-6, "{t2:?}");
        let d2 = cpu.advance_to(t2);
        assert_eq!(d2[0].tag, 1);
        assert!(cpu.next_event_time().is_none());
    }

    #[test]
    fn zero_work_completes_immediately() {
        let mut cpu = CpuSim::homogeneous(1, 1, 1.0);
        cpu.submit(SimTime::from_secs(5), 0, 0.0, 9);
        let t = cpu.next_event_time().unwrap();
        assert_eq!(t, SimTime::from_secs(5));
        assert_eq!(cpu.advance_to(t).len(), 1);
    }

    #[test]
    fn busy_core_seconds_accounting() {
        let mut cpu = CpuSim::homogeneous(1, 4, 1.0);
        for i in 0..2 {
            cpu.submit(SimTime::ZERO, 0, 5.0, i);
        }
        let t = SimTime::from_secs(3);
        cpu.advance_to(t);
        let cs = cpu.drain_busy_core_seconds(0, t);
        assert!((cs - 6.0).abs() < 1e-9, "2 busy cores x 3s = 6, got {cs}");
    }

    #[test]
    fn nodes_are_independent() {
        let mut cpu = CpuSim::homogeneous(2, 1, 1.0);
        cpu.submit(SimTime::ZERO, 0, 2.0, 0);
        cpu.submit(SimTime::ZERO, 1, 2.0, 1);
        // No sharing across nodes: both complete at t=2.
        let t = cpu.next_event_time().unwrap();
        assert!((t.as_secs_f64() - 2.0).abs() < 1e-6);
        assert_eq!(cpu.advance_to(t).len(), 2);
    }

    #[test]
    fn simultaneous_completions_report_in_job_id_order() {
        // Identical jobs all finish at the same instant and must come
        // back in submission (job-id) order, not node or slot order.
        let run = || {
            let mut cpu = CpuSim::homogeneous(4, 2, 1.0);
            for &(node, tag) in &[(3usize, 9u64), (0, 4), (2, 7), (1, 1), (0, 0)] {
                cpu.submit(SimTime::ZERO, node, 1.0, tag);
            }
            let t = cpu.next_event_time().unwrap();
            cpu.advance_to(t)
                .iter()
                .map(|c| (c.node, c.tag))
                .collect::<Vec<_>>()
        };
        let a = run();
        assert_eq!(a, run());
        // Submission order, not node order.
        assert_eq!(a, vec![(3, 9), (0, 4), (2, 7), (1, 1), (0, 0)]);
    }

    #[test]
    fn next_event_saturates_instead_of_wrapping() {
        // 1e12 core-seconds at speed 1e-12 is 1e24 s away, far past the
        // clock's range. The instant must saturate at SimTime::MAX; a
        // wrapping add would report a phantom completion due at once.
        let mut cpu = CpuSim::homogeneous(1, 1, 1e-12);
        cpu.submit(SimTime::from_secs(1), 0, 1e12, 0);
        assert_eq!(cpu.next_event_time(), Some(SimTime::MAX));
    }

    #[test]
    #[should_panic(expected = "unknown node")]
    fn submit_to_unknown_node_panics() {
        let mut cpu = CpuSim::homogeneous(1, 1, 1.0);
        cpu.submit(SimTime::ZERO, 5, 1.0, 0);
    }
}
