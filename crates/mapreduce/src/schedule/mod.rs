//! Task scheduling: MRv1 slots and YARN containers.
//!
//! The paper evaluates the same micro-benchmarks on Hadoop 1.x (fixed map
//! and reduce slots per TaskTracker, assigned by the JobTracker on
//! heartbeats) and on Hadoop 2.x / YARN (a per-node container pool sized
//! by memory and cores, negotiated by the ApplicationMaster). Both
//! policies live here behind one deterministic scheduler type.
//!
//! Node capacity is shared by every job the scheduler holds. Each free
//! slot goes to the job whose tenant has the smallest `running / weight`
//! (the Fair scheduler's instantaneous-deficit rule); ties go to the
//! lower tenant, then to the earlier job. A lone job therefore gets every
//! slot, maps first, exactly as a single-job JobTracker hands them out.

use std::collections::VecDeque;

use cluster::NodeSpec;
use simcore::time::SimDuration;
use simcore::units::ByteSize;

use crate::conf::{EngineKind, JobConf};

/// A task launch decision.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Launch {
    /// The job the task belongs to, in the order jobs were added.
    pub job: usize,
    /// True to launch a map, false a reduce.
    pub is_map: bool,
    /// Task index within its kind.
    pub index: u32,
    /// Slave node to run on.
    pub node: usize,
}

/// One job's launch queues and reduce slow-start state.
#[derive(Debug)]
struct JobQueue {
    tenant: usize,
    pending_maps: VecDeque<u32>,
    pending_reduces: VecDeque<u32>,
    maps_total: u32,
    maps_done: u32,
    slowstart: f64,
}

/// Deterministic slot/container scheduler.
#[derive(Debug)]
pub struct Scheduler {
    kind: EngineKind,
    n_nodes: usize,
    /// MRv1: map slots per node. YARN: unused.
    map_cap: u32,
    /// MRv1: reduce slots per node. YARN: unused.
    reduce_cap: u32,
    /// YARN: total containers per node.
    pool_cap: Vec<u32>,
    map_running: Vec<u32>,
    reduce_running: Vec<u32>,
    rr: usize,
    /// Crashed nodes: never schedule again, slots gone.
    dead: Vec<bool>,
    /// Blacklisted nodes: healthy but excluded from new assignments.
    blacklisted: Vec<bool>,
    /// Launch queues, one per job added.
    jobs: Vec<JobQueue>,
    /// Jobs that may still hold unlaunched tasks, in the order added.
    active: Vec<usize>,
    /// Fair-share weight per tenant.
    weights: Vec<f64>,
    /// Running tasks per tenant. Streams refuse fault plans, so a node
    /// crash (whose attempts are never released) cannot skew it.
    running: Vec<u32>,
}

impl Scheduler {
    /// Build a scheduler for the slots `conf` describes over `n_nodes`
    /// slaves of `spec`, with one tenant per fair-share weight and no jobs
    /// yet.
    pub fn new(conf: &JobConf, n_nodes: usize, spec: &NodeSpec, weights: &[f64]) -> Self {
        let mut pool_cap = vec![yarn_pool(conf, spec); n_nodes];
        if conf.engine == EngineKind::Yarn {
            // The MRAppMaster occupies one container on the first node.
            pool_cap[0] = pool_cap[0].saturating_sub(1).max(1);
        }
        Scheduler {
            kind: conf.engine,
            n_nodes,
            map_cap: conf.map_slots_per_node,
            reduce_cap: conf.reduce_slots_per_node,
            pool_cap,
            map_running: vec![0; n_nodes],
            reduce_running: vec![0; n_nodes],
            rr: 0,
            dead: vec![false; n_nodes],
            blacklisted: vec![false; n_nodes],
            jobs: Vec::new(),
            active: Vec::new(),
            weights: weights.to_vec(),
            running: vec![0; weights.len()],
        }
    }

    /// Queue every task of a job described by `conf`, owned by `tenant`.
    /// Returns the job's index, which [`Launch::job`] and the per-job
    /// calls below use.
    pub fn add_job(&mut self, conf: &JobConf, tenant: usize) -> usize {
        let job = self.jobs.len();
        self.jobs.push(JobQueue {
            tenant,
            pending_maps: (0..conf.num_maps).collect(),
            pending_reduces: (0..conf.num_reduces).collect(),
            maps_total: conf.num_maps,
            maps_done: 0,
            slowstart: conf.reduce_slowstart,
        });
        self.active.push(job);
        job
    }

    /// Drop a job's unlaunched tasks (the job failed).
    pub fn retire(&mut self, job: usize) {
        let q = &mut self.jobs[job];
        q.pending_maps.clear();
        q.pending_reduces.clear();
    }

    /// Heartbeat interval for this engine: MRv1 TaskTrackers beat fast on
    /// small clusters; the YARN AM-RM allocate cycle is a full second.
    pub fn heartbeat(&self) -> SimDuration {
        match self.kind {
            EngineKind::MRv1 => SimDuration::from_millis(300),
            EngineKind::Yarn => SimDuration::from_secs(1),
        }
    }

    /// Record a finished task of `job`, freeing its slot/container.
    pub fn on_task_done(&mut self, job: usize, is_map: bool, node: usize) {
        if is_map && !self.dead[node] {
            self.jobs[job].maps_done += 1;
        }
        self.release_slot(job, is_map, node);
    }

    /// Free the slot of an attempt of `job` that did not complete (failed
    /// or was killed) without counting a task completion.
    pub fn release_slot(&mut self, job: usize, is_map: bool, node: usize) {
        if self.dead[node] {
            return;
        }
        if is_map {
            self.map_running[node] -= 1;
        } else {
            self.reduce_running[node] -= 1;
        }
        self.running[self.jobs[job].tenant] -= 1;
    }

    /// A previously completed map of `job` lost its output (node crash);
    /// its completion no longer counts toward reduce slow-start.
    pub fn map_result_lost(&mut self, job: usize) {
        self.jobs[job].maps_done -= 1;
    }

    /// Take a node out of service permanently. All of its slots vanish;
    /// the engine kills the attempts that were running there.
    pub fn mark_dead(&mut self, node: usize) {
        self.dead[node] = true;
        self.map_running[node] = 0;
        self.reduce_running[node] = 0;
    }

    /// Has `node` crashed?
    pub fn is_dead(&self, node: usize) -> bool {
        self.dead[node]
    }

    /// Exclude `node` from future assignments after repeated task
    /// failures. Refuses (returning `false`) when it is the last node
    /// still accepting work, so the job cannot deadlock.
    pub fn blacklist(&mut self, node: usize) -> bool {
        if self.dead[node] || self.blacklisted[node] {
            return false;
        }
        if self.schedulable_nodes() <= 1 {
            return false;
        }
        self.blacklisted[node] = true;
        true
    }

    /// Nodes that have not crashed.
    pub fn healthy_nodes(&self) -> usize {
        self.dead.iter().filter(|d| !**d).count()
    }

    /// Nodes still accepting new work (alive and not blacklisted).
    pub fn schedulable_nodes(&self) -> usize {
        (0..self.n_nodes)
            .filter(|&n| !self.dead[n] && !self.blacklisted[n])
            .count()
    }

    /// Claim a slot for a speculative backup attempt of `job`, preferring
    /// any node other than `avoid` (where the original attempt is
    /// running). Returns the chosen node, or `None` when no capacity
    /// exists.
    pub fn reserve_for_backup(&mut self, job: usize, is_map: bool, avoid: usize) -> Option<usize> {
        let mut fallback = None;
        for off in 0..self.n_nodes {
            let node = (self.rr + off) % self.n_nodes;
            if !self.is_free(job, is_map, node) {
                continue;
            }
            if node == avoid {
                fallback.get_or_insert(node);
                continue;
            }
            self.occupy(job, is_map, node);
            return Some(node);
        }
        let node = fallback?;
        self.occupy(job, is_map, node);
        Some(node)
    }

    /// Take a slot on `node` for a task of `job` and move the round-robin
    /// cursor past it.
    fn occupy(&mut self, job: usize, is_map: bool, node: usize) {
        self.rr = (node + 1) % self.n_nodes;
        if is_map {
            self.map_running[node] += 1;
        } else {
            self.reduce_running[node] += 1;
        }
        self.running[self.jobs[job].tenant] += 1;
    }

    /// Can `node` take another task of this kind for `job`?
    fn is_free(&self, job: usize, is_map: bool, node: usize) -> bool {
        if self.dead[node] || self.blacklisted[node] {
            return false;
        }
        let used = self.map_running[node] + self.reduce_running[node];
        match (self.kind, is_map) {
            (EngineKind::MRv1, true) => self.map_running[node] < self.map_cap,
            (EngineKind::MRv1, false) => self.reduce_running[node] < self.reduce_cap,
            (EngineKind::Yarn, true) => used < self.pool_cap[node],
            (EngineKind::Yarn, false) => {
                // While the job's maps are still waiting, its AM holds
                // back reducers to at most half the pool so maps cannot
                // starve.
                used < self.pool_cap[node]
                    && (self.jobs[job].pending_maps.is_empty()
                        || self.reduce_running[node] < self.pool_cap[node] / 2)
            }
        }
    }

    /// Make all launch decisions possible right now.
    pub fn tick(&mut self) -> Vec<Launch> {
        let mut launches = Vec::new();
        while let Some(launch) = self.next_launch() {
            launches.push(launch);
        }
        launches
    }

    /// The next launch under fair sharing: jobs in order of their
    /// tenant's `running / weight`, then tenant, then job; the first job
    /// with a task some node can take gets the slot.
    fn next_launch(&mut self) -> Option<Launch> {
        let jobs = &self.jobs;
        self.active
            .retain(|&j| !(jobs[j].pending_maps.is_empty() && jobs[j].pending_reduces.is_empty()));
        let mut order = self.active.clone();
        let share = |j: usize| {
            let t = self.jobs[j].tenant;
            (f64::from(self.running[t]) / self.weights[t], t)
        };
        order.sort_by(|&a, &b| {
            let ((sa, ta), (sb, tb)) = (share(a), share(b));
            sa.total_cmp(&sb).then(ta.cmp(&tb)).then(a.cmp(&b))
        });
        order.into_iter().find_map(|j| self.place(j))
    }

    /// Launch one task of `job` if a node can take it: a map while any
    /// wait, else a reduce once slow-start allows.
    fn place(&mut self, job: usize) -> Option<Launch> {
        let q = &self.jobs[job];
        // Reducers may launch once the completed-maps fraction reaches
        // slow-start.
        let want_reduce = !q.pending_reduces.is_empty()
            && q.maps_done >= (q.slowstart * f64::from(q.maps_total)).ceil() as u32;
        let (is_map, node) = match (!q.pending_maps.is_empty())
            .then(|| self.free_node(job, true))
            .flatten()
        {
            Some(node) => (true, node),
            None => (
                false,
                want_reduce.then(|| self.free_node(job, false)).flatten()?,
            ),
        };
        self.occupy(job, is_map, node);
        let q = &mut self.jobs[job];
        let pending = if is_map {
            &mut q.pending_maps
        } else {
            &mut q.pending_reduces
        };
        let index = pending.pop_front().expect("pending task");
        Some(Launch {
            job,
            is_map,
            index,
            node,
        })
    }

    /// The first node with a free slot, starting from the round-robin
    /// cursor so tasks spread evenly.
    fn free_node(&self, job: usize, is_map: bool) -> Option<usize> {
        (0..self.n_nodes)
            .map(|off| (self.rr + off) % self.n_nodes)
            .find(|&node| self.is_free(job, is_map, node))
    }

    /// Put a task of `job` back in the launch queue after a failed
    /// attempt (the JobTracker / AM re-schedules failed tasks on the next
    /// heartbeat).
    pub fn requeue(&mut self, job: usize, is_map: bool, index: u32) {
        let q = &mut self.jobs[job];
        if is_map {
            q.pending_maps.push_back(index);
        } else {
            q.pending_reduces.push_back(index);
        }
        if !self.active.contains(&job) {
            self.active.push(job);
            self.active.sort_unstable();
        }
    }
}

/// YARN containers per node: bounded by cores and by memory.
pub(crate) fn yarn_pool(conf: &JobConf, spec: &NodeSpec) -> u32 {
    let by_mem = spec.memory.as_bytes() / conf.container_memory.as_bytes().max(1);
    (by_mem as u32).min(spec.cores).max(1)
}

/// What a node's OS page cache gets: the memory task JVMs leave, at
/// least 2 GiB. Task heaps are wired memory: MRv1 reserves a 1 GiB heap
/// per slot, YARN the container pool.
pub(crate) fn page_cache_budget(conf: &JobConf, spec: &NodeSpec) -> ByteSize {
    let wired = match conf.engine {
        EngineKind::MRv1 => {
            (u64::from(conf.map_slots_per_node) + u64::from(conf.reduce_slots_per_node))
                * ByteSize::from_gib(1).as_bytes()
        }
        EngineKind::Yarn => u64::from(yarn_pool(conf, spec)) * conf.container_memory.as_bytes(),
    };
    ByteSize::from_bytes(
        spec.memory
            .as_bytes()
            .saturating_sub(wired)
            .max(ByteSize::from_gib(2).as_bytes()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::{ClusterPreset, NodeSpec};

    fn conf(maps: u32, reduces: u32, engine: EngineKind) -> JobConf {
        JobConf {
            num_maps: maps,
            num_reduces: reduces,
            engine,
            ..JobConf::default()
        }
    }

    /// A scheduler holding one job (job 0) of `c` over `n` Westmere nodes.
    fn one_job(c: &JobConf, n: usize) -> Scheduler {
        let mut s = Scheduler::new(c, n, &NodeSpec::westmere(), &[1.0]);
        s.add_job(c, 0);
        s
    }

    #[test]
    fn mrv1_single_wave_fills_slots() {
        // 16 maps, 4 nodes x 4 slots: all launch in one tick.
        let mut c = conf(16, 8, EngineKind::MRv1);
        c.map_slots_per_node = 4;
        let mut s = one_job(&c, 4);
        let launches = s.tick();
        let maps: Vec<_> = launches.iter().filter(|l| l.is_map).collect();
        assert_eq!(maps.len(), 16);
        // Even spread: 4 per node.
        for node in 0..4 {
            assert_eq!(maps.iter().filter(|l| l.node == node).count(), 4);
        }
        // Slow-start holds all reducers back (no map finished yet).
        assert!(launches.iter().all(|l| l.is_map));
        assert_eq!(s.jobs[0].pending_reduces.len(), 8);
    }

    #[test]
    fn mrv1_two_waves_when_slots_short() {
        let mut c = conf(16, 1, EngineKind::MRv1);
        c.map_slots_per_node = 2;
        let mut s = one_job(&c, 4);
        assert_eq!(s.tick().len(), 8);
        assert_eq!(s.jobs[0].pending_maps.len(), 8);
        // Nothing new until slots free up.
        assert!(s.tick().is_empty());
        s.on_task_done(0, true, 0);
        let wave2 = s.tick();
        // One freed map slot refills; the lone reducer also clears
        // slow-start (1 of 16 maps done >= ceil(0.05*16) = 1).
        let maps2: Vec<_> = wave2.iter().filter(|l| l.is_map).collect();
        assert_eq!(maps2.len(), 1);
        assert_eq!(maps2[0].node, 0);
    }

    #[test]
    fn reducers_wait_for_slowstart() {
        let c = conf(20, 4, EngineKind::MRv1);
        let mut s = one_job(&c, 4);
        let first = s.tick();
        assert_eq!(first.iter().filter(|l| !l.is_map).count(), 0);
        // ceil(0.05 * 20) = 1 map must complete.
        s.on_task_done(0, true, 0);
        let second = s.tick();
        let reduces = second.iter().filter(|l| !l.is_map).count();
        assert_eq!(reduces, 4);
    }

    #[test]
    fn yarn_pool_respects_memory_and_cores() {
        let c = conf(1, 1, EngineKind::Yarn);
        // Westmere: 24 GiB / 1 GiB containers = 24, capped by 8 cores.
        assert_eq!(yarn_pool(&c, &NodeSpec::westmere()), 8);
        let mut c2 = c.clone();
        c2.container_memory = ByteSize::from_gib(16);
        // 24/16 = 1 container by memory.
        assert_eq!(yarn_pool(&c2, &NodeSpec::westmere()), 1);
    }

    #[test]
    fn page_cache_budget_matches_the_engines_inline_formula_on_both_presets() {
        // The engine once computed the reservation inline, with no
        // `.max(1)` on the YARN pool. On both testbeds a node holds at
        // least one container by memory and by cores, so the floor is
        // unreachable and the shared formula is bit-identical.
        for preset in [ClusterPreset::ClusterA, ClusterPreset::ClusterB] {
            let node = preset.node_spec();
            for engine in [EngineKind::MRv1, EngineKind::Yarn] {
                let c = conf(16, 8, engine);
                let by_mem = node.memory.as_bytes() / c.container_memory.as_bytes();
                assert!(by_mem >= 1 && node.cores >= 1, "{preset:?}");
                let wired = match engine {
                    EngineKind::MRv1 => {
                        u64::from(c.map_slots_per_node + c.reduce_slots_per_node)
                            * ByteSize::from_gib(1).as_bytes()
                    }
                    EngineKind::Yarn => {
                        by_mem.min(u64::from(node.cores)) * c.container_memory.as_bytes()
                    }
                };
                let inline = node
                    .memory
                    .as_bytes()
                    .saturating_sub(wired)
                    .max(ByteSize::from_gib(2).as_bytes());
                assert_eq!(
                    page_cache_budget(&c, &node).as_bytes(),
                    inline,
                    "{preset:?} {engine:?}"
                );
            }
        }
    }

    #[test]
    fn yarn_reducers_leave_headroom_for_maps() {
        let c = conf(64, 16, EngineKind::Yarn);
        let mut s = one_job(&c, 8);
        let w1 = s.tick();
        // Pool is 8 per node (7 on node 0 for the AM) -> 63 maps launch.
        assert_eq!(w1.iter().filter(|l| l.is_map).count(), 63);
        for _ in 0..4 {
            s.on_task_done(0, true, 1);
        }
        let w2 = s.tick();
        // 4 slots freed: with 60 maps done? No: 4 done of 64, slowstart
        // ceil(0.05*64)=4 -> reducers now allowed, but maps still pending
        // get priority and refill all four slots.
        assert_eq!(w2.iter().filter(|l| l.is_map).count(), 1);
        assert!(w2.iter().filter(|l| !l.is_map).count() <= 4);
    }

    #[test]
    fn dead_nodes_never_receive_work() {
        let c = conf(8, 2, EngineKind::MRv1);
        let mut s = one_job(&c, 2);
        s.mark_dead(0);
        assert_eq!(s.healthy_nodes(), 1);
        let launches = s.tick();
        assert!(!launches.is_empty());
        assert!(launches.iter().all(|l| l.node == 1));
    }

    #[test]
    fn blacklist_spares_the_last_schedulable_node() {
        let c = conf(4, 1, EngineKind::MRv1);
        let mut s = one_job(&c, 3);
        assert!(s.blacklist(0));
        assert!(s.blacklist(1));
        // Node 2 is the last one accepting work.
        assert!(!s.blacklist(2));
        assert!(!s.blacklisted[2]);
        assert!(s.tick().iter().all(|l| l.node == 2));
    }

    #[test]
    fn backup_reservation_avoids_the_original_node() {
        let mut c = conf(2, 1, EngineKind::MRv1);
        c.map_slots_per_node = 2;
        let mut s = one_job(&c, 2);
        let launches = s.tick();
        assert_eq!(launches.len(), 2);
        let node = s.reserve_for_backup(0, true, 0).expect("capacity exists");
        assert_eq!(node, 1);
        // Node 1 is now full; only the avoided node has room left.
        let fallback = s.reserve_for_backup(0, true, 0).expect("falls back");
        assert_eq!(fallback, 0);
        assert!(s.reserve_for_backup(0, true, 0).is_none());
    }

    #[test]
    fn all_tasks_eventually_launch() {
        let c = conf(40, 10, EngineKind::MRv1);
        let mut s = one_job(&c, 4);
        let mut done_maps = 0;
        let mut done_reduces = 0;
        let mut guard = 0;
        while done_maps < 40 || done_reduces < 10 {
            for l in s.tick() {
                // Complete tasks instantly for this test.
                s.on_task_done(l.job, l.is_map, l.node);
                if l.is_map {
                    done_maps += 1;
                } else {
                    done_reduces += 1;
                }
            }
            guard += 1;
            assert!(guard < 100, "scheduler stalled");
        }
    }

    #[test]
    fn free_slots_go_to_the_tenant_furthest_below_its_share() {
        // Two nodes x 2 map slots, three jobs of 8 maps each: job 0 and
        // job 2 belong to tenant 0 (weight 1), job 1 to tenant 1 (weight 3).
        let mut c = conf(8, 1, EngineKind::MRv1);
        c.map_slots_per_node = 2;
        // Reducers wait for every map, so only map slots are in play.
        c.reduce_slowstart = 1.0;
        let mut s = Scheduler::new(&c, 2, &NodeSpec::westmere(), &[1.0, 3.0]);
        for tenant in [0, 1, 0] {
            s.add_job(&c, tenant);
        }
        let jobs: Vec<usize> = s.tick().iter().map(|l| l.job).collect();
        // The tie at 0/1 vs 0/3 goes to tenant 0. Tenant 1 then trails
        // (0/3, 1/3, 2/3 < 1/1) and takes the other three slots.
        assert_eq!(jobs, vec![0, 1, 1, 1]);
        // A slot freed by tenant 0 goes back to it, and within the tenant
        // the earlier job drains first.
        s.on_task_done(0, true, 0);
        let next: Vec<usize> = s.tick().iter().map(|l| l.job).collect();
        assert_eq!(next, vec![0]);
        // Tenant 1 at 1/3 now trails tenant 0 at 1/1, so it refills both
        // of its freed slots.
        s.on_task_done(1, true, 1);
        s.on_task_done(1, true, 0);
        let next: Vec<usize> = s.tick().iter().map(|l| l.job).collect();
        assert_eq!(next, vec![1, 1]);
    }
}
