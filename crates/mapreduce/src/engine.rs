//! The discrete-event MapReduce engine driver.
//!
//! [`Engine`] binds the cluster (CPU + disk), the network, the scheduler,
//! and the task state machines into one event loop. Each iteration takes
//! the earliest pending completion across all sub-simulators, advances
//! every clock to it, and routes the completion to the owning task, which
//! responds by submitting its next CPU burst, disk I/O, or network flow.
//! Heartbeats, resource-monitor ticks, and planned node crashes run as
//! control events on the same timeline.
//!
//! One engine runs one job ([`Engine::with_topology`]) or a stream of
//! jobs sharing the cluster, the network and the slots
//! ([`Engine::stream`]); each job keeps its own spec, partitioner,
//! shuffle plan, counters, shuffle registry and attempt bookkeeping.
//! `run` draws every job's shuffle plan before the first event, so a
//! map's partitioner runs once however many attempts the map takes.
//!
//! Tasks execute as **attempts**: every launch (first try, retry after a
//! failure, or speculative backup) occupies a fresh attempt slot, and
//! correlation tags key on the slot so a killed attempt's in-flight
//! completions are recognized as stale and dropped. The fault-tolerance
//! rules mirror Hadoop's JobTracker: a task that fails `max_attempts`
//! times kills the job; a crashed node's running attempts die and its
//! committed map outputs are re-executed elsewhere; nodes accumulating
//! failures are blacklisted; and (optionally) straggling tasks get a
//! speculative backup whose first finisher wins.
//!
//! Everything is deterministic: same [`JobSpec`] + seed (and the same
//! [`crate::faults::FaultPlan`]) ⇒ identical result to the nanosecond.

use cluster::{Cluster, CpuSim, NodeSpec};
use simcore::event::{BudgetBreach, EventBudget, EventQueue};
use simcore::rng::SeedFactory;
use simcore::stats::IntervalSampler;
use simcore::time::{SimDuration, SimTime};
use simcore::trace::{Mark, Trace};
use simnet::{Interconnect, Network, NodeId, ProtocolModel, Topology};

use crate::costs::CostModel;
use crate::counters::Counters;
use crate::faults::{FailureDiag, FaultInjector, JobOutcome};
use crate::job::{BudgetDiag, JobResult, JobSpec, PartitionerFactory, TaskTiming};
use crate::schedule::{page_cache_budget, Launch, Scheduler};
use crate::shuffle::rdma::ShuffleModel;
use crate::shuffle::{ShufflePlan, ShuffleRegistry};
use crate::task::map::MapTask;
use crate::task::reduce::ReduceTask;
use crate::task::{checked_slot, tag, untag, Env, Note, Stage};

/// Attempt slots one engine run can number: a correlation tag keeps 24
/// bits for the slot (and reserves slot value 0 for the sink).
pub const ATTEMPT_SLOTS: u64 = crate::task::SLOT_LIMIT;

enum Task {
    Map(MapTask),
    Reduce(ReduceTask),
    /// An attempt doomed by failure injection: it occupies its slot while
    /// burning startup CPU, then dies; the engine re-queues the task.
    Doomed,
}

impl Task {
    fn is_done(&self) -> bool {
        match self {
            Task::Map(m) => m.is_done(),
            Task::Reduce(r) => r.is_done(),
            Task::Doomed => false,
        }
    }

    /// Close the attempt's open phase span with the `aborted` marker.
    /// No-op for completed attempts and doomed stubs (which never open
    /// a span).
    fn abort_span(&mut self, now: SimTime, trace: &mut Trace) {
        match self {
            Task::Map(m) => m.abort_span(now, trace),
            Task::Reduce(r) => r.abort_span(now, trace),
            Task::Doomed => {}
        }
    }
}

/// Static facts about one attempt slot, kept even after the attempt dies
/// so stale completions can still be attributed.
#[derive(Clone, Copy, Debug)]
struct SlotInfo {
    job: usize,
    is_map: bool,
    index: u32,
    node: usize,
    backup: bool,
}

#[derive(Clone, Copy, Debug)]
enum Control {
    Heartbeat,
    MonitorTick,
    /// Job `.0`'s fault plan crashes node `.1`.
    NodeCrash(usize, usize),
}

/// One job of a stream: what runs, for whom, and when it arrives.
#[allow(missing_debug_implementations)] // holds a `dyn` partitioner factory
pub struct StreamJob<'f> {
    /// The workload.
    pub spec: JobSpec,
    /// Its partitioner.
    pub factory: &'f dyn PartitionerFactory,
    /// Index into the stream's tenant weights.
    pub tenant: usize,
    /// Submission instant; the job's setup starts here.
    pub arrival: SimTime,
}

/// Everything the engine keeps for one job.
struct Job<'f> {
    spec: JobSpec,
    factory: &'f dyn PartitionerFactory,
    tenant: usize,
    arrival: SimTime,
    seeds: SeedFactory,
    injector: FaultInjector,
    /// Drawn when the run starts; `None` until then.
    plan: Option<ShufflePlan>,
    registry: ShuffleRegistry,
    counters: Counters,
    /// The job's attempt slots, in launch order.
    slots: Vec<u32>,
    reduces_done: u32,
    last_reduce_finish: SimTime,
    /// Attempts launched per task id (map index, or `num_maps + reduce`).
    attempts: Vec<u32>,
    /// Failed attempts per task id, against `max_attempts`.
    failures: Vec<u32>,
    /// Whether each task has committed (and its result is still valid).
    task_done: Vec<bool>,
    /// Whether each task already received a speculative backup.
    speculated: Vec<bool>,
    /// Set when the job aborts; its events are dropped from then on.
    failed: Option<FailureDiag>,
    /// Completed-attempt duration sums/counts, `[maps, reduces]`, feeding
    /// the speculation threshold.
    dur_sum: [f64; 2],
    dur_n: [u32; 2],
}

impl Job<'_> {
    /// Task-id for the per-task bookkeeping vectors.
    fn task_id(&self, is_map: bool, index: u32) -> usize {
        if is_map {
            index as usize
        } else {
            (self.spec.conf.num_maps + index) as usize
        }
    }

    fn is_finished(&self) -> bool {
        self.failed.is_some() || self.reduces_done == self.spec.conf.num_reduces
    }
}

/// Splits `self` into `(tasks, job slots, env)` so a task state machine
/// of job `$job` can borrow the sub-simulators while the engine still
/// owns the task table.
macro_rules! split_env {
    ($self:ident, $job:expr, $now:expr, $notes:expr) => {{
        let Engine {
            tasks,
            jobs,
            cluster,
            net,
            costs,
            protocol,
            shuffle_model,
            timers,
            trace,
            ..
        } = &mut *$self;
        let job = &mut jobs[$job];
        (
            tasks,
            &job.slots,
            Env {
                now: $now,
                cpu: &mut cluster.cpu,
                disk: &mut cluster.disk,
                net,
                counters: &mut job.counters,
                conf: &job.spec.conf,
                spec: &job.spec,
                costs,
                protocol: *protocol,
                shuffle_model: *shuffle_model,
                plan: job.plan.as_ref().expect("run draws the plan"),
                registry: &mut job.registry,
                faults: &job.injector,
                timers,
                notes: $notes,
                trace,
            },
        )
    }};
}

/// Drives one job, or a stream of jobs, to completion over a simulated
/// cluster and network.
pub struct Engine<'f> {
    // (manual Debug below — jobs hold dyn references)
    jobs: Vec<Job<'f>>,
    /// Jobs that committed every reduce or failed.
    jobs_done: usize,
    costs: CostModel,
    protocol: ProtocolModel,
    shuffle_model: ShuffleModel,
    cluster: Cluster,
    net: Network,
    /// Per-slave CPU % (Fig. 7(a)), read through [`cpu_pct`].
    cpu_monitor: IntervalSampler,
    /// Per-slave receive MB/s (Fig. 7(b)), read through [`rx_mb_s`].
    net_monitor: IntervalSampler,
    /// Sampling period for both monitors and the MonitorTick control
    /// event (from `JobConf::monitor_interval_s`).
    monitor_interval: SimDuration,
    /// Jobs whose tasks the scheduler holds: job `j` joins at the first
    /// heartbeat after its setup ends (the first job at construction).
    opened: usize,
    scheduler: Scheduler,
    /// Attempt slots, in launch order. `None` = the attempt died or was
    /// killed; its in-flight completions are dropped as stale.
    tasks: Vec<Option<Task>>,
    slot_info: Vec<SlotInfo>,
    control: EventQueue<Control>,
    /// Pure timers (fetch-retry backoff); payloads are correlation tags.
    timers: EventQueue<u64>,
    /// Reusable buffer for network completions, taken out of `self` for
    /// each event-loop step so dispatch can borrow `self` mutably.
    net_done: Vec<simnet::FlowCompletion>,
    /// Failed attempts per node, for blacklisting.
    node_failures: Vec<u32>,
    /// Watchdog over event count and simulated time (see [`EventBudget`]).
    budget: EventBudget,
    /// Set when the watchdog trips; the loop exits on the spot.
    budget_breach: Option<BudgetBreach>,
    /// Last instant the event loop processed (for failure diagnostics).
    clock: SimTime,
    /// Phase-span recorder. Disabled by default — recording costs nothing
    /// until [`Engine::enable_tracing`] is called before `run`.
    trace: Trace,
}

impl std::fmt::Debug for Engine<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("jobs", &self.jobs.len())
            .field("jobs_done", &self.jobs_done)
            .field("clock", &self.clock)
            .finish_non_exhaustive()
    }
}

impl<'f> Engine<'f> {
    /// Build an engine for `spec` on `n_slaves` nodes of `node_spec`
    /// connected by `interconnect` as a flat non-blocking crossbar.
    pub fn new(
        spec: JobSpec,
        factory: &'f dyn PartitionerFactory,
        node_spec: NodeSpec,
        n_slaves: usize,
        interconnect: Interconnect,
    ) -> Self {
        Self::with_topology(
            spec,
            factory,
            node_spec,
            Topology::single_switch(n_slaves, interconnect),
        )
    }

    /// Build an engine for `spec` over an explicit network topology
    /// (rack-aware, oversubscribed, fabric-capped, or custom-calibrated);
    /// the cluster size is the topology's node count.
    pub fn with_topology(
        spec: JobSpec,
        factory: &'f dyn PartitionerFactory,
        node_spec: NodeSpec,
        topology: Topology,
    ) -> Self {
        let job = StreamJob {
            spec,
            factory,
            tenant: 0,
            arrival: SimTime::ZERO,
        };
        Self::stream(vec![job], &[1.0], node_spec, topology)
    }

    /// Build an engine that runs `jobs`, in arrival order, on one shared
    /// cluster. Tenant `t` gets free slots in proportion to `weights[t]`.
    /// Cluster-wide settings (slots, page cache, shuffle engine, monitor
    /// interval, watchdog) come from the first job's conf.
    ///
    /// Panics on an invalid spec, a fault plan naming a node outside the
    /// topology, or jobs out of arrival order.
    pub fn stream(
        jobs: Vec<StreamJob<'f>>,
        weights: &[f64],
        node_spec: NodeSpec,
        topology: Topology,
    ) -> Self {
        let n_slaves = topology.n_nodes();
        assert!(!jobs.is_empty(), "an engine runs at least one job");
        assert!(
            jobs.windows(2).all(|w| w[0].arrival <= w[1].arrival),
            "jobs must come in arrival order"
        );
        for job in &jobs {
            job.spec.validate().expect("invalid job spec");
            let faults = &job.spec.conf.faults;
            let crashes = faults.node_crashes.iter().map(|c| c.node);
            let nodes = crashes.chain(faults.node_slowdowns.iter().map(|s| s.node));
            if let Some(node) = nodes.max().filter(|&n| n >= n_slaves) {
                panic!("fault plan names node {node} of {n_slaves}");
            }
        }
        let conf = &jobs[0].spec.conf;
        let mut cluster = Cluster::new(node_spec.clone(), n_slaves);
        cluster
            .disk
            .enable_page_cache(page_cache_budget(conf, &node_spec));
        let monitor_interval = SimDuration::from_secs_f64(conf.monitor_interval_s);
        let protocol = *topology.protocol();
        let net = Network::new(topology);
        let mut scheduler = Scheduler::new(conf, n_slaves, &node_spec, weights);
        // The first job's tasks are schedulable from the start, as a lone
        // job's always were; later jobs queue when their setup ends.
        scheduler.add_job(conf, jobs[0].tenant);
        let n_tasks: usize = jobs.iter().map(|j| j.spec.n_tasks()).sum();
        let budget = EventBudget::new(
            conf.max_events,
            conf.max_sim_time_s.map(SimTime::from_secs_f64),
        );
        let shuffle_model = ShuffleModel::for_kind(conf.shuffle_engine);
        Engine {
            jobs: jobs
                .into_iter()
                .map(|j| Job {
                    registry: ShuffleRegistry::new(&j.spec, n_slaves, node_spec.memory),
                    plan: None,
                    seeds: SeedFactory::new(j.spec.conf.seed),
                    injector: FaultInjector::new(j.spec.conf.faults.clone(), j.spec.conf.seed),
                    counters: Counters::default(),
                    slots: Vec::new(),
                    reduces_done: 0,
                    last_reduce_finish: SimTime::ZERO,
                    attempts: vec![0; j.spec.n_tasks()],
                    failures: vec![0; j.spec.n_tasks()],
                    task_done: vec![false; j.spec.n_tasks()],
                    speculated: vec![false; j.spec.n_tasks()],
                    failed: None,
                    dur_sum: [0.0; 2],
                    dur_n: [0; 2],
                    spec: j.spec,
                    factory: j.factory,
                    tenant: j.tenant,
                    arrival: j.arrival,
                })
                .collect(),
            jobs_done: 0,
            protocol,
            costs: CostModel::calibrated(),
            shuffle_model,
            cluster,
            net,
            cpu_monitor: IntervalSampler::new(n_slaves, monitor_interval),
            net_monitor: IntervalSampler::new(n_slaves, monitor_interval),
            monitor_interval,
            opened: 1,
            scheduler,
            tasks: Vec::new(),
            slot_info: Vec::new(),
            control: EventQueue::with_capacity(16),
            timers: EventQueue::with_capacity(n_tasks.max(16)),
            net_done: Vec::with_capacity(64),
            node_failures: vec![0; n_slaves],
            budget,
            budget_breach: None,
            clock: SimTime::ZERO,
            trace: Trace::disabled(),
        }
    }

    /// Record per-task phase spans and scheduler marks during the run.
    /// The resulting [`JobResult`] carries the span stream (`trace`) and a
    /// per-phase breakdown (`phases`). Must be called before [`Engine::run`].
    pub fn enable_tracing(&mut self) {
        self.trace = Trace::enabled();
    }

    /// Override the cost model (ablations, calibration experiments).
    pub fn set_cost_model(&mut self, costs: CostModel) {
        self.costs = costs;
    }

    /// Override the shuffle-engine behaviour model (ablations).
    pub fn set_shuffle_model(&mut self, model: ShuffleModel) {
        self.shuffle_model = model;
    }

    /// Turn off the OS page-cache model so all spill I/O hits the
    /// spindles synchronously (ablations).
    pub fn disable_page_cache(&mut self) {
        self.cluster.disk.disable_page_cache();
    }

    /// Run the job to completion (or until it exhausts its fault budget
    /// and aborts with [`JobOutcome::Failed`]). A stream engine returns
    /// its first job's result; [`Engine::run_all`] returns every job's.
    pub fn run(self) -> JobResult {
        self.run_all().swap_remove(0)
    }

    /// Run every job to completion; one result per job, in job order.
    /// Job times run from each job's arrival. The per-node series, the
    /// trace and the simulated-work count describe the whole cluster, so
    /// only a lone job's result carries them.
    pub fn run_all(mut self) -> Vec<JobResult> {
        self.simulate();
        self.finish()
    }

    fn simulate(&mut self) {
        for job in &mut self.jobs {
            job.plan = Some(ShufflePlan::draw(&job.spec, job.factory, &job.seeds));
        }
        // Job setup (JobTracker submission, setup task, split computation).
        self.control.schedule(self.start_of(0), Control::Heartbeat);
        self.control.schedule(
            SimTime::ZERO.saturating_add(self.monitor_interval),
            Control::MonitorTick,
        );
        for (j, job) in self.jobs.iter().enumerate() {
            for c in &job.spec.conf.faults.node_crashes {
                let at = SimTime::from_secs_f64(c.at_secs);
                self.control.schedule(at, Control::NodeCrash(j, c.node));
            }
        }

        let mut guard: u64 = 0;
        while self.jobs_done < self.jobs.len() {
            guard += 1;
            assert!(
                guard < 500_000_000,
                "engine event-count guard tripped: likely stall"
            );
            let Some(now) = self.next_time() else {
                // Nothing pending but work outstanding: defensive abort
                // instead of a panic (should be unreachable — blacklisting
                // always leaves one schedulable node).
                let at = self.clock;
                self.fail_all(at, "simulation stalled with no pending events");
                break;
            };
            self.clock = now;
            // Watchdog: one charge per loop step (each step dispatches at
            // least one event). On breach, capture diagnostics and abort
            // gracefully; the partial result is still well-formed.
            if let Err(breach) = self.budget.charge(now) {
                self.budget_breach = Some(breach);
                break;
            }
            // Completion instants and timers saturate at the top of the
            // u64-nanosecond clock rather than wrap; reaching it means
            // the run needs more time than the clock holds.
            if now == SimTime::MAX {
                self.fail_all(
                    now,
                    "the run passes the simulated clock's range (~584 years)",
                );
                break;
            }
            // Advance every sub-simulator to the common instant.
            let cpu_done = self.cluster.cpu.advance_to(now);
            let disk_done = self.cluster.disk.advance_to(now);
            let mut net_done = std::mem::take(&mut self.net_done);
            net_done.clear();
            self.net.advance_to_into(now, &mut net_done);

            // Control events due now.
            while self.control.peek_time() == Some(now) {
                let (_, ev) = self.control.pop().expect("peeked event");
                match ev {
                    Control::Heartbeat => {
                        // Jobs whose setup has ended join the scheduler.
                        while self.opened < self.jobs.len() && self.start_of(self.opened) <= now {
                            let job = &self.jobs[self.opened];
                            self.scheduler.add_job(&job.spec.conf, job.tenant);
                            self.opened += 1;
                        }
                        self.do_schedule(now);
                        self.maybe_speculate(now);
                        let hb = self.scheduler.heartbeat();
                        let next = self.idle_until(now).unwrap_or(now.saturating_add(hb));
                        self.control.schedule(next, Control::Heartbeat);
                    }
                    Control::MonitorTick => {
                        self.cpu_monitor
                            .maybe_sample(now, cpu_pct(&mut self.cluster.cpu));
                        self.net_monitor.maybe_sample(now, rx_mb_s(&mut self.net));
                        // Idle windows held no work; they go unsampled.
                        let resume = self.idle_until(now).unwrap_or(now);
                        self.cpu_monitor.skip_to(resume);
                        self.net_monitor.skip_to(resume);
                        let next = self.cpu_monitor.next_sample();
                        self.control.schedule(next, Control::MonitorTick);
                    }
                    Control::NodeCrash(j, node) => self.handle_node_crash(j, node, now),
                }
            }

            // Timers due now (fetch-retry backoffs).
            while self.timers.peek_time() == Some(now) {
                let (_, t) = self.timers.pop().expect("peeked timer");
                self.dispatch(t, now);
            }

            // Route completions to their tasks.
            for c in cpu_done {
                self.dispatch(c.tag, now);
            }
            for c in disk_done {
                self.dispatch(c.tag, now);
            }
            for c in &net_done {
                self.dispatch(c.tag, now);
            }
            self.net_done = net_done;
        }
    }

    /// When job `j`'s setup ends and its tasks may be scheduled.
    fn start_of(&self, j: usize) -> SimTime {
        let setup = SimDuration::from_secs_f64(self.costs.job_overhead_s);
        self.jobs[j].arrival.saturating_add(setup)
    }

    /// The next job's start if every job that has arrived by `now` is
    /// finished but more are to come. The periodic chains skip to it, so
    /// an idle gap between arrivals costs no steps.
    fn idle_until(&self, now: SimTime) -> Option<SimTime> {
        let arrived = self.jobs.partition_point(|j| j.arrival <= now);
        (arrived == self.jobs_done && arrived < self.jobs.len()).then(|| self.start_of(arrived))
    }

    /// Snapshot of where `job` stood when the watchdog tripped.
    fn budget_diag(&self, job: &Job<'_>, breach: BudgetBreach) -> BudgetDiag {
        let num_maps = job.spec.conf.num_maps as usize;
        let maps_done = job.task_done[..num_maps].iter().filter(|&&d| d).count() as u32;
        BudgetDiag {
            breach: breach.to_string(),
            at: self.clock,
            events: self.budget.events(),
            queue_depth: self.control.len() + self.timers.len(),
            maps_done,
            maps_total: job.spec.conf.num_maps,
            reduces_done: job.reduces_done,
            reduces_total: job.spec.conf.num_reduces,
        }
    }

    fn next_time(&mut self) -> Option<SimTime> {
        [
            self.cluster.cpu.next_event_time(),
            self.cluster.disk.next_event_time(),
            self.net.next_event_time(),
            self.control.peek_time(),
            self.timers.peek_time(),
        ]
        .into_iter()
        .flatten()
        .min()
    }

    /// Attempts of job `j`'s task still executing (excludes committed
    /// attempts).
    fn live_attempts(&self, j: usize, is_map: bool, index: u32) -> usize {
        self.jobs[j]
            .slots
            .iter()
            .filter(|&&s| {
                let si = self.slot_info[s as usize];
                si.is_map == is_map
                    && si.index == index
                    && self.tasks[s as usize]
                        .as_ref()
                        .is_some_and(|t| !t.is_done())
            })
            .count()
    }

    fn dispatch(&mut self, tag_: u64, now: SimTime) {
        let Some((slot, stage, seq)) = untag(tag_) else {
            return; // sink work (sender-side protocol processing)
        };
        let s = slot as usize;
        if s >= self.tasks.len() || self.tasks[s].is_none() {
            return; // stale completion for a killed attempt
        }
        let j = self.slot_info[s].job;
        if self.jobs[j].failed.is_some() {
            return;
        }
        // A doomed attempt dies the moment its startup burst completes.
        if matches!(self.tasks[s], Some(Task::Doomed)) {
            self.tasks[s] = None;
            self.on_attempt_failed(slot, now);
            return;
        }
        let mut notes = Vec::new();
        {
            let (tasks, _, mut env) = split_env!(self, j, now, &mut notes);
            match tasks[s].as_mut().expect("checked above") {
                Task::Map(m) => m.on_event(stage, seq, &mut env),
                Task::Reduce(r) => r.on_event(stage, seq, &mut env),
                Task::Doomed => unreachable!("handled above"),
            }
        }
        self.handle_notes(notes, now);
    }

    fn handle_notes(&mut self, mut notes: Vec<Note>, now: SimTime) {
        while !notes.is_empty() {
            let batch: Vec<Note> = std::mem::take(&mut notes);
            for note in batch {
                match note {
                    Note::MapOutputReady { slot } => {
                        let si = self.slot_info[slot as usize];
                        self.notify_reducers(si.job, si.index, now, &mut notes);
                    }
                    Note::TaskFinished { slot } => {
                        self.on_task_finished(slot, now);
                    }
                    Note::AttemptFailed { slot } => {
                        let s = slot as usize;
                        if let Some(t) = self.tasks[s].as_mut() {
                            t.abort_span(now, &mut self.trace);
                            self.tasks[s] = None;
                            self.on_attempt_failed(slot, now);
                        }
                    }
                    Note::AttemptSuperseded { slot } => {
                        self.on_attempt_superseded(slot, now);
                    }
                }
            }
        }
    }

    fn on_task_finished(&mut self, slot: u32, now: SimTime) {
        let si = self.slot_info[slot as usize];
        let j = si.job;
        let duration = self.slot_duration(slot);
        let job = &mut self.jobs[j];
        let task = job.task_id(si.is_map, si.index);
        job.task_done[task] = true;
        self.scheduler.on_task_done(j, si.is_map, si.node);
        // Completed-attempt durations feed the straggler threshold.
        let kind = usize::from(!si.is_map);
        job.dur_sum[kind] += duration;
        job.dur_n[kind] += 1;
        if si.backup {
            job.counters.speculative_wins += 1;
        }
        // First finisher wins: kill any sibling (speculative) attempt.
        for k in 0..self.jobs[j].slots.len() {
            let s = self.jobs[j].slots[k] as usize;
            if s == slot as usize || self.tasks[s].is_none() {
                continue;
            }
            let other = self.slot_info[s];
            if other.is_map == si.is_map && other.index == si.index {
                if let Some(t) = self.tasks[s].as_mut() {
                    t.abort_span(now, &mut self.trace);
                }
                self.tasks[s] = None;
                self.jobs[j].counters.killed_attempts += 1;
                self.scheduler.release_slot(j, other.is_map, other.node);
                if self.trace.is_enabled() {
                    let kind = if other.is_map { "map" } else { "reduce" };
                    self.trace.mark(
                        format!("killed {kind} {} (sibling won)", other.index),
                        other.node as u32,
                        s as u32,
                        now,
                    );
                }
            }
        }
        if !si.is_map {
            let job = &mut self.jobs[j];
            job.reduces_done += 1;
            job.last_reduce_finish = now;
            if job.is_finished() && job.failed.is_none() {
                self.jobs_done += 1;
            }
        }
        // Out-of-band heartbeat: reuse the slot at once.
        self.do_schedule(now);
    }

    /// An attempt failed (doomed startup or exhausted fetch retries):
    /// count it, maybe blacklist the node, and either re-queue the task
    /// or — past `max_attempts` — kill the whole job, exactly like the
    /// JobTracker.
    fn on_attempt_failed(&mut self, slot: u32, now: SimTime) {
        let si = self.slot_info[slot as usize];
        let j = si.job;
        let job = &mut self.jobs[j];
        let task = job.task_id(si.is_map, si.index);
        job.counters.failed_task_attempts += 1;
        job.failures[task] += 1;
        self.scheduler.release_slot(j, si.is_map, si.node);
        self.node_failures[si.node] += 1;
        if self.trace.is_enabled() {
            let kind = if si.is_map { "map" } else { "reduce" };
            self.trace.mark(
                format!("attempt failed: {kind} {}", si.index),
                si.node as u32,
                slot,
                now,
            );
        }
        let conf = &self.jobs[j].spec.conf;
        let (threshold, max_attempts) = (conf.node_blacklist_threshold, conf.max_attempts);
        if self.node_failures[si.node] >= threshold && self.scheduler.blacklist(si.node) {
            self.jobs[j].counters.blacklisted_nodes += 1;
            if self.trace.is_enabled() {
                self.trace.mark(
                    format!("node {} blacklisted", si.node),
                    si.node as u32,
                    Mark::NO_LANE,
                    now,
                );
            }
        }
        let failures = self.jobs[j].failures[task];
        if failures >= max_attempts {
            let kind = if si.is_map { "map" } else { "reduce" };
            self.fail(
                j,
                now,
                format!(
                    "{kind} task {} failed {failures} of {max_attempts} allowed attempts",
                    si.index
                ),
                Some((si.is_map, si.index)),
            );
            return;
        }
        if !self.jobs[j].task_done[task] && self.live_attempts(j, si.is_map, si.index) == 0 {
            self.scheduler.requeue(j, si.is_map, si.index);
        }
        self.do_schedule(now);
    }

    /// An attempt reached commit after a sibling had already committed
    /// (speculative commit race). Its output was dropped by the registry;
    /// the attempt counts as killed — not failed — so it burns no retry
    /// budget and cannot blacklist its node.
    fn on_attempt_superseded(&mut self, slot: u32, now: SimTime) {
        let s = slot as usize;
        let Some(t) = self.tasks[s].as_mut() else {
            return;
        };
        t.abort_span(now, &mut self.trace);
        self.tasks[s] = None;
        let si = self.slot_info[s];
        self.jobs[si.job].counters.killed_attempts += 1;
        self.scheduler.release_slot(si.job, si.is_map, si.node);
        if self.trace.is_enabled() {
            let kind = if si.is_map { "map" } else { "reduce" };
            self.trace.mark(
                format!("{kind} {} commit superseded", si.index),
                si.node as u32,
                slot,
                now,
            );
        }
        self.do_schedule(now);
    }

    /// A node crash planned by job `j` fires: the node leaves the
    /// cluster, the job's running attempts there die, and its committed
    /// map outputs there become unfetchable — those maps re-run elsewhere
    /// (Hadoop's map-output-lost path). Completed reduces are safe (their
    /// output already left).
    fn handle_node_crash(&mut self, j: usize, node: usize, now: SimTime) {
        if self.jobs[j].failed.is_some() || self.scheduler.is_dead(node) {
            return;
        }
        self.scheduler.mark_dead(node);
        if self.trace.is_enabled() {
            self.trace.mark(
                format!("node {node} crashed"),
                node as u32,
                Mark::NO_LANE,
                now,
            );
        }
        let mut orphaned: Vec<(bool, u32)> = Vec::new();
        for k in 0..self.jobs[j].slots.len() {
            let s = self.jobs[j].slots[k] as usize;
            if self.slot_info[s].node != node {
                continue;
            }
            let Some(t) = self.tasks[s].as_mut() else {
                continue;
            };
            let was_running = !t.is_done();
            t.abort_span(now, &mut self.trace);
            self.tasks[s] = None;
            let si = self.slot_info[s];
            if was_running {
                self.jobs[j].counters.killed_attempts += 1;
                orphaned.push((si.is_map, si.index));
            }
        }
        let job = &mut self.jobs[j];
        let lost = job.registry.unregister_node(node);
        let records = job.spec.pairs_per_map;
        let raw_record = (job.spec.key_size + job.spec.value_size) as u64;
        for &m in &lost {
            let counters = &mut job.counters;
            counters.maps_rerun_after_node_loss += 1;
            counters.maps_completed -= 1;
            counters.map_output_records -= records;
            counters.map_output_bytes -= raw_record * records;
            counters.map_output_materialized_bytes -= job.spec.map_output_bytes();
            let task = job.task_id(true, m);
            job.task_done[task] = false;
            self.scheduler.map_result_lost(j);
            orphaned.push((true, m));
        }
        if self.scheduler.healthy_nodes() == 0 {
            self.fail(j, now, "every slave node has crashed".into(), None);
            return;
        }
        orphaned.sort_unstable_by_key(|&(is_map, idx)| (!is_map, idx));
        orphaned.dedup();
        for (is_map, index) in orphaned {
            let task = self.jobs[j].task_id(is_map, index);
            if !self.jobs[j].task_done[task] && self.live_attempts(j, is_map, index) == 0 {
                self.scheduler.requeue(j, is_map, index);
            }
        }
        // Surviving reducers drop queued fetches of the lost segments
        // (in-flight transfers fail their validity check on completion;
        // already-copied segments are kept).
        for &m in &lost {
            for &s in &self.jobs[j].slots {
                if let Some(Task::Reduce(r)) = self.tasks[s as usize].as_mut() {
                    r.on_map_output_lost(m);
                }
            }
        }
        self.do_schedule(now);
    }

    fn notify_reducers(&mut self, j: usize, map: u32, now: SimTime, notes: &mut Vec<Note>) {
        let (tasks, slots, mut env) = split_env!(self, j, now, notes);
        for &s in slots {
            if let Some(Task::Reduce(r)) = tasks[s as usize].as_mut() {
                r.on_map_output(map, &mut env);
            }
        }
    }

    fn do_schedule(&mut self, now: SimTime) {
        let launches = self.scheduler.tick();
        if launches.is_empty() {
            return;
        }
        let mut notes = Vec::new();
        for l in launches {
            self.launch_attempt(l, false, now, &mut notes);
        }
        self.handle_notes(notes, now);
    }

    /// Start one attempt of a task in a fresh slot.
    fn launch_attempt(&mut self, l: Launch, backup: bool, now: SimTime, notes: &mut Vec<Note>) {
        let Launch {
            job: j,
            is_map,
            index,
            node,
        } = l;
        let Some(slot) = checked_slot(self.tasks.len()) else {
            // Retries and backups take fresh slots at run time; one a
            // tag cannot name would alias another attempt's events.
            self.scheduler.release_slot(j, is_map, node);
            let kind = if is_map { "map" } else { "reduce" };
            let reason = format!(
                "{kind} task {index} needs attempt slot {}, past the engine's {ATTEMPT_SLOTS} attempt slots",
                self.tasks.len()
            );
            self.fail(j, now, reason, Some((is_map, index)));
            return;
        };
        let job = &mut self.jobs[j];
        let task = job.task_id(is_map, index);
        let attempt = job.attempts[task];
        job.attempts[task] += 1;
        job.slots.push(slot);
        self.slot_info.push(SlotInfo {
            job: j,
            is_map,
            index,
            node,
            backup,
        });
        if self.trace.is_enabled() {
            let kind = if is_map { "map" } else { "reduce" };
            let suffix = if backup { " (speculative)" } else { "" };
            self.trace.mark(
                format!("launch {kind} {index} attempt {attempt}{suffix}"),
                node as u32,
                slot,
                now,
            );
        }
        let injector = &self.jobs[j].injector;
        if injector.fails_at_startup(is_map, index, attempt) {
            // The deterministic fail-first hook: the attempt dies right
            // after its JVM launch.
            self.tasks.push(Some(Task::Doomed));
            self.cluster.cpu.submit(
                now,
                node,
                self.costs.jvm_startup_s,
                tag(slot, Stage::Jvm, 0),
            );
            return;
        }
        // Probabilistically doomed attempts run their full pipeline and
        // die at commit, wasting the entire attempt.
        let doomed = injector.fails_at_commit(is_map, index, attempt);
        let jitter = self.task_jitter(j, is_map, index, attempt) * injector.slowdown(node);
        if is_map {
            let (tasks, _, mut env) = split_env!(self, j, now, notes);
            let t = MapTask::launch(slot, index, node, attempt, jitter, doomed, &mut env);
            tasks.push(Some(Task::Map(t)));
        } else {
            let output_bytes = self.spec_output_bytes_per_reduce(j);
            let num_maps = self.jobs[j].spec.conf.num_maps;
            let (tasks, _, mut env) = split_env!(self, j, now, notes);
            let t = ReduceTask::launch(
                index,
                slot,
                node,
                attempt,
                num_maps,
                output_bytes,
                jitter,
                doomed,
                &mut env,
            );
            tasks.push(Some(Task::Reduce(t)));
        }
    }

    /// Hadoop-style speculative execution, evaluated on each heartbeat:
    /// a task whose only attempt has run `speculative_slowdown` times
    /// longer than the mean completed duration of its kind gets a backup
    /// attempt on (preferably) another node. First finisher wins.
    fn maybe_speculate(&mut self, now: SimTime) {
        let mut notes = Vec::new();
        for j in 0..self.jobs.len() {
            let job = &self.jobs[j];
            if !job.spec.conf.speculative || job.failed.is_some() {
                continue;
            }
            let mut candidates: Vec<(bool, u32, usize)> = Vec::new();
            for &s in &job.slots {
                let Some(t) = &self.tasks[s as usize] else {
                    continue;
                };
                if t.is_done() || matches!(t, Task::Doomed) {
                    continue;
                }
                let si = self.slot_info[s as usize];
                let task = job.task_id(si.is_map, si.index);
                if job.task_done[task] || job.speculated[task] {
                    continue;
                }
                let kind = usize::from(!si.is_map);
                if job.dur_n[kind] == 0 {
                    continue;
                }
                let mean = job.dur_sum[kind] / f64::from(job.dur_n[kind]);
                let start = match t {
                    Task::Map(m) => m.start,
                    Task::Reduce(r) => r.start,
                    Task::Doomed => continue,
                };
                let elapsed = now.since(start).as_secs_f64();
                if elapsed > job.spec.conf.speculative_slowdown * mean
                    && self.live_attempts(j, si.is_map, si.index) == 1
                {
                    candidates.push((si.is_map, si.index, si.node));
                }
            }
            for (is_map, index, node) in candidates {
                let task = self.jobs[j].task_id(is_map, index);
                if self.jobs[j].speculated[task] {
                    continue;
                }
                let Some(backup_node) = self.scheduler.reserve_for_backup(j, is_map, node) else {
                    continue;
                };
                self.jobs[j].speculated[task] = true;
                self.jobs[j].counters.speculative_launches += 1;
                let l = Launch {
                    job: j,
                    is_map,
                    index,
                    node: backup_node,
                };
                self.launch_attempt(l, true, now, &mut notes);
            }
        }
        if !notes.is_empty() {
            self.handle_notes(notes, now);
        }
    }

    /// Abort job `j`: its events are dropped and its unlaunched tasks
    /// retired.
    fn fail(&mut self, j: usize, now: SimTime, reason: String, task: Option<(bool, u32)>) {
        let job = &mut self.jobs[j];
        if job.failed.is_some() {
            return;
        }
        if !job.is_finished() {
            self.jobs_done += 1;
        }
        if self.trace.is_enabled() {
            self.trace
                .mark(format!("job failed: {reason}"), 0, Mark::NO_LANE, now);
        }
        job.failed = Some(FailureDiag {
            reason,
            task,
            at: now,
        });
        self.scheduler.retire(j);
    }

    /// Abort every unfinished job with the same reason.
    fn fail_all(&mut self, now: SimTime, reason: &str) {
        for j in 0..self.jobs.len() {
            if !self.jobs[j].is_finished() {
                self.fail(j, now, reason.to_owned(), None);
            }
        }
    }

    fn slot_duration(&self, slot: u32) -> f64 {
        match &self.tasks[slot as usize] {
            Some(Task::Map(m)) => m.finish.expect("finished").since(m.start).as_secs_f64(),
            Some(Task::Reduce(r)) => r.finish.expect("finished").since(r.start).as_secs_f64(),
            _ => 0.0,
        }
    }

    /// Average reduce-output bytes per reducer of job `j` for non-null
    /// output formats.
    fn spec_output_bytes_per_reduce(&self, j: usize) -> u64 {
        let spec = &self.jobs[j].spec;
        let total_payload = (spec.key_size + spec.value_size) as u64
            * spec.pairs_per_map
            * u64::from(spec.conf.num_maps);
        let per_reduce = total_payload / u64::from(spec.conf.num_reduces);
        (per_reduce as f64 * spec.output_write_amplification) as u64
    }

    /// Deterministic per-task runtime variability: real task durations
    /// scatter by a few percent (JIT warm-up, GC, OS scheduling). Drawn
    /// uniformly from [0.97, 1.03] off the job seed; re-executed attempts
    /// draw fresh values.
    fn task_jitter(&self, j: usize, is_map: bool, index: u32, attempt: u32) -> f64 {
        let kind = if is_map { "map" } else { "reduce" };
        let label = if attempt == 0 {
            format!("jitter-{kind}-{index}")
        } else {
            format!("jitter-{kind}-{index}-attempt-{attempt}")
        };
        let mut rng = self.jobs[j].seeds.stream(&label);
        0.97 + 0.06 * rng.next_f64()
    }

    fn finish(mut self) -> Vec<JobResult> {
        let overhead = SimDuration::from_secs_f64(self.costs.job_overhead_s);

        // Emit the final partial monitoring window so bytes and busy
        // core-seconds after the last whole-interval tick are not lost.
        // Flushed at the last simulated instant (`self.clock`), not at
        // the jobs' ends: the job-overhead pad moves no data. A run that
        // reached the clock's end has no window left to close.
        if self.clock < SimTime::MAX {
            self.cpu_monitor
                .flush(self.clock, cpu_pct(&mut self.cluster.cpu));
            self.net_monitor.flush(self.clock, rx_mb_s(&mut self.net));
        }

        // Aborted jobs leave attempts mid-phase: close their open spans at
        // the last simulated instant so the trace and breakdown still
        // account for every span.
        if self.trace.is_enabled() {
            let clock = self.clock;
            for t in self.tasks.iter_mut().flatten() {
                t.abort_span(clock, &mut self.trace);
            }
        }
        let lone = self.jobs.len() == 1;
        let sim_work = self.budget.events() + self.net.work_units();
        let jobs = std::mem::take(&mut self.jobs);
        let mut results = Vec::with_capacity(jobs.len());
        for job in jobs {
            let budget = self.budget_breach.map(|b| self.budget_diag(&job, b));
            let end = match (&job.failed, &budget) {
                (Some(d), _) => d.at,
                (None, Some(b)) => b.at,
                (None, None) => job.last_reduce_finish,
            }
            .saturating_add(overhead);
            let job_time = end.since(job.arrival);
            let traced = lone && self.trace.is_enabled();
            let phases = traced.then(|| self.trace.breakdown(job_time));
            let trace = traced.then(|| std::mem::replace(&mut self.trace, Trace::disabled()));

            let mut tasks = Vec::new();
            let mut map_phase_end = SimTime::ZERO;
            let mut shuffle_end = SimTime::ZERO;
            for &s in &job.slots {
                match &self.tasks[s as usize] {
                    // Killed, or still pending when the job aborted.
                    None | Some(Task::Doomed) => continue,
                    Some(Task::Map(m)) => {
                        let Some(finish) = m.finish else { continue };
                        map_phase_end = map_phase_end.max(finish);
                        tasks.push(TaskTiming {
                            is_map: true,
                            index: m.index,
                            node: m.node,
                            start: m.start,
                            finish,
                        });
                    }
                    Some(Task::Reduce(r)) => {
                        if let Some(se) = r.shuffle_end {
                            shuffle_end = shuffle_end.max(se);
                        }
                        let Some(finish) = r.finish else { continue };
                        tasks.push(TaskTiming {
                            is_map: false,
                            index: r.index,
                            node: r.node,
                            start: r.start,
                            finish,
                        });
                    }
                }
            }
            // Slots are in launch order; reports expect maps (by index) then
            // reduces (by index), as the pre-attempt engine produced.
            tasks.sort_by_key(|t| (!t.is_map, t.index));

            let series = |s: &IntervalSampler| {
                if lone {
                    s.series().to_vec()
                } else {
                    Vec::new()
                }
            };
            results.push(JobResult {
                outcome: if budget.is_some() {
                    JobOutcome::BudgetExceeded
                } else if job.failed.is_some() {
                    JobOutcome::Failed
                } else {
                    JobOutcome::Succeeded
                },
                failure: job.failed,
                budget,
                job_time,
                map_phase_end,
                shuffle_end,
                counters: job.counters,
                tasks,
                cpu_series: series(&self.cpu_monitor),
                net_rx_series: series(&self.net_monitor),
                phases,
                sim_work: if lone { sim_work } else { 0 },
                trace,
            });
        }
        results
    }
}

/// The CPU monitor's reading: busy core-seconds over a sampling window
/// as a percentage of the node's cores.
fn cpu_pct(cpu: &mut CpuSim) -> impl FnMut(usize, SimTime, f64) -> f64 + '_ {
    move |node, at, dt| cpu.drain_busy_core_seconds(node, at) / dt / cpu.cores(node) as f64 * 100.0
}

/// The network monitor's reading: bytes received over a sampling window,
/// in MB/s.
fn rx_mb_s(net: &mut Network) -> impl FnMut(usize, SimTime, f64) -> f64 + '_ {
    move |node, at, dt| net.drain_rx_bytes(NodeId(node), at) / dt / 1e6
}

/// Serialized key payload of the `ordinal`-th record. The suite restricts
/// the number of unique keys to the number of reducers (Sect. 4.2), so the
/// key content is a function of `ordinal % n_reducers`.
pub fn synthetic_key(ordinal: u64, n_reducers: u32, key_size: usize, buf: &mut Vec<u8>) {
    let uid = ordinal % u64::from(n_reducers.max(1));
    let bytes = uid.to_be_bytes();
    let take = key_size.min(8);
    buf.extend_from_slice(&bytes[8 - take..]);
    buf.resize(key_size, uid as u8);
}

/// Convenience one-call runner.
pub fn run_job(
    spec: JobSpec,
    factory: &dyn PartitionerFactory,
    node_spec: NodeSpec,
    n_slaves: usize,
    interconnect: Interconnect,
) -> JobResult {
    Engine::new(spec, factory, node_spec, n_slaves, interconnect).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conf::JobConf;
    use crate::partition::HashPartitionerFactory;
    use simcore::units::ByteSize;

    #[test]
    fn synthetic_key_is_stable_and_sized() {
        let mut a = Vec::new();
        let mut b = Vec::new();
        synthetic_key(5, 4, 100, &mut a);
        synthetic_key(5, 4, 100, &mut b);
        assert_eq!(a, b);
        assert_eq!(a.len(), 100);
        // ordinal 5 of 4 reducers -> uid 1.
        assert_eq!(a[7], 1);

        let mut tiny = Vec::new();
        synthetic_key(3, 4, 2, &mut tiny);
        assert_eq!(tiny.len(), 2);
    }

    #[test]
    fn keys_repeat_every_n_reducers() {
        let mut a = Vec::new();
        let mut b = Vec::new();
        synthetic_key(2, 8, 32, &mut a);
        synthetic_key(10, 8, 32, &mut b);
        assert_eq!(a, b, "unique keys are restricted to the reducer count");
    }

    fn small_spec(seed: u64) -> JobSpec {
        let mut spec = JobSpec {
            conf: JobConf::with_tasks(4, 2),
            ..JobSpec::default()
        };
        spec.conf.seed = seed;
        spec.set_shuffle_size(ByteSize::from_mib(32));
        spec
    }

    #[test]
    fn the_network_delivers_exactly_what_the_jobs_shuffled() {
        // Three overlapping jobs over two tenants on a racked fabric.
        let factory = HashPartitionerFactory;
        let jobs = (0..3u64)
            .map(|j| StreamJob {
                spec: small_spec(j),
                factory: &factory,
                tenant: j as usize % 2,
                arrival: SimTime::from_secs(j),
            })
            .collect();
        let topology = Topology::single_switch(4, Interconnect::GigE1).with_racks(2, 4.0);
        let mut engine = Engine::stream(jobs, &[1.0, 2.0], NodeSpec::westmere(), topology);
        engine.simulate();
        assert_eq!(engine.jobs_done, 3);
        let shuffled: u64 = engine
            .jobs
            .iter()
            .map(|j| j.counters.remote_shuffle_bytes + j.counters.local_shuffle_bytes)
            .sum();
        let remote: u64 = engine
            .jobs
            .iter()
            .map(|j| j.counters.remote_shuffle_bytes)
            .sum();
        assert!(remote > 0 && remote < shuffled);
        // Loopback copies count as delivered too: the identity holds for
        // the whole shuffle, remote and local.
        assert_eq!(engine.net.delivered_bytes(), shuffled);
        for r in engine.finish() {
            assert!(r.succeeded());
            assert!(r.cpu_series.is_empty() && r.sim_work == 0);
        }
    }

    #[test]
    fn an_idle_gap_between_arrivals_costs_no_steps() {
        // The second job arrives ~3 years after the first finishes. The
        // heartbeat and monitor chains skip the gap, so the run
        // takes about as many steps as two back-to-back jobs.
        let factory = HashPartitionerFactory;
        let stream = |gap_s: u64| {
            let jobs = [0, gap_s]
                .iter()
                .enumerate()
                .map(|(j, &at)| StreamJob {
                    spec: small_spec(j as u64),
                    factory: &factory,
                    tenant: 0,
                    arrival: SimTime::from_secs(at),
                })
                .collect();
            let mut e = Engine::stream(
                jobs,
                &[1.0],
                NodeSpec::westmere(),
                Topology::single_switch(4, Interconnect::GigE1),
            );
            e.simulate();
            (e.budget.events(), e.finish())
        };
        let (near, near_r) = stream(100);
        let (far, far_r) = stream(100_000_000);
        assert!(far <= near + 4, "{far} steps vs {near}");
        for (a, b) in near_r.iter().zip(&far_r) {
            assert_eq!(a.job_time, b.job_time);
            assert_eq!(a.counters, b.counters);
        }
    }
}
