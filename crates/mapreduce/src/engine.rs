//! The discrete-event MapReduce engine driver.
//!
//! [`Engine`] binds the cluster (CPU + disk), the network, the scheduler,
//! and the task state machines into one event loop. Each iteration takes
//! the earliest pending completion across all sub-simulators, advances
//! every clock to it, and routes the completion to the owning task, which
//! responds by submitting its next CPU burst, disk I/O, or network flow.
//! Heartbeats, 1 Hz resource-monitor ticks, and planned node crashes run
//! as control events on the same timeline.
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

use cluster::{Cluster, NodeSpec};
use simcore::event::{BudgetBreach, EventBudget, EventQueue};
use simcore::rng::SeedFactory;
use simcore::time::{SimDuration, SimTime};
use simcore::trace::{Mark, Trace};
use simnet::{Interconnect, Network, NetworkMonitor, ProtocolModel, Topology};

use crate::conf::EngineKind;
use crate::costs::CostModel;
use crate::counters::Counters;
use crate::faults::{FailureDiag, FaultInjector, JobOutcome};
use crate::job::{BudgetDiag, JobResult, JobSpec, PartitionerFactory, TaskTiming};
use crate::schedule::Scheduler;
use crate::shuffle::rdma::ShuffleModel;
use crate::shuffle::ShuffleRegistry;
use crate::task::map::MapTask;
use crate::task::reduce::ReduceTask;
use crate::task::{tag, untag, Env, Note, Stage};

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
    is_map: bool,
    index: u32,
    node: usize,
    backup: bool,
}

#[derive(Clone, Copy, Debug)]
enum Control {
    Heartbeat,
    MonitorTick,
    NodeCrash(usize),
}

/// Splits `self` into `(tasks, env)` so a task state machine can borrow
/// the sub-simulators while the engine still owns the task table.
macro_rules! split_env {
    ($self:ident, $now:expr, $notes:expr) => {{
        let Engine {
            tasks,
            cluster,
            net,
            counters,
            registry,
            spec,
            costs,
            protocol,
            shuffle_model,
            injector,
            timers,
            trace,
            ..
        } = &mut *$self;
        (
            tasks,
            Env {
                now: $now,
                cpu: &mut cluster.cpu,
                disk: &mut cluster.disk,
                net,
                counters,
                conf: &spec.conf,
                spec,
                costs,
                protocol: *protocol,
                shuffle_model: *shuffle_model,
                registry,
                faults: injector,
                timers,
                notes: $notes,
                trace,
            },
        )
    }};
}

/// Drives one job to completion over a simulated cluster and network.
pub struct Engine<'f> {
    // (manual Debug below — `factory` is a dyn reference)
    spec: JobSpec,
    factory: &'f dyn PartitionerFactory,
    costs: CostModel,
    protocol: ProtocolModel,
    shuffle_model: ShuffleModel,
    cluster: Cluster,
    net: Network,
    net_monitor: NetworkMonitor,
    /// Sampling period for both throughput monitors and the MonitorTick
    /// control event (from `JobConf::monitor_interval_s`).
    monitor_interval: SimDuration,
    registry: ShuffleRegistry,
    scheduler: Scheduler,
    counters: Counters,
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
    seeds: SeedFactory,
    injector: FaultInjector,
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
    /// Failed attempts per node, for blacklisting.
    node_failures: Vec<u32>,
    /// Set when the job aborts; the event loop drains out.
    failed: Option<FailureDiag>,
    /// Watchdog over event count and simulated time (see [`EventBudget`]).
    budget: EventBudget,
    /// Set when the watchdog trips; the loop exits on the spot.
    budget_breach: Option<BudgetDiag>,
    /// Last instant the event loop processed (for failure diagnostics).
    clock: SimTime,
    /// Completed-attempt duration sums/counts, `[maps, reduces]`, feeding
    /// the speculation threshold.
    dur_sum: [f64; 2],
    dur_n: [u32; 2],
    /// Phase-span recorder. Disabled by default — recording costs nothing
    /// until [`Engine::enable_tracing`] is called before `run`.
    trace: Trace,
}

impl std::fmt::Debug for Engine<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("spec", &self.spec)
            .field("clock", &self.clock)
            .field("reduces_done", &self.reduces_done)
            .field("failed", &self.failed)
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
        let n_slaves = topology.n_nodes();
        spec.validate().expect("invalid job spec");
        for c in &spec.conf.faults.node_crashes {
            assert!(
                c.node < n_slaves,
                "crash plan names node {} of {n_slaves}",
                c.node
            );
        }
        for s in &spec.conf.faults.node_slowdowns {
            assert!(
                s.node < n_slaves,
                "slowdown plan names node {} of {n_slaves}",
                s.node
            );
        }
        let mut cluster = Cluster::new(node_spec.clone(), n_slaves);
        // Task JVM heaps are wired memory: the OS page cache only gets
        // what is left. MRv1 reserves a heap per slot; YARN reserves the
        // container pool.
        let slots = match spec.conf.engine {
            EngineKind::MRv1 => {
                u64::from(spec.conf.map_slots_per_node + spec.conf.reduce_slots_per_node)
                    * simcore::units::ByteSize::from_gib(1).as_bytes()
            }
            EngineKind::Yarn => {
                let pool = (node_spec.memory.as_bytes()
                    / spec.conf.container_memory.as_bytes().max(1))
                .min(u64::from(node_spec.cores));
                pool * spec.conf.container_memory.as_bytes()
            }
        };
        let cache_mem = simcore::units::ByteSize::from_bytes(
            node_spec
                .memory
                .as_bytes()
                .saturating_sub(slots)
                .max(simcore::units::ByteSize::from_gib(2).as_bytes()),
        );
        cluster.disk.enable_page_cache(cache_mem);
        let monitor_interval = SimDuration::from_secs_f64(spec.conf.monitor_interval_s);
        cluster.set_monitor_interval(monitor_interval);
        let protocol = *topology.protocol();
        let net = Network::new(topology);
        let net_monitor = NetworkMonitor::new(n_slaves, monitor_interval);
        let registry = ShuffleRegistry::new(spec.conf.num_maps, n_slaves, node_spec.memory);
        let scheduler = Scheduler::new(&spec.conf, n_slaves, &node_spec);
        let n_tasks = (spec.conf.num_maps + spec.conf.num_reduces) as usize;
        let shuffle_model = ShuffleModel::for_kind(spec.conf.shuffle_engine);
        let seeds = SeedFactory::new(spec.conf.seed);
        let injector = FaultInjector::new(spec.conf.faults.clone(), spec.conf.seed);
        Engine {
            protocol,
            costs: CostModel::calibrated(),
            shuffle_model,
            factory,
            cluster,
            net,
            net_monitor,
            monitor_interval,
            registry,
            scheduler,
            counters: Counters::default(),
            tasks: Vec::new(),
            slot_info: Vec::new(),
            control: EventQueue::with_capacity(16),
            timers: EventQueue::with_capacity(n_tasks.max(16)),
            net_done: Vec::with_capacity(64),
            seeds,
            injector,
            reduces_done: 0,
            last_reduce_finish: SimTime::ZERO,
            attempts: vec![0; n_tasks],
            failures: vec![0; n_tasks],
            task_done: vec![false; n_tasks],
            speculated: vec![false; n_tasks],
            node_failures: vec![0; n_slaves],
            failed: None,
            budget: EventBudget::new(
                spec.conf.max_events,
                spec.conf.max_sim_time_s.map(SimTime::from_secs_f64),
            ),
            budget_breach: None,
            clock: SimTime::ZERO,
            dur_sum: [0.0; 2],
            dur_n: [0; 2],
            trace: Trace::disabled(),
            spec,
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
    /// and aborts with [`JobOutcome::Failed`]).
    pub fn run(mut self) -> JobResult {
        // Job setup (JobTracker submission, setup task, split computation).
        let setup = SimDuration::from_secs_f64(self.costs.job_overhead_s);
        self.control
            .schedule(SimTime::ZERO + setup, Control::Heartbeat);
        self.control
            .schedule(SimTime::ZERO + self.monitor_interval, Control::MonitorTick);
        let crashes = self.spec.conf.faults.node_crashes.clone();
        for c in &crashes {
            self.control.schedule(
                SimTime::from_secs_f64(c.at_secs),
                Control::NodeCrash(c.node),
            );
        }

        let num_reduces = self.spec.conf.num_reduces;
        let mut guard: u64 = 0;
        while self.reduces_done < num_reduces && self.failed.is_none() {
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
                self.fail(at, "simulation stalled with no pending events".into(), None);
                break;
            };
            self.clock = now;
            // Watchdog: one charge per loop step (each step dispatches at
            // least one event). On breach, capture diagnostics and abort
            // gracefully; the partial result is still well-formed.
            if let Err(breach) = self.budget.charge(now) {
                self.budget_breach = Some(self.budget_diag(breach, now));
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
                        self.do_schedule(now);
                        self.maybe_speculate(now);
                        let hb = self.scheduler.heartbeat();
                        self.control.schedule(now + hb, Control::Heartbeat);
                    }
                    Control::MonitorTick => {
                        self.cluster
                            .cpu_monitor
                            .maybe_sample(now, &mut self.cluster.cpu);
                        self.net_monitor.maybe_sample(now, &mut self.net);
                        self.control
                            .schedule(now + self.monitor_interval, Control::MonitorTick);
                    }
                    Control::NodeCrash(node) => {
                        self.handle_node_crash(node, now);
                    }
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

        self.finish()
    }

    /// Snapshot of where the run stood when the watchdog tripped.
    fn budget_diag(&self, breach: BudgetBreach, now: SimTime) -> BudgetDiag {
        let num_maps = self.spec.conf.num_maps as usize;
        let maps_done = self.task_done[..num_maps].iter().filter(|&&d| d).count() as u32;
        BudgetDiag {
            breach: breach.to_string(),
            at: now,
            events: self.budget.events(),
            queue_depth: self.control.len() + self.timers.len(),
            maps_done,
            maps_total: self.spec.conf.num_maps,
            reduces_done: self.reduces_done,
            reduces_total: self.spec.conf.num_reduces,
        }
    }

    fn next_time(&mut self) -> Option<SimTime> {
        let mut best: Option<SimTime> = None;
        for t in [
            self.cluster.cpu.next_event_time(),
            self.cluster.disk.next_event_time(),
            self.net.next_event_time(),
            self.control.peek_time(),
            self.timers.peek_time(),
        ]
        .into_iter()
        .flatten()
        {
            best = Some(best.map_or(t, |b: SimTime| b.min(t)));
        }
        best
    }

    /// Task-id for the per-task bookkeeping vectors.
    fn task_id(&self, is_map: bool, index: u32) -> usize {
        if is_map {
            index as usize
        } else {
            (self.spec.conf.num_maps + index) as usize
        }
    }

    /// Attempts of a task still executing (excludes committed attempts).
    fn live_attempts(&self, is_map: bool, index: u32) -> usize {
        (0..self.tasks.len())
            .filter(|&s| {
                let si = self.slot_info[s];
                si.is_map == is_map
                    && si.index == index
                    && self.tasks[s].as_ref().is_some_and(|t| !t.is_done())
            })
            .count()
    }

    fn dispatch(&mut self, tag_: u64, now: SimTime) {
        if self.failed.is_some() {
            return;
        }
        let Some((slot, stage, seq)) = untag(tag_) else {
            return; // sink work (sender-side protocol processing)
        };
        let s = slot as usize;
        if s >= self.tasks.len() || self.tasks[s].is_none() {
            return; // stale completion for a killed attempt
        }
        // A doomed attempt dies the moment its startup burst completes.
        if matches!(self.tasks[s], Some(Task::Doomed)) {
            self.tasks[s] = None;
            self.on_attempt_failed(slot, now);
            return;
        }
        let mut notes = Vec::new();
        {
            let (tasks, mut env) = split_env!(self, now, &mut notes);
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
                    Note::MapOutputReady(map) => {
                        self.notify_reducers(map, now, &mut notes);
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
        let task = self.task_id(si.is_map, si.index);
        self.task_done[task] = true;
        self.scheduler.on_task_done(si.is_map, si.node);
        // Completed-attempt durations feed the straggler threshold.
        let kind = usize::from(!si.is_map);
        self.dur_sum[kind] += self.slot_duration(slot);
        self.dur_n[kind] += 1;
        if si.backup {
            self.counters.speculative_wins += 1;
        }
        // First finisher wins: kill any sibling (speculative) attempt.
        for s in 0..self.tasks.len() {
            if s == slot as usize || self.tasks[s].is_none() {
                continue;
            }
            let other = self.slot_info[s];
            if other.is_map == si.is_map && other.index == si.index {
                if let Some(t) = self.tasks[s].as_mut() {
                    t.abort_span(now, &mut self.trace);
                }
                self.tasks[s] = None;
                self.counters.killed_attempts += 1;
                self.scheduler.release_slot(other.is_map, other.node);
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
            self.reduces_done += 1;
            self.last_reduce_finish = now;
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
        let task = self.task_id(si.is_map, si.index);
        self.counters.failed_task_attempts += 1;
        self.failures[task] += 1;
        self.scheduler.release_slot(si.is_map, si.node);
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
        if self.node_failures[si.node] >= self.spec.conf.node_blacklist_threshold
            && self.scheduler.blacklist(si.node)
        {
            self.counters.blacklisted_nodes += 1;
            if self.trace.is_enabled() {
                self.trace.mark(
                    format!("node {} blacklisted", si.node),
                    si.node as u32,
                    Mark::NO_LANE,
                    now,
                );
            }
        }
        if self.failures[task] >= self.spec.conf.max_attempts {
            let kind = if si.is_map { "map" } else { "reduce" };
            self.fail(
                now,
                format!(
                    "{kind} task {} failed {} of {} allowed attempts",
                    si.index, self.failures[task], self.spec.conf.max_attempts
                ),
                Some((si.is_map, si.index)),
            );
            return;
        }
        if !self.task_done[task] && self.live_attempts(si.is_map, si.index) == 0 {
            self.scheduler.requeue(si.is_map, si.index);
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
        self.counters.killed_attempts += 1;
        self.scheduler.release_slot(si.is_map, si.node);
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

    /// A planned node crash fires: the node leaves the cluster, its
    /// running attempts die, and its committed map outputs become
    /// unfetchable — those maps re-run elsewhere (Hadoop's map-output-lost
    /// path). Completed reduces are safe (their output already left).
    fn handle_node_crash(&mut self, node: usize, now: SimTime) {
        if self.failed.is_some() || self.scheduler.is_dead(node) {
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
        for s in 0..self.tasks.len() {
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
                self.counters.killed_attempts += 1;
                orphaned.push((si.is_map, si.index));
            }
        }
        let lost = self.registry.unregister_node(node);
        let raw_record = (self.spec.key_size + self.spec.value_size) as u64;
        for (m, out) in &lost {
            let records: u64 = out.partition_records.iter().sum();
            self.counters.maps_rerun_after_node_loss += 1;
            self.counters.maps_completed -= 1;
            self.counters.map_output_records -= records;
            self.counters.map_output_bytes -= raw_record * records;
            self.counters.map_output_materialized_bytes -= out.total_bytes();
            let task = self.task_id(true, *m);
            self.task_done[task] = false;
            self.scheduler.map_result_lost();
            orphaned.push((true, *m));
        }
        if self.scheduler.healthy_nodes() == 0 {
            self.fail(now, "every slave node has crashed".into(), None);
            return;
        }
        orphaned.sort_unstable_by_key(|&(is_map, idx)| (!is_map, idx));
        orphaned.dedup();
        for (is_map, index) in orphaned {
            let task = self.task_id(is_map, index);
            if !self.task_done[task] && self.live_attempts(is_map, index) == 0 {
                self.scheduler.requeue(is_map, index);
            }
        }
        // Surviving reducers drop queued fetches of the lost segments
        // (in-flight transfers fail their validity check on completion;
        // already-copied segments are kept).
        for (m, _) in &lost {
            for t in self.tasks.iter_mut().flatten() {
                if let Task::Reduce(r) = t {
                    r.on_map_output_lost(*m);
                }
            }
        }
        self.do_schedule(now);
    }

    fn notify_reducers(&mut self, map: u32, now: SimTime, notes: &mut Vec<Note>) {
        let (tasks, mut env) = split_env!(self, now, notes);
        for slot in tasks.iter_mut() {
            if let Some(Task::Reduce(r)) = slot.as_mut() {
                r.on_map_output(map, &mut env);
            }
        }
    }

    fn do_schedule(&mut self, now: SimTime) {
        if self.failed.is_some() {
            return;
        }
        let launches = self.scheduler.tick();
        if launches.is_empty() {
            return;
        }
        let mut notes = Vec::new();
        for l in launches {
            self.launch_attempt(l.is_map, l.index, l.node, false, now, &mut notes);
        }
        self.handle_notes(notes, now);
    }

    /// Start one attempt of a task in a fresh slot.
    fn launch_attempt(
        &mut self,
        is_map: bool,
        index: u32,
        node: usize,
        backup: bool,
        now: SimTime,
        notes: &mut Vec<Note>,
    ) {
        let task = self.task_id(is_map, index);
        let attempt = self.attempts[task];
        self.attempts[task] += 1;
        let slot = self.tasks.len() as u32;
        self.slot_info.push(SlotInfo {
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
        if self.injector.fails_at_startup(is_map, index, attempt) {
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
        let doomed = self.injector.fails_at_commit(is_map, index, attempt);
        let jitter = self.task_jitter(is_map, index, attempt) * self.injector.slowdown(node);
        if is_map {
            let counts = self.partition_counts(index);
            let (tasks, mut env) = split_env!(self, now, notes);
            let t = MapTask::launch(slot, index, node, attempt, counts, jitter, doomed, &mut env);
            tasks.push(Some(Task::Map(t)));
        } else {
            let output_bytes = self.spec_output_bytes_per_reduce();
            let num_maps = self.spec.conf.num_maps;
            let (tasks, mut env) = split_env!(self, now, notes);
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
        if !self.spec.conf.speculative || self.failed.is_some() {
            return;
        }
        let mut candidates: Vec<(bool, u32, usize)> = Vec::new();
        for s in 0..self.tasks.len() {
            let Some(t) = &self.tasks[s] else { continue };
            if t.is_done() || matches!(t, Task::Doomed) {
                continue;
            }
            let si = self.slot_info[s];
            let task = self.task_id(si.is_map, si.index);
            if self.task_done[task] || self.speculated[task] {
                continue;
            }
            let kind = usize::from(!si.is_map);
            if self.dur_n[kind] == 0 {
                continue;
            }
            let mean = self.dur_sum[kind] / f64::from(self.dur_n[kind]);
            let start = match t {
                Task::Map(m) => m.start,
                Task::Reduce(r) => r.start,
                Task::Doomed => continue,
            };
            let elapsed = now.since(start).as_secs_f64();
            if elapsed > self.spec.conf.speculative_slowdown * mean
                && self.live_attempts(si.is_map, si.index) == 1
            {
                candidates.push((si.is_map, si.index, si.node));
            }
        }
        let mut notes = Vec::new();
        for (is_map, index, node) in candidates {
            let task = self.task_id(is_map, index);
            if self.speculated[task] {
                continue;
            }
            let Some(backup_node) = self.scheduler.reserve_for_backup(is_map, node) else {
                continue;
            };
            self.speculated[task] = true;
            self.counters.speculative_launches += 1;
            self.launch_attempt(is_map, index, backup_node, true, now, &mut notes);
        }
        if !notes.is_empty() {
            self.handle_notes(notes, now);
        }
    }

    fn fail(&mut self, now: SimTime, reason: String, task: Option<(bool, u32)>) {
        if self.failed.is_none() {
            if self.trace.is_enabled() {
                self.trace
                    .mark(format!("job failed: {reason}"), 0, Mark::NO_LANE, now);
            }
            self.failed = Some(FailureDiag {
                reason,
                task,
                at: now,
            });
        }
    }

    fn slot_duration(&self, slot: u32) -> f64 {
        match &self.tasks[slot as usize] {
            Some(Task::Map(m)) => m.finish.expect("finished").since(m.start).as_secs_f64(),
            Some(Task::Reduce(r)) => r.finish.expect("finished").since(r.start).as_secs_f64(),
            _ => 0.0,
        }
    }

    /// Average reduce-output bytes per reducer for non-null output formats.
    fn spec_output_bytes_per_reduce(&self) -> u64 {
        let total_payload = (self.spec.key_size + self.spec.value_size) as u64
            * self.spec.pairs_per_map
            * u64::from(self.spec.conf.num_maps);
        let per_reduce = total_payload / u64::from(self.spec.conf.num_reduces);
        (per_reduce as f64 * self.spec.output_write_amplification) as u64
    }

    /// Deterministic per-task runtime variability: real task durations
    /// scatter by a few percent (JIT warm-up, GC, OS scheduling). Drawn
    /// uniformly from [0.97, 1.03] off the job seed; re-executed attempts
    /// draw fresh values.
    fn task_jitter(&self, is_map: bool, index: u32, attempt: u32) -> f64 {
        let kind = if is_map { "map" } else { "reduce" };
        let label = if attempt == 0 {
            format!("jitter-{kind}-{index}")
        } else {
            format!("jitter-{kind}-{index}-attempt-{attempt}")
        };
        let mut rng = self.seeds.stream(&label);
        0.97 + 0.06 * rng.next_f64()
    }

    /// Per-reducer record counts for map `index`, via the job's
    /// partitioner — the exact code path the real suite runs. Keyed by
    /// the map index alone, so a re-executed map regenerates identical
    /// output (determinism of record content across attempts).
    fn partition_counts(&self, index: u32) -> Vec<u64> {
        let seed = self.seeds.seed_for(&format!("map-{index}"));
        let mut partitioner = self.factory.create(index, seed);
        let n_reducers = self.spec.conf.num_reduces;
        let key_size = self.spec.key_size;
        let counts =
            partitioner.assign_counts(self.spec.pairs_per_map, n_reducers, &mut |ordinal, buf| {
                synthetic_key(ordinal, n_reducers, key_size, buf)
            });
        // Partition-count conservation: one count per reducer, and every
        // record the map emits lands in exactly one of them. Bulk
        // overrides skip the per-record range check, so a partitioner
        // that drops, duplicates or misroutes records is caught here.
        #[cfg(any(test, feature = "invariants"))]
        {
            let total: u64 = counts.iter().sum();
            assert!(
                counts.len() == n_reducers as usize && total == self.spec.pairs_per_map,
                "invariant violated: map {index}'s partitioner returned {} counts summing \
                 to {total}, expected {n_reducers} summing to {}",
                counts.len(),
                self.spec.pairs_per_map,
            );
        }
        counts
    }

    fn finish(mut self) -> JobResult {
        let overhead = SimDuration::from_secs_f64(self.costs.job_overhead_s);
        let end = match (&self.failed, &self.budget_breach) {
            (Some(d), _) => d.at + overhead,
            (None, Some(b)) => b.at + overhead,
            (None, None) => self.last_reduce_finish + overhead,
        };

        // Emit the final partial monitoring window so bytes and busy
        // core-seconds after the last whole-interval tick are not lost.
        // Flushed at the last simulated instant (`self.clock`), not at
        // `end`: the job-overhead pad moves no data.
        self.cluster
            .cpu_monitor
            .flush(self.clock, &mut self.cluster.cpu);
        self.net_monitor.flush(self.clock, &mut self.net);

        // Aborted jobs leave attempts mid-phase: close their open spans at
        // the last simulated instant so the trace and breakdown still
        // account for every span.
        if self.trace.is_enabled() {
            let clock = self.clock;
            for t in self.tasks.iter_mut().flatten() {
                t.abort_span(clock, &mut self.trace);
            }
        }
        let job_time = end.since(SimTime::ZERO);
        let phases = self
            .trace
            .is_enabled()
            .then(|| self.trace.breakdown(job_time));
        let trace = self
            .trace
            .is_enabled()
            .then(|| std::mem::replace(&mut self.trace, Trace::disabled()));

        let mut tasks = Vec::new();
        let mut map_phase_end = SimTime::ZERO;
        let mut shuffle_end = SimTime::ZERO;
        for t in self.tasks.iter().flatten() {
            match t {
                Task::Doomed => continue, // still pending when the job aborted
                Task::Map(m) => {
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
                Task::Reduce(r) => {
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

        let n = self.cluster.n_slaves();
        let cpu_series = (0..n)
            .map(|i| self.cluster.cpu_monitor.series(i).clone())
            .collect();
        let net_rx_series = (0..n)
            .map(|i| self.net_monitor.rx_series(simnet::NodeId(i)).clone())
            .collect();

        JobResult {
            outcome: if self.budget_breach.is_some() {
                JobOutcome::BudgetExceeded
            } else if self.failed.is_some() {
                JobOutcome::Failed
            } else {
                JobOutcome::Succeeded
            },
            failure: self.failed,
            budget: self.budget_breach,
            job_time,
            map_phase_end,
            shuffle_end,
            counters: self.counters,
            tasks,
            cpu_series,
            net_rx_series,
            phases,
            sim_work: self.budget.events() + self.net.work_units(),
            trace,
        }
    }
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

/// The engine kind actually used by a conf (re-exported for reports).
pub fn engine_label(kind: EngineKind) -> &'static str {
    kind.label()
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
