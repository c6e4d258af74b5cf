//! End-to-end fault-injection tests: one scenario per fault class, plus
//! the invariants that must survive any of them (determinism, record
//! conservation, graceful job abort).

use std::sync::atomic::{AtomicU32, Ordering};

use cluster::NodeSpec;
use mapreduce::engine::run_job;
use mapreduce::io::DataType;
use mapreduce::job::{JobResult, JobSpec};
use mapreduce::{
    FaultPlan, HashPartitionerFactory, JobOutcome, NodeCrash, NodeSlowdown, Partitioner,
    PartitionerFactory,
};
use simnet::Interconnect;

const MAPS: u32 = 8;
const REDUCES: u32 = 4;
const PAIRS: u64 = 20_000;

fn base_spec() -> JobSpec {
    let mut spec = JobSpec {
        key_size: 1024,
        value_size: 1024,
        pairs_per_map: PAIRS,
        data_type: DataType::BytesWritable,
        ..JobSpec::default()
    };
    spec.conf.num_maps = MAPS;
    spec.conf.num_reduces = REDUCES;
    spec
}

fn run(spec: JobSpec) -> JobResult {
    run_job(
        spec,
        &HashPartitionerFactory,
        NodeSpec::westmere(),
        2,
        Interconnect::GigE10,
    )
}

fn assert_conserved(r: &JobResult) {
    assert_eq!(r.outcome, JobOutcome::Succeeded);
    assert_eq!(r.counters.maps_completed, u64::from(MAPS));
    assert_eq!(r.counters.reduces_completed, u64::from(REDUCES));
    // Logical records are charged by winning attempts only: retries,
    // killed speculative attempts, and invalidated outputs never inflate
    // them.
    assert_eq!(r.counters.map_output_records, u64::from(MAPS) * PAIRS);
    assert_eq!(r.counters.reduce_input_records, u64::from(MAPS) * PAIRS);
}

#[test]
fn probabilistic_task_failures_are_retried_to_success() {
    let mut spec = base_spec();
    spec.conf.faults.map_failure_prob = 0.2;
    spec.conf.faults.reduce_failure_prob = 0.2;
    let r = run(spec);
    assert!(r.counters.failed_task_attempts > 0, "{:?}", r.counters);
    assert_conserved(&r);

    // Failed attempts waste real work: the faulted run is slower than the
    // clean one.
    let clean = run(base_spec());
    assert!(r.job_time > clean.job_time);
    // Physical work (spills) double-counts re-executed attempts.
    assert!(r.counters.spilled_records_map > clean.counters.spilled_records_map);
}

#[test]
fn node_crash_reruns_lost_maps() {
    // Crash between map-phase end and job end, so node 1 holds committed
    // map outputs that reducers still depend on.
    // (`job_time` includes teardown overhead past the last completion, so
    // use the last reduce finish as the end of the live event window.)
    let clean = run(base_spec());
    let last_finish = clean
        .tasks
        .iter()
        .map(|t| t.finish.as_secs_f64())
        .fold(0.0, f64::max);
    let crash_at = (clean.map_phase_end.as_secs_f64() + last_finish) / 2.0;
    let mut spec = base_spec();
    spec.conf.faults.node_crashes.push(NodeCrash {
        node: 1,
        at_secs: crash_at,
    });
    let r = run(spec);
    assert!(
        r.counters.maps_rerun_after_node_loss > 0,
        "crash at {crash_at:.1}s must invalidate committed maps: {:?}",
        r.counters
    );
    assert_conserved(&r);
    assert!(r.job_time > clean.job_time, "recovery is not free");
    // The dead node hosts nothing after the crash.
    for t in &r.tasks {
        assert!(
            t.node != 1 || t.finish.as_secs_f64() <= crash_at,
            "task finished on the dead node after the crash: {t:?}"
        );
    }
}

#[test]
fn crashing_every_node_fails_the_job_gracefully() {
    let mut spec = base_spec();
    spec.conf.faults.node_crashes.push(NodeCrash {
        node: 0,
        at_secs: 5.0,
    });
    spec.conf.faults.node_crashes.push(NodeCrash {
        node: 1,
        at_secs: 6.0,
    });
    let r = run(spec);
    assert_eq!(r.outcome, JobOutcome::Failed);
    let diag = r.failure.expect("failed jobs carry a diagnostic");
    assert!(diag.reason.contains("crashed"), "{}", diag.reason);
}

#[test]
fn fetch_failures_back_off_and_recover() {
    let mut spec = base_spec();
    spec.conf.faults.fetch_failure_prob = 0.2;
    let r = run(spec);
    assert!(r.counters.failed_fetches > 0, "{:?}", r.counters);
    assert_conserved(&r);
    // Retries cost shuffle time.
    let clean = run(base_spec());
    assert!(r.shuffle_end >= clean.shuffle_end);
}

#[test]
fn fetch_retry_exhaustion_fails_the_attempt_and_then_the_job() {
    let mut spec = base_spec();
    spec.conf.faults.fetch_failure_prob = 1.0; // every try fails
    spec.conf.fetch_max_retries = 2;
    spec.conf.max_attempts = 2;
    let r = run(spec);
    assert_eq!(r.outcome, JobOutcome::Failed);
    assert!(r.counters.failed_fetches > 0);
    let diag = r.failure.expect("diagnostic");
    let (is_map, _) = diag.task.expect("a specific task exhausted its attempts");
    assert!(!is_map, "fetch exhaustion fails reduce attempts");
    assert!(diag.reason.contains("allowed attempts"), "{}", diag.reason);
}

#[test]
fn speculation_rescues_stragglers_without_losing_data() {
    let straggler = |speculative: bool| {
        let mut spec = base_spec();
        spec.conf.faults.node_slowdowns.push(NodeSlowdown {
            node: 0,
            factor: 6.0,
        });
        spec.conf.speculative = speculative;
        spec.conf.speculative_slowdown = 1.2;
        run(spec)
    };
    let off = straggler(false);
    let on = straggler(true);
    assert_conserved(&off);
    assert_conserved(&on);
    assert!(on.counters.speculative_launches > 0, "{:?}", on.counters);
    assert!(on.counters.speculative_wins > 0, "{:?}", on.counters);
    // Losers are killed, not completed — and every kill frees a slot.
    assert!(on.counters.killed_attempts >= on.counters.speculative_wins);
    // Backups on healthy nodes beat a 3x straggler.
    assert!(
        on.job_time < off.job_time,
        "{} vs {}",
        on.job_time,
        off.job_time
    );
}

#[test]
fn repeated_failures_blacklist_nodes_but_never_the_last_one() {
    let mut spec = base_spec();
    spec.conf.faults.map_failure_prob = 0.5;
    spec.conf.max_attempts = 30;
    spec.conf.node_blacklist_threshold = 2;
    let r = run(spec);
    assert_conserved(&r);
    // With two nodes at most one can be blacklisted; the scheduler must
    // keep the last one schedulable no matter how many failures land.
    assert!(r.counters.blacklisted_nodes <= 1, "{:?}", r.counters);
    assert!(r.counters.failed_task_attempts >= 2);
}

#[test]
fn exceeding_max_attempts_aborts_instead_of_panicking() {
    let mut spec = base_spec();
    spec.conf.faults.map_failure_prob = 1.0; // every attempt dies
    spec.conf.max_attempts = 2;
    let r = run(spec);
    assert_eq!(r.outcome, JobOutcome::Failed);
    assert!(!r.succeeded());
    let diag = r.failure.expect("diagnostic");
    assert_eq!(diag.task.map(|(m, _)| m), Some(true));
    assert!(diag.reason.contains("allowed attempts"), "{}", diag.reason);
    assert!(r.counters.failed_task_attempts >= 2);
    // A failed job still reports a coherent end time.
    assert!(r.job_time.as_secs_f64() > 0.0);
}

#[test]
fn faulted_runs_are_deterministic() {
    let cocktail = || {
        let mut spec = base_spec();
        spec.conf.faults = FaultPlan {
            map_failure_prob: 0.15,
            reduce_failure_prob: 0.1,
            fetch_failure_prob: 0.05,
            node_crashes: vec![NodeCrash {
                node: 1,
                at_secs: 25.0,
            }],
            node_slowdowns: vec![NodeSlowdown {
                node: 0,
                factor: 1.5,
            }],
            ..FaultPlan::default()
        };
        spec.conf.speculative = true;
        run(spec)
    };
    let a = cocktail();
    let b = cocktail();
    assert_eq!(a.outcome, b.outcome);
    assert_eq!(a.job_time, b.job_time, "bit-identical timing");
    assert_eq!(a.counters, b.counters, "bit-identical counters");
    assert_eq!(a.tasks.len(), b.tasks.len());
    for (x, y) in a.tasks.iter().zip(&b.tasks) {
        assert_eq!(
            (x.is_map, x.index, x.node, x.start, x.finish),
            (y.is_map, y.index, y.node, y.start, y.finish)
        );
    }
}

#[test]
fn fault_seed_changes_the_failure_pattern() {
    let with_seed = |seed: u64| {
        let mut spec = base_spec();
        spec.conf.seed = seed;
        spec.conf.faults.map_failure_prob = 0.3;
        run(spec)
    };
    let a = with_seed(1);
    let b = with_seed(2);
    assert_conserved(&a);
    assert_conserved(&b);
    // Different seeds draw different doomed attempts.
    assert_ne!(
        (a.counters.failed_task_attempts, a.job_time),
        (b.counters.failed_task_attempts, b.job_time)
    );
}

/// The stock partitioner, counting the partitioners it builds.
#[derive(Default)]
struct CountingFactory {
    created: AtomicU32,
}

impl PartitionerFactory for CountingFactory {
    fn create(&self, map_index: u32, seed: u64) -> Box<dyn Partitioner> {
        self.created.fetch_add(1, Ordering::Relaxed);
        HashPartitionerFactory.create(map_index, seed)
    }
    fn name(&self) -> &str {
        "counting"
    }
}

#[test]
fn each_maps_partitioner_runs_once_however_many_attempts_it_takes() {
    // Failed attempts, speculative backups and maps re-run after a
    // crash all launch extra map attempts; none of them partitions
    // again.
    let run3 = |spec: JobSpec, factory: &CountingFactory| {
        run_job(spec, factory, NodeSpec::westmere(), 3, Interconnect::GigE10)
    };
    let clean = run3(base_spec(), &CountingFactory::default());
    let last_finish = clean.tasks.iter().map(|t| t.finish).max().expect("tasks");
    let crash_at = (clean.map_phase_end.as_secs_f64() + last_finish.as_secs_f64()) / 2.0;
    let mut spec = base_spec();
    spec.conf.faults = FaultPlan {
        map_failure_prob: 0.3,
        node_crashes: vec![NodeCrash {
            node: 1,
            at_secs: crash_at,
        }],
        node_slowdowns: vec![NodeSlowdown {
            node: 2,
            factor: 4.0,
        }],
        ..FaultPlan::default()
    };
    spec.conf.speculative = true;
    spec.conf.speculative_slowdown = 1.2;
    let factory = CountingFactory::default();
    let r = run3(spec, &factory);
    let c = &r.counters;
    assert!(c.failed_task_attempts > 0, "{c:?}");
    assert!(c.maps_rerun_after_node_loss > 0, "{c:?}");
    assert!(c.speculative_launches > 0, "{c:?}");
    assert_eq!(factory.created.load(Ordering::Relaxed), MAPS);
    assert_conserved(&r);
}
