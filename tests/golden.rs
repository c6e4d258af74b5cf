//! The golden manifest: `tests/golden/MANIFEST` pins each covered
//! output as one line, `<fnv1a_128> <bytes> <name>`, so an output that
//! drifts from the committed one fails here rather than waiting for a
//! hand-run `cmp` against a parent build.
//!
//! A change that moves an output on purpose re-pins it with
//!
//! ```text
//! MRBENCH_BLESS=1 cargo test --test golden
//! ```
//!
//! which rewrites the manifest and prints the lines that moved.

use hadoop_mr_microbench::mapreduce::{Counters, FaultPlan, NodeCrash, NodeSlowdown};
use hadoop_mr_microbench::mrbench::multijob::{self, ArrivalProcess, MultiJobSpec, TenantSpec};
use hadoop_mr_microbench::mrbench::store::fnv1a_128;
use hadoop_mr_microbench::mrbench::sweep::SweepCell;
use hadoop_mr_microbench::mrbench::{
    config_digest, run, Artifacts, BenchConfig, MicroBenchmark, ResultStore, Sweep,
};
use hadoop_mr_microbench::simcore::units::ByteSize;
use hadoop_mr_microbench::simnet::Interconnect;
use hadoop_mr_microbench::{baseline_configs, baseline_digest};

const MANIFEST: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/MANIFEST");

/// The manifest line of one output.
fn line(name: &str, text: &str) -> String {
    format!("{} {} {name}", fnv1a_128(text.as_bytes()), text.len())
}

/// A small job: 8 maps and 4 reduces on 2 slaves over 10GigE.
fn small(bench: MicroBenchmark) -> BenchConfig {
    let mut c = BenchConfig::cluster_a_default(bench, Interconnect::GigE10, ByteSize::from_mib(64));
    c.num_maps = 8;
    c.num_reduces = 4;
    c.slaves = 2;
    c
}

/// One line per (fault config, benchmark), in `baseline_digest`'s
/// format plus the outcome. Each config drives one recovery path, and
/// its counter (`failed_task_attempts`, `failed_fetches`,
/// `maps_rerun_after_node_loss`, `speculative_launches`) must be
/// nonzero, so a line cannot silently stop covering its path.
fn fault_digest() -> String {
    type Path = fn(&Counters) -> u64;
    let failed: Path = |c| c.failed_task_attempts;
    let mut out = String::new();
    for bench in [MicroBenchmark::Avg, MicroBenchmark::Skew] {
        // The crash lands between the clean run's map-phase end and its
        // last reduce, so node 1 holds committed outputs reducers need.
        let clean = run(&small(bench)).expect("valid config").result;
        let last = clean.tasks.iter().map(|t| t.finish).max().expect("tasks");
        let crash_at = (clean.map_phase_end.as_secs_f64() + last.as_secs_f64()) / 2.0;
        let configs: [(&str, FaultPlan, Path); 6] = [
            (
                "task-failures",
                FaultPlan {
                    map_failure_prob: 0.2,
                    reduce_failure_prob: 0.2,
                    ..FaultPlan::default()
                },
                failed,
            ),
            (
                "fetch-failures",
                FaultPlan {
                    fetch_failure_prob: 0.2,
                    ..FaultPlan::default()
                },
                |c| c.failed_fetches,
            ),
            (
                "node-crash",
                FaultPlan {
                    node_crashes: vec![NodeCrash {
                        node: 1,
                        at_secs: crash_at,
                    }],
                    ..FaultPlan::default()
                },
                |c| c.maps_rerun_after_node_loss,
            ),
            (
                "straggler",
                FaultPlan {
                    node_slowdowns: vec![NodeSlowdown {
                        node: 0,
                        factor: 6.0,
                    }],
                    ..FaultPlan::default()
                },
                |c| c.speculative_launches,
            ),
            (
                "fail-first",
                FaultPlan {
                    fail_first_attempt_maps: vec![0, 5],
                    fail_first_attempt_reduces: vec![2],
                    ..FaultPlan::default()
                },
                failed,
            ),
            (
                "exhausted",
                FaultPlan {
                    map_failure_prob: 1.0,
                    ..FaultPlan::default()
                },
                failed,
            ),
        ];
        for (name, faults, path) in configs {
            let mut c = small(bench);
            c.speculative = name == "straggler";
            if name == "exhausted" {
                c.max_attempts = 2;
            }
            c.faults = faults;
            let r = run(&c).expect("valid config").result;
            assert!(path(&r.counters) > 0, "{name} {bench:?}: {:?}", r.counters);
            out += &format!(
                "{name} {bench:?} {:?} job_ns={} map_end={} shuffle_end={} {:?}\n",
                r.outcome,
                r.job_time.as_nanos(),
                r.map_phase_end.as_nanos(),
                r.shuffle_end.as_nanos(),
                r.counters
            );
        }
    }
    out
}

/// A racked two-tenant stream of six small MR-AVG jobs, as its compact
/// result JSON.
fn multijob_stream() -> String {
    let mut job = small(MicroBenchmark::Avg);
    job.interconnect = Interconnect::GigE1;
    job.slaves = 8;
    job.racks = 2;
    job.oversubscription = 4.0;
    job.seed = 7;
    let tenant = |name: &str, weight| TenantSpec {
        name: name.into(),
        weight,
    };
    let spec = MultiJobSpec {
        job,
        tenants: vec![tenant("alpha", 1.0), tenant("beta", 2.0)],
        n_jobs: 6,
        arrivals: ArrivalProcess::Poisson { mean_gap_s: 1.0 },
    };
    multijob::run(&spec)
        .expect("valid stream")
        .to_json()
        .to_compact()
}

/// The bytes `ResultStore::put` writes for the first config of
/// `baseline_digest`'s grid.
fn store_fragment() -> String {
    let config = &baseline_configs()[0];
    let report = run(config).expect("valid config");
    let dir = std::env::temp_dir().join(format!("mrbench-golden-store-{}", std::process::id()));
    let store = ResultStore::open(&dir).expect("store opens");
    let digest = config_digest(config);
    store.put(&digest, &report).expect("fragment is written");
    let text = std::fs::read_to_string(store.fragment_path(&digest)).expect("fragment reads");
    let _ = std::fs::remove_dir_all(&dir);
    text
}

/// The bytes `Artifacts::write` writes for one sweep panel of
/// `baseline_digest`'s reports, utilization series included: six rows,
/// one per (benchmark, engine) and all at 512 MiB, by the three
/// interconnects.
fn artifact_pretty() -> String {
    let configs = baseline_configs();
    let reports: Vec<_> = configs
        .iter()
        .map(|c| run(c).expect("valid config"))
        .collect();
    // `baseline_configs` varies the engine fastest, then the
    // interconnect; the grid's columns are the interconnects.
    let (interconnects, engines) = (3, 2);
    let mut cells = Vec::new();
    for row in 0..reports.len() / interconnects {
        let (bench, engine) = (row / engines, row % engines);
        for ic in 0..interconnects {
            let report = reports[(bench * interconnects + ic) * engines + engine].clone();
            cells.push(SweepCell {
                shuffle: report.config.shuffle_bytes(),
                interconnect: report.config.interconnect,
                report,
            });
        }
    }
    let sweep = Sweep {
        sizes: cells
            .iter()
            .step_by(interconnects)
            .map(|c| c.shuffle)
            .collect(),
        interconnects: cells[..interconnects]
            .iter()
            .map(|c| c.interconnect)
            .collect(),
        cells,
    };
    let mut artifacts = Artifacts::new("golden");
    artifacts.record_sweep("baseline grid", sweep);
    artifacts.to_json().to_pretty()
}

#[test]
fn outputs_match_the_golden_manifest() {
    let lines = [
        line("baseline_digest", &baseline_digest()),
        line("fault_digest", &fault_digest()),
        line("multijob_stream", &multijob_stream()),
        line("store_fragment", &store_fragment()),
        line("artifact_pretty", &artifact_pretty()),
    ];
    let fresh: String = lines.iter().map(|l| format!("{l}\n")).collect();
    let pinned = std::fs::read_to_string(MANIFEST).unwrap_or_default();
    if std::env::var("MRBENCH_BLESS").is_ok_and(|v| v == "1") {
        for l in &lines {
            if !pinned.lines().any(|p| p == l) {
                println!("moved: {l}");
            }
        }
        std::fs::write(MANIFEST, &fresh).expect("manifest is writable");
        return;
    }
    assert!(
        pinned == fresh,
        "outputs drifted from {MANIFEST}\npinned:\n{pinned}now:\n{fresh}\
         re-pin with `MRBENCH_BLESS=1 cargo test --test golden` if the change is deliberate"
    );
}
