//! The golden manifest: `tests/golden/MANIFEST` pins each covered
//! output as one line, `<fnv1a_128> <bytes> <name>`, so an output that
//! drifts from the committed one fails here rather than waiting for a
//! hand-run `cmp` against a parent build.
//!
//! Beside the digests of the simulator's own outputs, the manifest pins
//! what every figure binary writes — stdout, `--json` and `--csv` — run
//! in-process through `mrbench_bench::run_binary`, which returns the
//! bytes the binary's exit path would print and write: the lines
//! `<bin>.quick.*`, `<bin>.quick-analytic.*` and, checked by an ignored
//! test, the paper-scale `<bin>.*`.
//!
//! A change that moves an output on purpose re-pins the lines of the
//! test that ran with
//!
//! ```text
//! MRBENCH_BLESS=1 cargo test --test golden
//! MRBENCH_BLESS=1 cargo test --release --test golden -- --ignored
//! ```
//!
//! which rewrite those lines of the manifest and print the ones that
//! moved.

use hadoop_mr_microbench::mapreduce::{Counters, FaultPlan, NodeCrash, NodeSlowdown};
use hadoop_mr_microbench::mrbench::multijob::{self, ArrivalProcess, MultiJobSpec, TenantSpec};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::{Mutex, PoisonError};

use hadoop_mr_microbench::mrbench::store::fnv1a_128;
use hadoop_mr_microbench::mrbench::{config_digest, run, BenchConfig, MicroBenchmark, ResultStore};
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
/// `baseline_digest`'s grid, which must be the bytes `put` writes again
/// for the report `ResultStore::get` serves from them: the line pins
/// what `--resume` serves too.
fn store_fragment() -> String {
    let config = &baseline_configs()[0];
    let report = run(config).expect("valid config");
    let dir = std::env::temp_dir().join(format!("mrbench-golden-store-{}", std::process::id()));
    let digest = config_digest(config);
    let put = |store: &ResultStore, report| {
        store.put(&digest, report).expect("fragment is written");
        std::fs::read_to_string(store.fragment_path(&digest)).expect("fragment reads")
    };
    let first = ResultStore::open(dir.join("first")).expect("store opens");
    let text = put(&first, &report);
    let served = first.get(&digest).expect("the fragment is served");
    let second = ResultStore::open(dir.join("second")).expect("store opens");
    let again = put(&second, &served);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(text == again, "a served report is put back byte for byte");
    text
}

/// The figure binaries; all but `faults` and `ablation` take
/// `--backend analytic`.
const FIGURE_BINS: [&str; 10] = [
    "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "summary", "faults", "ablation",
];

/// The lines of one in-process binary run, `<bin><mode>.stdout`,
/// `.json` and `.csv`: the stdout text and the bytes of the files
/// `--json` and `--csv` ask for. Nothing is written.
fn binary_lines(bin: &str, mode: &str, args: &[&str]) -> Vec<String> {
    let outputs = ["--json", "unwritten.json", "--csv", "unwritten.csv"];
    let args: Vec<String> = args.iter().chain(&outputs).map(|a| a.to_string()).collect();
    let ran = mrbench_bench::run_binary(bin, &args);
    assert!(
        matches!(ran.outcome, Ok(code) if code == ExitCode::SUCCESS),
        "{bin}{mode}: {:?}",
        ran.outcome
    );
    let harness = ran.harness.expect("a finished run has a harness");
    let mut lines = vec![line(&format!("{bin}{mode}.stdout"), &harness.text)];
    for ((_, bytes), ext) in harness.files().iter().zip(["json", "csv"]) {
        lines.push(line(&format!("{bin}{mode}.{ext}"), bytes));
    }
    lines
}

/// Check the lines a test produced against the manifest lines it owns,
/// naming each moved, missing or extra line; under `MRBENCH_BLESS=1`,
/// rewrite the owned lines instead and keep the others.
fn check_manifest(fresh: &[String], owns: fn(&str) -> bool, bless: &str) {
    // Tests run in parallel; one reads and rewrites the file at a time.
    static MANIFEST_FILE: Mutex<()> = Mutex::new(());
    let _file = MANIFEST_FILE.lock().unwrap_or_else(PoisonError::into_inner);
    let keyed = |l: &str| {
        (
            l.rsplit(' ').next().unwrap_or_default().to_string(),
            l.to_string(),
        )
    };
    let text = std::fs::read_to_string(MANIFEST).unwrap_or_default();
    let (pinned, others): (BTreeMap<_, _>, BTreeMap<_, _>) =
        text.lines().map(keyed).partition(|(name, _)| owns(name));
    let fresh: BTreeMap<String, String> = fresh.iter().map(|l| keyed(l)).collect();
    if std::env::var("MRBENCH_BLESS").is_ok_and(|v| v == "1") {
        for (n, l) in &fresh {
            if pinned.get(n) != Some(l) {
                println!("moved: {l}");
            }
        }
        let mut all = others;
        all.extend(fresh);
        let text: String = all.values().map(|l| format!("{l}\n")).collect();
        std::fs::write(MANIFEST, text).expect("manifest is writable");
        return;
    }
    let mut drift = Vec::new();
    for (n, l) in &fresh {
        match pinned.get(n) {
            Some(p) if p == l => {}
            Some(p) => drift.push(format!("moved:   {p}\n   now:   {l}")),
            None => drift.push(format!("missing: {l}")),
        }
    }
    let extra = pinned.iter().filter(|(n, _)| !fresh.contains_key(*n));
    drift.extend(extra.map(|(_, p)| format!("extra:   {p}")));
    assert!(
        drift.is_empty(),
        "outputs drifted from {MANIFEST}:\n{}\n\
         re-pin with `MRBENCH_BLESS=1 {bless}` if the change is deliberate",
        drift.join("\n")
    );
}

/// A paper-scale line, `<bin>.<ext>`; the other lines have no dot
/// (`baseline_digest`) or two (`fig2.quick.json`).
fn paper_scale(name: &str) -> bool {
    name.matches('.').count() == 1
}

#[test]
fn outputs_match_the_golden_manifest() {
    let mut lines = vec![
        line("baseline_digest", &baseline_digest()),
        line("fault_digest", &fault_digest()),
        line("multijob_stream", &multijob_stream()),
        line("store_fragment", &store_fragment()),
    ];
    for bin in FIGURE_BINS {
        lines.extend(binary_lines(bin, ".quick", &["--quick"]));
        if !matches!(bin, "faults" | "ablation") {
            let analytic = ["--quick", "--backend", "analytic"];
            lines.extend(binary_lines(bin, ".quick-analytic", &analytic));
        }
    }
    let bless = "cargo test --test golden";
    check_manifest(&lines, |name| !paper_scale(name), bless);
}

/// Every figure binary at paper scale: ~1 s in release, ~20 s in debug.
#[test]
#[ignore = "paper scale; run with --release -- --ignored"]
fn paper_scale_outputs_match_the_golden_manifest() {
    let lines: Vec<String> = FIGURE_BINS
        .iter()
        .flat_map(|bin| binary_lines(bin, "", &[]))
        .collect();
    let bless = "cargo test --release --test golden -- --ignored";
    check_manifest(&lines, paper_scale, bless);
}
