//! # mrperf — the repository's end-to-end benchmark
//!
//! Times what users of the suite wait on — regenerating every paper
//! figure, rack-scale provisioning sweeps, and resumed sweeps — as a
//! closed loop of worker threads over seeded cell tables, checks every
//! output, and with `--trace` splits the host time into the library's
//! layers. See `README.md` for the metrics, the workloads and why each
//! was chosen.

// Host time is what this crate measures; the simulator crates never
// read a clock.
#![allow(clippy::disallowed_methods)]

pub mod compare;
mod layers;
mod runner;
mod stats;
pub mod workloads;

use simcore::json::Json;

pub use runner::{run, Metric, Outcome, RunOptions};
pub use workloads::{Cell, Workload};

/// Schema tag of `--json` result documents.
pub const SCHEMA: &str = "mrperf-v1";

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    Json::Obj(vec![
                        ("value".into(), Json::from(m.value)),
                        ("unit".into(), Json::from(m.unit)),
                    ]),
                )
            })
            .collect(),
    )
}

/// The one-line result: end-to-end metrics, or per-layer metrics for a
/// traced run.
pub fn result_line(o: &Outcome) -> String {
    let metrics = if o.options.trace {
        &o.per_layer
    } else {
        &o.end_to_end
    };
    Json::Obj(vec![
        ("correct".into(), Json::from(o.correct())),
        ("attempted".into(), Json::from(o.attempted)),
        ("failed".into(), Json::from(o.failed)),
        ("metrics".into(), metrics_json(metrics)),
    ])
    .to_compact()
}

/// One workload's entry in a `--json` document.
pub fn outcome_json(o: &Outcome) -> Json {
    Json::Obj(vec![
        ("correct".into(), Json::from(o.correct())),
        ("attempted".into(), Json::from(o.attempted)),
        ("failed".into(), Json::from(o.failed)),
        (
            "failed_ratio".into(),
            Json::from(o.failed as f64 / o.attempted.max(1) as f64),
        ),
        ("output_digest".into(), Json::from(o.output_digest.as_str())),
        ("tail".into(), Json::from(o.tail.as_str())),
        ("passes".into(), Json::from(o.passes)),
        ("metrics".into(), metrics_json(&o.end_to_end)),
        ("per_layer".into(), metrics_json(&o.per_layer)),
    ])
}

/// A `--json` document holding `workloads` (name, entry) measured with
/// `seed`.
pub fn document(seed: u64, quick: bool, threads: usize, workloads: Vec<(String, Json)>) -> Json {
    Json::Obj(vec![
        ("schema".into(), Json::from(SCHEMA)),
        ("seed".into(), Json::from(seed)),
        ("quick".into(), Json::from(quick)),
        ("threads".into(), Json::from(threads)),
        (
            "available_parallelism".into(),
            Json::from(available_parallelism()),
        ),
        ("workloads".into(), Json::Obj(workloads)),
    ])
}

/// Cores the OS offers this process.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Human-readable lines for one outcome: every metric with its unit.
pub fn describe(o: &Outcome) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    let opts = &o.options;
    let _ = writeln!(
        s,
        "mrperf {} seed={} quick={} threads={} (available parallelism {}), {} pass(es)",
        opts.workload.name(),
        opts.seed,
        opts.quick,
        opts.threads,
        available_parallelism(),
        o.passes
    );
    for m in &o.end_to_end {
        let note = match m.name {
            "cell_tail_ms" => format!("  ({})", o.tail),
            "setup_s" => format!("  (median of {} set-ups)", o.setups),
            _ => String::new(),
        };
        let _ = writeln!(s, "  {:<26} {:>14.4} {}{note}", m.name, m.value, m.unit);
    }
    let _ = writeln!(
        s,
        "  {:<26} {:>14.4} ratio  ({} of {} cells)",
        "failed_ratio",
        o.failed as f64 / o.attempted.max(1) as f64,
        o.failed,
        o.attempted
    );
    for m in &o.per_layer {
        let _ = writeln!(s, "  {:<26} {:>14.4} {}", m.name, m.value, m.unit);
    }
    if let Some(c) = o.layer_coverage {
        let _ = writeln!(
            s,
            "  layer calls cover {:.1}% of traced DES cell time",
            c * 100.0
        );
    }
    if let Some(p) = &o.trace_file {
        let _ = writeln!(s, "  chrome trace: {}", p.display());
    }
    let _ = writeln!(s, "  output_digest {}", o.output_digest);
    let _ = writeln!(s, "  store and artifacts under {}", opts.dir.display());
    for p in &o.problems {
        let _ = writeln!(s, "  PROBLEM: {p}");
    }
    s
}
