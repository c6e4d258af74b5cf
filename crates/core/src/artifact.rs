//! Machine-readable benchmark artifacts (`BENCH_<name>.json` / CSV).
//!
//! A binary run produces a sequence of *panels* — sweeps (the paper's
//! figure grids) and single reports (e.g. the fault scenarios) — that
//! were previously only pretty-printed. [`Artifacts`] collects them as
//! they are produced and renders one JSON document, one CSV table and
//! one Chrome trace, which a binary writes at exit, so perf
//! trajectories can be tracked across commits.
//!
//! JSON schema (`mrbench-artifact-v1`):
//!
//! ```json
//! {
//!   "schema": "mrbench-artifact-v1",
//!   "name": "fig2",
//!   "panels": [
//!     {"title": "...", "kind": "sweep",  "sweep":  { ...Sweep::to_json... }},
//!     {"title": "...", "kind": "report", "report": { ...BenchReport::to_json... }}
//!   ]
//! }
//! ```
//!
//! Everything round-trips: [`Artifacts::from_json`] rebuilds the full
//! report types, down to nanosecond job times and utilization samples.

use std::path::Path;

use simcore::jobj;
use simcore::json::Json;

use crate::error::Error;
use crate::report::{BenchReport, CSV_HEADER};
use crate::sweep::Sweep;

/// Schema tag written into every artifact document.
pub const SCHEMA: &str = "mrbench-artifact-v1";

/// One recorded panel: a sweep grid or a single report.
#[derive(Debug)]
pub enum Panel {
    /// A (shuffle size × interconnect) grid.
    Sweep {
        /// Panel title as printed above the table.
        title: String,
        /// The grid.
        sweep: Sweep,
    },
    /// One stand-alone run. Boxed so the enum stays small next to the
    /// slim `Sweep` variant.
    Report {
        /// Scenario label.
        title: String,
        /// The run's report.
        report: Box<BenchReport>,
    },
}

impl Panel {
    /// The panel's title.
    pub fn title(&self) -> &str {
        match self {
            Panel::Sweep { title, .. } | Panel::Report { title, .. } => title,
        }
    }
}

/// Collects panels during a run and writes them to the paths requested
/// on the command line.
#[derive(Debug)]
pub struct Artifacts {
    /// Artifact name (by convention the binary name, e.g. `fig2`).
    pub name: String,
    /// Panels in production order.
    pub panels: Vec<Panel>,
}

impl Artifacts {
    /// Empty collector for the binary `name`.
    pub fn new(name: &str) -> Self {
        Artifacts {
            name: name.to_string(),
            panels: Vec::new(),
        }
    }

    /// Record a sweep panel.
    pub fn record_sweep(&mut self, title: &str, sweep: Sweep) {
        self.panels.push(Panel::Sweep {
            title: title.to_string(),
            sweep,
        });
    }

    /// Record a single-report panel.
    pub fn record_report(&mut self, title: &str, report: BenchReport) {
        self.panels.push(Panel::Report {
            title: title.to_string(),
            report: Box::new(report),
        });
    }

    /// Serialize every panel under the `mrbench-artifact-v1` schema.
    pub fn to_json(&self) -> Json {
        jobj! {
            "schema": SCHEMA,
            "name": self.name.as_str(),
            "panels": Json::Arr(
                self.panels
                    .iter()
                    .map(|p| match p {
                        Panel::Sweep { title, sweep } => jobj! {
                            "title": title.as_str(),
                            "kind": "sweep",
                            "sweep": sweep.to_json(),
                        },
                        Panel::Report { title, report } => jobj! {
                            "title": title.as_str(),
                            "kind": "report",
                            "report": report.to_json(),
                        },
                    })
                    .collect(),
            ),
        }
    }

    /// Rebuild from the [`Artifacts::to_json`] encoding, validating the
    /// `mrbench-artifact-v1` schema. Errors carry the field path where
    /// validation failed (e.g. `panels[2] ("MR-RAND"): sweep: cells[1]:
    /// report: missing JSON field 'config'`).
    pub fn from_json(json: &Json) -> Result<Self, Error> {
        let root = |e: String| Error::parse("artifact", e);
        let schema = json.field_str("schema").map_err(root)?;
        if schema != SCHEMA {
            return Err(root(format!(
                "unsupported artifact schema '{schema}' (expected '{SCHEMA}')"
            )));
        }
        let name = json.field_str("name").map_err(root)?.to_string();
        let mut panels = Vec::new();
        for (i, p) in json.field_arr("panels").map_err(root)?.iter().enumerate() {
            let at = |e: String| Error::parse(format!("panels[{i}]"), e);
            let title = p.field_str("title").map_err(at)?.to_string();
            let titled = |field: &str, e: String| {
                Error::parse(
                    format!("panels[{i}] (\"{title}\")"),
                    format!("{field}: {e}"),
                )
            };
            match p.field_str("kind").map_err(at)? {
                "sweep" => panels.push(Panel::Sweep {
                    sweep: p
                        .req("sweep")
                        .and_then(Sweep::from_json)
                        .map_err(|e| titled("sweep", e))?,
                    title,
                }),
                "report" => panels.push(Panel::Report {
                    report: p
                        .req("report")
                        .and_then(BenchReport::from_json)
                        .map(Box::new)
                        .map_err(|e| titled("report", e))?,
                    title,
                }),
                other => return Err(at(format!("unknown panel kind '{other}'"))),
            }
        }
        Ok(Artifacts { name, panels })
    }

    /// Read and validate an artifact file, prefixing every error with
    /// the file path.
    pub fn load(path: &Path) -> Result<Self, Error> {
        let text = crate::error::read_to_string(path)?;
        let json = Json::parse(&text)
            .map_err(|e| Error::parse(path.display().to_string(), format!("invalid JSON: {e}")))?;
        Artifacts::from_json(&json).map_err(|e| match e {
            Error::Parse { context, detail } => Error::Parse {
                context: format!("{}: {context}", path.display()),
                detail,
            },
            other => other,
        })
    }

    /// Every recorded run with its panel's title, in panel order.
    pub fn reports(&self) -> impl Iterator<Item = (&str, &BenchReport)> {
        self.panels.iter().flat_map(|p| {
            let (cells, single) = match p {
                Panel::Sweep { sweep, .. } => (&sweep.cells[..], None),
                Panel::Report { report, .. } => (&[][..], Some(&**report)),
            };
            let reports = cells.iter().map(|c| &c.report).chain(single);
            reports.map(|r| (p.title(), r))
        })
    }

    /// Combine every traced run into one Chrome trace-event document:
    /// run *i* becomes trace-event process *i*, named after its panel
    /// (plus grid coordinates for sweep cells), with one thread per
    /// `node/slot` lane. The top-level `"runs"` array records the labels
    /// in pid order — tooling can validate against it; viewers ignore it.
    pub fn to_chrome_trace(&self) -> Json {
        let mut events: Vec<Json> = Vec::new();
        let mut runs: Vec<Json> = Vec::new();
        for panel in &self.panels {
            match panel {
                Panel::Sweep { title, sweep } => {
                    for c in &sweep.cells {
                        if let Some(trace) = &c.report.result.trace {
                            let label = format!("{title} [{} over {}]", c.shuffle, c.interconnect);
                            trace.chrome_events(runs.len() as u64, &label, &mut events);
                            runs.push(Json::from(label));
                        }
                    }
                }
                Panel::Report { title, report } => {
                    if let Some(trace) = &report.result.trace {
                        trace.chrome_events(runs.len() as u64, title, &mut events);
                        runs.push(Json::from(title.as_str()));
                    }
                }
            }
        }
        jobj! {
            "displayTimeUnit": "ms",
            "runs": Json::Arr(runs),
            "traceEvents": Json::Arr(events),
        }
    }

    /// The artifact as a CSV table: header plus one row per run.
    pub fn to_csv(&self) -> String {
        let mut out = format!("{CSV_HEADER}\n");
        for (title, report) in self.reports() {
            out += &report.csv_row(title);
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench::MicroBenchmark;
    use crate::config::BenchConfig;
    use crate::runner::run;
    use simcore::units::ByteSize;
    use simnet::Interconnect;

    fn tiny(shuffle: ByteSize, ic: Interconnect) -> BenchConfig {
        let mut c = BenchConfig::cluster_a_default(MicroBenchmark::Avg, ic, shuffle);
        c.slaves = 2;
        c.num_maps = 4;
        c.num_reduces = 4;
        c
    }

    #[test]
    fn artifact_round_trips_and_tabulates() {
        let sizes = [ByteSize::from_mib(64)];
        let ics = [Interconnect::GigE1, Interconnect::RdmaFdr];
        let sweep = Sweep::run_grid(&sizes, &ics, tiny).unwrap();
        let single = run(&tiny(ByteSize::from_mib(64), Interconnect::GigE1)).unwrap();

        let mut art = Artifacts::new("unit");
        art.record_sweep("panel one", sweep);
        art.record_report("scenario", single);

        let text = art.to_json().to_pretty();
        let back = Artifacts::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.name, "unit");
        assert_eq!(back.panels.len(), 2);
        assert_eq!(back.to_json().to_pretty(), text, "canonical round-trip");

        // Job times in the decoded artifact match the originals.
        let (Panel::Sweep { sweep: s0, .. }, Panel::Sweep { sweep: s1, .. }) =
            (&art.panels[0], &back.panels[0])
        else {
            panic!("expected sweep panels");
        };
        for (a, b) in s0.cells.iter().zip(&s1.cells) {
            assert_eq!(a.report.result.job_time, b.report.result.job_time);
        }

        let csv = art.to_csv();
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some(CSV_HEADER));
        assert_eq!(
            csv.lines().count(),
            1 + 2 + 1,
            "header + 2 cells + 1 report"
        );
        assert!(csv.contains("panel one,MR-AVG"));
        assert!(csv.contains("scenario,MR-AVG"));
    }

    #[test]
    fn traced_and_failed_runs_round_trip_and_combine() {
        let mut ok = tiny(ByteSize::from_mib(64), Interconnect::GigE1);
        ok.trace = true;
        let mut bad = tiny(ByteSize::from_mib(64), Interconnect::GigE1);
        bad.trace = true;
        bad.faults.map_failure_prob = 1.0; // every attempt dies
        bad.max_attempts = 2;
        let mut art = Artifacts::new("unit");
        art.record_report("ok run", run(&ok).unwrap());
        art.record_report("failed run", run(&bad).unwrap());
        assert!(art.reports().all(|(_, r)| r.result.trace.is_some()));

        // The artifact round-trips with phases intact; the raw span
        // stream is deliberately transient (it has its own file format).
        let text = art.to_json().to_pretty();
        let back = Artifacts::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.to_json().to_pretty(), text, "canonical round-trip");
        for panel in &back.panels {
            let Panel::Report { report, .. } = panel else {
                panic!("expected report panels");
            };
            assert!(report.result.phases.is_some());
            assert!(report.result.trace.is_none());
        }

        // Combined Chrome document: one process per run, with complete
        // ("X") span events and process_name metadata for both.
        let chrome = art.to_chrome_trace();
        assert_eq!(chrome.field_arr("runs").unwrap().len(), 2);
        let events = chrome.field_arr("traceEvents").unwrap();
        let pids: std::collections::BTreeSet<u64> = events
            .iter()
            .filter(|e| e.field_str("ph") == Ok("X"))
            .map(|e| e.field_u64("pid").unwrap())
            .collect();
        assert_eq!(pids.into_iter().collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(
            events
                .iter()
                .filter(|e| e.field_str("name") == Ok("process_name"))
                .count(),
            2
        );
    }

    #[test]
    fn schema_mismatch_is_rejected() {
        let doc = Json::parse(r#"{"schema": "other", "name": "x", "panels": []}"#).unwrap();
        let err = Artifacts::from_json(&doc).unwrap_err().to_string();
        assert!(err.contains("schema") && err.contains(SCHEMA), "{err}");
    }

    #[test]
    fn reader_errors_carry_the_field_path() {
        // A panel with a bad kind names its index.
        let doc = Json::parse(
            r#"{"schema": "mrbench-artifact-v1", "name": "x", "panels": [
                {"title": "ok?", "kind": "frob"}
            ]}"#,
        )
        .unwrap();
        let err = Artifacts::from_json(&doc).unwrap_err().to_string();
        assert!(err.contains("panels[0]") && err.contains("frob"), "{err}");

        // A structurally broken report names panel, title, and field.
        let doc = Json::parse(
            r#"{"schema": "mrbench-artifact-v1", "name": "x", "panels": [
                {"title": "scenario A", "kind": "report", "report": {"config": {}}}
            ]}"#,
        )
        .unwrap();
        let err = Artifacts::from_json(&doc).unwrap_err().to_string();
        assert!(
            err.contains("panels[0]") && err.contains("scenario A") && err.contains("report"),
            "{err}"
        );

        // load() prefixes the file path; missing files are Io errors.
        let missing = Path::new("/nonexistent/BENCH_nope.json");
        match Artifacts::load(missing) {
            Err(Error::Io { op, .. }) => assert_eq!(op, "read"),
            other => panic!("expected Io error, got {other:?}"),
        }
        let dir = std::env::temp_dir().join(format!("mrbench-art-load-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let bad = dir.join("bad.json");
        std::fs::write(&bad, "{ not json").unwrap();
        let err = Artifacts::load(&bad).unwrap_err().to_string();
        assert!(
            err.contains("bad.json") && err.contains("invalid JSON"),
            "{err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_then_load_round_trips_through_disk() {
        let dir = std::env::temp_dir().join(format!("mrbench-art-rt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_unit.json");
        let mut art = Artifacts::new("unit");
        art.record_report(
            "one run",
            run(&tiny(ByteSize::from_mib(64), Interconnect::GigE1)).unwrap(),
        );
        crate::atomic_write(&path, &art.to_json().to_pretty()).unwrap();
        let back = Artifacts::load(&path).unwrap();
        assert_eq!(back.to_json().to_pretty(), art.to_json().to_pretty());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
