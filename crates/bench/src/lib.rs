//! # mrbench-bench — the experiment harness
//!
//! One binary per figure of the paper (`fig2` … `fig8`, plus `summary`),
//! each regenerating the corresponding series: same workloads, same
//! parameter sweeps, same table rows. Each figure is one
//! [`figures::FigureSpec`] — its size axis, its panels (title,
//! interconnects, config builder) and its claims — and the binaries are
//! shims over it; `summary` tabulates every spec's claims from the same
//! panel builders. Shape claims from the paper's prose are self-checked
//! and reported as `ok` / `DEVIATES` / `info` lines, never panics — the
//! point is to *measure* the reproduction, not to hide it.
//!
//! Run e.g.:
//!
//! ```text
//! cargo run --release -p mrbench-bench --bin fig2
//! ```
//!
//! Every binary accepts the same flags:
//!
//! * `--json [PATH]` — write the run as a `mrbench-artifact-v1` JSON
//!   document (default `BENCH_<name>.json`).
//! * `--csv [PATH]` — write one CSV row per simulated run (default
//!   `BENCH_<name>.csv`).
//! * `--quick` — CI smoke mode: MiB-scale shuffle sizes so the binary
//!   finishes in seconds; paper-scale shape checks are skipped.
//! * `--resume [DIR]` — persist every finished sweep cell in a
//!   content-addressed result store (default `BENCH_<name>.store`) and
//!   skip cells already there, so a killed run restarted with the same
//!   flags picks up where it left off.
//! * `--deadline <SECS>` — wall-clock budget for the whole binary; when
//!   it expires the current sweep stops at a cell boundary, the panels
//!   finished so far are flushed as a valid partial artifact, and the
//!   process exits 7 (pair with `--resume` to continue later).
//! * `--max-events <N>` / `--max-sim-secs <S>` — per-run watchdog
//!   budgets forwarded to every simulated job (exit 6 on breach).
//! * `--backend <des|analytic>` — evaluation backend for every run: the
//!   discrete-event simulator (default) or the closed-form analytic cost
//!   model (orders of magnitude faster; validated against the DES within
//!   per-figure error bands — see EXPERIMENTS.md). Results cache under
//!   backend-tagged digests, so `--resume` stores never mix the two.
//!
//! Exit codes follow `mrbench::error`: 0 success, 2 usage, 3 config,
//! 4 I/O, 5 parse, 6 budget exceeded, 7 deadline.

pub mod figures;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use simcore::units::ByteSize;
use simnet::Interconnect;

use mrbench::{
    ArtifactPaths, Artifacts, BenchConfig, BenchReport, Error, ResultStore, Sweep, SweepOptions,
};

/// Shared command-line harness for the figure binaries: flag parsing,
/// quick-mode size substitution, and artifact collection.
#[derive(Debug)]
pub struct Harness {
    artifacts: Artifacts,
    paths: ArtifactPaths,
    /// Chrome trace-event output requested via `--trace [PATH]`. When
    /// set, every run executes with phase tracing on and [`Harness::finish`]
    /// writes one combined trace file (one process per recorded run).
    pub trace: Option<PathBuf>,
    /// CI smoke mode: tiny shuffle sizes, paper-claim checks skipped.
    pub quick: bool,
    /// Result-store directory from `--resume [DIR]`, if any.
    pub resume: Option<PathBuf>,
    /// Wall-clock budget from `--deadline <SECS>`, if any.
    pub deadline_secs: Option<f64>,
    /// Per-run event-count watchdog from `--max-events <N>`.
    pub max_events: Option<u64>,
    /// Per-run simulated-time watchdog from `--max-sim-secs <S>`.
    pub max_sim_secs: Option<f64>,
    /// Backend override from `--backend <des|analytic>`; `None` leaves
    /// each config's own selection (the DES default) in place.
    pub backend: Option<mrbench::BackendKind>,
    /// The opened store ([`Harness::arm`]); `parse` leaves it closed so
    /// flag parsing stays side-effect free.
    store: Option<ResultStore>,
    /// The armed deadline instant ([`Harness::arm`]).
    deadline_at: Option<Instant>,
}

impl Harness {
    /// Parse the standard flags from the process arguments and arm the
    /// store/deadline, exiting with a usage message on anything unknown.
    pub fn from_env(name: &str) -> Harness {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let parsed = Harness::parse(name, &args).and_then(Harness::arm);
        match parsed {
            Ok(h) => h,
            Err(e) => {
                eprintln!("error: {e}");
                if matches!(e, Error::Usage(_)) {
                    eprintln!(
                        "usage: {name} [--quick] [--json [PATH]] [--csv [PATH]] [--trace [PATH]] \
                         [--resume [DIR]] [--deadline SECS] [--max-events N] [--max-sim-secs S] \
                         [--backend des|analytic]"
                    );
                }
                std::process::exit(e.exit_code().into());
            }
        }
    }

    /// Flag parsing behind [`Harness::from_env`], separated for tests.
    /// Pure: the result store is not opened and the deadline clock not
    /// started until [`Harness::arm`].
    pub fn parse(name: &str, args: &[String]) -> Result<Harness, Error> {
        let mut paths = ArtifactPaths::default();
        let mut trace = None;
        let mut quick = false;
        let mut resume = None;
        let mut deadline_secs = None;
        let mut max_events = None;
        let mut max_sim_secs = None;
        let mut backend = None;
        let mut it = args.iter().peekable();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--quick" => quick = true,
                "--json" | "--csv" | "--trace" => {
                    let kind = &arg[2..];
                    // A following `-`-prefixed token (single- or
                    // double-dash) is the next flag, never a path.
                    let path = match it.peek() {
                        Some(v) if !v.starts_with('-') => PathBuf::from(it.next().expect("peeked")),
                        _ if kind == "trace" => PathBuf::from(format!("BENCH_{name}_trace.json")),
                        _ => ArtifactPaths::default_for(name, kind),
                    };
                    match kind {
                        "json" => paths.json = Some(path),
                        "csv" => paths.csv = Some(path),
                        _ => trace = Some(path),
                    }
                }
                "--resume" => {
                    resume = Some(match it.peek() {
                        Some(v) if !v.starts_with('-') => PathBuf::from(it.next().expect("peeked")),
                        _ => PathBuf::from(format!("BENCH_{name}.store")),
                    });
                }
                "--deadline" => {
                    let v = it
                        .next()
                        .ok_or_else(|| Error::usage("--deadline needs a value in seconds"))?;
                    let secs: f64 = v
                        .parse()
                        .map_err(|e| Error::usage(format!("bad --deadline value '{v}': {e}")))?;
                    if !secs.is_finite() || secs <= 0.0 {
                        return Err(Error::usage(format!(
                            "--deadline must be a positive number of seconds, got '{v}'"
                        )));
                    }
                    if Duration::try_from_secs_f64(secs).is_err() {
                        return Err(Error::usage(format!("--deadline '{v}' is too large")));
                    }
                    deadline_secs = Some(secs);
                }
                "--max-events" => {
                    let v = it
                        .next()
                        .ok_or_else(|| Error::usage("--max-events needs a value"))?;
                    max_events =
                        Some(v.replace('_', "").parse::<u64>().map_err(|e| {
                            Error::usage(format!("bad --max-events value '{v}': {e}"))
                        })?);
                }
                "--max-sim-secs" => {
                    let v = it
                        .next()
                        .ok_or_else(|| Error::usage("--max-sim-secs needs a value"))?;
                    max_sim_secs = Some(v.parse::<f64>().map_err(|e| {
                        Error::usage(format!("bad --max-sim-secs value '{v}': {e}"))
                    })?);
                }
                "--backend" => {
                    let v = it
                        .next()
                        .ok_or_else(|| Error::usage("--backend needs 'des' or 'analytic'"))?;
                    backend = Some(v.parse::<mrbench::BackendKind>().map_err(Error::usage)?);
                }
                other => return Err(Error::usage(format!("unknown argument '{other}'"))),
            }
        }
        Ok(Harness {
            artifacts: Artifacts::new(name),
            paths,
            trace,
            quick,
            resume,
            deadline_secs,
            max_events,
            max_sim_secs,
            backend,
            store: None,
            deadline_at: None,
        })
    }

    /// Open the result store and start the deadline clock. Separated
    /// from [`Harness::parse`] so parsing stays pure for tests.
    pub fn arm(mut self) -> Result<Harness, Error> {
        if let Some(dir) = &self.resume {
            self.store = Some(ResultStore::open(dir)?);
        }
        if let Some(secs) = self.deadline_secs {
            let at = Duration::try_from_secs_f64(secs)
                .ok()
                .and_then(|d| wall_now().checked_add(d))
                .ok_or_else(|| Error::usage(format!("--deadline {secs:e} s is too large")))?;
            self.deadline_at = Some(at);
        }
        Ok(self)
    }

    /// Apply the harness's run-wide switches to a config: phase tracing
    /// and the watchdog budgets. Figure binaries pass every config they
    /// run through this (panels run via [`run_grid`] get it
    /// automatically).
    pub fn prep(&self, mut config: BenchConfig) -> BenchConfig {
        config.trace = self.trace.is_some();
        config.max_events = self.max_events;
        config.max_sim_secs = self.max_sim_secs;
        if let Some(backend) = self.backend {
            config.backend = backend;
        }
        config
    }

    /// `true` once the `--deadline` budget has expired.
    pub fn deadline_expired(&self) -> bool {
        self.deadline_at.is_some_and(|d| wall_now() >= d)
    }

    /// The opened result store, when `--resume` is active.
    pub fn store(&self) -> Option<&ResultStore> {
        self.store.as_ref()
    }

    /// Write whatever panels have been recorded so far — called when a
    /// deadline interrupts a sweep, so the artifact on disk is valid
    /// (schema-complete, just fewer panels) rather than absent. Flush
    /// failures are reported but never mask the deadline error.
    pub fn flush_partial(&self) {
        eprintln!("deadline expired: flushing partial artifact before exit");
        if let Err(e) = self
            .artifacts
            .write(self.paths.json.as_deref(), self.paths.csv.as_deref())
        {
            eprintln!("error: {e}");
        }
    }

    /// A single-run shuffle size: `full` normally, 512 MiB under
    /// `--quick`.
    pub fn shuffle(&self, full: ByteSize) -> ByteSize {
        if self.quick {
            ByteSize::from_mib(512)
        } else {
            full
        }
    }

    /// Print the standard notice when `--quick` suppresses the
    /// paper-scale shape checks.
    pub fn note_quick(&self) {
        println!("(--quick: MiB-scale sizes; paper-scale shape checks skipped)");
    }

    /// Record a sweep panel into the artifact.
    pub fn record_sweep(&mut self, title: &str, sweep: &Sweep) {
        self.artifacts.record_sweep(title, sweep.clone());
    }

    /// Record a single-report panel into the artifact.
    pub fn record_report(&mut self, title: &str, report: &BenchReport) {
        self.artifacts.record_report(title, report.clone());
    }

    /// Write the requested artifact files, if any. Call last in `main`.
    pub fn finish(self) -> Result<(), Error> {
        self.artifacts
            .write(self.paths.json.as_deref(), self.paths.csv.as_deref())?;
        if let Some(path) = &self.trace {
            self.artifacts.write_chrome_trace(path)?;
        }
        if let Some(store) = &self.store {
            let (hits, misses, rejected) = store.stats();
            eprintln!(
                "resume: {hits} cell(s) served from {}, {misses} run fresh, \
                 {rejected} rejected fragment(s)",
                store.dir().display()
            );
        }
        Ok(())
    }
}

/// The one sanctioned wall-clock read in the workspace: `--deadline`
/// bounds *real* runtime, which simulated time cannot measure. The
/// simulator crates stay banned from it (simlint + clippy
/// disallowed-methods).
#[allow(clippy::disallowed_methods)]
fn wall_now() -> Instant {
    Instant::now()
}

/// Map a figure binary's result to its process exit code, printing the
/// one-line error first. Keeps every `main` to
/// `ExitCode::from(real_main())`-shaped plumbing.
pub fn exit_code(result: Result<(), Error>) -> ExitCode {
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(e.exit_code())
        }
    }
}

/// Surface a watchdog-truncated run as [`Error::Budget`] (exit 6): use
/// after a single [`mrbench::run`] whose report is about to be trusted.
pub fn ensure_within_budget(report: &BenchReport) -> Result<(), Error> {
    match &report.result.budget {
        Some(diag) => Err(Error::Budget(diag.summary())),
        None => Ok(()),
    }
}

/// The MiB-scale axis `--quick` substitutes for the figure grids.
pub fn quick_sizes() -> Vec<ByteSize> {
    [256u64, 512].map(ByteSize::from_mib).to_vec()
}

/// The shuffle sizes (GiB) the Cluster A figures sweep.
const PAPER_GIB: [u64; 4] = [8, 16, 24, 32];

/// The shuffle sizes the Cluster A figures sweep.
pub fn paper_sizes() -> Vec<ByteSize> {
    PAPER_GIB.map(ByteSize::from_gib).to_vec()
}

/// The three Cluster A interconnects (Figs. 2–7).
pub const CLUSTER_A_NETWORKS: [Interconnect; 3] = [
    Interconnect::GigE1,
    Interconnect::GigE10,
    Interconnect::IpoibQdr,
];

/// Run one panel: a (size × interconnect) grid with a config builder,
/// every config passed through [`Harness::prep`]. Finished cells are
/// checkpointed in the `--resume` store the moment they complete, and
/// an expired `--deadline` stops the sweep at a cell boundary, flushes
/// the panels recorded so far as a valid partial artifact, and surfaces
/// [`Error::Deadline`] (exit 7).
pub fn run_grid(
    harness: &Harness,
    sizes: &[ByteSize],
    networks: &[Interconnect],
    make: impl Fn(ByteSize, Interconnect) -> BenchConfig + Sync,
) -> Result<Sweep, Error> {
    let cancel = || harness.deadline_expired();
    let opts = SweepOptions {
        threads: 0,
        store: harness.store(),
        cancel: harness
            .deadline_secs
            .map(|_| &cancel as &(dyn Fn() -> bool + Sync)),
    };
    match Sweep::run_grid_with(sizes, networks, |s, ic| harness.prep(make(s, ic)), &opts) {
        Ok(sweep) => Ok(sweep),
        Err(e @ Error::Deadline { .. }) => {
            harness.flush_partial();
            Err(e)
        }
        Err(e) => Err(e),
    }
}

/// Print the improvement rows the paper's prose quotes: percentage gain
/// of each faster network over the slowest, per shuffle size.
pub fn print_improvements(sweep: &Sweep) {
    let slowest = sweep.interconnects[0];
    print!("{:>12}", "improvement");
    for ic in &sweep.interconnects[1..] {
        print!("{:>18}", format!("vs {}", ic.label()));
    }
    println!();
    for &size in &sweep.sizes {
        print!("{:>12}", size.to_string());
        for &ic in &sweep.interconnects[1..] {
            let imp = sweep.improvement_pct(size, slowest, ic).unwrap_or(f64::NAN);
            print!("{:>17.1}%", imp);
        }
        println!();
    }
    println!();
}

/// Print the standard header for a figure binary.
pub fn figure_header(fig: &str, caption: &str) {
    println!("=====================================================================");
    println!("{fig} — {caption}");
    println!("=====================================================================");
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_sizes_are_the_figure_axis() {
        let sizes = paper_sizes();
        assert_eq!(sizes.len(), 4);
        assert_eq!(sizes[0], ByteSize::from_gib(8));
        assert_eq!(sizes[3], ByteSize::from_gib(32));
    }

    #[test]
    fn harness_flags_parse() {
        let s = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let h = Harness::parse("fig2", &s(&[])).unwrap();
        assert!(!h.quick);
        assert!(h.paths.is_empty());

        let h = Harness::parse("fig2", &s(&["--quick", "--json"])).unwrap();
        assert!(h.quick);
        assert_eq!(h.paths.json, Some(PathBuf::from("BENCH_fig2.json")));
        assert_eq!(h.paths.csv, None);

        let h = Harness::parse("fig2", &s(&["--json", "out.json", "--csv"])).unwrap();
        assert_eq!(h.paths.json, Some(PathBuf::from("out.json")));
        assert_eq!(h.paths.csv, Some(PathBuf::from("BENCH_fig2.csv")));

        assert!(Harness::parse("fig2", &s(&["--bogus"])).is_err());
    }

    #[test]
    fn trace_flag_parses_and_preps_configs() {
        let s = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let h = Harness::parse("fig2", &s(&[])).unwrap();
        assert!(h.trace.is_none());

        // Bare flag: conventional default path; a following flag (even
        // single-dash) is never swallowed as the path.
        let h = Harness::parse("fig2", &s(&["--trace", "--quick"])).unwrap();
        assert_eq!(h.trace, Some(PathBuf::from("BENCH_fig2_trace.json")));
        assert!(h.quick);

        let h = Harness::parse("fig2", &s(&["--trace", "t.json", "--json"])).unwrap();
        assert_eq!(h.trace, Some(PathBuf::from("t.json")));
        assert_eq!(h.paths.json, Some(PathBuf::from("BENCH_fig2.json")));

        // prep() turns tracing on exactly when --trace was given.
        let config = mrbench::BenchConfig::cluster_a_default(
            mrbench::MicroBenchmark::Avg,
            Interconnect::GigE1,
            ByteSize::from_mib(64),
        );
        assert!(h.prep(config.clone()).trace);
        let h = Harness::parse("fig2", &s(&[])).unwrap();
        assert!(!h.prep(config).trace);
    }

    #[test]
    fn robustness_flags_parse() {
        let s = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        // Bare --resume falls back to the conventional store directory
        // without swallowing a following flag.
        let h = Harness::parse("fig2", &s(&["--resume", "--quick"])).unwrap();
        assert_eq!(h.resume, Some(PathBuf::from("BENCH_fig2.store")));
        assert!(h.quick);

        let h = Harness::parse(
            "fig2",
            &s(&[
                "--resume",
                "d",
                "--deadline",
                "30",
                "--max-events",
                "1_000",
                "--max-sim-secs",
                "2.5",
            ]),
        )
        .unwrap();
        assert_eq!(h.resume, Some(PathBuf::from("d")));
        assert_eq!(h.deadline_secs, Some(30.0));
        assert_eq!(h.max_events, Some(1_000));
        assert_eq!(h.max_sim_secs, Some(2.5));
        // Parsing is pure: nothing armed yet.
        assert!(h.store().is_none());
        assert!(!h.deadline_expired());
        // prep() forwards the watchdog budgets onto every config.
        let config = mrbench::BenchConfig::cluster_a_default(
            mrbench::MicroBenchmark::Avg,
            Interconnect::GigE1,
            ByteSize::from_mib(64),
        );
        let p = h.prep(config);
        assert_eq!(p.max_events, Some(1_000));
        assert_eq!(p.max_sim_secs, Some(2.5));

        for bad in [
            &["--deadline"][..],
            &["--deadline", "soon"],
            &["--deadline", "-1"],
            &["--deadline", "0"],
            &["--deadline", "1e300"],
            &["--max-events", "many"],
            &["--max-sim-secs", "soon"],
        ] {
            let err = Harness::parse("fig2", &s(bad)).unwrap_err();
            assert_eq!(err.exit_code(), 2, "{bad:?}: {err}");
        }
    }

    #[test]
    fn backend_flag_parses_and_preps_configs() {
        let s = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let config = || {
            mrbench::BenchConfig::cluster_a_default(
                mrbench::MicroBenchmark::Avg,
                Interconnect::GigE1,
                ByteSize::from_mib(64),
            )
        };

        // Default: no override, configs keep their own (DES) selection.
        let h = Harness::parse("fig2", &s(&[])).unwrap();
        assert!(h.backend.is_none());
        assert_eq!(h.prep(config()).backend, mrbench::BackendKind::Des);

        let h = Harness::parse("fig2", &s(&["--backend", "analytic", "--quick"])).unwrap();
        assert_eq!(h.backend, Some(mrbench::BackendKind::Analytic));
        assert!(h.quick);
        assert_eq!(h.prep(config()).backend, mrbench::BackendKind::Analytic);

        let h = Harness::parse("fig2", &s(&["--backend", "des"])).unwrap();
        assert_eq!(h.prep(config()).backend, mrbench::BackendKind::Des);

        for bad in [&["--backend"][..], &["--backend", "quantum"]] {
            let err = Harness::parse("fig2", &s(bad)).unwrap_err();
            assert_eq!(err.exit_code(), 2, "{bad:?}: {err}");
        }
    }

    #[test]
    fn armed_deadline_in_the_past_reads_expired() {
        let s = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        // A microscopic deadline expires by the time we poll it; a
        // generous one does not.
        let h = Harness::parse("fig2", &s(&["--deadline", "0.000001"]))
            .unwrap()
            .arm()
            .unwrap();
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert!(h.deadline_expired());
        let h = Harness::parse("fig2", &s(&["--deadline", "3600"]))
            .unwrap()
            .arm()
            .unwrap();
        assert!(!h.deadline_expired());
        // A deadline past the clock's range is a usage error, not a panic.
        let err = Harness::parse("fig2", &s(&["--deadline", "1e19"]))
            .and_then(Harness::arm)
            .unwrap_err();
        assert_eq!(err.exit_code(), 2, "{err}");
    }

    #[test]
    fn quick_sizes_are_mib_scale() {
        for s in quick_sizes() {
            assert!(s <= ByteSize::from_mib(512));
        }
    }

    #[test]
    fn shape_check_tolerances() {
        assert!(figures::within(100.0, 110.0, 0.2));
        assert!(!figures::within(100.0, 200.0, 0.2));
        assert!(figures::within(0.0, 0.05, 0.1));
    }
}
