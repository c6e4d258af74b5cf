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
//! Every binary here but `multijob` and `tracecheck` runs on one
//! [`Harness`]. It parses the run-wide flags (`--json`, `--csv`,
//! `--trace`, `--resume`, `--max-events`, `--max-sim-secs`, `--backend`
//! and `-h/--help`; see [`run_wide_usage`] and EXPERIMENTS.md). The
//! figure binaries (fig2–fig8, `summary`, `faults`, `ablation`) add
//! `--quick` and `--deadline`; `mrbench` adds its config flags ([`cli`]).
//!
//! Every simulated job a binary runs is a cell of [`Harness::run`]: a
//! single `mrbench` run is a one-cell list, a figure panel or
//! `mrbench --compare` a grid ([`run_grid`]), `faults` one list per
//! panel, and `ablation` the anchor cell under each
//! [`mrbench::Ablation`], a config field that the digest, the store and
//! the backend check all see. So every binary honours `--resume` (cells
//! served from the store), `--deadline` (exit 7 after flushing a valid
//! partial artifact) and `--backend` alike, and reports errors through
//! [`exit_code`].
//!
//! Exit codes follow `mrbench::error`: 0 success, 1 job failed,
//! 2 usage, 3 config, 4 I/O, 5 parse, 6 budget exceeded, 7 deadline.

pub mod cli;
pub mod figures;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use simcore::units::ByteSize;
use simnet::Interconnect;

use mrbench::{
    run_cells, Artifacts, BackendKind, BenchConfig, BenchReport, Error, ResultStore, Sweep,
    SweepOptions,
};

use crate::cli::{parse_f64, parse_num};

/// The arguments still to parse; a flag handler takes its value from
/// here.
pub type Args<'a> = std::iter::Peekable<std::slice::Iter<'a, String>>;

/// The value that follows `flag`.
pub fn value<'a>(it: &mut Args<'a>, flag: &str) -> Result<&'a str, Error> {
    it.next()
        .map(String::as_str)
        .ok_or_else(|| Error::usage(format!("{flag} needs a value")))
}

/// An optional path value: the next argument, unless it is the next
/// flag (any `-`-prefixed token, single-dash ones included).
fn path_or(it: &mut Args<'_>, default: String) -> PathBuf {
    PathBuf::from(it.next_if(|v| !v.starts_with('-')).unwrap_or(&default))
}

/// The command-line harness every sweep binary shares: the run-wide
/// flags, quick-mode size substitution, the result store, the deadline
/// and artifact collection.
#[derive(Debug)]
pub struct Harness {
    artifacts: Artifacts,
    /// JSON artifact destination from `--json [PATH]`.
    json: Option<PathBuf>,
    /// CSV artifact destination from `--csv [PATH]`.
    csv: Option<PathBuf>,
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
    pub backend: Option<BackendKind>,
    /// The opened store ([`Harness::arm`]); `parse` leaves it closed so
    /// flag parsing stays side-effect free.
    store: Option<ResultStore>,
    /// The armed deadline instant ([`Harness::arm`]).
    deadline_at: Option<Instant>,
}

/// The run-wide options of [`Harness::parse`], as usage text.
pub fn run_wide_usage(name: &str) -> String {
    format!(
        "    --json [PATH]                  also write the runs as a JSON artifact
                                   [default path: BENCH_{name}.json]
    --csv [PATH]                   also write a CSV table, one row per run
                                   [default path: BENCH_{name}.csv]
    --trace [PATH]                 record per-task phase spans and write a
                                   Chrome trace-event file (chrome://tracing,
                                   Perfetto), one process per run
                                   [default path: BENCH_{name}_trace.json]
    --resume [DIR]                 cache finished sweep cells in a result
                                   store and skip them on restart
                                   [default dir: BENCH_{name}.store]
    --max-events <N>               abort a run after N simulation events
                                   (watchdog; exit code 6 on breach)
    --max-sim-secs <S>             abort a run past S simulated seconds
                                   (watchdog; exit code 6 on breach)
    --backend <des|analytic>       evaluation backend: discrete-event
                                   simulation or the closed-form analytic
                                   cost model               [default: des]
    -h, --help                     show this help
"
    )
}

/// Usage text of a figure binary.
fn figure_usage(name: &str) -> String {
    format!(
        "\
usage: {name} [OPTIONS]

OPTIONS:
    --quick                        MiB-scale shuffle sizes; paper-scale shape
                                   checks skipped
    --deadline <SECS>              wall-clock budget; on expiry flush a
                                   partial artifact and exit 7
{}",
        run_wide_usage(name)
    )
}

/// The figure binaries' own flags: `--quick` and `--deadline`.
fn figure_flag(h: &mut Harness, flag: &str, it: &mut Args<'_>) -> Result<bool, Error> {
    match flag {
        "--quick" => h.quick = true,
        "--deadline" => {
            let v = value(it, flag)?;
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
            h.deadline_secs = Some(secs);
        }
        _ => return Ok(false),
    }
    Ok(true)
}

/// A figure binary's `main`: parse the process arguments, arm the
/// harness, run, and map the outcome to the exit code.
pub fn figure_main(name: &str, run: impl FnOnce(Harness) -> Result<(), Error>) -> ExitCode {
    let usage = figure_usage(name);
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = Harness::parse(name, &usage, &args, figure_flag)
        .and_then(Harness::arm)
        .and_then(run);
    exit_code(name, &usage, result.map(|()| ExitCode::SUCCESS))
}

impl Harness {
    /// Parse `args` (without the program name). The run-wide flags and
    /// `-h/--help` (as [`Error::Help`] with `usage`) are read here; any
    /// other flag goes to `own`, which takes its value from the
    /// iterator and returns `Ok(false)` for a flag it does not know.
    /// Pure: the result store is not opened and the deadline clock not
    /// started until [`Harness::arm`].
    pub fn parse(
        name: &str,
        usage: &str,
        args: &[String],
        mut own: impl FnMut(&mut Harness, &str, &mut Args<'_>) -> Result<bool, Error>,
    ) -> Result<Harness, Error> {
        let mut h = Harness {
            artifacts: Artifacts::new(name),
            json: None,
            csv: None,
            trace: None,
            quick: false,
            resume: None,
            deadline_secs: None,
            max_events: None,
            max_sim_secs: None,
            backend: None,
            store: None,
            deadline_at: None,
        };
        let mut it = args.iter().peekable();
        while let Some(arg) = it.next() {
            let flag = arg.as_str();
            match flag {
                "--json" => h.json = Some(path_or(&mut it, format!("BENCH_{name}.json"))),
                "--csv" => h.csv = Some(path_or(&mut it, format!("BENCH_{name}.csv"))),
                "--trace" => h.trace = Some(path_or(&mut it, format!("BENCH_{name}_trace.json"))),
                "--resume" => h.resume = Some(path_or(&mut it, format!("BENCH_{name}.store"))),
                "--max-events" => h.max_events = Some(parse_num(value(&mut it, flag)?)?),
                "--max-sim-secs" => h.max_sim_secs = Some(parse_f64(flag, value(&mut it, flag)?)?),
                "--backend" => h.backend = Some(value(&mut it, flag)?.parse()?),
                "-h" | "--help" => return Err(Error::Help(usage.to_string())),
                _ => {
                    if !own(&mut h, flag, &mut it)? {
                        return Err(Error::usage(format!("unknown argument '{flag}'")));
                    }
                }
            }
        }
        Ok(h)
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
    /// (on for `--trace`; a config may already ask for it), the watchdog
    /// budgets and the backend. [`Harness::run`] passes every config
    /// through this.
    pub fn prep(&self, mut config: BenchConfig) -> BenchConfig {
        config.trace |= self.trace.is_some();
        config.max_events = self.max_events;
        config.max_sim_secs = self.max_sim_secs;
        if let Some(backend) = self.backend {
            config.backend = backend;
        }
        config
    }

    /// Run every simulated job of a binary as cells of
    /// [`mrbench::run_cells`]: one report per config, in order, each
    /// config passed through [`Harness::prep`]. Finished cells are
    /// checkpointed in the `--resume` store the moment they complete. An
    /// expired `--deadline` stops the run at a cell boundary, writes the
    /// panels recorded so far as a valid partial artifact (a failed write
    /// is reported but never masks the deadline) and surfaces
    /// [`Error::Deadline`] (exit 7).
    pub fn run(
        &self,
        configs: impl IntoIterator<Item = BenchConfig>,
    ) -> Result<Vec<BenchReport>, Error> {
        let configs: Vec<BenchConfig> = configs.into_iter().map(|c| self.prep(c)).collect();
        let cancel = || self.deadline_expired();
        let opts = SweepOptions {
            store: self.store.as_ref(),
            cancel: Some(&cancel),
            ..SweepOptions::default()
        };
        let reports = run_cells(&configs, &opts);
        if let Err(Error::Deadline { .. }) = reports {
            eprintln!("deadline expired: flushing partial artifact before exit");
            let (json, csv) = (self.json.as_deref(), self.csv.as_deref());
            if let Err(e) = self.artifacts.write(json, csv) {
                eprintln!("error: {e}");
            }
        }
        reports
    }

    /// `true` once the `--deadline` budget has expired.
    pub fn deadline_expired(&self) -> bool {
        self.deadline_at.is_some_and(|d| wall_now() >= d)
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

    /// Write the requested artifact and trace files, if any, and report
    /// the result store's hits. Call last in `main`.
    pub fn finish(self) -> Result<(), Error> {
        self.artifacts
            .write(self.json.as_deref(), self.csv.as_deref())?;
        if let Some(path) = &self.trace {
            self.artifacts.write_chrome_trace(path)?;
        }
        if let Some(store) = &self.store {
            let (hits, misses, rejected) = store.stats();
            let bypassed = match store.bypassed() {
                0 => String::new(),
                n => format!(", {n} traced cell(s) run without the store (it keeps no traces)"),
            };
            eprintln!(
                "resume: {hits} cell(s) served from {}, {misses} run fresh, \
                 {rejected} rejected fragment(s){bypassed}",
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

/// Map a binary's outcome to its process exit code. `--help` prints
/// its usage to stdout and exits 0; any other error prints one line,
/// `<name>: <error>`, to stderr (followed by `usage` after a usage
/// error) and exits with the error's documented code.
pub fn exit_code(name: &str, usage: &str, result: Result<ExitCode, Error>) -> ExitCode {
    match result {
        Ok(code) => code,
        Err(Error::Help(text)) => {
            print!("{text}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{name}: {e}");
            if matches!(e, Error::Usage(_)) {
                eprintln!();
                eprint!("{usage}");
            }
            ExitCode::from(e.exit_code())
        }
    }
}

/// Surface a watchdog-truncated run as [`Error::Budget`] (exit 6): use
/// on a report that is about to be trusted.
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
/// as cells of [`Harness::run`].
pub fn run_grid(
    harness: &Harness,
    sizes: &[ByteSize],
    networks: &[Interconnect],
    make: impl Fn(ByteSize, Interconnect) -> BenchConfig,
) -> Result<Sweep, Error> {
    Sweep::run_grid_on(sizes, networks, make, |configs| harness.run(configs))
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

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    /// A figure binary's harness.
    fn figure(v: &[&str]) -> Result<Harness, Error> {
        Harness::parse("fig2", "usage", &args(v), figure_flag)
    }

    /// `mrbench`'s harness and config flags.
    fn mrbench(v: &[&str]) -> Result<(Harness, cli::Cli), Error> {
        cli::parse(&args(v))
    }

    fn config() -> BenchConfig {
        BenchConfig::cluster_a_default(
            mrbench::MicroBenchmark::Avg,
            Interconnect::GigE1,
            ByteSize::from_mib(64),
        )
    }

    #[test]
    fn output_flags_take_an_optional_path() {
        let path = |p: &str| Some(PathBuf::from(p));
        // No flags: no outputs.
        let h = figure(&[]).unwrap();
        assert!(!h.quick);
        assert_eq!((&h.json, &h.csv), (&None, &None));
        assert!(h.trace.is_none());
        // Bare flags fall back to the binary's conventional paths.
        let h = figure(&["--json", "--csv", "--trace"]).unwrap();
        assert_eq!(h.json, path("BENCH_fig2.json"));
        assert_eq!(h.csv, path("BENCH_fig2.csv"));
        assert_eq!(h.trace, path("BENCH_fig2_trace.json"));
        let (h, _) = mrbench(&["--json", "--csv", "--trace"]).unwrap();
        assert_eq!(h.json, path("BENCH_mrbench.json"));
        assert_eq!(h.csv, path("BENCH_mrbench.csv"));
        assert_eq!(h.trace, path("BENCH_mrbench_trace.json"));
        // Explicit paths are taken, and parsing continues after them.
        let h = figure(&["--json", "out.json", "--csv", "--quick"]).unwrap();
        assert_eq!(h.json, path("out.json"));
        assert_eq!(h.csv, path("BENCH_fig2.csv"));
        assert!(h.quick);
        let (h, cli) = mrbench(&["--trace", "out/t.json", "--maps", "8"]).unwrap();
        assert_eq!(h.trace, path("out/t.json"));
        assert_eq!((&h.json, &h.csv), (&None, &None));
        assert_eq!(cli.config.num_maps, 8);
        // A following flag, a binary's own included, is not swallowed as
        // a path; as the final token, a flag takes its default.
        let (h, cli) = mrbench(&["--json", "--timeline", "--maps", "8", "--csv"]).unwrap();
        assert_eq!(h.json, path("BENCH_mrbench.json"));
        assert_eq!(h.csv, path("BENCH_mrbench.csv"));
        assert!(cli.timeline);
        assert_eq!(cli.config.num_maps, 8);
        let h = figure(&["--trace", "--quick"]).unwrap();
        assert_eq!(h.trace, path("BENCH_fig2_trace.json"));
        assert!(h.quick);
        // Regression: a single-dash flag such as `-h` was once swallowed
        // as an output path.
        for v in [
            &["--json", "-h"][..],
            &["--trace", "-h"],
            &["--resume", "-h"],
        ] {
            assert!(matches!(figure(v), Err(Error::Help(_))), "{v:?}");
            assert!(matches!(mrbench(v), Err(Error::Help(_))), "{v:?}");
        }
        assert!(figure(&["--bogus"]).is_err());
    }

    #[test]
    fn trace_flag_and_timeline_turn_tracing_on() {
        let (h, cli) = mrbench(&[]).unwrap();
        assert!(!h.prep(cli.config).trace);
        assert!(!figure(&[]).unwrap().prep(config()).trace);
        // prep() turns tracing on exactly when --trace was given...
        let (h, cli) = mrbench(&["--trace"]).unwrap();
        assert!(!cli.config.trace);
        assert!(h.prep(cli.config).trace);
        assert!(figure(&["--trace"]).unwrap().prep(config()).trace);
        // ...or when the config asks for it: mrbench's timeline is
        // rebuilt from the span stream, so it traces without --trace.
        let (h, cli) = mrbench(&["--timeline"]).unwrap();
        assert!(h.trace.is_none());
        assert!(h.prep(cli.config).trace);
    }

    #[test]
    fn budget_and_resume_flags() {
        let h = figure(&[]).unwrap();
        assert_eq!((h.max_events, h.max_sim_secs), (None, None));
        assert!(h.resume.is_none());
        // Bare --resume falls back to the binary's conventional store
        // directory without swallowing a following flag.
        let h = figure(&["--resume", "--quick"]).unwrap();
        assert_eq!(h.resume, Some(PathBuf::from("BENCH_fig2.store")));
        assert!(h.quick);
        let (h, cli) = mrbench(&["--resume", "--compare"]).unwrap();
        assert_eq!(h.resume, Some(PathBuf::from("BENCH_mrbench.store")));
        assert!(cli.compare);

        let h = figure(&[
            "--resume",
            "d",
            "--deadline",
            "30",
            "--max-events",
            "1_000",
            "--max-sim-secs",
            "2.5",
        ])
        .unwrap();
        assert_eq!(h.resume, Some(PathBuf::from("d")));
        assert_eq!(h.deadline_secs, Some(30.0));
        assert_eq!(h.max_events, Some(1_000));
        assert_eq!(h.max_sim_secs, Some(2.5));
        // Parsing is pure: nothing armed yet.
        assert!(h.store.is_none());
        assert!(!h.deadline_expired());
        // prep() forwards the watchdog budgets onto every config.
        let p = h.prep(config());
        assert_eq!(p.max_events, Some(1_000));
        assert_eq!(p.max_sim_secs, Some(2.5));
        p.validate().unwrap();
        let (h, cli) = mrbench(&["--resume", "out/store", "--max-events", "50_000"]).unwrap();
        assert_eq!(h.resume, Some(PathBuf::from("out/store")));
        assert_eq!(h.prep(cli.config).max_events, Some(50_000));

        for bad in [
            &["--deadline"][..],
            &["--deadline", "soon"],
            &["--deadline", "-1"],
            &["--deadline", "0"],
            &["--deadline", "1e300"],
            &["--max-events", "many"],
            &["--max-events"],
            &["--max-sim-secs", "soon"],
        ] {
            let err = figure(bad).unwrap_err();
            assert_eq!(err.exit_code(), 2, "{bad:?}: {err}");
        }
    }

    #[test]
    fn backend_flag() {
        // Default: no override, configs keep their own (DES) selection.
        let h = figure(&[]).unwrap();
        assert!(h.backend.is_none());
        assert_eq!(h.prep(config()).backend, BackendKind::Des);

        let h = figure(&["--backend", "analytic", "--quick"]).unwrap();
        assert_eq!(h.backend, Some(BackendKind::Analytic));
        assert!(h.quick);
        assert_eq!(h.prep(config()).backend, BackendKind::Analytic);
        let (h, cli) = mrbench(&["--backend", "analytic"]).unwrap();
        assert_eq!(h.prep(cli.config).backend, BackendKind::Analytic);

        let h = figure(&["--backend", "des"]).unwrap();
        assert_eq!(h.prep(config()).backend, BackendKind::Des);

        for bad in [&["--backend"][..], &["--backend", "quantum"]] {
            let err = figure(bad).unwrap_err();
            assert_eq!(err.exit_code(), 2, "{bad:?}: {err}");
        }
    }

    #[test]
    fn armed_deadline_in_the_past_reads_expired() {
        // A microscopic deadline expires by the time we poll it; a
        // generous one does not.
        let h = figure(&["--deadline", "0.000001"]).unwrap().arm().unwrap();
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert!(h.deadline_expired());
        let h = figure(&["--deadline", "3600"]).unwrap().arm().unwrap();
        assert!(!h.deadline_expired());
        // A deadline past the clock's range is a usage error, not a panic.
        let err = figure(&["--deadline", "1e19"])
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
