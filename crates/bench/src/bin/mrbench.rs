//! `mrbench` — the micro-benchmark suite's command-line front end.
//!
//! Run `mrbench --help` for the options; parsing lives in
//! [`mrbench_bench::cli`], and the run-wide flags and the run itself
//! (a one-cell list, or a grid under `--compare`) in
//! [`mrbench_bench::Harness`], which every sweep binary shares.
//!
//! Exit codes follow the taxonomy in [`mrbench::error`]: 0 success, 1
//! job failed, 2 usage, 3 config, 4 I/O, 5 parse, 6 budget exceeded.

use std::process::ExitCode;

use mrbench::{Error, Interconnect, ShuffleEngineKind, ShuffleVolume};
use mrbench_bench::cli::{self, Cli};
use mrbench_bench::{ensure_within_budget, exit_code, run_grid, Harness};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    exit_code("mrbench", &cli::usage(), real_main(&args))
}

fn real_main(args: &[String]) -> Result<ExitCode, Error> {
    let (harness, cli) = cli::parse(args)?;
    let mut harness = harness.arm()?;
    if cli.compare {
        compare(harness, &cli)?;
        return Ok(ExitCode::SUCCESS);
    }

    let report = harness.run([cli.config])?.swap_remove(0);
    println!("{report}");
    if cli.timeline {
        // The timeline is reconstructed from the phase-span stream (the
        // --timeline flag forces tracing on), so retries, speculative
        // attempts, and phase boundaries all show.
        println!();
        println!("task timeline (per-attempt phase spans):");
        println!(
            "{:>10} {:>6} {:>4} {:>6} {:>12} {:>10} {:>10} {:>10}",
            "task", "index", "att", "node", "phase", "start (s)", "end (s)", "elapsed"
        );
        let trace = report
            .result
            .trace
            .as_ref()
            .expect("--timeline runs traced");
        let mut spans = trace.spans().to_vec();
        spans.sort_by_key(|s| (s.start, s.node, s.lane, s.end));
        for s in spans {
            println!(
                "{:>10} {:>6} {:>4} {:>6} {:>12} {:>10.2} {:>10.2} {:>9.2}s{}",
                s.kind,
                s.index,
                s.attempt,
                s.node,
                s.phase,
                s.start.as_secs_f64(),
                s.end.as_secs_f64(),
                s.end.since(s.start).as_secs_f64(),
                if s.aborted { "  (aborted)" } else { "" },
            );
        }
    }
    harness.record_report(&report.config.benchmark.to_string(), &report);
    harness.finish()?;
    // The report (and any artifacts) are already out; a budget error
    // tells scripts the run was truncated by the watchdog.
    ensure_within_budget(&report)?;
    Ok(if report.result.succeeded() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `--compare`: run every interconnect at the configured shuffle volume
/// and tabulate.
fn compare(mut harness: Harness, cli: &Cli) -> Result<(), Error> {
    let spec = cli.config.job_spec();
    let sweep = run_grid(
        &harness,
        &[spec.total_shuffle_bytes()],
        &Interconnect::ALL,
        |_, ic| {
            let mut c = cli.config.clone();
            c.interconnect = ic;
            c.shuffle_engine = if ic == Interconnect::RdmaFdr {
                ShuffleEngineKind::Rdma
            } else {
                ShuffleEngineKind::Tcp
            };
            c.volume = ShuffleVolume::PairsPerMap(spec.pairs_per_map);
            c
        },
    )?;
    let c = &cli.config;
    let title = format!(
        "{} — {} maps / {} reduces on {} slaves",
        c.benchmark, c.num_maps, c.num_reduces, c.slaves
    );
    print!("{}", sweep.table(&title));
    harness.record_sweep(&title, &sweep);
    harness.finish()
}
