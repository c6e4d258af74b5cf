//! mrperf — end-to-end and per-layer benchmark of the mrbench sweeps.
//!
//! ```text
//! mrperf [--workload NAME] [--seed N] [--seconds S] [--quick] [--trace [0|1]] [--json OUT]
//! mrperf --compare BASE.json... -- NEW.json...
//! ```
//!
//! Without `--workload`, every workload runs in a child process of its
//! own, one after another. The last line of a single workload's output
//! is its result as one JSON object.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use mrbench::{atomic_write, Error};
use mrperf::{compare, Workload};
use simcore::json::Json;

/// The benchmark's own description: metric bounds for `--compare`.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Where runs keep stores, artifacts and Chrome traces.
const RUN_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/run");

const USAGE: &str = "usage: mrperf [--workload NAME] [--seed N] [--seconds S] [--quick] \
[--trace [0|1]] [--json OUT]\n       mrperf --compare BASE.json... -- NEW.json...\n\
workloads: figure_sweep, rack_shuffle, resume_sweep";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<f64>,
    quick: bool,
    trace: bool,
    json: Option<PathBuf>,
    compare: Option<(Vec<PathBuf>, Vec<PathBuf>)>,
}

fn parse(args: &[String]) -> Result<Args, Error> {
    let mut a = Args {
        workload: None,
        seed: 2014,
        seconds: None,
        quick: false,
        trace: false,
        json: None,
        compare: None,
    };
    let mut it = args.iter().peekable();
    let value = |it: &mut std::iter::Peekable<std::slice::Iter<'_, String>>, flag: &str| {
        it.next()
            .cloned()
            .ok_or_else(|| Error::usage(format!("{flag} needs a value")))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" => {
                let v = value(&mut it, arg)?;
                a.workload = Some(
                    Workload::parse(&v)
                        .ok_or_else(|| Error::usage(format!("unknown workload '{v}'")))?,
                );
            }
            "--seed" => {
                let v = value(&mut it, arg)?;
                a.seed = v
                    .parse()
                    .map_err(|e| Error::usage(format!("bad --seed '{v}': {e}")))?;
            }
            "--seconds" => {
                let v = value(&mut it, arg)?;
                let s: f64 = v
                    .parse()
                    .map_err(|e| Error::usage(format!("bad --seconds '{v}': {e}")))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(Error::usage(format!("--seconds must be >= 0, got '{v}'")));
                }
                a.seconds = Some(s);
            }
            "--quick" => a.quick = true,
            "--trace" => {
                a.trace = match it.peek().map(|v| v.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--json" => a.json = Some(PathBuf::from(value(&mut it, arg)?)),
            "--compare" => {
                let rest: Vec<PathBuf> = it.by_ref().map(PathBuf::from).collect();
                let split = rest
                    .iter()
                    .position(|p| p == Path::new("--"))
                    .ok_or_else(|| Error::usage("--compare needs BASE... -- NEW..."))?;
                let (base, new) = (rest[..split].to_vec(), rest[split + 1..].to_vec());
                if base.is_empty() || new.is_empty() {
                    return Err(Error::usage("--compare needs at least one file per side"));
                }
                a.compare = Some((base, new));
            }
            "--help" | "-h" => return Err(Error::usage("help")),
            other => return Err(Error::usage(format!("unknown argument '{other}'"))),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = parse(&args).and_then(|a| match &a.compare {
        Some((base, new)) => run_compare(base, new),
        None => match a.workload {
            Some(w) => run_one(&a, w),
            None => run_all(&a, &args),
        },
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("mrperf: {e}");
            if matches!(e, Error::Usage(_)) {
                eprintln!("{USAGE}");
            }
            ExitCode::from(e.exit_code())
        }
    }
}

/// One closed-loop client. On a 2-vCPU host a second worker shares the
/// core's caches with the first: per-cell latency rose ~20 % and the
/// run-to-run spread of every metric widened ~5x, wider than the bounds.
const THREADS: usize = 1;

/// Run one workload in this process; print its metrics and result line.
fn run_one(a: &Args, workload: Workload) -> Result<bool, Error> {
    let opts = mrperf::RunOptions {
        workload,
        seed: a.seed,
        quick: a.quick,
        seconds: a.seconds.unwrap_or(if a.quick { 0.0 } else { 10.0 }),
        trace: a.trace,
        threads: THREADS,
        dir: PathBuf::from(RUN_DIR),
    };
    let outcome = mrperf::run(&opts)?;
    print!("{}", mrperf::describe(&outcome));
    if let Some(path) = &a.json {
        let doc = mrperf::document(
            a.seed,
            a.quick,
            opts.threads,
            vec![(workload.name().into(), mrperf::outcome_json(&outcome))],
        );
        atomic_write(path, &doc.to_pretty())?;
    }
    println!("{}", mrperf::result_line(&outcome));
    Ok(outcome.correct())
}

/// Run every workload in a child process of its own, one after another,
/// and print the metrics side by side.
fn run_all(a: &Args, args: &[String]) -> Result<bool, Error> {
    std::fs::create_dir_all(RUN_DIR).map_err(|e| Error::io("create", Path::new(RUN_DIR), e))?;
    let exe = std::env::current_exe().map_err(|e| Error::io("locate", Path::new("mrperf"), e))?;
    let forwarded: Vec<&String> = {
        // Everything but --json, which the parent owns.
        let mut out = Vec::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if arg == "--json" {
                it.next();
            } else {
                out.push(arg);
            }
        }
        out
    };
    let mut entries = Vec::new();
    let mut all_correct = true;
    for w in Workload::ALL {
        let part = Path::new(RUN_DIR).join(format!("{}-{}.json", w.name(), std::process::id()));
        let out = Command::new(&exe)
            .args(&forwarded)
            .args(["--workload", w.name(), "--json"])
            .arg(&part)
            .output()
            .map_err(|e| Error::io("spawn", &exe, e))?;
        print!("{}", String::from_utf8_lossy(&out.stdout));
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
        all_correct &= out.status.success();
        let text = mrbench::error::read_to_string(&part);
        let _ = std::fs::remove_file(&part);
        let doc = Json::parse(&text?).map_err(|e| Error::parse(part.display().to_string(), e))?;
        if let Ok(Json::Obj(measured)) = doc.req("workloads") {
            entries.extend(measured.iter().cloned());
        }
    }
    print!("{}", table(&entries));
    if let Some(path) = &a.json {
        let doc = mrperf::document(a.seed, a.quick, THREADS, entries);
        atomic_write(path, &doc.to_pretty())?;
        println!("wrote {}", path.display());
    }
    Ok(all_correct)
}

/// Every end-to-end metric of every workload, one row per metric.
fn table(entries: &[(String, Json)]) -> String {
    use std::fmt::Write;
    let mut s = format!("\n{:<16}", "metric");
    for (name, _) in entries {
        let _ = write!(s, "{name:>18}");
    }
    s.push_str("  unit\n");
    let bounds = compare::bounds(BENCHMARK_JSON).unwrap_or_default();
    for metric in bounds.iter().map(|b| b.name.as_str()) {
        let _ = write!(s, "{metric:<16}");
        let mut unit = "";
        for (_, e) in entries {
            let m = e.get("metrics").and_then(|m| m.get(metric));
            let v = m.and_then(|m| m.get("value")).and_then(Json::as_f64);
            unit = m
                .and_then(|m| m.get("unit"))
                .and_then(Json::as_str)
                .unwrap_or(unit);
            let _ = write!(s, "{:>18.4}", v.unwrap_or(f64::NAN));
        }
        let _ = writeln!(s, "  {unit}");
    }
    let _ = write!(s, "{:<16}", "failed_ratio");
    for (_, e) in entries {
        let _ = write!(
            s,
            "{:>18.4}",
            e.get("failed_ratio")
                .and_then(Json::as_f64)
                .unwrap_or(f64::NAN)
        );
    }
    s.push_str("  ratio\n");
    s
}

fn run_compare(base: &[PathBuf], new: &[PathBuf]) -> Result<bool, Error> {
    let load = |paths: &[PathBuf]| -> Result<Vec<Json>, Error> {
        paths
            .iter()
            .map(|p| {
                let text = mrbench::error::read_to_string(p)?;
                Json::parse(&text).map_err(|e| Error::parse(p.display().to_string(), e))
            })
            .collect()
    };
    let bounds = compare::bounds(BENCHMARK_JSON).map_err(|e| Error::parse("BENCHMARK.json", e))?;
    let rows = compare::compare(&load(base)?, &load(new)?, &bounds)
        .map_err(|e| Error::parse("results", e))?;
    print!("{}", compare::render(&rows));
    Ok(rows
        .iter()
        .all(|r| matches!(r.verdict, Some(v) if v != compare::Verdict::Regressed)))
}
