//! Validate Chrome trace-event files emitted by `--trace`.
//!
//! Accepts one or more trace files — the combined document every binary
//! writes on its exit path (`mrbench_bench::main`), one process per run —
//! and checks the structural invariants CI relies on:
//!
//! * the file parses as a JSON object with a `"traceEvents"` array;
//! * every event carries a `"ph"`, a `"pid"` and a finite `"ts" >= 0`;
//! * every complete (`"X"`) event has a finite `"dur" >= 0` and a task
//!   label in `"args"`;
//! * the run labels are listed under `"runs"`, with exactly one
//!   `process_name` metadata record per run and no event pointing at a
//!   pid outside that list;
//! * the file contains at least one span (a trace with zero spans means
//!   the producer never enabled tracing).
//!
//! Exits non-zero on the first file that fails, printing why: 2 for a
//! bad invocation, 4 when a file cannot be read, 5 when one does not
//! parse or validate (the `mrbench::error` taxonomy).

use std::path::Path;
use std::process::ExitCode;

use mrbench::Error;
use mrbench_bench::exit_code;
use simcore::json::Json;

struct Check {
    runs: usize,
    events: usize,
    spans: usize,
    marks: usize,
    last_ts_us: f64,
}

fn check_file(path: &str) -> Result<Check, Error> {
    let text = mrbench::error::read_to_string(Path::new(path))?;
    let doc = Json::parse(&text).map_err(|e| Error::parse(path, format!("invalid JSON: {e}")))?;
    let events = doc
        .field_arr("traceEvents")
        .map_err(|e| Error::parse(path, e))?;

    let runs = doc.field_arr("runs").map_err(|e| Error::parse(path, e))?;
    for (i, label) in runs.iter().enumerate() {
        if label.as_str().is_none() {
            return Err(Error::parse(path, format!("runs[{i}] is not a string")));
        }
    }
    let runs = runs.len();

    let mut spans = 0usize;
    let mut marks = 0usize;
    let mut process_names = 0usize;
    let mut last_ts_us = 0.0f64;
    for (i, ev) in events.iter().enumerate() {
        let at = |e: String| Error::parse(format!("{path}: traceEvents[{i}]"), e);
        let ph = ev.field_str("ph").map_err(at)?;
        let pid = ev.field_u64("pid").map_err(at)?;
        if pid as usize >= runs {
            return Err(at(format!("pid {pid} out of range (runs = {runs})")));
        }
        match ph {
            "M" => {
                if ev.field_str("name").map_err(at)? == "process_name" {
                    process_names += 1;
                }
            }
            "X" => {
                let ts = ev.field_f64("ts").map_err(at)?;
                let dur = ev.field_f64("dur").map_err(at)?;
                if !ts.is_finite() || ts < 0.0 {
                    return Err(at(format!("bad ts {ts}")));
                }
                if !dur.is_finite() || dur < 0.0 {
                    return Err(at(format!("bad dur {dur}")));
                }
                let args = ev.req("args").map_err(at)?;
                args.field_str("task").map_err(at)?;
                last_ts_us = last_ts_us.max(ts + dur);
                spans += 1;
            }
            "i" => {
                let ts = ev.field_f64("ts").map_err(at)?;
                if !ts.is_finite() || ts < 0.0 {
                    return Err(at(format!("bad ts {ts}")));
                }
                last_ts_us = last_ts_us.max(ts);
                marks += 1;
            }
            other => return Err(at(format!("unknown event phase {other:?}"))),
        }
    }
    if process_names != runs {
        return Err(Error::parse(
            path,
            format!("{process_names} process_name records for {runs} runs"),
        ));
    }
    if spans == 0 {
        return Err(Error::parse(
            path,
            "no spans — was tracing actually enabled?",
        ));
    }
    Ok(Check {
        runs,
        events: events.len(),
        spans,
        marks,
        last_ts_us,
    })
}

const USAGE: &str = "usage: tracecheck TRACE.json [TRACE.json ...]\n";

fn main() -> ExitCode {
    let paths: Vec<String> = std::env::args().skip(1).collect();
    exit_code("tracecheck", USAGE, real_main(&paths))
}

fn real_main(paths: &[String]) -> Result<ExitCode, Error> {
    if paths.iter().any(|p| p == "-h" || p == "--help") {
        return Err(Error::Help(USAGE.to_string()));
    }
    if paths.is_empty() {
        return Err(Error::usage("no trace file given"));
    }
    for path in paths {
        let c = check_file(path)?;
        println!(
            "{path}: ok — {} run(s), {} events ({} spans, {} marks), last activity at {:.3} s",
            c.runs,
            c.events,
            c.spans,
            c.marks,
            c.last_ts_us / 1e6
        );
    }
    Ok(ExitCode::SUCCESS)
}
