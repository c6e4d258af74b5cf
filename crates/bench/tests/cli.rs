//! Every binary parses its flags through one path: each flag it accepts
//! is listed in its usage, `-h/--help` prints that usage and exits 0, and
//! a flag of another binary is a usage error (exit 2).

use std::process::{Command, Output};

/// The run-wide flags of every binary on the `Harness`, with a value
/// where one is taken.
const RUN_WIDE: &[&[&str]] = &[
    &["--json", "x.json"],
    &["--csv", "x.csv"],
    &["--trace", "x_trace.json"],
    &["--resume", "x.store"],
    &["--max-events", "5"],
    &["--max-sim-secs", "1.5"],
    &["--backend", "analytic"],
];

/// The figure binaries' own flags.
const FIGURE: &[&[&str]] = &[&["--quick"], &["--deadline", "5"]];

const FIGURE_BINS: &[&str] = &[
    "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "summary", "faults", "ablation",
];

/// `mrbench`'s config flags.
const MRBENCH: &[&[&str]] = &[
    &["--bench", "skew"],
    &["--network", "rdma"],
    &["--compare"],
    &["--shuffle-gb", "1"],
    &["--shuffle-mb", "64"],
    &["--pairs", "10"],
    &["--key-size", "100"],
    &["--value-size", "100"],
    &["--data-type", "text"],
    &["--maps", "4"],
    &["--reduces", "2"],
    &["--slaves", "2"],
    &["--racks", "1"],
    &["--oversubscription", "1.0"],
    &["--fabric-cap", "2000"],
    &["--monitor-interval", "0.5"],
    &["--cluster", "b"],
    &["--engine", "yarn"],
    &["--rdma-shuffle"],
    &["--zipf-exponent", "1.2"],
    &["--seed", "7"],
    &["--timeline"],
    &["--fail-prob", "0.1"],
    &["--fetch-fail-prob", "0.1"],
    &["--crash", "1@30"],
    &["--slowdown", "0:2.5"],
    &["--max-attempts", "3"],
    &["--speculative"],
];

const MULTIJOB: &[&[&str]] = &[
    &["--quick"],
    &["--out", "x.json"],
    &["--slaves", "4"],
    &["--racks", "2"],
    &["--oversubscription", "2.0"],
    &["--jobs", "3"],
    &["--tenants", "2"],
    &["--maps", "4"],
    &["--reduces", "2"],
    &["--shuffle-mb", "16"],
    &["--mean-gap", "1.0"],
    &["--seed", "7"],
];

fn bin(name: &str) -> Command {
    let path = match name {
        "fig2" => env!("CARGO_BIN_EXE_fig2"),
        "fig3" => env!("CARGO_BIN_EXE_fig3"),
        "fig4" => env!("CARGO_BIN_EXE_fig4"),
        "fig5" => env!("CARGO_BIN_EXE_fig5"),
        "fig6" => env!("CARGO_BIN_EXE_fig6"),
        "fig7" => env!("CARGO_BIN_EXE_fig7"),
        "fig8" => env!("CARGO_BIN_EXE_fig8"),
        "summary" => env!("CARGO_BIN_EXE_summary"),
        "faults" => env!("CARGO_BIN_EXE_faults"),
        "ablation" => env!("CARGO_BIN_EXE_ablation"),
        "mrbench" => env!("CARGO_BIN_EXE_mrbench"),
        "multijob" => env!("CARGO_BIN_EXE_multijob"),
        "tracecheck" => env!("CARGO_BIN_EXE_tracecheck"),
        other => panic!("no binary {other}"),
    };
    let mut cmd = Command::new(path);
    // Nothing here should write a file; if one does, it lands in the
    // test's scratch directory.
    cmd.current_dir(env!("CARGO_TARGET_TMPDIR"));
    cmd
}

fn run(name: &str, args: &[&str]) -> Output {
    bin(name).args(args).output().expect("binary runs")
}

/// Every flag in `flags` is named in `name`'s usage, and `name` accepts
/// all of them: parsing reaches the trailing `--help`, which exits 0.
fn accepts(name: &str, flags: &[&[&str]]) {
    let help = run(name, &["--help"]);
    assert_eq!(help.status.code(), Some(0), "{name} --help");
    let usage = String::from_utf8_lossy(&help.stdout);
    let mut args: Vec<&str> = Vec::new();
    for flag in flags {
        assert!(usage.contains(flag[0]), "{name}: usage lacks {}", flag[0]);
        args.extend_from_slice(flag);
    }
    args.push("--help");
    let out = run(name, &args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{name} {args:?}: {stderr}");
    assert_eq!(String::from_utf8_lossy(&out.stdout), usage, "{name}");
}

#[test]
fn every_flag_a_binary_accepts_is_in_its_usage() {
    for name in FIGURE_BINS {
        accepts(name, &[RUN_WIDE, FIGURE].concat());
        assert!(run(name, &["-h"]).status.success(), "{name} -h");
    }
    accepts("mrbench", &[RUN_WIDE, MRBENCH].concat());
    accepts("multijob", MULTIJOB);
    accepts("tracecheck", &[]);
}

#[test]
fn another_binarys_flag_is_a_usage_error() {
    for args in [&["--quick"][..], &["--deadline", "5"], &["--out", "x.json"]] {
        let out = run("mrbench", args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "mrbench {args:?}: {stderr}");
        // One line names the binary and the flag; the usage follows.
        assert!(stderr.starts_with(&format!("mrbench: unknown argument '{}'", args[0])));
        assert!(stderr.contains("USAGE:"), "{stderr}");
    }
    for (name, args) in [
        ("fig2", &["--compare"][..]),
        ("fig2", &["--maps", "4"]),
        ("multijob", &["--json"]),
        ("multijob", &["--deadline", "5"]),
    ] {
        let out = run(name, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{name} {args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{stderr}");
    }
}

#[test]
fn compare_with_timeline_is_a_usage_error() {
    let out = run("mrbench", &["--compare", "--timeline"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.starts_with("mrbench: --timeline prints the timeline of a single run"),
        "{stderr}"
    );
}

/// A traced sweep runs every cell past the store, which keeps no traces;
/// the `resume:` line counts those cells instead of reading as if none ran.
#[test]
fn resume_line_counts_traced_cells_that_bypass_the_store() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("traced-resume");
    let _ = std::fs::remove_dir_all(&dir);
    let (store, trace) = (dir.join("store"), dir.join("trace.json"));
    let sweep = [
        "--compare",
        "--shuffle-mb",
        "16",
        "--maps",
        "4",
        "--reduces",
        "2",
    ];
    let out = bin("mrbench")
        .args(sweep)
        .args(["--slaves", "2", "--trace"])
        .arg(&trace)
        .arg("--resume")
        .arg(&store)
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(
        stderr.contains("0 cell(s) served from")
            && stderr.contains("0 run fresh")
            && stderr.contains(", 5 traced cell(s) run without the store"),
        "{stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A scratch directory of its own under the tests' target directory.
fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Every binary runs its jobs as store cells: a rerun with the same
/// `--resume` store serves every cell and reproduces stdout and the
/// artifact byte for byte.
#[test]
fn resume_serves_every_cell_of_every_binary() {
    let runs: &[(&str, &[&str])] = &[
        ("fig2", &["--quick"]),
        ("faults", &["--quick"]),
        ("ablation", &["--quick"]),
        ("mrbench", &["--shuffle-mb", "16"]),
        ("mrbench", &["--compare", "--shuffle-mb", "16"]),
    ];
    for (i, &(name, args)) in runs.iter().enumerate() {
        let dir = scratch(&format!("resume-{name}-{i}"));
        let (store, json) = (dir.join("store"), dir.join("run.json"));
        let once = || {
            let out = bin(name)
                .args(args)
                .arg("--resume")
                .arg(&store)
                .arg("--json")
                .arg(&json)
                .output()
                .expect("binary runs");
            let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
            assert_eq!(out.status.code(), Some(0), "{name} {args:?}: {stderr}");
            (out.stdout, stderr, std::fs::read(&json).unwrap())
        };
        let (stdout, _, artifact) = once();
        let (again, stderr, replayed) = once();
        let served = stderr
            .split("resume: ")
            .nth(1)
            .and_then(|line| line.split(' ').next())
            .and_then(|n| n.parse::<u64>().ok());
        assert!(
            served.is_some_and(|n| n > 0) && stderr.contains(" 0 run fresh"),
            "{name} {args:?}: {stderr}"
        );
        assert!(stdout == again, "{name} {args:?}: stdout differs on replay");
        assert!(
            artifact == replayed,
            "{name} {args:?}: artifact differs on replay"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Every figure binary stops at an expired `--deadline` with exit 7 and
/// leaves a partial artifact that parses.
#[test]
fn deadline_stops_every_figure_binary_with_a_valid_artifact() {
    let dir = scratch("deadline");
    for name in FIGURE_BINS {
        let json = dir.join(format!("{name}.json"));
        let out = bin(name)
            .args(["--quick", "--deadline", "0.000001", "--json"])
            .arg(&json)
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(7), "{name}: {stderr}");
        mrbench::Artifacts::load(&json).unwrap_or_else(|e| panic!("{name}: {e}"));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A watchdog breach ends every binary with exit 6, after the exit path
/// has written the artifact of the truncated runs.
#[test]
fn budget_breach_exits_6_with_a_valid_artifact() {
    let dir = scratch("budget");
    let quick: &[&str] = &["--quick"];
    let compare: &[&str] = &["--compare", "--shuffle-mb", "16"];
    let runs = FIGURE_BINS.iter().map(|&name| (name, quick));
    for (name, args) in runs.chain([("mrbench", compare)]) {
        let json = dir.join(format!("{name}.json"));
        let out = bin(name)
            .args(args)
            .args(["--max-events", "10", "--json"])
            .arg(&json)
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(6), "{name}: {stderr}");
        assert!(
            stderr.starts_with(&format!("{name}: budget exceeded")),
            "{stderr}"
        );
        mrbench::Artifacts::load(&json).unwrap_or_else(|e| panic!("{name}: {e}"));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A stdout closed before the binary writes is an I/O error (exit 4),
/// not a panic.
#[test]
fn closed_stdout_exits_4_without_a_panic() {
    let mut child = bin("fig3")
        .arg("--quick")
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("binary runs");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("binary exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(4), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(stderr.contains("fig3: cannot write stdout"), "{stderr}");
}

/// The analytic backend cannot remove a mechanism it never models, nor
/// inject a fault, so every `ablation` and `faults` run is a config
/// error under it.
#[test]
fn ablation_and_faults_refuse_the_analytic_backend() {
    for (name, what) in [("ablation", "ablations"), ("faults", "fault injection")] {
        let out = run(name, &["--quick", "--backend", "analytic"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(3), "{name}: {stderr}");
        let refusal = format!("{name}: invalid config: the analytic backend cannot model {what}");
        assert!(stderr.starts_with(&refusal), "{stderr}");
    }
}
