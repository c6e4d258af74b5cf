//! Drift guard: the benchmark's copy of the figure grids must be the
//! grids the figure binaries run. Builds the eight binaries of the
//! repository, runs each with `--quick --json`, and compares the multiset
//! of config digests in their artifacts — job seeds normalised — with
//! the quick `figure_sweep` cell table.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

use mrbench::{config_digest, Artifacts, BenchConfig, Panel};
use mrperf::Workload;

const FIGURE_BINARIES: [&str; 8] = [
    "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "summary",
];

fn normalised(config: &BenchConfig) -> String {
    let mut c = config.clone();
    c.seed = 0;
    config_digest(&c)
}

#[test]
fn figure_sweep_matches_the_figure_binaries() {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives inside the repository");
    // A target directory of its own: the one running this test is locked.
    let target = Path::new(env!("CARGO_TARGET_TMPDIR")).join("figure-binaries");
    let built = Command::new(env!("CARGO"))
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "mrbench-bench",
            "--bins",
        ])
        .arg("--manifest-path")
        .arg(repo.join("Cargo.toml"))
        .env("CARGO_TARGET_DIR", &target)
        .status()
        .expect("cargo runs");
    assert!(built.success(), "building the figure binaries failed");

    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("figure-artifacts");
    std::fs::create_dir_all(&out).unwrap();
    let mut from_binaries = Vec::new();
    for bin in FIGURE_BINARIES {
        let json = out.join(format!("{bin}.json"));
        let run = Command::new(target.join("release").join(bin))
            .args(["--quick", "--json"])
            .arg(&json)
            .current_dir(&out)
            .output()
            .expect("figure binary runs");
        assert!(
            run.status.success(),
            "{bin}: {}",
            String::from_utf8_lossy(&run.stderr)
        );
        for panel in Artifacts::load(&json).unwrap().panels {
            match panel {
                Panel::Sweep { sweep, .. } => {
                    from_binaries.extend(sweep.cells.iter().map(|c| normalised(&c.report.config)));
                }
                Panel::Report { report, .. } => from_binaries.push(normalised(&report.config)),
            }
        }
    }

    let table = Workload::FigureSweep.cells(2014, true);
    assert_eq!(table.len(), 106);
    // Multiset difference: +1 per binary cell, -1 per table cell.
    let mut balance: BTreeMap<String, i64> = BTreeMap::new();
    for d in from_binaries {
        *balance.entry(d).or_default() += 1;
    }
    for c in &table {
        *balance.entry(normalised(&c.config)).or_default() -= 1;
    }
    let drifted: Vec<String> = balance
        .iter()
        .filter(|(_, &n)| n != 0)
        .map(|(d, n)| {
            let label = table
                .iter()
                .find(|c| &normalised(&c.config) == d)
                .map_or("only in the binaries", |c| c.label.as_str());
            format!("{d} x{n}: {label}")
        })
        .collect();
    assert!(
        drifted.is_empty(),
        "figure grids drifted:\n{}",
        drifted.join("\n")
    );
}
