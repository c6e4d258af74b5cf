//! CLI for the determinism lint pass.
//!
//! ```text
//! cargo run -p simlint -- check [--json] [--root DIR] [--file PATH]...
//! cargo run -p simlint -- rules
//! ```
//!
//! Exit codes: 0 = clean, 1 = diagnostics found, 2 = usage or I/O error
//! (including a root that lacks a deterministic crate's `src/`).

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use simlint::driver::{diags_to_text, lint_sources, report_to_json, workspace_report, LintReport};
use simlint::rules::RULES;

fn usage() -> ExitCode {
    eprintln!("usage: simlint check [--json] [--root DIR] [--file PATH]...\n       simlint rules");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    match cmd.as_str() {
        "rules" => {
            for (name, summary) in RULES {
                println!("{name:20} {summary}");
            }
            ExitCode::SUCCESS
        }
        "check" => check_cmd(&args[1..]),
        _ => usage(),
    }
}

fn check_cmd(args: &[String]) -> ExitCode {
    let mut json = false;
    let mut root: Option<PathBuf> = None;
    let mut files: Vec<PathBuf> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => json = true,
            "--root" => match it.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => return usage(),
            },
            "--file" => match it.next() {
                Some(f) => files.push(PathBuf::from(f)),
                None => return usage(),
            },
            _ => return usage(),
        }
    }

    let root = match root.or_else(find_root) {
        Some(r) => r,
        None => {
            eprintln!("simlint: cannot find workspace root (pass --root)");
            return ExitCode::from(2);
        }
    };

    let result: std::io::Result<LintReport> = if files.is_empty() {
        workspace_report(&root)
    } else {
        // Explicit files are checked together as one program, in
        // sorted path order, so cross-file passes still apply.
        files
            .iter()
            .map(|f| {
                let src = std::fs::read_to_string(f)?;
                let rel = f.strip_prefix(&root).unwrap_or(f);
                Ok((rel.display().to_string(), src))
            })
            .collect::<std::io::Result<Vec<_>>>()
            .map(|mut sources| {
                sources.sort_by(|a, b| a.0.cmp(&b.0));
                lint_sources(&sources)
            })
    };
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("simlint: {e}");
            return ExitCode::from(2);
        }
    };

    if json {
        println!("{}", report_to_json(&report));
    } else if report.diags.is_empty() {
        eprintln!("simlint: clean");
    } else {
        print!("{}", diags_to_text(&report.diags));
        eprintln!("simlint: {} diagnostic(s)", report.diags.len());
    }
    if report.diags.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Workspace root: the nearest ancestor of the cwd whose `Cargo.toml`
/// has a `[workspace]` table, falling back to two levels above this
/// crate's manifest (`crates/simlint` → repo root).
fn find_root() -> Option<PathBuf> {
    let cwd = std::env::current_dir().ok()?;
    let mut dir: Option<&Path> = Some(&cwd);
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d.to_path_buf());
            }
        }
        dir = d.parent();
    }
    let fallback = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    fallback.canonicalize().ok()
}
