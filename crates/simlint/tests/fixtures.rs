//! End-to-end tests of the `simlint` binary: every rule's known-bad
//! fixture must fail with the right rule id, the clean fixture must
//! pass, the JSON output must match its schema, and the live workspace
//! itself must be clean (the CI gate this crate exists for).

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name)
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root exists")
}

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_simlint"))
        .args(args)
        .output()
        .expect("simlint binary runs")
}

fn check_fixture(name: &str, json: bool) -> Output {
    let root = workspace_root();
    let file = fixture(name);
    let mut args = vec!["check", "--root", root.to_str().unwrap()];
    if json {
        args.push("--json");
    }
    args.extend(["--file", file.to_str().unwrap()]);
    run(&args)
}

#[track_caller]
fn assert_trips(name: &str, rule: &str) {
    let out = check_fixture(name, false);
    assert_eq!(out.status.code(), Some(1), "{name} must exit 1");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains(&format!("[{rule}]")),
        "{name} must report {rule}, got:\n{text}"
    );
    // Diagnostics carry file:line positions.
    assert!(text.contains(".rs:"), "missing file:line in:\n{text}");
}

#[test]
fn every_rule_fixture_fails() {
    assert_trips("bad_os_entropy.rs", "no-os-entropy");
    assert_trips("bad_float_order.rs", "total-float-order");
    assert_trips("bad_unit_suffix.rs", "unit-suffix");
    assert_trips("bad_allow_no_reason.rs", "allow-syntax");
    assert_trips("bad_taint_chain.rs", "determinism-taint");
    assert_trips("bad_rng_discipline.rs", "rng-draw-discipline");
    assert_trips("bad_float_accum.rs", "float-accumulation-order");
    assert_trips("bad_stale_allow.rs", "stale-allow");
}

#[test]
fn indirect_taint_is_reported_with_the_full_call_chain() {
    // The planted violation is two calls below Engine::step; the
    // diagnostic must name every hop, not just the leaf.
    let out = check_fixture("bad_taint_chain.rs", false);
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8_lossy(&out.stdout);
    let taint_line = text
        .lines()
        .find(|l| l.contains("[determinism-taint]"))
        .unwrap_or_else(|| panic!("no taint diagnostic in:\n{text}"));
    for hop in [
        "Engine::step",
        "advance_clock",
        "read_time",
        "Instant::now",
        "->",
    ] {
        assert!(taint_line.contains(hop), "missing {hop} in:\n{taint_line}");
    }
}

#[test]
fn justified_allows_are_clean() {
    for name in ["good_allow.rs", "good_allow_semantic.rs"] {
        let out = check_fixture(name, false);
        assert_eq!(
            out.status.code(),
            Some(0),
            "{name} must pass: {}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}

#[test]
fn float_order_fixture_spares_the_trait_impl() {
    let out = check_fixture("bad_float_order.rs", false);
    let text = String::from_utf8_lossy(&out.stdout);
    let hits = text.matches("[total-float-order]").count();
    assert_eq!(hits, 1, "only the call site, not the impl:\n{text}");
}

#[test]
fn json_output_matches_schema() {
    let out = check_fixture("bad_os_entropy.rs", true);
    assert_eq!(out.status.code(), Some(1));
    let doc = simcore::json::Json::parse(&String::from_utf8_lossy(&out.stdout))
        .expect("stdout is valid JSON");
    assert_eq!(doc.field_str("schema"), Ok("simlint-report-v2"));
    let count = doc.field_u64("count").expect("count field");
    let diags = doc.field_arr("diagnostics").expect("diagnostics field");
    assert_eq!(count as usize, diags.len());
    assert!(count >= 1);
    for d in diags {
        assert!(d.field_str("file").expect("file").ends_with(".rs"));
        assert!(d.field_u64("line").expect("line") >= 1);
        assert!(!d.field_str("rule").expect("rule").is_empty());
        assert!(!d.field_str("message").expect("message").is_empty());
    }
    let allow_count = doc.field_u64("allow_count").expect("allow_count field");
    let allows = doc.field_arr("allows").expect("allows field");
    assert_eq!(allow_count as usize, allows.len());
    assert!(!doc.field_arr("rules").expect("rules field").is_empty());
}

#[test]
fn live_workspace_is_clean() {
    let root = workspace_root();
    let out = run(&["check", "--root", root.to_str().unwrap()]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "workspace must lint clean:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn workspace_json_report_is_bit_identical_across_runs() {
    // The lint report is itself an artifact: two runs over the same
    // tree must produce byte-for-byte identical JSON (sorted file
    // order, sorted diagnostics, sorted allow inventory).
    let root = workspace_root();
    let args = ["check", "--json", "--root", root.to_str().unwrap()];
    let a = run(&args);
    let b = run(&args);
    assert_eq!(a.status.code(), b.status.code());
    assert_eq!(a.stdout, b.stdout, "simlint --json must be deterministic");
    assert!(!a.stdout.is_empty());
    // And the allow inventory is path-sorted.
    let doc = simcore::json::Json::parse(&String::from_utf8_lossy(&a.stdout)).expect("json");
    let allows = doc.field_arr("allows").expect("allows");
    let keys: Vec<(String, u64)> = allows
        .iter()
        .map(|a| {
            (
                a.field_str("file").expect("file").to_string(),
                a.field_u64("line").expect("line"),
            )
        })
        .collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted);
}

#[test]
fn call_graph_sees_the_real_engine() {
    // Guard against the item parser silently failing on real code: the
    // taint pass only means something if `impl Engine` methods actually
    // parse as roots and carry call edges.
    let root = workspace_root();
    let src = std::fs::read_to_string(root.join("crates/mapreduce/src/engine.rs"))
        .expect("engine.rs readable");
    let (toks, _) = simlint::lexer::lex(&src);
    let items = simlint::items::parse_file(&toks);
    let engine_methods: Vec<_> = items
        .fns
        .iter()
        .filter(|f| f.owner.as_deref() == Some("Engine"))
        .collect();
    assert!(
        engine_methods.len() >= 5,
        "expected a parsed impl Engine block, got {} methods",
        engine_methods.len()
    );
    let total_calls: usize = engine_methods.iter().map(|f| f.calls.len()).sum();
    assert!(
        total_calls >= 20,
        "Engine methods should carry call edges, got {total_calls}"
    );

    let net = std::fs::read_to_string(root.join("crates/simnet/src/network.rs"))
        .or_else(|_| std::fs::read_to_string(root.join("crates/simnet/src/lib.rs")))
        .expect("simnet source readable");
    let (toks, _) = simlint::lexer::lex(&net);
    let items = simlint::items::parse_file(&toks);
    assert!(
        items
            .fns
            .iter()
            .any(|f| f.owner.as_deref() == Some("Network")),
        "expected parsed impl Network methods"
    );
}

#[test]
fn rules_subcommand_lists_every_rule() {
    let out = run(&["rules"]);
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8_lossy(&out.stdout);
    for rule in [
        "no-os-entropy",
        "total-float-order",
        "unit-suffix",
        "allow-syntax",
        "determinism-taint",
        "rng-draw-discipline",
        "float-accumulation-order",
        "stale-allow",
    ] {
        assert!(text.contains(rule), "missing {rule} in:\n{text}");
    }
    assert_eq!(text.lines().count(), 8, "{text}");
}

#[test]
fn bad_usage_exits_2() {
    assert_eq!(run(&[]).status.code(), Some(2));
    assert_eq!(run(&["frobnicate"]).status.code(), Some(2));
    assert_eq!(run(&["check", "--root"]).status.code(), Some(2));
}

#[test]
fn a_root_without_the_crates_exits_2() {
    // A root that holds none of the deterministic crates must not lint
    // clean by scanning nothing.
    let empty = Path::new(env!("CARGO_TARGET_TMPDIR")).join("simlint-empty-root");
    std::fs::create_dir_all(&empty).expect("temp dir");
    let out = run(&["check", "--root", empty.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("missing"));

    // A bare `check` from the benchmark's own workspace finds mrperf's
    // `[workspace]` first, which holds no deterministic crate.
    let out = Command::new(env!("CARGO_BIN_EXE_simlint"))
        .arg("check")
        .current_dir(workspace_root().join("mrperf"))
        .output()
        .expect("simlint binary runs");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}

/// The `path = "..."` entries of one array table in `clippy.toml`.
fn clippy_paths<'a>(toml: &'a str, table: &str) -> Vec<&'a str> {
    let start = toml
        .find(&format!("{table} = ["))
        .unwrap_or_else(|| panic!("clippy.toml has no {table} table"));
    let body = &toml[start..];
    let body = &body[..body.find("\n]").expect("closed table")];
    body.split("path = \"")
        .skip(1)
        .map(|rest| &rest[..rest.find('"').expect("closed string")])
        .collect()
}

#[test]
fn clippy_keeps_the_bans_simlint_handed_over() {
    // simlint no longer matches wall-clock reads or std hash collections
    // by token; clippy checks them by type. Dropping one of these entries
    // (or the deny level) would silently drop that coverage.
    let root = workspace_root();
    let toml = std::fs::read_to_string(root.join("clippy.toml")).expect("clippy.toml");
    let methods = clippy_paths(&toml, "disallowed-methods");
    for path in [
        "std::time::Instant::now",
        "std::time::Instant::elapsed",
        "std::time::SystemTime::now",
        "std::time::SystemTime::elapsed",
    ] {
        assert!(methods.contains(&path), "{path} not in {methods:?}");
    }
    let types = clippy_paths(&toml, "disallowed-types");
    for path in [
        "std::collections::HashMap",
        "std::collections::HashSet",
        "std::hash::RandomState",
    ] {
        assert!(types.contains(&path), "{path} not in {types:?}");
    }
    let manifest = std::fs::read_to_string(root.join("Cargo.toml")).expect("Cargo.toml");
    for lint in [
        "disallowed_methods = \"deny\"",
        "disallowed_types = \"deny\"",
    ] {
        assert!(manifest.contains(lint), "root Cargo.toml must set {lint}");
    }
}
