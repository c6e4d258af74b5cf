//! The golden manifest: `tests/golden/MANIFEST` pins each covered
//! output as one line, `<fnv1a_128> <bytes> <name>`, so an output that
//! drifts from the committed one fails here rather than waiting for a
//! hand-run `cmp` against a parent build.
//!
//! A change that moves an output on purpose re-pins it with
//!
//! ```text
//! MRBENCH_BLESS=1 cargo test --test golden
//! ```
//!
//! which rewrites the manifest and prints the lines that moved.

use hadoop_mr_microbench::baseline_digest;
use hadoop_mr_microbench::mrbench::store::fnv1a_128;

const MANIFEST: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/MANIFEST");

/// The manifest line of one output.
fn line(name: &str, text: &str) -> String {
    format!("{} {} {name}", fnv1a_128(text.as_bytes()), text.len())
}

#[test]
fn outputs_match_the_golden_manifest() {
    let lines = [line("baseline_digest", &baseline_digest())];
    let fresh: String = lines.iter().map(|l| format!("{l}\n")).collect();
    let pinned = std::fs::read_to_string(MANIFEST).unwrap_or_default();
    if std::env::var("MRBENCH_BLESS").is_ok_and(|v| v == "1") {
        for l in &lines {
            if !pinned.lines().any(|p| p == l) {
                println!("moved: {l}");
            }
        }
        std::fs::write(MANIFEST, &fresh).expect("manifest is writable");
        return;
    }
    assert!(
        pinned == fresh,
        "outputs drifted from {MANIFEST}\npinned:\n{pinned}now:\n{fresh}\
         re-pin with `MRBENCH_BLESS=1 cargo test --test golden` if the change is deliberate"
    );
}
