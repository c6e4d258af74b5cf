//! `multijob` rejects streams it cannot simulate with a config error
//! (exit 3) and a one-line message, never a panic or a silently wrapped
//! result.

use std::process::Command;

/// Run `multijob` with `args`, returning its exit code and stderr.
fn multijob(args: &[&str]) -> (Option<i32>, String) {
    let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("multijob_cli.json");
    let run = Command::new(env!("CARGO_BIN_EXE_multijob"))
        .args(args)
        .arg("--out")
        .arg(&out)
        .output()
        .expect("multijob runs");
    let stderr = String::from_utf8_lossy(&run.stderr).into_owned();
    if run.status.code() == Some(3) {
        // The binary names itself once: the library's messages carry no
        // prefix of their own.
        assert_eq!(stderr.matches("multijob:").count(), 1, "{stderr}");
    }
    (run.status.code(), stderr)
}

#[test]
fn arrivals_past_the_clock_range_exit_3() {
    for gap in ["1e12", "1e300"] {
        let (code, stderr) = multijob(&["--mean-gap", gap]);
        assert_eq!(code, Some(3), "--mean-gap {gap}: {stderr}");
        assert!(stderr.contains("clock's range"), "{stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
    }
}

#[test]
fn shuffle_volumes_past_u64_bytes_exit_3() {
    // The per-job volume itself overflows, then only the stream total.
    let top = (u64::MAX >> 20).to_string();
    for mb in [u64::MAX.to_string().as_str(), top.as_str()] {
        let (code, stderr) = multijob(&["--jobs", "2", "--shuffle-mb", mb]);
        assert_eq!(code, Some(3), "--shuffle-mb {mb}: {stderr}");
        assert!(stderr.contains("overflow"), "{stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
    }
}

#[test]
fn task_counts_past_the_attempt_slots_exit_3() {
    // 10^12 jobs of 12 tasks cannot be numbered in the tags' 24-bit slot
    // field; the stream is refused before anything is allocated.
    let (code, stderr) = multijob(&["--jobs", "1000000000000", "--shuffle-mb", "1"]);
    assert_eq!(code, Some(3), "{stderr}");
    assert!(stderr.contains("attempt slots"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
