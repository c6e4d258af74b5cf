//! Fault-tolerance experiments (extension beyond the paper's figures).
//!
//! The paper measures fault-free runs; this binary measures what the
//! same workloads cost when things break, using the simulator's fault
//! injection:
//!
//! 1. **Failure-probability sweep** — per-attempt task failure
//!    probability × data distribution. Re-executed maps delay the whole
//!    job, and MR-SKEW amplifies the damage: its overloaded reducer
//!    serializes recovery that MR-AVG absorbs in parallel.
//! 2. **Node crash** — a slave dies mid-job; completed map outputs on it
//!    are lost and those maps re-run (Hadoop's map-output-lost path).
//! 3. **Straggler vs speculative execution** — one slowed node with and
//!    without speculative backups.

use mrbench::{run, BenchConfig, MicroBenchmark};
use mrbench_bench::figures::Verdict;
use mrbench_bench::{figure_header, Harness};
use simcore::units::ByteSize;
use simnet::Interconnect;

fn base(bench: MicroBenchmark, shuffle: ByteSize) -> BenchConfig {
    BenchConfig::cluster_a_default(bench, Interconnect::IpoibQdr, shuffle)
}

fn main() -> std::process::ExitCode {
    mrbench_bench::figure_main("faults", real_main)
}

fn real_main(mut harness: Harness) -> Result<(), mrbench::Error> {
    figure_header(
        "Fault tolerance",
        "Recovery cost under injected failures (extension; 4 GB shuffle, IPoIB QDR)",
    );
    let shuffle = harness.shuffle(ByteSize::from_gib(4));

    // Panel 1: failure probability x data distribution.
    let probs = [0.0, 0.05, 0.1, 0.2];
    let benches = [MicroBenchmark::Avg, MicroBenchmark::Skew];
    println!("per-attempt task failure probability sweep:");
    print!("{:>8}", "p");
    for b in benches {
        print!("{:>14}{:>16}", format!("{b} (s)"), "failed attempts");
    }
    println!();
    // times[bench][prob]
    let mut times = [[f64::NAN; 4]; 2];
    for (pi, &p) in probs.iter().enumerate() {
        print!("{:>8.2}", p);
        for (bi, b) in benches.into_iter().enumerate() {
            let mut c = base(b, shuffle);
            c.faults.map_failure_prob = p;
            c.faults.reduce_failure_prob = p;
            let r = run(&harness.prep(c))?;
            harness.record_report(&format!("fault sweep p={p} {b}"), &r);
            if r.result.succeeded() {
                times[bi][pi] = r.job_time_secs();
                print!(
                    "{:>14.1}{:>16}",
                    r.job_time_secs(),
                    r.result.counters.failed_task_attempts
                );
            } else {
                print!(
                    "{:>14}{:>16}",
                    "FAILED", r.result.counters.failed_task_attempts
                );
            }
        }
        println!();
    }
    println!();

    // Recovery cost = job time added over the fault-free run. A failed
    // attempt costs the runtime of the task it kills, and MR-SKEW
    // concentrates half the job in one hot reducer — so the same failure
    // pattern (identical seeds => identical doomed attempts) costs more
    // seconds under skew once it hits that task. Low rates, by contrast,
    // can vanish entirely into the skew tail's slack.
    let added = |bi: usize, pi: usize| times[bi][pi] - times[bi][0];
    if times.iter().flatten().all(|t| t.is_finite()) {
        for (pi, &p) in probs.iter().enumerate().skip(1) {
            println!(
                "  recovery cost @ p={p}: MR-AVG +{:.1}s ({:+.1}%)  MR-SKEW +{:.1}s ({:+.1}%)",
                added(0, pi),
                added(0, pi) / times[0][0] * 100.0,
                added(1, pi),
                added(1, pi) / times[1][0] * 100.0,
            );
        }
        Verdict::check(
            added(1, 3) > added(0, 3),
            format!(
                "MR-SKEW amplifies recovery cost vs MR-AVG at p=0.2: +{:.1}s > +{:.1}s",
                added(1, 3),
                added(0, 3)
            ),
        )
        .print();
    } else {
        let text = "some runs failed outright; no degradation comparison";
        Verdict::check(false, text.into()).print();
    }
    println!();

    // Panel 2: node crash late in the job — ~90% into the clean run, when
    // the node's map outputs are committed and mid-shuffle, so the loss
    // forces map re-execution. The fraction (rather than a fixed t)
    // keeps the crash mid-job under --quick too.
    let clean = run(&harness.prep(base(MicroBenchmark::Avg, shuffle)))?;
    mrbench_bench::ensure_within_budget(&clean)?;
    // Quick runs are shuffle-dominated with little tail; crash mid-shuffle
    // there so the lost node still holds work.
    let crash_frac = if harness.quick { 0.6 } else { 0.9 };
    let crash_at = (clean.job_time_secs() * crash_frac).max(1.0);
    println!("node crash (slave 1 dies at t={crash_at:.0}s, MR-AVG):");
    let mut c = base(MicroBenchmark::Avg, shuffle);
    c.faults.node_crashes.push(mapreduce::NodeCrash {
        node: 1,
        at_secs: crash_at,
    });
    let crashed = run(&harness.prep(c))?;
    harness.record_report("node crash — clean baseline", &clean);
    harness.record_report("node crash — slave 1 lost mid-job", &crashed);
    println!("  clean   {:>8.1} s", clean.job_time_secs());
    println!(
        "  crashed {:>8.1} s   maps re-run after node loss: {}   attempts killed: {}",
        crashed.job_time_secs(),
        crashed.result.counters.maps_rerun_after_node_loss,
        crashed.result.counters.killed_attempts
    );
    let ok = crashed.result.succeeded() && crashed.job_time_secs() > clean.job_time_secs();
    Verdict::check(ok, "the job survives the crash and pays for it".into()).print();
    println!();

    // Panel 3: straggler node, speculation off vs on.
    println!("straggler (slave 0 runs 3x slower, MR-AVG):");
    let straggler = |speculative: bool| {
        let mut c = base(MicroBenchmark::Avg, shuffle);
        c.faults.node_slowdowns.push(mapreduce::NodeSlowdown {
            node: 0,
            factor: 3.0,
        });
        c.speculative = speculative;
        run(&harness.prep(c))
    };
    let off = straggler(false)?;
    let on = straggler(true)?;
    harness.record_report("straggler — speculation off", &off);
    harness.record_report("straggler — speculation on", &on);
    println!("  speculation off {:>8.1} s", off.job_time_secs());
    println!(
        "  speculation on  {:>8.1} s   backups launched: {}   backups won: {}",
        on.job_time_secs(),
        on.result.counters.speculative_launches,
        on.result.counters.speculative_wins
    );
    let ok =
        on.job_time_secs() <= off.job_time_secs() && on.result.counters.speculative_launches > 0;
    let text = "speculative execution launches backups and does not hurt";
    Verdict::check(ok, text.into()).print();
    harness.finish()
}
