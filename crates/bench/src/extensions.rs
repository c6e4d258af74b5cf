//! The two experiments beyond the paper's figures, each the driver of
//! its binary.
//!
//! `faults` measures what the paper's fault-free workloads cost when
//! things break, using the simulator's fault injection:
//!
//! 1. **Failure-probability sweep** — per-attempt task failure
//!    probability × data distribution. Re-executed maps delay the whole
//!    job, and MR-SKEW amplifies the damage: its overloaded reducer
//!    serializes recovery that MR-AVG absorbs in parallel.
//! 2. **Node crash** — a slave dies mid-job; completed map outputs on it
//!    are lost and those maps re-run (Hadoop's map-output-lost path).
//! 3. **Straggler vs speculative execution** — one slowed node with and
//!    without speculative backups.
//!
//! `ablation` asks how much each modelling decision matters. DESIGN.md
//! calls out the mechanisms that proved load-bearing for reproducing the
//! paper (OS page cache, protocol CPU asymmetry, the RDMA pipeline
//! factors, `io.sort.mb` tuning, slot counts). It re-runs the Fig. 2
//! anchor cell (MR-AVG, 16 GB, Cluster A) under each [`Ablation`] — the
//! config field that removes one mechanism or resets one tuning — over
//! 1 GigE and IPoIB QDR, and reports the job time and the network
//! sensitivity each variant produces.

use std::fmt::Write as _;

use mrbench::{Ablation, BenchConfig, Error, MicroBenchmark, ShuffleVolume};
use simcore::units::ByteSize;
use simnet::Interconnect;

use crate::figures::Verdict;
use crate::Harness;

fn base(bench: MicroBenchmark, shuffle: ByteSize) -> BenchConfig {
    BenchConfig::cluster_a_default(bench, Interconnect::IpoibQdr, shuffle)
}

/// The `faults` binary.
pub(crate) fn faults(harness: &mut Harness) -> Result<(), Error> {
    harness.header(
        "Fault tolerance",
        "Recovery cost under injected failures (extension; 4 GB shuffle, IPoIB QDR)",
    );
    let shuffle = harness.shuffle(ByteSize::from_gib(4));

    // Panel 1: failure probability x data distribution, one cell per
    // (p, benchmark) in row-major order.
    let probs = [0.0, 0.05, 0.1, 0.2];
    let benches = [MicroBenchmark::Avg, MicroBenchmark::Skew];
    let grid = harness.run(probs.iter().flat_map(|&p| {
        benches.map(|b| {
            let mut c = base(b, shuffle);
            c.faults.map_failure_prob = p;
            c.faults.reduce_failure_prob = p;
            c
        })
    }))?;
    let (text, art) = (&mut harness.text, &mut harness.artifacts);
    let _ = writeln!(text, "per-attempt task failure probability sweep:");
    let _ = write!(text, "{:>8}", "p");
    for b in benches {
        let _ = write!(text, "{:>14}{:>16}", format!("{b} (s)"), "failed attempts");
    }
    text.push('\n');
    // times[bench][prob]
    let mut times = [[f64::NAN; 4]; 2];
    for ((pi, &p), row) in probs.iter().enumerate().zip(grid.chunks(benches.len())) {
        let _ = write!(text, "{:>8.2}", p);
        for ((bi, b), r) in benches.into_iter().enumerate().zip(row) {
            art.record_report(&format!("fault sweep p={p} {b}"), r.clone());
            let time = if r.result.succeeded() {
                times[bi][pi] = r.job_time_secs();
                format!("{:.1}", r.job_time_secs())
            } else {
                "FAILED".into()
            };
            let failed = r.result.counters.failed_task_attempts;
            let _ = write!(text, "{time:>14}{failed:>16}");
        }
        text.push('\n');
    }
    text.push('\n');

    // Recovery cost = job time added over the fault-free run. A failed
    // attempt costs the runtime of the task it kills, and MR-SKEW
    // concentrates half the job in one hot reducer — so the same failure
    // pattern (identical seeds => identical doomed attempts) costs more
    // seconds under skew once it hits that task. Low rates, by contrast,
    // can vanish entirely into the skew tail's slack.
    let added = |bi: usize, pi: usize| times[bi][pi] - times[bi][0];
    let verdict = if times.iter().flatten().all(|t| t.is_finite()) {
        for (pi, &p) in probs.iter().enumerate().skip(1) {
            let _ = writeln!(
                text,
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
    } else {
        let line = "some runs failed outright; no degradation comparison";
        Verdict::check(false, line.into())
    };
    let _ = writeln!(text, "{verdict}\n");

    // Panel 2: node crash late in the job — ~90% into the clean run, when
    // the node's map outputs are committed and mid-shuffle, so the loss
    // forces map re-execution. The fraction (rather than a fixed t)
    // keeps the crash mid-job under --quick too. The clean run is panel
    // 1's fault-free MR-AVG cell: the same config.
    let clean = &grid[0];
    // Quick runs are shuffle-dominated with little tail; crash mid-shuffle
    // there so the lost node still holds work.
    let crash_frac = if harness.quick { 0.6 } else { 0.9 };
    let crash_at = (clean.job_time_secs() * crash_frac).max(1.0);
    let _ = writeln!(
        text,
        "node crash (slave 1 dies at t={crash_at:.0}s, MR-AVG):"
    );
    let mut c = base(MicroBenchmark::Avg, shuffle);
    c.faults.node_crashes.push(mapreduce::NodeCrash {
        node: 1,
        at_secs: crash_at,
    });
    let crashed = harness.run([c])?.swap_remove(0);
    let (text, art) = (&mut harness.text, &mut harness.artifacts);
    art.record_report("node crash — clean baseline", clean.clone());
    art.record_report("node crash — slave 1 lost mid-job", crashed.clone());
    let _ = writeln!(text, "  clean   {:>8.1} s", clean.job_time_secs());
    let _ = writeln!(
        text,
        "  crashed {:>8.1} s   maps re-run after node loss: {}   attempts killed: {}",
        crashed.job_time_secs(),
        crashed.result.counters.maps_rerun_after_node_loss,
        crashed.result.counters.killed_attempts
    );
    let ok = crashed.result.succeeded() && crashed.job_time_secs() > clean.job_time_secs();
    let verdict = Verdict::check(ok, "the job survives the crash and pays for it".into());
    let _ = writeln!(text, "{verdict}\n");

    // Panel 3: straggler node, speculation off vs on.
    let _ = writeln!(text, "straggler (slave 0 runs 3x slower, MR-AVG):");
    let straggler = |speculative: bool| {
        let mut c = base(MicroBenchmark::Avg, shuffle);
        c.faults.node_slowdowns.push(mapreduce::NodeSlowdown {
            node: 0,
            factor: 3.0,
        });
        c.speculative = speculative;
        c
    };
    let pair = harness.run([false, true].map(straggler))?;
    let (off, on) = (&pair[0], &pair[1]);
    let (text, art) = (&mut harness.text, &mut harness.artifacts);
    art.record_report("straggler — speculation off", off.clone());
    art.record_report("straggler — speculation on", on.clone());
    let _ = writeln!(text, "  speculation off {:>8.1} s", off.job_time_secs());
    let _ = writeln!(
        text,
        "  speculation on  {:>8.1} s   backups launched: {}   backups won: {}",
        on.job_time_secs(),
        on.result.counters.speculative_launches,
        on.result.counters.speculative_wins
    );
    let ok =
        on.job_time_secs() <= off.job_time_secs() && on.result.counters.speculative_launches > 0;
    let line = "speculative execution launches backups and does not hurt";
    let _ = writeln!(text, "{}", Verdict::check(ok, line.into()));
    Ok(())
}

fn label(a: Ablation) -> &'static str {
    match a {
        Ablation::Baseline => "baseline (as calibrated)",
        Ablation::NoPageCache => "no OS page cache",
        Ablation::NoProtocolCpu => "no protocol CPU charge",
        Ablation::DefaultSortMb => "io.sort.mb = 100 (stock)",
        Ablation::TwoMapSlots => "2 map slots (stock)",
        Ablation::NoMergeOverlap => "no shuffle/merge overlap",
    }
}

/// The anchor cell under `ablation`. The artifacts record its volume as
/// pairs per map, the form the engine runs.
fn config(ablation: Ablation, ic: Interconnect, shuffle: ByteSize) -> BenchConfig {
    let mut c = BenchConfig::cluster_a_default(MicroBenchmark::Avg, ic, shuffle);
    c.volume = ShuffleVolume::PairsPerMap(c.job_spec().pairs_per_map);
    c.ablation = Some(ablation);
    c
}

/// The `ablation` binary.
pub(crate) fn ablation(harness: &mut Harness) -> Result<(), Error> {
    harness.header(
        "Ablation",
        "Fig. 2 anchor cell (MR-AVG, 16 GB, 16M/8R on 4 slaves) under model ablations",
    );
    let shuffle = harness.shuffle(ByteSize::from_gib(16));
    let networks = [Interconnect::GigE1, Interconnect::IpoibQdr];
    let reports = harness.run(
        Ablation::ALL
            .into_iter()
            .flat_map(|a| networks.map(|ic| config(a, ic, shuffle))),
    )?;

    let text = &mut harness.text;
    let _ = writeln!(
        text,
        "{:>28} {:>12} {:>14} {:>16}",
        "variant", "1GigE (s)", "IPoIB (s)", "IPoIB gain (%)"
    );
    let mut baseline_gain = None;
    for (variant, pair) in Ablation::ALL.into_iter().zip(reports.chunks(2)) {
        let (slow, fast) = (pair[0].job_time_secs(), pair[1].job_time_secs());
        let gain = (slow - fast) / slow * 100.0;
        if variant == Ablation::Baseline {
            baseline_gain = Some(gain);
        }
        let name = label(variant);
        let _ = writeln!(text, "{name:>28} {slow:>12.1} {fast:>14.1} {gain:>15.1}%");
        for (report, net) in pair.iter().zip(["1GigE", "IPoIB QDR"]) {
            let title = format!("{name} — {net}");
            harness.artifacts.record_report(&title, report.clone());
        }
    }
    let _ = writeln!(
        harness.text,
        "\nReading: the paper's ~24% IPoIB gain (baseline here: {:.1}%) only emerges \
         with the page cache in place — without it the job is disk-bound and the \
         network barely matters. Protocol CPU and the merge-overlap model shift \
         the gain by a few points each; stock io.sort.mb / slot settings change \
         the phase mix but keep the ordering.",
        baseline_gain.unwrap_or(f64::NAN)
    );
    Ok(())
}
