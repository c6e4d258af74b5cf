//! Ablation study: how much does each modelling decision matter?
//!
//! DESIGN.md calls out the mechanisms that proved load-bearing for
//! reproducing the paper (OS page cache, protocol CPU asymmetry, the
//! RDMA pipeline factors, `io.sort.mb` tuning, slot counts). This binary
//! re-runs the Fig. 2 anchor cell (MR-AVG, 16 GB, Cluster A) with each
//! mechanism removed or changed, over 1 GigE and IPoIB QDR, and reports
//! the job time and the network sensitivity each variant produces.

use mapreduce::conf::ShuffleEngineKind;
use mapreduce::engine::Engine;
use mapreduce::shuffle::rdma::ShuffleModel;
use mrbench::{BenchConfig, BenchReport, MicroBenchmark};
use mrbench_bench::{figure_header, Harness};
use simcore::units::ByteSize;
use simnet::Interconnect;

#[derive(Clone, Copy, PartialEq)]
enum Variant {
    Baseline,
    NoPageCache,
    NoProtocolCpu,
    DefaultSortMb,
    TwoMapSlots,
    NoMergeOverlap,
}

impl Variant {
    const ALL: [Variant; 6] = [
        Variant::Baseline,
        Variant::NoPageCache,
        Variant::NoProtocolCpu,
        Variant::DefaultSortMb,
        Variant::TwoMapSlots,
        Variant::NoMergeOverlap,
    ];

    fn label(self) -> &'static str {
        match self {
            Variant::Baseline => "baseline (as calibrated)",
            Variant::NoPageCache => "no OS page cache",
            Variant::NoProtocolCpu => "no protocol CPU charge",
            Variant::DefaultSortMb => "io.sort.mb = 100 (stock)",
            Variant::TwoMapSlots => "2 map slots (stock)",
            Variant::NoMergeOverlap => "no shuffle/merge overlap",
        }
    }
}

fn run_variant(
    harness: &Harness,
    variant: Variant,
    ic: Interconnect,
    shuffle: ByteSize,
) -> BenchReport {
    let mut config = harness.prep(BenchConfig::cluster_a_default(
        MicroBenchmark::Avg,
        ic,
        shuffle,
    ));
    let mut spec = config.job_spec();
    match variant {
        Variant::DefaultSortMb => spec.conf.io_sort_mb = ByteSize::from_mib(100),
        Variant::TwoMapSlots => spec.conf.map_slots_per_node = 2,
        _ => {}
    }
    config.volume = mrbench::ShuffleVolume::PairsPerMap(spec.pairs_per_map);
    let factory = config.benchmark.factory();
    let mut engine = Engine::new(
        spec,
        factory.as_ref(),
        config.node_spec(),
        config.slaves,
        config.interconnect,
    );
    match variant {
        Variant::NoPageCache => engine.disable_page_cache(),
        Variant::NoProtocolCpu => {
            let mut m = ShuffleModel::for_kind(ShuffleEngineKind::Tcp);
            m.charges_protocol_cpu = false;
            engine.set_shuffle_model(m);
        }
        Variant::NoMergeOverlap => {
            let mut m = ShuffleModel::for_kind(ShuffleEngineKind::Tcp);
            m.merge_overlap = 0.0;
            engine.set_shuffle_model(m);
        }
        _ => {}
    }
    if config.trace {
        engine.enable_tracing();
    }
    let result = engine.run();
    BenchReport { config, result }
}

fn main() -> std::process::ExitCode {
    mrbench_bench::figure_main("ablation", real_main)
}

fn real_main(mut harness: Harness) -> Result<(), mrbench::Error> {
    figure_header(
        "Ablation",
        "Fig. 2 anchor cell (MR-AVG, 16 GB, 16M/8R on 4 slaves) under model ablations",
    );
    let shuffle = harness.shuffle(ByteSize::from_gib(16));

    println!(
        "{:>28} {:>12} {:>14} {:>16}",
        "variant", "1GigE (s)", "IPoIB (s)", "IPoIB gain (%)"
    );
    let mut baseline_gain = None;
    for variant in Variant::ALL {
        let slow_report = run_variant(&harness, variant, Interconnect::GigE1, shuffle);
        let fast_report = run_variant(&harness, variant, Interconnect::IpoibQdr, shuffle);
        harness.record_report(&format!("{} — 1GigE", variant.label()), &slow_report);
        harness.record_report(&format!("{} — IPoIB QDR", variant.label()), &fast_report);
        let slow = slow_report.job_time_secs();
        let fast = fast_report.job_time_secs();
        let gain = (slow - fast) / slow * 100.0;
        if variant == Variant::Baseline {
            baseline_gain = Some(gain);
        }
        println!(
            "{:>28} {:>12.1} {:>14.1} {:>15.1}%",
            variant.label(),
            slow,
            fast,
            gain
        );
    }
    println!();
    println!(
        "Reading: the paper's ~24% IPoIB gain (baseline here: {:.1}%) only emerges \
         with the page cache in place — without it the job is disk-bound and the \
         network barely matters. Protocol CPU and the merge-overlap model shift \
         the gain by a few points each; stock io.sort.mb / slot settings change \
         the phase mix but keep the ordering.",
        baseline_gain.unwrap_or(f64::NAN)
    );
    harness.finish()
}
