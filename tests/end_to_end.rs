//! Integration: full micro-benchmark runs across the whole stack.

use hadoop_mr_microbench::mrbench::{
    run, BenchConfig, EngineKind, Interconnect, MicroBenchmark, ShuffleVolume,
};
use hadoop_mr_microbench::simcore::units::ByteSize;
use mrbench_bench::figures::{FIG2, FIG3};

fn small(bench: MicroBenchmark, ic: Interconnect) -> BenchConfig {
    let mut c = BenchConfig::cluster_a_default(bench, ic, ByteSize::from_mib(512));
    c.slaves = 2;
    c.num_maps = 4;
    c.num_reduces = 4;
    c
}

#[test]
fn every_benchmark_on_every_network_completes() {
    for bench in MicroBenchmark::ALL {
        for ic in Interconnect::ALL {
            let report = run(&small(bench, ic)).unwrap_or_else(|e| {
                panic!("{bench} on {ic} failed: {e}");
            });
            assert_eq!(report.result.counters.maps_completed, 4, "{bench} {ic}");
            assert_eq!(report.result.counters.reduces_completed, 4, "{bench} {ic}");
            assert!(report.job_time_secs() > 1.0, "{bench} {ic}");
            assert!(report.job_time_secs() < 1000.0, "{bench} {ic}");
        }
    }
}

#[test]
fn both_engines_complete_with_identical_record_counts() {
    let mut mrv1 = small(MicroBenchmark::Rand, Interconnect::GigE10);
    mrv1.volume = ShuffleVolume::PairsPerMap(5_000);
    let mut yarn = mrv1.clone();
    yarn.engine = EngineKind::Yarn;

    let a = run(&mrv1).unwrap();
    let b = run(&yarn).unwrap();
    assert_eq!(
        a.result.counters.map_output_records,
        b.result.counters.map_output_records
    );
    assert_eq!(
        a.result.counters.reduce_input_records,
        b.result.counters.reduce_input_records
    );
}

#[test]
fn shuffle_bytes_match_materialized_bytes() {
    // Every materialized byte is fetched exactly once (remote or local).
    let report = run(&small(MicroBenchmark::Avg, Interconnect::GigE1)).unwrap();
    let c = &report.result.counters;
    assert_eq!(
        c.total_shuffle_bytes(),
        c.map_output_materialized_bytes,
        "shuffle moved exactly the materialized map output"
    );
}

#[test]
fn determinism_across_identical_runs() {
    for bench in MicroBenchmark::ALL {
        let a = run(&small(bench, Interconnect::IpoibQdr)).unwrap();
        let b = run(&small(bench, Interconnect::IpoibQdr)).unwrap();
        assert_eq!(a.result.job_time, b.result.job_time, "{bench}");
        assert_eq!(a.result.counters, b.result.counters, "{bench}");
    }
}

#[test]
fn seed_changes_rand_distribution_but_not_totals() {
    let mut c1 = small(MicroBenchmark::Rand, Interconnect::GigE1);
    c1.volume = ShuffleVolume::PairsPerMap(50_000);
    let mut c2 = c1.clone();
    c2.seed = 999;
    let a = run(&c1).unwrap();
    let b = run(&c2).unwrap();
    assert_eq!(
        a.result.counters.map_output_records,
        b.result.counters.map_output_records
    );
    // Different seeds shuffle the same volume but land differently in
    // time (different reducer loads).
    assert_ne!(a.result.job_time, b.result.job_time);
}

#[test]
fn resource_monitors_cover_the_whole_job() {
    let report = run(&small(MicroBenchmark::Avg, Interconnect::GigE10)).unwrap();
    // Sampling stops when the last reduce finishes; job_time additionally
    // includes the job cleanup overhead (~2.5s).
    let active_secs = report.job_time_secs() - 6.0;
    for node in 0..2 {
        let samples = report.cpu_series(node).expect("node in range").len() as f64;
        assert!(
            samples >= active_secs,
            "node {node}: {samples} samples for {active_secs:.1}s of task activity"
        );
    }
}

#[test]
fn yarn_and_larger_cluster_scale_down_job_time() {
    // Fig. 2(a) (MRv1, 4 slaves) against Fig. 3(a) (YARN, 8 slaves).
    let base = (FIG2.panels[0].config)(ByteSize::from_gib(2), Interconnect::IpoibQdr);
    let bigger = (FIG3.panels[0].config)(ByteSize::from_gib(2), Interconnect::IpoibQdr);
    let t_small = run(&base).unwrap().job_time_secs();
    let t_big = run(&bigger).unwrap().job_time_secs();
    assert!(
        t_big < t_small,
        "8 slaves ({t_big}) should beat 4 slaves ({t_small})"
    );
}

#[test]
fn text_and_bytes_writable_both_work_end_to_end() {
    use hadoop_mr_microbench::mrbench::DataType;
    for dt in DataType::ALL {
        let mut c = small(MicroBenchmark::Avg, Interconnect::GigE1);
        c.data_type = dt;
        let report = run(&c).unwrap();
        assert!(report.job_time_secs() > 0.0, "{dt}");
    }
}
