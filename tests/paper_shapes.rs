//! Integration: the paper's qualitative claims must hold at modest scale.
//!
//! These run the real figure configurations — the panel builders of the
//! `fig2`..`fig8` specs — at reduced shuffle sizes so the suite stays
//! fast under `cargo test`; the full-size sweeps live in the binaries.

use hadoop_mr_microbench::mrbench::{run, Interconnect, Sweep};
use hadoop_mr_microbench::simcore::units::ByteSize;
use mrbench_bench::figures::{FIG2, FIG4, FIG7, FIG8};
use mrbench_bench::CLUSTER_A_NETWORKS as NETWORKS;

#[test]
fn network_ordering_holds_for_avg_and_rand() {
    // Fig. 2(a) MR-AVG and 2(b) MR-RAND.
    for panel in &FIG2.panels[..2] {
        let bench = panel.title;
        let sweep = Sweep::run_grid(&[ByteSize::from_gib(8)], &NETWORKS, panel.config).unwrap();
        let t1 = sweep
            .time(ByteSize::from_gib(8), Interconnect::GigE1)
            .unwrap();
        let t10 = sweep
            .time(ByteSize::from_gib(8), Interconnect::GigE10)
            .unwrap();
        let tib = sweep
            .time(ByteSize::from_gib(8), Interconnect::IpoibQdr)
            .unwrap();
        assert!(t1 > t10 && t10 >= tib, "{bench}: {t1} {t10} {tib}");
        // Paper: improvements in the mid-teens to mid-twenties percent.
        let gain = (t1 - tib) / t1 * 100.0;
        assert!(
            (10.0..35.0).contains(&gain),
            "{bench}: IPoIB gain {gain}% out of plausible band"
        );
    }
}

#[test]
fn skew_roughly_doubles_job_time() {
    let at = ByteSize::from_gib(8);
    let ipoib = [Interconnect::IpoibQdr];
    let avg = Sweep::run_grid(&[at], &ipoib, FIG2.panels[0].config).unwrap();
    let skew = Sweep::run_grid(&[at], &ipoib, FIG2.panels[2].config).unwrap();
    let factor = skew.time(at, Interconnect::IpoibQdr).unwrap()
        / avg.time(at, Interconnect::IpoibQdr).unwrap();
    assert!(
        (1.6..3.2).contains(&factor),
        "skew factor {factor} vs paper ~2x"
    );
}

#[test]
fn kv_size_effect_matches_fig4() {
    let at = ByteSize::from_gib(4);
    // Fig. 4's panels: 100 B, 1 KiB and 10 KiB keys and values.
    let time_for = |panel: usize| {
        let config = (FIG4.panels[panel].config)(at, Interconnect::IpoibQdr);
        run(&config).unwrap().job_time_secs()
    };
    let t100 = time_for(0);
    let t1k = time_for(1);
    let t10k = time_for(2);
    assert!(t100 > t1k && t1k > t10k, "{t100} {t1k} {t10k}");
    // The effect is meaningful but bounded (paper: 128s vs 107s at 16GB).
    assert!(
        t100 / t1k < 2.0,
        "100B should not be catastrophically slower"
    );
}

#[test]
fn rdma_beats_ipoib_on_cluster_b() {
    let at = ByteSize::from_gib(8);
    // Fig. 8(a): 8 slaves.
    let eight_slaves = FIG8.panels[0].config;
    let ipoib = run(&eight_slaves(at, Interconnect::IpoibFdr)).unwrap();
    let rdma = run(&eight_slaves(at, Interconnect::RdmaFdr)).unwrap();
    let gain = (ipoib.job_time_secs() - rdma.job_time_secs()) / ipoib.job_time_secs() * 100.0;
    assert!(
        (10.0..40.0).contains(&gain),
        "RDMA gain {gain}% vs paper 28-30%"
    );
    assert_eq!(rdma.result.counters.protocol_cpu_seconds, 0.0);
}

#[test]
fn fig7_peak_throughput_ordering() {
    let at = ByteSize::from_gib(8);
    let mut peaks = Vec::new();
    for ic in NETWORKS {
        let report = run(&(FIG7.panels[0].config)(at, ic)).unwrap();
        peaks.push(report.peak_rx_mbps());
    }
    assert!(
        peaks[0] < peaks[1] && peaks[1] < peaks[2],
        "peak rx ordering {peaks:?}"
    );
    // 1GigE saturates near line rate during the shuffle.
    assert!((peaks[0] - 112.0).abs() < 10.0, "1GigE peak {}", peaks[0]);
}

#[test]
fn skew_reducer_zero_is_the_straggler() {
    let at = ByteSize::from_gib(4);
    let report = run(&(FIG2.panels[2].config)(at, Interconnect::IpoibQdr)).unwrap();
    let mut reducers: Vec<_> = report.result.tasks.iter().filter(|t| !t.is_map).collect();
    reducers.sort_by_key(|t| t.index);
    let slowest = reducers
        .iter()
        .max_by_key(|t| simcore::TotalF64(t.elapsed().as_secs_f64()))
        .expect("has reducers");
    assert_eq!(
        slowest.index, 0,
        "MR-SKEW sends 50% of the data to reducer 0"
    );
}
