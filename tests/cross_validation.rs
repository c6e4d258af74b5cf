//! Cross-validation: the analytic backend against the DES.
//!
//! The analytic cost model earns its keep only if it *agrees* with the
//! simulator where the paper's figures make claims. These tests run both
//! backends over the same figure-shaped grids (at reduced sizes so the
//! suite stays fast) and assert two things per figure:
//!
//! 1. **Identical orderings** — every qualitative claim a figure makes
//!    (which interconnect wins, skew slower than avg, small records
//!    slower than large, RDMA beating IPoIB) must come out the same way
//!    under both backends.
//! 2. **Pinned relative-error bands** — the analytic job time stays
//!    within a per-figure band of the DES time. The bands were measured
//!    empirically (see the `probe_error_bands` harness below) and pinned
//!    with headroom; they are regression tripwires, not aspirations — if
//!    a model change widens the error, the band fails and the change has
//!    to be recalibrated.
//!
//! A third family asserts the *point* of the analytic backend: it does
//! orders of magnitude less simulated work (`JobResult::sim_work` — a
//! wall-clock-free counter: events dispatched for the DES, closed-form
//! evaluations for the model).

use hadoop_mr_microbench::mrbench::{run, BackendKind, BenchConfig, Interconnect, MicroBenchmark};
use hadoop_mr_microbench::simcore::units::ByteSize;
use mrbench_bench::figures::{FIG2, FIG4, FIG8};
use mrbench_bench::CLUSTER_A_NETWORKS as NETWORKS;

/// Run `config` on the given backend.
fn on(config: &BenchConfig, backend: BackendKind) -> hadoop_mr_microbench::mrbench::BenchReport {
    let mut c = config.clone();
    c.backend = backend;
    run(&c).expect("valid config")
}

/// Job times for both backends: `(des_s, analytic_s)`.
fn both(config: &BenchConfig) -> (f64, f64) {
    let des = on(config, BackendKind::Des);
    let ana = on(config, BackendKind::Analytic);
    assert!(des.result.succeeded() && ana.result.succeeded());
    (des.job_time_secs(), ana.job_time_secs())
}

/// Signed relative error of the analytic time vs the DES time.
fn rel_err(des_s: f64, ana_s: f64) -> f64 {
    (ana_s - des_s) / des_s
}

#[test]
fn fig2_fig3_network_ordering_matches_with_bounded_error() {
    // Figs. 2–3: MR-AVG / MR-RAND over the three Cluster A interconnects.
    let size = ByteSize::from_gib(4);
    // Fig. 2(a) MR-AVG and 2(b) MR-RAND.
    for panel in &FIG2.panels[..2] {
        let bench = panel.title;
        let mut des = Vec::new();
        let mut ana = Vec::new();
        for ic in NETWORKS {
            let (d, a) = both(&(panel.config)(size, ic));
            // Pinned band: probe measured |err| <= 0.08 on this grid.
            let e = rel_err(d, a);
            assert!(
                e.abs() <= 0.15,
                "{bench} {ic:?}: analytic {a:.1}s vs DES {d:.1}s, err {e:+.2}"
            );
            des.push(d);
            ana.push(a);
        }
        // Identical interconnect ordering: 1GigE slowest, IB fastest.
        assert!(des[0] > des[1] && des[1] >= des[2], "DES {bench}: {des:?}");
        assert!(
            ana[0] > ana[1] && ana[1] >= ana[2],
            "analytic {bench}: {ana:?}"
        );
    }
}

#[test]
fn fig5_skew_ordering_matches_with_bounded_error() {
    // Fig. 5: MR-SKEW vs MR-AVG on IPoIB QDR — the skew factor.
    let size = ByteSize::from_gib(4);
    let (avg_d, avg_a) = both(&(FIG2.panels[0].config)(size, Interconnect::IpoibQdr));
    let (skew_d, skew_a) = both(&(FIG2.panels[2].config)(size, Interconnect::IpoibQdr));
    assert!(skew_d > avg_d, "DES: skew {skew_d} vs avg {avg_d}");
    assert!(skew_a > avg_a, "analytic: skew {skew_a} vs avg {avg_a}");
    // Both backends agree the factor is paper-sized (roughly 2x).
    let factor_d = skew_d / avg_d;
    let factor_a = skew_a / avg_a;
    assert!((1.4..3.5).contains(&factor_d), "DES skew factor {factor_d}");
    assert!(
        (1.4..3.5).contains(&factor_a),
        "analytic skew factor {factor_a}"
    );
    // Pinned band: probe measured |err| <= 0.14 on the skew cells (the
    // straggler's fetch pipeline is the model's roughest corner).
    let e = rel_err(skew_d, skew_a);
    assert!(e.abs() <= 0.22, "skew err {e:+.2}");
}

#[test]
fn fig4_kv_size_ordering_matches_with_bounded_error() {
    // Fig. 4: smaller records cost more CPU per shuffled byte.
    let size = ByteSize::from_gib(2);
    // Fig. 4's panels: 100 B, 1 KiB and 10 KiB keys and values.
    let kv = |panel: usize| (FIG4.panels[panel].config)(size, Interconnect::IpoibQdr);
    let time_for = |panel: usize, backend| on(&kv(panel), backend).job_time_secs();
    for backend in [BackendKind::Des, BackendKind::Analytic] {
        let t100 = time_for(0, backend);
        let t1k = time_for(1, backend);
        let t10k = time_for(2, backend);
        assert!(
            t100 > t1k && t1k > t10k,
            "{backend}: {t100:.1} {t1k:.1} {t10k:.1}"
        );
        assert!(t100 / t1k < 2.0, "{backend}: 100B catastrophically slow");
    }
    for panel in 0..3 {
        let (d, a) = both(&kv(panel));
        // Pinned band: probe measured |err| <= 0.06 on the kv cells.
        let e = rel_err(d, a);
        let kv = FIG4.panels[panel].title;
        assert!(e.abs() <= 0.12, "{kv}: err {e:+.2} ({a:.1}s vs {d:.1}s)");
    }
}

#[test]
fn fig8_rdma_ordering_matches_with_bounded_error() {
    // Fig. 8 (Cluster B case study): RDMA shuffle beats IPoIB FDR and
    // eliminates protocol CPU — under both backends.
    let size = ByteSize::from_gib(4);
    // Fig. 8(a): 8 slaves.
    let mk = |ic| (FIG8.panels[0].config)(size, ic);
    for backend in [BackendKind::Des, BackendKind::Analytic] {
        let ipoib = on(&mk(Interconnect::IpoibFdr), backend);
        let rdma = on(&mk(Interconnect::RdmaFdr), backend);
        assert!(
            rdma.job_time_secs() < ipoib.job_time_secs(),
            "{backend}: rdma {:.1}s vs ipoib {:.1}s",
            rdma.job_time_secs(),
            ipoib.job_time_secs()
        );
        assert_eq!(rdma.result.counters.protocol_cpu_seconds, 0.0, "{backend}");
        assert!(
            ipoib.result.counters.protocol_cpu_seconds > 0.0,
            "{backend}"
        );
    }
    for ic in [Interconnect::IpoibFdr, Interconnect::RdmaFdr] {
        let (d, a) = both(&mk(ic));
        // Pinned band: probe measured |err| <= 0.05 on Cluster B.
        let e = rel_err(d, a);
        assert!(e.abs() <= 0.12, "{ic:?}: err {e:+.2} ({a:.1}s vs {d:.1}s)");
    }
}

#[test]
fn analytic_does_at_least_100x_less_simulated_work() {
    // The acceptance bar: a fig-2-style sweep on the analytic backend
    // must cost >= 100x less simulated work than the DES — measured by
    // the backends' own work counters, never wall clock.
    let size = ByteSize::from_gib(1);
    let mut des_work = 0u64;
    let mut ana_work = 0u64;
    for ic in NETWORKS {
        let config = (FIG2.panels[0].config)(size, ic);
        let d = on(&config, BackendKind::Des);
        let a = on(&config, BackendKind::Analytic);
        assert!(d.result.sim_work > 0, "DES must report events");
        assert!(a.result.sim_work > 0, "analytic must report evaluations");
        des_work += d.result.sim_work;
        ana_work += a.result.sim_work;
        // The analytic counter is exactly one evaluation per task.
        assert_eq!(
            a.result.sim_work,
            u64::from(config.num_maps + config.num_reduces)
        );
    }
    assert!(
        des_work >= 100 * ana_work,
        "DES {des_work} events vs analytic {ana_work} evaluations: speedup {}x < 100x",
        des_work / ana_work.max(1)
    );
}

#[test]
fn backends_write_distinct_digests_and_des_is_untouched() {
    use hadoop_mr_microbench::mrbench::config_digest;
    // Backend selection must show up in the cache key (the store must
    // never serve an analytic result to a DES request or vice versa)...
    let des_cfg = (FIG2.panels[0].config)(ByteSize::from_mib(256), Interconnect::GigE1);
    let mut ana_cfg = des_cfg.clone();
    ana_cfg.backend = BackendKind::Analytic;
    assert_ne!(config_digest(&des_cfg), config_digest(&ana_cfg));
    // ...while the default (DES) config digests exactly as it did before
    // the field existed: `backend` is emitted only when non-default, so
    // pre-existing stores stay valid byte for byte.
    assert!(!des_cfg.to_json().to_compact().contains("backend"));
}

/// Deterministic LCG for the property test (no OS entropy in tests).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        // Numerical Recipes constants; plenty for config scrambling.
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }

    fn pick<T: Copy>(&mut self, options: &[T]) -> T {
        options[(self.next() % options.len() as u64) as usize]
    }
}

#[test]
fn analytic_is_scale_monotone_across_random_configs() {
    // Property: with the workload fixed, the analytic model never gets
    // slower when slaves are added, and never faster when data grows.
    // Seeded exploration over the config space — each case derives from
    // the LCG stream only, so failures reproduce exactly.
    let mut rng = Lcg(0x5EED_2014);
    for case in 0..40 {
        let bench = rng.pick(&[
            MicroBenchmark::Avg,
            MicroBenchmark::Rand,
            MicroBenchmark::Skew,
            MicroBenchmark::Zipf,
        ]);
        let ic = rng.pick(&[
            Interconnect::GigE1,
            Interconnect::GigE10,
            Interconnect::IpoibQdr,
            Interconnect::IpoibFdr,
            Interconnect::RdmaFdr,
        ]);
        let size_mib = rng.pick(&[64u64, 256, 1024, 4096]);
        let mut base = BenchConfig::cluster_a_default(bench, ic, ByteSize::from_mib(size_mib));
        base.backend = BackendKind::Analytic;
        base.slaves = rng.pick(&[2usize, 4, 8]);
        base.num_maps = rng.pick(&[8u32, 16, 32]);
        base.num_reduces = rng.pick(&[4u32, 8, 16]);
        if bench == MicroBenchmark::Skew && base.num_reduces < 3 {
            base.num_reduces = 4;
        }
        let t = run(&base).unwrap().job_time_secs();

        // More slaves, same data: never slower.
        let mut wider = base.clone();
        wider.slaves *= 2;
        let t_wide = run(&wider).unwrap().job_time_secs();
        assert!(
            t_wide <= t * (1.0 + 1e-9),
            "case {case} ({bench} {ic:?} {size_mib}MiB, {} slaves): \
             widening {} -> {} slaves raised time {t:.2}s -> {t_wide:.2}s",
            base.slaves,
            base.slaves,
            wider.slaves
        );

        // More data, same cluster: never faster.
        let mut bigger = base.clone();
        bigger.volume = hadoop_mr_microbench::mrbench::ShuffleVolume::TotalBytes(
            ByteSize::from_mib(size_mib * 2),
        );
        let t_big = run(&bigger).unwrap().job_time_secs();
        assert!(
            t_big >= t * (1.0 - 1e-9),
            "case {case} ({bench} {ic:?}): doubling data lowered time \
             {t:.2}s -> {t_big:.2}s"
        );
    }
}

/// Calibration harness, not a test: prints the DES vs analytic error
/// over every figure grid above. Run after model changes to re-measure
/// before re-pinning the bands:
///
/// ```text
/// cargo test --test cross_validation probe_error_bands -- --ignored --nocapture
/// ```
#[test]
#[ignore = "calibration probe; run manually with --ignored --nocapture"]
fn probe_error_bands() {
    let mut worst: f64 = 0.0;
    let mut table = String::new();
    let mut add = |label: String, config: &BenchConfig| {
        let (d, a) = both(config);
        let e = rel_err(d, a);
        worst = worst.max(e.abs());
        table.push_str(&format!(
            "{label:<40} des {d:8.1}s  ana {a:8.1}s  err {e:+.3}\n"
        ));
    };
    for panel in FIG2.panels {
        for ic in NETWORKS {
            for gib in [1u64, 4] {
                let c = (panel.config)(ByteSize::from_gib(gib), ic);
                add(format!("{} {ic:?} {gib}GiB", c.benchmark), &c);
            }
        }
    }
    for panel in FIG4.panels {
        let c = (panel.config)(ByteSize::from_gib(2), Interconnect::IpoibQdr);
        add(format!("kv={}", c.key_size), &c);
    }
    for ic in [Interconnect::IpoibFdr, Interconnect::RdmaFdr] {
        let c = (FIG8.panels[0].config)(ByteSize::from_gib(4), ic);
        add(format!("clusterB {ic:?}"), &c);
    }
    println!("{table}worst |err| = {worst:.3}");
}
