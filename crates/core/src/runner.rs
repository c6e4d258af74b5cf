//! Runs a [`BenchConfig`] through the backend it selects.
//!
//! [`run`] turns a validated config into a [`BenchReport`] on one of two
//! backends, picked by [`BenchConfig::backend`]:
//!
//! * [`BackendKind::Des`] — the discrete-event simulator
//!   ([`mapreduce::engine`]). Per-event fidelity: fault injection,
//!   speculation, fetch backpressure, page-cache dynamics. The default,
//!   and the ground truth the other backend is validated against.
//! * [`BackendKind::Analytic`] — the closed-form cost model
//!   ([`mapreduce::analytic`]). O(maps + reduces) arithmetic per job;
//!   use it to scout large sweeps, then confirm the interesting cells
//!   with the DES. It refuses configs whose features it cannot model
//!   (fault plans, speculative execution, model ablations) rather than
//!   silently ignoring them.
//!
//! Reports, stores, and sweeps are therefore backend-agnostic. A config's
//! digest covers the `backend` field, which keeps analytic and DES
//! results under distinct cache keys (see the digest contract in
//! [`crate::store`]).

use crate::bench::MicroBenchmark;
use crate::config::{Ablation, BackendKind, BenchConfig};
use crate::error::Error;
use crate::report::BenchReport;
use mapreduce::analytic::{evaluate, AnalyticJob};
use mapreduce::engine::Engine;
use mapreduce::shuffle::rdma::ShuffleModel;

/// Run one micro-benchmark to completion on the backend named by
/// [`BenchConfig::backend`]. Every backend rejects an invalid config with
/// [`Error::Config`] (CLI exit code 3).
pub fn run(config: &BenchConfig) -> Result<BenchReport, Error> {
    config.validate().map_err(Error::Config)?;
    let result = match config.backend {
        BackendKind::Des => {
            let spec = config.job_spec();
            let factory = config.factory();
            let mut engine = Engine::with_topology(
                spec,
                factory.as_ref(),
                config.node_spec(),
                config.topology(),
            );
            let mut model = ShuffleModel::for_kind(config.shuffle_engine);
            match config.ablation {
                Some(Ablation::NoPageCache) => engine.disable_page_cache(),
                Some(Ablation::NoProtocolCpu) => model.charges_protocol_cpu = false,
                Some(Ablation::NoMergeOverlap) => model.merge_overlap = 0.0,
                _ => {}
            }
            engine.set_shuffle_model(model);
            if config.trace {
                engine.enable_tracing();
            }
            engine.run()
        }
        BackendKind::Analytic => {
            // The model has no notion of failures, speculative attempts or
            // the mechanisms an ablation removes; silently returning the
            // plain numbers for such a config would be a lie, so refuse.
            let refused = [
                (!config.faults.is_empty(), "fault injection"),
                (config.speculative, "speculative execution"),
                (config.ablation.is_some(), "ablations"),
            ];
            if let Some((_, what)) = refused.into_iter().find(|&(on, _)| on) {
                return Err(Error::Config(format!(
                    "the analytic backend cannot model {what}; use --backend des"
                )));
            }
            let spec = config.job_spec();
            let node = config.node_spec();
            let topology = config.topology();
            evaluate(&AnalyticJob {
                spec: &spec,
                node: &node,
                topology: &topology,
                reduce_fractions: expected_reduce_fractions(config),
                trace: config.trace,
            })
            .map_err(Error::Config)?
        }
    };
    Ok(BenchReport {
        config: config.clone(),
        result,
    })
}

/// Expected fraction of intermediate records each reducer receives under
/// `config`'s benchmark — the closed-form counterpart of actually running
/// the partitioner over every record:
///
/// * **MR-AVG** partitions round-robin per map, so reducer `r` gets
///   exactly `floor(P/R) + (r < P mod R)` of each map's `P` records.
/// * **MR-RAND** draws `nextInt(R)` per record: uniform in expectation.
/// * **MR-SKEW** routes 50 % to reducer 0, 25 % to 1, 12.5 % to 2
///   (clamped to the last reducer when `R < 3`), and spreads the
///   remaining 12.5 % uniformly (paper Sect. 4.2).
/// * **MR-ZIPF** weights reducer `r` by `1 / (r + 1)^s`, normalized.
pub fn expected_reduce_fractions(config: &BenchConfig) -> Vec<f64> {
    let r = (config.num_reduces as usize).max(1);
    match config.benchmark {
        MicroBenchmark::Avg => {
            let pairs = config.job_spec().pairs_per_map.max(1);
            let base = pairs / r as u64;
            let rem = (pairs % r as u64) as usize;
            (0..r)
                .map(|i| (base + u64::from(i < rem)) as f64 / pairs as f64)
                .collect()
        }
        MicroBenchmark::Rand => vec![1.0 / r as f64; r],
        MicroBenchmark::Skew => {
            let mut frac = vec![0.0f64; r];
            let last = r - 1;
            frac[0] += 0.50;
            frac[1.min(last)] += 0.25;
            frac[2.min(last)] += 0.125;
            let tail = 0.125 / r as f64;
            for f in &mut frac {
                *f += tail;
            }
            frac
        }
        MicroBenchmark::Zipf => {
            let s = config.zipf_exponent;
            let weights: Vec<f64> = (0..r).map(|i| 1.0 / ((i + 1) as f64).powf(s)).collect();
            let sum: f64 = weights.iter().sum();
            weights.into_iter().map(|w| w / sum).collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench::MicroBenchmark;
    use crate::config::ShuffleVolume;
    use simcore::units::ByteSize;
    use simnet::Interconnect;

    fn small(bench: MicroBenchmark, ic: Interconnect) -> BenchConfig {
        let mut c = BenchConfig::cluster_a_default(bench, ic, ByteSize::from_mib(256));
        c.slaves = 2;
        c.num_maps = 4;
        c.num_reduces = 4;
        c
    }

    #[test]
    fn unframeable_sizes_and_shuffle_overflow_are_config_errors() {
        let mut huge_key = small(MicroBenchmark::Avg, Interconnect::GigE1);
        huge_key.backend = BackendKind::Analytic;
        huge_key.key_size = usize::MAX;
        huge_key.value_size = 1;
        let mut text_key = huge_key.clone();
        text_key.data_type = mapreduce::io::DataType::Text;
        text_key.key_size = 1 << 31;
        let mut pairs = small(MicroBenchmark::Avg, Interconnect::GigE1);
        pairs.volume = ShuffleVolume::PairsPerMap(u64::MAX);
        for config in [huge_key, text_key, pairs] {
            let err = run(&config).unwrap_err();
            assert_eq!(err.exit_code(), 3, "{err}");
        }
    }

    #[test]
    fn tag_field_overflows_are_config_errors() {
        for backend in [BackendKind::Des, BackendKind::Analytic] {
            // `mrbench --maps 1 --reduces 1 --slaves 1 --shuffle-gb
            // 17179869183`: one map would number ~8.6e10 spill chunks in a
            // 32-bit field.
            let mut chunks = small(MicroBenchmark::Avg, Interconnect::GigE1);
            chunks.slaves = 1;
            chunks.num_maps = 1;
            chunks.num_reduces = 1;
            chunks.volume = ShuffleVolume::TotalBytes(ByteSize::from_bytes(17_179_869_183 << 30));
            // `mrbench --maps 16777215 --reduces 1 --pairs 1 --slaves 1`:
            // one more task than the 24-bit attempt-slot field numbers,
            // refused before the engine allocates a slot.
            let mut slots = chunks.clone();
            slots.num_maps = 16_777_215;
            slots.volume = ShuffleVolume::PairsPerMap(1);
            for mut c in [chunks, slots] {
                c.backend = backend;
                let err = run(&c).unwrap_err();
                assert_eq!(err.exit_code(), 3, "{backend:?}: {err}");
            }
        }
    }

    #[test]
    fn sub_nanosecond_monitor_interval_is_a_config_error_on_both_backends() {
        // 1e-12 s rounds to a 0 ns sampling interval.
        for backend in [BackendKind::Des, BackendKind::Analytic] {
            let mut c = small(MicroBenchmark::Avg, Interconnect::GigE1);
            c.backend = backend;
            c.monitor_interval_s = 1e-12;
            let err = run(&c).unwrap_err();
            assert_eq!(err.exit_code(), 3, "{backend:?}: {err}");
        }
    }

    #[test]
    fn ablations_run_on_the_des_only() {
        let plain = run(&small(MicroBenchmark::Avg, Interconnect::GigE1)).unwrap();
        for a in Ablation::ALL {
            let mut c = small(MicroBenchmark::Avg, Interconnect::GigE1);
            c.ablation = Some(a);
            let r = run(&c).unwrap();
            assert!(r.result.succeeded(), "{a:?}");
            assert_eq!(r.config.ablation, Some(a));
            if a == Ablation::Baseline {
                assert_eq!(r.result.job_time, plain.result.job_time);
                assert_eq!(r.result.counters, plain.result.counters);
            }
            c.backend = BackendKind::Analytic;
            let err = run(&c).unwrap_err();
            assert_eq!(err.exit_code(), 3, "{a:?}: {err}");
            assert!(err.to_string().contains("cannot model ablations"), "{err}");
        }
        // Removing the page cache puts every spill on the spindles.
        let mut c = small(MicroBenchmark::Avg, Interconnect::GigE1);
        c.ablation = Some(Ablation::NoPageCache);
        assert!(run(&c).unwrap().result.job_time > plain.result.job_time);
    }

    #[test]
    fn all_three_benchmarks_run() {
        for bench in MicroBenchmark::ALL {
            let report = run(&small(bench, Interconnect::GigE1)).unwrap();
            assert_eq!(report.result.counters.maps_completed, 4);
            assert_eq!(report.result.counters.reduces_completed, 4);
            assert!(report.job_time_secs() > 0.0);
        }
    }

    #[test]
    fn skew_is_slower_than_avg() {
        let avg = run(&small(MicroBenchmark::Avg, Interconnect::GigE1)).unwrap();
        let skew = run(&small(MicroBenchmark::Skew, Interconnect::GigE1)).unwrap();
        // At this toy scale fixed overheads dominate; the paper's ~2x
        // factor emerges at multi-gigabyte sizes (checked by the fig2
        // bench and the integration tests).
        assert!(
            skew.job_time_secs() > avg.job_time_secs() * 1.1,
            "skew {} vs avg {}",
            skew.job_time_secs(),
            avg.job_time_secs()
        );
    }

    #[test]
    fn deterministic() {
        let a = run(&small(MicroBenchmark::Rand, Interconnect::IpoibQdr)).unwrap();
        let b = run(&small(MicroBenchmark::Rand, Interconnect::IpoibQdr)).unwrap();
        assert_eq!(a.result.job_time, b.result.job_time);
        assert_eq!(a.result.counters, b.result.counters);
    }

    #[test]
    fn traced_config_yields_phases_that_reconcile() {
        let mut c = small(MicroBenchmark::Avg, Interconnect::GigE1);
        c.trace = true;
        let r = run(&c).unwrap();
        let b = r.phases().expect("breakdown present when traced");
        assert!(b.reconciles(0.01), "{b:?}");
        assert!((b.total_s - r.job_time_secs()).abs() < 1e-9);
        assert!(r.result.trace.is_some());
        // The report prints the extra phase section.
        let text = r.to_string();
        assert!(text.contains("phase breakdown"), "{text}");
        assert!(text.contains("shuffle"), "{text}");
        // Tracing never perturbs the simulation itself.
        let mut plain = c.clone();
        plain.trace = false;
        let p = run(&plain).unwrap();
        assert_eq!(p.result.job_time, r.result.job_time);
        assert_eq!(p.result.counters, r.result.counters);
        assert!(p.phases().is_none());
    }

    #[test]
    fn invalid_config_is_rejected() {
        let mut c = small(MicroBenchmark::Avg, Interconnect::GigE1);
        c.slaves = 0;
        assert!(run(&c).is_err());
    }

    #[test]
    fn injected_faults_recover_and_conserve_records() {
        let mut c = small(MicroBenchmark::Avg, Interconnect::GigE10);
        c.volume = ShuffleVolume::PairsPerMap(10_000);
        c.faults.map_failure_prob = 0.2;
        c.faults.reduce_failure_prob = 0.2;
        let r = run(&c).unwrap();
        assert!(r.result.succeeded());
        assert!(r.result.counters.failed_task_attempts > 0);
        // Retried work never double-counts logical records.
        assert_eq!(r.result.counters.map_output_records, 40_000);
        assert_eq!(r.result.counters.reduce_input_records, 40_000);
    }

    #[test]
    fn event_budget_truncates_gracefully_with_diagnostics() {
        let mut c = small(MicroBenchmark::Avg, Interconnect::GigE1);
        c.max_events = Some(50);
        let r = run(&c).unwrap();
        assert!(!r.result.succeeded());
        assert_eq!(
            r.result.outcome,
            mapreduce::faults::JobOutcome::BudgetExceeded
        );
        let diag = r
            .result
            .budget
            .as_ref()
            .expect("breach carries diagnostics");
        assert!(diag.breach.contains("event budget"), "{}", diag.breach);
        assert_eq!(diag.events, 50);
        assert_eq!(diag.maps_total, 4);
        assert_eq!(diag.reduces_total, 4);
        assert!(diag.maps_done <= 4 && diag.reduces_done <= 4);
        // The one-line summary is what binaries print before exit 6.
        let s = diag.summary();
        assert!(!s.contains('\n') && s.contains("maps"), "{s}");
        // Truncation is deterministic: same budget, same cut point.
        let again = run(&c).unwrap();
        assert_eq!(again.result.job_time, r.result.job_time);
        assert_eq!(again.result.budget.as_ref().unwrap().at, diag.at);
    }

    #[test]
    fn sim_time_budget_truncates_and_round_trips() {
        let mut c = small(MicroBenchmark::Avg, Interconnect::GigE1);
        let clean = run(&c).unwrap();
        c.max_sim_secs = Some(clean.job_time_secs() / 2.0);
        let r = run(&c).unwrap();
        assert_eq!(
            r.result.outcome,
            mapreduce::faults::JobOutcome::BudgetExceeded
        );
        let diag = r.result.budget.as_ref().unwrap();
        assert!(
            diag.breach.contains("simulated-time budget"),
            "{}",
            diag.breach
        );
        // A truncated report is still a valid artifact: the budget
        // diagnostics and outcome survive the canonical JSON round trip.
        let text = r.to_json().to_pretty();
        let back =
            crate::report::BenchReport::from_json(&simcore::json::Json::parse(&text).unwrap())
                .unwrap();
        assert_eq!(back.to_json().to_pretty(), text);
        assert_eq!(
            back.result.outcome,
            mapreduce::faults::JobOutcome::BudgetExceeded
        );
        assert_eq!(back.result.budget.as_ref().unwrap().events, diag.events);
        // An unlimited run is untouched.
        assert!(clean.result.succeeded());
        assert!(clean.result.budget.is_none());
    }

    #[test]
    fn oversubscribed_racks_slow_the_shuffle() {
        // Satellite regression for the once-dead topology path: the same
        // job over a 2-rack, heavily oversubscribed fabric must be
        // strictly slower than the flat crossbar, because the all-to-all
        // shuffle is dominated by cross-rack traffic.
        let mut flat = small(MicroBenchmark::Avg, Interconnect::GigE1);
        flat.slaves = 4;
        flat.num_maps = 8;
        flat.num_reduces = 8;
        let mut racked = flat.clone();
        racked.racks = 2;
        racked.oversubscription = 8.0;
        let f = run(&flat).unwrap();
        let r = run(&racked).unwrap();
        assert!(
            r.job_time_secs() > f.job_time_secs(),
            "racked {} vs flat {}",
            r.job_time_secs(),
            f.job_time_secs()
        );
    }

    #[test]
    fn fabric_cap_slows_the_shuffle() {
        let mut flat = small(MicroBenchmark::Avg, Interconnect::GigE10);
        flat.slaves = 4;
        let mut capped = flat.clone();
        // Well under 4 x 10GigE of aggregate demand.
        capped.fabric_cap_mb_s = Some(200.0);
        let f = run(&flat).unwrap();
        let c = run(&capped).unwrap();
        assert!(
            c.job_time_secs() > f.job_time_secs(),
            "capped {} vs flat {}",
            c.job_time_secs(),
            f.job_time_secs()
        );
    }

    #[test]
    fn factor_one_racks_are_bit_identical_to_flat() {
        // Non-blocking racks add no solver resources, so grouping alone
        // must not perturb a single bit of the simulation — for every
        // benchmark and interconnect the figures use.
        for bench in MicroBenchmark::ALL {
            for ic in [Interconnect::GigE1, Interconnect::IpoibQdr] {
                let flat = small(bench, ic);
                let mut racked = flat.clone();
                racked.racks = 2;
                racked.oversubscription = 1.0;
                let f = run(&flat).unwrap();
                let r = run(&racked).unwrap();
                assert_eq!(f.result.job_time, r.result.job_time, "{bench} {ic:?}");
                assert_eq!(f.result.counters, r.result.counters, "{bench} {ic:?}");
            }
        }
    }

    #[test]
    fn monitor_interval_is_config_driven() {
        let base = small(MicroBenchmark::Avg, Interconnect::GigE1);
        let coarse = run(&base).unwrap();

        // A 10x finer interval yields strictly more samples of both
        // monitors without changing the simulation outcome.
        let mut fine = base.clone();
        fine.monitor_interval_s = 0.1;
        let f = run(&fine).unwrap();
        assert_eq!(f.result.job_time, coarse.result.job_time);
        assert!(
            f.result.cpu_series[0].len() > coarse.result.cpu_series[0].len(),
            "fine {} vs coarse {}",
            f.result.cpu_series[0].len(),
            coarse.result.cpu_series[0].len()
        );
        assert!(f.result.net_rx_series[0].len() > coarse.result.net_rx_series[0].len());

        // An interval longer than the whole job still records the final
        // partial window: the end-of-run flush is what makes short jobs
        // observable at all.
        let mut huge = base;
        huge.monitor_interval_s = 1e6;
        let h = run(&huge).unwrap();
        assert_eq!(h.result.job_time, coarse.result.job_time);
        assert!(!h.result.cpu_series[0].is_empty());
        assert!(!h.result.net_rx_series[0].is_empty());
        // The flush stamps the window at the point the engine drained,
        // which never exceeds the reported job time.
        let last = h.result.cpu_series[0].samples().last().unwrap();
        assert!(last.time > simcore::time::SimTime::ZERO);
        assert!(last.time <= simcore::time::SimTime::ZERO + h.result.job_time);
    }

    #[test]
    fn record_conservation_across_benchmarks() {
        for bench in MicroBenchmark::ALL {
            let mut c = small(bench, Interconnect::GigE10);
            c.volume = ShuffleVolume::PairsPerMap(10_000);
            let r = run(&c).unwrap();
            assert_eq!(r.result.counters.map_output_records, 40_000, "{bench}");
            assert_eq!(r.result.counters.reduce_input_records, 40_000, "{bench}");
        }
    }

    fn config(bench: MicroBenchmark, reduces: u32) -> BenchConfig {
        let mut c = small(bench, Interconnect::GigE1);
        c.num_reduces = reduces;
        c
    }

    fn assert_normalized(frac: &[f64]) {
        let sum: f64 = frac.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "sum {sum} of {frac:?}");
        assert!(frac.iter().all(|f| *f >= 0.0 && f.is_finite()));
    }

    #[test]
    fn fractions_match_each_distribution() {
        for bench in MicroBenchmark::EXTENDED {
            for reduces in [1, 2, 3, 8] {
                assert_normalized(&expected_reduce_fractions(&config(bench, reduces)));
            }
        }
        let avg = expected_reduce_fractions(&config(MicroBenchmark::Avg, 8));
        let spread = avg.iter().fold(0.0f64, |m, f| m.max((f - 1.0 / 8.0).abs()));
        assert!(spread < 0.01, "{avg:?}");

        let skew = expected_reduce_fractions(&config(MicroBenchmark::Skew, 8));
        let t = 0.125 / 8.0;
        assert!((skew[0] - (0.50 + t)).abs() < 1e-12);
        assert!((skew[1] - (0.25 + t)).abs() < 1e-12);
        assert!((skew[2] - (0.125 + t)).abs() < 1e-12);
        assert!((skew[7] - t).abs() < 1e-12);

        // R=2 clamps the 12.5% bucket onto reducer 1 (paper Sect. 4.2).
        let skew2 = expected_reduce_fractions(&config(MicroBenchmark::Skew, 2));
        assert!((skew2[0] - 0.5625).abs() < 1e-12, "{skew2:?}");
        assert!((skew2[1] - 0.4375).abs() < 1e-12, "{skew2:?}");

        let zipf = expected_reduce_fractions(&config(MicroBenchmark::Zipf, 4));
        assert!(zipf[0] > zipf[1] && zipf[1] > zipf[2] && zipf[2] > zipf[3]);
    }

    #[test]
    fn analytic_refuses_what_it_cannot_model() {
        let mut c = config(MicroBenchmark::Avg, 4);
        c.backend = BackendKind::Analytic;
        assert!(run(&c).is_ok());
        let mut faulty = c.clone();
        faulty.faults.map_failure_prob = 0.1;
        let err = run(&faulty);
        assert!(matches!(err, Err(Error::Config(_))), "{err:?}");
        let mut spec = c;
        spec.speculative = true;
        assert!(matches!(run(&spec), Err(Error::Config(_))));
    }
}
