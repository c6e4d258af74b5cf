//! Benchmark output: configuration, job execution time, and resource
//! utilization (paper Sect. 1: "We display the configuration parameters
//! and resource utilization statistics for each test, along with the
//! final job execution time, as the micro-benchmark output").

use std::fmt;

use mapreduce::job::JobResult;
use simcore::jobj;
use simcore::json::Json;
use simcore::stats::TimeSeries;
use simcore::trace::PhaseBreakdown;
use simcore::units::ByteSize;

use crate::config::{interconnect_token, BenchConfig};
use crate::sweep::{Sweep, SweepCell};

/// Everything one benchmark run produced.
#[derive(Clone, Debug)]
pub struct BenchReport {
    /// The configuration that was run.
    pub config: BenchConfig,
    /// The engine's full result.
    pub result: JobResult,
}

impl BenchReport {
    /// Job execution time in seconds — the headline metric.
    pub fn job_time_secs(&self) -> f64 {
        self.result.job_time_secs()
    }

    /// Peak CPU utilization (%) observed on any slave.
    pub fn peak_cpu_pct(&self) -> f64 {
        series_peak(&self.result.cpu_series)
    }

    /// Peak network receive throughput (MB/s) observed on any slave —
    /// the quantity Fig. 7(b) plots.
    pub fn peak_rx_mbps(&self) -> f64 {
        series_peak(&self.result.net_rx_series)
    }

    /// CPU utilization series of one slave (Fig. 7(a) plots slave 0).
    /// `None` when `node` is not a slave of this run.
    pub fn cpu_series(&self, node: usize) -> Option<&TimeSeries> {
        self.result.cpu_series.get(node)
    }

    /// Network receive series of one slave (Fig. 7(b)). `None` when
    /// `node` is not a slave of this run.
    pub fn rx_series(&self, node: usize) -> Option<&TimeSeries> {
        self.result.net_rx_series.get(node)
    }

    /// Duration of the map phase in seconds.
    pub fn map_phase_secs(&self) -> f64 {
        self.result.map_phase_end.as_secs_f64()
    }

    /// Per-phase time decomposition; `Some` only when the run was traced
    /// (`config.trace` / `--trace`).
    pub fn phases(&self) -> Option<&PhaseBreakdown> {
        self.result.phases.as_ref()
    }

    /// Serialize to JSON: the full config plus the full result, enough
    /// to rebuild this report exactly.
    pub fn to_json(&self) -> Json {
        jobj! {
            "config": self.config.to_json(),
            "result": self.result.to_json(),
        }
    }

    /// Rebuild from the [`BenchReport::to_json`] encoding. Errors are
    /// prefixed with the sub-document (`config` / `result`) they came
    /// from.
    pub fn from_json(json: &Json) -> Result<Self, String> {
        Ok(BenchReport {
            config: json
                .req("config")
                .and_then(BenchConfig::from_json)
                .map_err(|e| format!("config: {e}"))?,
            result: json
                .req("result")
                .and_then(JobResult::from_json)
                .map_err(|e| format!("result: {e}"))?,
        })
    }

    /// One CSV row for this report. Column order matches
    /// [`CSV_HEADER`]; `panel` tags which table/figure the row belongs
    /// to and is quoted when it contains CSV metacharacters.
    pub fn csv_row(&self, panel: &str) -> String {
        format!(
            "{},{},{},{},{},{},{:.3},{:.3},{:.3},{:.1},{:.1},{}",
            csv_field(panel),
            self.config.benchmark.label(),
            self.config.shuffle_bytes().as_bytes(),
            interconnect_token(self.config.interconnect),
            match self.config.engine {
                mapreduce::conf::EngineKind::MRv1 => "mrv1",
                mapreduce::conf::EngineKind::Yarn => "yarn",
            },
            self.result.outcome.as_str(),
            self.job_time_secs(),
            self.map_phase_secs(),
            self.result.shuffle_end.as_secs_f64(),
            self.peak_cpu_pct(),
            self.peak_rx_mbps(),
            self.result.counters.failed_task_attempts,
        )
    }
}

/// Header line for benchmark CSV exports; see [`BenchReport::csv_row`].
pub const CSV_HEADER: &str = "panel,benchmark,shuffle_bytes,interconnect,engine,outcome,\
job_time_s,map_phase_s,shuffle_end_s,peak_cpu_pct,peak_rx_mbps,failed_attempts";

/// RFC 4180 quoting: wrap the field in double quotes when it contains a
/// comma, quote, or newline, doubling any embedded quotes.
fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

impl Sweep {
    /// Serialize the whole grid: row/column labels plus every cell's
    /// full [`BenchReport`], in row-major order.
    pub fn to_json(&self) -> Json {
        jobj! {
            "sizes": Json::Arr(self.sizes.iter().map(|s| Json::from(s.as_bytes())).collect()),
            "interconnects": Json::Arr(
                self.interconnects
                    .iter()
                    .map(|&ic| Json::from(interconnect_token(ic)))
                    .collect(),
            ),
            "cells": Json::Arr(
                self.cells
                    .iter()
                    .map(|c| {
                        jobj! {
                            "shuffle_bytes": c.shuffle.as_bytes(),
                            "interconnect": interconnect_token(c.interconnect),
                            "report": c.report.to_json(),
                        }
                    })
                    .collect(),
            ),
        }
    }

    /// Rebuild from the [`Sweep::to_json`] encoding.
    pub fn from_json(json: &Json) -> Result<Self, String> {
        let sizes = json
            .field_arr("sizes")?
            .iter()
            .map(|s| s.as_u64().map(ByteSize::from_bytes).ok_or("bad size"))
            .collect::<Result<Vec<_>, _>>()?;
        let interconnects = json
            .field_arr("interconnects")?
            .iter()
            .map(|ic| crate::config::parse_network(ic.as_str().ok_or("bad interconnect")?))
            .collect::<Result<Vec<_>, _>>()?;
        let cells = json
            .field_arr("cells")?
            .iter()
            .enumerate()
            .map(|(i, c)| {
                // Prefix the cell index so artifact-level errors pinpoint
                // the offending grid cell.
                (|| -> Result<SweepCell, String> {
                    Ok(SweepCell {
                        shuffle: ByteSize::from_bytes(c.field_u64("shuffle_bytes")?),
                        interconnect: crate::config::parse_network(c.field_str("interconnect")?)?,
                        report: BenchReport::from_json(c.req("report")?)?,
                    })
                })()
                .map_err(|e| format!("cells[{i}]: {e}"))
            })
            .collect::<Result<Vec<_>, String>>()?;
        if cells.len() != sizes.len() * interconnects.len() {
            return Err(format!(
                "sweep has {} cells but a {}x{} grid",
                cells.len(),
                sizes.len(),
                interconnects.len()
            ));
        }
        Ok(Sweep {
            sizes,
            interconnects,
            cells,
        })
    }

    /// CSV rows for every cell, in row-major order (no header; see
    /// [`CSV_HEADER`]).
    pub fn csv_rows(&self, panel: &str) -> Vec<String> {
        self.cells.iter().map(|c| c.report.csv_row(panel)).collect()
    }
}

fn series_peak(all: &[TimeSeries]) -> f64 {
    all.iter().filter_map(|s| s.peak()).fold(0.0f64, f64::max)
}

impl fmt::Display for BenchReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = &self.config;
        writeln!(
            f,
            "================ micro-benchmark report ================"
        )?;
        writeln!(f, "benchmark            {}", c.benchmark)?;
        writeln!(f, "engine               {}", c.engine.label())?;
        writeln!(
            f,
            "shuffle engine       {}",
            match c.shuffle_engine {
                mapreduce::conf::ShuffleEngineKind::Tcp => "sockets (HTTP fetch)",
                mapreduce::conf::ShuffleEngineKind::Rdma => "RDMA (MRoIB)",
            }
        )?;
        writeln!(f, "network              {}", c.interconnect)?;
        writeln!(
            f,
            "cluster              {:?} x{} ({})",
            c.cluster,
            c.slaves,
            c.node_spec().name
        )?;
        writeln!(f, "maps / reduces       {} / {}", c.num_maps, c.num_reduces)?;
        writeln!(
            f,
            "key / value          {} B / {} B ({})",
            c.key_size, c.value_size, c.data_type
        )?;
        writeln!(f, "shuffle data         {}", c.shuffle_bytes())?;
        if !c.faults.is_empty() {
            writeln!(f, "fault plan           {:?}", c.faults)?;
        }
        writeln!(
            f,
            "---------------------------------------------------------"
        )?;
        match (&self.result.failure, &self.result.budget) {
            (Some(d), _) => writeln!(
                f,
                "outcome              FAILED at {:.1} s — {}",
                d.at.as_secs_f64(),
                d.reason
            )?,
            (None, Some(b)) => {
                writeln!(f, "outcome              BUDGET EXCEEDED — {}", b.summary())?
            }
            (None, None) => writeln!(f, "outcome              SUCCEEDED")?,
        }
        writeln!(f, "JOB EXECUTION TIME   {:.1} s", self.job_time_secs())?;
        writeln!(
            f,
            "map phase            {:.1} s   shuffle end {:.1} s",
            self.map_phase_secs(),
            self.result.shuffle_end.as_secs_f64()
        )?;
        writeln!(
            f,
            "peak CPU             {:.0} %    peak network rx {:.0} MB/s",
            self.peak_cpu_pct(),
            self.peak_rx_mbps()
        )?;
        if let Some(b) = self.phases() {
            writeln!(
                f,
                "---------------------------------------------------------"
            )?;
            writeln!(f, "phase breakdown (exclusive wall time / busy task time)")?;
            for p in &b.phases {
                writeln!(
                    f,
                    "  {:<12} {:>9.1} s / {:>9.1} s   {:>5} spans",
                    p.phase, p.exclusive_s, p.busy_s, p.spans
                )?;
            }
            writeln!(
                f,
                "  {:<12} {:>9.1} s   (>=2 phases concurrently)",
                "overlap", b.overlap_s
            )?;
            writeln!(f, "  {:<12} {:>9.1} s", "idle", b.idle_s)?;
        }
        writeln!(
            f,
            "---------------------------------------------------------"
        )?;
        write!(f, "{}", self.result.counters)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench::MicroBenchmark;
    use crate::runner::run;
    use simcore::units::ByteSize;
    use simnet::Interconnect;

    #[test]
    fn report_renders_all_sections() {
        let mut config = BenchConfig::cluster_a_default(
            MicroBenchmark::Avg,
            Interconnect::GigE1,
            ByteSize::from_mib(512),
        );
        config.slaves = 2;
        config.num_maps = 4;
        config.num_reduces = 4;
        let report = run(&config).unwrap();
        let text = report.to_string();
        assert!(text.contains("MR-AVG"));
        assert!(text.contains("JOB EXECUTION TIME"));
        assert!(text.contains("1GigE"));
        assert!(text.contains("peak CPU"));
        assert!(text.contains("Counters"));
        assert!(text.contains("outcome              SUCCEEDED"));
        assert!(report.job_time_secs() > 0.0);
        assert!(report.peak_cpu_pct() > 0.0);
        // Series accessors: in-range nodes are Some, out-of-range None
        // (not a panic).
        assert!(report.cpu_series(0).is_some());
        assert!(report.rx_series(1).is_some());
        assert!(report.cpu_series(2).is_none());
        assert!(report.rx_series(99).is_none());
    }

    #[test]
    fn report_json_round_trips_exactly() {
        let mut config = BenchConfig::cluster_a_default(
            MicroBenchmark::Skew,
            Interconnect::IpoibQdr,
            ByteSize::from_mib(256),
        );
        config.slaves = 2;
        config.num_maps = 4;
        config.num_reduces = 4;
        let report = run(&config).unwrap();
        let text = report.to_json().to_pretty();
        let back = BenchReport::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.to_json().to_pretty(), text);
        // The written tree, series packed, reads back without the text.
        let packed = BenchReport::from_json(&report.to_json()).unwrap();
        assert_eq!(packed.to_json().to_pretty(), text);
        assert_eq!(back.result.job_time, report.result.job_time);
        assert_eq!(back.result.counters, report.result.counters);
        assert_eq!(back.result.tasks.len(), report.result.tasks.len());
        assert_eq!(
            back.cpu_series(0).unwrap().samples(),
            report.cpu_series(0).unwrap().samples()
        );
        // CSV row carries the headline numbers.
        let row = report.csv_row("test");
        assert!(row.starts_with("test,MR-SKEW,"));
        assert!(row.contains(",ipoib-qdr,"));
        assert!(row.contains(",succeeded,"));
        assert_eq!(row.split(',').count(), CSV_HEADER.split(',').count());
        // Panel titles with CSV metacharacters are quoted so the column
        // count stays fixed for any reader honouring RFC 4180.
        let quoted = report.csv_row("4 slaves, 1 KiB \"k/v\"");
        assert!(quoted.starts_with("\"4 slaves, 1 KiB \"\"k/v\"\"\",MR-SKEW,"));
    }

    #[test]
    fn failed_jobs_are_reported_not_panicked() {
        let mut config = BenchConfig::cluster_a_default(
            MicroBenchmark::Avg,
            Interconnect::GigE1,
            ByteSize::from_mib(128),
        );
        config.slaves = 2;
        config.num_maps = 4;
        config.num_reduces = 4;
        config.faults.map_failure_prob = 1.0; // every attempt dies
        config.max_attempts = 2;
        let report = run(&config).unwrap();
        assert!(!report.result.succeeded());
        let text = report.to_string();
        assert!(
            text.contains("FAILED"),
            "report must show the abort:\n{text}"
        );
        assert!(text.contains("allowed attempts"), "{text}");
    }
}
