//! # hadoop-mr-microbench
//!
//! Facade crate for the whole workspace: re-exports the micro-benchmark
//! suite ([`mrbench`]) together with the simulator substrates it runs on.
//! See `README.md` for a tour and `DESIGN.md` for the architecture.

pub use cluster;
pub use mapreduce;
pub use mrbench;
pub use simcore;
pub use simnet;

use mrbench::{run, BenchConfig, EngineKind, Interconnect, MicroBenchmark, ShuffleEngineKind};
use simcore::units::ByteSize;

/// The grid of representative configurations `baseline_digest` runs:
/// every (bench, network, engine) as 8 maps and 4 reduces on 2 slaves.
pub fn baseline_configs() -> Vec<BenchConfig> {
    let mut grid = Vec::new();
    for bench in [
        MicroBenchmark::Avg,
        MicroBenchmark::Rand,
        MicroBenchmark::Skew,
    ] {
        for ic in [
            Interconnect::GigE1,
            Interconnect::IpoibQdr,
            Interconnect::RdmaFdr,
        ] {
            for yarn in [false, true] {
                let mut c = BenchConfig::cluster_a_default(bench, ic, ByteSize::from_mib(512));
                c.num_maps = 8;
                c.num_reduces = 4;
                c.slaves = 2;
                if yarn {
                    c.engine = EngineKind::Yarn;
                }
                if ic == Interconnect::RdmaFdr {
                    c.shuffle_engine = ShuffleEngineKind::Rdma;
                }
                grid.push(c);
            }
        }
    }
    grid
}

/// An exact digest of [`baseline_configs`], one line per config:
/// nanosecond job time, phase ends and the full counters. Any change to
/// a clean-path run moves it; the golden manifest
/// (`tests/golden/MANIFEST`) pins it, and `examples/baseline_digest`
/// prints it.
pub fn baseline_digest() -> String {
    let mut out = String::new();
    for c in baseline_configs() {
        let r = run(&c).expect("valid config");
        out += &format!(
            "{:?}/{:?}/{:?} job_ns={} map_end={} shuffle_end={} {:?}\n",
            c.benchmark,
            c.interconnect,
            c.engine,
            r.result.job_time.as_nanos(),
            r.result.map_phase_end.as_nanos(),
            r.result.shuffle_end.as_nanos(),
            r.result.counters
        );
    }
    out
}
