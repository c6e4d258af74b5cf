//! Command-line parsing for the `mrbench` binary.
//!
//! Hand-rolled (the workspace keeps its dependency set to the approved
//! list), but with real error messages and full coverage of the suite's
//! knobs.

use std::path::PathBuf;

use mapreduce::{NodeCrash, NodeSlowdown};
use simcore::units::ByteSize;
use simnet::Interconnect;

use crate::artifact::ArtifactPaths;
use crate::config::{BenchConfig, ShuffleVolume};
use crate::error::Error;
use crate::{ClusterPreset, EngineKind, MicroBenchmark, ShuffleEngineKind};

/// Parsed invocation.
#[derive(Debug)]
pub struct Cli {
    /// The run configuration.
    pub config: BenchConfig,
    /// Run every interconnect and tabulate instead of one report.
    pub compare: bool,
    /// Print the per-task timeline after the report.
    pub timeline: bool,
    /// Machine-readable output requested via `--json` / `--csv`.
    pub artifacts: ArtifactPaths,
    /// Chrome trace-event output requested via `--trace [PATH]`. Also
    /// enables phase tracing on the run config.
    pub trace: Option<PathBuf>,
    /// Result-store directory for `--resume [DIR]`: completed `--compare`
    /// cells are cached there and skipped on restart.
    pub resume: Option<PathBuf>,
}

/// Default result-store directory for `--resume` without a path.
pub const DEFAULT_STORE_DIR: &str = "BENCH_mrbench.store";

/// Usage text for `--help`.
pub const USAGE: &str = "\
mrbench — micro-benchmark suite for stand-alone (simulated) Hadoop MapReduce

USAGE:
    mrbench [OPTIONS]

OPTIONS:
    --bench <avg|rand|skew|zipf>   micro-benchmark            [default: avg]
    --network <net>                1gige | 10gige | ipoib-qdr | ipoib-fdr | rdma
                                                              [default: ipoib-qdr]
    --compare                      run every network and tabulate
    --shuffle-gb <N>               total shuffle volume in GiB [default: 4]
    --shuffle-mb <N>               total shuffle volume in MiB
    --pairs <N>                    key/value pairs per map (overrides volume)
    --key-size <BYTES>             key payload size           [default: 1024]
    --value-size <BYTES>           value payload size         [default: 1024]
    --data-type <bytes|text>       Writable type              [default: bytes]
    --maps <N>                     map tasks                  [default: 16]
    --reduces <N>                  reduce tasks               [default: 8]
    --slaves <N>                   slave nodes                [default: 4]
    --racks <N>                    group the slaves into N racks
                                                              [default: 1]
    --oversubscription <F>         rack uplink oversubscription factor
                                   (>= 1.0; 1.0 is non-blocking)
                                                              [default: 1.0]
    --fabric-cap <MB_S>            aggregate core-fabric capacity in MB/s
                                   (default: non-blocking core)
    --monitor-interval <SECS>      throughput/CPU monitor sampling interval
                                                              [default: 1.0]
    --cluster <a|b>                testbed preset             [default: a]
    --engine <mrv1|yarn>           runtime                    [default: mrv1]
    --backend <des|analytic>       evaluation backend: discrete-event
                                   simulation or the closed-form analytic
                                   cost model               [default: des]
    --rdma-shuffle                 use the RDMA (MRoIB) shuffle engine
    --zipf-exponent <S>            exponent for --bench zipf  [default: 1.0]
    --seed <N>                     master seed
    --max-events <N>               abort the run after N simulation events
                                   (watchdog; exit code 6 on breach)
    --max-sim-secs <S>             abort the run past S simulated seconds
                                   (watchdog; exit code 6 on breach)
    --resume [DIR]                 cache completed --compare cells in a
                                   result store and skip them on restart
                                   [default dir: BENCH_mrbench.store]
    --timeline                     print the per-task timeline
    --json [PATH]                  also write the run as a JSON artifact
                                   [default path: BENCH_mrbench.json]
    --csv [PATH]                   also write a CSV summary table
                                   [default path: BENCH_mrbench.csv]
    --trace [PATH]                 record per-task phase spans, print the
                                   phase breakdown, and write a Chrome
                                   trace-event file (chrome://tracing,
                                   Perfetto)
                                   [default path: BENCH_mrbench_trace.json]

FAULT INJECTION:
    --fail-prob <P>                per-attempt task failure probability (maps
                                   and reduces), 0.0-1.0
    --fetch-fail-prob <P>          per-try shuffle fetch failure probability
    --crash <NODE@SECS>            crash a node at a simulated time
                                   (repeatable, e.g. --crash 1@30)
    --slowdown <NODE:FACTOR>       slow a node's tasks by FACTOR (straggler;
                                   repeatable, e.g. --slowdown 0:2.5)
    --max-attempts <N>             attempts per task before the job aborts
                                                              [default: 4]
    --speculative                  enable speculative execution for stragglers
    -h, --help                     show this help
";

/// Parse `args` (without the program name). `--help` surfaces as
/// [`Error::Help`] (exit 0); everything else as [`Error::Usage`].
pub fn parse_args(args: &[String]) -> Result<Cli, Error> {
    let mut config = BenchConfig::cluster_a_default(
        MicroBenchmark::Avg,
        Interconnect::IpoibQdr,
        ByteSize::from_gib(4),
    );
    let mut compare = false;
    let mut timeline = false;
    let mut artifacts = ArtifactPaths::default();
    let mut trace: Option<PathBuf> = None;
    let mut resume: Option<PathBuf> = None;

    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        // Flags whose value is optional peek ahead, so they are handled
        // before the `value` closure borrows the iterator. Any following
        // token that starts with `-` is the next flag, not a path —
        // including single-dash ones like `-h`.
        if arg == "--json" || arg == "--csv" || arg == "--trace" {
            let kind = &arg[2..];
            let path = match it.peek() {
                Some(v) if !v.starts_with('-') => PathBuf::from(it.next().unwrap()),
                _ if kind == "trace" => PathBuf::from("BENCH_mrbench_trace.json"),
                _ => ArtifactPaths::default_for("mrbench", kind),
            };
            match kind {
                "json" => artifacts.json = Some(path),
                "csv" => artifacts.csv = Some(path),
                _ => trace = Some(path),
            }
            continue;
        }
        if arg == "--resume" {
            resume = Some(match it.peek() {
                Some(v) if !v.starts_with('-') => PathBuf::from(it.next().unwrap()),
                _ => PathBuf::from(DEFAULT_STORE_DIR),
            });
            continue;
        }
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--bench" => config.benchmark = value("--bench")?.parse()?,
            "--network" => {
                config.interconnect = parse_network(value("--network")?)?;
                if config.interconnect == Interconnect::RdmaFdr {
                    config.shuffle_engine = ShuffleEngineKind::Rdma;
                }
            }
            "--compare" => compare = true,
            "--shuffle-gb" => {
                let n = parse_num(value("--shuffle-gb")?)?;
                config.volume = total_bytes("--shuffle-gb", n, ByteSize::from_gib(1))?;
            }
            "--shuffle-mb" => {
                let n = parse_num(value("--shuffle-mb")?)?;
                config.volume = total_bytes("--shuffle-mb", n, ByteSize::from_mib(1))?;
            }
            "--pairs" => config.volume = ShuffleVolume::PairsPerMap(parse_num(value("--pairs")?)?),
            "--key-size" => config.key_size = parse_num(value("--key-size")?)? as usize,
            "--value-size" => config.value_size = parse_num(value("--value-size")?)? as usize,
            "--data-type" => config.data_type = value("--data-type")?.parse()?,
            "--maps" => config.num_maps = parse_u32("--maps", value("--maps")?)?,
            "--reduces" => config.num_reduces = parse_u32("--reduces", value("--reduces")?)?,
            "--slaves" => config.slaves = parse_num(value("--slaves")?)? as usize,
            "--racks" => config.racks = parse_num(value("--racks")?)? as usize,
            "--oversubscription" => {
                config.oversubscription = value("--oversubscription")?
                    .parse::<f64>()
                    .map_err(|e| format!("bad --oversubscription value: {e}"))?
            }
            "--fabric-cap" => {
                config.fabric_cap_mb_s = Some(
                    value("--fabric-cap")?
                        .parse::<f64>()
                        .map_err(|e| format!("bad --fabric-cap value: {e}"))?,
                )
            }
            "--monitor-interval" => {
                config.monitor_interval_s = value("--monitor-interval")?
                    .parse::<f64>()
                    .map_err(|e| format!("bad --monitor-interval value: {e}"))?
            }
            "--cluster" => {
                config.cluster = match value("--cluster")?.to_ascii_lowercase().as_str() {
                    "a" => ClusterPreset::ClusterA,
                    "b" => ClusterPreset::ClusterB,
                    other => return Err(Error::usage(format!("unknown cluster: {other}"))),
                }
            }
            "--engine" => {
                config.engine = match value("--engine")?.to_ascii_lowercase().as_str() {
                    "mrv1" | "1" | "hadoop1" => EngineKind::MRv1,
                    "yarn" | "2" | "hadoop2" => EngineKind::Yarn,
                    other => return Err(Error::usage(format!("unknown engine: {other}"))),
                }
            }
            "--backend" => config.backend = value("--backend")?.parse()?,
            "--rdma-shuffle" => config.shuffle_engine = ShuffleEngineKind::Rdma,
            "--zipf-exponent" => {
                config.zipf_exponent = value("--zipf-exponent")?
                    .parse::<f64>()
                    .map_err(|e| format!("bad exponent: {e}"))?
            }
            "--seed" => config.seed = parse_num(value("--seed")?)?,
            "--max-events" => config.max_events = Some(parse_num(value("--max-events")?)?),
            "--max-sim-secs" => {
                config.max_sim_secs = Some(
                    value("--max-sim-secs")?
                        .parse::<f64>()
                        .map_err(|e| format!("bad --max-sim-secs value: {e}"))?,
                )
            }
            "--fail-prob" => {
                let p = parse_prob(value("--fail-prob")?)?;
                config.faults.map_failure_prob = p;
                config.faults.reduce_failure_prob = p;
            }
            "--fetch-fail-prob" => {
                config.faults.fetch_failure_prob = parse_prob(value("--fetch-fail-prob")?)?
            }
            "--crash" => config
                .faults
                .node_crashes
                .push(parse_crash(value("--crash")?)?),
            "--slowdown" => config
                .faults
                .node_slowdowns
                .push(parse_slowdown(value("--slowdown")?)?),
            "--max-attempts" => {
                config.max_attempts = parse_u32("--max-attempts", value("--max-attempts")?)?
            }
            "--speculative" => config.speculative = true,
            "--timeline" => timeline = true,
            "-h" | "--help" => return Err(Error::Help(USAGE.to_string())),
            other => return Err(Error::usage(format!("unknown option: {other}"))),
        }
    }
    config.trace = trace.is_some() || timeline;
    Ok(Cli {
        config,
        compare,
        timeline,
        artifacts,
        trace,
        resume,
    })
}

fn parse_num(s: &str) -> Result<u64, String> {
    s.replace('_', "")
        .parse::<u64>()
        .map_err(|e| format!("bad number '{s}': {e}"))
}

fn parse_u32(flag: &str, s: &str) -> Result<u32, String> {
    u32::try_from(parse_num(s)?).map_err(|_| format!("{flag} {s} exceeds {}", u32::MAX))
}

/// `n` units of `unit` as a total shuffle volume; a config error (exit 3)
/// when the byte count overflows `u64`.
fn total_bytes(flag: &str, n: u64, unit: ByteSize) -> Result<ShuffleVolume, Error> {
    n.checked_mul(unit.as_bytes())
        .map(|b| ShuffleVolume::TotalBytes(ByteSize::from_bytes(b)))
        .ok_or_else(|| Error::config(format!("{flag} {n} overflows a 64-bit byte count")))
}

fn parse_prob(s: &str) -> Result<f64, String> {
    let p: f64 = s
        .parse()
        .map_err(|e| format!("bad probability '{s}': {e}"))?;
    if !(0.0..=1.0).contains(&p) {
        return Err(format!("probability '{s}' must be in 0.0-1.0"));
    }
    Ok(p)
}

/// Parse `NODE@SECS`, e.g. `1@30.5`.
fn parse_crash(s: &str) -> Result<NodeCrash, String> {
    let (node, at) = s
        .split_once('@')
        .ok_or_else(|| format!("--crash wants NODE@SECS, got '{s}'"))?;
    Ok(NodeCrash {
        node: parse_num(node)? as usize,
        at_secs: at
            .parse::<f64>()
            .map_err(|e| format!("bad crash time '{at}': {e}"))?,
    })
}

/// Parse `NODE:FACTOR`, e.g. `0:2.5`.
fn parse_slowdown(s: &str) -> Result<NodeSlowdown, String> {
    let (node, factor) = s
        .split_once(':')
        .ok_or_else(|| format!("--slowdown wants NODE:FACTOR, got '{s}'"))?;
    Ok(NodeSlowdown {
        node: parse_num(node)? as usize,
        factor: factor
            .parse::<f64>()
            .map_err(|e| format!("bad slowdown factor '{factor}': {e}"))?,
    })
}

/// Parse an interconnect name as the CLI spells them.
pub fn parse_network(s: &str) -> Result<Interconnect, String> {
    match s.to_ascii_lowercase().replace('_', "-").as_str() {
        "1gige" | "gige" | "1g" => Ok(Interconnect::GigE1),
        "10gige" | "10g" => Ok(Interconnect::GigE10),
        "ipoib-qdr" | "ipoib" | "qdr" => Ok(Interconnect::IpoibQdr),
        "ipoib-fdr" | "fdr" => Ok(Interconnect::IpoibFdr),
        "rdma" | "rdma-fdr" | "ib" => Ok(Interconnect::RdmaFdr),
        other => Err(format!("unknown network: {other}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapreduce::io::DataType;

    fn parse(args: &[&str]) -> Result<Cli, Error> {
        let v: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        parse_args(&v)
    }

    #[test]
    fn defaults() {
        let cli = parse(&[]).unwrap();
        assert_eq!(cli.config.benchmark, MicroBenchmark::Avg);
        assert_eq!(cli.config.interconnect, Interconnect::IpoibQdr);
        assert!(!cli.compare);
        assert!(!cli.timeline);
        cli.config.validate().unwrap();
    }

    #[test]
    fn full_invocation() {
        let cli = parse(&[
            "--bench",
            "zipf",
            "--network",
            "10gige",
            "--shuffle-mb",
            "512",
            "--key-size",
            "100",
            "--value-size",
            "900",
            "--data-type",
            "text",
            "--maps",
            "8",
            "--reduces",
            "4",
            "--slaves",
            "2",
            "--engine",
            "yarn",
            "--zipf-exponent",
            "1.3",
            "--seed",
            "7",
            "--timeline",
        ])
        .unwrap();
        let c = &cli.config;
        assert_eq!(c.benchmark, MicroBenchmark::Zipf);
        assert_eq!(c.interconnect, Interconnect::GigE10);
        assert_eq!(c.key_size, 100);
        assert_eq!(c.value_size, 900);
        assert_eq!(c.data_type, DataType::Text);
        assert_eq!(c.num_maps, 8);
        assert_eq!(c.num_reduces, 4);
        assert_eq!(c.slaves, 2);
        assert_eq!(c.engine, EngineKind::Yarn);
        assert_eq!(c.zipf_exponent, 1.3);
        assert_eq!(c.seed, 7);
        assert!(cli.timeline);
        c.validate().unwrap();
    }

    #[test]
    fn rdma_network_implies_rdma_shuffle() {
        let cli = parse(&["--network", "rdma"]).unwrap();
        assert_eq!(cli.config.interconnect, Interconnect::RdmaFdr);
        assert_eq!(cli.config.shuffle_engine, ShuffleEngineKind::Rdma);
    }

    #[test]
    fn errors() {
        for bad in [
            &["--bench", "sort"][..],
            &["--network", "carrier-pigeon"],
            &["--maps"],
            &["--maps", "four"],
            &["--frobnicate"],
            &["--max-events", "many"],
            &["--max-sim-secs", "soon"],
            &["--racks", "two"],
            &["--oversubscription", "lots"],
            &["--fabric-cap", "thin"],
            &["--monitor-interval", "often"],
            &["--backend", "quantum"],
            &["--backend"],
            // Task counts are u32: a wider value is refused, not truncated.
            &["--maps", "4294967297"],
            &["--reduces", "4294967296"],
            &["--max-attempts", "4294967297"],
        ] {
            match parse(bad) {
                Err(Error::Usage(msg)) => assert!(!msg.is_empty(), "{bad:?}"),
                other => panic!("{bad:?}: expected a usage error, got {other:?}"),
            }
        }
        // Help is its own variant so binaries can exit 0 for it.
        let err = parse(&["--help"]).unwrap_err();
        assert!(matches!(err, Error::Help(_)), "{err:?}");
        assert_eq!(err.exit_code(), 0);
        assert_eq!(parse(&["--maps"]).unwrap_err().exit_code(), 2);
    }

    #[test]
    fn shuffle_volume_past_u64_bytes_is_a_config_error() {
        for bad in [
            &["--shuffle-gb", "17179869184"][..],
            &["--shuffle-mb", "17592186044416"],
        ] {
            let err = parse(bad).unwrap_err();
            assert!(matches!(err, Error::Config(_)), "{bad:?}: {err:?}");
            assert_eq!(err.exit_code(), 3);
        }
        // The largest volumes that fit are taken exactly.
        let cli = parse(&["--shuffle-gb", "17179869183"]).unwrap();
        assert_eq!(
            cli.config.volume,
            ShuffleVolume::TotalBytes(ByteSize::from_bytes(u64::MAX - (1 << 30) + 1))
        );
        let cli = parse(&["--shuffle-mb", "17592186044415"]).unwrap();
        assert_eq!(
            cli.config.volume,
            ShuffleVolume::TotalBytes(ByteSize::from_bytes(u64::MAX - (1 << 20) + 1))
        );
    }

    #[test]
    fn fault_flags() {
        let cli = parse(&[
            "--fail-prob",
            "0.1",
            "--fetch-fail-prob",
            "0.05",
            "--crash",
            "1@30.5",
            "--slowdown",
            "0:2.5",
            "--max-attempts",
            "6",
            "--speculative",
        ])
        .unwrap();
        let c = &cli.config;
        assert_eq!(c.faults.map_failure_prob, 0.1);
        assert_eq!(c.faults.reduce_failure_prob, 0.1);
        assert_eq!(c.faults.fetch_failure_prob, 0.05);
        assert_eq!(
            c.faults.node_crashes,
            vec![NodeCrash {
                node: 1,
                at_secs: 30.5
            }]
        );
        assert_eq!(
            c.faults.node_slowdowns,
            vec![NodeSlowdown {
                node: 0,
                factor: 2.5
            }]
        );
        assert_eq!(c.max_attempts, 6);
        assert!(c.speculative);
        c.validate().unwrap();
    }

    #[test]
    fn fault_flag_errors() {
        assert!(parse(&["--fail-prob", "1.5"]).is_err());
        assert!(parse(&["--fail-prob", "-0.1"]).is_err());
        assert!(parse(&["--crash", "30.5"]).is_err());
        assert!(parse(&["--crash", "x@1"]).is_err());
        assert!(parse(&["--slowdown", "0"]).is_err());
    }

    #[test]
    fn pairs_overrides_volume() {
        let cli = parse(&["--pairs", "1234"]).unwrap();
        assert_eq!(cli.config.volume, ShuffleVolume::PairsPerMap(1234));
    }

    #[test]
    fn artifact_flags() {
        // No flags: no artifacts.
        assert!(parse(&[]).unwrap().artifacts.is_empty());
        // Bare flags fall back to the conventional paths.
        let cli = parse(&["--json", "--csv"]).unwrap();
        assert_eq!(
            cli.artifacts.json.as_deref(),
            Some(std::path::Path::new("BENCH_mrbench.json"))
        );
        assert_eq!(
            cli.artifacts.csv.as_deref(),
            Some(std::path::Path::new("BENCH_mrbench.csv"))
        );
        // Explicit paths are taken, and parsing continues after them.
        let cli = parse(&["--json", "out/run.json", "--maps", "8"]).unwrap();
        assert_eq!(
            cli.artifacts.json.as_deref(),
            Some(std::path::Path::new("out/run.json"))
        );
        assert!(cli.artifacts.csv.is_none());
        assert_eq!(cli.config.num_maps, 8);
        // A following option is not swallowed as a path.
        let cli = parse(&["--json", "--timeline"]).unwrap();
        assert_eq!(
            cli.artifacts.json.as_deref(),
            Some(std::path::Path::new("BENCH_mrbench.json"))
        );
        assert!(cli.timeline);
    }

    #[test]
    fn optional_value_flags_do_not_swallow_following_flags() {
        // Regression: the lookahead only rejected `--`-prefixed tokens, so
        // a single-dash flag like `-h` was swallowed as an output path.
        assert!(
            matches!(parse(&["--json", "-h"]), Err(Error::Help(_))),
            "-h after --json must still reach help"
        );
        // As the final token, an optional-value flag takes its default.
        let cli = parse(&["--maps", "8", "--csv"]).unwrap();
        assert_eq!(
            cli.artifacts.csv.as_deref(),
            Some(std::path::Path::new("BENCH_mrbench.csv"))
        );
        assert_eq!(cli.config.num_maps, 8);
    }

    #[test]
    fn trace_flag() {
        let cli = parse(&[]).unwrap();
        assert!(cli.trace.is_none());
        assert!(!cli.config.trace);
        // Bare flag falls back to the conventional path and enables the
        // recorder on the config.
        let cli = parse(&["--trace"]).unwrap();
        assert_eq!(
            cli.trace.as_deref(),
            Some(std::path::Path::new("BENCH_mrbench_trace.json"))
        );
        assert!(cli.config.trace);
        // Explicit path, with parsing continuing after it.
        let cli = parse(&["--trace", "out/t.json", "--maps", "8"]).unwrap();
        assert_eq!(
            cli.trace.as_deref(),
            Some(std::path::Path::new("out/t.json"))
        );
        assert_eq!(cli.config.num_maps, 8);
        // All three optional-value flags combined, each as default.
        let cli = parse(&["--json", "--csv", "--trace"]).unwrap();
        assert_eq!(
            cli.artifacts.json.as_deref(),
            Some(std::path::Path::new("BENCH_mrbench.json"))
        );
        assert_eq!(
            cli.artifacts.csv.as_deref(),
            Some(std::path::Path::new("BENCH_mrbench.csv"))
        );
        assert_eq!(
            cli.trace.as_deref(),
            Some(std::path::Path::new("BENCH_mrbench_trace.json"))
        );
        // The timeline is rebuilt from the span stream, so it implies
        // tracing even without --trace.
        let cli = parse(&["--timeline"]).unwrap();
        assert!(cli.config.trace);
        assert!(cli.trace.is_none());
    }

    #[test]
    fn budget_and_resume_flags() {
        let cli = parse(&[]).unwrap();
        assert_eq!(cli.config.max_events, None);
        assert_eq!(cli.config.max_sim_secs, None);
        assert!(cli.resume.is_none());

        let cli = parse(&["--max-events", "50_000", "--max-sim-secs", "120.5"]).unwrap();
        assert_eq!(cli.config.max_events, Some(50_000));
        assert_eq!(cli.config.max_sim_secs, Some(120.5));
        cli.config.validate().unwrap();

        // Bare --resume falls back to the conventional store directory,
        // without swallowing a following flag.
        let cli = parse(&["--resume", "--compare"]).unwrap();
        assert_eq!(
            cli.resume.as_deref(),
            Some(std::path::Path::new(DEFAULT_STORE_DIR))
        );
        assert!(cli.compare);
        // An explicit directory is taken, and parsing continues after it.
        let cli = parse(&["--resume", "out/store", "--maps", "8"]).unwrap();
        assert_eq!(
            cli.resume.as_deref(),
            Some(std::path::Path::new("out/store"))
        );
        assert_eq!(cli.config.num_maps, 8);
    }

    #[test]
    fn topology_flags() {
        let cli = parse(&[]).unwrap();
        assert_eq!(cli.config.racks, 1);
        assert_eq!(cli.config.oversubscription, 1.0);
        assert_eq!(cli.config.fabric_cap_mb_s, None);
        assert_eq!(cli.config.monitor_interval_s, 1.0);

        let cli = parse(&[
            "--slaves",
            "8",
            "--racks",
            "4",
            "--oversubscription",
            "4.0",
            "--fabric-cap",
            "2000",
            "--monitor-interval",
            "0.25",
        ])
        .unwrap();
        assert_eq!(cli.config.racks, 4);
        assert_eq!(cli.config.oversubscription, 4.0);
        assert_eq!(cli.config.fabric_cap_mb_s, Some(2000.0));
        assert_eq!(cli.config.monitor_interval_s, 0.25);
        cli.config.validate().unwrap();

        // Validation catches out-of-range values the parser accepts.
        let cli = parse(&["--slaves", "2", "--racks", "3"]).unwrap();
        assert!(cli.config.validate().is_err());
        let cli = parse(&["--oversubscription", "0.5"]).unwrap();
        assert!(cli.config.validate().is_err());
        let cli = parse(&["--monitor-interval", "0"]).unwrap();
        assert!(cli.config.validate().is_err());
    }

    #[test]
    fn backend_flag() {
        use crate::config::BackendKind;
        let cli = parse(&[]).unwrap();
        assert_eq!(cli.config.backend, BackendKind::Des);
        let cli = parse(&["--backend", "analytic"]).unwrap();
        assert_eq!(cli.config.backend, BackendKind::Analytic);
        let cli = parse(&["--backend", "des"]).unwrap();
        assert_eq!(cli.config.backend, BackendKind::Des);
    }

    #[test]
    fn invalid_monitor_interval_is_a_config_error_exit_3() {
        // The parser accepts any float; validation rejects non-positive /
        // non-finite intervals and the runner surfaces that as
        // `Error::Config`, whose documented exit code is 3 — the contract
        // the mrbench binary relies on.
        for bad in ["0", "-1.5", "NaN", "inf"] {
            let cli = parse(&["--monitor-interval", bad]).unwrap();
            let msg = cli.config.validate().unwrap_err();
            assert!(msg.contains("monitor interval"), "{bad}: {msg}");
            let err = crate::run(&cli.config).unwrap_err();
            assert!(matches!(err, Error::Config(_)), "{bad}: {err:?}");
            assert_eq!(err.exit_code(), 3, "{bad}");
        }
        // A positive finite interval still passes end to end.
        let cli = parse(&["--monitor-interval", "0.25"]).unwrap();
        cli.config.validate().unwrap();
    }

    #[test]
    fn network_aliases() {
        assert_eq!(parse_network("1g").unwrap(), Interconnect::GigE1);
        assert_eq!(parse_network("QDR").unwrap(), Interconnect::IpoibQdr);
        assert_eq!(parse_network("ib").unwrap(), Interconnect::RdmaFdr);
    }
}
