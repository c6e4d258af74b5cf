//! The `mrbench` binary's own flags, and the value parsers every binary
//! shares.
//!
//! [`Harness::parse`] reads the run-wide flags; [`parse`] hands it the
//! config flags below, which fill in one [`BenchConfig`]. Hand-rolled
//! (the workspace keeps its dependency set to the approved list), but
//! with real error messages and full coverage of the suite's knobs.

use mapreduce::{NodeCrash, NodeSlowdown};
use mrbench::config::parse_network;
use mrbench::{
    BenchConfig, ClusterPreset, EngineKind, Error, MicroBenchmark, ShuffleEngineKind, ShuffleVolume,
};
use simcore::units::ByteSize;
use simnet::Interconnect;

use crate::{run_wide_usage, value, Args, Harness};

/// What `mrbench` runs, beside the run-wide [`Harness`] switches.
#[derive(Debug)]
pub struct Cli {
    /// The run configuration. `trace` is on for `--timeline`;
    /// [`Harness::prep`] adds `--trace`.
    pub config: BenchConfig,
    /// Run every interconnect and tabulate instead of one report.
    pub compare: bool,
    /// Print the per-task timeline after the report.
    pub timeline: bool,
}

/// Usage text for `mrbench --help`.
pub fn usage() -> String {
    format!(
        "\
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
    --rdma-shuffle                 use the RDMA (MRoIB) shuffle engine
    --zipf-exponent <S>            exponent for --bench zipf  [default: 1.0]
    --seed <N>                     master seed
    --timeline                     print the per-task timeline (not with
                                   --compare)
{}
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
",
        run_wide_usage("mrbench")
    )
}

/// Parse `mrbench`'s arguments (without the program name): the run-wide
/// flags into the [`Harness`], the rest into a [`Cli`]. `--help`
/// surfaces as [`Error::Help`] (exit 0).
pub fn parse(args: &[String]) -> Result<(Harness, Cli), Error> {
    let mut cli = Cli {
        config: BenchConfig::cluster_a_default(
            MicroBenchmark::Avg,
            Interconnect::IpoibQdr,
            ByteSize::from_gib(4),
        ),
        compare: false,
        timeline: false,
    };
    let harness = Harness::parse("mrbench", &usage(), args, |_, flag, it| cli.flag(flag, it))?;
    if cli.compare && cli.timeline {
        return Err(Error::usage(
            "--timeline prints the timeline of a single run; it cannot be combined with --compare",
        ));
    }
    // The timeline is rebuilt from the span stream.
    cli.config.trace = cli.timeline;
    Ok((harness, cli))
}

impl Cli {
    /// Apply one flag; `Ok(false)` when it is not one of `mrbench`'s.
    fn flag(&mut self, flag: &str, it: &mut Args<'_>) -> Result<bool, Error> {
        let config = &mut self.config;
        match flag {
            "--bench" => config.benchmark = value(it, flag)?.parse()?,
            "--network" => {
                config.interconnect = parse_network(value(it, flag)?)?;
                if config.interconnect == Interconnect::RdmaFdr {
                    config.shuffle_engine = ShuffleEngineKind::Rdma;
                }
            }
            "--compare" => self.compare = true,
            "--shuffle-gb" => {
                let n = parse_num(value(it, flag)?)?;
                let bytes = total_bytes(flag, n, ByteSize::from_gib(1))?;
                config.volume = ShuffleVolume::TotalBytes(bytes);
            }
            "--shuffle-mb" => {
                let n = parse_num(value(it, flag)?)?;
                let bytes = total_bytes(flag, n, ByteSize::from_mib(1))?;
                config.volume = ShuffleVolume::TotalBytes(bytes);
            }
            "--pairs" => config.volume = ShuffleVolume::PairsPerMap(parse_num(value(it, flag)?)?),
            "--key-size" => config.key_size = parse_num(value(it, flag)?)? as usize,
            "--value-size" => config.value_size = parse_num(value(it, flag)?)? as usize,
            "--data-type" => config.data_type = value(it, flag)?.parse()?,
            "--maps" => config.num_maps = parse_u32(flag, value(it, flag)?)?,
            "--reduces" => config.num_reduces = parse_u32(flag, value(it, flag)?)?,
            "--slaves" => config.slaves = parse_num(value(it, flag)?)? as usize,
            "--racks" => config.racks = parse_num(value(it, flag)?)? as usize,
            "--oversubscription" => config.oversubscription = parse_f64(flag, value(it, flag)?)?,
            "--fabric-cap" => config.fabric_cap_mb_s = Some(parse_f64(flag, value(it, flag)?)?),
            "--monitor-interval" => config.monitor_interval_s = parse_f64(flag, value(it, flag)?)?,
            "--cluster" => {
                config.cluster = match value(it, flag)?.to_ascii_lowercase().as_str() {
                    "a" => ClusterPreset::ClusterA,
                    "b" => ClusterPreset::ClusterB,
                    other => return Err(Error::usage(format!("unknown cluster: {other}"))),
                }
            }
            "--engine" => {
                config.engine = match value(it, flag)?.to_ascii_lowercase().as_str() {
                    "mrv1" | "1" | "hadoop1" => EngineKind::MRv1,
                    "yarn" | "2" | "hadoop2" => EngineKind::Yarn,
                    other => return Err(Error::usage(format!("unknown engine: {other}"))),
                }
            }
            "--rdma-shuffle" => config.shuffle_engine = ShuffleEngineKind::Rdma,
            "--zipf-exponent" => config.zipf_exponent = parse_f64(flag, value(it, flag)?)?,
            "--seed" => config.seed = parse_num(value(it, flag)?)?,
            "--fail-prob" => {
                let p = parse_prob(value(it, flag)?)?;
                config.faults.map_failure_prob = p;
                config.faults.reduce_failure_prob = p;
            }
            "--fetch-fail-prob" => config.faults.fetch_failure_prob = parse_prob(value(it, flag)?)?,
            "--crash" => config
                .faults
                .node_crashes
                .push(parse_crash(value(it, flag)?)?),
            "--slowdown" => config
                .faults
                .node_slowdowns
                .push(parse_slowdown(value(it, flag)?)?),
            "--max-attempts" => config.max_attempts = parse_u32(flag, value(it, flag)?)?,
            "--speculative" => config.speculative = true,
            "--timeline" => self.timeline = true,
            _ => return Ok(false),
        }
        Ok(true)
    }
}

/// A non-negative integer; `_` separators are allowed (`1_000`).
pub fn parse_num(s: &str) -> Result<u64, Error> {
    s.replace('_', "")
        .parse::<u64>()
        .map_err(|e| Error::usage(format!("bad number '{s}': {e}")))
}

/// A [`parse_num`] that must fit `u32`, as task counts do: a wider
/// value is refused, not truncated.
pub fn parse_u32(flag: &str, s: &str) -> Result<u32, Error> {
    u32::try_from(parse_num(s)?)
        .map_err(|_| Error::usage(format!("{flag} {s} exceeds {}", u32::MAX)))
}

/// A floating-point flag value.
pub fn parse_f64(flag: &str, s: &str) -> Result<f64, Error> {
    s.parse()
        .map_err(|e| Error::usage(format!("bad {flag} value '{s}': {e}")))
}

/// `n` units of `unit` as a byte count; a config error (exit 3) when it
/// overflows `u64`.
pub fn total_bytes(flag: &str, n: u64, unit: ByteSize) -> Result<ByteSize, Error> {
    n.checked_mul(unit.as_bytes())
        .map(ByteSize::from_bytes)
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
fn parse_crash(s: &str) -> Result<NodeCrash, Error> {
    let (node, at) = s
        .split_once('@')
        .ok_or_else(|| Error::usage(format!("--crash wants NODE@SECS, got '{s}'")))?;
    Ok(NodeCrash {
        node: parse_num(node)? as usize,
        at_secs: parse_f64("--crash", at)?,
    })
}

/// Parse `NODE:FACTOR`, e.g. `0:2.5`.
fn parse_slowdown(s: &str) -> Result<NodeSlowdown, Error> {
    let (node, factor) = s
        .split_once(':')
        .ok_or_else(|| Error::usage(format!("--slowdown wants NODE:FACTOR, got '{s}'")))?;
    Ok(NodeSlowdown {
        node: parse_num(node)? as usize,
        factor: parse_f64("--slowdown", factor)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrbench::{BackendKind, DataType};

    fn parse(args: &[&str]) -> Result<Cli, Error> {
        let v: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        super::parse(&v).map(|(_, cli)| cli)
    }

    #[test]
    fn defaults() {
        let cli = parse(&[]).unwrap();
        assert_eq!(cli.config.benchmark, MicroBenchmark::Avg);
        assert_eq!(cli.config.interconnect, Interconnect::IpoibQdr);
        assert_eq!(cli.config.backend, BackendKind::Des);
        assert!(!cli.compare);
        assert!(!cli.timeline);
        assert!(!cli.config.trace);
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
            &["--zipf-exponent", "steep"],
            &["--backend", "quantum"],
            &["--backend"],
            // Task counts are u32: a wider value is refused, not truncated.
            &["--maps", "4294967297"],
            &["--reduces", "4294967296"],
            &["--max-attempts", "4294967297"],
            // The timeline is a single run's.
            &["--compare", "--timeline"],
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
    fn total_bytes_is_exact_up_to_u64() {
        let mib = ByteSize::from_mib(1);
        let top = u64::MAX >> 20;
        let bytes = total_bytes("--shuffle-mb", top, mib).unwrap();
        assert_eq!(bytes.as_bytes(), top << 20);
        for n in [top + 1, u64::MAX] {
            let err = total_bytes("--shuffle-mb", n, mib).unwrap_err();
            assert_eq!(err.exit_code(), 3, "{err}");
        }
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
    fn invalid_monitor_interval_is_a_config_error_exit_3() {
        // The parser accepts any float; validation rejects non-positive /
        // non-finite intervals and the runner surfaces that as
        // `Error::Config`, whose documented exit code is 3 — the contract
        // the mrbench binary relies on.
        for bad in ["0", "-1.5", "NaN", "inf"] {
            let cli = parse(&["--monitor-interval", bad]).unwrap();
            let msg = cli.config.validate().unwrap_err();
            assert!(msg.contains("monitor interval"), "{bad}: {msg}");
            let err = mrbench::run(&cli.config).unwrap_err();
            assert!(matches!(err, Error::Config(_)), "{bad}: {err:?}");
            assert_eq!(err.exit_code(), 3, "{bad}");
        }
        // A positive finite interval still passes end to end.
        let cli = parse(&["--monitor-interval", "0.25"]).unwrap();
        cli.config.validate().unwrap();
    }
}
