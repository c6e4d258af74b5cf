//! User-facing benchmark configuration (paper Sect. 4.1 "configurable
//! parameters").
//!
//! A [`BenchConfig`] bundles every knob the suite exposes: the
//! micro-benchmark (intermediate data distribution), key/value geometry,
//! data type, task counts, cluster shape, interconnect, and engine. It
//! converts to the engine's [`JobSpec`] via [`BenchConfig::job_spec`].

use cluster::{ClusterPreset, NodeSpec};
use mapreduce::conf::{EngineKind, JobConf, ShuffleEngineKind};
use mapreduce::io::DataType;
use mapreduce::job::JobSpec;
use mapreduce::FaultPlan;
use simcore::jobj;
use simcore::json::Json;
use simcore::units::ByteSize;
use simnet::Interconnect;

use crate::bench::MicroBenchmark;

/// Stable artifact token for an interconnect; the inverse of
/// [`parse_network`].
pub(crate) fn interconnect_token(ic: Interconnect) -> &'static str {
    match ic {
        Interconnect::GigE1 => "1gige",
        Interconnect::GigE10 => "10gige",
        Interconnect::IpoibQdr => "ipoib-qdr",
        Interconnect::IpoibFdr => "ipoib-fdr",
        Interconnect::RdmaFdr => "rdma-fdr",
    }
}

/// Parse an interconnect name as the command line and the artifacts
/// spell them.
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

/// Which execution backend evaluates a [`BenchConfig`].
///
/// The default discrete-event simulation replays the full MapReduce
/// pipeline event by event; the analytic backend evaluates Herodotou-style
/// closed-form per-phase cost equations instead (see
/// `mapreduce::analytic`), trading per-task fidelity for microsecond
/// evaluation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum BackendKind {
    /// The discrete-event simulator (`mrbench::run_des`).
    #[default]
    Des,
    /// The closed-form analytic cost model (`mapreduce::analytic`).
    Analytic,
}

impl BackendKind {
    /// Stable CLI/artifact token.
    pub fn label(self) -> &'static str {
        match self {
            BackendKind::Des => "des",
            BackendKind::Analytic => "analytic",
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for BackendKind {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "des" | "sim" | "simulator" => Ok(BackendKind::Des),
            "analytic" | "analytical" | "model" => Ok(BackendKind::Analytic),
            other => Err(format!("unknown backend: {other} (want des|analytic)")),
        }
    }
}

/// A model ablation (the `ablation` binary): one modelling mechanism
/// removed, or one tuning reset to stock Hadoop, so its weight in a
/// result can be measured. Only the DES can run one.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Ablation {
    /// The calibrated model, named so its runs are labelled as the
    /// ablation study's reference.
    Baseline,
    /// No OS page cache: spill I/O hits the spindles synchronously.
    NoPageCache,
    /// No endpoint protocol CPU charged per shuffled byte.
    NoProtocolCpu,
    /// Stock `io.sort.mb = 100` instead of the suite's 256.
    DefaultSortMb,
    /// Stock 2 map slots per TaskTracker instead of the suite's 4.
    TwoMapSlots,
    /// No pipelined shuffle/merge overlap.
    NoMergeOverlap,
}

impl Ablation {
    /// Every ablation, baseline first.
    pub const ALL: [Ablation; 6] = [
        Ablation::Baseline,
        Ablation::NoPageCache,
        Ablation::NoProtocolCpu,
        Ablation::DefaultSortMb,
        Ablation::TwoMapSlots,
        Ablation::NoMergeOverlap,
    ];

    /// Stable artifact token.
    pub fn token(self) -> &'static str {
        match self {
            Ablation::Baseline => "baseline",
            Ablation::NoPageCache => "no-page-cache",
            Ablation::NoProtocolCpu => "no-protocol-cpu",
            Ablation::DefaultSortMb => "default-sort-mb",
            Ablation::TwoMapSlots => "two-map-slots",
            Ablation::NoMergeOverlap => "no-merge-overlap",
        }
    }
}

impl std::str::FromStr for Ablation {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let known = Ablation::ALL.into_iter().find(|a| a.token() == s);
        known.ok_or_else(|| format!("unknown ablation '{s}'"))
    }
}

/// How much intermediate data the job generates.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ShuffleVolume {
    /// Explicit pairs per map task.
    PairsPerMap(u64),
    /// Target total shuffle size; pairs per map are derived.
    TotalBytes(ByteSize),
}

/// Full description of one micro-benchmark run.
#[derive(Clone, Debug)]
pub struct BenchConfig {
    /// Which of the three micro-benchmarks to run.
    pub benchmark: MicroBenchmark,
    /// Key payload size in bytes.
    pub key_size: usize,
    /// Value payload size in bytes.
    pub value_size: usize,
    /// Intermediate data volume.
    pub volume: ShuffleVolume,
    /// Writable data type for keys and values.
    pub data_type: DataType,
    /// Number of map tasks.
    pub num_maps: u32,
    /// Number of reduce tasks.
    pub num_reduces: u32,
    /// Number of slave nodes.
    pub slaves: usize,
    /// Which testbed the slaves model.
    pub cluster: ClusterPreset,
    /// Network interconnect/protocol.
    pub interconnect: Interconnect,
    /// MRv1 or YARN.
    pub engine: EngineKind,
    /// Socket or RDMA (MRoIB) shuffle.
    pub shuffle_engine: ShuffleEngineKind,
    /// Master seed.
    pub seed: u64,
    /// Zipf exponent for the MR-ZIPF extension benchmark (ignored by the
    /// paper's three benchmarks). 0 = uniform, 1 = classic Zipf.
    pub zipf_exponent: f64,
    /// Fault-injection plan (empty = fault-free run).
    pub faults: FaultPlan,
    /// Attempts allowed per task before the job aborts.
    pub max_attempts: u32,
    /// Hadoop-style speculative execution for stragglers.
    pub speculative: bool,
    /// Record per-task phase spans during the run (`--trace`). Excluded
    /// from the JSON encoding: it selects an output, not a workload, so
    /// two configs differing only here are the same experiment.
    pub trace: bool,
    /// Watchdog ceiling on engine events before the run aborts with
    /// `budget-exceeded` (`--max-events`). `None` is unlimited.
    pub max_events: Option<u64>,
    /// Watchdog ceiling on simulated seconds (`--max-sim-secs`). `None`
    /// is unlimited.
    pub max_sim_secs: Option<f64>,
    /// Number of racks the slaves are grouped into (`--racks`). 1 models
    /// the paper's single-switch crossbar.
    pub racks: usize,
    /// Rack uplink oversubscription factor (`--oversubscription`): the
    /// sum of member NIC rates over the uplink rate. 1.0 is non-blocking
    /// and adds no network constraint.
    pub oversubscription: f64,
    /// Aggregate core-fabric capacity in MB/s (`--fabric-cap`). `None`
    /// models a non-blocking core.
    pub fabric_cap_mb_s: Option<f64>,
    /// Sampling interval of the per-node throughput/CPU monitors in
    /// seconds (`--monitor-interval`). The paper's Fig. 7(b) uses 1 Hz;
    /// sub-second `--quick` jobs need a finer interval for a usable
    /// series.
    pub monitor_interval_s: f64,
    /// Which execution backend evaluates this config (`--backend`):
    /// the discrete-event simulator (default) or the closed-form
    /// analytic cost model.
    pub backend: BackendKind,
    /// The model ablation this run measures, if any (set only by the
    /// `ablation` binary; no CLI flag).
    pub ablation: Option<Ablation>,
}

impl BenchConfig {
    /// The configuration the paper uses for most Cluster A experiments:
    /// 16 maps / 8 reduces on 4 slaves, 1 KiB key/value pairs of
    /// `BytesWritable`, over the given interconnect.
    pub fn cluster_a_default(
        benchmark: MicroBenchmark,
        interconnect: Interconnect,
        shuffle: ByteSize,
    ) -> Self {
        BenchConfig {
            benchmark,
            key_size: 1024,
            value_size: 1024,
            volume: ShuffleVolume::TotalBytes(shuffle),
            data_type: DataType::BytesWritable,
            num_maps: 16,
            num_reduces: 8,
            slaves: 4,
            cluster: ClusterPreset::ClusterA,
            interconnect,
            engine: EngineKind::MRv1,
            shuffle_engine: ShuffleEngineKind::Tcp,
            seed: 0x5EED_2014,
            zipf_exponent: 1.0,
            faults: FaultPlan::none(),
            max_attempts: 4,
            speculative: false,
            trace: false,
            max_events: None,
            max_sim_secs: None,
            racks: 1,
            oversubscription: 1.0,
            fabric_cap_mb_s: None,
            monitor_interval_s: 1.0,
            backend: BackendKind::Des,
            ablation: None,
        }
    }

    /// The paper's YARN configuration (Fig. 3): 32 maps / 16 reduces on 8
    /// slaves of Cluster A.
    pub fn yarn_default(
        benchmark: MicroBenchmark,
        interconnect: Interconnect,
        shuffle: ByteSize,
    ) -> Self {
        BenchConfig {
            num_maps: 32,
            num_reduces: 16,
            slaves: 8,
            engine: EngineKind::Yarn,
            ..BenchConfig::cluster_a_default(benchmark, interconnect, shuffle)
        }
    }

    /// The Sect. 6 case-study configuration on Cluster B (Stampede):
    /// 32 maps / 16 reduces, IPoIB FDR or RDMA FDR.
    pub fn cluster_b_case_study(
        interconnect: Interconnect,
        shuffle: ByteSize,
        slaves: usize,
    ) -> Self {
        let shuffle_engine = if interconnect == Interconnect::RdmaFdr {
            ShuffleEngineKind::Rdma
        } else {
            ShuffleEngineKind::Tcp
        };
        BenchConfig {
            num_maps: 32,
            num_reduces: 16,
            slaves,
            cluster: ClusterPreset::ClusterB,
            engine: EngineKind::Yarn,
            shuffle_engine,
            ..BenchConfig::cluster_a_default(MicroBenchmark::Avg, interconnect, shuffle)
        }
    }

    /// The node hardware for this config.
    pub fn node_spec(&self) -> NodeSpec {
        self.cluster.node_spec()
    }

    /// The partitioner factory for this config's benchmark.
    pub fn factory(&self) -> Box<dyn mapreduce::job::PartitionerFactory> {
        self.benchmark.factory_with(self.zipf_exponent)
    }

    /// Convert to the engine's job description.
    ///
    /// The suite ships the `mapred-site.xml` tuning the OSU testbeds used
    /// for gigabyte-scale map outputs: `io.sort.mb = 256` (fewer spill
    /// rounds) and 4 map / 2 reduce slots per TaskTracker so the paper's
    /// 16-map runs complete in a single wave per node pair. The
    /// [`Ablation`]s of stock tuning undo one of these.
    pub fn job_spec(&self) -> JobSpec {
        let mut conf = JobConf {
            num_maps: self.num_maps,
            num_reduces: self.num_reduces,
            io_sort_mb: ByteSize::from_mib(256),
            map_slots_per_node: 4,
            reduce_slots_per_node: 2,
            engine: self.engine,
            shuffle_engine: self.shuffle_engine,
            seed: self.seed,
            faults: self.faults.clone(),
            max_attempts: self.max_attempts,
            speculative: self.speculative,
            max_events: self.max_events,
            max_sim_time_s: self.max_sim_secs,
            monitor_interval_s: self.monitor_interval_s,
            ..JobConf::default()
        };
        match self.ablation {
            Some(Ablation::DefaultSortMb) => conf.io_sort_mb = ByteSize::from_mib(100),
            Some(Ablation::TwoMapSlots) => conf.map_slots_per_node = 2,
            _ => {}
        }
        let mut spec = JobSpec {
            conf,
            key_size: self.key_size,
            value_size: self.value_size,
            pairs_per_map: 1,
            data_type: self.data_type,
            output_write_amplification: 0.0,
        };
        match self.volume {
            ShuffleVolume::PairsPerMap(n) => spec.pairs_per_map = n,
            ShuffleVolume::TotalBytes(total) => spec.set_shuffle_size(total),
        }
        spec
    }

    /// Total shuffle bytes this config will generate.
    pub fn shuffle_bytes(&self) -> ByteSize {
        self.job_spec().total_shuffle_bytes()
    }

    /// The network topology this config describes: a flat crossbar by
    /// default, rack-structured and/or fabric-capped when the topology
    /// knobs are set.
    pub fn topology(&self) -> simnet::Topology {
        let mut t = simnet::Topology::single_switch(self.slaves, self.interconnect);
        if self.racks > 1 || self.oversubscription > 1.0 {
            t = t.with_racks(self.racks, self.oversubscription);
        }
        if let Some(mb_s) = self.fabric_cap_mb_s {
            t = t.with_fabric_cap(simcore::units::Rate::from_mb_per_sec(mb_s));
        }
        t
    }

    /// Validate the configuration.
    pub fn validate(&self) -> Result<(), String> {
        if self.slaves == 0 {
            return Err("need at least one slave".into());
        }
        if self.num_reduces < 3 && self.benchmark == MicroBenchmark::Skew {
            // MR-SKEW's fixed pattern names three reducers.
            return Err("MR-SKEW needs at least 3 reducers".into());
        }
        if self.benchmark == MicroBenchmark::Zipf
            && !(self.zipf_exponent.is_finite() && self.zipf_exponent >= 0.0)
        {
            return Err("MR-ZIPF exponent must be finite and >= 0".into());
        }
        if self.racks == 0 {
            return Err("need at least one rack".into());
        }
        if self.racks > self.slaves {
            return Err(format!(
                "more racks ({}) than slaves ({})",
                self.racks, self.slaves
            ));
        }
        if !(self.oversubscription.is_finite() && self.oversubscription >= 1.0) {
            return Err(format!(
                "oversubscription factor must be finite and >= 1.0, got {}",
                self.oversubscription
            ));
        }
        if let Some(cap) = self.fabric_cap_mb_s {
            if !(cap.is_finite() && cap > 0.0) {
                return Err(format!("fabric cap must be positive MB/s, got {cap}"));
            }
        }
        // Fault-plan node indices must name real slaves (the engine asserts
        // this; surface it as a config error instead).
        for c in &self.faults.node_crashes {
            if c.node >= self.slaves {
                return Err(format!(
                    "crash plan names node {} but the cluster has {} slaves",
                    c.node, self.slaves
                ));
            }
        }
        for s in &self.faults.node_slowdowns {
            if s.node >= self.slaves {
                return Err(format!(
                    "slowdown plan names node {} but the cluster has {} slaves",
                    s.node, self.slaves
                ));
            }
        }
        // `job_spec` divides the shuffle volume by the map count.
        if self.num_maps == 0 {
            return Err("num_maps must be at least 1".into());
        }
        if self.num_reduces == 0 {
            return Err("num_reduces must be at least 1".into());
        }
        self.job_spec().validate()
    }

    /// Serialize to JSON. Enum fields use their stable CLI/report
    /// tokens; the volume is tagged by kind.
    ///
    /// Knobs added after the first artifacts shipped (`racks`,
    /// `oversubscription`, `fabric_cap_mb_s`, `monitor_interval_s`,
    /// `backend`, `ablation`) are emitted only when they differ from their
    /// defaults, so pre-existing artifacts — and the content-addressed
    /// store digests derived from this encoding — stay byte-identical.
    pub fn to_json(&self) -> Json {
        let mut doc = jobj! {
            "benchmark": self.benchmark.label(),
            "key_size": self.key_size,
            "value_size": self.value_size,
            "volume": match self.volume {
                ShuffleVolume::PairsPerMap(n) => jobj! { "pairs_per_map": n },
                ShuffleVolume::TotalBytes(b) => jobj! { "total_bytes": b.as_bytes() },
            },
            "data_type": self.data_type.label(),
            "num_maps": self.num_maps,
            "num_reduces": self.num_reduces,
            "slaves": self.slaves,
            "cluster": match self.cluster {
                ClusterPreset::ClusterA => "a",
                ClusterPreset::ClusterB => "b",
            },
            "interconnect": interconnect_token(self.interconnect),
            "engine": match self.engine {
                EngineKind::MRv1 => "mrv1",
                EngineKind::Yarn => "yarn",
            },
            "shuffle_engine": match self.shuffle_engine {
                ShuffleEngineKind::Tcp => "tcp",
                ShuffleEngineKind::Rdma => "rdma",
            },
            "seed": self.seed,
            "zipf_exponent": self.zipf_exponent,
            "faults": self.faults.to_json(),
            "max_attempts": self.max_attempts,
            "speculative": self.speculative,
            "max_events": match self.max_events {
                Some(n) => Json::from(n),
                None => Json::Null,
            },
            "max_sim_secs": match self.max_sim_secs {
                Some(s) => Json::from(s),
                None => Json::Null,
            },
        };
        if let Json::Obj(fields) = &mut doc {
            if self.racks != 1 {
                fields.push(("racks".into(), Json::from(self.racks as u64)));
            }
            if self.oversubscription != 1.0 {
                fields.push(("oversubscription".into(), Json::from(self.oversubscription)));
            }
            if let Some(cap) = self.fabric_cap_mb_s {
                fields.push(("fabric_cap_mb_s".into(), Json::from(cap)));
            }
            if self.monitor_interval_s != 1.0 {
                fields.push((
                    "monitor_interval_s".into(),
                    Json::from(self.monitor_interval_s),
                ));
            }
            if self.backend != BackendKind::Des {
                fields.push(("backend".into(), Json::from(self.backend.label())));
            }
            if let Some(a) = self.ablation {
                fields.push(("ablation".into(), Json::from(a.token())));
            }
        }
        doc
    }

    /// Rebuild from the [`BenchConfig::to_json`] encoding.
    pub fn from_json(json: &Json) -> Result<Self, String> {
        let volume = json.req("volume")?;
        let volume = if let Some(n) = volume.get("pairs_per_map") {
            ShuffleVolume::PairsPerMap(n.as_u64().ok_or("bad pairs_per_map")?)
        } else {
            ShuffleVolume::TotalBytes(ByteSize::from_bytes(volume.field_u64("total_bytes")?))
        };
        Ok(BenchConfig {
            benchmark: json.field_str("benchmark")?.parse()?,
            key_size: json.field_usize("key_size")?,
            value_size: json.field_usize("value_size")?,
            volume,
            data_type: json.field_str("data_type")?.parse()?,
            num_maps: json.field_u32("num_maps")?,
            num_reduces: json.field_u32("num_reduces")?,
            slaves: json.field_usize("slaves")?,
            cluster: match json.field_str("cluster")? {
                "a" => ClusterPreset::ClusterA,
                "b" => ClusterPreset::ClusterB,
                other => return Err(format!("unknown cluster '{other}'")),
            },
            interconnect: parse_network(json.field_str("interconnect")?)?,
            engine: match json.field_str("engine")? {
                "mrv1" => EngineKind::MRv1,
                "yarn" => EngineKind::Yarn,
                other => return Err(format!("unknown engine '{other}'")),
            },
            shuffle_engine: match json.field_str("shuffle_engine")? {
                "tcp" => ShuffleEngineKind::Tcp,
                "rdma" => ShuffleEngineKind::Rdma,
                other => return Err(format!("unknown shuffle engine '{other}'")),
            },
            seed: json.field_u64("seed")?,
            zipf_exponent: json.field_f64("zipf_exponent")?,
            faults: FaultPlan::from_json(json.req("faults")?)?,
            max_attempts: json.field_u32("max_attempts")?,
            speculative: json.field_bool("speculative")?,
            trace: false,
            // Fields added after the first artifacts shipped are absent
            // from older documents, and from newer ones at their defaults.
            max_events: json.opt_field("max_events", Json::as_u64)?,
            max_sim_secs: json.opt_field("max_sim_secs", Json::as_f64)?,
            racks: json.opt_field("racks", Json::as_usize)?.unwrap_or(1),
            oversubscription: json
                .opt_field("oversubscription", Json::as_f64)?
                .unwrap_or(1.0),
            fabric_cap_mb_s: json.opt_field("fabric_cap_mb_s", Json::as_f64)?,
            monitor_interval_s: json
                .opt_field("monitor_interval_s", Json::as_f64)?
                .unwrap_or(1.0),
            backend: json
                .opt_field("backend", Json::as_str)?
                .map_or(Ok(BackendKind::Des), str::parse)?,
            ablation: json
                .opt_field("ablation", Json::as_str)?
                .map(str::parse)
                .transpose()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn network_aliases() {
        assert_eq!(parse_network("1g").unwrap(), Interconnect::GigE1);
        assert_eq!(parse_network("QDR").unwrap(), Interconnect::IpoibQdr);
        assert_eq!(parse_network("ib").unwrap(), Interconnect::RdmaFdr);
        for ic in Interconnect::ALL {
            assert_eq!(parse_network(interconnect_token(ic)).unwrap(), ic);
        }
        assert!(parse_network("carrier-pigeon").is_err());
    }

    #[test]
    fn cluster_a_default_matches_paper() {
        let c = BenchConfig::cluster_a_default(
            MicroBenchmark::Avg,
            Interconnect::IpoibQdr,
            ByteSize::from_gib(16),
        );
        assert_eq!(c.num_maps, 16);
        assert_eq!(c.num_reduces, 8);
        assert_eq!(c.slaves, 4);
        assert_eq!(c.key_size, 1024);
        assert_eq!(c.data_type, DataType::BytesWritable);
        c.validate().unwrap();
        // Derived pairs hit the target volume within one record per map.
        let total = c.shuffle_bytes().as_bytes() as f64;
        let target = ByteSize::from_gib(16).as_bytes() as f64;
        assert!((total - target).abs() / target < 0.001);
    }

    #[test]
    fn yarn_default_matches_paper() {
        let c = BenchConfig::yarn_default(
            MicroBenchmark::Rand,
            Interconnect::GigE10,
            ByteSize::from_gib(16),
        );
        assert_eq!(c.num_maps, 32);
        assert_eq!(c.num_reduces, 16);
        assert_eq!(c.slaves, 8);
        assert_eq!(c.engine, EngineKind::Yarn);
    }

    #[test]
    fn case_study_uses_rdma_engine_only_for_rdma() {
        let r = BenchConfig::cluster_b_case_study(Interconnect::RdmaFdr, ByteSize::from_gib(16), 8);
        assert_eq!(r.shuffle_engine, ShuffleEngineKind::Rdma);
        let i =
            BenchConfig::cluster_b_case_study(Interconnect::IpoibFdr, ByteSize::from_gib(16), 8);
        assert_eq!(i.shuffle_engine, ShuffleEngineKind::Tcp);
        assert_eq!(i.cluster, ClusterPreset::ClusterB);
    }

    #[test]
    fn zero_tasks_are_rejected_before_the_job_spec_is_built() {
        for (maps, reduces) in [(0, 8), (16, 0), (0, 0)] {
            let mut c = BenchConfig::cluster_a_default(
                MicroBenchmark::Avg,
                Interconnect::GigE1,
                ByteSize::from_mib(64),
            );
            c.num_maps = maps;
            c.num_reduces = reduces;
            let err = c.validate().unwrap_err();
            assert!(err.contains("at least 1"), "{maps}M-{reduces}R: {err}");
        }
    }

    #[test]
    fn skew_needs_three_reducers() {
        let mut c = BenchConfig::cluster_a_default(
            MicroBenchmark::Skew,
            Interconnect::GigE1,
            ByteSize::from_gib(1),
        );
        c.num_reduces = 2;
        assert!(c.validate().is_err());
        c.num_reduces = 3;
        c.validate().unwrap();
    }

    #[test]
    fn fault_plan_is_validated_and_forwarded() {
        let mut c = BenchConfig::cluster_a_default(
            MicroBenchmark::Avg,
            Interconnect::GigE1,
            ByteSize::from_gib(1),
        );
        c.faults.map_failure_prob = 1.5;
        assert!(c.validate().is_err());
        c.faults.map_failure_prob = 0.1;
        // Fault-plan node indices beyond the cluster are config errors,
        // not engine panics.
        c.faults.node_crashes.push(mapreduce::NodeCrash {
            node: 9,
            at_secs: 1.0,
        });
        assert!(c.validate().unwrap_err().contains("9"));
        c.faults.node_crashes.clear();
        c.faults.node_slowdowns.push(mapreduce::NodeSlowdown {
            node: 7,
            factor: 2.0,
        });
        assert!(c.validate().unwrap_err().contains("7"));
        c.faults.node_slowdowns.clear();
        c.speculative = true;
        c.max_attempts = 2;
        c.validate().unwrap();
        let conf = c.job_spec().conf;
        assert_eq!(conf.faults, c.faults);
        assert_eq!(conf.max_attempts, 2);
        assert!(conf.speculative);
    }

    #[test]
    fn json_round_trip_preserves_every_field() {
        let mut c =
            BenchConfig::cluster_b_case_study(Interconnect::RdmaFdr, ByteSize::from_gib(16), 8);
        c.benchmark = MicroBenchmark::Zipf;
        c.zipf_exponent = 0.75;
        c.speculative = true;
        c.faults.fetch_failure_prob = 0.05;
        c.faults.node_slowdowns.push(mapreduce::NodeSlowdown {
            node: 3,
            factor: 2.5,
        });
        c.faults.fail_first_attempt_maps = vec![0, 7];
        let text = c.to_json().to_pretty();
        let back = BenchConfig::from_json(&Json::parse(&text).unwrap()).unwrap();
        // The encoding is canonical: re-serializing the decoded config
        // reproduces the same document, so every field round-tripped.
        assert_eq!(back.to_json().to_pretty(), text);
        assert_eq!(back.benchmark, MicroBenchmark::Zipf);
        assert_eq!(back.interconnect, Interconnect::RdmaFdr);
        assert_eq!(back.shuffle_engine, ShuffleEngineKind::Rdma);
        assert_eq!(back.faults, c.faults);
        assert_eq!(back.volume, c.volume);

        // PairsPerMap volumes round-trip through their own tag.
        c.volume = ShuffleVolume::PairsPerMap(4096);
        let back = BenchConfig::from_json(&c.to_json()).unwrap();
        assert_eq!(back.volume, ShuffleVolume::PairsPerMap(4096));
    }

    #[test]
    fn topology_fields_round_trip_and_stay_out_of_default_docs() {
        // Defaults are omitted from the document, so artifacts written
        // before the topology fields existed keep their exact bytes (and
        // FNV store digests).
        let c = BenchConfig::cluster_a_default(
            MicroBenchmark::Avg,
            Interconnect::GigE1,
            ByteSize::from_gib(1),
        );
        let text = c.to_json().to_pretty();
        for absent in [
            "racks",
            "oversubscription",
            "fabric_cap_mb_s",
            "monitor_interval_s",
            "backend",
        ] {
            assert!(!text.contains(absent), "{absent} leaked into {text}");
        }
        let back = BenchConfig::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.racks, 1);
        assert_eq!(back.oversubscription, 1.0);
        assert_eq!(back.fabric_cap_mb_s, None);
        assert_eq!(back.monitor_interval_s, 1.0);
        assert_eq!(back.backend, BackendKind::Des);

        // Non-default values survive the canonical round trip.
        let mut c = c;
        c.slaves = 8;
        c.racks = 4;
        c.oversubscription = 4.0;
        c.fabric_cap_mb_s = Some(1500.0);
        c.monitor_interval_s = 0.5;
        c.validate().unwrap();
        let text = c.to_json().to_pretty();
        let back = BenchConfig::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.to_json().to_pretty(), text);
        assert_eq!(back.racks, 4);
        assert_eq!(back.oversubscription, 4.0);
        assert_eq!(back.fabric_cap_mb_s, Some(1500.0));
        assert_eq!(back.monitor_interval_s, 0.5);
    }

    #[test]
    fn backend_field_round_trips_and_tags_the_document() {
        let mut c = BenchConfig::cluster_a_default(
            MicroBenchmark::Avg,
            Interconnect::GigE1,
            ByteSize::from_gib(1),
        );
        c.backend = BackendKind::Analytic;
        let text = c.to_json().to_pretty();
        assert!(text.contains("\"backend\""), "{text}");
        let back = BenchConfig::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.backend, BackendKind::Analytic);
        assert_eq!(back.to_json().to_pretty(), text);
        // Token parsing covers the CLI aliases.
        assert_eq!("des".parse::<BackendKind>().unwrap(), BackendKind::Des);
        assert_eq!(
            "ANALYTIC".parse::<BackendKind>().unwrap(),
            BackendKind::Analytic
        );
        assert!("quantum".parse::<BackendKind>().is_err());
    }

    #[test]
    fn ablation_field_round_trips_digests_apart_and_stays_out_of_default_docs() {
        let c = BenchConfig::cluster_a_default(
            MicroBenchmark::Avg,
            Interconnect::GigE1,
            ByteSize::from_gib(1),
        );
        let text = c.to_json().to_pretty();
        assert!(!text.contains("ablation"), "{text}");
        assert_eq!(BenchConfig::from_json(&c.to_json()).unwrap().ablation, None);

        let mut digests = vec![crate::store::config_digest(&c)];
        for a in Ablation::ALL {
            let mut ablated = c.clone();
            ablated.ablation = Some(a);
            let text = ablated.to_json().to_pretty();
            assert!(
                text.contains(&format!("\"ablation\": \"{}\"", a.token())),
                "{text}"
            );
            let back = BenchConfig::from_json(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(back.ablation, Some(a));
            assert_eq!(back.to_json().to_pretty(), text);
            let d = crate::store::config_digest(&ablated);
            assert!(!digests.contains(&d), "{a:?} must move the digest");
            digests.push(d);
        }
        let mut bad = c.to_json();
        if let Json::Obj(fields) = &mut bad {
            fields.push(("ablation".into(), Json::from("no-network")));
        }
        assert!(BenchConfig::from_json(&bad).is_err());
    }

    #[test]
    fn tuning_ablations_reset_the_job_conf_to_stock() {
        let mut c = BenchConfig::cluster_a_default(
            MicroBenchmark::Avg,
            Interconnect::GigE1,
            ByteSize::from_gib(1),
        );
        let tuned = c.job_spec();
        c.ablation = Some(Ablation::DefaultSortMb);
        assert_eq!(c.job_spec().conf.io_sort_mb, ByteSize::from_mib(100));
        c.ablation = Some(Ablation::TwoMapSlots);
        assert_eq!(c.job_spec().conf.map_slots_per_node, 2);
        for a in [Ablation::Baseline, Ablation::NoPageCache] {
            c.ablation = Some(a);
            let spec = c.job_spec();
            assert_eq!(spec.conf.io_sort_mb, tuned.conf.io_sort_mb);
            assert_eq!(spec.conf.map_slots_per_node, tuned.conf.map_slots_per_node);
            assert_eq!(spec.pairs_per_map, tuned.pairs_per_map);
        }
    }

    #[test]
    fn topology_builder_reflects_config() {
        let mut c = BenchConfig::cluster_a_default(
            MicroBenchmark::Avg,
            Interconnect::GigE1,
            ByteSize::from_gib(1),
        );
        c.slaves = 8;
        let flat = c.topology();
        assert_eq!(flat.n_racks(), 1);
        assert!(flat.fabric_cap().is_none());
        assert!(!flat.rack_constrained());

        c.racks = 4;
        c.oversubscription = 4.0;
        c.fabric_cap_mb_s = Some(2000.0);
        c.validate().unwrap();
        let t = c.topology();
        assert_eq!(t.n_nodes(), 8);
        assert_eq!(t.n_racks(), 4);
        assert_eq!(t.oversubscription(), 4.0);
        assert!(t.rack_constrained());
        assert_eq!(
            t.fabric_cap().map(|r| r.as_bytes_per_sec()),
            Some(2000.0 * 1e6)
        );
    }

    #[test]
    fn topology_validation_rejects_bad_values() {
        let mut c = BenchConfig::cluster_a_default(
            MicroBenchmark::Avg,
            Interconnect::GigE1,
            ByteSize::from_gib(1),
        );
        c.racks = 0;
        assert!(c.validate().is_err());
        c.racks = c.slaves + 1;
        assert!(c.validate().is_err());
        c.racks = 1;
        c.oversubscription = 0.9;
        assert!(c.validate().is_err());
        c.oversubscription = f64::NAN;
        assert!(c.validate().is_err());
        c.oversubscription = 1.0;
        c.fabric_cap_mb_s = Some(0.0);
        assert!(c.validate().is_err());
        c.fabric_cap_mb_s = None;
        c.monitor_interval_s = 0.0;
        assert!(c.validate().is_err());
        c.monitor_interval_s = 1.0;
        c.validate().unwrap();
    }

    #[test]
    fn explicit_pairs_respected() {
        let mut c = BenchConfig::cluster_a_default(
            MicroBenchmark::Avg,
            Interconnect::GigE1,
            ByteSize::from_gib(1),
        );
        c.volume = ShuffleVolume::PairsPerMap(777);
        assert_eq!(c.job_spec().pairs_per_map, 777);
    }
}
