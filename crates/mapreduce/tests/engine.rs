//! End-to-end engine tests: full jobs over simulated clusters.

use cluster::NodeSpec;
use mapreduce::conf::{EngineKind, ShuffleEngineKind};
use mapreduce::engine::run_job;
use mapreduce::io::DataType;
use mapreduce::job::{JobSpec, PartitionerFactory};
use mapreduce::partition::Partitioner;
use mapreduce::HashPartitionerFactory;
use simcore::units::ByteSize;
use simnet::Interconnect;

fn small_spec(maps: u32, reduces: u32) -> JobSpec {
    let mut spec = JobSpec {
        key_size: 1024,
        value_size: 1024,
        pairs_per_map: 0,
        data_type: DataType::BytesWritable,
        ..JobSpec::default()
    };
    spec.conf.num_maps = maps;
    spec.conf.num_reduces = reduces;
    spec.set_shuffle_size(ByteSize::from_mib(256));
    spec
}

#[test]
fn small_job_completes() {
    let spec = small_spec(4, 2);
    let r = run_job(
        spec.clone(),
        &HashPartitionerFactory,
        NodeSpec::westmere(),
        2,
        Interconnect::GigE1,
    );
    assert_eq!(r.counters.maps_completed, 4);
    assert_eq!(r.counters.reduces_completed, 2);
    assert_eq!(
        r.counters.map_output_records,
        spec.pairs_per_map * 4,
        "every record generated"
    );
    assert_eq!(
        r.counters.reduce_input_records, r.counters.map_output_records,
        "every record shuffled and reduced"
    );
    assert_eq!(r.counters.shuffled_fetches as u32, 4 * 2);
    assert!(r.job_time_secs() > 1.0, "job takes real time");
    assert!(r.job_time_secs() < 600.0, "job terminates promptly");
    // All per-task timings are sane.
    assert_eq!(r.tasks.len(), 6);
    for t in &r.tasks {
        assert!(t.finish >= t.start);
    }
    assert!(r.map_phase_end <= r.shuffle_end);
}

#[test]
fn deterministic_across_runs() {
    let run = || {
        run_job(
            small_spec(4, 2),
            &HashPartitionerFactory,
            NodeSpec::westmere(),
            2,
            Interconnect::IpoibQdr,
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a.job_time, b.job_time);
    assert_eq!(a.counters, b.counters);
}

#[test]
fn faster_network_is_never_slower() {
    let time_on = |ic: Interconnect| {
        run_job(
            small_spec(8, 4),
            &HashPartitionerFactory,
            NodeSpec::westmere(),
            4,
            ic,
        )
        .job_time_secs()
    };
    let gige = time_on(Interconnect::GigE1);
    let tengige = time_on(Interconnect::GigE10);
    let ipoib = time_on(Interconnect::IpoibQdr);
    assert!(
        gige >= tengige && tengige >= ipoib,
        "1GigE {gige} >= 10GigE {tengige} >= IPoIB {ipoib}"
    );
}

#[test]
fn rdma_beats_ipoib() {
    let mut spec = small_spec(8, 4);
    spec.conf.engine = EngineKind::Yarn;
    let ipoib = run_job(
        spec.clone(),
        &HashPartitionerFactory,
        NodeSpec::stampede(),
        4,
        Interconnect::IpoibFdr,
    );
    let mut rdma_spec = spec;
    rdma_spec.conf.shuffle_engine = ShuffleEngineKind::Rdma;
    let rdma = run_job(
        rdma_spec,
        &HashPartitionerFactory,
        NodeSpec::stampede(),
        4,
        Interconnect::RdmaFdr,
    );
    assert!(
        rdma.job_time < ipoib.job_time,
        "rdma {} < ipoib {}",
        rdma.job_time_secs(),
        ipoib.job_time_secs()
    );
    // RDMA does not pay socket CPU.
    assert_eq!(rdma.counters.protocol_cpu_seconds, 0.0);
    assert!(ipoib.counters.protocol_cpu_seconds > 0.0);
}

#[test]
fn yarn_engine_completes() {
    let mut spec = small_spec(8, 4);
    spec.conf.engine = EngineKind::Yarn;
    let r = run_job(
        spec,
        &HashPartitionerFactory,
        NodeSpec::westmere(),
        4,
        Interconnect::GigE10,
    );
    assert_eq!(r.counters.maps_completed, 8);
    assert_eq!(r.counters.reduces_completed, 4);
}

#[test]
fn bigger_shuffle_takes_longer() {
    let time_for = |mib: u64| {
        let mut spec = small_spec(4, 2);
        spec.set_shuffle_size(ByteSize::from_mib(mib));
        run_job(
            spec,
            &HashPartitionerFactory,
            NodeSpec::westmere(),
            2,
            Interconnect::GigE1,
        )
        .job_time_secs()
    };
    let t1 = time_for(128);
    let t2 = time_for(512);
    let t3 = time_for(1024);
    assert!(t1 < t2 && t2 < t3, "{t1} {t2} {t3}");
}

#[test]
fn monitors_capture_activity() {
    let r = run_job(
        small_spec(4, 2),
        &HashPartitionerFactory,
        NodeSpec::westmere(),
        2,
        Interconnect::GigE1,
    );
    assert_eq!(r.cpu_series.len(), 2);
    assert_eq!(r.net_rx_series.len(), 2);
    // Some CPU was used on some node at some point.
    let peak_cpu = r
        .cpu_series
        .iter()
        .filter_map(|s| s.peak())
        .fold(0.0f64, f64::max);
    assert!(peak_cpu > 5.0, "peak cpu {peak_cpu}%");
    // Some network receive activity was observed.
    let peak_rx = r
        .net_rx_series
        .iter()
        .filter_map(|s| s.peak())
        .fold(0.0f64, f64::max);
    assert!(peak_rx > 1.0, "peak rx {peak_rx} MB/s");
}

#[test]
fn single_node_cluster_uses_loopback_only() {
    let r = run_job(
        small_spec(2, 1),
        &HashPartitionerFactory,
        NodeSpec::westmere(),
        1,
        Interconnect::GigE1,
    );
    assert_eq!(r.counters.remote_shuffle_bytes, 0);
    assert!(r.counters.local_shuffle_bytes > 0);
}

#[test]
fn text_type_shuffles_fewer_bytes() {
    let run_with = |dt: DataType| {
        let mut spec = small_spec(4, 2);
        spec.data_type = dt;
        spec.pairs_per_map = 10_000;
        run_job(
            spec,
            &HashPartitionerFactory,
            NodeSpec::westmere(),
            2,
            Interconnect::GigE1,
        )
    };
    let bytes = run_with(DataType::BytesWritable);
    let text = run_with(DataType::Text);
    assert!(
        text.counters.map_output_materialized_bytes < bytes.counters.map_output_materialized_bytes
    );
}

/// A deliberately broken bulk path: one count short of the reducers.
struct MisSized;

impl Partitioner for MisSized {
    fn partition(&mut self, _key: &[u8], _ordinal: u64, _n_reducers: u32) -> u32 {
        0
    }

    fn assign_counts(
        &mut self,
        n_records: u64,
        n_reducers: u32,
        _key_of: &mut dyn FnMut(u64, &mut Vec<u8>),
    ) -> Vec<u64> {
        let mut counts = vec![0; n_reducers as usize - 1];
        counts[0] = n_records;
        counts
    }
}

struct MisSizedFactory;

impl PartitionerFactory for MisSizedFactory {
    fn create(&self, _map_index: u32, _seed: u64) -> Box<dyn Partitioner> {
        Box::new(MisSized)
    }
    fn name(&self) -> &str {
        "mis-sized"
    }
}

#[test]
#[should_panic(expected = "invariant violated: map 0's partitioner returned 1 counts")]
fn mis_sized_partition_counts_trip_the_invariant() {
    run_job(
        small_spec(2, 2),
        &MisSizedFactory,
        NodeSpec::westmere(),
        2,
        Interconnect::GigE1,
    );
}
