//! Micro-benchmarks of the simulator's hot paths, on a plain
//! `std::time::Instant` harness (the workspace carries no external
//! dependencies, so criterion is out of reach).
//!
//! These benches guard the wall-clock cost of the pieces every figure
//! reproduction exercises thousands of times: the max-min fair-share
//! solver, the processor-sharing CPU model, the deterministic RNGs, the
//! partitioners' bulk assignment, the JSON layer that writes artifacts,
//! the result store's fragment codec, and a full end-to-end job. Run with
//! `cargo bench -p mrbench-bench`.

// The one place wall-clock time is legitimate: this harness measures
// real execution, not simulated time.
#![allow(clippy::disallowed_methods)]

use std::hint::black_box;
use std::time::Instant;

use cluster::CpuSim;
use mapreduce::engine::synthetic_key;
use mapreduce::partition::Partitioner;
use mrbench::partitioners::{AvgPartitioner, RandPartitioner, SkewPartitioner};
use mrbench::store::LEGACY_FRAGMENT_SCHEMA;
use mrbench::{
    config_digest, run, Artifacts, BenchConfig, BenchReport, MicroBenchmark, ResultStore, Sweep,
};
use mrbench_bench::figures::FIG2;
use simcore::event::EventQueue;
use simcore::jobj;
use simcore::json::Json;
use simcore::rng::{JavaRandom, Xoshiro256pp};
use simcore::time::SimTime;
use simcore::units::ByteSize;
use simnet::fairshare::{FairshareSolver, FlowSpec};
use simnet::{Interconnect, Network, NodeId, Topology};

/// Time `iters` runs of `f` after a small warm-up, printing ns/iter.
fn bench(name: &str, iters: u32, mut f: impl FnMut()) {
    for _ in 0..iters.div_ceil(10).min(100) {
        f();
    }
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    let total = start.elapsed();
    let per_iter = total.as_nanos() / u128::from(iters.max(1));
    println!("{name:<40} {per_iter:>12} ns/iter   ({iters} iters)");
}

fn bench_fairshare() {
    // A realistic shuffle incast: 16 nodes, 8 reducers x 5 copies.
    let mut flows = Vec::new();
    for r in 0..8usize {
        for m in 0..5usize {
            let src = (r * 3 + m) % 16;
            let dst = (r * 2 + 1) % 16;
            if src != dst {
                flows.push(FlowSpec { src, dst });
            }
        }
    }
    let caps = vec![950e6; 16];
    // A fresh solver per iteration: build, register every flow, solve.
    bench("fairshare/40_flows_16_nodes", 10_000, || {
        let mut solver = FairshareSolver::new(&caps, &caps, None);
        for (i, f) in black_box(&flows).iter().enumerate() {
            solver.add_flow(*f, i as u64);
        }
        solver.solve();
        black_box(solver.changed().len());
    });
}

fn bench_event_queue() {
    // Schedule a scattered burst, then drain it: heap push and pop in one
    // loop.
    bench("event_queue/2k_schedule_drain", 2_000, || {
        let mut q = EventQueue::with_capacity(2_048);
        for i in 0..2_000u64 {
            q.schedule(SimTime::from_nanos((i * 2_654_435_761) % 1_000_000), i);
        }
        while let Some(ev) = q.pop() {
            black_box(ev);
        }
    });
}

/// Fair-share scaling ladder: incremental churn at each flow count the
/// figure workloads span.
fn bench_fairshare_scaling() {
    for &flows in &[10usize, 100, 1_000, 10_000] {
        let nodes = (flows / 4).clamp(4, 128);
        let specs: Vec<FlowSpec> = (0..flows)
            .map(|i| {
                let src = i % nodes;
                let dst = (i * 7 + 1) % nodes;
                FlowSpec {
                    src,
                    dst: if dst == src { (dst + 1) % nodes } else { dst },
                }
            })
            .collect();
        let caps = vec![950e6; nodes];
        let iters = (200_000 / flows.max(100)) as u32;
        let mut solver = FairshareSolver::new(&caps, &caps, None);
        let keys: Vec<_> = specs
            .iter()
            .enumerate()
            .map(|(i, s)| solver.add_flow(*s, i as u64))
            .collect();
        solver.solve();
        let mut i = 0usize;
        bench(
            &format!("fairshare/incremental_{flows}_flows"),
            iters,
            || {
                // Remove + re-add one flow, re-solving after each step. The
                // LIFO free list puts the re-added flow back on the same
                // slot, so `keys` stays valid across iterations.
                let k = keys[(i * 13) % keys.len()];
                i += 1;
                let spec = solver.spec(k);
                solver.remove_flow(k);
                solver.solve();
                let k2 = solver.add_flow(spec, u64::MAX);
                solver.solve();
                black_box(solver.rate(k2));
            },
        );
    }
}

/// Processor-sharing churn: 16 nodes with 8 cores each, every node
/// oversubscribed 12:8. Each iteration steps to the next completion and
/// replaces every finished job, so it times the CPU model's share of an
/// engine step (next event, integrate, complete, submit).
fn bench_cpu() {
    let work = |i: u64| 0.5 + ((i * 2_654_435_761) % 1_000) as f64 / 400.0;
    let mut cpu = CpuSim::homogeneous(16, 8, 1.0);
    let mut tag = 0u64;
    for node in 0..16 {
        for _ in 0..12 {
            cpu.submit(SimTime::ZERO, node, work(tag), tag);
            tag += 1;
        }
    }
    bench("cpu/ps_churn", 100_000, || {
        let now = cpu.next_event_time().expect("jobs always queued");
        for c in cpu.advance_to(now) {
            cpu.submit(now, c.node, work(tag), tag);
            tag += 1;
        }
    });
}

fn bench_all_to_all() {
    // 32 nodes, 992 concurrent staggered flows run to idle: the shuffle
    // phase's dominant network pattern, small enough to keep `cargo
    // bench` turnaround short.
    let nodes = 32usize;
    bench("network/all_to_all_992_flows", 20, || {
        let mut net = Network::new(Topology::single_switch(nodes, Interconnect::IpoibQdr));
        let mut tag = 0u64;
        for s in 0..nodes {
            for d in 0..nodes {
                if s != d {
                    let kib = 1024 + ((s * 131 + d * 17) % 97) as u64 * 64;
                    net.start_flow(
                        SimTime::ZERO,
                        NodeId(s),
                        NodeId(d),
                        ByteSize::from_bytes(kib * 1024),
                        tag,
                    );
                    tag += 1;
                }
            }
        }
        let mut done = Vec::with_capacity(nodes * (nodes - 1));
        while let Some(t) = net.next_event_time() {
            net.advance_to_into(t, &mut done);
        }
        assert_eq!(done.len(), nodes * (nodes - 1));
    });
}

fn bench_rng() {
    let mut jr = JavaRandom::new(42);
    bench("rng/java_random_next_int_bound", 1_000_000, || {
        black_box(jr.next_int_bound(8));
    });
    let mut xo = Xoshiro256pp::new(42);
    bench("rng/xoshiro_next_u64", 1_000_000, || {
        black_box(xo.next_u64());
    });
}

fn bench_partitioners() {
    let mut no_keys = |_: u64, _: &mut Vec<u8>| {};
    bench("partition/avg_closed_form_1m", 10_000, || {
        let mut p = AvgPartitioner;
        black_box(p.assign_counts(1_000_000, 8, &mut no_keys));
    });
    // The engine's own key closure at the paper's 1 KiB keys, so a bulk
    // path that synthesized keys would be timed doing so.
    let mut engine_keys = |ordinal: u64, buf: &mut Vec<u8>| synthetic_key(ordinal, 8, 1024, buf);
    // 8 reducers is the MRv1 figures' shape, 16 the YARN one; both run
    // the power-of-two draw kernels. MR-RAND's 6-reducer row times the
    // per-record loop `nextInt`'s rejection keeps for other bounds.
    for (suffix, n_reducers) in [("", 8), ("_16r", 16)] {
        bench(&format!("partition/rand_bulk_100k{suffix}"), 100, || {
            let mut p = RandPartitioner::new(7);
            black_box(p.assign_counts(100_000, n_reducers, &mut engine_keys));
        });
        bench(&format!("partition/skew_bulk_100k{suffix}"), 100, || {
            let mut p = SkewPartitioner::new(7);
            black_box(p.assign_counts(100_000, n_reducers, &mut engine_keys));
        });
    }
    bench("partition/rand_bulk_100k_6r", 100, || {
        let mut p = RandPartitioner::new(7);
        black_box(p.assign_counts(100_000, 6, &mut engine_keys));
    });
}

fn bench_json() {
    // One paper-scale Fig. 2 cell (MR-AVG, 32 GB over IPoIB QDR), its
    // report as the JSON tree every writer starts from.
    let config = (FIG2.panels[0].config)(ByteSize::from_gib(32), Interconnect::IpoibQdr);
    let report = run(&config).unwrap();
    let tree = report.to_json();
    bench("json/to_pretty_report", 500, || {
        black_box(black_box(&tree).to_pretty());
    });
    // The artifact write's tree and text over six paper-scale Fig. 2(a)
    // cells, series included: build the tree, render it, drop both.
    let sizes = [8, 16, 32].map(ByteSize::from_gib);
    let networks = [Interconnect::GigE1, Interconnect::IpoibQdr];
    let sweep = Sweep::run_grid(&sizes, &networks, FIG2.panels[0].config).unwrap();
    let mut artifacts = Artifacts::new("fig2");
    artifacts.record_sweep(FIG2.panels[0].title, sweep);
    println!(
        "json/artifact_bytes_pretty {:>26}",
        artifacts.to_json().to_pretty().len()
    );
    bench("json/artifact_to_pretty", 50, || {
        black_box(black_box(&artifacts).to_json().to_pretty());
    });
    bench_store(&config, &report);
}

/// The result store's own tier: the same cell as the fragment `put`
/// writes (series as raw sample bits) and as the text-series fragment
/// earlier builds wrote, which `get` still serves.
fn bench_store(config: &BenchConfig, report: &BenchReport) {
    let digest = config_digest(config);
    let dir = std::env::temp_dir().join(format!("mrbench-bench-store-{}", std::process::id()));
    let store = ResultStore::open(&dir).unwrap();
    store.put(&digest, report).unwrap();
    let v2 = std::fs::read_to_string(store.fragment_path(&digest)).unwrap();
    let v1 = jobj! {
        "schema": LEGACY_FRAGMENT_SCHEMA,
        "digest": digest.as_str(),
        "report": report.to_json(),
    }
    .to_compact();
    println!("store/fragment_bytes_v1 {:>30}", v1.len());
    println!("store/fragment_bytes_v2 {:>30}", v2.len());
    bench("store/put_fragment", 200, || {
        store.put(black_box(&digest), black_box(report)).unwrap();
    });
    bench("json/parse_fragment", 500, || {
        black_box(Json::parse(black_box(&v2)).unwrap());
    });
    bench("json/parse_fragment_v1", 500, || {
        black_box(Json::parse(black_box(&v1)).unwrap());
    });
    bench("json/get_fragment", 500, || {
        black_box(store.get(black_box(&digest)).unwrap());
    });
    std::fs::write(store.fragment_path(&digest), &v1).unwrap();
    bench("json/get_fragment_v1", 500, || {
        black_box(store.get(black_box(&digest)).unwrap());
    });
    let _ = std::fs::remove_dir_all(&dir);
}

fn bench_end_to_end() {
    let mut config = BenchConfig::cluster_a_default(
        MicroBenchmark::Avg,
        Interconnect::IpoibQdr,
        ByteSize::from_mib(512),
    );
    config.slaves = 2;
    config.num_maps = 4;
    config.num_reduces = 4;
    bench("engine/512mib_job_4m_4r", 20, || {
        black_box(run(&config).unwrap().job_time_secs());
    });
    // The paper's full anchor cell, as the heavyweight reference point.
    let anchor = BenchConfig::cluster_a_default(
        MicroBenchmark::Avg,
        Interconnect::IpoibQdr,
        ByteSize::from_gib(16),
    );
    bench("engine/fig2_anchor_cell_16gb", 5, || {
        black_box(run(&anchor).unwrap().job_time_secs());
    });
}

fn main() {
    bench_event_queue();
    bench_fairshare();
    bench_fairshare_scaling();
    bench_cpu();
    bench_all_to_all();
    bench_rng();
    bench_partitioners();
    bench_json();
    bench_end_to_end();
}
