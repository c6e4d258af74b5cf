//! multijob — multi-job streams over a shared (optionally rack-aware)
//! fabric.
//!
//! Drives [`mrbench::multijob`]: a seeded Poisson stream of MR-AVG jobs
//! (Cluster A nodes, IPoIB QDR, the figures' engine model), N tenants
//! competing for slots under Hadoop Fair-scheduler semantics, and every
//! concurrent shuffle sharing one flow-level network. Writes a standalone
//! `mrbench-multijob-v1` JSON artifact with per-tenant p50/p95/p99 job
//! times.
//!
//! ```text
//! cargo run --release -p mrbench-bench --bin multijob -- \
//!     [--quick] [--out PATH] [--slaves N] [--racks N] \
//!     [--oversubscription F] [--jobs N] [--tenants N] [--maps N] \
//!     [--reduces N] [--shuffle-mb MB] [--mean-gap SECS] [--seed N]
//! ```

// Wall-clock timing reports how fast the host ran the (deterministic)
// workload; simulated results never vary with it.
#![allow(clippy::disallowed_methods)]

use std::process::ExitCode;
use std::time::Instant;

use mrbench::multijob::{self, ArrivalProcess, MultiJobSpec, TenantSpec};
use mrbench::{atomic_write, BenchConfig, Error, Interconnect, MicroBenchmark};
use mrbench_bench::cli::{parse_f64, parse_num, parse_u32, total_bytes};
use mrbench_bench::{exit_code, value};
use simcore::jobj;
use simcore::json::Json;
use simcore::units::ByteSize;

const USAGE: &str = "\
usage: multijob [--quick] [--out PATH] [--slaves N] [--racks N]
                [--oversubscription F] [--jobs N] [--tenants N]
                [--maps N] [--reduces N] [--shuffle-mb MB]
                [--mean-gap SECS] [--seed N] [-h, --help]
Runs a seeded multi-tenant job stream over a shared
rack-aware network and writes an mrbench-multijob-v1
JSON artifact (default BENCH_multijob.json).
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    exit_code("multijob", USAGE, real_main(&args))
}

fn real_main(args: &[String]) -> Result<ExitCode, Error> {
    let mut quick = false;
    let mut out = "BENCH_multijob.json".to_string();
    let mut slaves = 64usize;
    let mut racks = 1usize;
    let mut oversubscription = 1.0f64;
    let mut jobs = 24usize;
    let mut tenants = 3usize;
    let mut maps = 8u32;
    let mut reduces = 4u32;
    let mut shuffle_mb = 128u64;
    let mut mean_gap_s = 2.0f64;
    let mut seed = 42u64;

    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let flag = arg.as_str();
        match flag {
            "--quick" => quick = true,
            "--out" => out = value(&mut it, flag)?.to_string(),
            "--slaves" => slaves = parse_num(value(&mut it, flag)?)? as usize,
            "--racks" => racks = parse_num(value(&mut it, flag)?)? as usize,
            "--oversubscription" => oversubscription = parse_f64(flag, value(&mut it, flag)?)?,
            "--jobs" => jobs = parse_num(value(&mut it, flag)?)? as usize,
            "--tenants" => tenants = parse_num(value(&mut it, flag)?)? as usize,
            "--maps" => maps = parse_u32(flag, value(&mut it, flag)?)?,
            "--reduces" => reduces = parse_u32(flag, value(&mut it, flag)?)?,
            "--shuffle-mb" => shuffle_mb = parse_num(value(&mut it, flag)?)?,
            "--mean-gap" => mean_gap_s = parse_f64(flag, value(&mut it, flag)?)?,
            "--seed" => seed = parse_num(value(&mut it, flag)?)?,
            "-h" | "--help" => return Err(Error::Help(USAGE.to_string())),
            other => return Err(Error::usage(format!("unknown argument '{other}'"))),
        }
    }
    if quick {
        jobs = jobs.min(12);
        shuffle_mb = shuffle_mb.min(64);
    }

    let mut job = BenchConfig::cluster_a_default(
        MicroBenchmark::Avg,
        Interconnect::IpoibQdr,
        total_bytes("--shuffle-mb", shuffle_mb, ByteSize::from_mib(1))?,
    );
    job.slaves = slaves;
    job.racks = racks;
    job.oversubscription = oversubscription;
    job.num_maps = maps;
    job.num_reduces = reduces;
    job.seed = seed;
    let spec = MultiJobSpec {
        job,
        tenants: (0..tenants)
            .map(|t| TenantSpec {
                name: format!("tenant-{t}"),
                weight: (t + 1) as f64,
            })
            .collect(),
        n_jobs: jobs,
        arrivals: ArrivalProcess::Poisson { mean_gap_s },
    };

    let start = Instant::now();
    let result = multijob::run(&spec)?;
    let wall_s = start.elapsed().as_secs_f64();

    let mut doc = jobj! {
        "schema": "mrbench-multijob-v1",
        "quick": quick,
        "config": jobj! {
            "slaves": slaves as u64,
            "racks": racks as u64,
            "oversubscription": oversubscription,
            "jobs": jobs as u64,
            "tenants": tenants as u64,
            "maps_per_job": maps,
            "reduces_per_job": reduces,
            "shuffle_mb_per_job": shuffle_mb,
            "mean_gap_s": mean_gap_s,
            "seed": seed,
        },
        "wall_s": wall_s,
    };
    if let (Json::Obj(fields), Json::Obj(result_fields)) = (&mut doc, result.to_json()) {
        fields.extend(result_fields);
    }
    atomic_write(std::path::Path::new(&out), &doc.to_pretty())?;
    println!(
        "wrote {out} ({} jobs, makespan {:.1}s simulated, {:.2}s wall)",
        result.jobs_completed, result.makespan_s, wall_s
    );
    Ok(ExitCode::SUCCESS)
}
