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
use simcore::jobj;
use simcore::json::Json;
use simcore::units::ByteSize;

fn main() -> ExitCode {
    match real_main() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("multijob: {e}");
            ExitCode::from(e.exit_code())
        }
    }
}

fn real_main() -> Result<(), Error> {
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

    let mut args = std::env::args().skip(1);
    let value = |args: &mut dyn Iterator<Item = String>, name: &str| -> Result<String, Error> {
        args.next()
            .ok_or_else(|| Error::usage(format!("{name} needs a value")))
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--out" => out = value(&mut args, "--out")?,
            "--slaves" => slaves = parse(&value(&mut args, "--slaves")?, "--slaves")?,
            "--racks" => racks = parse(&value(&mut args, "--racks")?, "--racks")?,
            "--oversubscription" => {
                oversubscription = parse(
                    &value(&mut args, "--oversubscription")?,
                    "--oversubscription",
                )?
            }
            "--jobs" => jobs = parse(&value(&mut args, "--jobs")?, "--jobs")?,
            "--tenants" => tenants = parse(&value(&mut args, "--tenants")?, "--tenants")?,
            "--maps" => maps = parse(&value(&mut args, "--maps")?, "--maps")?,
            "--reduces" => reduces = parse(&value(&mut args, "--reduces")?, "--reduces")?,
            "--shuffle-mb" => {
                shuffle_mb = parse(&value(&mut args, "--shuffle-mb")?, "--shuffle-mb")?
            }
            "--mean-gap" => mean_gap_s = parse(&value(&mut args, "--mean-gap")?, "--mean-gap")?,
            "--seed" => seed = parse(&value(&mut args, "--seed")?, "--seed")?,
            "--help" | "-h" => {
                println!(
                    "multijob [--quick] [--out PATH] [--slaves N] [--racks N]\n\
                     \x20        [--oversubscription F] [--jobs N] [--tenants N]\n\
                     \x20        [--maps N] [--reduces N] [--shuffle-mb MB]\n\
                     \x20        [--mean-gap SECS] [--seed N]\n\
                     Runs a seeded multi-tenant job stream over a shared\n\
                     rack-aware network and writes an mrbench-multijob-v1\n\
                     JSON artifact (default BENCH_multijob.json)."
                );
                return Ok(());
            }
            other => return Err(Error::usage(format!("unknown flag {other}"))),
        }
    }
    if quick {
        jobs = jobs.min(12);
        shuffle_mb = shuffle_mb.min(64);
    }

    let mut job = BenchConfig::cluster_a_default(
        MicroBenchmark::Avg,
        Interconnect::IpoibQdr,
        mib(shuffle_mb)?,
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
    Ok(())
}

/// `MiB` mebibytes as a byte count, or a config error when that
/// overflows `u64`.
fn mib(mb: u64) -> Result<ByteSize, Error> {
    mb.checked_mul(ByteSize::from_mib(1).as_bytes())
        .map(ByteSize::from_bytes)
        .ok_or_else(|| Error::config(format!("--shuffle-mb {mb} overflows a 64-bit byte count")))
}

fn parse<T: std::str::FromStr>(s: &str, flag: &str) -> Result<T, Error>
where
    T::Err: std::fmt::Display,
{
    s.parse()
        .map_err(|e| Error::usage(format!("bad {flag} value: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shuffle_mib_past_u64_bytes_is_a_config_error() {
        assert_eq!(mib(u64::MAX).unwrap_err().exit_code(), 3);
        let top = u64::MAX >> 20;
        assert_eq!(mib(top).unwrap().as_bytes(), top << 20);
        assert_eq!(mib(top + 1).unwrap_err().exit_code(), 3);
    }
}
