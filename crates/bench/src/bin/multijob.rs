//! multijob — multi-job streams over a shared (optionally rack-aware)
//! fabric.
//!
//! Drives [`mapreduce::multijob`]: a seeded Poisson job-arrival stream,
//! N tenants competing for slots under Hadoop Fair-scheduler semantics,
//! and every concurrent shuffle sharing one flow-level network. Writes a
//! standalone `mrbench-multijob-v1` JSON artifact with per-tenant
//! p50/p95/p99 job times.
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

use mapreduce::multijob::{self, ArrivalProcess, MultiJobSpec, TenantSpec};
use mrbench::{atomic_write, Error};
use simcore::jobj;
use simcore::json::Json;
use simcore::units::ByteSize;
use simnet::{Interconnect, Topology};

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
    let mut maps = 8usize;
    let mut reduces = 4usize;
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

    let spec = MultiJobSpec {
        topology: topology(slaves, racks, oversubscription)?,
        tenants: (0..tenants)
            .map(|t| TenantSpec {
                name: format!("tenant-{t}"),
                weight: (t + 1) as f64,
            })
            .collect(),
        n_jobs: jobs,
        arrivals: ArrivalProcess::Poisson { mean_gap_s },
        slots_per_node: 2,
        maps_per_job: maps,
        reduces_per_job: reduces,
        shuffle_bytes_per_job: ByteSize::from_mib(shuffle_mb),
        map_service_s: 1.0,
        reduce_service_s: 0.5,
        seed,
    };
    spec.validate().map_err(Error::Config)?;

    let start = Instant::now();
    let result = multijob::run(&spec);
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
            "maps_per_job": maps as u64,
            "reduces_per_job": reduces as u64,
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

/// The shared fabric. Checks what `Topology` asserts, so bad flags are a
/// config error (exit 3) rather than a panic.
fn topology(slaves: usize, racks: usize, oversubscription: f64) -> Result<Topology, Error> {
    if slaves == 0 {
        return Err(Error::config("need at least one slave"));
    }
    let flat = Topology::single_switch(slaves, Interconnect::IpoibQdr);
    if !(racks > 1 || oversubscription > 1.0) {
        return Ok(flat);
    }
    if !((1..=slaves).contains(&racks) && oversubscription.is_finite() && oversubscription >= 1.0) {
        return Err(Error::config(format!(
            "need 1 to {slaves} racks and a finite oversubscription >= 1.0, \
             got {racks} racks at {oversubscription}"
        )));
    }
    Ok(flat.with_racks(racks, oversubscription))
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
    fn bad_topology_flags_are_config_errors() {
        for (slaves, racks, oversubscription) in [
            (0, 1, 1.0),
            (0, 4, 4.0),
            (2, 5, 1.0),
            (4, 0, 4.0),
            (4, 2, f64::INFINITY),
            (4, 2, f64::NAN),
            (4, 2, 0.5),
        ] {
            let err = topology(slaves, racks, oversubscription).unwrap_err();
            assert_eq!(
                err.exit_code(),
                3,
                "{slaves}/{racks}/{oversubscription}: {err}"
            );
        }
        assert_eq!(topology(8, 1, 1.0).unwrap().n_racks(), 1);
        assert_eq!(topology(8, 4, 2.0).unwrap().n_racks(), 4);
    }
}
