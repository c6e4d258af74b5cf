//! Multi-job streams on the one engine.
//!
//! A stream submits `n_jobs` copies of one [`BenchConfig`], each with a
//! seed derived from the template's, to the engine behind Figs. 2–8
//! ([`Engine::stream`]): seeded Poisson (or trace-driven) arrivals,
//! tenants assigned round-robin and weighted by the Fair scheduler, every
//! shuffle on one network. This module owns only what a stream adds:
//! arrivals, tenants, validation and per-tenant job-time percentiles.

use mapreduce::engine::{Engine, StreamJob, ATTEMPT_SLOTS};
use mapreduce::job::JobResult;
use mapreduce::EngineKind;
use simcore::jobj;
use simcore::json::Json;
use simcore::rng::SeedFactory;
use simcore::time::{SimDuration, SimTime};

use crate::config::{BackendKind, BenchConfig};
use crate::error::Error;

/// How jobs enter the system.
#[derive(Clone, Debug)]
pub enum ArrivalProcess {
    /// Exponential inter-arrival times with the given mean, drawn from
    /// the template's seed (stream `"multijob.arrivals"`).
    Poisson {
        /// Mean inter-arrival gap in seconds.
        mean_gap_s: f64,
    },
    /// Explicit arrival offsets in seconds from the start of the run.
    /// Jobs beyond the trace reuse its last gap.
    Trace(Vec<f64>),
}

/// One tenant in the fair-share arbiter.
#[derive(Clone, Debug)]
pub struct TenantSpec {
    /// Display name (artifact key).
    pub name: String,
    /// Fair-scheduler weight; slots are granted to minimize
    /// `running / weight`.
    pub weight: f64,
}

/// A stream of identical jobs over a shared cluster.
#[derive(Clone, Debug)]
pub struct MultiJobSpec {
    /// The job every arrival submits: cluster, topology, workload and
    /// the seed the stream's seeds derive from.
    pub job: BenchConfig,
    /// Competing tenants; jobs are assigned round-robin in arrival order.
    pub tenants: Vec<TenantSpec>,
    /// Total jobs across all tenants.
    pub n_jobs: usize,
    /// Arrival process.
    pub arrivals: ArrivalProcess,
}

impl MultiJobSpec {
    /// Reject a stream the engine cannot run, with a readable message.
    pub fn validate(&self) -> Result<(), String> {
        if self.tenants.is_empty() {
            return Err("need at least one tenant".into());
        }
        for t in &self.tenants {
            if !(t.weight.is_finite() && t.weight > 0.0) {
                return Err(format!(
                    "tenant {} weight must be finite and positive, got {}",
                    t.name, t.weight
                ));
            }
        }
        if self.n_jobs == 0 {
            return Err("need at least one job".into());
        }
        let job = &self.job;
        job.validate()?;
        // What the Fair arbiter does not model, a stream refuses rather
        // than silently ignores.
        let refused = [
            (!job.faults.is_empty(), "fault injection"),
            (job.speculative, "speculative execution"),
            (job.trace, "tracing"),
            (
                job.max_events.is_some() || job.max_sim_secs.is_some(),
                "watchdog budgets",
            ),
            (job.engine == EngineKind::Yarn, "YARN"),
            (job.backend != BackendKind::Des, "the analytic backend"),
        ];
        if let Some((_, what)) = refused.iter().find(|(on, _)| *on) {
            return Err(format!("streams cannot model {what}"));
        }
        let tasks = u64::from(job.num_maps) + u64::from(job.num_reduces);
        if (self.n_jobs as u64)
            .checked_mul(tasks)
            .is_none_or(|t| t > ATTEMPT_SLOTS)
        {
            return Err(format!(
                "{} jobs of {tasks} tasks overflow the engine's {ATTEMPT_SLOTS} \
                 attempt slots",
                self.n_jobs
            ));
        }
        // Every job fetches its records plus one IFile trailer a segment.
        let records = job.job_spec().total_shuffle_bytes().as_bytes();
        let segments = u64::from(job.num_maps) * u64::from(job.num_reduces);
        let per_job = segments
            .checked_mul(mapreduce::ifile::SEGMENT_OVERHEAD)
            .and_then(|trailers| records.checked_add(trailers));
        if per_job
            .and_then(|b| b.checked_mul(self.n_jobs as u64))
            .is_none()
        {
            return Err(format!(
                "{} jobs of {records} shuffle bytes overflow a 64-bit byte count",
                self.n_jobs
            ));
        }
        match &self.arrivals {
            ArrivalProcess::Poisson { mean_gap_s } => {
                if !(mean_gap_s.is_finite() && *mean_gap_s >= 0.0) {
                    return Err("Poisson mean gap must be finite and >= 0".into());
                }
            }
            ArrivalProcess::Trace(offsets) => {
                let ordered = offsets
                    .iter()
                    .try_fold(0.0, |prev, &o| (o.is_finite() && o >= prev).then_some(o));
                if offsets.is_empty() || ordered.is_none() {
                    return Err("arrival trace must be non-empty, finite and non-decreasing".into());
                }
            }
        }
        Ok(())
    }

    /// Job `j`'s config: the template with a seed of its own.
    fn job_config(&self, j: usize) -> BenchConfig {
        let mut config = self.job.clone();
        config.seed = SeedFactory::new(self.job.seed).seed_for(&format!("job-{j}"));
        config
    }
}

/// Per-tenant percentile summary, the payload of the
/// `mrbench-multijob-v1` artifact's `tenants` array.
///
/// **Empty-sample rule:** a tenant that completed zero jobs has no job
/// times, so its percentiles are *undefined* — reported as `NaN` here
/// and `null` in the JSON (the suite's standing NaN convention), never
/// as a numeric placeholder a plot could mistake for a measured time.
/// Consumers must gate on `jobs > 0` before reading the percentiles.
/// With exactly one job, nearest-rank makes p50 = p95 = p99 = that
/// job's time.
#[derive(Clone, Debug, PartialEq)]
pub struct TenantReport {
    /// Tenant name.
    pub tenant: String,
    /// Jobs this tenant completed. `0` means the percentiles below are
    /// `NaN` (see the empty-sample rule above).
    pub jobs: usize,
    /// Median job time (arrival to end of job), seconds.
    pub p50_s: f64,
    /// 95th-percentile job time, seconds.
    pub p95_s: f64,
    /// 99th-percentile job time, seconds.
    pub p99_s: f64,
}

impl TenantReport {
    /// Canonical JSON object for the artifact.
    pub fn to_json(&self) -> Json {
        jobj! {
            "tenant": self.tenant.clone(),
            "jobs": self.jobs as u64,
            "p50_s": self.p50_s,
            "p95_s": self.p95_s,
            "p99_s": self.p99_s,
        }
    }
}

/// Outcome of a multi-job run.
#[derive(Clone, Debug)]
pub struct MultiJobResult {
    /// Per-tenant percentile reports, in tenant order.
    pub tenants: Vec<TenantReport>,
    /// End of the last job, seconds.
    pub makespan_s: f64,
    /// Total jobs completed (always `spec.n_jobs`).
    pub jobs_completed: usize,
    /// Shuffle bytes every job fetched, remote and local: what the
    /// shared network delivered.
    pub shuffled_bytes: u64,
}

impl MultiJobResult {
    /// The result portion of the `mrbench-multijob-v1` document.
    pub fn to_json(&self) -> Json {
        jobj! {
            "makespan_s": self.makespan_s,
            "jobs_completed": self.jobs_completed as u64,
            "shuffled_bytes": self.shuffled_bytes,
            "tenants": Json::Arr(self.tenants.iter().map(TenantReport::to_json).collect()),
        }
    }
}

/// Nearest-rank percentile of a sorted sample (q in [0, 1]); `NaN` for
/// an empty one, so a zero-job tenant can never masquerade as one with
/// instantaneous jobs (see the [`TenantReport`] docs).
fn percentile(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    if n == 0 {
        return f64::NAN;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// Each job's arrival instant, in job order.
fn arrival_times(spec: &MultiJobSpec) -> Result<Vec<SimTime>, Error> {
    let mut offsets_s = Vec::with_capacity(spec.n_jobs);
    match &spec.arrivals {
        ArrivalProcess::Poisson { mean_gap_s } => {
            let mut rng = SeedFactory::new(spec.job.seed).stream("multijob.arrivals");
            let mut t = 0.0;
            for _ in 0..spec.n_jobs {
                offsets_s.push(t);
                // Inverse-CDF draw; 1 - u keeps ln's argument in (0, 1].
                t += -mean_gap_s * (1.0 - rng.next_f64()).ln();
            }
        }
        ArrivalProcess::Trace(offsets) => {
            let last_gap = match offsets.as_slice() {
                [.., a, b] => b - a,
                _ => 0.0,
            };
            let mut t = 0.0;
            for j in 0..spec.n_jobs {
                t = offsets.get(j).copied().unwrap_or(t + last_gap);
                offsets_s.push(t);
            }
        }
    }
    // `SimDuration::from_secs_f64` saturates at the top of the `u64`-ns
    // range, so reaching it counts as running past it.
    offsets_s
        .into_iter()
        .map(|s| {
            Some(SimTime::ZERO.saturating_add(SimDuration::from_secs_f64(s)))
                .filter(|&t| t < SimTime::MAX)
                .ok_or_else(|| {
                    Error::config("arrivals run past the simulated clock's range (~584 years)")
                })
        })
        .collect()
}

/// Run every job of the stream on one engine; one result per job.
fn simulate(spec: &MultiJobSpec, arrivals: &[SimTime]) -> Vec<JobResult> {
    let factory = spec.job.factory();
    let jobs = arrivals
        .iter()
        .enumerate()
        .map(|(j, &arrival)| StreamJob {
            spec: spec.job_config(j).job_spec(),
            factory: factory.as_ref(),
            tenant: j % spec.tenants.len(),
            arrival,
        })
        .collect();
    let weights: Vec<f64> = spec.tenants.iter().map(|t| t.weight).collect();
    Engine::stream(jobs, &weights, spec.job.node_spec(), spec.job.topology()).run_all()
}

/// Run a multi-job stream to completion.
///
/// Fails with [`Error::Config`] (exit 3) when the spec does not pass
/// [`MultiJobSpec::validate`], or when the stream runs past the
/// simulated clock's range.
pub fn run(spec: &MultiJobSpec) -> Result<MultiJobResult, Error> {
    spec.validate().map_err(Error::Config)?;
    let arrivals = arrival_times(spec)?;
    let results = simulate(spec, &arrivals);

    let mut job_times: Vec<Vec<f64>> = vec![Vec::new(); spec.tenants.len()];
    let mut makespan = SimDuration::ZERO;
    let mut shuffled_bytes = 0u64;
    for (j, (r, &arrival)) in results.iter().zip(&arrivals).enumerate() {
        if let Some(d) = &r.failure {
            // Streams refuse fault plans: a job fails only when the run
            // passes the simulated clock's range.
            return Err(Error::Config(format!("job {j}: {}", d.reason)));
        }
        job_times[j % spec.tenants.len()].push(r.job_time_secs());
        makespan = makespan.max(arrival.since(SimTime::ZERO) + r.job_time);
        shuffled_bytes += r.counters.remote_shuffle_bytes + r.counters.local_shuffle_bytes;
    }

    let tenants = spec
        .tenants
        .iter()
        .zip(job_times)
        .map(|(ts, mut times)| {
            times.sort_by(f64::total_cmp);
            TenantReport {
                tenant: ts.name.clone(),
                jobs: times.len(),
                p50_s: percentile(&times, 0.50),
                p95_s: percentile(&times, 0.95),
                p99_s: percentile(&times, 0.99),
            }
        })
        .collect();

    Ok(MultiJobResult {
        tenants,
        makespan_s: makespan.as_secs_f64(),
        jobs_completed: results.len(),
        shuffled_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench::MicroBenchmark;
    use simcore::units::ByteSize;
    use simnet::Interconnect;

    /// Twelve MR-AVG jobs of 64 MiB (4 maps, 2 reduces) from two tenants
    /// on 8 slaves over 1GigE, arriving every 2 s on average.
    fn spec() -> MultiJobSpec {
        let mut job = BenchConfig::cluster_a_default(
            MicroBenchmark::Avg,
            Interconnect::GigE1,
            ByteSize::from_mib(64),
        );
        job.slaves = 8;
        job.num_maps = 4;
        job.num_reduces = 2;
        job.seed = 42;
        MultiJobSpec {
            job,
            tenants: vec![
                TenantSpec {
                    name: "alpha".into(),
                    weight: 1.0,
                },
                TenantSpec {
                    name: "beta".into(),
                    weight: 1.0,
                },
            ],
            n_jobs: 12,
            arrivals: ArrivalProcess::Poisson { mean_gap_s: 2.0 },
        }
    }

    #[test]
    fn completes_every_job_and_reports_all_tenants() {
        let s = spec();
        let r = run(&s).unwrap();
        assert_eq!(r.jobs_completed, 12);
        assert_eq!(r.tenants.len(), 2);
        assert_eq!(r.tenants[0].jobs + r.tenants[1].jobs, 12);
        for t in &r.tenants {
            assert!(
                t.p50_s > 0.0 && t.p50_s <= t.p95_s && t.p95_s <= t.p99_s,
                "{t:?}"
            );
        }
        assert!(r.makespan_s > 0.0);
        // Every job fetches all of its map output: each of its 8 map x
        // reduce segments carries its records plus the IFile trailer.
        let job = s.job.job_spec();
        let per_job = job.total_shuffle_bytes().as_bytes() + 8 * mapreduce::ifile::SEGMENT_OVERHEAD;
        assert_eq!(r.shuffled_bytes, 12 * per_job);
    }

    #[test]
    fn deterministic_across_runs() {
        let s = spec();
        let a = run(&s).unwrap();
        let b = run(&s).unwrap();
        assert_eq!(a.makespan_s.to_bits(), b.makespan_s.to_bits());
        for (x, y) in a.tenants.iter().zip(&b.tenants) {
            assert_eq!(x.p50_s.to_bits(), y.p50_s.to_bits());
            assert_eq!(x.p95_s.to_bits(), y.p95_s.to_bits());
            assert_eq!(x.p99_s.to_bits(), y.p99_s.to_bits());
        }
    }

    #[test]
    fn seed_changes_the_outcome() {
        let s = spec();
        let mut s2 = s.clone();
        s2.job.seed = 43;
        let a = run(&s).unwrap();
        let b = run(&s2).unwrap();
        assert_ne!(a.makespan_s.to_bits(), b.makespan_s.to_bits());
    }

    #[test]
    fn oversubscription_stretches_the_stream() {
        let mut s = spec();
        // Saturate: everything arrives at once.
        s.arrivals = ArrivalProcess::Trace(vec![0.0]);
        s.job.volume = crate::config::ShuffleVolume::TotalBytes(ByteSize::from_mib(256));
        let flat = run(&s).unwrap();
        let mut racked = s.clone();
        racked.job.racks = 2;
        racked.job.oversubscription = 8.0;
        let r = run(&racked).unwrap();
        assert!(
            r.makespan_s > flat.makespan_s,
            "racked {} vs flat {}",
            r.makespan_s,
            flat.makespan_s
        );
    }

    #[test]
    fn heavier_tenant_gets_better_percentiles_under_contention() {
        let mut s = spec();
        s.tenants[1].weight = 8.0;
        // Saturated backlog so the arbiter, not the arrival process,
        // decides who waits.
        s.arrivals = ArrivalProcess::Trace(vec![0.0]);
        s.n_jobs = 24;
        let r = run(&s).unwrap();
        assert!(
            r.tenants[1].p95_s < r.tenants[0].p95_s,
            "beta(w=8) {:?} vs alpha(w=1) {:?}",
            r.tenants[1],
            r.tenants[0]
        );
    }

    #[test]
    fn trace_arrivals_are_respected() {
        let mut s = spec();
        s.n_jobs = 3;
        s.arrivals = ArrivalProcess::Trace(vec![0.0, 5.0, 10.0]);
        let r = run(&s).unwrap();
        assert_eq!(r.jobs_completed, 3);
        // The last job cannot finish before it arrives.
        assert!(r.makespan_s > 10.0);
    }

    #[test]
    fn zero_job_tenant_reports_nan_percentiles_not_garbage() {
        // One job, two tenants: round-robin assignment starves beta.
        let mut s = spec();
        s.n_jobs = 1;
        let r = run(&s).unwrap();
        assert_eq!(r.jobs_completed, 1);
        let beta = &r.tenants[1];
        assert_eq!(beta.jobs, 0);
        assert!(
            beta.p50_s.is_nan() && beta.p95_s.is_nan() && beta.p99_s.is_nan(),
            "empty sample must have undefined percentiles: {beta:?}"
        );
        // The serialized JSON keeps all five keys — downstream schema
        // checks key the exact set — with the percentiles written as
        // null (the writer's non-finite rule), never 0.0.
        let j = Json::parse(&beta.to_json().to_compact()).unwrap();
        assert_eq!(j.field_u64("jobs").unwrap(), 0);
        for key in ["p50_s", "p95_s", "p99_s"] {
            assert!(
                matches!(j.req(key).unwrap(), Json::Null),
                "{key} must be null for a zero-job tenant"
            );
            assert!(j.field_f64_or_nan(key).unwrap().is_nan());
        }
    }

    #[test]
    fn one_job_tenant_collapses_all_percentiles_onto_its_time() {
        // Two jobs over two tenants: each tenant completes exactly one.
        let mut s = spec();
        s.n_jobs = 2;
        let r = run(&s).unwrap();
        for t in &r.tenants {
            assert_eq!(t.jobs, 1, "{t:?}");
            assert!(t.p50_s > 0.0);
            assert_eq!(t.p50_s.to_bits(), t.p95_s.to_bits(), "{t:?}");
            assert_eq!(t.p95_s.to_bits(), t.p99_s.to_bits(), "{t:?}");
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.50), 2.0);
        assert_eq!(percentile(&v, 0.95), 4.0);
        assert_eq!(percentile(&v, 0.25), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn rejects_bad_specs() {
        let mut s = spec();
        s.tenants.clear();
        assert!(s.validate().is_err());
        let mut s = spec();
        s.tenants[0].weight = 0.0;
        assert!(s.validate().is_err());
        let mut s = spec();
        s.n_jobs = 0;
        assert!(s.validate().is_err());
        let mut s = spec();
        s.arrivals = ArrivalProcess::Trace(vec![1.0, 0.5]);
        assert!(s.validate().is_err());
        // The template itself must be a valid job.
        let mut s = spec();
        s.job.slaves = 0;
        assert!(s.validate().is_err());
    }

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
            let mut s = spec();
            s.job.slaves = slaves;
            s.job.racks = racks;
            s.job.oversubscription = oversubscription;
            let err = run(&s).unwrap_err();
            assert_eq!(
                err.exit_code(),
                3,
                "{slaves}/{racks}/{oversubscription}: {err}"
            );
        }
    }

    #[test]
    fn streams_refuse_what_the_arbiter_cannot_model() {
        type Tweak = fn(&mut BenchConfig);
        let refusals: [(&str, Tweak); 6] = [
            ("fault injection", |c| c.faults.map_failure_prob = 0.1),
            ("speculative", |c| c.speculative = true),
            ("tracing", |c| c.trace = true),
            ("watchdog", |c| c.max_events = Some(1000)),
            ("YARN", |c| c.engine = EngineKind::Yarn),
            ("analytic", |c| c.backend = BackendKind::Analytic),
        ];
        for (what, tweak) in refusals {
            let mut s = spec();
            tweak(&mut s.job);
            let err = run(&s).unwrap_err();
            assert_eq!(err.exit_code(), 3, "{what}: {err}");
            assert!(err.to_string().contains(what), "{what}: {err}");
        }
    }

    #[test]
    fn huge_arrival_gaps_are_errors_not_panics() {
        // A drawn arrival past the clock's range used to saturate, and the
        // first task's end then wrapped (release) or overflowed (debug).
        for mean_gap_s in [1e12, 1e300] {
            let mut s = spec();
            s.arrivals = ArrivalProcess::Poisson { mean_gap_s };
            assert!(s.validate().is_ok());
            let err = run(&s).unwrap_err().to_string();
            assert!(err.contains("clock's range"), "{mean_gap_s}: {err}");
        }
        // A trace offset just inside the range still fails once the
        // job's tasks run past it.
        let mut s = spec();
        s.n_jobs = 1;
        s.arrivals = ArrivalProcess::Trace(vec![(SimTime::MAX.as_nanos() / 1_000_000_000) as f64]);
        let err = run(&s).unwrap_err();
        assert_eq!(err.exit_code(), 3);
        assert!(err.to_string().contains("clock's range"), "{err}");
    }

    #[test]
    fn transfers_past_the_clock_range_are_errors_not_hangs() {
        // One map of u64::MAX bytes would number ~8.6e10 spill chunks in
        // a 32-bit field; validation refuses it before anything runs.
        let mut s = spec();
        s.n_jobs = 1;
        s.job.num_maps = 1;
        s.job.num_reduces = 1;
        s.job.volume = crate::config::ShuffleVolume::TotalBytes(ByteSize::from_bytes(u64::MAX));
        let err = run(&s).unwrap_err();
        assert_eq!(err.exit_code(), 3);
        assert!(err.to_string().contains("32-bit chunk number"), "{err}");
    }

    #[test]
    fn shuffle_volumes_overflowing_u64_are_rejected() {
        let mut s = spec();
        // Enough maps that each one's spill chunks stay numberable.
        s.job.num_maps = 32;
        s.n_jobs = 2;
        s.job.volume = crate::config::ShuffleVolume::TotalBytes(ByteSize::from_bytes(u64::MAX));
        let err = s.validate().unwrap_err();
        assert!(err.contains("overflow"), "{err}");
        assert_eq!(
            run(&s).unwrap_err().to_string(),
            Error::Config(err).to_string()
        );
        // One job of the same volume fits.
        s.n_jobs = 1;
        assert!(s.validate().is_ok());
        // So does the largest stream total.
        s.n_jobs = 3;
        s.job.volume = crate::config::ShuffleVolume::TotalBytes(ByteSize::from_bytes(u64::MAX / 3));
        assert!(s.validate().is_ok());
        // Task counts count too: a stream past the engine's attempt slots.
        let mut s = spec();
        s.n_jobs = 1_000_000_000_000;
        let err = s.validate().unwrap_err();
        assert!(err.contains("attempt slots"), "{err}");
        s.n_jobs = (ATTEMPT_SLOTS / 6) as usize;
        assert!(s.validate().is_ok());
        s.n_jobs += 1;
        assert!(s.validate().is_err());
    }

    #[test]
    fn tenant_report_json_shape() {
        let t = TenantReport {
            tenant: "alpha".into(),
            jobs: 5,
            p50_s: 1.5,
            p95_s: 2.5,
            p99_s: 3.5,
        };
        let j = t.to_json();
        assert_eq!(j.field_str("tenant").unwrap(), "alpha");
        assert_eq!(j.field_u64("jobs").unwrap(), 5);
        assert_eq!(j.field_f64("p95_s").unwrap(), 2.5);
    }

    /// A lone job arriving at t = 0 runs exactly as the single-job path.
    fn assert_lone_stream_matches_run(job: BenchConfig) {
        let mut s = spec();
        s.job = job;
        s.n_jobs = 1;
        let streamed = simulate(&s, &[SimTime::ZERO]);
        let solo = crate::run(&s.job_config(0)).unwrap();
        assert_eq!(streamed.len(), 1);
        assert_eq!(
            streamed[0].to_json().to_compact(),
            solo.result.to_json().to_compact()
        );
    }

    #[test]
    fn a_lone_stream_job_matches_the_single_job_engine() {
        // A Fig. 2 cell (MR-AVG, 16 maps / 8 reduces on 4 Cluster A
        // slaves), at the figures' quick scale...
        assert_lone_stream_matches_run(BenchConfig::cluster_a_default(
            MicroBenchmark::Avg,
            Interconnect::GigE1,
            ByteSize::from_mib(512),
        ));
        // ...and a racked, oversubscribed MR-RAND cell.
        let mut racked = BenchConfig::cluster_a_default(
            MicroBenchmark::Rand,
            Interconnect::IpoibQdr,
            ByteSize::from_mib(512),
        );
        racked.slaves = 8;
        racked.racks = 2;
        racked.oversubscription = 4.0;
        assert_lone_stream_matches_run(racked);
    }
}
