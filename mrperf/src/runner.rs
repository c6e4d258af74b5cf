//! Set-up, the closed-loop timed phase, correctness checks and the
//! end-to-end metrics of one workload.
//!
//! A run repeats set-up and reports its median, then measures whole
//! passes over the cell table until `seconds` have elapsed: `threads`
//! workers each claim the next cell and time one call to
//! [`Sweep::run_grid_with`] on a 1×1 grid with `threads: 1` and the
//! pass's store. The worker that completes a pass writes the pass's
//! artifact (one panel per cell), as a figure binary's `--json` does;
//! that write counts toward the wall time but not toward any cell's
//! latency. Correctness checks that cost more than a comparison run after
//! the timed phase.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mapreduce::counters::Counters;
use mrbench::artifact::Panel;
use mrbench::store::{config_digest, fnv1a_128};
use mrbench::{atomic_write, Artifacts, Error, ResultStore, Sweep, SweepOptions};
use simcore::time::SimDuration;

use crate::layers::{self, LayerMetrics, SpanLog};
use crate::stats;
use crate::workloads::{dispatch_order, Cell, Workload};

/// `setup_s` is the median of at least this many set-ups...
const SETUP_MIN_REPEATS: usize = 5;
/// ...repeated until they took this long together. A DES set-up takes
/// well under a millisecond; packed into a fraction of a second, all of
/// a run's set-ups met one host speed, and the medians of runs split in
/// two modes 1.9x apart.
const SETUP_MIN_S: f64 = 2.0;

/// Whole passes a timed phase runs at least, so every cell has a second
/// sample. The host this was tuned on slows by up to 1.5x for seconds to
/// minutes at a time; a pass 20 s later usually misses the spell.
const MIN_PASSES: usize = 2;

/// How to run one workload.
#[derive(Clone, Debug)]
pub struct RunOptions {
    /// The workload.
    pub workload: Workload,
    /// Seed for job seeds and dispatch order.
    pub seed: u64,
    /// MiB-scale cells and short phases.
    pub quick: bool,
    /// Minimum length of the timed phase; it always ends on a pass
    /// boundary, after at least two passes.
    pub seconds: f64,
    /// Also run a traced phase and report per-layer metrics.
    pub trace: bool,
    /// Closed-loop workers.
    pub threads: usize,
    /// Directory for stores, artifacts and the Chrome trace. A
    /// per-process subdirectory holds everything but the trace and is
    /// removed when the run ends.
    pub dir: PathBuf,
}

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Everything one run of one workload measured and checked.
#[derive(Debug)]
pub struct Outcome {
    /// The options the run used.
    pub options: RunOptions,
    /// Cells attempted in the (untraced) timed phase.
    pub attempted: u64,
    /// Of those, cells that failed or broke a correctness check.
    pub failed: u64,
    /// Every correctness problem found, timed phase or after.
    pub problems: Vec<String>,
    /// End-to-end metrics, in `BENCHMARK.json` order.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub per_layer: Vec<Metric>,
    /// How the tail percentile was chosen, printed beside `cell_tail_ms`.
    pub tail: String,
    /// FNV-1a 128 over the report JSONs of one pass, in row-major order.
    pub output_digest: String,
    /// Share of traced DES cell time spent inside layer calls.
    pub layer_coverage: Option<f64>,
    /// The Chrome trace written by a traced run.
    pub trace_file: Option<PathBuf>,
    /// Whole passes the untraced timed phase ran.
    pub passes: usize,
    /// Set-ups whose median is `setup_s`.
    pub setups: usize,
}

impl Outcome {
    /// No cell failed and every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

/// The one clock of the benchmark.
#[allow(clippy::disallowed_methods)]
pub(crate) fn now() -> Instant {
    Instant::now()
}

/// The input a timed phase needs, built by set-up.
pub(crate) struct Prepared {
    pub cells: Vec<Cell>,
    pub order: Vec<usize>,
    /// The store key of every cell.
    pub digests: Vec<String>,
    /// `maps × pairs_per_map` per cell: the records every stage must see.
    pub records: Vec<u64>,
    /// The warm store and its cold-fill sweeps (resumed workload only).
    pub warm: Option<(Arc<ResultStore>, Vec<Sweep>)>,
}

/// Run `opts.workload` end to end and check its outputs.
pub fn run(opts: &RunOptions) -> Result<Outcome, Error> {
    let scratch = opts
        .dir
        .join(format!("{}-{}", opts.workload.name(), std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).map_err(|e| Error::io("create", &scratch, e))?;
    let result = run_in(opts, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    result
}

fn run_in(opts: &RunOptions, scratch: &Path) -> Result<Outcome, Error> {
    let mut problems = Vec::new();

    // Set-up, repeated; the last repetition's input is the one measured.
    // A traced run sets up once, with its cold fill traced.
    let mut setup_s: Vec<f64> = Vec::new();
    let mut setup_log = SpanLog::new(0);
    let mut prepared: Option<Prepared> = None;
    while setup_s.is_empty()
        || (!opts.trace
            && (setup_s.len() < SETUP_MIN_REPEATS || setup_s.iter().sum::<f64>() < SETUP_MIN_S))
    {
        let rep = setup_s.len();
        if prepared.take().is_some() {
            let _ = std::fs::remove_dir_all(scratch.join(format!("setup-{}", rep - 1)));
        }
        let dir = scratch.join(format!("setup-{rep}"));
        let t0 = now();
        let p = prepare(opts, &dir, opts.trace.then_some(&mut setup_log))?;
        setup_s.push(t0.elapsed().as_secs_f64());
        prepared = Some(p);
    }
    let prepared = prepared.expect("at least one set-up");
    if let Some((_, cold)) = &prepared.warm {
        for ((cell, sweep), &records) in prepared.cells.iter().zip(cold).zip(&prepared.records) {
            if let Err(e) = check_cell(cell, sweep, records) {
                problems.push(format!("cold fill: {e}"));
            }
        }
    }

    let plain = timed_phase(opts, &prepared, scratch, "plain", false)?;
    // Before the checks, which hold a second copy of the artifact.
    let peak_rss = peak_rss_mib().unwrap_or(f64::NAN);
    let (output_digest, mut found) = verify(opts, &prepared, &plain);
    problems.append(&mut found);

    let n = prepared.cells.len();
    let tail_p = stats::tail_percentile(n).unwrap_or(50.0);
    let tail = format!(
        "p{tail_p} of the {n} cells' fastest latencies over {} passes, {} beyond",
        plain.passes,
        stats::beyond(tail_p, n)
    );
    let cells_per_s = plain.cells_per_s();
    let end_to_end = vec![
        Metric {
            name: "cells_per_s",
            value: cells_per_s,
            unit: "cells/s",
        },
        Metric {
            name: "cell_p50_ms",
            value: plain.cell_percentile(50.0),
            unit: "ms",
        },
        Metric {
            name: "cell_tail_ms",
            value: plain.cell_percentile(tail_p),
            unit: "ms",
        },
        Metric {
            name: "setup_s",
            value: stats::median(&setup_s),
            unit: "s",
        },
        Metric {
            name: "peak_rss_mb",
            value: peak_rss,
            unit: "MiB",
        },
    ];

    let mut per_layer = Vec::new();
    let mut layer_coverage = None;
    let mut trace_file = None;
    if opts.trace {
        let mut traced = timed_phase(opts, &prepared, scratch, "traced", true)?;
        let (traced_digest, mut found) = verify(opts, &prepared, &traced);
        problems.append(&mut found);
        if traced_digest != output_digest {
            problems.push(format!(
                "traced outputs differ: digest {traced_digest} vs {output_digest}"
            ));
        }
        let mut all = setup_log;
        all.absorb(std::mem::take(&mut traced.spans));
        let spans = all.into_spans();
        // The engine ran in the cold fill when resuming, else in every
        // pass; the first pass stands for them.
        let engine_cells = match &prepared.warm {
            Some((_, cold)) => cold,
            None => &traced.first_pass,
        };
        let labels: Vec<&str> = prepared.cells.iter().map(|c| c.label.as_str()).collect();
        problems.extend(layers::unconserved_records(&spans, engine_cells, &labels));
        let m = LayerMetrics {
            spans: &spans,
            engine_cells,
            passes: traced.passes,
            overhead_pct: (cells_per_s - traced.cells_per_s()) / cells_per_s * 100.0,
        };
        per_layer = m.metrics();
        layer_coverage = m.coverage();
        let path = opts
            .dir
            .join(format!("trace-{}.json", opts.workload.name()));
        atomic_write(&path, &layers::chrome_trace(&spans, &labels).to_compact())?;
        trace_file = Some(path);
    }

    Ok(Outcome {
        options: opts.clone(),
        attempted: plain.attempted(),
        failed: plain.failed_cells as u64,
        problems,
        end_to_end,
        per_layer,
        tail,
        output_digest,
        layer_coverage,
        trace_file,
        passes: plain.passes,
        setups: setup_s.len(),
    })
}

/// Set-up: generate the seeded input, validate and digest every cell,
/// and for the resumed workload open a store in `dir` and fill it cold.
fn prepare(opts: &RunOptions, dir: &Path, log: Option<&mut SpanLog>) -> Result<Prepared, Error> {
    let cells = opts.workload.cells(opts.seed, opts.quick);
    let order = dispatch_order(cells.len(), opts.seed);
    let digests = cells
        .iter()
        .map(|c| {
            c.config
                .validate()
                .map_err(|e| Error::Config(format!("{}: {e}", c.label)))?;
            Ok(config_digest(&c.config))
        })
        .collect::<Result<Vec<_>, Error>>()?;
    let records = cells
        .iter()
        .map(|c| {
            let spec = c.config.job_spec();
            u64::from(spec.conf.num_maps) * spec.pairs_per_map
        })
        .collect();
    let warm = if opts.workload.resumes() {
        let store = Arc::new(ResultStore::open(dir)?);
        let cold = cold_fill(&cells, &store, opts.threads, log)?;
        Some((store, cold))
    } else {
        None
    };
    Ok(Prepared {
        cells,
        order,
        digests,
        records,
        warm,
    })
}

/// Run every cell once through `store`, in row-major order, on
/// `threads` workers; traced into `log` when given.
fn cold_fill(
    cells: &[Cell],
    store: &ResultStore,
    threads: usize,
    log: Option<&mut SpanLog>,
) -> Result<Vec<Sweep>, Error> {
    let traced = log.is_some();
    let logs: Vec<Mutex<SpanLog>> = (0..threads.max(1))
        .map(|w| Mutex::new(SpanLog::new(w)))
        .collect();
    let results = parallel_map(cells.len(), threads, |w, i| {
        if traced {
            let mut l = logs[w].lock().expect("span log lock");
            layers::traced_cell(&cells[i], Some(store), &mut l, None, i)
        } else {
            run_cell(&cells[i], Some(store))
        }
    });
    if let Some(log) = log {
        for l in logs {
            log.absorb(l.into_inner().expect("span log lock").into_spans());
        }
    }
    results.into_iter().collect()
}

/// `f(worker, i)` for every `i < n`, on `threads` workers claiming the
/// next index; results in index order.
fn parallel_map<R: Send>(n: usize, threads: usize, f: impl Fn(usize, usize) -> R + Sync) -> Vec<R> {
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    on_workers(threads, |w| loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        let r = f(w, i);
        *slots[i].lock().expect("result slot lock") = Some(r);
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot lock")
                .expect("every index ran")
        })
        .collect()
}

/// `worker(w)` on each of `threads` spawned threads, joined. A lone
/// worker is spawned too, as the figure binaries' grid workers are: on
/// the main thread the allocator handed each pass's freed artifact memory
/// back to the OS and faulted it in again, which cost `resume_sweep`
/// about a quarter of its throughput.
fn on_workers<R: Send>(threads: usize, worker: impl Fn(usize) -> R + Sync) -> Vec<R> {
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads.max(1))
            .map(|w| {
                let worker = &worker;
                s.spawn(move || worker(w))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect()
    })
}

/// The call a worker times: the public grid runner on a 1×1 grid, which
/// runs the runner's digest → get → run → put path when given a store.
pub(crate) fn run_cell(cell: &Cell, store: Option<&ResultStore>) -> Result<Sweep, Error> {
    let opts = SweepOptions {
        threads: 1,
        store,
        cancel: None,
    };
    Sweep::run_grid_with(
        &[cell.shuffle],
        &[cell.config.interconnect],
        |_, _| cell.config.clone(),
        &opts,
    )
}

/// The checks cheap enough to run on every timed cell: the job succeeded
/// and every record the maps emitted reached a reducer.
fn check_cell(cell: &Cell, sweep: &Sweep, records: u64) -> Result<(), String> {
    let result = &sweep.cells[0].report.result;
    if !result.succeeded() {
        return Err(format!(
            "{}: outcome {}",
            cell.label,
            result.outcome.as_str()
        ));
    }
    let c = &result.counters;
    if c.map_output_records != records || c.reduce_input_records != records {
        return Err(format!(
            "{}: records not conserved: {} emitted, {} reduced, {records} expected",
            cell.label, c.map_output_records, c.reduce_input_records
        ));
    }
    Ok(())
}

/// What a cell produced, compared across passes and against the cold
/// fill without serialising anything inside the timed phase.
#[derive(Clone, Debug, PartialEq)]
struct Facts {
    job_time: SimDuration,
    counters: Counters,
    sim_work: u64,
}

impl Facts {
    fn of(sweep: &Sweep) -> Facts {
        let r = &sweep.cells[0].report.result;
        Facts {
            job_time: r.job_time,
            counters: r.counters.clone(),
            sim_work: r.sim_work,
        }
    }
}

/// What a timed phase measured.
pub(crate) struct Phase {
    /// Wall time of each pass's artifact write.
    artifact_s: Vec<f64>,
    passes: usize,
    /// Every latency of each cell, by row-major cell index.
    latencies_ms: Vec<Vec<f64>>,
    failed_cells: usize,
    problems: Vec<String>,
    facts: Vec<(usize, usize, Facts)>,
    /// The first pass's sweeps, in row-major order.
    first_pass: Vec<Sweep>,
    artifacts: Vec<PathBuf>,
    /// The stores the phase read or filled.
    stores: Vec<Arc<ResultStore>>,
    /// `(hits, misses, rejected)` of the phase's store traffic.
    store_traffic: (u64, u64, u64),
    spans: Vec<layers::Span>,
}

/// A pass is the workload's unit of work: every figure regenerated, one
/// provisioning sweep, one resumed sweep. The simulator is deterministic,
/// so every pass repeats identical work and the spread between passes is
/// the host's: it only adds time. A cell's latency is therefore its
/// fastest over the passes, and a pass's wall time is rebuilt from those
/// and the fastest artifact write.
impl Phase {
    fn attempted(&self) -> u64 {
        self.latencies_ms.iter().map(|l| l.len() as u64).sum()
    }

    /// Cells of a pass ÷ the pass's rebuilt wall time.
    fn cells_per_s(&self) -> f64 {
        let cells_s: f64 = self.latencies_ms.iter().map(|l| fastest(l)).sum::<f64>() / 1e3;
        let artifact_s = if self.artifact_s.is_empty() {
            0.0
        } else {
            fastest(&self.artifact_s)
        };
        self.latencies_ms.len() as f64 / (cells_s + artifact_s)
    }

    /// Percentile `p` over the cells of each cell's fastest latency.
    fn cell_percentile(&self, p: f64) -> f64 {
        let mut best: Vec<f64> = self.latencies_ms.iter().map(|l| fastest(l)).collect();
        best.sort_by(f64::total_cmp);
        stats::percentile(&best, p)
    }
}

fn fastest(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

struct PassSlots {
    sweeps: Vec<Option<Sweep>>,
    done: usize,
    store: Arc<ResultStore>,
}

struct Claims {
    next: usize,
    passes: Vec<PassSlots>,
    stopped: bool,
    error: Option<Error>,
}

struct Claim {
    pass: usize,
    cell: usize,
    store: Arc<ResultStore>,
}

struct WorkerOut {
    /// `(cell, latency)` of every cell the worker ran.
    latencies_ms: Vec<(usize, f64)>,
    artifact_s: Vec<f64>,
    failed: usize,
    problems: Vec<String>,
    facts: Vec<(usize, usize, Facts)>,
    artifact: Option<PathBuf>,
    log: SpanLog,
}

/// The closed loop: whole passes until `opts.seconds` have elapsed.
fn timed_phase(
    opts: &RunOptions,
    p: &Prepared,
    scratch: &Path,
    tag: &str,
    traced: bool,
) -> Result<Phase, Error> {
    let n = p.cells.len();
    let budget = Duration::from_secs_f64(opts.seconds.max(0.0));
    let warm_before = p.warm.as_ref().map_or((0, 0, 0), |(s, _)| s.stats());
    let open_store = |pass: usize| -> Result<Arc<ResultStore>, Error> {
        match &p.warm {
            Some((store, _)) => Ok(Arc::clone(store)),
            None => Ok(Arc::new(ResultStore::open(
                scratch.join(format!("{tag}-pass-{pass}")),
            )?)),
        }
    };
    let claims = Mutex::new(Claims {
        next: 0,
        passes: Vec::new(),
        stopped: false,
        error: None,
    });
    let first_pass: Mutex<Option<Vec<Sweep>>> = Mutex::new(None);
    let origin = now();

    let claim = || -> Option<Claim> {
        let mut s = claims.lock().expect("claim lock");
        if s.stopped {
            return None;
        }
        let (pass, k) = (s.next / n, s.next % n);
        if k == 0 && pass >= MIN_PASSES && origin.elapsed() >= budget {
            s.stopped = true;
            return None;
        }
        if pass == s.passes.len() {
            match open_store(pass) {
                Ok(store) => s.passes.push(PassSlots {
                    sweeps: (0..n).map(|_| None).collect(),
                    done: 0,
                    store,
                }),
                Err(e) => {
                    s.stopped = true;
                    s.error = Some(e);
                    return None;
                }
            }
        }
        s.next += 1;
        Some(Claim {
            pass,
            cell: p.order[k],
            store: Arc::clone(&s.passes[pass].store),
        })
    };

    let worker = |w: usize| -> WorkerOut {
        let mut out = WorkerOut {
            latencies_ms: Vec::new(),
            artifact_s: Vec::new(),
            failed: 0,
            problems: Vec::new(),
            facts: Vec::new(),
            artifact: None,
            log: SpanLog::new(w),
        };
        let artifact_path = scratch.join(format!("{tag}-artifact-w{w}.json"));
        while let Some(c) = claim() {
            let cell = &p.cells[c.cell];
            let t0 = now();
            let result = if traced {
                layers::traced_cell(cell, Some(&c.store), &mut out.log, Some(c.pass), c.cell)
            } else {
                run_cell(cell, Some(&c.store))
            };
            out.latencies_ms
                .push((c.cell, t0.elapsed().as_secs_f64() * 1e3));
            let sweep = match result
                .map_err(|e| e.to_string())
                .and_then(|sweep| check_cell(cell, &sweep, p.records[c.cell]).map(|()| sweep))
            {
                Ok(sweep) => {
                    out.facts.push((c.pass, c.cell, Facts::of(&sweep)));
                    Some(sweep)
                }
                Err(e) => {
                    out.failed += 1;
                    out.problems.push(e);
                    None
                }
            };
            let complete = {
                let mut s = claims.lock().expect("claim lock");
                let slots = &mut s.passes[c.pass];
                slots.sweeps[c.cell] = sweep;
                slots.done += 1;
                (slots.done == n).then(|| std::mem::take(&mut slots.sweeps))
            };
            let Some(sweeps) = complete else {
                continue;
            };
            // The pass is complete: write its artifact, unless a cell failed.
            if let Some(sweeps) = sweeps.into_iter().collect::<Option<Vec<Sweep>>>() {
                let name = opts.workload.name();
                let t0 = now();
                let written = if traced {
                    layers::traced_artifact(
                        name,
                        &p.cells,
                        sweeps,
                        &artifact_path,
                        &mut out.log,
                        c.pass,
                    )
                } else {
                    write_artifact(name, &p.cells, sweeps, &artifact_path)
                };
                out.artifact_s.push(t0.elapsed().as_secs_f64());
                match written {
                    Ok(sweeps) => {
                        out.artifact = Some(artifact_path.clone());
                        if c.pass == 0 {
                            *first_pass.lock().expect("first pass lock") = Some(sweeps);
                        }
                    }
                    Err(e) => out.problems.push(format!("pass {} artifact: {e}", c.pass)),
                }
            }
        }
        out
    };

    let outs = on_workers(opts.threads, worker);
    let claims = claims.into_inner().expect("claim lock");
    if let Some(e) = claims.error {
        return Err(e);
    }
    let passes = claims.passes.len();

    let (store_traffic, stores) = match &p.warm {
        // Every pass shares the one warm store.
        Some((store, _)) => {
            let (h, m, r) = store.stats();
            let traffic = (h - warm_before.0, m - warm_before.1, r - warm_before.2);
            (traffic, vec![Arc::clone(store)])
        }
        None => {
            let stores: Vec<_> = claims.passes.into_iter().map(|p| p.store).collect();
            let traffic = stores.iter().fold((0, 0, 0), |acc, s| {
                let (h, m, r) = s.stats();
                (acc.0 + h, acc.1 + m, acc.2 + r)
            });
            (traffic, stores)
        }
    };
    let mut phase = Phase {
        artifact_s: Vec::new(),
        passes,
        latencies_ms: vec![Vec::new(); n],
        failed_cells: 0,
        problems: Vec::new(),
        facts: Vec::new(),
        first_pass: first_pass
            .into_inner()
            .expect("first pass lock")
            .unwrap_or_default(),
        artifacts: Vec::new(),
        stores,
        store_traffic,
        spans: Vec::new(),
    };
    let mut log = SpanLog::default();
    for out in outs {
        for (cell, ms) in out.latencies_ms {
            phase.latencies_ms[cell].push(ms);
        }
        phase.artifact_s.extend(out.artifact_s);
        phase.failed_cells += out.failed;
        phase.problems.extend(out.problems);
        phase.facts.extend(out.facts);
        phase.artifacts.extend(out.artifact);
        log.absorb(out.log.into_spans());
    }
    phase.spans = log.into_spans();
    Ok(phase)
}

/// The pass artifact: one sweep panel per cell in row-major order,
/// serialised and written crash-safely. Hands the sweeps back.
fn write_artifact(
    name: &str,
    cells: &[Cell],
    sweeps: Vec<Sweep>,
    path: &Path,
) -> Result<Vec<Sweep>, Error> {
    let artifacts = collect(name, cells, sweeps);
    atomic_write(path, &artifacts.to_json().to_pretty())?;
    Ok(take_sweeps(artifacts))
}

/// An [`Artifacts`] with one sweep panel per cell.
pub(crate) fn collect(name: &str, cells: &[Cell], sweeps: Vec<Sweep>) -> Artifacts {
    let mut artifacts = Artifacts::new(name);
    for (cell, sweep) in cells.iter().zip(sweeps) {
        artifacts.record_sweep(&cell.label, sweep);
    }
    artifacts
}

/// The sweeps [`collect`] recorded, in order.
pub(crate) fn take_sweeps(artifacts: Artifacts) -> Vec<Sweep> {
    artifacts
        .panels
        .into_iter()
        .filter_map(|p| match p {
            Panel::Sweep { sweep, .. } => Some(sweep),
            Panel::Report { .. } => None,
        })
        .collect()
}

/// FNV-1a 128 over the report JSONs, one per line, in row-major order.
fn output_digest(sweeps: &[Sweep]) -> String {
    let mut text = String::new();
    for s in sweeps {
        text.push_str(&s.cells[0].report.to_json().to_compact());
        text.push('\n');
    }
    fnv1a_128(text.as_bytes())
}

/// The checks that serialise: run after the timed phase. Returns the
/// phase's output digest and every problem found.
fn verify(opts: &RunOptions, p: &Prepared, phase: &Phase) -> (String, Vec<String>) {
    let mut problems = phase.problems.clone();
    let n = p.cells.len();
    if phase.first_pass.len() != n {
        problems.push("the first pass did not complete".into());
        return (String::new(), problems);
    }
    let digest = output_digest(&phase.first_pass);

    // Every pass reproduces the reference: the cold fill when resuming,
    // else the first pass.
    let reference: &[Sweep] = match &p.warm {
        Some((_, cold)) => cold,
        None => &phase.first_pass,
    };
    let expected: Vec<Facts> = reference.iter().map(Facts::of).collect();
    for (pass, cell, facts) in &phase.facts {
        if *facts != expected[*cell] {
            problems.push(format!(
                "pass {pass}: {} differs from the reference run",
                p.cells[*cell].label
            ));
        }
    }

    // Store traffic: a resumed pass only hits; a fresh store only misses.
    let attempted = phase.attempted();
    let traffic = if p.warm.is_some() {
        (attempted, 0, 0)
    } else {
        (0, attempted, 0)
    };
    if phase.store_traffic != traffic {
        let (h, m, r) = phase.store_traffic;
        problems.push(format!(
            "store traffic {h} hits / {m} misses / {r} rejected, expected {} / {} / 0",
            traffic.0, traffic.1
        ));
    }
    // Each store holds exactly one fragment per cell, under its digest.
    for store in &phase.stores {
        let files = std::fs::read_dir(store.dir()).map_or(0, |d| d.count());
        let missing = p
            .digests
            .iter()
            .filter(|d| !store.fragment_path(d).is_file())
            .count();
        if files != n || missing > 0 {
            problems.push(format!(
                "{} holds {files} files, {missing} of {n} cell fragments missing",
                store.dir().display()
            ));
        }
    }
    if p.warm.is_some() {
        let cold = output_digest(reference);
        if cold != digest {
            problems.push(format!(
                "resumed reports differ from the cold fill: digest {digest} vs {cold}"
            ));
        }
    }

    // The artifacts on disk are the reference's, byte for byte.
    let expected_text = collect(opts.workload.name(), &p.cells, reference.to_vec())
        .to_json()
        .to_pretty();
    for path in &phase.artifacts {
        match std::fs::read_to_string(path) {
            Ok(text) if text == expected_text => {}
            Ok(_) => problems.push(format!("{} differs from the reference", path.display())),
            Err(e) => problems.push(format!("{}: {e}", path.display())),
        }
    }
    (digest, problems)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line["VmHWM:".len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::json::Json;

    fn quick(workload: Workload, threads: usize, trace: bool, tag: &str) -> RunOptions {
        RunOptions {
            workload,
            seed: 11,
            quick: true,
            seconds: 0.0,
            trace,
            threads,
            dir: Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("run")
                .join("test")
                .join(tag),
        }
    }

    /// The metric names one section of `BENCHMARK.json` promises.
    fn promised(section: &str) -> Vec<String> {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        doc.field_arr(section)
            .unwrap()
            .iter()
            .map(|m| m.field_str("name").unwrap().to_string())
            .collect()
    }

    fn names(metrics: &[Metric]) -> Vec<String> {
        metrics.iter().map(|m| m.name.to_string()).collect()
    }

    #[test]
    fn quick_runs_are_correct_and_independent_of_thread_count() {
        for w in Workload::ALL {
            let one = run(&quick(w, 1, false, "one")).unwrap();
            assert!(one.correct(), "{w:?}: {:?}", one.problems);
            assert_eq!(one.failed, 0);
            assert_eq!(names(&one.end_to_end), promised("end_to_end"), "{w:?}");
            let text = crate::describe(&one);
            for m in &one.end_to_end {
                assert!(m.value.is_finite() && m.value > 0.0, "{w:?} {m:?}");
                assert!(text.contains(m.name) && text.contains(m.unit), "{text}");
            }
            assert!(
                text.contains("failed_ratio") && text.contains("ratio"),
                "{text}"
            );
            let line = Json::parse(&crate::result_line(&one)).unwrap();
            assert_eq!(line.field_u64("failed"), Ok(0));
            assert!(line.field_bool("correct").unwrap());

            let two = run(&quick(w, 2, false, "two")).unwrap();
            assert!(two.correct(), "{w:?}: {:?}", two.problems);
            assert_eq!(one.output_digest, two.output_digest, "{w:?}");
        }
    }

    #[test]
    fn traced_layers_account_for_des_cell_time() {
        for w in Workload::ALL {
            let o = run(&quick(w, 1, true, "traced")).unwrap();
            assert!(o.correct(), "{w:?}: {:?}", o.problems);
            assert_eq!(names(&o.per_layer), promised("per_layer"), "{w:?}");
            let coverage = o.layer_coverage.expect("DES cells were traced");
            assert!(coverage >= 0.9, "{w:?}: layer calls cover {coverage}");
            let trace = o.trace_file.as_ref().unwrap();
            let doc = Json::parse(&std::fs::read_to_string(trace).unwrap()).unwrap();
            assert!(!doc.field_arr("traceEvents").unwrap().is_empty());
            let metric = |name: &str| o.per_layer.iter().find(|m| m.name == name).unwrap().value;
            assert!(metric("engine.run_ms") > 0.0 && metric("partition.records") > 0.0);
            let hit_ratio = if w.resumes() { 1.0 } else { 0.0 };
            assert_eq!(metric("store.hit_ratio"), hit_ratio, "{w:?}");
        }
    }
}
