//! Per-layer attribution for traced runs.
//!
//! A traced cell makes, one by one, the public calls a sweep cell makes
//! inside the library: `config_digest`, `ResultStore::get`, the
//! `BenchConfig` builders, `Engine::with_topology`, `Engine::run` and
//! `ResultStore::put`, each inside a span. The engine receives the
//! config's own partitioner factory wrapped in [`TimedFactory`], so every
//! map's `assign_counts` call inside `Engine::run` gets a span too, with
//! the engine's exact inputs; `engine.other_ms` is what remains of
//! `Engine::run` (network, cluster and dispatch, undivided). A traced pass
//! artifact splits into `Artifacts::to_json`, `Json::to_pretty` and
//! `atomic_write`.
//!
//! Spans stay in memory and are written once, as Chrome trace JSON.

use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use mapreduce::engine::Engine;
use mapreduce::job::PartitionerFactory;
use mapreduce::partition::Partitioner;
use mrbench::store::config_digest;
use mrbench::sweep::SweepCell;
use mrbench::{atomic_write, BenchReport, Error, ResultStore, Sweep};
use simcore::json::Json;

use crate::runner::{collect, now, take_sweeps, Metric};
use crate::workloads::Cell;

/// One timed call.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer call, e.g. `engine.run`.
    pub name: &'static str,
    /// Start, in ns since the process's first span.
    pub start_ns: u64,
    /// End, in ns since the process's first span.
    pub end_ns: u64,
    /// Index of the enclosing span in the same list.
    pub parent: Option<usize>,
    /// Timed pass the call belongs to; `None` during set-up.
    pub pass: Option<usize>,
    /// Row-major index of the cell the call served.
    pub cell: Option<usize>,
    /// Worker thread.
    pub worker: usize,
    /// What the call produced: 1 for a store hit, bytes for writes,
    /// records for a partition assignment, simulated work for an engine
    /// run; else 0.
    pub value: u64,
}

impl Span {
    fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

fn since_origin() -> u64 {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    now().duration_since(*ORIGIN.get_or_init(now)).as_nanos() as u64
}

/// The spans one worker recorded.
#[derive(Debug, Default)]
pub struct SpanLog {
    worker: usize,
    spans: Vec<Span>,
}

/// (pass, cell) a span is attributed to.
type At = (Option<usize>, Option<usize>);

impl SpanLog {
    /// An empty log for `worker`.
    pub fn new(worker: usize) -> SpanLog {
        SpanLog {
            worker,
            spans: Vec::new(),
        }
    }

    fn push(
        &mut self,
        name: &'static str,
        (start_ns, end_ns): (u64, u64),
        parent: Option<usize>,
        at: At,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            pass: at.0,
            cell: at.1,
            worker: self.worker,
            value: 0,
        });
        self.spans.len() - 1
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>, at: At) -> usize {
        let t = since_origin();
        self.push(name, (t, t), parent, at)
    }

    fn close(&mut self, span: usize) {
        self.spans[span].end_ns = since_origin();
    }

    fn time<R>(&mut self, name: &'static str, parent: usize, at: At, f: impl FnOnce() -> R) -> R {
        let span = self.open(name, Some(parent), at);
        let r = f();
        self.close(span);
        r
    }

    /// Append `spans`, whose parents index into `spans` itself.
    pub fn absorb(&mut self, spans: Vec<Span>) {
        let offset = self.spans.len();
        self.spans.extend(spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// `(start, end, records)` of each timed `assign_counts` call.
type AssignCalls = Arc<Mutex<Vec<(u64, u64, u64)>>>;

/// A config's partitioner factory whose partitioners time their
/// `assign_counts` calls; partitioning itself is the inner factory's.
struct TimedFactory {
    inner: Box<dyn PartitionerFactory>,
    calls: AssignCalls,
}

impl PartitionerFactory for TimedFactory {
    fn create(&self, map_index: u32, seed: u64) -> Box<dyn Partitioner> {
        Box::new(TimedPartitioner {
            inner: self.inner.create(map_index, seed),
            calls: Arc::clone(&self.calls),
        })
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

struct TimedPartitioner {
    inner: Box<dyn Partitioner>,
    calls: AssignCalls,
}

impl Partitioner for TimedPartitioner {
    fn partition(&mut self, key: &[u8], ordinal: u64, n_reducers: u32) -> u32 {
        self.inner.partition(key, ordinal, n_reducers)
    }

    fn assign_counts(
        &mut self,
        n_records: u64,
        n_reducers: u32,
        key_of: &mut dyn FnMut(u64, &mut Vec<u8>),
    ) -> Vec<u64> {
        let start = since_origin();
        let counts = self.inner.assign_counts(n_records, n_reducers, key_of);
        let end = since_origin();
        self.calls
            .lock()
            .expect("assign-call log lock")
            .push((start, end, counts.iter().sum()));
        counts
    }
}

/// One sweep cell, call by call: exactly what [`crate::runner::run_cell`]
/// runs inside the library, with a span around each layer call.
pub(crate) fn traced_cell(
    cell: &Cell,
    store: Option<&ResultStore>,
    log: &mut SpanLog,
    pass: Option<usize>,
    index: usize,
) -> Result<Sweep, Error> {
    let at = (pass, Some(index));
    let root = log.open("cell", None, at);
    let report = traced_report(cell, store, log, root, at);
    log.close(root);
    let interconnect = cell.config.interconnect;
    Ok(Sweep {
        sizes: vec![cell.shuffle],
        interconnects: vec![interconnect],
        cells: vec![SweepCell {
            shuffle: cell.shuffle,
            interconnect,
            report: report?,
        }],
    })
}

fn traced_report(
    cell: &Cell,
    store: Option<&ResultStore>,
    log: &mut SpanLog,
    root: usize,
    at: At,
) -> Result<BenchReport, Error> {
    let config = &cell.config;
    let digest = store.map(|_| log.time("store.digest", root, at, || config_digest(config)));
    if let (Some(store), Some(d)) = (store, &digest) {
        let get = log.open("store.get", Some(root), at);
        let hit = store.get(d);
        log.close(get);
        if let Some(report) = hit {
            log.spans[get].value = 1;
            return Ok(report);
        }
    }
    log.time("config.validate", root, at, || config.validate())
        .map_err(Error::Config)?;
    let spec = log.time("config.job_spec", root, at, || config.job_spec());
    let inner = log.time("config.factory", root, at, || config.factory());
    let topology = log.time("config.topology", root, at, || config.topology());
    let node = log.time("config.node_spec", root, at, || config.node_spec());
    let calls = AssignCalls::default();
    let factory = TimedFactory {
        inner,
        calls: Arc::clone(&calls),
    };
    let engine = log.time("engine.build", root, at, || {
        Engine::with_topology(spec, &factory, node, topology)
    });
    let run = log.open("engine.run", Some(root), at);
    let result = engine.run();
    log.close(run);
    log.spans[run].value = result.sim_work;
    for &(start, end, records) in calls.lock().expect("assign-call log lock").iter() {
        let span = log.push("partition.assign", (start, end), Some(run), at);
        log.spans[span].value = records;
    }
    let report = BenchReport {
        config: config.clone(),
        result,
    };
    if let (Some(store), Some(d)) = (store, &digest) {
        let put = log.open("store.put", Some(root), at);
        let stored = store.put(d, &report);
        log.close(put);
        stored?;
        log.spans[put].value = std::fs::metadata(store.fragment_path(d)).map_or(0, |m| m.len());
    }
    Ok(report)
}

/// The pass artifact, call by call (see [`crate::runner`]).
pub(crate) fn traced_artifact(
    name: &str,
    cells: &[Cell],
    sweeps: Vec<Sweep>,
    path: &std::path::Path,
    log: &mut SpanLog,
    pass: usize,
) -> Result<Vec<Sweep>, Error> {
    let at = (Some(pass), None);
    let root = log.open("artifact", None, at);
    let artifacts = collect(name, cells, sweeps);
    let json = log.time("artifact.to_json", root, at, || artifacts.to_json());
    let text = log.time("json.to_pretty", root, at, || json.to_pretty());
    drop(json);
    let write = log.open("artifact.write", Some(root), at);
    let written = atomic_write(path, &text);
    log.close(write);
    log.spans[write].value = text.len() as u64;
    log.close(root);
    written?;
    Ok(take_sweeps(artifacts))
}

/// Each engine run whose timed partition calls do not assign exactly the
/// records the engine reports emitting.
pub(crate) fn unconserved_records(
    spans: &[Span],
    reports: &[Sweep],
    labels: &[&str],
) -> Vec<String> {
    let mut assigned = vec![0u64; spans.len()];
    for s in spans.iter().filter(|s| s.name == "partition.assign") {
        if let Some(p) = s.parent {
            assigned[p] += s.value;
        }
    }
    spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "engine.run")
        .filter_map(|(i, s)| {
            let cell = s.cell?;
            let emitted = reports.get(cell)?.cells[0]
                .report
                .result
                .counters
                .map_output_records;
            (assigned[i] != emitted).then(|| {
                format!(
                    "{}: timed partitioners assigned {} records, the engine emitted {emitted}",
                    labels[cell], assigned[i]
                )
            })
        })
        .collect()
}

/// Inputs of the per-layer metrics of one traced run.
pub(crate) struct LayerMetrics<'a> {
    /// Every span: the traced set-up and the traced timed phase.
    pub spans: &'a [Span],
    /// The reports of the cells that ran an engine, in row-major order.
    pub engine_cells: &'a [Sweep],
    /// Passes of the traced timed phase.
    pub passes: usize,
    /// Traced vs untraced `cells_per_s`, in percent.
    pub overhead_pct: f64,
}

#[derive(Default, Clone, Copy)]
struct Tally {
    calls: u64,
    ns: u64,
    value: u64,
}

impl Tally {
    fn ms_per_call(self) -> f64 {
        ratio(self.ns as f64 / 1e6, self.calls as f64)
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

impl LayerMetrics<'_> {
    fn tally(&self, keep: impl Fn(&Span) -> bool) -> Tally {
        self.spans
            .iter()
            .filter(|s| keep(s))
            .fold(Tally::default(), |t, s| Tally {
                calls: t.calls + 1,
                ns: t.ns + s.ns(),
                value: t.value + s.value,
            })
    }

    fn named(&self, name: &str) -> Tally {
        self.tally(|s| s.name == name)
    }

    /// Share of the traced DES cells' time spent inside layer calls.
    pub fn coverage(&self) -> Option<f64> {
        let mut inside = vec![0u64; self.spans.len()];
        let mut ran_engine = vec![false; self.spans.len()];
        for s in self.spans {
            if let Some(p) = s.parent.filter(|&p| self.spans[p].name == "cell") {
                inside[p] += s.ns();
                ran_engine[p] |= s.name == "engine.run";
            }
        }
        let (mut inner, mut total) = (0u64, 0u64);
        for (i, s) in self.spans.iter().enumerate() {
            if ran_engine[i] {
                inner += inside[i];
                total += s.ns();
            }
        }
        (total > 0).then(|| inner as f64 / total as f64)
    }

    /// Every per-layer metric, in `BENCHMARK.json` order.
    pub fn metrics(&self) -> Vec<Metric> {
        let assign = self.named("partition.assign");
        let run = self.named("engine.run");
        let other_ns = run.ns.saturating_sub(assign.ns) as f64;
        let runs = run.calls as f64;
        let sim_s: f64 = self
            .engine_cells
            .iter()
            .map(|s| s.cells[0].report.result.job_time_secs())
            .sum();
        let config = self.tally(|s| s.name.starts_with("config."));
        let gets = self.tally(|s| s.name == "store.get" && s.pass.is_some());
        let put = self.named("store.put");
        let write = self.named("artifact.write");
        let passes = self.passes.max(1) as f64;
        let m = |name, value, unit| Metric { name, value, unit };
        vec![
            m(
                "partition.assign_ms",
                ratio(assign.ns as f64 / 1e6, runs),
                "ms",
            ),
            m(
                "partition.records",
                ratio(assign.value as f64, runs),
                "count",
            ),
            m(
                "partition.ns_per_record",
                ratio(assign.ns as f64, assign.value as f64),
                "ns",
            ),
            m("engine.run_ms", run.ms_per_call(), "ms"),
            m("engine.other_ms", ratio(other_ns / 1e6, runs), "ms"),
            m("engine.sim_work", ratio(run.value as f64, runs), "count"),
            m(
                "engine.other_ns_per_work",
                ratio(other_ns, run.value as f64),
                "ns",
            ),
            m(
                "engine.sim_s",
                ratio(sim_s, self.engine_cells.len() as f64),
                "s",
            ),
            m(
                "engine.build_ms",
                self.named("engine.build").ms_per_call(),
                "ms",
            ),
            m("config.build_ms", ratio(config.ns as f64 / 1e6, runs), "ms"),
            m(
                "store.digest_ms",
                self.named("store.digest").ms_per_call(),
                "ms",
            ),
            m("store.get_ms", self.named("store.get").ms_per_call(), "ms"),
            m("store.hits", gets.value as f64 / passes, "count"),
            m(
                "store.misses",
                (gets.calls - gets.value) as f64 / passes,
                "count",
            ),
            m(
                "store.hit_ratio",
                ratio(gets.value as f64, gets.calls as f64),
                "ratio",
            ),
            m("store.put_ms", put.ms_per_call(), "ms"),
            m(
                "store.fragment_bytes",
                ratio(put.value as f64, put.calls as f64),
                "bytes",
            ),
            m(
                "artifact.to_json_ms",
                self.named("artifact.to_json").ms_per_call(),
                "ms",
            ),
            m(
                "json.to_pretty_ms",
                self.named("json.to_pretty").ms_per_call(),
                "ms",
            ),
            m("artifact.write_ms", write.ms_per_call(), "ms"),
            m(
                "artifact.bytes",
                ratio(write.value as f64, write.calls as f64),
                "bytes",
            ),
            m("trace.overhead_pct", self.overhead_pct, "%"),
        ]
    }
}

/// The spans as a Chrome trace-event document (one `X` event per span).
pub(crate) fn chrome_trace(spans: &[Span], labels: &[&str]) -> Json {
    let events = spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let opt = |v: Option<usize>| v.map_or(Json::Null, |v| Json::from(v as u64));
            Json::Obj(vec![
                ("name".into(), Json::from(s.name)),
                ("ph".into(), Json::from("X")),
                ("ts".into(), Json::from(s.start_ns as f64 / 1e3)),
                ("dur".into(), Json::from(s.ns() as f64 / 1e3)),
                ("pid".into(), Json::from(1u64)),
                ("tid".into(), Json::from(s.worker as u64)),
                (
                    "args".into(),
                    Json::Obj(vec![
                        ("span".into(), Json::from(i as u64)),
                        ("parent".into(), opt(s.parent)),
                        ("pass".into(), opt(s.pass)),
                        (
                            "cell".into(),
                            s.cell
                                .and_then(|c| labels.get(c))
                                .map_or(Json::Null, |l| Json::from(*l)),
                        ),
                        ("value".into(), Json::from(s.value)),
                    ]),
                ),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("displayTimeUnit".into(), Json::from("ms")),
        ("traceEvents".into(), Json::Arr(events)),
    ])
}
