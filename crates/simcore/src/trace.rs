//! Phase-span tracing for simulated executions.
//!
//! A [`Trace`] records what every task attempt was doing, and when, in
//! *simulated* time: one [`Span`] per contiguous phase of an attempt
//! (JVM start-up, map, spill/merge, shuffle, reduce, output write, ...)
//! plus point-in-time [`Mark`]s for scheduler decisions (launches,
//! speculation, requeues, node crashes).
//!
//! The recorder is deliberately dumb: the engine pushes spans as phases
//! end, and all analysis happens after the fact. Two consumers exist:
//!
//! * [`Trace::chrome_events`] — the Chrome trace-event format, loadable
//!   in `chrome://tracing` or <https://ui.perfetto.dev>. Each execution
//!   slot becomes one track (`tid`), grouped per run (`pid`); the caller
//!   combines runs into one document.
//! * [`Trace::breakdown`] — a [`PhaseBreakdown`]: per-phase busy and
//!   *exclusive* wall-clock time plus overlap/idle accounting, computed by
//!   a boundary sweep so that
//!   `sum(exclusive) + overlap + idle == total` holds exactly in integer
//!   nanoseconds.
//!
//! A disabled trace (the default) drops everything on the floor: no
//! allocation, no formatting, just a branch per would-be span.

use crate::jobj;
use crate::json::Json;
use crate::time::{SimDuration, SimTime};

/// One contiguous phase of a task attempt, in simulated time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Phase name (`"map"`, `"shuffle"`, ...). `&'static` so recording a
    /// span never allocates.
    pub phase: &'static str,
    /// Task kind (`"map"` or `"reduce"`), used to label tracks.
    pub kind: &'static str,
    /// Logical task index within its kind.
    pub index: u32,
    /// Attempt number (0 = original, >0 = retry or speculative backup).
    pub attempt: u32,
    /// Node the attempt ran on.
    pub node: u32,
    /// Execution slot (one track per slot in the Chrome view).
    pub lane: u32,
    /// Phase start.
    pub start: SimTime,
    /// Phase end.
    pub end: SimTime,
    /// Bytes processed during the phase (0 where it makes no sense).
    pub bytes: u64,
    /// True when the phase was cut short (attempt killed or failed).
    pub aborted: bool,
}

/// A point-in-time scheduler event (launch, speculate, crash, ...).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Mark {
    /// Human-readable label.
    pub label: String,
    /// Node the event concerns.
    pub node: u32,
    /// Slot the event concerns, or [`Mark::NO_LANE`] for node/job-level
    /// events.
    pub lane: u32,
    /// When the event happened.
    pub at: SimTime,
}

impl Mark {
    /// Sentinel lane for marks that are not tied to an execution slot.
    pub const NO_LANE: u32 = u32::MAX;
}

/// A span/mark recorder. Disabled by default; see the module docs.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    enabled: bool,
    spans: Vec<Span>,
    marks: Vec<Mark>,
    /// End of the last span per lane, for the nesting invariant: a
    /// lane's spans are sequential, so each new span must start at or
    /// after the previous one's end, and must not end before it starts.
    #[cfg(any(test, feature = "invariants"))]
    lane_frontier: std::collections::BTreeMap<u32, SimTime>,
}

impl Trace {
    /// A recorder that drops everything (the default).
    pub fn disabled() -> Trace {
        Trace::default()
    }

    /// A recorder that keeps spans and marks.
    pub fn enabled() -> Trace {
        Trace {
            enabled: true,
            ..Trace::default()
        }
    }

    /// Whether spans are being kept. Callers should guard any formatting
    /// or byte-count work behind this so a disabled trace stays free.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Record a completed span. No-op when disabled.
    ///
    /// With the `invariants` feature (always on under `cfg(test)`),
    /// spans are checked for per-lane nesting: a span must not end
    /// before it starts, and must not start before the lane's previous
    /// span ended — overlapping spans on one execution slot mean two
    /// phases of the same attempt ran at once, which the engine's
    /// sequential phase machine cannot produce.
    #[inline]
    pub fn span(&mut self, span: Span) {
        if self.enabled {
            #[cfg(any(test, feature = "invariants"))]
            {
                assert!(
                    span.end >= span.start,
                    "invariant violated: {} {} attempt {} records a {:?} span ending at \
                     {:?}, before its start {:?}",
                    span.kind,
                    span.index,
                    span.attempt,
                    span.phase,
                    span.end,
                    span.start,
                );
                if let Some(&frontier) = self.lane_frontier.get(&span.lane) {
                    assert!(
                        span.start >= frontier,
                        "invariant violated: {} {} attempt {} starts a {:?} span at {:?} \
                         on lane {}, overlapping the previous span that ended at \
                         {frontier:?}",
                        span.kind,
                        span.index,
                        span.attempt,
                        span.phase,
                        span.start,
                        span.lane,
                    );
                }
                self.lane_frontier.insert(span.lane, span.end);
            }
            self.spans.push(span);
        }
    }

    /// Record a point event. No-op when disabled.
    #[inline]
    pub fn mark(&mut self, label: String, node: u32, lane: u32, at: SimTime) {
        if self.enabled {
            self.marks.push(Mark {
                label,
                node,
                lane,
                at,
            });
        }
    }

    /// All recorded spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// All recorded marks, in recording order.
    pub fn marks(&self) -> &[Mark] {
        &self.marks
    }

    /// Append this trace's Chrome events under process id `pid` with
    /// process name `label`. Used to combine several runs in one file.
    pub fn chrome_events(&self, pid: u64, label: &str, events: &mut Vec<Json>) {
        events.push(jobj! {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0u64,
            "args": jobj! { "name": label },
        });
        // One named track per execution slot.
        let mut lanes: Vec<(u32, u32, &'static str)> = self
            .spans
            .iter()
            .map(|s| (s.lane, s.node, s.kind))
            .collect();
        lanes.sort_unstable();
        lanes.dedup_by_key(|l| l.0);
        for (lane, node, kind) in lanes {
            events.push(jobj! {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": u64::from(lane),
                "args": jobj! {
                    "name": format!("n{node} {kind} slot {lane}"),
                },
            });
        }
        for s in &self.spans {
            let dur_ns = s.end.since(s.start).as_nanos();
            events.push(jobj! {
                "name": s.phase,
                "cat": s.kind,
                "ph": "X",
                "ts": s.start.as_nanos() as f64 / 1e3,
                "dur": dur_ns as f64 / 1e3,
                "pid": pid,
                "tid": u64::from(s.lane),
                "args": jobj! {
                    "task": format!("{} {} attempt {}", s.kind, s.index, s.attempt),
                    "node": u64::from(s.node),
                    "bytes": s.bytes,
                    "aborted": s.aborted,
                },
            });
        }
        for m in &self.marks {
            let mut ev = jobj! {
                "name": m.label.clone(),
                "cat": "scheduler",
                "ph": "i",
                "ts": m.at.as_nanos() as f64 / 1e3,
                "pid": pid,
                "s": if m.lane == Mark::NO_LANE { "p" } else { "t" },
            };
            if m.lane != Mark::NO_LANE {
                if let Json::Obj(fields) = &mut ev {
                    fields.push(("tid".to_string(), Json::from(u64::from(m.lane))));
                }
            }
            events.push(ev);
        }
    }

    /// Aggregate the span stream into a [`PhaseBreakdown`] over a job that
    /// ran for `total`. Spans are clipped to `[0, total]`.
    pub fn breakdown(&self, total: SimDuration) -> PhaseBreakdown {
        let total_ns = total.as_nanos();

        // Phase identities in order of first appearance (deterministic).
        let mut names: Vec<&'static str> = Vec::new();
        for s in &self.spans {
            if !names.contains(&s.phase) {
                names.push(s.phase);
            }
        }
        let phase_of = |p: &'static str| names.iter().position(|n| *n == p).unwrap();

        let mut busy = vec![0u128; names.len()];
        let mut bytes = vec![0u64; names.len()];
        let mut count = vec![0u64; names.len()];

        // Boundary sweep: (+1 at clipped start, -1 at clipped end) per
        // span, then walk the merged timeline keeping per-phase active
        // counts. A segment is *exclusive* to a phase when that phase is
        // the only one active; segments with >= 2 distinct phases are
        // overlap, segments with none are idle.
        let mut edges: Vec<(u64, usize, i64)> = Vec::with_capacity(2 * self.spans.len());
        for s in &self.spans {
            let p = phase_of(s.phase);
            let a = s.start.as_nanos().min(total_ns);
            let b = s.end.as_nanos().min(total_ns);
            busy[p] += u128::from(b - a);
            bytes[p] = bytes[p].saturating_add(s.bytes);
            count[p] += 1;
            if b > a {
                edges.push((a, p, 1));
                edges.push((b, p, -1));
            }
        }
        edges.sort_unstable();

        let mut active = vec![0i64; names.len()];
        let mut distinct = 0usize;
        let mut exclusive = vec![0u128; names.len()];
        let mut overlap: u128 = 0;
        let mut idle: u128 = 0;
        let mut cursor = 0u64;
        let mut i = 0;
        while i < edges.len() {
            let t = edges[i].0;
            if t > cursor {
                let dt = u128::from(t - cursor);
                match distinct {
                    0 => idle += dt,
                    1 => {
                        let p = active.iter().position(|&c| c > 0).unwrap();
                        exclusive[p] += dt;
                    }
                    _ => overlap += dt,
                }
                cursor = t;
            }
            while i < edges.len() && edges[i].0 == t {
                let (_, p, d) = edges[i];
                let was = active[p];
                active[p] += d;
                if was == 0 && active[p] > 0 {
                    distinct += 1;
                } else if was > 0 && active[p] == 0 {
                    distinct -= 1;
                }
                i += 1;
            }
        }
        if total_ns > cursor {
            idle += u128::from(total_ns - cursor);
        }

        let secs = |ns: u128| ns as f64 / 1e9;
        PhaseBreakdown {
            phases: names
                .iter()
                .enumerate()
                .map(|(p, name)| PhaseAgg {
                    phase: name.to_string(),
                    busy_s: secs(busy[p]),
                    exclusive_s: secs(exclusive[p]),
                    spans: count[p],
                    bytes: bytes[p],
                })
                .collect(),
            overlap_s: secs(overlap),
            idle_s: secs(idle),
            total_s: secs(u128::from(total_ns)),
        }
    }
}

/// Aggregate statistics for one phase across all attempts.
#[derive(Clone, Debug, PartialEq)]
pub struct PhaseAgg {
    /// Phase name.
    pub phase: String,
    /// Total span time, summed across attempts (can exceed wall clock).
    pub busy_s: f64,
    /// Wall-clock time during which *only* this phase was active anywhere.
    pub exclusive_s: f64,
    /// Number of spans recorded for the phase.
    pub spans: u64,
    /// Bytes processed in the phase, summed across attempts.
    pub bytes: u64,
}

/// Per-phase decomposition of a job's wall-clock time.
///
/// The invariant `sum(exclusive_s) + overlap_s + idle_s == total_s` holds
/// exactly (the sweep runs in integer nanoseconds; only the final
/// conversion to seconds is floating-point).
#[derive(Clone, Debug, PartialEq)]
pub struct PhaseBreakdown {
    /// Phases in order of first appearance in the span stream.
    pub phases: Vec<PhaseAgg>,
    /// Wall-clock time with two or more distinct phases active.
    pub overlap_s: f64,
    /// Wall-clock time with no phase active (start-up, teardown, gaps).
    pub idle_s: f64,
    /// The job's total wall-clock time.
    pub total_s: f64,
}

impl PhaseBreakdown {
    /// True when the exclusive/overlap/idle partition reconciles with the
    /// total to within `tol` (a fraction, e.g. `0.01` for 1%).
    pub fn reconciles(&self, tol: f64) -> bool {
        let sum: f64 =
            self.phases.iter().map(|p| p.exclusive_s).sum::<f64>() + self.overlap_s + self.idle_s;
        (sum - self.total_s).abs() <= tol * self.total_s.max(f64::MIN_POSITIVE)
    }

    /// Serialize to JSON.
    pub fn to_json(&self) -> Json {
        jobj! {
            "total_s": self.total_s,
            "overlap_s": self.overlap_s,
            "idle_s": self.idle_s,
            "phases": Json::Arr(
                self.phases
                    .iter()
                    .map(|p| jobj! {
                        "phase": p.phase.clone(),
                        "busy_s": p.busy_s,
                        "exclusive_s": p.exclusive_s,
                        "spans": p.spans,
                        "bytes": p.bytes,
                    })
                    .collect(),
            ),
        }
    }

    /// Parse from JSON produced by [`PhaseBreakdown::to_json`].
    pub fn from_json(json: &Json) -> Result<PhaseBreakdown, String> {
        let arr = json.field_arr("phases")?;
        let mut phases = Vec::with_capacity(arr.len());
        for item in arr {
            phases.push(PhaseAgg {
                phase: item.field_str("phase")?.to_string(),
                busy_s: item.field_f64("busy_s")?,
                exclusive_s: item.field_f64("exclusive_s")?,
                spans: item.field_u64("spans")?,
                bytes: item.field_u64("bytes")?,
            });
        }
        Ok(PhaseBreakdown {
            phases,
            overlap_s: json.field_f64("overlap_s")?,
            idle_s: json.field_f64("idle_s")?,
            total_s: json.field_f64("total_s")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(phase: &'static str, lane: u32, start: u64, end: u64) -> Span {
        Span {
            phase,
            kind: "map",
            index: 0,
            attempt: 0,
            node: 0,
            lane,
            start: SimTime::from_nanos(start),
            end: SimTime::from_nanos(end),
            bytes: 10,
            aborted: false,
        }
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::disabled();
        t.span(span("map", 0, 0, 5));
        t.mark("launch".into(), 0, 0, SimTime::ZERO);
        assert!(!t.is_enabled());
        assert!(t.spans().is_empty() && t.marks().is_empty());
    }

    #[test]
    #[should_panic(expected = "invariant violated")]
    fn overlapping_spans_on_one_lane_panic() {
        let mut t = Trace::enabled();
        t.span(span("map", 0, 0, 10));
        // Same lane, starts before the previous span ended.
        t.span(span("spill", 0, 5, 15));
    }

    #[test]
    #[should_panic(expected = "invariant violated")]
    fn span_ending_before_it_starts_panics() {
        let mut t = Trace::enabled();
        t.span(span("map", 0, 10, 5));
    }

    #[test]
    fn sequential_and_parallel_lane_spans_are_fine() {
        let mut t = Trace::enabled();
        t.span(span("map", 0, 0, 10));
        t.span(span("spill", 0, 10, 12)); // back-to-back on one lane
        t.span(span("map", 1, 3, 9)); // overlap across lanes is expected
        assert_eq!(t.spans().len(), 3);
    }

    #[test]
    fn breakdown_partitions_wall_clock_exactly() {
        let mut t = Trace::enabled();
        // Lane 0: map [0,10). Lane 1: shuffle [5,15). Idle [15,20).
        t.span(span("map", 0, 0, 10));
        t.span(span("shuffle", 1, 5, 15));
        let b = t.breakdown(SimDuration::from_nanos(20));
        assert_eq!(b.phases.len(), 2);
        let map = &b.phases[0];
        let shuffle = &b.phases[1];
        assert_eq!(map.phase, "map");
        assert_eq!(map.busy_s, 10e-9);
        assert_eq!(map.exclusive_s, 5e-9);
        assert_eq!(shuffle.exclusive_s, 5e-9);
        assert_eq!(b.overlap_s, 5e-9);
        assert_eq!(b.idle_s, 5e-9);
        assert!(b.reconciles(1e-12));
    }

    #[test]
    fn breakdown_same_phase_overlap_is_exclusive() {
        // Two lanes both in "map": exclusive to the phase, not overlap.
        let mut t = Trace::enabled();
        t.span(span("map", 0, 0, 10));
        t.span(span("map", 1, 0, 10));
        let b = t.breakdown(SimDuration::from_nanos(10));
        assert_eq!(b.phases[0].exclusive_s, 10e-9);
        assert_eq!(b.phases[0].busy_s, 20e-9);
        assert_eq!(b.overlap_s, 0.0);
        assert_eq!(b.idle_s, 0.0);
    }

    #[test]
    fn breakdown_clips_spans_to_total() {
        let mut t = Trace::enabled();
        t.span(span("map", 0, 5, 50));
        let b = t.breakdown(SimDuration::from_nanos(10));
        assert_eq!(b.phases[0].busy_s, 5e-9);
        assert_eq!(b.phases[0].exclusive_s, 5e-9);
        assert_eq!(b.idle_s, 5e-9);
        assert!(b.reconciles(1e-12));
    }

    #[test]
    fn breakdown_json_round_trips() {
        let mut t = Trace::enabled();
        t.span(span("map", 0, 0, 7));
        t.span(span("shuffle", 1, 3, 9));
        let b = t.breakdown(SimDuration::from_nanos(12));
        let back = PhaseBreakdown::from_json(&b.to_json()).unwrap();
        assert_eq!(back, b);
        // Canonical: serializing the parsed value reproduces the text.
        assert_eq!(back.to_json().to_pretty(), b.to_json().to_pretty());
    }

    #[test]
    fn chrome_export_shape() {
        let mut t = Trace::enabled();
        t.span(span("map", 3, 1_000, 4_000));
        t.mark("launch map 0".into(), 0, 3, SimTime::from_nanos(500));
        t.mark(
            "node crash".into(),
            1,
            Mark::NO_LANE,
            SimTime::from_nanos(2_000),
        );
        let mut events = Vec::new();
        t.chrome_events(0, "job", &mut events);
        // process_name + thread_name + 1 span + 2 marks.
        assert_eq!(events.len(), 5);
        let span_ev = events
            .iter()
            .find(|e| e.field_str("ph").unwrap() == "X")
            .unwrap();
        assert_eq!(span_ev.field_str("name").unwrap(), "map");
        assert_eq!(span_ev.field_f64("ts").unwrap(), 1.0);
        assert_eq!(span_ev.field_f64("dur").unwrap(), 3.0);
        assert_eq!(span_ev.field_u64("tid").unwrap(), 3);
        // The node-level mark is process-scoped and carries no tid.
        let crash = events
            .iter()
            .find(|e| e.field_str("name").unwrap() == "node crash")
            .unwrap();
        assert_eq!(crash.field_str("s").unwrap(), "p");
        assert!(crash.get("tid").is_none());
        // Every event survives a parse round-trip.
        let doc = Json::Arr(events);
        let back = Json::parse(&doc.to_compact()).unwrap();
        assert_eq!(back.to_compact(), doc.to_compact());
    }
}
