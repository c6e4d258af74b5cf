//! Time-series sampling and rate integration.
//!
//! The micro-benchmark suite reports more than a single job time: it prints
//! resource-utilization series (paper Fig. 7). These containers are
//! deliberately allocation-light so they can be updated from hot simulator
//! paths.

use std::sync::Arc;

use crate::json::Json;
use crate::time::{SimDuration, SimTime};

/// One `(time, value)` sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sample {
    /// When the sample was taken.
    pub time: SimTime,
    /// The observed value.
    pub value: f64,
}

const NOT_A_PAIR: &str = "time series sample must be a [time_ns, value] pair";

/// An append-only time series, e.g. per-second CPU % on a node.
///
/// The samples sit in one shared allocation, which [`TimeSeries::to_json`]
/// and [`TimeSeries::from_json`] hand to and take from a [`Json::Pairs`]
/// node without copying; a push after sharing copies them once.
#[derive(Clone, Debug, Default)]
pub struct TimeSeries {
    samples: Arc<Vec<Sample>>,
}

impl TimeSeries {
    /// Empty series.
    pub fn new() -> Self {
        TimeSeries::default()
    }

    /// Append a sample; time must be non-decreasing.
    pub fn push(&mut self, time: SimTime, value: f64) {
        if let Some(last) = self.samples.last() {
            debug_assert!(time >= last.time, "time series must be monotonic");
        }
        Arc::make_mut(&mut self.samples).push(Sample { time, value });
    }

    /// All samples in order.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Largest sampled value.
    pub fn peak(&self) -> Option<f64> {
        self.samples
            .iter()
            .map(|s| s.value)
            .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.max(v))))
    }

    /// Mean of sampled values.
    pub fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            None
        } else {
            Some(self.samples.iter().map(|s| s.value).sum::<f64>() / self.samples.len() as f64)
        }
    }

    /// Serialize as an array of `[time_ns, value]` pairs: one
    /// [`Json::Pairs`] node sharing this series' samples.
    pub fn to_json(&self) -> Json {
        Json::Pairs(Arc::clone(&self.samples))
    }

    /// Rebuild from any of a series' three encodings, rejecting a time
    /// before the one preceding it in each:
    ///
    /// * a [`Json::Pairs`] node, as [`TimeSeries::to_json`] builds it,
    ///   whose samples are shared, not copied;
    /// * a [`Json::Str`] of raw sample bits, as [`encode_bits`] writes
    ///   it into result-store fragments;
    /// * an `Arr` of `[time_ns, value]` pairs, as the text of the
    ///   `Pairs` node, and every other layout of it, parses.
    pub fn from_json(json: &Json) -> Result<Self, String> {
        let samples = match json {
            Json::Pairs(samples) => {
                check_order(samples)?;
                Arc::clone(samples)
            }
            Json::Str(bits) => Arc::new(decode_bits(bits)?),
            _ => {
                let items = json.as_arr().ok_or("time series must be an array")?;
                let samples = items
                    .iter()
                    .map(|item| match item.as_arr() {
                        Some([time, value]) => Ok(Sample {
                            time: SimTime::from_nanos(
                                time.as_u64().ok_or("sample time must be a u64")?,
                            ),
                            value: value.as_f64().ok_or("sample value must be a number")?,
                        }),
                        _ => Err(NOT_A_PAIR),
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                check_order(&samples)?;
                Arc::new(samples)
            }
        };
        Ok(TimeSeries { samples })
    }
}

/// Rejects a sample whose time precedes the one before it, which no
/// series records.
fn check_order(samples: &[Sample]) -> Result<(), String> {
    if samples.windows(2).any(|w| w[1].time < w[0].time) {
        return Err("sample times must not decrease".into());
    }
    Ok(())
}

/// Bytes of one sample in the raw-bits form.
const RECORD: usize = 16;

/// The standard base64 alphabet (RFC 4648 §4).
const BASE64: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// [`BASE64`] read back a group of four bytes at a time: `SEXTETS[i][b]`
/// is byte `b`'s value in the alphabet shifted to the place of the
/// group's byte `i` in a 24-bit word, or [`NOT_BASE64`] for a byte
/// outside the alphabet, so that a group decodes as four loads ORed.
const SEXTETS: [[u32; 256]; 4] = {
    let mut table = [[NOT_BASE64; 256]; 4];
    let mut i = 0;
    while i < 4 {
        let mut value = 0;
        while value < 64 {
            table[i][BASE64[value] as usize] = (value as u32) << (18 - 6 * i);
            value += 1;
        }
        i += 1;
    }
    table
};

/// Marks a byte outside the alphabet: a bit above the 24 a group fills,
/// which survives ORing the group's values.
const NOT_BASE64: u32 = 1 << 24;

/// The raw-bits form of a series: each sample as a 16-byte little-endian
/// record, the time as its `u64` nanoseconds and the value as
/// [`f64::to_bits`], and the records as one padded base64 string. It
/// keeps every value bit for bit, NaN payloads and infinities included,
/// which the text form cannot, and [`TimeSeries::from_json`] takes it
/// back without a number to parse.
pub fn encode_bits(samples: &[Sample]) -> String {
    let mut raw = Vec::with_capacity(samples.len() * RECORD);
    for s in samples {
        raw.extend_from_slice(&s.time.as_nanos().to_le_bytes());
        raw.extend_from_slice(&s.value.to_bits().to_le_bytes());
    }
    let sextet = |group: u32, shift: u32| BASE64[(group >> shift & 63) as usize];
    let mut out = Vec::with_capacity(raw.len().div_ceil(3) * 4);
    let mut groups = raw.chunks_exact(3);
    for g in &mut groups {
        let group = u32::from(g[0]) << 16 | u32::from(g[1]) << 8 | u32::from(g[2]);
        out.extend([18, 12, 6, 0].map(|shift| sextet(group, shift)));
    }
    match *groups.remainder() {
        [a] => {
            let group = u32::from(a) << 16;
            out.extend([sextet(group, 18), sextet(group, 12), b'=', b'=']);
        }
        [a, b] => {
            let group = u32::from(a) << 16 | u32::from(b) << 8;
            out.extend([sextet(group, 18), sextet(group, 12), sextet(group, 6), b'=']);
        }
        _ => {}
    }
    String::from_utf8(out).expect("base64 is ASCII")
}

/// Reads [`encode_bits`]'s form back, accepting only what it writes: a
/// non-empty string of [`BASE64`] bytes in groups of four, with one or
/// two `=` only where the last group needs them and the bits they pad
/// zero, holding whole records whose times do not decrease.
fn decode_bits(text: &str) -> Result<Vec<Sample>, String> {
    let text = text.as_bytes();
    if text.is_empty() || !text.len().is_multiple_of(4) {
        return Err("sample bits must be whole groups of four base64 bytes".into());
    }
    let pad = match text {
        [.., b'=', b'='] => 2,
        [.., b'='] => 1,
        _ => 0,
    };
    let len = text.len() / 4 * 3 - pad;
    if !len.is_multiple_of(RECORD) {
        return Err("sample bits must hold whole 16-byte records".into());
    }
    // The last group decodes like the rest with its padding read as
    // zero sextets, which then must leave the padded bytes zero.
    let (body, end) = text.split_at(text.len() - 4);
    let mut last = [BASE64[0]; 4];
    last[..4 - pad].copy_from_slice(&end[..4 - pad]);
    let mut raw = vec![0u8; text.len() / 4 * 3];
    let mut bad = 0;
    let mut decode = |out: &mut [u8], group: &[u8]| {
        let bits = (0..4).fold(0, |bits, i| bits | SEXTETS[i][usize::from(group[i])]);
        bad |= bits;
        out.copy_from_slice(&bits.to_be_bytes()[1..]);
    };
    let (raw_body, raw_last) = raw.split_at_mut(body.len() / 4 * 3);
    for (out, group) in raw_body.chunks_exact_mut(3).zip(body.chunks_exact(4)) {
        decode(out, group);
    }
    decode(raw_last, &last);
    if bad & NOT_BASE64 != 0 {
        return Err("sample bits hold a byte outside the base64 alphabet".into());
    }
    if raw[len..].iter().any(|&b| b != 0) {
        return Err("sample bits are not padded with zero bits".into());
    }
    let samples: Vec<Sample> = raw[..len]
        .chunks_exact(RECORD)
        .map(|record| {
            let (time, value) = record.split_at(8);
            let word = |b: &[u8]| u64::from_le_bytes(b.try_into().expect("eight bytes"));
            Sample {
                time: SimTime::from_nanos(word(time)),
                value: f64::from_bits(word(value)),
            }
        })
        .collect();
    check_order(&samples)?;
    Ok(samples)
}

/// Integrates a piecewise-constant rate over simulated time; used to turn
/// "bytes per second right now" into "bytes moved this sampling interval".
#[derive(Clone, Debug)]
pub struct RateIntegrator {
    last_time: SimTime,
    // simlint: allow(unit-suffix, unit-generic integrator; callers integrate bytes/s or cores)
    rate: f64,
    accumulated: f64,
}

impl RateIntegrator {
    /// Start integrating at `start` with rate 0.
    pub fn new(start: SimTime) -> Self {
        RateIntegrator {
            last_time: start,
            rate: 0.0,
            accumulated: 0.0,
        }
    }

    /// Change the instantaneous rate at time `now` (integrating the old
    /// rate up to `now` first).
    // simlint: allow(unit-suffix, unit-generic integrator; callers integrate bytes/s or cores)
    pub fn set_rate(&mut self, now: SimTime, rate: f64) {
        self.advance(now);
        self.rate = rate;
    }

    /// Integrate up to `now` without changing the rate.
    pub fn advance(&mut self, now: SimTime) {
        debug_assert!(now >= self.last_time);
        let dt = now.since(self.last_time).as_secs_f64();
        self.accumulated += self.rate * dt;
        self.last_time = now;
    }

    /// Current instantaneous rate.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Take (and reset) everything integrated so far.
    pub fn drain(&mut self, now: SimTime) -> f64 {
        self.advance(now);
        std::mem::take(&mut self.accumulated)
    }

    /// Peek at the integral without resetting.
    pub fn total(&self) -> f64 {
        self.accumulated
    }
}

/// Samples one series per node at a fixed interval, `dstat`-style: the
/// paper's Fig. 7 plots CPU % and network MB/s on a slave this way.
///
/// The reading comes from a closure `sample(node, at, window_s)` that
/// drains what accrued on `node` up to `at` and returns it as a rate over
/// a window of `window_s` seconds. The caller advances its source to the
/// sampling instant first.
#[derive(Debug)]
pub struct IntervalSampler {
    interval: SimDuration,
    next_sample: SimTime,
    series: Vec<TimeSeries>,
}

impl IntervalSampler {
    /// Sample `n_nodes` series every `interval`.
    pub fn new(n_nodes: usize, interval: SimDuration) -> Self {
        assert!(!interval.is_zero(), "sampling interval must be positive");
        IntervalSampler {
            interval,
            next_sample: SimTime::ZERO + interval,
            series: vec![TimeSeries::new(); n_nodes],
        }
    }

    /// Take every whole-interval sample due at or before `now`.
    pub fn maybe_sample(
        &mut self,
        now: SimTime,
        mut sample: impl FnMut(usize, SimTime, f64) -> f64,
    ) {
        while self.next_sample <= now {
            let at = self.next_sample;
            let dt = self.interval.as_secs_f64();
            for (node, series) in self.series.iter_mut().enumerate() {
                series.push(at, sample(node, at, dt));
            }
            self.next_sample += self.interval;
        }
    }

    /// Emit the final, possibly partial, sampling window ending at `end`.
    ///
    /// `maybe_sample` only fires on whole-interval boundaries, so what
    /// accrued between the last tick and `end` would otherwise be dropped.
    /// The tail sample is the rate over the partial window, stamped at
    /// `end`. Idempotent: a second flush at the same instant, or a flush
    /// landing exactly on a tick, adds nothing.
    pub fn flush(&mut self, end: SimTime, mut sample: impl FnMut(usize, SimTime, f64) -> f64) {
        self.maybe_sample(end, &mut sample);
        let window_start = self.next_sample - self.interval;
        if end <= window_start {
            return;
        }
        let dt = end.since(window_start).as_secs_f64();
        for (node, series) in self.series.iter_mut().enumerate() {
            series.push(end, sample(node, end, dt));
        }
        // The flushed window is consumed; the next whole interval starts
        // at `end`.
        self.next_sample = end + self.interval;
    }

    /// The instant the next whole-interval sample is due.
    pub fn next_sample(&self) -> SimTime {
        self.next_sample
    }

    /// Drop, unsampled, every whole window that ends at or before `now`:
    /// the source was idle through them. The grid keeps its phase.
    pub fn skip_to(&mut self, now: SimTime) {
        if self.next_sample <= now {
            let step = self.interval.as_nanos();
            let windows = now.since(self.next_sample).as_nanos() / step + 1;
            self.next_sample = self
                .next_sample
                .saturating_add(SimDuration::from_nanos(windows.saturating_mul(step)));
        }
    }

    /// One series per node, in node order.
    pub fn series(&self) -> &[TimeSeries] {
        &self.series
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    #[test]
    fn time_series() {
        let mut ts = TimeSeries::new();
        assert!(ts.is_empty());
        ts.push(SimTime::from_secs(1), 10.0);
        ts.push(SimTime::from_secs(2), 30.0);
        ts.push(SimTime::from_secs(3), 20.0);
        assert_eq!(ts.len(), 3);
        assert_eq!(ts.peak(), Some(30.0));
        assert_eq!(ts.mean(), Some(20.0));
        assert_eq!(ts.samples()[1].value, 30.0);
    }

    #[test]
    fn time_series_json_round_trip() {
        let mut ts = TimeSeries::new();
        ts.push(SimTime::from_nanos(1_500_000_000), 111.8251);
        ts.push(SimTime::from_secs(2), 0.0);
        ts.push(SimTime::from_nanos(u64::MAX), 1.0 / 3.0);
        let text = ts.to_json().to_compact();
        let back = TimeSeries::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.samples(), ts.samples());
        assert!(TimeSeries::from_json(&Json::parse("[[1]]").unwrap()).is_err());
        assert!(TimeSeries::from_json(&Json::parse("{}").unwrap()).is_err());
    }

    #[test]
    fn every_form_round_trips_bit_for_bit() {
        let mut ts = TimeSeries::new();
        for (ns, v) in [
            (0, -0.0),
            (0, f64::NAN),
            (7, f64::NEG_INFINITY),
            (1_500_000_000, 111.8251),
            (u64::MAX, 1.0 / 3.0),
        ] {
            ts.push(SimTime::from_nanos(ns), v);
        }
        let bits = |ts: &TimeSeries| -> Vec<(SimTime, u64)> {
            ts.samples()
                .iter()
                .map(|s| (s.time, s.value.to_bits()))
                .collect()
        };
        // The packed node shares the samples both ways.
        let packed = ts.to_json();
        assert!(matches!(&packed, Json::Pairs(p) if p.len() == ts.len()));
        let back = TimeSeries::from_json(&packed).unwrap();
        assert!(std::ptr::eq(back.samples(), ts.samples()));
        // The raw-bits string keeps even the non-finite values.
        let text = encode_bits(ts.samples());
        assert_eq!(text.len(), (5 * RECORD).div_ceil(3) * 4);
        let back = TimeSeries::from_json(&Json::Str(text)).unwrap();
        assert_eq!(bits(&back), bits(&ts));
        let empty = TimeSeries::from_json(&TimeSeries::new().to_json()).unwrap();
        assert!(empty.is_empty());
        // A backwards time is rejected in every form alike.
        let mut backwards = TimeSeries::new();
        backwards.push(SimTime::from_nanos(2), 0.0);
        Arc::make_mut(&mut backwards.samples).push(Sample {
            time: SimTime::from_nanos(1),
            value: 0.0,
        });
        let err = TimeSeries::from_json(&backwards.to_json()).unwrap_err();
        let parsed = Json::parse("[[2,0],[1,0]]").unwrap();
        assert_eq!(TimeSeries::from_json(&parsed).unwrap_err(), err);
        let text = encode_bits(backwards.samples());
        assert_eq!(TimeSeries::from_json(&Json::Str(text)).unwrap_err(), err);
    }

    /// A sampler reading: (amount accrued in the window, window seconds).
    type Reading = fn(f64, f64) -> f64;

    /// The CPU sampler's reading: busy core-seconds as % of 4 cores.
    fn cpu_pct(core_s: f64, dt: f64) -> f64 {
        core_s / dt / 4.0 * 100.0
    }

    /// The network sampler's reading: bytes received as MB/s.
    fn rx_mb_s(bytes: f64, dt: f64) -> f64 {
        bytes / dt / 1e6
    }

    /// Sample one [`RateIntegrator`] source per node through `reading`.
    fn from<'a>(
        src: &'a mut [RateIntegrator],
        reading: Reading,
    ) -> impl FnMut(usize, SimTime, f64) -> f64 + 'a {
        move |node, at, dt| reading(src[node].drain(at), dt)
    }

    #[test]
    fn windows_average_the_source() {
        // Node 1 keeps 2 of 4 cores busy for 2 s, then idles; node 0
        // never works.
        let mut src = vec![RateIntegrator::new(SimTime::ZERO); 2];
        src[1].set_rate(SimTime::ZERO, 2.0);
        let mut mon = IntervalSampler::new(2, SimDuration::from_secs(1));
        mon.maybe_sample(SimTime::from_secs(1), from(&mut src, cpu_pct));
        src[1].set_rate(SimTime::from_secs(2), 0.0);
        // One call catches up every tick due by 4 s.
        mon.maybe_sample(SimTime::from_nanos(4_500_000_000), from(&mut src, cpu_pct));
        let values = |node: usize| -> Vec<f64> {
            mon.series()[node]
                .samples()
                .iter()
                .map(|s| s.value)
                .collect()
        };
        assert_eq!(values(1), vec![50.0, 50.0, 0.0, 0.0]);
        assert_eq!(values(0), vec![0.0; 4]);
        let times: Vec<u64> = mon.series()[1]
            .samples()
            .iter()
            .map(|s| s.time.as_nanos() / 1_000_000_000)
            .collect();
        assert_eq!(times, vec![1, 2, 3, 4]);
    }

    #[test]
    fn flush_captures_the_final_partial_window() {
        // (source rate, busy until, reading, expected reading): one busy
        // core of four until 2.5 s, and 560 MiB at 112 MB/s into node 1.
        let cases: [(f64, u64, Reading, f64); 2] = [
            (1.0, 2_500_000_000, cpu_pct, 25.0),
            (112e6, 5_242_880_000, rx_mb_s, 112.0),
        ];
        for (rate, end_ns, reading, expect) in cases {
            let end = SimTime::from_nanos(end_ns);
            let mut src = vec![RateIntegrator::new(SimTime::ZERO); 2];
            src[1].set_rate(SimTime::ZERO, rate);
            let mut mon = IntervalSampler::new(2, SimDuration::from_secs(1));
            mon.maybe_sample(end, from(&mut src, reading));
            let whole = mon.series()[1].len();
            assert_eq!(whole as u64, end_ns / 1_000_000_000);
            src[1].set_rate(end, 0.0);
            mon.flush(end, from(&mut src, reading));
            let series = &mon.series()[1];
            assert_eq!(series.len(), whole + 1, "flush adds the tail window");
            assert_eq!(series.samples().last().unwrap().time, end);
            // Every window, the partial one included, reads the source
            // rate, and the series integrates back to all of the work:
            // nothing accrued after the last tick is dropped.
            let mut prev = SimTime::ZERO;
            let mut integral = 0.0;
            for s in series.samples() {
                assert!((s.value - expect).abs() < 1e-9 * expect, "{s:?}");
                integral += s.value * s.time.since(prev).as_secs_f64();
                prev = s.time;
            }
            let total = expect * end.as_secs_f64();
            assert!(
                (integral - total).abs() < 1e-9 * total,
                "{integral} vs {total}"
            );
            assert!(mon.series()[0].samples().iter().all(|s| s.value == 0.0));
            // Flushing again at the same instant adds nothing.
            mon.flush(end, from(&mut src, reading));
            assert_eq!(mon.series()[1].len(), whole + 1);
        }
    }

    #[test]
    fn flush_on_a_tick_boundary_adds_no_sample() {
        let mut src = vec![RateIntegrator::new(SimTime::ZERO)];
        let mut mon = IntervalSampler::new(1, SimDuration::from_secs(1));
        mon.maybe_sample(SimTime::from_secs(2), from(&mut src, rx_mb_s));
        mon.flush(SimTime::from_secs(2), from(&mut src, rx_mb_s));
        // Whole intervals at 1 s and 2 s only; no extra tail sample.
        assert_eq!(mon.series()[0].len(), 2);
    }

    #[test]
    fn skip_to_drops_idle_windows_and_keeps_the_grid() {
        let mut src = vec![RateIntegrator::new(SimTime::ZERO)];
        let mut mon = IntervalSampler::new(1, SimDuration::from_secs(1));
        mon.maybe_sample(SimTime::from_secs(2), from(&mut src, rx_mb_s));
        // Idle until 7.5 s: the windows ending at 3..=7 s are dropped.
        mon.skip_to(SimTime::from_nanos(7_500_000_000));
        assert_eq!(mon.next_sample(), SimTime::from_secs(8));
        // A window ending exactly at the resume instant is dropped too,
        // and skipping to a time before the next tick changes nothing.
        mon.skip_to(SimTime::from_secs(8));
        assert_eq!(mon.next_sample(), SimTime::from_secs(9));
        mon.skip_to(SimTime::from_nanos(8_500_000_000));
        assert_eq!(mon.next_sample(), SimTime::from_secs(9));
        mon.maybe_sample(SimTime::from_secs(9), from(&mut src, rx_mb_s));
        let times: Vec<u64> = mon.series()[0]
            .samples()
            .iter()
            .map(|s| s.time.as_nanos() / 1_000_000_000)
            .collect();
        assert_eq!(times, vec![1, 2, 9]);
        // Near the top of the clock the grid saturates instead of wrapping.
        mon.skip_to(SimTime::MAX);
        assert_eq!(mon.next_sample(), SimTime::MAX);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_interval_rejected() {
        let _ = IntervalSampler::new(1, SimDuration::ZERO);
    }

    #[test]
    fn rate_integrator() {
        let mut ri = RateIntegrator::new(SimTime::ZERO);
        ri.set_rate(SimTime::ZERO, 100.0);
        ri.set_rate(SimTime::from_secs(2), 50.0);
        let total = ri.drain(SimTime::from_secs(4));
        assert!((total - 300.0).abs() < 1e-9);
        // Drained: restarts from zero.
        assert_eq!(ri.total(), 0.0);
        ri.advance(SimTime::from_secs(6));
        assert!((ri.total() - 100.0).abs() < 1e-9);
        assert_eq!(ri.rate(), 50.0);
    }
}
