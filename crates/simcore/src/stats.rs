//! Time-series sampling and rate integration.
//!
//! The micro-benchmark suite reports more than a single job time: it prints
//! resource-utilization series (paper Fig. 7). These containers are
//! deliberately allocation-light so they can be updated from hot simulator
//! paths.

use crate::json::Json;
use crate::time::SimTime;

/// One `(time, value)` sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sample {
    /// When the sample was taken.
    pub time: SimTime,
    /// The observed value.
    pub value: f64,
}

/// An append-only time series, e.g. per-second CPU % on a node.
#[derive(Clone, Debug, Default)]
pub struct TimeSeries {
    samples: Vec<Sample>,
}

impl TimeSeries {
    /// Empty series.
    pub fn new() -> Self {
        TimeSeries {
            samples: Vec::new(),
        }
    }

    /// Append a sample; time must be non-decreasing.
    pub fn push(&mut self, time: SimTime, value: f64) {
        if let Some(last) = self.samples.last() {
            debug_assert!(time >= last.time, "time series must be monotonic");
        }
        self.samples.push(Sample { time, value });
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

    /// Serialize as an array of `[time_ns, value]` pairs.
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.samples
                .iter()
                .map(|s| Json::Arr(vec![Json::from(s.time.as_nanos()), Json::from(s.value)]))
                .collect(),
        )
    }

    /// Rebuild from the [`TimeSeries::to_json`] encoding.
    pub fn from_json(json: &Json) -> Result<Self, String> {
        let items = json.as_arr().ok_or("time series must be an array")?;
        let mut ts = TimeSeries::new();
        for item in items {
            let pair = item.as_arr().ok_or("time series sample must be a pair")?;
            if pair.len() != 2 {
                return Err("time series sample must be a [time_ns, value] pair".into());
            }
            let time = pair[0].as_u64().ok_or("sample time must be a u64")?;
            let value = pair[1].as_f64().ok_or("sample value must be a number")?;
            ts.push(SimTime::from_nanos(time), value);
        }
        Ok(ts)
    }
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
