//! Measurement primitives shared by all metric collectors.

use crate::time::SimTime;

/// A named time series of `(t, value)` samples.
#[derive(Clone, Debug, Default)]
pub struct TimeSeries {
    /// Series label used in CSV headers and printed tables.
    pub name: String,
    times: Vec<SimTime>,
    values: Vec<f64>,
}

impl TimeSeries {
    /// New empty series with a label.
    pub fn new(name: impl Into<String>) -> Self {
        TimeSeries {
            name: name.into(),
            times: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Append a sample. Samples must be pushed in nondecreasing time order.
    pub fn push(&mut self, t: SimTime, v: f64) {
        debug_assert!(self.times.last().is_none_or(|&last| t >= last));
        self.times.push(t);
        self.values.push(v);
    }

    /// Append a sample without the debug ordering assertion. For ingest
    /// paths replaying externally-produced data (artifact files), where
    /// ordering is checked once at serialization/use time via
    /// [`validate_ordering`](TimeSeries::validate_ordering) instead of per
    /// push.
    pub fn push_unchecked(&mut self, t: SimTime, v: f64) {
        self.times.push(t);
        self.values.push(v);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// True if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Iterate `(t, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, f64)> + '_ {
        self.times.iter().copied().zip(self.values.iter().copied())
    }

    /// Sampled values only.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Sample timestamps only.
    pub fn times(&self) -> &[SimTime] {
        &self.times
    }

    /// Maximum value (0 for an empty series).
    pub fn max(&self) -> f64 {
        self.values.iter().copied().fold(0.0, f64::max)
    }

    /// Arithmetic mean of the samples (0 for an empty series).
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().sum::<f64>() / self.values.len() as f64
        }
    }

    /// Mean over samples within `[from, to)`.
    pub fn mean_in(&self, from: SimTime, to: SimTime) -> f64 {
        let mut sum = 0.0;
        let mut n = 0usize;
        for (t, v) in self.iter() {
            if t >= from && t < to {
                sum += v;
                n += 1;
            }
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }

    /// First out-of-order sample, as `(index, previous_time, time)`, if any.
    ///
    /// [`push`](TimeSeries::push) asserts monotonicity only in debug
    /// builds; release-mode serializers call this (via
    /// [`validate_ordering`](TimeSeries::validate_ordering)) so a disordered
    /// series surfaces as a descriptive error instead of corrupt CSV/JSON.
    pub fn first_disorder(&self) -> Option<(usize, SimTime, SimTime)> {
        self.times
            .windows(2)
            .position(|w| w[1] < w[0])
            .map(|i| (i + 1, self.times[i], self.times[i + 1]))
    }

    /// Err with a descriptive message if samples are not in nondecreasing
    /// time order.
    pub fn validate_ordering(&self) -> Result<(), String> {
        match self.first_disorder() {
            None => Ok(()),
            Some((ix, prev, t)) => Err(format!(
                "series {:?}: out-of-order sample at index {ix} ({t} after {prev})",
                self.name
            )),
        }
    }
}

/// An unsorted bag of samples with percentile queries (nearest-rank).
#[derive(Clone, Debug, Default)]
pub struct Samples {
    data: Vec<f64>,
    sorted: bool,
}

impl Samples {
    /// New empty bag.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one sample.
    pub fn push(&mut self, x: f64) {
        self.data.push(x);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Arithmetic mean (0 for an empty bag).
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            self.data.iter().sum::<f64>() / self.data.len() as f64
        }
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.data
                .sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
            self.sorted = true;
        }
    }

    /// Nearest-rank percentile, `p` in `[0, 100]`. Returns 0 for empty bags.
    pub fn percentile(&mut self, p: f64) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        self.ensure_sorted();
        let n = self.data.len();
        let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
        self.data[rank.min(n) - 1]
    }

    /// Median (p50).
    pub fn median(&mut self) -> f64 {
        self.percentile(50.0)
    }

    /// Largest sample (0 for empty).
    pub fn max(&mut self) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        self.ensure_sorted();
        *self.data.last().unwrap()
    }
}

/// Jain's fairness index over per-flow throughputs:
/// `(Σx)² / (n · Σx²)`; 1.0 means perfectly fair. Empty input yields 0.
pub fn jain_index(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let sum: f64 = xs.iter().sum();
    let sq: f64 = xs.iter().map(|x| x * x).sum();
    if sq == 0.0 {
        return 1.0; // all zero: degenerate but "equal"
    }
    sum * sum / (xs.len() as f64 * sq)
}

/// Converts a monotonically growing byte counter into an interval rate.
///
/// Call [`RateMeter::sample`] at each sampling tick with the counter's
/// current value; it returns the average rate in bits/s since the previous
/// tick.
#[derive(Clone, Copy, Debug)]
pub struct RateMeter {
    last_bytes: u64,
    last_time: SimTime,
}

impl RateMeter {
    /// Start metering from `(t0, bytes0)`.
    pub fn new(t0: SimTime, bytes0: u64) -> Self {
        RateMeter {
            last_bytes: bytes0,
            last_time: t0,
        }
    }

    /// Rate in bits/s over `(last_tick, now]`; returns 0 for a zero-length
    /// interval. Counters must be monotone.
    pub fn sample(&mut self, now: SimTime, bytes: u64) -> f64 {
        let dt = now.since(self.last_time);
        let db = bytes.saturating_sub(self.last_bytes);
        self.last_bytes = bytes;
        self.last_time = now;
        if dt.is_zero() {
            0.0
        } else {
            (db as f64 * 8.0) / dt.as_secs_f64()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_series_basic_stats() {
        let mut s = TimeSeries::new("q");
        for i in 0..10u64 {
            s.push(SimTime::from_us(i), i as f64);
        }
        assert_eq!(s.len(), 10);
        assert_eq!(s.max(), 9.0);
        assert!((s.mean() - 4.5).abs() < 1e-12);
        assert_eq!(
            s.mean_in(SimTime::from_us(2), SimTime::from_us(5)),
            (2.0 + 3.0 + 4.0) / 3.0
        );
    }

    #[test]
    fn disorder_is_detected_at_validation_time() {
        let mut s = TimeSeries::new("q");
        s.push_unchecked(SimTime::from_us(1), 1.0);
        s.push_unchecked(SimTime::from_us(3), 2.0);
        s.push_unchecked(SimTime::from_us(2), 3.0);
        let (ix, prev, t) = s.first_disorder().expect("disorder present");
        assert_eq!(ix, 2);
        assert_eq!(prev, SimTime::from_us(3));
        assert_eq!(t, SimTime::from_us(2));
        let err = s.validate_ordering().unwrap_err();
        assert!(err.contains("\"q\"") && err.contains("index 2"), "{err}");
    }

    #[test]
    fn ordered_series_validate_clean() {
        let mut s = TimeSeries::new("ok");
        for i in 0..5u64 {
            s.push(SimTime::from_us(i), i as f64);
        }
        // Equal timestamps are legal (same-instant samples).
        s.push(SimTime::from_us(4), 9.0);
        assert!(s.first_disorder().is_none());
        assert!(s.validate_ordering().is_ok());
        assert!(TimeSeries::new("empty").validate_ordering().is_ok());
    }

    #[test]
    fn empty_series_is_safe() {
        let s = TimeSeries::new("e");
        assert!(s.is_empty());
        assert_eq!(s.max(), 0.0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn percentiles_nearest_rank() {
        let mut s = Samples::new();
        for i in 1..=100 {
            s.push(i as f64);
        }
        assert_eq!(s.percentile(50.0), 50.0);
        assert_eq!(s.percentile(95.0), 95.0);
        assert_eq!(s.percentile(99.0), 99.0);
        assert_eq!(s.percentile(100.0), 100.0);
        assert_eq!(s.percentile(0.0), 1.0);
        assert_eq!(s.median(), 50.0);
        assert_eq!(s.max(), 100.0);
        assert!((s.mean() - 50.5).abs() < 1e-12);
    }

    #[test]
    fn percentile_single_sample() {
        let mut s = Samples::new();
        s.push(7.5);
        assert_eq!(s.percentile(1.0), 7.5);
        assert_eq!(s.percentile(99.0), 7.5);
    }

    #[test]
    fn empty_samples_are_safe() {
        let mut s = Samples::new();
        assert_eq!(s.percentile(95.0), 0.0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.max(), 0.0);
    }

    #[test]
    fn jain_index_bounds() {
        assert_eq!(jain_index(&[]), 0.0);
        assert!((jain_index(&[5.0, 5.0, 5.0, 5.0]) - 1.0).abs() < 1e-12);
        // One flow hogging everything among n flows → index 1/n.
        let idx = jain_index(&[1.0, 0.0, 0.0, 0.0]);
        assert!((idx - 0.25).abs() < 1e-12);
        assert_eq!(jain_index(&[0.0, 0.0]), 1.0);
    }

    #[test]
    fn rate_meter_computes_interval_rate() {
        let mut m = RateMeter::new(SimTime::ZERO, 0);
        // 1250 bytes over 1 us = 10 Gb/s.
        let r = m.sample(SimTime::from_us(1), 1250);
        assert!((r - 10e9).abs() / 10e9 < 1e-9, "rate {r}");
        // No progress → zero rate.
        let r2 = m.sample(SimTime::from_us(2), 1250);
        assert_eq!(r2, 0.0);
        // Zero-length interval → 0, not NaN.
        let r3 = m.sample(SimTime::from_us(2), 9999);
        assert_eq!(r3, 0.0);
    }
}
