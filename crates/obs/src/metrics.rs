//! The metrics registry: named counters and log-linear HDR-style
//! histograms, the uniform export path behind both backends' `RunReport`
//! metric scalars.
//!
//! Hot paths hold typed handles ([`CounterId`], [`HistId`]) obtained once at
//! setup, so an update is an indexed add — no name lookup, no allocation.

/// Handle to a registered counter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle to a registered histogram.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistId(usize);

/// Sub-bucket resolution: 2^4 = 16 linear sub-buckets per power of two,
/// bounding the relative quantization error at ~6%.
const SUB_BITS: u32 = 4;
const SUBS: u64 = 1 << SUB_BITS;

/// A log-linear histogram of non-negative integer values (HdrHistogram's
/// bucketing scheme): values below 2^4 get exact unit buckets, larger
/// values 16 linear sub-buckets per octave. Recording is O(1) and
/// allocation-free after the first value of a given magnitude.
#[derive(Clone, Debug, Default)]
pub struct Histogram {
    /// Bucket counts, grown lazily to the highest index touched.
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min: u64,
    max: u64,
}

/// Bucket index of a value.
fn bucket_of(v: u64) -> usize {
    if v < SUBS {
        v as usize
    } else {
        let exp = 63 - v.leading_zeros();
        let sub = (v >> (exp - SUB_BITS)) & (SUBS - 1);
        (((exp - SUB_BITS) as u64 + 1) * SUBS + sub) as usize
    }
}

/// Representative (midpoint) value of a bucket index — the inverse of
/// [`bucket_of`] up to quantization.
fn bucket_value(ix: usize) -> u64 {
    let ix = ix as u64;
    if ix < SUBS {
        ix
    } else {
        let exp = ix / SUBS - 1 + SUB_BITS as u64;
        let sub = ix % SUBS;
        let lo = (1u64 << exp) | (sub << (exp - SUB_BITS as u64));
        lo + (1u64 << (exp - SUB_BITS as u64)) / 2
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: Vec::new(),
            count: 0,
            sum: 0.0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one value.
    pub fn record(&mut self, v: u64) {
        let ix = bucket_of(v);
        if self.counts.len() <= ix {
            self.counts.resize(ix + 1, 0);
        }
        self.counts[ix] += 1;
        self.count += 1;
        self.sum += v as f64;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Record a non-negative float, rounded to the nearest integer unit.
    pub fn record_f64(&mut self, v: f64) {
        if v.is_finite() && v >= 0.0 {
            self.record(v.round() as u64);
        }
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value, exact.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Fold `other`'s recorded values into `self`. Because recording
    /// rounds to integer units first, bucket counts, totals and extrema
    /// are all exact integer quantities (sums stay below 2^53), so the
    /// merged histogram is byte-identical to one fed the union of values
    /// in any order — the property the sharded DES relies on when it
    /// combines per-shard telemetry.
    pub fn absorb(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.counts.len() < other.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (ix, &c) in other.counts.iter().enumerate() {
            self.counts[ix] += c;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Nearest-rank percentile (`p` in [0, 100]) as a bucket-midpoint
    /// value; exact at the recorded extremes, within ~6% elsewhere.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (ix, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_value(ix).clamp(self.min, self.max);
            }
        }
        self.max
    }
}

/// A registry of named metrics. Names are registered once (returning a
/// handle) and exported in registration order, which keeps downstream
/// artifacts diffable.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Vec<(String, u64)>,
    hists: Vec<(String, Histogram)>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register (or find) a counter by name.
    pub fn counter(&mut self, name: &str) -> CounterId {
        if let Some(ix) = self.counters.iter().position(|(n, _)| n == name) {
            return CounterId(ix);
        }
        self.counters.push((name.to_string(), 0));
        CounterId(self.counters.len() - 1)
    }

    /// Register (or find) a histogram by name.
    pub fn histogram(&mut self, name: &str) -> HistId {
        if let Some(ix) = self.hists.iter().position(|(n, _)| n == name) {
            return HistId(ix);
        }
        self.hists.push((name.to_string(), Histogram::new()));
        HistId(self.hists.len() - 1)
    }

    /// Add to a counter.
    #[inline]
    pub fn inc(&mut self, id: CounterId, by: u64) {
        self.counters[id.0].1 += by;
    }

    /// Record a histogram value.
    #[inline]
    pub fn observe(&mut self, id: HistId, v: u64) {
        self.hists[id.0].1.record(v);
    }

    /// Record a histogram value given as a non-negative float.
    #[inline]
    pub fn observe_f64(&mut self, id: HistId, v: f64) {
        self.hists[id.0].1.record_f64(v);
    }

    /// Counters in registration order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(n, v)| (n.as_str(), *v))
    }

    /// Histograms in registration order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.hists.iter().map(|(n, h)| (n.as_str(), h))
    }

    /// Fold another registry into this one, matching metrics by name:
    /// counters add, histograms [`Histogram::absorb`]. Metrics
    /// only present in `other` are appended in `other`'s registration
    /// order, so two registries built by identical setup code merge into
    /// one with the same export order.
    pub fn absorb(&mut self, other: &MetricsRegistry) {
        for (n, v) in other.counters() {
            let id = self.counter(n);
            self.inc(id, v);
        }
        for (n, h) in other.histograms() {
            let id = self.histogram(n);
            self.hists[id.0].1.absorb(h);
        }
    }

    /// Flatten every metric into `(name, value)` scalar pairs, in
    /// registration order: counters as-is, histograms as
    /// `<name>_{count,mean,p50,p99,max}`. Deterministic for deterministic
    /// inputs, so the pairs are safe to embed in run artifacts.
    pub fn scalar_pairs(&self) -> Vec<(String, f64)> {
        let mut out = Vec::new();
        for (n, v) in self.counters() {
            out.push((n.to_string(), v as f64));
        }
        for (n, h) in self.histograms() {
            if h.count() == 0 {
                continue;
            }
            out.push((format!("{n}_count"), h.count() as f64));
            out.push((format!("{n}_mean"), h.mean()));
            out.push((format!("{n}_p50"), h.percentile(50.0) as f64));
            out.push((format!("{n}_p99"), h.percentile(99.0) as f64));
            out.push((format!("{n}_max"), h.max() as f64));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_invert_within_tolerance() {
        for v in [0u64, 1, 15, 16, 17, 100, 1000, 65_537, 1 << 40] {
            let mid = bucket_value(bucket_of(v));
            let err = (mid as f64 - v as f64).abs() / (v.max(1) as f64);
            assert!(err <= 0.07, "v={v} mid={mid} err={err}");
        }
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..16 {
            h.record(v);
        }
        assert_eq!(h.count(), 16);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 15);
        assert_eq!(h.percentile(100.0), 15);
        assert_eq!(h.percentile(0.0), 0);
    }

    #[test]
    fn percentiles_track_a_wide_distribution() {
        let mut h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        let p50 = h.percentile(50.0) as f64;
        let p99 = h.percentile(99.0) as f64;
        assert!((p50 - 5000.0).abs() / 5000.0 < 0.07, "p50={p50}");
        assert!((p99 - 9900.0).abs() / 9900.0 < 0.07, "p99={p99}");
        assert_eq!(h.max(), 10_000);
        assert!((h.mean() - 5000.5).abs() < 1e-6);
    }

    #[test]
    fn registry_handles_and_scalars() {
        let mut r = MetricsRegistry::new();
        let c = r.counter("widgets");
        assert_eq!(r.counter("widgets"), c, "re-registration returns same id");
        r.inc(c, 2);
        r.inc(c, 3);
        let h = r.histogram("lat");
        r.observe(h, 10);
        r.observe(h, 20);
        let pairs = r.scalar_pairs();
        let get = |k: &str| pairs.iter().find(|(n, _)| n == k).map(|(_, v)| *v);
        assert_eq!(get("widgets"), Some(5.0));
        assert_eq!(get("lat_count"), Some(2.0));
        assert_eq!(get("lat_max"), Some(20.0));
    }

    #[test]
    fn empty_histograms_export_nothing() {
        let mut r = MetricsRegistry::new();
        r.histogram("never_fed");
        assert!(r.scalar_pairs().is_empty());
    }
}
