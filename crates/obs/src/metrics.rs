//! Log-linear HDR-style histograms: the distribution scalars
//! (`<name>_{count,mean,p50,p99,max}`) of every backend's `RunReport`.

/// Sub-bucket resolution: 2^4 = 16 linear sub-buckets per power of two,
/// bounding the relative quantization error at ~6%.
const SUB_BITS: u32 = 4;
const SUBS: u64 = 1 << SUB_BITS;

/// A log-linear histogram of non-negative integer values (HdrHistogram's
/// bucketing scheme): values below 2^4 get exact unit buckets, larger
/// values 16 linear sub-buckets per octave. Recording is O(1) and
/// allocation-free after the first value of a given magnitude. Bucket
/// counts, totals and extrema are all exact integer quantities (sums stay
/// below 2^53), so a histogram is byte-identical however its values were
/// ordered: a report may feed them in flow-id order, not finish order.
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
}
