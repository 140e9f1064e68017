//! Order statistics: nearest-rank percentiles, the quartiles the builder's
//! driver computes, and a bounded latency histogram.
#![forbid(unsafe_code)]

/// Nearest-rank percentile of an ascending slice: the `ceil(p·n)`-th
/// smallest sample (the larger neighbour when few samples exist, which is
/// the conservative side for a latency). `None` when empty.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    Some(sorted[rank - 1])
}

/// Sorts a copy of `values` ascending (total order, so a stray NaN cannot
/// panic the report).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank median of unsorted values.
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(&sorted(values), 0.5)
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the "exclusive" method,
/// which the driver uses to judge run-to-run spread). One sample yields
/// itself three times; none yields `None`.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let x = sorted(values);
    let n = x.len();
    match n {
        0 => return None,
        1 => return Some([x[0]; 3]),
        _ => {}
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (x[j - 1] * (4.0 - delta) + x[j] * delta) / 4.0
    };
    Some([cut(1), cut(2), cut(3)])
}

/// Distance between the quartiles as a share of the median — the spread
/// the driver holds against a metric's bound.
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// Values below this are counted exactly, one bucket each.
const LINEAR: u64 = 1 << 14;
/// Buckets per power of two above [`LINEAR`] (relative error < 0.2 %).
const SUB_BITS: u32 = 9;

/// A fixed-size histogram of `u64` samples: exact below 16384, within
/// 0.2 % above. Recording never allocates, so a host can keep one for a
/// whole run without retaining anything per message.
#[derive(Clone)]
pub struct LatencyHist {
    buckets: Vec<u32>,
    count: u64,
    max: u64,
}

impl Default for LatencyHist {
    fn default() -> Self {
        let octaves = (u64::BITS - LINEAR.trailing_zeros()) as usize;
        LatencyHist {
            buckets: vec![0; LINEAR as usize + (octaves << SUB_BITS)],
            count: 0,
            max: 0,
        }
    }
}

impl LatencyHist {
    fn index(v: u64) -> usize {
        if v < LINEAR {
            return v as usize;
        }
        let top = u64::BITS - 1 - v.leading_zeros();
        let octave = (top - LINEAR.trailing_zeros()) as usize;
        let sub = ((v >> (top - SUB_BITS)) & ((1 << SUB_BITS) - 1)) as usize;
        LINEAR as usize + (octave << SUB_BITS) + sub
    }

    /// Lowest value that lands in bucket `i`.
    fn floor_of(i: usize) -> u64 {
        if i < LINEAR as usize {
            return i as u64;
        }
        let i = i - LINEAR as usize;
        let top = (i >> SUB_BITS) as u32 + LINEAR.trailing_zeros();
        let sub = (i & ((1 << SUB_BITS) - 1)) as u64;
        (1 << top) | (sub << (top - SUB_BITS))
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        let b = &mut self.buckets[Self::index(v)];
        *b = b.saturating_add(1);
        self.count += 1;
        self.max = self.max.max(v);
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &LatencyHist) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a = a.saturating_add(*b);
        }
        self.count += other.count;
        self.max = self.max.max(other.max);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Largest sample recorded (exact).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Percentile by nearest rank, placed inside its bucket by the rank's
    /// position among the bucket's samples (samples sharing a value are
    /// taken as spread evenly over `[v, v + width)`). A bucket holding one
    /// sample yields that sample's bucket floor exactly; a bucket holding
    /// a million yields a value that still tells two runs apart. 0 when
    /// empty.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((p * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            let c = u64::from(c);
            if seen + c >= rank {
                let floor = Self::floor_of(i);
                let next = if i + 1 < self.buckets.len() {
                    Self::floor_of(i + 1)
                } else {
                    u64::MAX
                };
                let width = (next - floor).max(1);
                return floor as f64 + width as f64 * (rank - seen - 1) as f64 / c as f64;
            }
            seen += c;
        }
        self.max as f64
    }
}

/// Mean of the fastest tenth of `rates` (at least one of them).
///
/// On a shared machine interference only ever slows a chunk down, so the
/// fast tail of identical chunks is the steady estimate of what the code
/// sustains: over ten runs its quartile distance was 2–3 % of its median
/// where the median rate's was 5–14 %.
pub fn sustained(rates: &[f64]) -> Option<f64> {
    let mut fastest = sorted(rates);
    fastest.reverse();
    fastest.truncate((rates.len() as f64 / 10.0).round().max(1.0) as usize);
    (!fastest.is_empty()).then(|| fastest.iter().sum::<f64>() / fastest.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_of_0_1_2_100_samples() {
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[7.0], 0.5), Some(7.0));
        assert_eq!(percentile(&[7.0], 0.95), Some(7.0));
        // Two samples: the median is the lower, p95 the upper.
        assert_eq!(percentile(&[1.0, 9.0], 0.5), Some(1.0));
        assert_eq!(percentile(&[1.0, 9.0], 0.95), Some(9.0));
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.5), Some(50.0));
        assert_eq!(percentile(&hundred, 0.95), Some(95.0));
        assert_eq!(percentile(&hundred, 1.0), Some(100.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        assert_eq!(quartiles(&[]), None);
        assert_eq!(quartiles(&[5.0]), Some([5.0; 3]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles(range(1, 101), n=4) == [25.25, 50.5, 75.75]
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quartiles(&hundred), Some([25.25, 50.5, 75.75]));
        assert_eq!(spread(&ten), Some(1.0));
        assert_eq!(spread(&[0.0, 0.0]), None);
    }

    #[test]
    fn sustained_is_the_mean_of_the_fastest_tenth() {
        assert_eq!(sustained(&[]), None);
        assert_eq!(sustained(&[3.0]), Some(3.0));
        assert_eq!(sustained(&[1.0, 9.0, 5.0]), Some(9.0));
        let thirty: Vec<f64> = (1..=30).map(f64::from).collect();
        assert_eq!(sustained(&thirty), Some(29.0));
    }

    #[test]
    fn hist_is_exact_below_the_linear_range() {
        let mut h = LatencyHist::default();
        assert_eq!(h.percentile(0.5), 0.0);
        h.record(42);
        assert_eq!((h.percentile(0.5), h.percentile(0.95)), (42.0, 42.0));
        h.record(1000);
        assert_eq!((h.percentile(0.5), h.percentile(0.95)), (42.0, 1000.0));
        let mut h = LatencyHist::default();
        for v in 1..=100 {
            h.record(v);
        }
        assert_eq!(h.percentile(0.5), 50.0);
        assert_eq!(h.percentile(0.95), 95.0);
        assert_eq!((h.count(), h.max()), (100, 100));
        // Samples sharing a value are spread over [v, v + 1).
        let mut h = LatencyHist::default();
        for _ in 0..4 {
            h.record(7);
        }
        assert_eq!((h.percentile(0.5), h.percentile(1.0)), (7.25, 7.75));
    }

    #[test]
    fn hist_is_within_a_fifth_of_a_percent_above() {
        for v in [LINEAR, LINEAR + 1, 123_456, 987_654_321, u64::MAX] {
            let floor = LatencyHist::floor_of(LatencyHist::index(v));
            assert!(floor <= v, "{floor} > {v}");
            assert!((v - floor) as f64 <= v as f64 / 512.0, "{v} -> {floor}");
        }
        assert_eq!(
            LatencyHist::index(LINEAR - 1) + 1,
            LatencyHist::index(LINEAR)
        );
        let mut a = LatencyHist::default();
        let mut b = LatencyHist::default();
        a.record(10);
        b.record(1 << 30);
        a.merge(&b);
        assert_eq!(
            (a.count(), a.max(), a.percentile(1.0)),
            (2, 1 << 30, (1u64 << 30) as f64)
        );
    }
}
