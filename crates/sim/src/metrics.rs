//! The metrics registry: counters, gauges and histograms collected during
//! a run.
//!
//! Metrics are addressed by **typed keys** ([`CounterKey`], [`GaugeKey`],
//! [`HistogramKey`]) — thin `'static`-string newtypes each protocol crate
//! declares as constants in a `keys` module. One series per key, world-wide:
//! the experiment harness reads the registry to regenerate the paper's
//! figures — latency histograms, message counts, throughput, recovery times.

use std::collections::BTreeMap;

/// Typed name of a counter metric.
///
/// Crates declare these as constants (`pub const NET_SENT: CounterKey =
/// CounterKey::new("net.sent");`). There is deliberately no conversion from
/// `&str`: the registry takes only keys, so a misspelt name is a compile
/// error, not a silent zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CounterKey(pub &'static str);

/// Typed name of a gauge metric (a value that goes up and down).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GaugeKey(pub &'static str);

/// Typed name of a histogram metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HistogramKey(pub &'static str);

macro_rules! key_impls {
    ($key:ident) => {
        impl $key {
            /// Creates a key from its canonical dotted name.
            pub const fn new(name: &'static str) -> Self {
                $key(name)
            }

            /// The canonical dotted name.
            pub const fn name(self) -> &'static str {
                self.0
            }
        }

        impl std::fmt::Display for $key {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.write_str(self.0)
            }
        }
    };
}

key_impls!(CounterKey);
key_impls!(GaugeKey);
key_impls!(HistogramKey);

/// A set of values summarised by quantiles.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    values: Vec<u64>,
}

/// Summary statistics of a [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSummary {
    /// Number of recorded samples.
    pub count: usize,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Arithmetic mean (0 when empty).
    pub mean: f64,
    /// Median.
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
}

impl Histogram {
    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.values.push(value);
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.values.len()
    }

    /// Iterates over samples in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.values.iter().copied()
    }

    /// Computes summary statistics.
    ///
    /// Percentiles use the nearest-rank method: `p`-th percentile = the
    /// `ceil(p·n)`-th smallest sample. With few samples this errs towards
    /// the larger sample — for `n = 2`, p95 and p99 report the max, not
    /// the min — which is the conservative choice for latency reporting.
    pub fn summary(&self) -> HistogramSummary {
        if self.values.is_empty() {
            return HistogramSummary {
                count: 0,
                min: 0,
                max: 0,
                mean: 0.0,
                p50: 0,
                p95: 0,
                p99: 0,
            };
        }
        let mut sorted = self.values.clone();
        sorted.sort_unstable();
        let n = sorted.len();
        let pct = |p: f64| -> u64 {
            // Nearest-rank: smallest sample with at least p·n samples ≤ it.
            let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
            sorted[rank - 1]
        };
        let sum: u128 = sorted.iter().map(|&v| v as u128).sum();
        HistogramSummary {
            count: n,
            min: sorted.first().copied().unwrap_or(0),
            max: sorted.last().copied().unwrap_or(0),
            mean: sum as f64 / n as f64,
            p50: pct(0.50),
            p95: pct(0.95),
            p99: pct(0.99),
        }
    }
}

/// The world's metric sink: counters, gauges and histograms addressed by
/// typed keys.
///
/// Key names are dotted strings (`"net.sent"`, `"lwg.switches"`); each
/// crate exports its canonical keys in a `keys` module. `BTreeMap` keeps
/// report output deterministically ordered.
///
/// ```
/// use plwg_sim::{CounterKey, HistogramKey, MetricsRegistry};
/// const NET_SENT: CounterKey = CounterKey::new("net.sent");
/// const LATENCY_US: HistogramKey = HistogramKey::new("latency_us");
///
/// let mut m = MetricsRegistry::new();
/// m.incr(NET_SENT);
/// m.add(NET_SENT, 2);
/// m.observe(LATENCY_US, 1_500);
/// assert_eq!(m.counter(NET_SENT), 3);
/// assert_eq!(m.histogram(LATENCY_US).map(|h| h.summary().max), Some(1_500));
/// ```
///
/// A bare string is not a key:
///
/// ```compile_fail
/// let m = plwg_sim::MetricsRegistry::new();
/// let _ = m.counter("net.sent");
/// ```
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<CounterKey, u64>,
    gauges: BTreeMap<GaugeKey, i64>,
    histograms: BTreeMap<HistogramKey, Histogram>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    // -- counters ------------------------------------------------------

    /// Adds 1 to counter `key`.
    pub fn incr(&mut self, key: CounterKey) {
        self.add(key, 1);
    }

    /// Adds `delta` to counter `key`.
    pub fn add(&mut self, key: CounterKey, delta: u64) {
        *self.counters.entry(key).or_insert(0) += delta;
    }

    /// Value of counter `key` (0 if never touched).
    pub fn counter(&self, key: CounterKey) -> u64 {
        self.counters.get(&key).copied().unwrap_or(0)
    }

    /// All counters by key name, sorted.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(k, &v)| (k.name(), v))
    }

    // -- gauges --------------------------------------------------------

    /// Sets gauge `key`.
    pub fn set_gauge(&mut self, key: GaugeKey, value: i64) {
        self.gauges.insert(key, value);
    }

    /// Gauge `key`, if ever set.
    pub fn gauge(&self, key: GaugeKey) -> Option<i64> {
        self.gauges.get(&key).copied()
    }

    // -- histograms ----------------------------------------------------

    /// Records `value` into histogram `key`.
    pub fn observe(&mut self, key: HistogramKey, value: u64) {
        self.histograms.entry(key).or_default().record(value);
    }

    /// Histogram `key`, if any sample was recorded.
    pub fn histogram(&self, key: HistogramKey) -> Option<&Histogram> {
        self.histograms.get(&key)
    }

    // -- lifecycle -----------------------------------------------------

    /// Clears all counters, gauges and histograms. Experiments use this to
    /// scope measurement to a phase (e.g. drop setup traffic, measure
    /// steady state only).
    pub fn reset(&mut self) {
        self.counters.clear();
        self.gauges.clear();
        self.histograms.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: CounterKey = CounterKey::new("a");
    const Z: CounterKey = CounterKey::new("z");
    const G: GaugeKey = GaugeKey::new("g");

    #[test]
    fn counters_accumulate() {
        let mut m = MetricsRegistry::new();
        m.incr(A);
        m.add(A, 4);
        assert_eq!(m.counter(A), 5);
        assert_eq!(m.counter(Z), 0);
    }

    #[test]
    fn gauges_overwrite() {
        let mut m = MetricsRegistry::new();
        assert_eq!(m.gauge(G), None);
        m.set_gauge(G, 5);
        m.set_gauge(G, -2);
        assert_eq!(m.gauge(G), Some(-2));
    }

    #[test]
    fn histogram_summary_quantiles() {
        let mut h = Histogram::default();
        for v in 1..=100 {
            h.record(v);
        }
        let s = h.summary();
        assert_eq!(s.count, 100);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 100);
        assert_eq!(s.p50, 50);
        assert_eq!(s.p95, 95);
        assert_eq!(s.p99, 99);
        assert!((s.mean - 50.5).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_summary_is_zeroed() {
        let s = Histogram::default().summary();
        assert_eq!(s.count, 0);
        assert_eq!(s.max, 0);
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.p95, 0);
    }

    #[test]
    fn one_sample_histogram_reports_it_everywhere() {
        let mut h = Histogram::default();
        h.record(42);
        let s = h.summary();
        assert_eq!(s.count, 1);
        assert_eq!((s.min, s.max), (42, 42));
        assert_eq!((s.p50, s.p95, s.p99), (42, 42, 42));
    }

    #[test]
    fn two_sample_histogram_upper_percentiles_hit_max() {
        let mut h = Histogram::default();
        h.record(10);
        h.record(90);
        let s = h.summary();
        assert_eq!(s.count, 2);
        assert_eq!(s.p50, 10);
        // Nearest-rank: p95 of two samples is the larger one (the old
        // floor-based index wrongly reported the min here).
        assert_eq!(s.p95, 90);
        assert_eq!(s.p99, 90);
    }

    #[test]
    fn counters_iteration_is_sorted() {
        let mut m = MetricsRegistry::new();
        m.incr(Z);
        m.incr(A);
        let names: Vec<&str> = m.counters().map(|(k, _)| k).collect();
        assert_eq!(names, vec!["a", "z"]);
    }
}
