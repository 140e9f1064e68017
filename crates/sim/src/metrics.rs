//! The metrics registry: counters, gauges and histograms collected during
//! a run.
//!
//! Metrics are addressed by **typed keys** ([`CounterKey`], [`GaugeKey`],
//! [`HistogramKey`]) that each protocol crate declares once, with
//! [`metric_keys!`](crate::metric_keys), in a `keys` module. Every key
//! carries a dense slot, so recording is an array write: no map walk, no
//! string compare, no allocation. One series per key, world-wide: the
//! experiment harness reads the registry to regenerate the paper's figures
//! — latency histograms, message counts, throughput, recovery times.

/// Metric key families: each layer that declares keys owns one block of
/// 64 registry slots, numbered by [`metric_keys!`](crate::metric_keys). The
/// metrics counterpart of the wire [`family`](crate::family) table.
pub mod metric_family {
    /// The simulator's network (`net.*`, `plwg_sim::keys`).
    pub const SIM: u16 = 0;
    /// The HWG substrate (`hwg.*`, `plwg_hwg::keys`).
    pub const HWG: u16 = 1;
    /// The vsync stack's own keys (`fd.*`, `vs.*`, `plwg_vsync::keys`).
    pub const VSYNC: u16 = 2;
    /// The naming service (`ns.*`, `plwg_naming::keys`).
    pub const NAMING: u16 = 3;
    /// The light-weight group service (`lwg.*`, `plwg_core::keys`).
    pub const CORE: u16 = 4;
    /// The real-socket runtime (`netio.*`, `plwg_net::keys`).
    pub const NET: u16 = 5;
    /// Number of families.
    pub(crate) const COUNT: u16 = 6;
}

/// Slots per family: the most keys one `metric_keys!` invocation may declare.
const FAMILY_SLOTS: u16 = 64;
/// Slots in the registry, across all families.
const SLOTS: usize = (metric_family::COUNT * FAMILY_SLOTS) as usize;

/// Declares a crate's metric keys and numbers them into one family's slots.
///
/// Each line keeps the `pub const NAME: Kind = "dotted.name";` shape, where
/// `Kind` is `CounterKey`, `GaugeKey` or `HistogramKey`. Keys are numbered
/// in declaration order, so two keys of one family cannot share a slot.
///
/// ```
/// plwg_sim::metric_keys! {
///     family = SIM;
///     /// Messages handed to the network.
///     pub const SENT: CounterKey = "net.sent";
///     /// Encoded frame sizes.
///     pub const FRAME_BYTES: HistogramKey = "net.frame_bytes";
/// }
/// assert_eq!(SENT.name(), "net.sent");
/// ```
///
/// A family holds at most 64 keys; a 65th does not build:
///
/// ```compile_fail
/// plwg_sim::metric_keys! {
///     family = SIM;
///     pub const K00: CounterKey = "k00"; pub const K01: CounterKey = "k01";
///     pub const K02: CounterKey = "k02"; pub const K03: CounterKey = "k03";
///     pub const K04: CounterKey = "k04"; pub const K05: CounterKey = "k05";
///     pub const K06: CounterKey = "k06"; pub const K07: CounterKey = "k07";
///     pub const K08: CounterKey = "k08"; pub const K09: CounterKey = "k09";
///     pub const K10: CounterKey = "k10"; pub const K11: CounterKey = "k11";
///     pub const K12: CounterKey = "k12"; pub const K13: CounterKey = "k13";
///     pub const K14: CounterKey = "k14"; pub const K15: CounterKey = "k15";
///     pub const K16: CounterKey = "k16"; pub const K17: CounterKey = "k17";
///     pub const K18: CounterKey = "k18"; pub const K19: CounterKey = "k19";
///     pub const K20: CounterKey = "k20"; pub const K21: CounterKey = "k21";
///     pub const K22: CounterKey = "k22"; pub const K23: CounterKey = "k23";
///     pub const K24: CounterKey = "k24"; pub const K25: CounterKey = "k25";
///     pub const K26: CounterKey = "k26"; pub const K27: CounterKey = "k27";
///     pub const K28: CounterKey = "k28"; pub const K29: CounterKey = "k29";
///     pub const K30: CounterKey = "k30"; pub const K31: CounterKey = "k31";
///     pub const K32: CounterKey = "k32"; pub const K33: CounterKey = "k33";
///     pub const K34: CounterKey = "k34"; pub const K35: CounterKey = "k35";
///     pub const K36: CounterKey = "k36"; pub const K37: CounterKey = "k37";
///     pub const K38: CounterKey = "k38"; pub const K39: CounterKey = "k39";
///     pub const K40: CounterKey = "k40"; pub const K41: CounterKey = "k41";
///     pub const K42: CounterKey = "k42"; pub const K43: CounterKey = "k43";
///     pub const K44: CounterKey = "k44"; pub const K45: CounterKey = "k45";
///     pub const K46: CounterKey = "k46"; pub const K47: CounterKey = "k47";
///     pub const K48: CounterKey = "k48"; pub const K49: CounterKey = "k49";
///     pub const K50: CounterKey = "k50"; pub const K51: CounterKey = "k51";
///     pub const K52: CounterKey = "k52"; pub const K53: CounterKey = "k53";
///     pub const K54: CounterKey = "k54"; pub const K55: CounterKey = "k55";
///     pub const K56: CounterKey = "k56"; pub const K57: CounterKey = "k57";
///     pub const K58: CounterKey = "k58"; pub const K59: CounterKey = "k59";
///     pub const K60: CounterKey = "k60"; pub const K61: CounterKey = "k61";
///     pub const K62: CounterKey = "k62"; pub const K63: CounterKey = "k63";
///     pub const K64: CounterKey = "k64";
/// }
/// ```
#[macro_export]
macro_rules! metric_keys {
    (
        family = $family:ident;
        $( $(#[$meta:meta])* pub const $name:ident : $kind:ident = $key:literal; )*
    ) => {
        /// Declaration order: each key's index within its family.
        #[allow(non_camel_case_types, clippy::upper_case_acronyms)]
        #[repr(u16)]
        enum __MetricSlot {
            $( $name, )*
        }

        $(
            $(#[$meta])*
            pub const $name: $crate::$kind = $crate::$kind::new(
                $crate::metric_family::$family,
                __MetricSlot::$name as u16,
                $key,
            );
        )*
    };
}

macro_rules! key_type {
    ($(#[$meta:meta])* $key:ident) => {
        $(#[$meta])*
        ///
        /// Declared only through [`metric_keys!`](crate::metric_keys). There
        /// is deliberately no conversion from `&str`: the registry takes
        /// only keys, so a misspelt name is a compile error, not a silent
        /// zero.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $key {
            slot: u16,
            name: &'static str,
        }

        impl $key {
            /// The key in slot `index` of metric family `family`. Called by
            /// [`metric_keys!`](crate::metric_keys), which numbers the keys;
            /// an `index` of 64 or more (a 65th key) fails the `const`
            /// evaluation.
            #[doc(hidden)]
            pub const fn new(family: u16, index: u16, name: &'static str) -> Self {
                assert!(family < metric_family::COUNT, "unknown metric family");
                assert!(index < FAMILY_SLOTS, "a metric family holds at most 64 keys");
                $key {
                    slot: family * FAMILY_SLOTS + index,
                    name,
                }
            }

            /// The canonical dotted name.
            pub const fn name(self) -> &'static str {
                self.name
            }

            fn slot(self) -> usize {
                usize::from(self.slot)
            }
        }

        impl std::fmt::Display for $key {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.write_str(self.name)
            }
        }
    };
}

key_type!(
    /// Typed name of a counter metric.
    CounterKey
);
key_type!(
    /// Typed name of a gauge metric (a value that goes up and down).
    GaugeKey
);
key_type!(
    /// Typed name of a histogram metric.
    HistogramKey
);

/// Values below this are recorded exactly, one bucket each.
const LINEAR: u64 = 1 << 14;
/// Above [`LINEAR`] every power of two is split into `2^SUB_BITS` buckets.
const SUB_BITS: u32 = 9;
/// Buckets needed to cover every `u64`.
const BUCKETS: usize =
    LINEAR as usize + (((u64::BITS - LINEAR.trailing_zeros()) as usize) << SUB_BITS);

/// Bucket of `v`: `v` itself below [`LINEAR`], else its octave and the
/// next [`SUB_BITS`] bits below the leading one.
fn bucket_of(v: u64) -> usize {
    if v < LINEAR {
        return v as usize;
    }
    let top = v.ilog2();
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

/// A set of `u64` samples summarised by quantiles, in bounded memory.
///
/// Log-linear buckets: exact below 16 384, and above that 512 buckets per
/// power of two, so a bucket's floor is at most the value and within
/// 0.2 % of it. The bucket vector grows only to the highest bucket hit
/// (at most 41 984 `u32`s for the whole `u64` range); count, sum, min and
/// max are kept exactly.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    /// Samples per bucket, saturating.
    buckets: Vec<u32>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
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
    /// Records one sample. Allocates only when `value` lands above every
    /// bucket held so far.
    pub fn record(&mut self, value: u64) {
        let i = bucket_of(value);
        if i >= self.buckets.len() {
            // At least double, so a creeping maximum reallocates rarely.
            let len = (i + 1).max(2 * self.buckets.len()).min(BUCKETS);
            self.buckets.reserve_exact(len - self.buckets.len());
            self.buckets.resize(len, 0);
        }
        if let Some(b) = self.buckets.get_mut(i) {
            *b = b.saturating_add(1);
        }
        self.min = if self.count == 0 {
            value
        } else {
            self.min.min(value)
        };
        self.max = self.max.max(value);
        self.count += 1;
        self.sum += u128::from(value);
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.count as usize
    }

    /// Nearest-rank percentile: the floor of the bucket holding the
    /// `ceil(p·n)`-th smallest sample, clamped to `[min, max]`.
    fn percentile(&self, p: f64) -> u64 {
        let rank = ((p * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += u64::from(n);
            if seen >= rank {
                return floor_of(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Computes summary statistics.
    ///
    /// `count`, `min`, `max` and `mean` are exact. Percentiles use the
    /// nearest-rank method: `p`-th percentile = the `ceil(p·n)`-th smallest
    /// sample, exact below 16 384 and its bucket floor (≤ 0.2 % low) above.
    /// With few samples this errs towards the larger sample — for `n = 2`,
    /// p95 and p99 report the max, not the min — which is the conservative
    /// choice for latency reporting.
    pub fn summary(&self) -> HistogramSummary {
        if self.count == 0 {
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
        HistogramSummary {
            count: self.count(),
            min: self.min,
            max: self.max,
            mean: self.sum as f64 / self.count as f64,
            p50: self.percentile(0.50),
            p95: self.percentile(0.95),
            p99: self.percentile(0.99),
        }
    }
}

/// The world's metric sink: counters, gauges and histograms addressed by
/// typed keys.
///
/// Each kind is a fixed array indexed by the key's slot. A counter records
/// its key's name on first touch, and [`counters`](Self::counters) reports
/// the touched ones sorted by name, so report output is deterministically
/// ordered.
///
/// ```
/// use plwg_sim::MetricsRegistry;
/// plwg_sim::metric_keys! {
///     family = SIM;
///     pub const NET_SENT: CounterKey = "net.sent";
///     pub const LATENCY_US: HistogramKey = "latency_us";
/// }
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
#[derive(Debug, Clone)]
pub struct MetricsRegistry {
    /// Name and value of each touched counter.
    counters: Box<[Option<(&'static str, u64)>; SLOTS]>,
    gauges: Box<[Option<i64>; SLOTS]>,
    histograms: Box<[Option<Box<Histogram>>; SLOTS]>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry {
            counters: Box::new([None; SLOTS]),
            gauges: Box::new([None; SLOTS]),
            histograms: Box::new(std::array::from_fn(|_| None)),
        }
    }
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
        if let Some(c) = self.counters.get_mut(key.slot()) {
            c.get_or_insert((key.name, 0)).1 += delta;
        }
    }

    /// Value of counter `key` (0 if never touched).
    pub fn counter(&self, key: CounterKey) -> u64 {
        self.counters
            .get(key.slot())
            .copied()
            .flatten()
            .map_or(0, |(_, v)| v)
    }

    /// All touched counters by key name, sorted.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> {
        let mut touched: Vec<(&'static str, u64)> =
            self.counters.iter().flatten().copied().collect();
        touched.sort_unstable_by_key(|&(name, _)| name);
        touched.into_iter()
    }

    // -- gauges --------------------------------------------------------

    /// Sets gauge `key`.
    pub fn set_gauge(&mut self, key: GaugeKey, value: i64) {
        if let Some(g) = self.gauges.get_mut(key.slot()) {
            *g = Some(value);
        }
    }

    /// Gauge `key`, if ever set.
    pub fn gauge(&self, key: GaugeKey) -> Option<i64> {
        self.gauges.get(key.slot()).copied().flatten()
    }

    // -- histograms ----------------------------------------------------

    /// Records `value` into histogram `key`.
    pub fn observe(&mut self, key: HistogramKey, value: u64) {
        if let Some(h) = self.histograms.get_mut(key.slot()) {
            h.get_or_insert_with(Box::default).record(value);
        }
    }

    /// Histogram `key`, if any sample was recorded.
    pub fn histogram(&self, key: HistogramKey) -> Option<&Histogram> {
        self.histograms.get(key.slot())?.as_deref()
    }

    // -- lifecycle -----------------------------------------------------

    /// Clears all counters, gauges and histograms. Experiments use this to
    /// scope measurement to a phase (e.g. drop setup traffic, measure
    /// steady state only).
    pub fn reset(&mut self) {
        self.counters.fill(None);
        self.gauges.fill(None);
        self.histograms.fill(None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Z before A, so slot order and name order disagree.
    crate::metric_keys! {
        family = SIM;
        pub const Z: CounterKey = "z";
        pub const A: CounterKey = "a";
        pub const UNTOUCHED: CounterKey = "m";
        pub const G: GaugeKey = "g";
        pub const H: HistogramKey = "h";
    }

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
    fn histogram_is_exact_below_the_linear_range() {
        for v in [0, 1, 2, 1_000, LINEAR - 1] {
            assert_eq!(floor_of(bucket_of(v)), v);
        }
        assert_eq!(bucket_of(LINEAR - 1) + 1, bucket_of(LINEAR));
        let mut h = Histogram::default();
        for v in [LINEAR - 1, 7, 7, 300] {
            h.record(v);
        }
        let s = h.summary();
        assert_eq!((s.p50, s.p95, s.p99), (7, LINEAR - 1, LINEAR - 1));
    }

    #[test]
    fn histogram_bucket_floor_is_within_a_fifth_of_a_percent_below() {
        for v in [LINEAR, LINEAR + 1, 123_456, 987_654_321, u64::MAX] {
            let floor = floor_of(bucket_of(v));
            assert!(floor <= v, "{floor} > {v}");
            assert!(v - floor <= v / 512, "{v} -> {floor}");
        }
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn histogram_min_max_mean_are_exact_across_both_regions() {
        let mut h = Histogram::default();
        let samples = [123_456, 5, 987_654_321, LINEAR + 1, 16_000];
        for v in samples {
            h.record(v);
        }
        let s = h.summary();
        assert_eq!((s.count, s.min, s.max), (5, 5, 987_654_321));
        let sum: u64 = samples.iter().sum();
        assert_eq!(s.mean, sum as f64 / 5.0);
        // Percentiles above the linear range are floors clamped to the
        // observed range, never outside it.
        assert_eq!(s.p99, floor_of(bucket_of(987_654_321)));
        let mut one = Histogram::default();
        one.record(123_456);
        let s = one.summary();
        assert_eq!(
            (s.min, s.p50, s.p99, s.max),
            (123_456, 123_456, 123_456, 123_456)
        );
    }

    #[test]
    fn histogram_buckets_stay_within_the_bucket_count() {
        let mut h = Histogram::default();
        for v in [3, LINEAR, 1 << 40, u64::MAX, u64::MAX, 9] {
            h.record(v);
            assert!(h.buckets.len() <= BUCKETS);
            assert!(h.buckets.capacity() <= BUCKETS);
        }
        assert_eq!(h.buckets.len(), BUCKETS);
        assert_eq!(h.summary().max, u64::MAX);
    }

    #[test]
    fn counters_iteration_is_sorted_and_touched_only() {
        let mut m = MetricsRegistry::new();
        m.incr(Z);
        m.add(A, 0);
        let got: Vec<(&str, u64)> = m.counters().collect();
        assert_eq!(got, vec![("a", 0), ("z", 1)]);
        assert_eq!(m.counter(UNTOUCHED), 0);
    }

    #[test]
    fn reset_clears_every_kind() {
        let mut m = MetricsRegistry::new();
        m.incr(A);
        m.set_gauge(G, 1);
        m.observe(H, 1);
        m.reset();
        assert_eq!(m.counters().count(), 0);
        assert_eq!(m.counter(A), 0);
        assert_eq!(m.gauge(G), None);
        assert!(m.histogram(H).is_none());
    }
}
