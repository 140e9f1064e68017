//! Fixture: emission hygiene — typed key fine, inline construction
//! flagged, allow honoured.

pub fn emit(m: &mut MetricsRegistry) {
    m.incr(LIVE_KEY);
    let _k = CounterKey::new("fx.adhoc");
    // tidy-allow(metric-keys): fixture proves the annotation is honoured
    let _a = GaugeKey::new("fx.allowed");
}
