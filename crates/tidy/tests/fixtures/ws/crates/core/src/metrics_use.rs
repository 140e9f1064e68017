//! Fixture: emission hygiene — typed key fine, bare string and inline
//! construction flagged, allow honoured.

pub fn emit(m: &mut MetricsRegistry) {
    m.incr(LIVE_KEY);
    m.incr("fx.inline");
    let _k = CounterKey::new("fx.adhoc");
    // tidy-allow(metric-keys): fixture proves the annotation is honoured
    m.observe("fx.allowed", 1);
}
