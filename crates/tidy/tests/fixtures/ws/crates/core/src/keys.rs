//! Fixture: metric keys — one live, one dead, one allowed-dead.

plwg_sim::metric_keys! {
    family = CORE;

    pub const LIVE_KEY: CounterKey = "fx.live";
    pub const DEAD_KEY: CounterKey = "fx.dead";
    // tidy-allow(metric-keys): reserved for the next fixture generation
    pub const PARKED_KEY: GaugeKey = "fx.parked";
}
