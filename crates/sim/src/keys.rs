//! Canonical metric keys owned by the simulator itself.
//!
//! Each layer of the stack declares its keys in a module like this one
//! (`plwg_vsync::keys`, `plwg_naming::keys`, `plwg_core::keys`), so
//! writers and readers share one typed spelling per metric.

crate::metric_keys! {
    family = SIM;

    /// Messages handed to the network model by [`crate::Context::send`].
    pub const NET_SENT: CounterKey = "net.sent";
    /// Messages delivered to a live, reachable process.
    pub const NET_DELIVERED: CounterKey = "net.delivered";
    /// Messages dropped by loss, partition or crash.
    pub const NET_DROPPED: CounterKey = "net.dropped";
    /// Encoded frame bytes handed to the network model (per-copy: a multicast
    /// counts each receiver's copy, like [`NET_SENT`] does).
    pub const NET_BYTES_SENT: CounterKey = "net.bytes_sent";
    /// Distribution of encoded frame sizes on the wire.
    pub const NET_FRAME_BYTES: HistogramKey = "net.frame_bytes";
}
