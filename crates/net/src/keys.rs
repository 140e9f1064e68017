//! Canonical metric keys owned by the net runtime.
//!
//! Namespaced under `netio.*` to stay disjoint from the simulator's
//! virtual-network `net.*` keys — a process that mixes substrates (e.g.
//! the throughput bench comparing both) must not alias counters.

plwg_sim::metric_keys! {
    family = NET;

    /// Datagrams put on the wire by the runtime's socket.
    pub const NETIO_DGRAM_TX: CounterKey = "netio.dgram_tx";
    /// Datagrams received and successfully unpacked.
    pub const NETIO_DGRAM_RX: CounterKey = "netio.dgram_rx";
    /// Encoded datagram bytes put on the wire.
    pub const NETIO_BYTES_TX: CounterKey = "netio.bytes_tx";
    /// Frames dropped by per-peer send-queue backpressure.
    pub const NETIO_QUEUE_DROPPED: CounterKey = "netio.queue_dropped";
    /// Frames addressed to a node that was never registered as a peer
    /// (dropped: there is no queue to hold them and no address to try).
    pub const NETIO_UNROUTABLE: CounterKey = "netio.unroutable";
    /// Socket calls that failed at run time (send or receive); each is
    /// treated as a lost datagram.
    pub const NETIO_IO_ERRORS: CounterKey = "netio.io_errors";
    /// Peers currently in the `Up` state.
    pub const NETIO_PEERS_UP: GaugeKey = "netio.peers_up";
}
