//! Canonical metric keys of the naming service.

plwg_sim::metric_keys! {
    family = NAMING;

    /// `ns.set` requests served.
    pub const SETS: CounterKey = "ns.sets";
    /// `ns.read` requests served.
    pub const READS: CounterKey = "ns.reads";
    /// `ns.testset` requests served.
    pub const TESTSETS: CounterKey = "ns.testsets";
    /// `ns.unset` requests served.
    pub const UNSETS: CounterKey = "ns.unsets";
    /// `MULTIPLE-MAPPINGS` callbacks emitted.
    pub const CALLBACKS: CounterKey = "ns.callbacks";
    /// Gossip rounds that changed the local replica.
    pub const RECONCILIATIONS: CounterKey = "ns.reconciliations";
    /// `Sync` messages sent, on the gossip tick and as replies.
    pub const GOSSIP_SENT: CounterKey = "ns.gossip_sent";
    /// Frame bytes of the `Sync` messages sent.
    pub const GOSSIP_BYTES: CounterKey = "ns.gossip_bytes";
    /// Lineage edges removed by periodic compaction.
    pub const COMPACTED_EDGES: CounterKey = "ns.compacted_edges";
    /// Client-stub requests dispatched.
    pub const CLIENT_REQUESTS: CounterKey = "ns.client_requests";
    /// Client-stub retries after a server timeout.
    pub const CLIENT_RETRIES: CounterKey = "ns.client_retries";
    /// Incoming frames of this service's wire family that failed to decode
    /// (dropped; never panicked on).
    pub const DECODE_ERRORS: CounterKey = "ns.decode_errors";
}
