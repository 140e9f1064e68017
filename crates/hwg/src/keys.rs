//! Canonical metric keys of the HWG substrate.
//!
//! Declared here (below every substrate implementation) so that the vsync
//! stack, scripted substrates, the workload harness and the benches all
//! share one typed spelling per metric.

plwg_sim::metric_keys! {
    family = HWG;

    /// Multicasts handed to the substrate (full-view sends).
    pub const DATA_SENT: CounterKey = "hwg.data_sent";
    /// Application payload bytes handed to the substrate for multicast — counted
    /// once per multicast, not per receiver copy (contrast `net.bytes_sent`).
    pub const BYTES_MULTICAST: CounterKey = "hwg.bytes_multicast";
    /// Subset multicasts (interference-aware delivery).
    pub const SUBSET_SENDS: CounterKey = "hwg.subset_sends";
    /// Per-member copies trimmed off subset multicasts.
    pub const SUBSET_TRIMMED: CounterKey = "hwg.subset_trimmed";
    /// Skip markers processed instead of full payloads.
    pub const SUBSET_SKIPPED: CounterKey = "hwg.subset_skipped";
    /// Failure-detector beacons sent.
    pub const BEACONS: CounterKey = "hwg.beacons";
    /// Join probes broadcast while seeking a group.
    pub const JOIN_PROBES: CounterKey = "hwg.join_probes";
    /// Messages discarded for belonging to a foreign view.
    pub const DATA_FOREIGN_VIEW: CounterKey = "hwg.data_foreign_view";
    /// Duplicate messages discarded.
    pub const DATA_DUP: CounterKey = "hwg.data_dup";
    /// Messages delivered to the layer above.
    pub const DATA_DELIVERED: CounterKey = "hwg.data_delivered";
    /// Retransmissions supplied during a flush.
    pub const FLUSH_FILLS: CounterKey = "hwg.flush_fills";
    /// Flush rounds started.
    pub const FLUSHES: CounterKey = "hwg.flushes";
    /// Initiator side, per concluded flush round: µs from its `FlushReq` to
    /// the successor view or the merge report.
    pub const FLUSH_DURATION: HistogramKey = "hwg.flush_duration";
    /// Views installed.
    pub const VIEWS_INSTALLED: CounterKey = "hwg.views_installed";
    /// Gap NACKs sent.
    pub const NACKS_SENT: CounterKey = "hwg.nacks_sent";
    /// Retransmissions answered to NACKs.
    pub const NACK_RESENDS: CounterKey = "hwg.nack_resends";
    /// Stability ticks suppressed (nothing new to acknowledge).
    pub const STABILITY_SUPPRESSED: CounterKey = "hwg.stability_suppressed";
    /// Stable messages garbage-collected from the resend store.
    pub const STORE_GC: CounterKey = "hwg.store_gc";
    /// Vsync merges started (partition heal, leader side).
    pub const MERGES_STARTED: CounterKey = "hwg.merges_started";
    /// Vsync merges completed (merged view installed).
    pub const MERGES_COMPLETED: CounterKey = "hwg.merges_completed";
}
