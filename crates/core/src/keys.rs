//! Canonical metric keys of the light-weight group service.
//!
//! Every counter and histogram the service records lives here as a typed
//! key, so readers (benches, workloads, tests) reference the same constant
//! the protocol increments instead of re-typing the string name.

plwg_sim::metric_keys! {
    family = CORE;

    // --- membership / view lifecycle -------------------------------------

    /// LWG views installed (join, leave, prune, switch and merge paths).
    pub const VIEWS_INSTALLED: CounterKey = "lwg.views_installed";
    /// LWG-level flush rounds started by a coordinator.
    pub const FLUSHES: CounterKey = "lwg.flushes";
    /// Pruned views computed (members fell out of the backing HWG).
    pub const PRUNES: CounterKey = "lwg.prunes";
    /// Switches started (policy, reconciliation or operator initiated).
    pub const SWITCHES: CounterKey = "lwg.switches";
    /// Idle HWGs left under the shrink rule.
    pub const SHRINKS: CounterKey = "lwg.shrinks";

    // --- partition healing ------------------------------------------------

    /// MULTIPLE-MAPPINGS notifications processed (paper §6.2 step 2).
    pub const RECONCILIATIONS: CounterKey = "lwg.reconciliations";
    /// `MergeViews` requests multicast (paper Fig. 5).
    pub const MERGE_VIEWS_SENT: CounterKey = "lwg.merge_views_sent";
    /// Merge rounds observed (first `MergeViews` per round).
    pub const MERGE_VIEWS_OBSERVED: CounterKey = "lwg.merge_views_observed";
    /// Merged views computed after a MERGE-VIEWS flush.
    pub const VIEWS_MERGED: CounterKey = "lwg.views_merged";
    /// LWGs a merge round deferred: a view came only by id, and no view
    /// that came in full names it as a predecessor.
    pub const MERGE_DEFERRED: CounterKey = "lwg.merge_deferred";
    /// Forward-pointer redirects sent to joiners with outdated mappings.
    pub const REDIRECTS_SENT: CounterKey = "lwg.redirects_sent";
    /// Redirects followed (join retargeted).
    pub const REDIRECTS_FOLLOWED: CounterKey = "lwg.redirects_followed";

    // --- data plane -------------------------------------------------------

    /// User multicasts submitted via `LwgService::send`.
    pub const DATA_SENT: CounterKey = "lwg.data_sent";
    /// Multicasts delivered upward to the application.
    pub const DATA_DELIVERED: CounterKey = "lwg.data_delivered";
    /// Multicasts dropped: tagged with a predecessor of the current view.
    pub const DATA_STALE: CounterKey = "lwg.data_stale";
    /// Multicasts tagged with a concurrent (never installed) view — the
    /// local peer discovery evidence of paper §6.3.
    pub const DATA_FOREIGN: CounterKey = "lwg.data_foreign";
    /// Multicasts filtered because this node is not in the group — the
    /// interference cost the Figure-1 policies minimise — or not in the
    /// view they are tagged with: a leaver's successor, or a view a joiner
    /// waited through before its first install.
    pub const FILTERED: CounterKey = "lwg.filtered";
    /// Incoming frames of the LWG wire family that failed to decode (dropped;
    /// never panicked on).
    pub const DECODE_ERRORS: CounterKey = "lwg.decode_errors";
    /// Data-plane multicasts addressed to a strict subset of the HWG view.
    pub const SUBSET_SENDS: CounterKey = "lwg.subset_sends";

    // --- message packing --------------------------------------------------

    /// `Batch` multicasts sent (each packs ≥1 user sends).
    pub const BATCH_SENT: CounterKey = "lwg.batch.sent";
    /// Pack buffers flushed because they reached `pack_max_msgs`.
    pub const BATCH_FLUSH_FULL: CounterKey = "lwg.batch.flush_full";
    /// Pack buffers flushed by the pack-delay timer.
    pub const BATCH_FLUSH_TIMER: CounterKey = "lwg.batch.flush_timer";
    /// Pack buffers flushed at a virtual-synchrony barrier.
    pub const BATCH_FLUSH_BARRIER: CounterKey = "lwg.batch.flush_barrier";
    /// Batch occupancy (sends per batch) distribution.
    pub const BATCH_OCCUPANCY: HistogramKey = "lwg.batch.occupancy";

    // --- group directory / rebalancing -----------------------------------

    /// Light-weight groups currently in the directory (any phase).
    pub const DIR_GROUPS: GaugeKey = "lwg.dir.groups";
    /// HWGs carrying at least one mapped LWG.
    pub const DIR_HWGS_LOADED: GaugeKey = "lwg.dir.hwgs_loaded";
    /// Membership load of the most crowded HWG (LWGs mapped onto it).
    pub const DIR_MAX_HWG_LWGS: GaugeKey = "lwg.dir.max_hwg_lwgs";
    /// LWG migrations started by the rebalancer (each is one switch).
    pub const REBALANCE_MOVES: CounterKey = "lwg.rebalance.moves";
    /// Rebalance rounds run (timer fired and the load accounts were scanned).
    pub const REBALANCE_ROUNDS: CounterKey = "lwg.rebalance.rounds";
}
