//! Per-HWG pack buffer for the message-packing optimisation.
//!
//! Co-mapped light-weight groups share one HWG; without packing, every
//! `LwgService::send` costs one HWG multicast, and every HWG member pays
//! the fixed per-multicast overhead (sequencing, hold-back, filtering)
//! even for groups it is not in. The service instead appends sends to a
//! [`PackBuffer`] per backing HWG and flushes the buffer into a single
//! [`crate::LwgMsg::Batch`] multicast when
//!
//! * the buffer reaches the configured count budget (`pack_max_msgs`),
//! * the pack-delay timer expires (latency bound), or
//! * a virtual-synchrony barrier is reached (LWG flush start, HWG view
//!   change, leave, switch, merge) — so a batch never straddles a view
//!   cut on either layer.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use crate::keys;
use plwg_hwg::ViewId;
use plwg_naming::LwgId;
use plwg_sim::{CounterKey, Payload};

/// Why a pack buffer was flushed (drives the `lwg.batch.flush_*`
/// metrics; the barrier reason is the one that keeps packing safe).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FlushReason {
    /// The buffer reached `pack_max_msgs`.
    Full,
    /// The pack-delay timer expired.
    Timer,
    /// A virtual-synchrony boundary (flush, view change, leave, switch,
    /// merge) forced the buffer out before the cut.
    Barrier,
}

impl FlushReason {
    /// The metric counter recording this flush cause.
    pub(crate) fn metric(self) -> CounterKey {
        match self {
            FlushReason::Full => keys::BATCH_FLUSH_FULL,
            FlushReason::Timer => keys::BATCH_FLUSH_TIMER,
            FlushReason::Barrier => keys::BATCH_FLUSH_BARRIER,
        }
    }
}

/// Sends buffered towards one backing HWG, waiting to be packed into a
/// single `LwgMsg::Batch` multicast.
#[derive(Debug, Default)]
pub(crate) struct PackBuffer {
    entries: Vec<(LwgId, ViewId, Payload)>,
}

impl PackBuffer {
    /// Appends one send; returns the new occupancy.
    pub(crate) fn push(&mut self, lwg: LwgId, lwg_view: ViewId, data: Payload) -> usize {
        self.entries.push((lwg, lwg_view, data));
        self.entries.len()
    }

    /// Whether nothing is buffered.
    pub(crate) fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Takes the buffered sends, leaving the buffer empty.
    pub(crate) fn take(&mut self) -> Vec<(LwgId, ViewId, Payload)> {
        std::mem::take(&mut self.entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plwg_sim::{Frame, NodeId};

    #[test]
    fn push_take_roundtrip_preserves_order() {
        let mut b = PackBuffer::default();
        assert!(b.is_empty());
        let view = ViewId::new(NodeId(1), 1);
        assert_eq!(b.push(LwgId(1), view, Frame::from_u64(10)), 1);
        assert_eq!(b.push(LwgId(2), view, Frame::from_u64(20)), 2);
        let taken = b.take();
        assert!(b.is_empty());
        assert_eq!(
            taken.iter().map(|(l, _, _)| *l).collect::<Vec<_>>(),
            vec![LwgId(1), LwgId(2)]
        );
    }

    #[test]
    fn flush_reason_metrics_are_distinct() {
        let names = [
            FlushReason::Full.metric(),
            FlushReason::Timer.metric(),
            FlushReason::Barrier.metric(),
        ];
        assert_eq!(
            names
                .iter()
                .collect::<std::collections::BTreeSet<_>>()
                .len(),
            3
        );
    }
}
