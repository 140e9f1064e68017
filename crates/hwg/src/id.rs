//! Group and view identifiers.

use plwg_sim::NodeId;
use std::fmt;

/// Identifies a heavy-weight group (HWG).
///
/// Identifiers are totally ordered; the paper uses this order for
/// deterministic tie-breaks ("switch to the HWG with the highest group
/// identifier", §6.2).
///
/// An id minted at run time ([`HwgId::allocated`]) sets bit 63 and names
/// its allocating node in bits 62–32 and that node's counter in bits
/// 31–0; any other value is a static id (`HwgId(7)`), with bit 63 clear.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HwgId(pub u64);

impl HwgId {
    /// Bit 63: set in every allocated id and in no static one.
    const ALLOCATED: u64 = 1 << 63;

    /// The id that `node` mints with its allocation counter at `counter`.
    /// `node` must fit in 31 bits.
    pub fn allocated(node: NodeId, counter: u32) -> HwgId {
        debug_assert!(node.0 < 1 << 31, "{node} does not fit an allocated HwgId");
        HwgId(Self::ALLOCATED | u64::from(node.0) << 32 | u64::from(counter))
    }

    /// The allocating node and counter of an [allocated](HwgId::allocated)
    /// id; `None` for a static id.
    pub fn parts(self) -> Option<(NodeId, u32)> {
        (self.0 & Self::ALLOCATED != 0)
            .then_some((NodeId((self.0 >> 32) as u32 & 0x7FFF_FFFF), self.0 as u32))
    }
}

impl fmt::Display for HwgId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.parts() {
            Some((node, counter)) => write!(f, "hwg[{node}.{counter}]"),
            None => write!(f, "hwg{}", self.0),
        }
    }
}

/// Identifies one *view* of a group: the pair
/// `(coordinator, view-sequence-number)` of paper §5.1, where the sequence
/// number is a counter local to the coordinator that installed the view.
///
/// Two views of the same group with different `ViewId`s may be *concurrent*
/// (installed in disjoint partitions); concurrency is determined by the
/// predecessor relation recorded in [`crate::View`], not by comparing ids.
///
/// The same identifier scheme is reused for light-weight group views in
/// `plwg-core` — the paper's naming service stores view-to-view mappings at
/// both levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ViewId {
    /// The process that installed the view.
    pub coordinator: NodeId,
    /// That process's local view counter at installation time.
    pub seq: u64,
}

impl ViewId {
    /// Builds a view identifier.
    pub fn new(coordinator: NodeId, seq: u64) -> Self {
        ViewId { coordinator, seq }
    }
}

impl fmt::Display for ViewId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.coordinator, self.seq)
    }
}

/// Identifies one flush round of the Table-1 `Stop`/`StopOk` barrier: who
/// initiated it and a per-initiator nonce. A more senior initiator (lower
/// rank in the current view) or a larger nonce from the same initiator
/// supersedes an in-progress flush.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlushId {
    /// The member coordinating this flush.
    pub initiator: NodeId,
    /// Initiator-local round counter.
    pub nonce: u64,
}

impl fmt::Display for FlushId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.initiator, self.nonce)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hwg_id_order_is_numeric() {
        assert!(HwgId(2) > HwgId(1));
        assert_eq!(HwgId(3).to_string(), "hwg3");
    }

    #[test]
    fn allocated_ids_name_their_node_and_counter() {
        let id = HwgId::allocated(NodeId(3), 1);
        assert_eq!(id, HwgId(1 << 63 | 3 << 32 | 1));
        assert_eq!(id.parts(), Some((NodeId(3), 1)));
        assert_eq!(id.to_string(), "hwg[n3.1]");
        assert_eq!(HwgId(3 << 32 | 1).parts(), None);
        // Every allocated id sorts above every static one.
        assert!(HwgId::allocated(NodeId(0), 0) > HwgId(u64::MAX >> 1));
    }

    #[test]
    fn view_id_display_and_order() {
        let a = ViewId::new(NodeId(1), 4);
        let b = ViewId::new(NodeId(1), 5);
        let c = ViewId::new(NodeId(2), 1);
        assert_eq!(a.to_string(), "n1#4");
        assert!(a < b);
        assert!(b < c); // lexicographic on (coordinator, seq)
    }
}
