//! Wire messages of the naming service.

use crate::client::RequestId;
use crate::db::{Digest, Mapping, MappingDb};
use crate::id::LwgId;
use plwg_hwg::ViewId;
use std::fmt;

/// Messages between naming clients, servers, and server peers.
///
/// The request primitives mirror paper Table 2 (`ns.set`, `ns.read`,
/// `ns.testset`), augmented for partitionable operation with view-aware
/// payloads, an explicit `Unset`, server-to-server `Sync`, and the
/// `MultipleMappings` callback of §6.1.
#[derive(Clone)]
pub enum NsMsg {
    /// `ns.set` — register a view-to-view mapping.
    Set {
        /// Client-chosen correlation id.
        req: RequestId,
        /// The LWG concerned.
        lwg: LwgId,
        /// The mapping to install.
        mapping: Mapping,
        /// Predecessor LWG views (drives garbage collection).
        preds: Vec<ViewId>,
    },
    /// `ns.read` — fetch the current mappings.
    Read {
        /// Client-chosen correlation id.
        req: RequestId,
        /// The LWG concerned.
        lwg: LwgId,
    },
    /// `ns.testset` — install `mapping` only if no mapping exists; returns
    /// the winning mapping(s) either way.
    TestSet {
        /// Client-chosen correlation id.
        req: RequestId,
        /// The LWG concerned.
        lwg: LwgId,
        /// The candidate mapping.
        mapping: Mapping,
        /// Predecessor LWG views.
        preds: Vec<ViewId>,
    },
    /// Remove the mapping of a dissolved LWG view.
    Unset {
        /// Client-chosen correlation id.
        req: RequestId,
        /// The LWG concerned.
        lwg: LwgId,
        /// The dissolved view.
        lwg_view: ViewId,
    },
    /// Server's answer to any request: the current mappings after the
    /// operation.
    Reply {
        /// Correlation id of the request answered.
        req: RequestId,
        /// The LWG concerned.
        lwg: LwgId,
        /// Current mappings.
        mappings: Vec<Mapping>,
    },
    /// Server-initiated callback: reconciliation exposed multiple
    /// concurrent mappings for `lwg` (paper §6.1). Contains *all* stored
    /// mappings for the group.
    MultipleMappings {
        /// The LWG with conflicting mappings.
        lwg: LwgId,
        /// All current mappings.
        mappings: Vec<Mapping>,
    },
    /// Anti-entropy exchange between server peers: the sender's digest,
    /// and its replica only where the receiver's last digest differed.
    Sync {
        /// The digest of the sender's replica ([`MappingDb::root`]).
        root: Digest,
        /// The sender's full replica, or an empty one.
        db: MappingDb,
    },
}

impl fmt::Debug for NsMsg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NsMsg::Set {
                req, lwg, mapping, ..
            } => {
                write!(
                    f,
                    "Set({req:?},{lwg},{}->{})",
                    mapping.lwg_view, mapping.hwg
                )
            }
            NsMsg::Read { req, lwg } => write!(f, "Read({req:?},{lwg})"),
            NsMsg::TestSet {
                req, lwg, mapping, ..
            } => write!(
                f,
                "TestSet({req:?},{lwg},{}->{})",
                mapping.lwg_view, mapping.hwg
            ),
            NsMsg::Unset { req, lwg, lwg_view } => {
                write!(f, "Unset({req:?},{lwg},{lwg_view})")
            }
            NsMsg::Reply { req, lwg, mappings } => {
                write!(f, "Reply({req:?},{lwg},{} mappings)", mappings.len())
            }
            NsMsg::MultipleMappings { lwg, mappings } => {
                write!(f, "MultipleMappings({lwg},{} mappings)", mappings.len())
            }
            NsMsg::Sync { root, db } => write!(f, "Sync({:016x},{} mappings)", root.0, db.len()),
        }
    }
}
