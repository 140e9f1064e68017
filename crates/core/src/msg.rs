//! LWG-layer protocol messages.
//!
//! Most of these travel *inside* HWG multicasts (the payload of a
//! [`plwg_vsync::VsMsg::Data`]); `Redirect` is the only one sent directly
//! node-to-node (the forward-pointer reply of paper §3.1).
//!
//! None of them announces an LWG view: every member computes each view it
//! installs — a flush's successor from the `Flush` that names it, once
//! the flush's acknowledgements are in, and a merged or pruned view from
//! the `AllViews` round of the HWG view that implies it.

use plwg_hwg::{HwgId, View, ViewId};
use plwg_naming::LwgId;
use plwg_sim::{Decode, Encode, NodeId, Payload, Reader};
use std::fmt;
use std::marker::PhantomData;

/// Identifies one LWG-level flush round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LFlushId {
    /// The LWG coordinator driving the flush.
    pub initiator: NodeId,
    /// Initiator-local round counter.
    pub nonce: u64,
}

impl fmt::Display for LFlushId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}~{}", self.initiator, self.nonce)
    }
}

/// The messages of the light-weight group service.
#[derive(Clone)]
pub enum LwgMsg {
    /// A user multicast, encapsulated as `(DATA, lwg_id, data)` (paper
    /// §3.1) and additionally tagged with the LWG **view** it was sent in
    /// (the partitionable extension of §5.1): members of other concurrent
    /// views must not deliver it — receiving one is exactly how concurrent
    /// views discover each other (paper Fig. 5, local peer discovery).
    Data {
        /// The light-weight group.
        lwg: LwgId,
        /// The LWG view the sender was in.
        lwg_view: ViewId,
        /// Application payload.
        data: Payload,
    },
    /// Several user multicasts packed into one HWG multicast (the packing
    /// optimisation): co-mapped groups amortise the per-multicast cost of
    /// the HWG layer over bursts. Each entry is one [`LwgMsg::Data`]
    /// triple; receivers unpack in order, so per-sender FIFO is preserved.
    /// A batch is always sent and delivered entirely within one HWG view
    /// (the service flushes its pack buffers at every flush/view barrier),
    /// so virtual synchrony is unaffected.
    Batch {
        /// The packed `(lwg, lwg_view, data)` triples, in send order.
        entries: Vec<(LwgId, ViewId, Payload)>,
    },
    /// A process (already an HWG member) asks the LWG coordinator for
    /// admission.
    JoinReq {
        /// Group to join.
        lwg: LwgId,
    },
    /// A member asks to be excluded from the next LWG view.
    LeaveReq {
        /// Group to leave.
        lwg: LwgId,
    },
    /// LWG-level flush of `view`, which installs `next` (a join, leave or
    /// dissolve) or re-maps the group onto `to` (a switch, paper §3 and
    /// §6.2). Members stop sending on `lwg` and answer
    /// [`LwgMsg::FlushOk`]. Because the HWG multicast is FIFO per sender, a
    /// member that has seen every `FlushOk` has also seen every message
    /// sent before them — the flush makes "all in-transit messages
    /// delivered before the new view" (paper §3.1) without touching the
    /// HWG. Every member, and every joiner `next` lists, then installs
    /// `next` itself: no view is announced.
    Flush {
        /// The group being flushed.
        lwg: LwgId,
        /// Round identifier.
        flush: LFlushId,
        /// The view being flushed: only its holders follow the flush.
        view: ViewId,
        /// Members of `view` in the HWG view (the set whose `FlushOk`s
        /// are awaited).
        members: Vec<NodeId>,
        /// The successor view, named when the flush starts, with `view`
        /// as its one predecessor; `None` when every member left and the
        /// group dissolves.
        next: Option<View>,
        /// For a switch, the target HWG: `next` is installed there once
        /// each of its members reported [`LwgMsg::SwitchReady`] on it.
        to: Option<HwgId>,
    },
    /// A member's confirmation that it stopped sending in the old view.
    FlushOk {
        /// The group being flushed.
        lwg: LwgId,
        /// Round identifier.
        flush: LFlushId,
    },
    /// A member reports (on the *target* HWG) that it has joined and is
    /// ready to install the switched view.
    SwitchReady {
        /// The group being switched.
        lwg: LwgId,
        /// The switch's flush round.
        flush: LFlushId,
    },
    /// MERGE-VIEWS (paper Fig. 5): asks the HWG coordinator to force a
    /// flush so all concurrent LWG views on this HWG merge at once.
    MergeViews,
    /// ALL-VIEWS (paper Fig. 5): the sender's current LWG views mapped on
    /// this HWG, exchanged during the flush so every member can merge
    /// deterministically. One holder of each view, its coordinator, sends
    /// it in full; every other holder sends only its id.
    AllViews {
        /// `(lwg, current view)` pairs of the views the sender coordinates,
        /// and of every view of a group the last merge round deferred.
        views: AdvertisedViews,
        /// `(lwg, current view id)` pairs of the sender's other views.
        held: AdvertisedViews<ViewId>,
        /// The largest view counter of the groups listed: no view id the
        /// sender took for one of them has a larger seq. A merged view
        /// the sender creates takes the next one.
        seq_floor: u64,
    },
    /// Forward-pointer reply (paper §3.1): the LWG asked about has been
    /// switched to `to`; sent directly to a joiner that used an outdated
    /// mapping.
    Redirect {
        /// The group asked about.
        lwg: LwgId,
        /// Where it lives now.
        to: HwgId,
    },
}

/// The entries of an [`LwgMsg::AllViews`] advertisement, kept as their
/// validated wire bytes: `(lwg, view)` pairs (`E = View`, the default) or
/// `(lwg, view id)` pairs (`E = ViewId`).
///
/// Each view is advertised on every HWG flush, in full by its coordinator
/// and by id by its other holders, so a receiver mostly sees views it
/// already knows. Decoding validates each
/// entry exactly as decoding a `Vec<(LwgId, E)>` would, but builds nothing
/// and, for memberships of up to 16, allocates nothing; `iter` then hands
/// out each entry, a full view as a zero-copy sub-frame that only a merge
/// round that needs it decodes.
#[derive(Clone, Debug)]
pub struct AdvertisedViews<E = View> {
    /// The entries' encodings back to back, without the count prefix.
    pub(crate) entries: Payload,
    pub(crate) count: usize,
    entry: PhantomData<E>,
}

impl<E> AdvertisedViews<E> {
    /// `count` entries, encoded back to back in `entries`.
    pub(crate) fn from_parts(entries: Payload, count: usize) -> Self {
        AdvertisedViews {
            entries,
            count,
            entry: PhantomData,
        }
    }

    /// Number of advertised views.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether no view is advertised.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }
}

impl AdvertisedViews {
    /// Encodes borrowed `(lwg, view)` pairs.
    pub fn new<'a>(views: impl IntoIterator<Item = (LwgId, &'a View)>) -> Self {
        let (mut entries, mut count) = (Vec::new(), 0);
        for (lwg, view) in views {
            lwg.encode_into(&mut entries);
            view.encode_into(&mut entries);
            count += 1;
        }
        Self::from_parts(Payload::from_vec(entries), count)
    }

    /// The advertised `(lwg, view id, encoded view)` triples, in order.
    /// Each encoded view is a sub-frame of the advertisement that decodes
    /// with `View::decode_from`.
    pub fn iter(&self) -> impl Iterator<Item = (LwgId, ViewId, Payload)> + '_ {
        let mut r = Reader::new(&self.entries);
        // Decoded entries were validated, and encoded `View`s hold the
        // same invariants, so no step fails: the walk yields all `count`.
        (0..self.count).map_while(move |_| {
            let lwg = LwgId::decode_from(&mut r).ok()?;
            let (id, view) = r.read_span(View::skip_encoded).ok()?;
            Some((lwg, id, view))
        })
    }
}

impl AdvertisedViews<ViewId> {
    /// Encodes `(lwg, view id)` pairs.
    pub fn by_id(ids: impl IntoIterator<Item = (LwgId, ViewId)>) -> Self {
        let (mut entries, mut count) = (Vec::new(), 0);
        for pair in ids {
            pair.encode_into(&mut entries);
            count += 1;
        }
        Self::from_parts(Payload::from_vec(entries), count)
    }

    /// The advertised `(lwg, view id)` pairs, in order.
    pub fn iter(&self) -> impl Iterator<Item = (LwgId, ViewId)> + '_ {
        let mut r = Reader::new(&self.entries);
        (0..self.count).map_while(move |_| {
            Some((
                LwgId::decode_from(&mut r).ok()?,
                ViewId::decode_from(&mut r).ok()?,
            ))
        })
    }
}

impl LwgMsg {
    /// Encodes this message as a ready-to-send wire frame (family `LWG`) —
    /// exactly the bytes the service multicasts. Exposed so tests and
    /// scripted substrates can inject protocol traffic.
    pub fn to_frame(&self) -> Payload {
        crate::wire::frame(self)
    }
}

impl fmt::Debug for LwgMsg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LwgMsg::Data { lwg, lwg_view, .. } => write!(f, "LData({lwg},{lwg_view})"),
            LwgMsg::Batch { entries } => write!(f, "LBatch({} msgs)", entries.len()),
            LwgMsg::JoinReq { lwg } => write!(f, "LJoinReq({lwg})"),
            LwgMsg::LeaveReq { lwg } => write!(f, "LLeaveReq({lwg})"),
            LwgMsg::Flush { lwg, flush, to, .. } => match to {
                Some(to) => write!(f, "LFlush({lwg},{flush}->{to})"),
                None => write!(f, "LFlush({lwg},{flush})"),
            },
            LwgMsg::FlushOk { lwg, flush } => write!(f, "LFlushOk({lwg},{flush})"),
            LwgMsg::SwitchReady { lwg, .. } => write!(f, "LSwitchReady({lwg})"),
            LwgMsg::MergeViews => write!(f, "LMergeViews"),
            LwgMsg::AllViews { views, held, .. } => {
                write!(f, "LAllViews({} views, {} held)", views.len(), held.len())
            }
            LwgMsg::Redirect { lwg, to } => write!(f, "LRedirect({lwg}->{to})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn debug_formats() {
        let m = LwgMsg::Redirect {
            lwg: LwgId(3),
            to: HwgId(9),
        };
        assert_eq!(format!("{m:?}"), "LRedirect(lwg3->hwg9)");
        let b = LwgMsg::Batch {
            entries: vec![(
                LwgId(1),
                ViewId::new(NodeId(2), 1),
                plwg_sim::Frame::from_u64(0),
            )],
        };
        assert_eq!(format!("{b:?}"), "LBatch(1 msgs)");
        assert_eq!(
            LFlushId {
                initiator: NodeId(1),
                nonce: 2
            }
            .to_string(),
            "n1~2"
        );
    }
}
