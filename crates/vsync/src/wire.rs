//! Wire codec for the HWG-layer protocol messages (frame family `VS`).
//!
//! Every [`VsMsg`] travels as one `plwg-wire` frame: the `VS` family tag,
//! a one-byte variant tag, then the variant's fields in the order of the
//! `wire_enum!` table below (varints for integers, length-prefixed frames
//! for payloads — see the `plwg-wire` crate docs for the grammar); the
//! table's left column is the tag space, wire-stable and append-only.
//! Application payloads inside `Data` / `FlushFill` are embedded by length
//! prefix, so decoding returns a [`Slot`] whose frame *shares* the incoming
//! allocation: a multicast is encoded once by the sender and never
//! re-copied on the receive path.

use crate::msg::{FlushPurpose, Slot, VsMsg};
use plwg_sim::{encode_frame, family, Decode, Encode, Frame, Payload, Reader, WireError};

/// Encodes `msg` as a ready-to-send simulator payload (family `VS`).
pub(crate) fn frame(msg: &VsMsg) -> Payload {
    encode_frame(family::VS, msg)
}

plwg_wire::wire_enum!(VsMsg {
    0 => Heartbeat,
    1 => JoinProbe { hwg },
    2 => JoinOffer { hwg, view_id },
    3 => JoinReq { hwg },
    4 => LeaveReq { hwg },
    5 => Data { hwg, view_id, sender, seq, payload },
    6 => FlushReq { hwg, view_id, flush, proposed, purpose },
    7 => FlushDigest { hwg, flush, prefix, extras, thin },
    8 => FlushTarget { hwg, flush, target },
    9 => FlushPull { hwg, flush, wants },
    10 => FlushFill { hwg, view_id, sender, seq, payload },
    11 => FlushDone { hwg, flush },
    12 => NewView { hwg, view },
    13 => Nack { hwg, view_id, sender, missing },
    14 => Stability { hwg, view_id, prefix },
    15 => Beacon { hwg, view_id },
    16 => MergeReq { hwg, invitee_view, leader_view },
    17 => MergeReady { hwg, view },
    18 => MergeNack { hwg, invitee_view },
});

plwg_wire::wire_enum!(FlushPurpose { 0 => ViewChange, 1 => Merge { leader } });

// `Slot::Full` is a tuple variant: no field names for a table to bind, so written out.
impl Encode for Slot {
    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Slot::Skip => out.push(0),
            Slot::Full(p) => {
                out.push(1);
                p.encode_into(out);
            }
        }
    }
}

impl Decode for Slot {
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.read_u8()? {
            0 => Ok(Slot::Skip),
            1 => Ok(Slot::Full(Frame::decode_from(r)?)),
            tag => Err(WireError::BadTag {
                what: "Slot",
                tag: u64::from(tag),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plwg_hwg::{FlushId, HwgId, View, ViewId};
    use plwg_sim::{decode_frame, peek_family, NodeId};
    use std::collections::BTreeMap;
    use std::sync::Arc;

    fn roundtrip(msg: &VsMsg) -> VsMsg {
        let f = frame(msg);
        assert_eq!(peek_family(&f), Some(family::VS));
        decode_frame::<VsMsg>(family::VS, &f).expect("decode")
    }

    #[test]
    fn data_roundtrips_and_shares_the_allocation() {
        let app = Frame::copy_from_slice(b"application bytes");
        let msg = VsMsg::Data {
            hwg: HwgId(3),
            view_id: ViewId::new(NodeId(1), 2),
            sender: NodeId(1),
            seq: 9,
            payload: Slot::Full(app),
        };
        let f = frame(&msg);
        let got = decode_frame::<VsMsg>(family::VS, &f).expect("decode");
        let VsMsg::Data {
            payload: Slot::Full(p),
            seq,
            ..
        } = &got
        else {
            panic!("wrong variant: {got:?}");
        };
        assert_eq!(*seq, 9);
        assert_eq!(&p[..], b"application bytes");
        // Zero-copy: the decoded payload borrows the incoming frame's
        // allocation rather than owning a copy.
        assert!(Arc::ptr_eq(p.backing(), f.backing()));
    }

    #[test]
    fn every_variant_roundtrips() {
        let vid = ViewId::new(NodeId(0), 1);
        let fid = FlushId {
            initiator: NodeId(0),
            nonce: 4,
        };
        let view = View::with_predecessors(vid, vec![NodeId(0), NodeId(2)], vec![]);
        let mut map = BTreeMap::new();
        map.insert(NodeId(0), 7u64);
        let msgs = [
            VsMsg::Heartbeat,
            VsMsg::JoinProbe { hwg: HwgId(1) },
            VsMsg::JoinOffer {
                hwg: HwgId(1),
                view_id: vid,
            },
            VsMsg::JoinReq { hwg: HwgId(1) },
            VsMsg::LeaveReq { hwg: HwgId(1) },
            VsMsg::Data {
                hwg: HwgId(1),
                view_id: vid,
                sender: NodeId(2),
                seq: 1,
                payload: Slot::Skip,
            },
            VsMsg::FlushReq {
                hwg: HwgId(1),
                view_id: vid,
                flush: fid,
                proposed: vec![NodeId(0), NodeId(2)],
                purpose: FlushPurpose::Merge { leader: NodeId(2) },
            },
            VsMsg::FlushDigest {
                hwg: HwgId(1),
                flush: fid,
                prefix: map.clone(),
                extras: vec![(NodeId(2), 9)],
                thin: vec![(NodeId(2), 9)],
            },
            VsMsg::FlushTarget {
                hwg: HwgId(1),
                flush: fid,
                target: map.clone(),
            },
            VsMsg::FlushPull {
                hwg: HwgId(1),
                flush: fid,
                wants: vec![(NodeId(0), 3)],
            },
            VsMsg::FlushFill {
                hwg: HwgId(1),
                view_id: vid,
                sender: NodeId(0),
                seq: 3,
                payload: Slot::Full(Frame::from_u64(77)),
            },
            VsMsg::FlushDone {
                hwg: HwgId(1),
                flush: fid,
            },
            VsMsg::NewView {
                hwg: HwgId(1),
                view: view.clone(),
            },
            VsMsg::Nack {
                hwg: HwgId(1),
                view_id: vid,
                sender: NodeId(0),
                missing: vec![2, 3],
            },
            VsMsg::Stability {
                hwg: HwgId(1),
                view_id: vid,
                prefix: map,
            },
            VsMsg::Beacon {
                hwg: HwgId(1),
                view_id: vid,
            },
            VsMsg::MergeReq {
                hwg: HwgId(1),
                invitee_view: vid,
                leader_view: ViewId::new(NodeId(2), 8),
            },
            VsMsg::MergeReady {
                hwg: HwgId(1),
                view,
            },
            VsMsg::MergeNack {
                hwg: HwgId(1),
                invitee_view: vid,
            },
        ];
        for msg in &msgs {
            assert_eq!(format!("{:?}", roundtrip(msg)), format!("{msg:?}"));
        }
    }

    #[test]
    fn bad_variant_tag_is_rejected() {
        let f = Frame::from_vec(vec![family::VS as u8, 200]);
        assert_eq!(
            decode_frame::<VsMsg>(family::VS, &f).err(),
            Some(WireError::BadTag {
                what: "VsMsg",
                tag: 200,
            })
        );
    }
}
