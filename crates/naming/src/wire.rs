//! Wire codec for the naming-service messages (frame family `NS`).
//!
//! Every [`NsMsg`] travels as one `plwg-wire` frame: the `NS` family tag,
//! a one-byte variant tag, then the variant's fields in the order of the
//! `wire_enum!` table below, whose left column is the tag space
//! (wire-stable, append-only). Gossip frames embed a full
//! [`MappingDb`](crate::db::MappingDb) snapshot (its decoder lives in
//! `db.rs`, next to the private fields and invariants it restores).

use crate::client::RequestId;
use crate::db::{Mapping, MappingDb};
use crate::id::LwgId;
use crate::msg::NsMsg;
use plwg_sim::{encode_frame, family, Encode, Payload};

/// Encodes `msg` as a ready-to-send simulator payload (family `NS`).
pub(crate) fn frame(msg: &NsMsg) -> Payload {
    encode_frame(family::NS, msg)
}

/// The `Gossip` frame of `db`, encoded from the borrowed replica: the same
/// bytes as `frame(&NsMsg::Gossip { db: db.clone() })`, without the clone.
pub(crate) fn gossip_frame(db: &MappingDb) -> Payload {
    struct Gossip<'a>(&'a MappingDb);
    impl Encode for Gossip<'_> {
        fn encode_into(&self, out: &mut Vec<u8>) {
            out.push(6); // the `Gossip` tag of the table below
            self.0.encode_into(out);
        }
    }
    encode_frame(family::NS, &Gossip(db))
}

plwg_wire::wire_struct!(LwgId { 0 });
plwg_wire::wire_struct!(RequestId { 0 });
plwg_wire::wire_struct! { Mapping { lwg_view, members, hwg, hwg_view } }

plwg_wire::wire_enum!(NsMsg {
    0 => Set { req, lwg, mapping, preds },
    1 => Read { req, lwg },
    2 => TestSet { req, lwg, mapping, preds },
    3 => Unset { req, lwg, lwg_view },
    4 => Reply { req, lwg, mappings },
    5 => MultipleMappings { lwg, mappings },
    6 => Gossip { db },
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::MappingDb;
    use plwg_hwg::{HwgId, ViewId};
    use plwg_sim::{decode_frame, peek_family, Frame, NodeId, WireError};

    fn mapping(seq: u64) -> Mapping {
        Mapping {
            lwg_view: ViewId::new(NodeId(0), seq),
            members: vec![NodeId(0), NodeId(1)],
            hwg: HwgId(9),
            hwg_view: ViewId::new(NodeId(1), seq),
        }
    }

    fn roundtrip(msg: &NsMsg) -> NsMsg {
        let f = frame(msg);
        assert_eq!(peek_family(&f), Some(family::NS));
        decode_frame::<NsMsg>(family::NS, &f).expect("decode")
    }

    #[test]
    fn every_variant_roundtrips() {
        let mut db = MappingDb::new();
        db.set(LwgId(4), mapping(1), &[]);
        db.set(LwgId(4), mapping(2), &[ViewId::new(NodeId(0), 1)]);
        db.unset(LwgId(5), ViewId::new(NodeId(2), 3));
        let msgs = [
            NsMsg::Set {
                req: RequestId(7),
                lwg: LwgId(4),
                mapping: mapping(1),
                preds: vec![ViewId::new(NodeId(0), 1)],
            },
            NsMsg::Read {
                req: RequestId(8),
                lwg: LwgId(4),
            },
            NsMsg::TestSet {
                req: RequestId(9),
                lwg: LwgId(4),
                mapping: mapping(2),
                preds: vec![],
            },
            NsMsg::Unset {
                req: RequestId(10),
                lwg: LwgId(4),
                lwg_view: ViewId::new(NodeId(0), 2),
            },
            NsMsg::Reply {
                req: RequestId(7),
                lwg: LwgId(4),
                mappings: vec![mapping(1), mapping(2)],
            },
            NsMsg::MultipleMappings {
                lwg: LwgId(4),
                mappings: vec![mapping(1), mapping(2)],
            },
            NsMsg::Gossip { db },
        ];
        for msg in &msgs {
            assert_eq!(format!("{:?}", roundtrip(msg)), format!("{msg:?}"));
        }
    }

    #[test]
    fn gossip_snapshot_roundtrips_exactly() {
        let mut db = MappingDb::new();
        db.set(LwgId(1), mapping(1), &[]);
        db.set(LwgId(1), mapping(2), &[ViewId::new(NodeId(0), 1)]);
        db.set(LwgId(2), mapping(5), &[]);
        db.unset(LwgId(2), ViewId::new(NodeId(0), 5));
        let NsMsg::Gossip { db: got } = roundtrip(&NsMsg::Gossip { db: db.clone() }) else {
            panic!("wrong variant");
        };
        assert_eq!(got, db, "snapshot must survive the wire bit-for-bit");
    }

    /// The borrowed gossip encoder writes exactly the bytes of the owned
    /// message, over seeded databases mixing sets, successors and unsets
    /// (the empty database included).
    #[test]
    fn borrowed_gossip_frame_matches_the_owned_one() {
        for seed in 0..32 {
            let mut rng = plwg_sim::SimRng::from_seed(seed);
            let mut db = MappingDb::new();
            for _ in 0..seed {
                let lwg = LwgId(rng.range(0, 6));
                let view = ViewId::new(NodeId(rng.next_u32() % 4), rng.range(1, 8));
                match rng.range(0, 3) {
                    0 => db.unset(lwg, view),
                    _ => db.set(
                        lwg,
                        Mapping {
                            lwg_view: view,
                            members: vec![NodeId(0), NodeId(rng.next_u32() % 8)],
                            hwg: HwgId(rng.range(0, 4)),
                            hwg_view: ViewId::new(NodeId(1), rng.range(1, 8)),
                        },
                        &[ViewId::new(NodeId(0), rng.range(1, 8))],
                    ),
                }
            }
            assert_eq!(
                gossip_frame(&db),
                frame(&NsMsg::Gossip { db: db.clone() }),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn bad_variant_tag_is_rejected() {
        let f = Frame::from_vec(vec![family::NS as u8, 99]);
        assert_eq!(
            decode_frame::<NsMsg>(family::NS, &f).err(),
            Some(WireError::BadTag {
                what: "NsMsg",
                tag: 99,
            })
        );
    }
}
