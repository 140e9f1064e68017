//! Wire codec for the naming-service messages (frame family `NS`).
//!
//! Every [`NsMsg`] travels as one `plwg-wire` frame: the `NS` family tag,
//! a one-byte variant tag, then the variant's fields in the order of the
//! `wire_enum!` table below, whose left column is the tag space
//! (wire-stable, append-only). A `Sync` frame carries the sender's root
//! digest and either its full [`MappingDb`](crate::db::MappingDb) snapshot
//! or an empty one (the decoder lives in `db/codec.rs`, next to the
//! private fields and invariants it restores).

use crate::client::RequestId;
use crate::db::{Digest, Mapping, MappingDb};
use crate::id::LwgId;
use crate::msg::NsMsg;
use plwg_sim::{encode_frame, family, Decode, Encode, Payload, Reader, WireError};

/// Encodes `msg` as a ready-to-send simulator payload (family `NS`).
pub(crate) fn frame(msg: &NsMsg) -> Payload {
    encode_frame(family::NS, msg)
}

/// The `Sync` frame of `db`, with the snapshot or without, encoded from
/// the borrowed replica: the same bytes as `frame(&NsMsg::Sync { root:
/// db.root(), db: db.clone() })` (or `MappingDb::new()`), without the clone.
pub(crate) fn sync_frame(db: &MappingDb, snapshot: bool) -> Payload {
    struct Sync<'a>(&'a MappingDb, bool);
    impl Encode for Sync<'_> {
        fn encode_into(&self, out: &mut Vec<u8>) {
            out.push(7); // the `Sync` tag of the table below
            self.0.root().encode_into(out);
            if self.1 {
                self.0.encode_into(out);
            } else {
                MappingDb::new().encode_into(out);
            }
        }
    }
    encode_frame(family::NS, &Sync(db, snapshot))
}

// A digest spends all 64 bits, so it travels as 8 little-endian bytes: a
// varint would take 9 or 10, varying with the value.
impl Encode for Digest {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.0.to_le_bytes());
    }
}

impl Decode for Digest {
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let bytes = r.read_bytes(8)?.try_into();
        Ok(Digest(u64::from_le_bytes(
            bytes.map_err(|_| WireError::Truncated)?,
        )))
    }
}

plwg_wire::wire_struct!(LwgId { 0 });
// A request id is `node << 32 | counter` (see `NsClient`): its halves
// travel as two varints, 2–3 bytes where the `u64` as one takes 5–6.
impl Encode for RequestId {
    fn encode_into(&self, out: &mut Vec<u8>) {
        ((self.0 >> 32) as u32, self.0 as u32).encode_into(out);
    }
}

impl Decode for RequestId {
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let (high, low) = <(u32, u32)>::decode_from(r)?;
        Ok(RequestId(u64::from(high) << 32 | u64::from(low)))
    }
}
plwg_wire::wire_struct! { Mapping { lwg_view, members, hwg, hwg_view } }

plwg_wire::wire_enum!(NsMsg {
    0 => Set { req, lwg, mapping, preds },
    1 => Read { req, lwg },
    2 => TestSet { req, lwg, mapping, preds },
    3 => Unset { req, lwg, lwg_view },
    4 => Reply { req, lwg, mappings },
    5 => MultipleMappings { lwg, mappings },
    // 6 was `Gossip { db }`, a full snapshot on every tick; retired, and
    // never reused.
    7 => Sync { root, db },
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
            NsMsg::Sync {
                root: db.root(),
                db,
            },
        ];
        for msg in &msgs {
            assert_eq!(format!("{:?}", roundtrip(msg)), format!("{msg:?}"));
        }
    }

    #[test]
    fn sync_snapshot_roundtrips_exactly() {
        let mut db = MappingDb::new();
        db.set(LwgId(1), mapping(1), &[]);
        db.set(LwgId(1), mapping(2), &[ViewId::new(NodeId(0), 1)]);
        db.set(LwgId(2), mapping(5), &[]);
        db.unset(LwgId(2), ViewId::new(NodeId(0), 5));
        let sent = NsMsg::Sync {
            root: db.root(),
            db: db.clone(),
        };
        let NsMsg::Sync { root, db: got } = roundtrip(&sent) else {
            panic!("wrong variant");
        };
        assert_eq!(got, db, "snapshot must survive the wire bit-for-bit");
        assert_eq!((root, got.root()), (db.root(), db.root()));
    }

    /// The borrowed `Sync` encoder writes exactly the bytes of the owned
    /// message, with and without the snapshot, over seeded databases
    /// mixing sets, successors and unsets (the empty database included).
    #[test]
    fn borrowed_sync_frame_matches_the_owned_one() {
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
            let root = db.root();
            let owned = |db| frame(&NsMsg::Sync { root, db });
            assert_eq!(sync_frame(&db, true), owned(db.clone()), "seed {seed}");
            assert_eq!(
                sync_frame(&db, false),
                owned(MappingDb::new()),
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
