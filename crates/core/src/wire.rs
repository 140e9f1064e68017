//! Wire codec for the LWG-layer protocol messages (frame family `LWG`).
//!
//! Every [`LwgMsg`] is one `plwg-wire` frame: the `LWG` family tag, a
//! one-byte variant tag, then the variant's fields in the order of the
//! `wire_enum!` table below, whose left column is the tag space
//! (wire-stable, append-only: a retired tag stays unused, and decoding it
//! fails with `BadTag`). These frames usually travel *inside* an HWG
//! data multicast (so the delivered `HwgEvent::Data` payload is itself a
//! complete `LWG` frame); `Redirect` additionally goes node-to-node.
//! Application payloads inside `Data` / `Batch` are length-prefixed, so a
//! batch is serialized once by the sender and every receiver's deliveries
//! *slice* the incoming allocation instead of copying it.

use crate::msg::{AdvertisedViews, LFlushId, LwgMsg};
use plwg_hwg::{View, ViewId};
use plwg_naming::LwgId;
use plwg_sim::{encode_frame, family, Decode, Encode, Payload, Reader, WireError};

/// Encodes `msg` as a ready-to-send payload (family `LWG`).
pub(crate) fn frame(msg: &LwgMsg) -> Payload {
    encode_frame(family::LWG, msg)
}

/// `count:varint (lwg entry)*` — the layout of a `Vec<(LwgId, E)>`.
impl<E> Encode for AdvertisedViews<E> {
    fn encode_into(&self, out: &mut Vec<u8>) {
        plwg_wire::put_varint(out, self.count as u64);
        out.extend_from_slice(&self.entries);
    }
}

/// Accepts exactly what decoding a `Vec<(LwgId, View)>` accepts — the
/// count's length guard, every entry's `View` invariants — and keeps the
/// entries as a sub-frame of the incoming one, allocating nothing.
impl Decode for AdvertisedViews {
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        decode_entries(r, |r| View::skip_encoded(r).map(drop))
    }
}

/// Accepts exactly what decoding a `Vec<(LwgId, ViewId)>` accepts, as a
/// sub-frame of the incoming one.
impl Decode for AdvertisedViews<ViewId> {
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        decode_entries(r, |r| ViewId::decode_from(r).map(drop))
    }
}

/// Validates `count:varint (lwg entry)*`, each entry read by `entry`.
fn decode_entries<E>(
    r: &mut Reader<'_>,
    entry: impl Fn(&mut Reader<'_>) -> Result<(), WireError>,
) -> Result<AdvertisedViews<E>, WireError> {
    let count = usize::try_from(r.read_varint()?).map_err(|_| WireError::BadLength)?;
    if count > r.remaining() {
        return Err(WireError::BadLength);
    }
    let ((), entries) = r.read_span(|r| {
        for _ in 0..count {
            LwgId::decode_from(r)?;
            entry(r)?;
        }
        Ok(())
    })?;
    Ok(AdvertisedViews::from_parts(entries, count))
}

plwg_wire::wire_struct!(LFlushId { initiator, nonce });

plwg_wire::wire_enum!(LwgMsg {
    0 => Data { lwg, lwg_view, data },
    1 => Batch { entries },
    2 => JoinReq { lwg },
    3 => LeaveReq { lwg },
    4 => Flush { lwg, flush, view, members, next, to },
    5 => FlushOk { lwg, flush },
    // 6 (`NewLwgView`) and 7 (`SwitchTo`) are retired.
    8 => SwitchReady { lwg, flush },
    9 => MergeViews,
    10 => AllViews { views, held, seq_floor },
    // 11 (`Dissolved`) is retired.
    12 => Redirect { lwg, to },
});

#[cfg(test)]
mod tests {
    use super::*;
    use plwg_hwg::{HwgId, View, ViewId};
    use plwg_naming::LwgId;
    use plwg_sim::{decode_frame, peek_family, Frame, NodeId, WireError};
    use std::sync::Arc;

    fn roundtrip(msg: &LwgMsg) -> LwgMsg {
        let f = frame(msg);
        assert_eq!(peek_family(&f), Some(family::LWG));
        decode_frame::<LwgMsg>(family::LWG, &f).expect("decode")
    }

    #[test]
    fn every_variant_roundtrips() {
        let vid = ViewId::new(NodeId(0), 1);
        let fid = LFlushId {
            initiator: NodeId(1),
            nonce: 3,
        };
        let view = View::with_predecessors(vid, vec![NodeId(0), NodeId(1)], vec![]);
        let msgs = [
            LwgMsg::Data {
                lwg: LwgId(1),
                lwg_view: vid,
                data: Frame::from_u64(9),
            },
            LwgMsg::Batch {
                entries: vec![
                    (LwgId(1), vid, Frame::from_u64(1)),
                    (LwgId(2), vid, Frame::copy_from_slice(b"two")),
                ],
            },
            LwgMsg::JoinReq { lwg: LwgId(1) },
            LwgMsg::LeaveReq { lwg: LwgId(1) },
            LwgMsg::Flush {
                lwg: LwgId(1),
                flush: fid,
                view: vid,
                members: vec![NodeId(0), NodeId(1)],
                next: Some(view.clone()),
                to: None,
            },
            LwgMsg::Flush {
                lwg: LwgId(1),
                flush: fid,
                view: vid,
                members: vec![NodeId(0)],
                next: None,
                to: Some(HwgId(8)),
            },
            LwgMsg::FlushOk {
                lwg: LwgId(1),
                flush: fid,
            },
            LwgMsg::SwitchReady {
                lwg: LwgId(1),
                flush: fid,
            },
            LwgMsg::MergeViews,
            LwgMsg::AllViews {
                views: AdvertisedViews::new([(LwgId(1), &view)]),
                held: AdvertisedViews::by_id([(LwgId(2), vid)]),
                seq_floor: 300,
            },
            LwgMsg::Redirect {
                lwg: LwgId(1),
                to: HwgId(9),
            },
        ];
        for msg in &msgs {
            assert_eq!(format!("{:?}", roundtrip(msg)), format!("{msg:?}"));
        }
    }

    #[test]
    fn batch_entries_share_the_batch_allocation() {
        let msg = LwgMsg::Batch {
            entries: vec![
                (
                    LwgId(1),
                    ViewId::new(NodeId(0), 1),
                    Frame::copy_from_slice(b"first payload"),
                ),
                (
                    LwgId(2),
                    ViewId::new(NodeId(0), 1),
                    Frame::copy_from_slice(b"second payload"),
                ),
            ],
        };
        let f = frame(&msg);
        let LwgMsg::Batch { entries } = decode_frame::<LwgMsg>(family::LWG, &f).expect("decode")
        else {
            panic!("wrong variant");
        };
        assert_eq!(entries.len(), 2);
        assert_eq!(&entries[0].2[..], b"first payload");
        assert_eq!(&entries[1].2[..], b"second payload");
        // Zero-copy: both unpacked payloads view the single batch frame.
        for (_, _, data) in &entries {
            assert!(Arc::ptr_eq(data.backing(), f.backing()));
        }
    }

    /// Advertised views encode exactly as a `Vec<(LwgId, View)>` of the
    /// full views followed by a `Vec<(LwgId, ViewId)>` of the ids and the
    /// `seq_floor` varint, and iterate back as the entries they were built
    /// from, over seeded lists (the empty ones included) and floors of one
    /// to ten bytes.
    #[test]
    fn borrowed_all_views_frame_matches_the_owned_one() {
        for seed in 0..32 {
            let mut rng = plwg_sim::SimRng::from_seed(seed);
            let mut id = || ViewId::new(NodeId(rng.next_u32() % 8), rng.range(1, 300));
            let ids: Vec<(LwgId, ViewId)> = (0..seed % 5).map(|g| (LwgId(g), id())).collect();
            let views: Vec<(LwgId, View)> = (0..seed)
                .map(|_| {
                    let id = ViewId::new(NodeId(rng.next_u32() % 8), rng.range(1, 300));
                    let members = (0..=rng.next_u32() % 6).map(NodeId).collect();
                    let preds = (0..rng.next_u32() % 3)
                        .map(|p| ViewId::new(NodeId(p), rng.range(0, 200)))
                        .collect();
                    (
                        LwgId(rng.range(0, 1 << 20)),
                        View::with_predecessors(id, members, preds),
                    )
                })
                .collect();
            let adverts = AdvertisedViews::new(views.iter().map(|(l, v)| (*l, v)));
            let held = AdvertisedViews::by_id(ids.iter().copied());
            let seq_floor = u64::MAX >> (2 * seed);
            let mut owned = vec![10]; // the `AllViews` tag
            views.encode_into(&mut owned);
            ids.encode_into(&mut owned);
            seq_floor.encode_into(&mut owned);
            let msg = LwgMsg::AllViews {
                views: adverts.clone(),
                held: held.clone(),
                seq_floor,
            };
            assert_eq!(frame(&msg).bytes()[1..], owned[..], "seed {seed}");
            let back: Vec<(LwgId, View)> = adverts
                .iter()
                .map(|(lwg, id, bytes)| {
                    let view = View::decode_from(&mut Reader::new(&bytes)).expect("valid");
                    assert_eq!(view.id, id);
                    (lwg, view)
                })
                .collect();
            assert_eq!(back, views, "seed {seed}");
            assert_eq!(held.iter().collect::<Vec<_>>(), ids, "seed {seed}");
        }
    }

    #[test]
    fn bad_variant_tag_is_rejected() {
        for tag in [6, 7, 11, 77] {
            let f = Frame::from_vec(vec![family::LWG as u8, tag]);
            assert_eq!(
                decode_frame::<LwgMsg>(family::LWG, &f).err(),
                Some(WireError::BadTag {
                    what: "LwgMsg",
                    tag: tag.into(),
                })
            );
        }
    }
}
