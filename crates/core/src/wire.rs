//! Wire codec for the LWG-layer protocol messages (frame family `LWG`).
//!
//! Every [`LwgMsg`] is one `plwg-wire` frame: the `LWG` family tag, a
//! one-byte variant tag, then the variant's fields in the order of the
//! `wire_enum!` table below, whose left column is the tag space
//! (wire-stable, append-only). These frames usually travel *inside* an HWG
//! data multicast (so the delivered `HwgEvent::Data` payload is itself a
//! complete `LWG` frame); `Redirect` additionally goes node-to-node.
//! Application payloads inside `Data` / `Batch` are length-prefixed, so a
//! batch is serialized once by the sender and every receiver's deliveries
//! *slice* the incoming allocation instead of copying it.

use crate::msg::{AdvertisedViews, LFlushId, LwgMsg};
use plwg_hwg::View;
use plwg_naming::LwgId;
use plwg_sim::{encode_frame, family, Decode, Encode, Payload, Reader, WireError};

/// Encodes `msg` as a ready-to-send payload (family `LWG`).
pub(crate) fn frame(msg: &LwgMsg) -> Payload {
    encode_frame(family::LWG, msg)
}

/// `count:varint (lwg view)*` — the layout of a `Vec<(LwgId, View)>`.
impl Encode for AdvertisedViews {
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
        let count = usize::try_from(r.read_varint()?).map_err(|_| WireError::BadLength)?;
        if count > r.remaining() {
            return Err(WireError::BadLength);
        }
        let ((), entries) = r.read_span(|r| {
            for _ in 0..count {
                LwgId::decode_from(r)?;
                View::skip_encoded(r)?;
            }
            Ok(())
        })?;
        Ok(AdvertisedViews { entries, count })
    }
}

plwg_wire::wire_struct!(LFlushId { initiator, nonce });

plwg_wire::wire_enum!(LwgMsg {
    0 => Data { lwg, lwg_view, data },
    1 => Batch { entries },
    2 => JoinReq { lwg },
    3 => LeaveReq { lwg },
    4 => Flush { lwg, flush, members },
    5 => FlushOk { lwg, flush },
    6 => NewLwgView { lwg, flush, view, hwg },
    7 => SwitchTo { lwg, flush, to, members },
    8 => SwitchReady { lwg, flush },
    9 => MergeViews,
    10 => AllViews { views },
    11 => Dissolved { lwg, flush },
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
                members: vec![NodeId(0), NodeId(1)],
            },
            LwgMsg::FlushOk {
                lwg: LwgId(1),
                flush: fid,
            },
            LwgMsg::NewLwgView {
                lwg: LwgId(1),
                flush: Some(fid),
                view: view.clone(),
                hwg: HwgId(7),
            },
            LwgMsg::SwitchTo {
                lwg: LwgId(1),
                flush: fid,
                to: HwgId(8),
                members: vec![NodeId(0)],
            },
            LwgMsg::SwitchReady {
                lwg: LwgId(1),
                flush: fid,
            },
            LwgMsg::MergeViews,
            LwgMsg::AllViews {
                views: AdvertisedViews::new([(LwgId(1), &view)]),
            },
            LwgMsg::Dissolved {
                lwg: LwgId(1),
                flush: fid,
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
    /// same views, and iterate back as the views they were built from,
    /// over seeded view lists (the empty list included).
    #[test]
    fn borrowed_all_views_frame_matches_the_owned_one() {
        for seed in 0..32 {
            let mut rng = plwg_sim::SimRng::from_seed(seed);
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
            let mut owned = vec![10]; // the `AllViews` tag
            views.encode_into(&mut owned);
            assert_eq!(
                frame(&LwgMsg::AllViews {
                    views: adverts.clone()
                })
                .bytes()[1..],
                owned[..],
                "seed {seed}"
            );
            let back: Vec<(LwgId, View)> = adverts
                .iter()
                .map(|(lwg, id, bytes)| {
                    let view = View::decode_from(&mut Reader::new(&bytes)).expect("valid");
                    assert_eq!(view.id, id);
                    (lwg, view)
                })
                .collect();
            assert_eq!(back, views, "seed {seed}");
        }
    }

    #[test]
    fn bad_variant_tag_is_rejected() {
        let f = Frame::from_vec(vec![family::LWG as u8, 77]);
        assert_eq!(
            decode_frame::<LwgMsg>(family::LWG, &f).err(),
            Some(WireError::BadTag {
                what: "LwgMsg",
                tag: 77,
            })
        );
    }
}
