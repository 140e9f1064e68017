//! Wire-codec properties over the real protocol messages.
//!
//! Seeded (reproducible) round-trips across every variant of the four
//! wire families (`VS`, `LWG`, `NS`, `NET`) and of the two identifiers
//! that travel as their 32-bit halves over all of `u64`, rejection of
//! truncated/trailing/misrouted frames, a no-panic sweep over corrupted
//! bytes (frames and `plwg-net` datagrams), and the golden frame snapshot
//! (`tests/golden/wire_frames.hex`) that pins the byte layout: any
//! encoding change — even a compatible-looking one — must show up as a
//! reviewed diff of that file. Regenerate with
//! `WIRE_GOLDEN_BLESS=1 cargo test --test wire_codec`.
//!
//! `AllViews` keeps its entries as validated bytes; it is checked against
//! the eager decoder it replaced, kept here as the reference (its trailing
//! `seq_floor` varint included), and decoding it must not allocate.

mod counting_alloc;

use counting_alloc::allocs;
use plwg::core::{AdvertisedViews, LFlushId, LwgMsg};
use plwg::hwg::{HwgId, View, ViewId};
use plwg::naming::{LwgId, Mapping, MappingDb, NsMsg, RequestId};
use plwg::net::{net_frame, pack_datagram, unpack_datagram, NetMsg};
use plwg::sim::{
    decode_frame, encode_frame, family, peek_family, Decode, Encode, Frame, NodeId, Reader, SimRng,
    WireError,
};
use plwg::vsync::{FlushId, FlushPurpose, Slot, VsMsg};
use std::collections::BTreeMap;

// ---------------------------------------------------------------------
// Seeded generators
// ---------------------------------------------------------------------

fn node(rng: &mut SimRng) -> NodeId {
    NodeId(rng.range(0, 16) as u32)
}

fn view_id(rng: &mut SimRng) -> ViewId {
    ViewId::new(node(rng), rng.range(0, 64))
}

/// An `AllViews` seq floor, encoded in one to ten varint bytes.
fn seq_floor(rng: &mut SimRng) -> u64 {
    rng.next_u64() >> rng.range(0, 64)
}

fn flush_id(rng: &mut SimRng) -> FlushId {
    FlushId {
        initiator: node(rng),
        nonce: rng.range(0, 64),
    }
}

fn lflush_id(rng: &mut SimRng) -> LFlushId {
    LFlushId {
        initiator: node(rng),
        nonce: rng.range(0, 64),
    }
}

/// An HWG id as the system sends it — allocated at run time (`1 << 63 |
/// node << 32 | counter`) — or a small static id as tests name them.
fn hwg_id(rng: &mut SimRng) -> HwgId {
    if rng.chance(0.5) {
        HwgId::allocated(NodeId(rng.range(0, 400) as u32), rng.range(1, 300) as u32)
    } else {
        HwgId(rng.range(0, 32))
    }
}

/// A request id as `NsClient` mints it (`node << 32 | counter`), or a
/// small one.
fn request_id(rng: &mut SimRng) -> RequestId {
    if rng.chance(0.5) {
        RequestId(rng.range(0, 400) << 32 | rng.range(1, 1000))
    } else {
        RequestId(rng.range(0, 1000))
    }
}

fn payload(rng: &mut SimRng) -> Frame {
    let mut bytes = vec![0u8; rng.range(0, 64) as usize];
    rng.fill_bytes(&mut bytes);
    Frame::from_vec(bytes)
}

fn members(rng: &mut SimRng) -> Vec<NodeId> {
    let base = rng.range(0, 8) as u32;
    (0..rng.range(1, 5))
        .map(|i| NodeId(base + i as u32))
        .collect()
}

fn view(rng: &mut SimRng) -> View {
    View {
        id: view_id(rng),
        members: members(rng),
        predecessors: (0..rng.range(0, 3)).map(|_| view_id(rng)).collect(),
    }
}

fn seq_map(rng: &mut SimRng) -> BTreeMap<NodeId, u64> {
    (0..rng.range(0, 4))
        .map(|_| (node(rng), rng.range(0, 1000)))
        .collect()
}

fn seq_pairs(rng: &mut SimRng) -> Vec<(NodeId, u64)> {
    (0..rng.range(0, 4))
        .map(|_| (node(rng), rng.range(0, 1000)))
        .collect()
}

fn slot(rng: &mut SimRng) -> Slot {
    if rng.chance(0.2) {
        Slot::Skip
    } else {
        Slot::Full(payload(rng))
    }
}

fn mapping(rng: &mut SimRng) -> Mapping {
    Mapping {
        lwg_view: view_id(rng),
        members: members(rng),
        hwg: hwg_id(rng),
        hwg_view: view_id(rng),
    }
}

fn vs_msg(rng: &mut SimRng) -> VsMsg {
    let hwg = hwg_id(rng);
    match rng.range(0, 18) {
        0 => VsMsg::Heartbeat,
        1 => VsMsg::JoinProbe { hwg },
        2 => VsMsg::JoinOffer {
            hwg,
            view_id: view_id(rng),
        },
        3 => VsMsg::JoinReq { hwg },
        4 => VsMsg::LeaveReq { hwg },
        5 => VsMsg::Data {
            hwg,
            view_id: view_id(rng),
            sender: node(rng),
            seq: rng.range(1, 1000),
            payload: slot(rng),
        },
        6 => VsMsg::FlushReq {
            hwg,
            view_id: view_id(rng),
            flush: flush_id(rng),
            proposed: members(rng),
            purpose: if rng.chance(0.5) {
                FlushPurpose::ViewChange
            } else {
                FlushPurpose::Merge { leader: node(rng) }
            },
        },
        7 => VsMsg::FlushDigest {
            hwg,
            flush: flush_id(rng),
            prefix: seq_map(rng),
            extras: seq_pairs(rng),
            thin: seq_pairs(rng),
        },
        8 => VsMsg::FlushTarget {
            hwg,
            flush: flush_id(rng),
            target: seq_map(rng),
        },
        9 => VsMsg::FlushPull {
            hwg,
            flush: flush_id(rng),
            wants: seq_pairs(rng),
        },
        10 => VsMsg::FlushFill {
            hwg,
            view_id: view_id(rng),
            sender: node(rng),
            seq: rng.range(1, 1000),
            payload: slot(rng),
        },
        11 => VsMsg::FlushDone {
            hwg,
            flush: flush_id(rng),
        },
        12 => VsMsg::NewView {
            hwg,
            view: view(rng),
        },
        13 => VsMsg::Nack {
            hwg,
            view_id: view_id(rng),
            sender: node(rng),
            missing: (0..rng.range(0, 5)).map(|_| rng.range(1, 1000)).collect(),
        },
        14 => VsMsg::Stability {
            hwg,
            view_id: view_id(rng),
            prefix: seq_map(rng),
        },
        15 => VsMsg::Beacon {
            hwg,
            view_id: view_id(rng),
        },
        16 => VsMsg::MergeReq {
            hwg,
            invitee_view: view_id(rng),
            leader_view: view_id(rng),
        },
        17 => VsMsg::MergeReady {
            hwg,
            view: view(rng),
        },
        _ => VsMsg::MergeNack {
            hwg,
            invitee_view: view_id(rng),
        },
    }
}

fn lwg_msg(rng: &mut SimRng) -> LwgMsg {
    let lwg = LwgId(rng.range(0, 32));
    match rng.range(0, 10) {
        0 => LwgMsg::Data {
            lwg,
            lwg_view: view_id(rng),
            data: payload(rng),
        },
        1 => LwgMsg::Batch {
            entries: (0..rng.range(1, 5))
                .map(|_| (LwgId(rng.range(0, 32)), view_id(rng), payload(rng)))
                .collect(),
        },
        2 => LwgMsg::JoinReq { lwg },
        3 => LwgMsg::LeaveReq { lwg },
        4 => LwgMsg::Flush {
            lwg,
            flush: lflush_id(rng),
            view: view_id(rng),
            members: members(rng),
            next: (rng.range(0, 4) > 0).then(|| view(rng)),
            to: (rng.range(0, 2) > 0).then(|| hwg_id(rng)),
        },
        5 => LwgMsg::FlushOk {
            lwg,
            flush: lflush_id(rng),
        },
        6 => LwgMsg::SwitchReady {
            lwg,
            flush: lflush_id(rng),
        },
        7 => LwgMsg::MergeViews,
        8 => {
            let views: Vec<(LwgId, View)> = (0..rng.range(0, 3))
                .map(|_| (LwgId(rng.range(0, 32)), view(rng)))
                .collect();
            let held = (0..rng.range(0, 3)).map(|_| (LwgId(rng.range(0, 32)), view_id(rng)));
            LwgMsg::AllViews {
                views: AdvertisedViews::new(views.iter().map(|(lwg, v)| (*lwg, v))),
                held: AdvertisedViews::by_id(held.collect::<Vec<_>>()),
                seq_floor: seq_floor(rng),
            }
        }
        _ => LwgMsg::Redirect {
            lwg,
            to: hwg_id(rng),
        },
    }
}

fn ns_msg(rng: &mut SimRng) -> NsMsg {
    let lwg = LwgId(rng.range(0, 32));
    let req = request_id(rng);
    match rng.range(0, 7) {
        0 => NsMsg::Set {
            req,
            lwg,
            mapping: mapping(rng),
            preds: (0..rng.range(0, 3)).map(|_| view_id(rng)).collect(),
        },
        1 => NsMsg::Read { req, lwg },
        2 => NsMsg::TestSet {
            req,
            lwg,
            mapping: mapping(rng),
            preds: (0..rng.range(0, 3)).map(|_| view_id(rng)).collect(),
        },
        3 => NsMsg::Unset {
            req,
            lwg,
            lwg_view: view_id(rng),
        },
        4 => NsMsg::Reply {
            req,
            lwg,
            mappings: (0..rng.range(0, 3)).map(|_| mapping(rng)).collect(),
        },
        5 => NsMsg::MultipleMappings {
            lwg,
            mappings: (0..rng.range(1, 3)).map(|_| mapping(rng)).collect(),
        },
        _ => {
            let mut db = MappingDb::new();
            for _ in 0..rng.range(0, 3) {
                let m = mapping(rng);
                db.set(LwgId(rng.range(0, 32)), m, &[]);
            }
            NsMsg::Sync {
                root: db.root(),
                db,
            }
        }
    }
}

fn net_msg(rng: &mut SimRng) -> NetMsg {
    match rng.range(0, 5) {
        0 => NetMsg::Hello { node: node(rng) },
        1 => NetMsg::Alive { node: node(rng) },
        2 => NetMsg::Bye { node: node(rng) },
        3 => NetMsg::Block {
            peers: members(rng),
        },
        _ => NetMsg::Unblock {
            peers: (0..rng.range(0, 4)).map(|_| node(rng)).collect(),
        },
    }
}

// ---------------------------------------------------------------------
// Round-trip properties (the protocol enums have no PartialEq; their
// Debug forms are total, so string equality is the identity check)
// ---------------------------------------------------------------------

const SEEDS: [u64; 3] = [1, 42, 0xF00D];
const ITERS: usize = 300;

#[test]
fn vs_frames_round_trip() {
    for seed in SEEDS {
        let mut rng = SimRng::from_seed(seed);
        for _ in 0..ITERS {
            let msg = vs_msg(&mut rng);
            let f = encode_frame(family::VS, &msg);
            assert_eq!(peek_family(&f), Some(family::VS));
            let back: VsMsg = decode_frame(family::VS, &f).expect("round trip");
            assert_eq!(format!("{msg:?}"), format!("{back:?}"));
        }
    }
}

#[test]
fn lwg_frames_round_trip() {
    for seed in SEEDS {
        let mut rng = SimRng::from_seed(seed);
        for _ in 0..ITERS {
            let msg = lwg_msg(&mut rng);
            let f = encode_frame(family::LWG, &msg);
            assert_eq!(peek_family(&f), Some(family::LWG));
            let back: LwgMsg = decode_frame(family::LWG, &f).expect("round trip");
            assert_eq!(format!("{msg:?}"), format!("{back:?}"));
        }
    }
}

#[test]
fn ns_frames_round_trip() {
    for seed in SEEDS {
        let mut rng = SimRng::from_seed(seed);
        for _ in 0..ITERS {
            let msg = ns_msg(&mut rng);
            let f = encode_frame(family::NS, &msg);
            assert_eq!(peek_family(&f), Some(family::NS));
            let back: NsMsg = decode_frame(family::NS, &f).expect("round trip");
            assert_eq!(format!("{msg:?}"), format!("{back:?}"));
        }
    }
}

#[test]
fn net_frames_round_trip() {
    for seed in SEEDS {
        let mut rng = SimRng::from_seed(seed);
        for _ in 0..ITERS {
            let msg = net_msg(&mut rng);
            let f = net_frame(&msg);
            assert_eq!(peek_family(&f), Some(family::NET));
            assert_eq!(decode_frame::<NetMsg>(family::NET, &f), Ok(msg));
        }
    }
}

// ---------------------------------------------------------------------
// Identifiers: two 32-bit halves, each its own varint
// ---------------------------------------------------------------------

/// `v` encoded, then decoded back from exactly those bytes.
fn id_round_trip<T: Encode + Decode>(v: &T) -> (T, usize) {
    let mut out = Vec::new();
    v.encode_into(&mut out);
    let len = out.len();
    let f = Frame::from_vec(out);
    let mut r = Reader::new(&f);
    let back = T::decode_from(&mut r).expect("decode");
    r.finish().expect("no trailing bytes");
    (back, len)
}

/// Every `u64` is an id the codec carries: random values, and values
/// with each bit width, round-trip through both identifier codecs.
#[test]
fn any_u64_id_round_trips() {
    for seed in SEEDS {
        let mut rng = SimRng::from_seed(seed);
        for _ in 0..10_000 {
            let v = rng.next_u64() >> rng.range(0, 64);
            assert_eq!(id_round_trip(&HwgId(v)).0, HwgId(v), "{v:#x}");
            assert_eq!(id_round_trip(&RequestId(v)).0, RequestId(v), "{v:#x}");
        }
    }
    for v in [
        0,
        u64::from(u32::MAX),
        1 << 32,
        1 << 63,
        u64::MAX >> 1,
        u64::MAX,
    ] {
        assert_eq!(id_round_trip(&HwgId(v)).0, HwgId(v), "{v:#x}");
        assert_eq!(id_round_trip(&RequestId(v)).0, RequestId(v), "{v:#x}");
    }
}

/// A half that does not fit 32 bits is refused, typed, in either place.
#[test]
fn out_of_range_id_halves_are_rejected() {
    for halves in [
        (1u64 << 32, 0u64),
        (0, 1 << 32),
        (u64::MAX, 1),
        (1, u64::MAX),
    ] {
        let mut out = Vec::new();
        halves.encode_into(&mut out);
        let f = Frame::from_vec(out);
        let what = format!("{halves:x?}");
        assert!(
            matches!(
                HwgId::decode_from(&mut Reader::new(&f)),
                Err(WireError::BadTag { .. })
            ),
            "HwgId {what}"
        );
        assert!(
            matches!(
                RequestId::decode_from(&mut Reader::new(&f)),
                Err(WireError::BadTag { .. })
            ),
            "RequestId {what}"
        );
    }
}

/// The ids the system sends are small on the wire: an allocated `HwgId`
/// of a node below 64 and a counter below 128 takes 2 bytes (10 as one
/// varint of the `u64`), so its beacon takes 6; a request id of such a
/// node and counter takes 2 too.
#[test]
fn allocated_ids_cost_their_parts() {
    for node in 0..64 {
        for counter in 0..128 {
            let id = HwgId::allocated(NodeId(node), counter);
            assert_eq!(id_round_trip(&id), (id, 2), "{id}");
            let beacon = VsMsg::Beacon {
                hwg: id,
                view_id: ViewId::new(NodeId(node), 1),
            };
            assert_eq!(encode_frame(family::VS, &beacon).len(), 6, "{id}");
            let req = RequestId(u64::from(node) << 32 | u64::from(counter));
            assert_eq!(id_round_trip(&req), (req, 2), "{req:?}");
        }
    }
}

// ---------------------------------------------------------------------
// Rejection: every malformation fails typed, never panics
// ---------------------------------------------------------------------

/// Every field of every message is required and every variable-length
/// structure carries an explicit length prefix, so *no strict prefix* of
/// a valid frame is itself a valid frame.
#[test]
fn every_truncation_is_rejected() {
    fn no_prefix_decodes<T: Decode>(fam: u64, f: &Frame) {
        for cut in 0..f.len() {
            let t = Frame::copy_from_slice(&f.bytes()[..cut]);
            assert!(
                decode_frame::<T>(fam, &t).is_err(),
                "family {fam}: prefix of len {cut}/{} decoded",
                f.len()
            );
        }
    }
    let mut rng = SimRng::from_seed(7);
    for _ in 0..40 {
        no_prefix_decodes::<VsMsg>(family::VS, &encode_frame(family::VS, &vs_msg(&mut rng)));
        no_prefix_decodes::<LwgMsg>(family::LWG, &encode_frame(family::LWG, &lwg_msg(&mut rng)));
        no_prefix_decodes::<NsMsg>(family::NS, &encode_frame(family::NS, &ns_msg(&mut rng)));
        no_prefix_decodes::<NetMsg>(family::NET, &net_frame(&net_msg(&mut rng)));
    }
}

#[test]
fn trailing_bytes_are_rejected() {
    let mut rng = SimRng::from_seed(8);
    for _ in 0..40 {
        let f = encode_frame(family::VS, &vs_msg(&mut rng));
        let mut long = f.bytes().to_vec();
        long.push(0);
        let t = Frame::from_vec(long);
        assert!(decode_frame::<VsMsg>(family::VS, &t).is_err());
        let mut long = net_frame(&net_msg(&mut rng)).bytes().to_vec();
        long.push(0);
        let t = Frame::from_vec(long);
        assert!(decode_frame::<NetMsg>(family::NET, &t).is_err());
    }
}

#[test]
fn misrouted_family_is_rejected() {
    let f = encode_frame(family::VS, &VsMsg::Heartbeat);
    assert!(decode_frame::<NsMsg>(family::NS, &f).is_err());
    assert!(decode_frame::<LwgMsg>(family::LWG, &f).is_err());
    assert!(decode_frame::<NetMsg>(family::NET, &f).is_err());
    let f = net_frame(&NetMsg::Hello { node: NodeId(0) });
    assert!(decode_frame::<VsMsg>(family::VS, &f).is_err());
    // A frame routed to the right decoder under the wrong family tag.
    assert!(decode_frame::<NetMsg>(family::VS, &f).is_err());
}

/// The retired `LwgMsg` tags — 6 (`NewLwgView`), 7 (`SwitchTo`) and 11
/// (`Dissolved`): no LWG view is announced any more, and a switch is a
/// `Flush` with a target. A frame with one is refused with `BadTag`, and
/// the service counts it in `DECODE_ERRORS`, both node to node and inside
/// an HWG multicast, without a panic.
#[test]
fn retired_lwg_tags_are_refused_and_counted() {
    use plwg::core::{keys, LwgNode, LwgService, ScriptedHwg};
    use plwg::sim::{WireError, World, WorldConfig};
    let mut w = World::new(WorldConfig::default());
    let node = LwgService::<ScriptedHwg>::builder(NodeId(0))
        .servers([NodeId(1)])
        .build_node()
        .expect("valid config");
    let me = w.add_node(Box::new(node));
    assert_eq!(me, NodeId(0));
    let hwg = HwgId(5);
    w.invoke(me, move |n: &mut LwgNode<ScriptedHwg>, ctx| {
        let view = View::initial(ViewId::new(me, 1), vec![me]);
        n.service().hwg_stack_mut().inject_view(hwg, view);
        n.service().pump(ctx);
    });
    for (i, tag) in [6u8, 7, 11].into_iter().enumerate() {
        // A retired tag followed by bytes that would have been its fields.
        let f = Frame::from_vec(vec![family::LWG as u8, tag, 3, 1, 2]);
        assert_eq!(
            decode_frame::<LwgMsg>(family::LWG, &f).err(),
            Some(WireError::BadTag {
                what: "LwgMsg",
                tag: tag.into(),
            })
        );
        let direct = f.clone();
        w.invoke(me, move |n: &mut LwgNode<ScriptedHwg>, ctx| {
            assert!(n.service().on_message(ctx, NodeId(2), &direct));
            n.service().hwg_stack_mut().inject_data(hwg, NodeId(2), f);
            n.service().pump(ctx);
        });
        let counted = w.metrics().counter(keys::DECODE_ERRORS);
        assert_eq!(counted, 2 * (i as u64 + 1), "tag {tag}");
    }
}

/// Arbitrary corruption may decode (flipping a payload byte yields a
/// different but well-formed message) or fail typed; it must never panic,
/// and whatever does decode must itself round-trip. (Byte-for-byte
/// re-encoding is *not* asserted: a flipped map key decodes fine but
/// re-encodes in canonical sorted order.)
#[test]
fn corruption_never_panics() {
    let mut rng = SimRng::from_seed(9);
    for _ in 0..200 {
        let f = encode_frame(family::VS, &vs_msg(&mut rng));
        let mut bytes = f.bytes().to_vec();
        let i = rng.range(0, bytes.len() as u64) as usize;
        bytes[i] ^= 1 << rng.range(0, 8);
        let corrupt = Frame::from_vec(bytes);
        if let Ok(back) = decode_frame::<VsMsg>(family::VS, &corrupt) {
            let re = encode_frame(family::VS, &back);
            let again: VsMsg = decode_frame(family::VS, &re).expect("re-encode round trips");
            assert_eq!(format!("{back:?}"), format!("{again:?}"));
        }
    }
    // The datagram envelope of `plwg-net` is the one decoder that reads
    // bytes straight off a socket: every single-byte corruption and every
    // truncation of a multi-frame datagram.
    let mut frames = Vec::new();
    for _ in 0..20 {
        let sent: Vec<Frame> = (0..rng.range(2, 5))
            .map(|_| match rng.range(0, 3) {
                0 => net_frame(&net_msg(&mut rng)),
                1 => encode_frame(family::LWG, &lwg_msg(&mut rng)),
                _ => payload(&mut rng),
            })
            .collect();
        let dgram = pack_datagram(NodeId(rng.range(0, 400) as u32), &sent);
        for i in 0..dgram.len() {
            for flip in 1..=255u8 {
                let mut bytes = dgram.clone();
                bytes[i] ^= flip;
                let corrupt = Frame::from_vec(bytes);
                match unpack_datagram(&corrupt, &mut frames) {
                    // Whatever unpacks is sliced out of the datagram.
                    Ok(_) => assert!(frames.iter().map(Frame::len).sum::<usize>() < corrupt.len()),
                    Err(_) => assert!(frames.is_empty(), "rejected datagram leaked a frame"),
                }
            }
        }
        for cut in 0..dgram.len() {
            let t = Frame::copy_from_slice(&dgram[..cut]);
            match unpack_datagram(&t, &mut frames) {
                // A cut on a frame boundary is a shorter, valid datagram.
                Ok(_) => {
                    assert!(
                        frames.len() < sent.len(),
                        "prefix of len {cut} kept every frame"
                    );
                    assert!(frames
                        .iter()
                        .zip(&sent)
                        .all(|(a, b)| a.bytes() == b.bytes()));
                }
                Err(_) => assert!(frames.is_empty(), "rejected datagram leaked a frame"),
            }
        }
    }
}

// ---------------------------------------------------------------------
// AllViews: entries kept as bytes, checked against the eager decoder
// ---------------------------------------------------------------------

/// The `AllViews` variant tag of the `LwgMsg` table.
const ALL_VIEWS_TAG: u8 = 10;

/// An `AllViews` advertisement as the eager decoder builds it: the views
/// sent in full, the ids of the views sent by id, and the seq floor.
type OwnedAllViews = (Vec<(LwgId, View)>, Vec<(LwgId, ViewId)>, u64);

/// An `AllViews` frame as the eager encoder wrote it: the views are
/// encoded as given, invalid ones included.
fn all_views_frame(views: &[(LwgId, View)], held: &[(LwgId, ViewId)], seq_floor: u64) -> Frame {
    struct Owned<'a>(&'a [(LwgId, View)], &'a [(LwgId, ViewId)], u64);
    impl Encode for Owned<'_> {
        fn encode_into(&self, out: &mut Vec<u8>) {
            out.push(ALL_VIEWS_TAG);
            (self.0.to_vec(), self.1.to_vec(), self.2).encode_into(out);
        }
    }
    encode_frame(family::LWG, &Owned(views, held, seq_floor))
}

/// The reference: the eager decoder of the two lists and the floor.
fn reference_all_views(f: &Frame) -> Option<OwnedAllViews> {
    let mut r = Reader::new(f);
    if r.read_varint().ok()? != family::LWG || r.read_u8().ok()? != ALL_VIEWS_TAG {
        return None;
    }
    let lists = OwnedAllViews::decode_from(&mut r).ok()?;
    r.finish().ok()?;
    Some(lists)
}

/// The shipped decoder, its entries then decoded one by one.
fn lazy_all_views(f: &Frame) -> Option<OwnedAllViews> {
    let Ok(LwgMsg::AllViews {
        views,
        held,
        seq_floor,
    }) = decode_frame::<LwgMsg>(family::LWG, f)
    else {
        return None;
    };
    let entries: Vec<(LwgId, View)> = views
        .iter()
        .map(|(lwg, id, bytes)| {
            let mut r = Reader::new(&bytes);
            let view = View::decode_from(&mut r).expect("a validated entry decodes");
            r.finish().expect("an entry is exactly one view");
            assert_eq!(view.id, id, "entry id");
            (lwg, view)
        })
        .collect();
    assert_eq!(entries.len(), views.len(), "entry count");
    let ids: Vec<(LwgId, ViewId)> = held.iter().collect();
    assert_eq!(ids.len(), held.len(), "id count");
    Some((entries, ids, seq_floor))
}

/// A view as a corrupt or adversarial sender might encode it: sometimes
/// empty, or with a duplicate member on either side of the decoder's
/// 16-member in-place check.
fn raw_view(rng: &mut SimRng) -> View {
    let mut v = view(rng);
    let large = rng.range(17, 24) as u32;
    match rng.range(0, 8) {
        0 => v.members.clear(),
        1 => v.members.push(v.members[0]),
        2 => v.members = (0..large).map(NodeId).collect(),
        3 => v.members = (0..large).chain([large / 2]).map(NodeId).collect(),
        _ => {}
    }
    v
}

/// Over seeded frames, every truncation of them (inside the trailing seq
/// floor's varint included) and every single-bit flip, the shipped decoder
/// accepts exactly the frames the reference accepts and yields the same
/// entries; the valid lists also encode byte for byte as the reference
/// wrote them.
#[test]
fn all_views_decoder_accepts_exactly_what_the_reference_accepts() {
    let mut rng = SimRng::from_seed(28);
    let (mut accepted, mut rejected) = (0, 0);
    let mut check = |f: &Frame| {
        let want = reference_all_views(f);
        assert_eq!(lazy_all_views(f), want, "frame {}", hex(f.bytes()));
        if want.is_some() {
            accepted += 1;
        } else {
            rejected += 1;
        }
    };
    for _ in 0..200 {
        let views: Vec<(LwgId, View)> = (0..rng.range(0, 5))
            .map(|_| (LwgId(rng.range(0, 1 << 20)), raw_view(&mut rng)))
            .collect();
        let held: Vec<(LwgId, ViewId)> = (0..rng.range(0, 5))
            .map(|_| (LwgId(rng.range(0, 1 << 20)), view_id(&mut rng)))
            .collect();
        let floor = seq_floor(&mut rng);
        let f = all_views_frame(&views, &held, floor);
        if reference_all_views(&f).is_some() {
            let msg = LwgMsg::AllViews {
                views: AdvertisedViews::new(views.iter().map(|(lwg, v)| (*lwg, v))),
                held: AdvertisedViews::by_id(held.iter().copied()),
                seq_floor: floor,
            };
            assert_eq!(encode_frame(family::LWG, &msg), f);
        }
        check(&f);
        for cut in 0..f.len() {
            check(&Frame::copy_from_slice(&f.bytes()[..cut]));
        }
        for i in 0..f.len() {
            for bit in 0..8 {
                let mut bytes = f.bytes().to_vec();
                bytes[i] ^= 1 << bit;
                check(&Frame::from_vec(bytes));
            }
        }
    }
    // Both outcomes are well represented.
    assert!(
        accepted > 1_000 && rejected > 1_000,
        "{accepted} / {rejected}"
    );
}

/// Decoding an advertisement of 128 views in full, 128 by id and a
/// ten-byte seq floor, and walking both lists, allocates nothing: the
/// entries are sub-frames of the incoming frame.
#[test]
fn all_views_decode_allocates_nothing() {
    let mut rng = SimRng::from_seed(1);
    let views: Vec<(LwgId, View)> = (0..128)
        .map(|g| {
            let v = View {
                id: view_id(&mut rng),
                members: (0..8).map(NodeId).collect(),
                predecessors: vec![view_id(&mut rng)],
            };
            (LwgId(g), v)
        })
        .collect();
    let held: Vec<(LwgId, ViewId)> = (128..256).map(|g| (LwgId(g), view_id(&mut rng))).collect();
    let f = all_views_frame(&views, &held, u64::MAX);
    let before = allocs();
    let msg = decode_frame::<LwgMsg>(family::LWG, &f);
    let walked = match &msg {
        Ok(LwgMsg::AllViews {
            views,
            held,
            seq_floor,
        }) => (views.iter().count(), held.iter().count(), *seq_floor),
        _ => (0, 0, 0),
    };
    let allocs = allocs() - before;
    assert_eq!(walked, (128, 128, u64::MAX), "every entry walked");
    assert_eq!(allocs, 0, "allocations decoding and walking 256 entries");
    drop(msg);
}

// ---------------------------------------------------------------------
// Golden snapshot
// ---------------------------------------------------------------------

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// One fixed frame per interesting shape: every encoding primitive
/// (varint, map, vec, tuple, option, nested payload) appears at least
/// once, so a codec change cannot miss the snapshot.
fn golden_entries() -> Vec<(&'static str, Frame)> {
    let v1 = ViewId::new(NodeId(1), 3);
    let v2 = ViewId::new(NodeId(2), 5);
    let view = View {
        id: v2,
        members: vec![NodeId(1), NodeId(2), NodeId(4)],
        predecessors: vec![v1],
    };
    let mapping = Mapping {
        lwg_view: v1,
        members: vec![NodeId(1), NodeId(2)],
        hwg: HwgId(7),
        hwg_view: v2,
    };
    let mut db = MappingDb::new();
    db.set(LwgId(9), mapping.clone(), &[]);
    vec![
        ("vs.heartbeat", encode_frame(family::VS, &VsMsg::Heartbeat)),
        (
            "vs.data",
            encode_frame(
                family::VS,
                &VsMsg::Data {
                    hwg: HwgId(7),
                    view_id: v1,
                    sender: NodeId(2),
                    seq: 9,
                    payload: Slot::Full(Frame::from_vec(vec![0xde, 0xad, 0xbe, 0xef])),
                },
            ),
        ),
        (
            "vs.data.skip",
            encode_frame(
                family::VS,
                &VsMsg::Data {
                    hwg: HwgId(7),
                    view_id: v1,
                    sender: NodeId(2),
                    seq: 10,
                    payload: Slot::Skip,
                },
            ),
        ),
        (
            "vs.flush_digest",
            encode_frame(
                family::VS,
                &VsMsg::FlushDigest {
                    hwg: HwgId(7),
                    flush: FlushId {
                        initiator: NodeId(1),
                        nonce: 2,
                    },
                    prefix: BTreeMap::from([(NodeId(1), 4), (NodeId(2), 7)]),
                    extras: vec![(NodeId(3), 5)],
                    thin: vec![],
                },
            ),
        ),
        (
            "vs.new_view",
            encode_frame(
                family::VS,
                &VsMsg::NewView {
                    hwg: HwgId(7),
                    view: view.clone(),
                },
            ),
        ),
        (
            "vs.merge_req",
            encode_frame(
                family::VS,
                &VsMsg::MergeReq {
                    hwg: HwgId(7),
                    invitee_view: v1,
                    leader_view: v2,
                },
            ),
        ),
        // An id as the system allocates it: node 3's first HWG.
        (
            "vs.beacon.allocated",
            encode_frame(
                family::VS,
                &VsMsg::Beacon {
                    hwg: HwgId::allocated(NodeId(3), 1),
                    view_id: v2,
                },
            ),
        ),
        (
            "lwg.data",
            encode_frame(
                family::LWG,
                &LwgMsg::Data {
                    lwg: LwgId(3),
                    lwg_view: v1,
                    data: Frame::from_vec(vec![0x2a]),
                },
            ),
        ),
        (
            "lwg.batch",
            encode_frame(
                family::LWG,
                &LwgMsg::Batch {
                    entries: vec![
                        (LwgId(3), v1, Frame::from_vec(vec![0x01])),
                        (LwgId(4), v2, Frame::from_vec(vec![0x02, 0x03])),
                    ],
                },
            ),
        ),
        (
            "lwg.flush",
            encode_frame(
                family::LWG,
                &LwgMsg::Flush {
                    lwg: LwgId(3),
                    flush: LFlushId {
                        initiator: NodeId(1),
                        nonce: 2,
                    },
                    view: v1,
                    members: vec![NodeId(1), NodeId(2)],
                    next: Some(view.clone()),
                    to: Some(HwgId(7)),
                },
            ),
        ),
        (
            "lwg.all_views",
            encode_frame(
                family::LWG,
                &LwgMsg::AllViews {
                    views: AdvertisedViews::new([(LwgId(3), &view)]),
                    held: AdvertisedViews::by_id([(LwgId(4), v1), (LwgId(5), v2)]),
                    seq_floor: 300,
                },
            ),
        ),
        (
            "lwg.redirect",
            encode_frame(
                family::LWG,
                &LwgMsg::Redirect {
                    lwg: LwgId(3),
                    to: HwgId(8),
                },
            ),
        ),
        (
            "ns.set",
            encode_frame(
                family::NS,
                &NsMsg::Set {
                    req: RequestId(11),
                    lwg: LwgId(9),
                    mapping: mapping.clone(),
                    preds: vec![v1],
                },
            ),
        ),
        // Ids as the system mints them: node 3's fifth request, about a
        // mapping onto node 3's first HWG.
        (
            "ns.set.allocated",
            encode_frame(
                family::NS,
                &NsMsg::Set {
                    req: RequestId(3 << 32 | 5),
                    lwg: LwgId(9),
                    mapping: Mapping {
                        hwg: HwgId::allocated(NodeId(3), 1),
                        ..mapping.clone()
                    },
                    preds: vec![v1],
                },
            ),
        ),
        (
            "ns.reply",
            encode_frame(
                family::NS,
                &NsMsg::Reply {
                    req: RequestId(11),
                    lwg: LwgId(9),
                    mappings: vec![mapping],
                },
            ),
        ),
        (
            "ns.sync",
            encode_frame(
                family::NS,
                &NsMsg::Sync {
                    root: db.root(),
                    db,
                },
            ),
        ),
        ("net.hello", net_frame(&NetMsg::Hello { node: NodeId(300) })),
        (
            "net.block",
            net_frame(&NetMsg::Block {
                peers: vec![NodeId(1), NodeId(2)],
            }),
        ),
        // Not a frame but the envelope frames travel in over UDP:
        // `from:varint` then length-prefixed frames.
        (
            "net.datagram",
            Frame::from_vec(pack_datagram(
                NodeId(300),
                &[
                    net_frame(&NetMsg::Alive { node: NodeId(300) }),
                    net_frame(&NetMsg::Unblock { peers: vec![] }),
                ],
            )),
        ),
    ]
}

#[test]
fn golden_frames_match_snapshot() {
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/wire_frames.hex");
    let mut lines = vec![
        "# Golden wire frames: <label> <hex of the full frame, family tag included>.".to_string(),
        "# Any diff here is a wire-format change; regenerate only deliberately with".to_string(),
        "# WIRE_GOLDEN_BLESS=1 cargo test --test wire_codec".to_string(),
    ];
    for (label, frame) in golden_entries() {
        lines.push(format!("{label} {}", hex(frame.bytes())));
    }
    let want = lines.join("\n") + "\n";
    if std::env::var_os("WIRE_GOLDEN_BLESS").is_some() {
        std::fs::write(&path, &want).expect("write golden");
        return;
    }
    let got = std::fs::read_to_string(&path).expect(
        "tests/golden/wire_frames.hex missing — run WIRE_GOLDEN_BLESS=1 cargo test --test wire_codec",
    );
    assert_eq!(
        got, want,
        "wire frames drifted from the golden snapshot; if the format change is \
         intentional, re-bless with WIRE_GOLDEN_BLESS=1 cargo test --test wire_codec"
    );
}

/// The golden snapshot still decodes: the file guards compatibility of the
/// *decoder* too, not just encoder stability.
#[test]
fn golden_frames_still_decode() {
    for (label, frame) in golden_entries() {
        if label == "net.datagram" {
            let mut frames = Vec::new();
            assert_eq!(unpack_datagram(&frame, &mut frames), Ok(NodeId(300)));
            assert!(frames
                .iter()
                .all(|f| decode_frame::<NetMsg>(family::NET, f).is_ok()));
            continue;
        }
        let fam = peek_family(&frame).expect("family tag");
        let ok = match fam {
            family::VS => decode_frame::<VsMsg>(fam, &frame).is_ok(),
            family::NS => decode_frame::<NsMsg>(fam, &frame).is_ok(),
            family::LWG => decode_frame::<LwgMsg>(fam, &frame).is_ok(),
            family::NET => decode_frame::<NetMsg>(fam, &frame).is_ok(),
            _ => false,
        };
        assert!(ok, "golden frame {label} no longer decodes");
    }
}
