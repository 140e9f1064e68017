//! Wire codecs for the substrate vocabulary types.
//!
//! `plwg-wire` owns the primitive encoding (varints, length prefixes,
//! containers) and the `wire_struct!` derivation; each crate states the field
//! order of its own types. The identifiers and views defined here appear
//! inside the frames of *every* layer above (vsync control messages, naming
//! records, LWG batches), so their codecs live at this shared level.

use crate::id::{FlushId, HwgId, ViewId};
use crate::view::View;
use plwg_sim::{Decode, Encode, NodeId, Reader, WireError};

/// An `HwgId` travels as its two 32-bit halves, each its own varint, with
/// the allocation flag moved from bit 63 into bit 0 of the high half: an
/// allocated id is `node << 1 | 1` then its counter (`hwg[n3.1]` is
/// `07 01`, 2 bytes where the `u64` as one varint takes 10), and a static
/// id is `high << 1` then its low half (`hwg7` is `00 07`). The mapping is
/// a bijection over all of `u64`; a half above `u32::MAX` is refused.
impl Encode for HwgId {
    fn encode_into(&self, out: &mut Vec<u8>) {
        let halves = match self.parts() {
            Some((node, counter)) => (node.0 << 1 | 1, counter),
            None => (((self.0 >> 32) as u32) << 1, self.0 as u32),
        };
        halves.encode_into(out);
    }
}

impl Decode for HwgId {
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let (high, low) = <(u32, u32)>::decode_from(r)?;
        Ok(if high & 1 == 1 {
            HwgId::allocated(NodeId(high >> 1), low)
        } else {
            HwgId(u64::from(high >> 1) << 32 | u64::from(low))
        })
    }
}

plwg_wire::wire_struct!(ViewId { coordinator, seq });
plwg_wire::wire_struct!(FlushId { initiator, nonce });
plwg_wire::wire_struct!(encode View { id, members, predecessors });

/// Memberships up to this size are checked for duplicates pairwise, in
/// place; larger ones in a sorted copy.
const SMALL_MEMBERSHIP: usize = 16;

/// The `View` invariants, re-validated instead of trusted off the wire: a
/// corrupt or adversarial frame must not manufacture an empty or
/// duplicated membership (the constructors would panic on it).
fn valid_membership(members: &[NodeId]) -> bool {
    if members.len() <= SMALL_MEMBERSHIP {
        !members.is_empty() && (1..members.len()).all(|i| !members[..i].contains(&members[i]))
    } else {
        let mut sorted = members.to_vec();
        sorted.sort_unstable();
        sorted.windows(2).all(|w| w[0] != w[1])
    }
}

// Hand-written on purpose: safety code that re-validates off the wire.
impl Decode for View {
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let id = ViewId::decode_from(r)?;
        let members: Vec<NodeId> = Vec::decode_from(r)?;
        let predecessors = Vec::decode_from(r)?;
        if !valid_membership(&members) {
            return Err(WireError::BadLength);
        }
        Ok(View {
            id,
            members,
            predecessors,
        })
    }
}

impl View {
    /// Reads past one encoded view, accepting exactly what
    /// [`View::decode_from`] accepts, without building it; returns the
    /// view's id. Allocates only to check a membership of more than 16.
    pub fn skip_encoded(r: &mut Reader<'_>) -> Result<ViewId, WireError> {
        let id = ViewId::decode_from(r)?;
        // The length guard of `Vec::decode_from`.
        let len = usize::try_from(r.read_varint()?).map_err(|_| WireError::BadLength)?;
        if len > r.remaining() {
            return Err(WireError::BadLength);
        }
        let mut small = [NodeId(0); SMALL_MEMBERSHIP];
        let mut large = Vec::new();
        let members = match small.get_mut(..len) {
            Some(members) => members,
            None => {
                large.resize(len, NodeId(0));
                &mut large[..]
            }
        };
        for m in members.iter_mut() {
            *m = NodeId::decode_from(r)?;
        }
        let valid = valid_membership(members);
        let len = usize::try_from(r.read_varint()?).map_err(|_| WireError::BadLength)?;
        if len > r.remaining() {
            return Err(WireError::BadLength);
        }
        for _ in 0..len {
            ViewId::decode_from(r)?;
        }
        if !valid {
            return Err(WireError::BadLength);
        }
        Ok(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plwg_sim::Frame;

    fn roundtrip<T: Encode + Decode + PartialEq + std::fmt::Debug>(v: &T) -> T {
        let mut out = Vec::new();
        v.encode_into(&mut out);
        let f = Frame::from_vec(out);
        let mut r = Reader::new(&f);
        let got = T::decode_from(&mut r).expect("decode");
        r.finish().expect("no trailing bytes");
        got
    }

    #[test]
    fn ids_roundtrip() {
        for id in [
            HwgId(0),
            HwgId(7),
            HwgId(1 << 32),
            HwgId(u64::MAX >> 1),
            HwgId(1 << 63 | 42),
            HwgId(u64::MAX),
        ] {
            assert_eq!(roundtrip(&id), id);
        }
        let vid = ViewId::new(NodeId(3), 129);
        assert_eq!(roundtrip(&vid), vid);
        let fid = FlushId {
            initiator: NodeId(2),
            nonce: 300,
        };
        assert_eq!(roundtrip(&fid), fid);
    }

    #[test]
    fn an_hwg_id_travels_as_its_halves() {
        let bytes = |id: HwgId| {
            let mut out = Vec::new();
            id.encode_into(&mut out);
            out
        };
        assert_eq!(bytes(HwgId::allocated(NodeId(3), 1)), [0x07, 0x01]);
        assert_eq!(bytes(HwgId(7)), [0x00, 0x07]);
        // A high half past 32 bits is refused, not truncated.
        let mut out = Vec::new();
        (1u64 << 32, 1u64).encode_into(&mut out);
        let f = Frame::from_vec(out);
        assert!(HwgId::decode_from(&mut Reader::new(&f)).is_err());
    }

    #[test]
    fn view_roundtrips_with_predecessors() {
        let v = View::with_predecessors(
            ViewId::new(NodeId(1), 9),
            vec![NodeId(1), NodeId(4), NodeId(2)],
            vec![ViewId::new(NodeId(1), 8), ViewId::new(NodeId(4), 3)],
        );
        assert_eq!(roundtrip(&v), v);
    }

    /// Both readers of an encoded view reject an empty membership and a
    /// duplicated one, on either side of the in-place check's size limit.
    #[test]
    fn corrupt_view_membership_is_rejected_not_panicked() {
        let large_dup: Vec<NodeId> = (0..20).chain([7]).map(NodeId).collect();
        for members in [vec![NodeId(5), NodeId(5)], vec![], large_dup] {
            let mut out = Vec::new();
            ViewId::new(NodeId(0), 1).encode_into(&mut out);
            members.encode_into(&mut out);
            vec![ViewId::new(NodeId(1), 1)].encode_into(&mut out);
            let f = Frame::from_vec(out);
            assert_eq!(
                View::decode_from(&mut Reader::new(&f)),
                Err(WireError::BadLength),
                "{members:?}"
            );
            assert_eq!(
                View::skip_encoded(&mut Reader::new(&f)),
                Err(WireError::BadLength),
                "{members:?}"
            );
        }
    }

    #[test]
    fn skip_reads_exactly_one_valid_view() {
        for len in [1, 16, 17, 40] {
            let v = View::with_predecessors(
                ViewId::new(NodeId(1), 9),
                (0..len).rev().map(NodeId).collect(),
                vec![ViewId::new(NodeId(4), 3)],
            );
            let mut out = Vec::new();
            v.encode_into(&mut out);
            out.push(0xee);
            let f = Frame::from_vec(out);
            let mut r = Reader::new(&f);
            assert_eq!(View::skip_encoded(&mut r), Ok(v.id), "{len} members");
            assert_eq!(r.remaining(), 1);
        }
    }
}
