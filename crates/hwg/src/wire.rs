//! Wire codecs for the substrate vocabulary types.
//!
//! `plwg-wire` owns the primitive encoding (varints, length prefixes,
//! containers) and the `wire_struct!` derivation; each crate states the field
//! order of its own types. The identifiers and views defined here appear
//! inside the frames of *every* layer above (vsync control messages, naming
//! records, LWG batches), so their codecs live at this shared level.

use crate::id::{FlushId, HwgId, ViewId};
use crate::view::View;
use plwg_sim::{Decode, NodeId, Reader, WireError};

plwg_wire::wire_struct!(HwgId { 0 });
plwg_wire::wire_struct!(ViewId { coordinator, seq });
plwg_wire::wire_struct!(FlushId { initiator, nonce });
plwg_wire::wire_struct!(encode View { id, members, predecessors });

// Hand-written on purpose: safety code that re-validates off the wire.
impl Decode for View {
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let id = ViewId::decode_from(r)?;
        let members: Vec<NodeId> = Vec::decode_from(r)?;
        let predecessors = Vec::decode_from(r)?;
        // Re-validate the `View` invariants instead of trusting the wire:
        // a corrupt or adversarial frame must not manufacture an empty or
        // duplicated membership (the constructors would panic on it).
        if members.is_empty() {
            return Err(WireError::BadLength);
        }
        let mut sorted = members.clone();
        sorted.sort_unstable();
        sorted.dedup();
        if sorted.len() != members.len() {
            return Err(WireError::BadLength);
        }
        Ok(View {
            id,
            members,
            predecessors,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plwg_sim::{Encode, Frame};

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
        for id in [HwgId(0), HwgId(7), HwgId(1 << 63 | 42)] {
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
    fn view_roundtrips_with_predecessors() {
        let v = View::with_predecessors(
            ViewId::new(NodeId(1), 9),
            vec![NodeId(1), NodeId(4), NodeId(2)],
            vec![ViewId::new(NodeId(1), 8), ViewId::new(NodeId(4), 3)],
        );
        assert_eq!(roundtrip(&v), v);
    }

    #[test]
    fn corrupt_view_membership_is_rejected_not_panicked() {
        // Hand-encode a view with duplicate members; decode must error.
        let mut out = Vec::new();
        ViewId::new(NodeId(0), 1).encode_into(&mut out);
        vec![NodeId(5), NodeId(5)].encode_into(&mut out);
        Vec::<ViewId>::new().encode_into(&mut out);
        let f = Frame::from_vec(out);
        let mut r = Reader::new(&f);
        assert_eq!(View::decode_from(&mut r), Err(WireError::BadLength));

        // And an empty membership likewise.
        let mut out = Vec::new();
        ViewId::new(NodeId(0), 1).encode_into(&mut out);
        Vec::<NodeId>::new().encode_into(&mut out);
        Vec::<ViewId>::new().encode_into(&mut out);
        let f = Frame::from_vec(out);
        let mut r = Reader::new(&f);
        assert_eq!(View::decode_from(&mut r), Err(WireError::BadLength));
    }
}
