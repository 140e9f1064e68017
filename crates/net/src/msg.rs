//! Wire format of the net runtime: the `NET` frame family and the
//! datagram envelope every frame travels in.
//!
//! ```text
//! datagram := from:varint repeated( len:varint frame-bytes )
//! frame    := family-tag:varint body          (see plwg-wire)
//! ```
//!
//! The envelope names the *sending node* — UDP source addresses are not
//! identities (a node may rebind after a restart), and the protocol
//! layers above route by [`NodeId`]. A datagram may carry several frames
//! (the runtime coalesces what it sends to one peer within a turn); the
//! receiver slices them zero-copy out of the datagram's one allocation.
//!
//! [`NetMsg`] frames (family [`family::NET`]) are the transport's own
//! traffic: the hello/alive/bye peer lifecycle, plus the harness control
//! messages the multi-process examples use to inject partitions at the
//! socket level.

use plwg_sim::{encode_frame, family, Decode, Encode, Frame, NodeId, Payload, Reader, WireError};

/// Size a coalesced datagram is kept under: an Ethernet MTU less IP/UDP
/// headers and some slack, so it is not fragmented on the way. A single
/// frame larger than this still travels, alone in its datagram.
pub const DGRAM_BUDGET: usize = 1400;

/// Transport-level messages of the peer pool (never seen above the seam).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetMsg {
    /// Peer greeting: "I am `node`, reachable at the source address of
    /// this datagram". Sent on startup and re-sent until answered.
    Hello {
        /// The greeting node.
        node: NodeId,
    },
    /// Heartbeat of the failure detector.
    Alive {
        /// The living node.
        node: NodeId,
    },
    /// Graceful shutdown notice: the peer stops counting us silent.
    Bye {
        /// The departing node.
        node: NodeId,
    },
    /// Harness control: drop all traffic to/from `peers` at the socket
    /// boundary (both directions) — a real-network stand-in for the
    /// simulator's partition model.
    Block {
        /// The peers to cut off.
        peers: Vec<NodeId>,
    },
    /// Harness control: lift the drop filter for `peers`.
    Unblock {
        /// The peers to reconnect.
        peers: Vec<NodeId>,
    },
}

// The table is the codec; its left column is wire-stable, append-only.
plwg_wire::wire_enum!(NetMsg {
    0 => Hello { node },
    1 => Alive { node },
    2 => Bye { node },
    3 => Block { peers },
    4 => Unblock { peers },
});

/// Encodes a [`NetMsg`] as a ready-to-send frame (family `NET`).
pub fn net_frame(msg: &NetMsg) -> Payload {
    encode_frame(family::NET, msg)
}

/// Starts a datagram in `out`: the envelope header naming `from`. Frames
/// follow, each appended with [`Encode::encode_into`] (length-prefixed).
pub(crate) fn datagram_header(from: NodeId, out: &mut Vec<u8>) {
    from.encode_into(out);
}

/// Packs `frames` into one datagram from `from`.
pub fn pack_datagram(from: NodeId, frames: &[Frame]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + frames.iter().map(|f| f.len() + 4).sum::<usize>());
    datagram_header(from, &mut out);
    for f in frames {
        f.encode_into(&mut out);
    }
    out
}

/// Unpacks a received datagram: returns its sender and leaves its frames
/// in `frames` (cleared first) as zero-copy sub-slices of `dgram`'s
/// allocation. All or nothing: a malformed datagram yields no frames.
pub fn unpack_datagram(dgram: &Frame, frames: &mut Vec<Frame>) -> Result<NodeId, WireError> {
    frames.clear();
    let mut r = Reader::new(dgram);
    let from = NodeId::decode_from(&mut r)?;
    while r.remaining() > 0 {
        match r.read_frame() {
            Ok(f) => frames.push(f),
            Err(e) => {
                frames.clear();
                return Err(e);
            }
        }
    }
    Ok(from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use plwg_sim::peek_family;

    #[test]
    fn net_msg_roundtrip() {
        let msgs = [
            NetMsg::Hello { node: NodeId(3) },
            NetMsg::Alive { node: NodeId(0) },
            NetMsg::Bye { node: NodeId(9) },
            NetMsg::Block {
                peers: vec![NodeId(1), NodeId(2)],
            },
            NetMsg::Unblock { peers: vec![] },
        ];
        for msg in msgs {
            let f = net_frame(&msg);
            assert_eq!(peek_family(&f), Some(family::NET));
            let got = plwg_sim::decode_frame::<NetMsg>(family::NET, &f).expect("decode");
            assert_eq!(got, msg);
        }
    }

    #[test]
    fn datagram_roundtrip_multiframe() {
        let a = net_frame(&NetMsg::Hello { node: NodeId(1) });
        let b = Frame::copy_from_slice(&[9, 8, 7]);
        let dgram = Frame::from_vec(pack_datagram(NodeId(1), &[a.clone(), b.clone()]));
        let mut frames = Vec::new();
        let from = unpack_datagram(&dgram, &mut frames).expect("unpack");
        assert_eq!(from, NodeId(1));
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0].bytes(), a.bytes());
        assert_eq!(frames[1].bytes(), b.bytes());
        // Zero-copy: both frames view the datagram's own allocation.
        assert!(frames
            .iter()
            .all(|f| std::sync::Arc::ptr_eq(f.backing(), dgram.backing())));
    }

    #[test]
    fn truncated_datagram_rejected() {
        let a = net_frame(&NetMsg::Alive { node: NodeId(1) });
        let buf = pack_datagram(NodeId(1), &[a.clone(), a]);
        let cut = Frame::copy_from_slice(&buf[..buf.len() - 1]);
        let mut frames = Vec::new();
        assert!(unpack_datagram(&cut, &mut frames).is_err());
        assert!(frames.is_empty(), "no frame of a malformed datagram leaks");
    }
}
