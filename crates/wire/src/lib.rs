//! # plwg-wire — zero-copy wire codec substrate
//!
//! The bottom layer of the PLWG workspace: shared immutable byte buffers
//! ([`Frame`]), a compact, deterministic binary codec ([`Encode`] /
//! [`Decode`] over LEB128 varints), and the derivation every protocol
//! crate uses to put its messages on the wire. This crate knows nothing
//! about the protocols themselves — each crate states one table per
//! message type it owns ([`wire_enum!`] for `VsMsg`, `NsMsg`, `LwgMsg`,
//! `NetMsg`…; [`wire_struct!`] for identifiers and records) and the macro
//! expands, in that crate, to the straight-line encoder and decoder — it
//! only fixes the *frame discipline* they share:
//!
//! ```text
//! frame := family-tag:varint body
//! body  := variant-tag:varint field*          (per message enum)
//! field := varint | byte | len:varint bytes   (nested frames are
//!                                              length-prefixed and decode
//!                                              as zero-copy sub-slices)
//! ```
//!
//! A `variant-tag` is written and read as **one raw byte**. That is the
//! same thing as the grammar's `varint` only below 0x80, which is what
//! [`wire_enum!`] checks at compile time (together with uniqueness): the
//! table's left column is the tag space, append-only, 0–127.
//!
//! Decoding never panics and never copies payload bytes: a nested frame
//! read via [`Reader::read_frame`] shares the incoming allocation, so a
//! batch serialized once by a sender is sliced — not re-buffered — by
//! every member that delivers it. The few decoders that must re-validate
//! invariants off the wire (`View`, `LwgEntry`, `MappingDb`) stay
//! hand-written next to the type; their encoders still come from
//! `wire_struct!(encode …)`. A decoder may also validate a structure
//! without building it and keep it as bytes: [`Reader::read_span`] returns
//! what it consumed as a zero-copy sub-frame (`AdvertisedViews`, the
//! entries of an LWG `AllViews` message).
//!
//! Everything here is pure `std`, allocation-conscious and deterministic;
//! the simulator's `Payload` type *is* [`Frame`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod codec;
mod frame;
mod table;

pub use codec::{
    decode_frame, encode_frame, peek_family, put_varint, Decode, Encode, Reader, WireError,
};
pub use frame::Frame;
pub use table::assert_tags;

/// Top-level frame family tags: the first varint of every frame that
/// travels through the simulated network names the protocol that owns it.
///
/// The tags are part of the wire format — reordering or reusing them is a
/// compatibility break (see DESIGN.md, "Wire format & zero-copy data
/// plane").
pub mod family {
    /// Virtual-synchrony stack control and data messages (`VsMsg`).
    pub const VS: u64 = 1;
    /// Naming-service messages (`NsMsg`).
    pub const NS: u64 = 2;
    /// Light-weight group service messages (`LwgMsg`) — both direct sends
    /// and the payloads carried inside HWG data multicasts.
    pub const LWG: u64 = 3;
    /// The scripted test substrate's messages (`ScriptedMsg`).
    pub const SCRIPTED: u64 = 4;
    /// Transport-level peer-pool messages of the real-socket runtime
    /// (`plwg-net`'s `NetMsg`: hello/alive/bye and harness control).
    pub const NET: u64 = 5;
}
