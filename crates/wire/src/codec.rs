//! The codec core: LEB128 varints, the panic-free [`Reader`] cursor, the
//! [`Encode`]/[`Decode`] traits, and the frame-level helpers that enforce
//! the family-tag discipline.

use crate::frame::Frame;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Why a frame failed to decode. Decoding is total: every malformed input
/// maps to one of these, never a panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The frame ended before the value did.
    Truncated,
    /// A varint ran past 10 bytes or overflowed 64 bits.
    VarintOverflow,
    /// An enum tag (family, variant or bool) had no meaning.
    BadTag {
        /// What kind of tag was being read.
        what: &'static str,
        /// The offending value.
        tag: u64,
    },
    /// A length prefix pointed past the end of the frame.
    BadLength,
    /// The frame decoded fully but bytes were left over.
    TrailingBytes {
        /// How many bytes remained.
        remaining: usize,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame truncated"),
            WireError::VarintOverflow => write!(f, "varint overflows u64"),
            WireError::BadTag { what, tag } => write!(f, "bad {what} tag {tag}"),
            WireError::BadLength => write!(f, "length prefix exceeds frame"),
            WireError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing byte(s) after decode")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Appends `v` to `out` as an LEB128 varint (7 bits per byte, little
/// endian, high bit = continuation).
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// A panic-free cursor over a [`Frame`].
///
/// Length-prefixed sub-frames read via [`Reader::read_frame`] share the
/// underlying allocation — the zero-copy path.
#[derive(Debug)]
pub struct Reader<'a> {
    frame: &'a Frame,
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Starts reading at the beginning of `frame`.
    pub fn new(frame: &'a Frame) -> Reader<'a> {
        Reader { frame, pos: 0 }
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.frame.len() - self.pos
    }

    /// Reads one raw byte.
    pub fn read_u8(&mut self) -> Result<u8, WireError> {
        let b = *self
            .frame
            .bytes()
            .get(self.pos)
            .ok_or(WireError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    /// Reads an LEB128 varint.
    pub fn read_varint(&mut self) -> Result<u64, WireError> {
        let mut v: u64 = 0;
        for shift in 0..10 {
            let byte = self.read_u8()?;
            let bits = u64::from(byte & 0x7f);
            // The 10th byte may only contribute the single remaining bit.
            if shift == 9 && bits > 1 {
                return Err(WireError::VarintOverflow);
            }
            v |= bits << (shift * 7);
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(WireError::VarintOverflow)
    }

    /// Reads `n` raw bytes.
    pub fn read_bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::BadLength)?;
        let bytes = self
            .frame
            .bytes()
            .get(self.pos..end)
            .ok_or(WireError::Truncated)?;
        self.pos = end;
        Ok(bytes)
    }

    /// Reads a length-prefixed sub-frame **sharing** the underlying
    /// allocation (no copy).
    pub fn read_frame(&mut self) -> Result<Frame, WireError> {
        let len = usize::try_from(self.read_varint()?).map_err(|_| WireError::BadLength)?;
        let end = self.pos.checked_add(len).ok_or(WireError::BadLength)?;
        let sub = self
            .frame
            .subrange(self.pos, end)
            .ok_or(WireError::BadLength)?;
        self.pos = end;
        Ok(sub)
    }

    /// Runs `read` and returns its result together with the bytes it
    /// consumed, as a sub-frame **sharing** the underlying allocation: how
    /// a decoder keeps a validated structure as bytes instead of building
    /// it.
    pub fn read_span<T>(
        &mut self,
        read: impl FnOnce(&mut Self) -> Result<T, WireError>,
    ) -> Result<(T, Frame), WireError> {
        let start = self.pos;
        let value = read(self)?;
        let span = self
            .frame
            .subrange(start, self.pos)
            .ok_or(WireError::BadLength)?;
        Ok((value, span))
    }

    /// Asserts the frame was fully consumed.
    pub fn finish(self) -> Result<(), WireError> {
        match self.remaining() {
            0 => Ok(()),
            remaining => Err(WireError::TrailingBytes { remaining }),
        }
    }
}

/// A value with a canonical binary encoding.
pub trait Encode {
    /// Appends the encoding of `self` to `out`.
    fn encode_into(&self, out: &mut Vec<u8>);
}

/// A value decodable from its canonical binary encoding.
pub trait Decode: Sized {
    /// Reads one value from `r`.
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError>;
}

// --- primitives -----------------------------------------------------------

impl Encode for u64 {
    fn encode_into(&self, out: &mut Vec<u8>) {
        put_varint(out, *self);
    }
}

impl Decode for u64 {
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.read_varint()
    }
}

impl Encode for u32 {
    fn encode_into(&self, out: &mut Vec<u8>) {
        put_varint(out, u64::from(*self));
    }
}

impl Decode for u32 {
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        u32::try_from(r.read_varint()?).map_err(|_| WireError::BadTag {
            what: "u32",
            tag: u64::MAX,
        })
    }
}

impl Encode for u8 {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }
}

impl Decode for u8 {
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.read_u8()
    }
}

impl Encode for bool {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
}

impl Decode for bool {
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.read_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(WireError::BadTag {
                what: "bool",
                tag: u64::from(tag),
            }),
        }
    }
}

impl Encode for Frame {
    fn encode_into(&self, out: &mut Vec<u8>) {
        put_varint(out, self.len() as u64);
        out.extend_from_slice(self.bytes());
    }
}

impl Decode for Frame {
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.read_frame()
    }
}

// --- combinators ----------------------------------------------------------

impl<T: Encode> Encode for Vec<T> {
    fn encode_into(&self, out: &mut Vec<u8>) {
        put_varint(out, self.len() as u64);
        for item in self {
            item.encode_into(out);
        }
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let len = usize::try_from(r.read_varint()?).map_err(|_| WireError::BadLength)?;
        // Guard against absurd length prefixes before reserving: every
        // element takes at least one byte.
        if len > r.remaining() {
            return Err(WireError::BadLength);
        }
        let mut v = Vec::with_capacity(len);
        for _ in 0..len {
            v.push(T::decode_from(r)?);
        }
        Ok(v)
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode_into(out);
            }
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.read_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode_from(r)?)),
            tag => Err(WireError::BadTag {
                what: "option",
                tag: u64::from(tag),
            }),
        }
    }
}

impl<A: Encode, B: Encode> Encode for (A, B) {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.0.encode_into(out);
        self.1.encode_into(out);
    }
}

impl<A: Decode, B: Decode> Decode for (A, B) {
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok((A::decode_from(r)?, B::decode_from(r)?))
    }
}

impl<A: Encode, B: Encode, C: Encode> Encode for (A, B, C) {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.0.encode_into(out);
        self.1.encode_into(out);
        self.2.encode_into(out);
    }
}

impl<A: Decode, B: Decode, C: Decode> Decode for (A, B, C) {
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok((A::decode_from(r)?, B::decode_from(r)?, C::decode_from(r)?))
    }
}

impl<K: Encode + Ord, V: Encode> Encode for BTreeMap<K, V> {
    fn encode_into(&self, out: &mut Vec<u8>) {
        put_varint(out, self.len() as u64);
        for (k, v) in self {
            k.encode_into(out);
            v.encode_into(out);
        }
    }
}

impl<K: Decode + Ord, V: Decode> Decode for BTreeMap<K, V> {
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let len = usize::try_from(r.read_varint()?).map_err(|_| WireError::BadLength)?;
        if len > r.remaining() {
            return Err(WireError::BadLength);
        }
        let mut m = BTreeMap::new();
        for _ in 0..len {
            let k = K::decode_from(r)?;
            let v = V::decode_from(r)?;
            m.insert(k, v);
        }
        Ok(m)
    }
}

impl<T: Encode + Ord> Encode for BTreeSet<T> {
    fn encode_into(&self, out: &mut Vec<u8>) {
        put_varint(out, self.len() as u64);
        for item in self {
            item.encode_into(out);
        }
    }
}

impl<T: Decode + Ord> Decode for BTreeSet<T> {
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let len = usize::try_from(r.read_varint()?).map_err(|_| WireError::BadLength)?;
        if len > r.remaining() {
            return Err(WireError::BadLength);
        }
        let mut s = BTreeSet::new();
        for _ in 0..len {
            s.insert(T::decode_from(r)?);
        }
        Ok(s)
    }
}

// --- frame-level helpers --------------------------------------------------

std::thread_local! {
    /// Reusable encode buffer: frames are built here and then copied once,
    /// exactly sized, into their shared allocation. Steady-state encoding
    /// therefore costs one allocation per frame regardless of how many
    /// growth steps the build would have taken.
    static ENCODE_SCRATCH: std::cell::RefCell<Vec<u8>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Encodes `msg` as a complete frame of the given [`crate::family`]:
/// `family-tag:varint body`.
pub fn encode_frame(family: u64, msg: &impl Encode) -> Frame {
    ENCODE_SCRATCH.with(|scratch| match scratch.try_borrow_mut() {
        Ok(mut out) => {
            out.clear();
            put_varint(&mut out, family);
            msg.encode_into(&mut out);
            Frame::copy_from_slice(&out)
        }
        // Re-entrant encode (an `encode_into` that itself frames a
        // message): fall back to a fresh buffer rather than panicking.
        Err(_) => {
            let mut out = Vec::with_capacity(16);
            put_varint(&mut out, family);
            msg.encode_into(&mut out);
            Frame::from_vec(out)
        }
    })
}

/// The family tag of a frame, if it starts with a well-formed varint.
/// The demux chains peek this to route frames without decoding them.
pub fn peek_family(frame: &Frame) -> Option<u64> {
    Reader::new(frame).read_varint().ok()
}

/// Decodes a complete frame of the given family: checks the tag, decodes
/// the body, and rejects trailing bytes.
pub fn decode_frame<T: Decode>(family: u64, frame: &Frame) -> Result<T, WireError> {
    let mut r = Reader::new(frame);
    let tag = r.read_varint()?;
    if tag != family {
        return Err(WireError::BadTag {
            what: "family",
            tag,
        });
    }
    let msg = T::decode_from(&mut r)?;
    r.finish()?;
    Ok(msg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Encode + Decode + PartialEq + std::fmt::Debug>(v: T) {
        let mut out = Vec::new();
        v.encode_into(&mut out);
        let f = Frame::from_vec(out);
        let mut r = Reader::new(&f);
        let got = T::decode_from(&mut r).expect("decodes");
        r.finish().expect("fully consumed");
        assert_eq!(got, v);
    }

    #[test]
    fn varint_boundaries_roundtrip() {
        for v in [
            0u64,
            1,
            127,
            128,
            300,
            16383,
            16384,
            u32::MAX as u64,
            u64::MAX,
        ] {
            roundtrip(v);
        }
    }

    #[test]
    fn varint_overflow_rejected() {
        // 11 continuation bytes can never terminate within the limit.
        let f = Frame::from_vec(vec![0xff; 11]);
        assert_eq!(
            Reader::new(&f).read_varint(),
            Err(WireError::VarintOverflow)
        );
        // A 10-byte varint whose last byte carries more than bit 63.
        let mut bytes = vec![0xff; 9];
        bytes.push(0x02);
        let f = Frame::from_vec(bytes);
        assert_eq!(
            Reader::new(&f).read_varint(),
            Err(WireError::VarintOverflow)
        );
    }

    #[test]
    fn containers_roundtrip() {
        roundtrip(vec![1u64, 2, 3]);
        roundtrip(Option::<u64>::None);
        roundtrip(Some(7u64));
        roundtrip((4u32, true));
        roundtrip((1u64, 2u64, Frame::from_u64(9)));
        roundtrip(BTreeMap::from([(1u32, 10u64), (2, 20)]));
        roundtrip(BTreeSet::from([3u64, 1, 2]));
    }

    #[test]
    fn nested_frame_is_zero_copy() {
        let inner = Frame::from_vec(vec![9; 100]);
        let mut out = Vec::new();
        inner.encode_into(&mut out);
        let outer = Frame::from_vec(out);
        let mut r = Reader::new(&outer);
        let got = r.read_frame().expect("in range");
        assert_eq!(got, inner);
        // The decoded frame views the *outer* allocation.
        let outer_ptr = outer.bytes().as_ptr() as usize;
        let got_ptr = got.bytes().as_ptr() as usize;
        assert!(got_ptr > outer_ptr && got_ptr < outer_ptr + outer.len());
    }

    #[test]
    fn read_span_returns_the_consumed_bytes_zero_copy() {
        let f = Frame::from_vec(vec![7, 0xac, 0x02, 9]);
        let mut r = Reader::new(&f);
        r.read_u8().expect("one byte");
        let (v, span) = r.read_span(Reader::read_varint).expect("varint");
        assert_eq!((v, &span[..]), (300, &[0xac, 0x02][..]));
        assert!(std::sync::Arc::ptr_eq(span.backing(), f.backing()));
        assert_eq!(r.remaining(), 1);
        assert_eq!(
            r.read_span(|r| r.read_bytes(2)).map(|(_, s)| s),
            Err(WireError::Truncated)
        );
    }

    #[test]
    fn truncation_and_trailing_are_loud() {
        let f = Frame::from_vec(vec![5, 1, 2]); // claims 5 bytes, has 2
        assert_eq!(Reader::new(&f).read_frame(), Err(WireError::BadLength));
        let f = Frame::from_vec(vec![1, 0, 0xaa]);
        let mut r = Reader::new(&f);
        let _ = r.read_frame().expect("one byte available");
        assert_eq!(r.finish(), Err(WireError::TrailingBytes { remaining: 1 }));
        assert_eq!(
            Reader::new(&Frame::empty()).read_u8(),
            Err(WireError::Truncated)
        );
    }

    #[test]
    fn family_frames_check_their_tag() {
        let f = encode_frame(crate::family::VS, &42u64);
        assert_eq!(peek_family(&f), Some(crate::family::VS));
        assert_eq!(decode_frame::<u64>(crate::family::VS, &f), Ok(42));
        assert_eq!(
            decode_frame::<u64>(crate::family::NS, &f),
            Err(WireError::BadTag {
                what: "family",
                tag: crate::family::VS,
            })
        );
    }

    #[test]
    fn bad_bool_and_option_tags_rejected() {
        let f = Frame::from_vec(vec![2]);
        assert!(matches!(
            bool::decode_from(&mut Reader::new(&f)),
            Err(WireError::BadTag { what: "bool", .. })
        ));
        assert!(matches!(
            Option::<u64>::decode_from(&mut Reader::new(&f)),
            Err(WireError::BadTag { what: "option", .. })
        ));
    }

    #[test]
    fn absurd_container_lengths_rejected_before_allocation() {
        let mut bytes = Vec::new();
        put_varint(&mut bytes, u64::MAX);
        let f = Frame::from_vec(bytes);
        assert_eq!(
            Vec::<u64>::decode_from(&mut Reader::new(&f)),
            Err(WireError::BadLength)
        );
        assert_eq!(
            BTreeMap::<u32, u64>::decode_from(&mut Reader::new(&f)),
            Err(WireError::BadLength)
        );
    }
}
