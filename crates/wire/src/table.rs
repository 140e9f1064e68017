//! The codec derivation: one table per message type, expanded in the calling
//! crate to the straight-line `impl Encode` + `impl Decode` it stands for.

/// Derives [`Encode`](crate::Encode) + [`Decode`](crate::Decode) for an
/// enum from its tag table: `tag => Variant { fields }` per line, a unit
/// variant without braces. The left column *is* the wire format — one raw
/// tag byte, then the fields in table order — so it is append-only: never
/// renumber or reuse a tag. An unknown tag is `BadTag { what: "<Type>", .. }`.
///
/// ```
/// # use plwg_wire::{wire_enum, wire_struct, Decode, Frame, Reader};
/// struct Key(u64);
/// enum Toy { Ping, Put { key: Key, val: Frame } }
/// wire_struct!(Key { 0 });
/// wire_enum!(Toy { 0 => Ping, 1 => Put { key, val } });
/// let ping = Frame::from_vec(vec![0]);
/// assert!(matches!(Toy::decode_from(&mut Reader::new(&ping)), Ok(Toy::Ping)));
/// ```
///
/// Tags are checked at compile time: a duplicate, or one that a single
/// byte could not also carry as a varint (≥ 0x80), does not build.
///
/// ```compile_fail
/// enum Toy { A, B }
/// plwg_wire::wire_enum!(Toy { 0 => A, 0 => B });
/// ```
///
/// ```compile_fail
/// enum Toy { A, B }
/// plwg_wire::wire_enum!(Toy { 0 => A, 0x80 => B });
/// ```
#[macro_export]
macro_rules! wire_enum {
    ($ty:ident { $($tag:literal => $variant:ident $({ $($field:ident),* $(,)? })?),+ $(,)? }) => {
        const _: () = $crate::assert_tags(&[$($tag),+]);
        impl $crate::Encode for $ty {
            fn encode_into(&self, out: &mut Vec<u8>) {
                match self {
                    $($ty::$variant $({ $($field),* })? => {
                        out.push($tag);
                        $($($crate::Encode::encode_into($field, out);)*)?
                    })+
                }
            }
        }
        impl $crate::Decode for $ty {
            fn decode_from(r: &mut $crate::Reader<'_>) -> Result<Self, $crate::WireError> {
                match r.read_u8()? {
                    $($tag => Ok($ty::$variant $({
                        $($field: $crate::Decode::decode_from(r)?),*
                    })?),)+
                    tag => Err($crate::WireError::BadTag {
                        what: stringify!($ty),
                        tag: u64::from(tag),
                    }),
                }
            }
        }
    };
}

/// Derives [`Encode`](crate::Encode) + [`Decode`](crate::Decode) for a
/// struct: the listed fields in order, nothing else on the wire. A newtype
/// names its field `0`. The `encode` form derives the encoder alone, for
/// the few types whose decoder re-validates invariants by hand.
#[macro_export]
macro_rules! wire_struct {
    (encode $ty:ident { $($field:tt),+ $(,)? }) => {
        impl $crate::Encode for $ty {
            fn encode_into(&self, out: &mut Vec<u8>) {
                $($crate::Encode::encode_into(&self.$field, out);)+
            }
        }
    };
    ($ty:ident { $($field:tt),+ $(,)? }) => {
        $crate::wire_struct!(encode $ty { $($field),+ });
        impl $crate::Decode for $ty {
            fn decode_from(r: &mut $crate::Reader<'_>) -> Result<Self, $crate::WireError> {
                Ok($ty { $($field: $crate::Decode::decode_from(r)?),+ })
            }
        }
    };
}

/// The compile-time tag check behind [`wire_enum!`](crate::wire_enum):
/// every tag below 0x80 (where the raw byte the codec writes and the
/// `tag:varint` the grammar names are the same byte) and none repeated.
#[doc(hidden)]
pub const fn assert_tags(tags: &[u8]) {
    let (mut seen, mut i) = (0u128, 0);
    while i < tags.len() {
        assert!(tags[i] < 0x80, "wire_enum!: variant tags must be < 0x80");
        assert!(seen >> tags[i] & 1 == 0, "wire_enum!: duplicated tag");
        seen |= 1 << tags[i];
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use crate::{Decode, Encode, Frame, Reader, WireError};

    #[derive(Debug, PartialEq)]
    struct Id(u64);
    #[derive(Debug, PartialEq)]
    struct Stamp {
        node: u32,
        seq: u64,
    }
    #[derive(Debug, PartialEq)]
    enum Toy {
        Ping,
        Put { id: Id, at: Stamp, val: Frame },
        Many { ids: Vec<Id> },
    }
    crate::wire_struct!(Id { 0 });
    crate::wire_struct!(Stamp { node, seq });
    crate::wire_enum!(Toy {
        0 => Ping,
        1 => Put { id, at, val },
        0x7f => Many { ids, },
    });

    fn bytes(v: &impl Encode) -> Vec<u8> {
        let mut out = Vec::new();
        v.encode_into(&mut out);
        out
    }

    fn decode<T: Decode>(bytes: &[u8]) -> Result<T, WireError> {
        let f = Frame::copy_from_slice(bytes);
        let mut r = Reader::new(&f);
        let v = T::decode_from(&mut r)?;
        r.finish()?;
        Ok(v)
    }

    fn put() -> Toy {
        Toy::Put {
            id: Id(300),
            at: Stamp { node: 2, seq: 9 },
            val: Frame::copy_from_slice(b"xy"),
        }
    }

    #[test]
    fn layout_is_tag_then_fields_in_table_order() {
        assert_eq!(bytes(&Toy::Ping), [0]);
        // 300 = ac 02; node 2; seq 9; len 2 "xy".
        assert_eq!(bytes(&put()), [1, 0xac, 0x02, 2, 9, 2, b'x', b'y']);
        assert_eq!(bytes(&Stamp { node: 1, seq: 128 }), [1, 0x80, 0x01]);
    }

    #[test]
    fn every_shape_roundtrips() {
        for v in [
            Toy::Ping,
            put(),
            Toy::Many { ids: vec![] },
            Toy::Many {
                ids: vec![Id(0), Id(u64::MAX)],
            },
        ] {
            assert_eq!(decode::<Toy>(&bytes(&v)), Ok(v));
        }
    }

    #[test]
    fn bad_tag_is_labelled_with_the_type_name() {
        assert_eq!(
            decode::<Toy>(&[2]),
            Err(WireError::BadTag {
                what: "Toy",
                tag: 2
            })
        );
    }

    #[test]
    fn every_truncation_errors() {
        let full = bytes(&put());
        for cut in 0..full.len() {
            assert!(decode::<Toy>(&full[..cut]).is_err(), "cut at {cut}");
        }
        assert_eq!(decode::<Stamp>(&[1]), Err(WireError::Truncated));
    }

    #[test]
    fn encode_only_form_leaves_the_decoder_to_the_caller() {
        struct Checked(u64);
        crate::wire_struct!(encode Checked { 0 });
        assert_eq!(bytes(&Checked(5)), [5]);
    }
}
