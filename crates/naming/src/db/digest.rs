//! The replica digest name servers compare before they ship a snapshot.
//!
//! Each LWG entry hashes to a 64-bit FNV-1a over its `LwgId` followed by
//! the bytes of the entry's wire encoding — exactly the state a snapshot
//! carries — and the replica's root is the XOR of its entry hashes, so a
//! mutation of one entry updates the root in O(that entry). The hash is
//! in-tree and fixed: the digest crosses processes, so it must not depend
//! on a per-process hasher seed.

use super::{LwgEntry, MappingDb};
use crate::id::LwgId;
use plwg_sim::Encode;
use std::cell::RefCell;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

thread_local! {
    /// The encoding buffer every hash reuses, so hashing never allocates
    /// once it has grown to the largest entry.
    static SCRATCH: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// A replica's root digest ([`MappingDb::root`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl LwgEntry {
    /// Recomputes the entry's hash under `lwg` and returns the XOR that
    /// moves a root from the old hash to the new one.
    pub(super) fn rehash(&mut self, lwg: LwgId) -> u64 {
        let hash = entry_hash(lwg, self);
        std::mem::replace(&mut self.hash, hash) ^ hash
    }
}

impl MappingDb {
    /// The replica's digest: the XOR of its entries' hashes, maintained by
    /// every mutation. Replicas that compare equal have equal roots; name
    /// servers compare roots before shipping a snapshot.
    pub fn root(&self) -> Digest {
        Digest(self.root)
    }

    /// The root recomputed from every entry, ignoring the maintained
    /// hashes: what [`MappingDb::root`] always equals.
    pub fn root_from_scratch(&self) -> Digest {
        Digest((self.entries.iter()).fold(0, |root, (&lwg, e)| root ^ entry_hash(lwg, e)))
    }
}

/// The hash of `lwg`'s entry: FNV-1a over the id's encoding followed by
/// the entry's.
fn entry_hash(lwg: LwgId, entry: &LwgEntry) -> u64 {
    SCRATCH.with_borrow_mut(|buf| {
        buf.clear();
        lwg.encode_into(buf);
        entry.encode_into(buf);
        fnv1a(buf)
    })
}

/// The 64-bit FNV-1a hash of `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(FNV_OFFSET, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(FNV_PRIME)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The published FNV-1a 64 test vectors.
    #[test]
    fn matches_the_fnv1a_reference() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
