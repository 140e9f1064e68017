//! The wire codec of the mapping database.
//!
//! A child of `db` rather than part of `wire.rs` because the entry fields
//! are private: the snapshot format is exactly the in-memory structure, so
//! a decoded `Sync` snapshot compares equal (`PartialEq`) to the snapshot
//! that was sent.

use super::{LwgEntry, MappingDb};
use crate::id::LwgId;
use plwg_sim::{Decode, Reader, WireError};
use std::collections::BTreeMap;

plwg_wire::wire_struct!(encode LwgEntry { current, preds, tombstones });
plwg_wire::wire_struct!(encode MappingDb { entries });

// Hand-written on purpose: safety code that re-validates off the wire.
impl Decode for LwgEntry {
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let mut entry = LwgEntry {
            current: Decode::decode_from(r)?,
            preds: Decode::decode_from(r)?,
            tombstones: Decode::decode_from(r)?,
            hash: 0,
        };
        // Re-establish the invariants `set`/`unset`/`merge` maintain, so a
        // corrupt (or merely stale) snapshot cannot resurrect a dissolved
        // view or keep a superseded mapping alive.
        for v in &entry.tombstones {
            entry.current.remove(v);
        }
        entry.gc();
        Ok(entry)
    }
}

// Hand-written on purpose: safety code that rebuilds derived state.
impl Decode for MappingDb {
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let mut entries: BTreeMap<LwgId, LwgEntry> = Decode::decode_from(r)?;
        // The inconsistency index and the hashes are derived state and
        // never travel on the wire; rebuild them from the decoded entries.
        let multi = entries
            .iter()
            .filter(|(_, e)| e.current.len() > 1)
            .map(|(&l, _)| l)
            .collect();
        let root = (entries.iter_mut()).fold(0, |root, (&lwg, e)| root ^ e.rehash(lwg));
        Ok(MappingDb {
            entries,
            multi,
            root,
        })
    }
}
