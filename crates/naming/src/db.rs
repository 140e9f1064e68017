//! The mapping database: view-to-view mappings plus the partial order of
//! views, with reconciliation (merge) and ancestor garbage collection.
//!
//! This is the data structure of paper §5.2: for each LWG it stores the
//! mappings of *specific LWG views* onto *specific HWG views*, so that
//! concurrent views created in different partitions can coexist (Table 3)
//! until the reconciliation procedure collapses them (Table 4).

use crate::id::LwgId;
use plwg_hwg::{HwgId, ViewId};
use plwg_sim::NodeId;
use std::collections::{btree_map, BTreeMap, BTreeSet, VecDeque};

mod codec;
mod digest;

pub use digest::Digest;

/// One view-to-view mapping: an LWG view mapped onto an HWG view.
///
/// The derived ordering gives reconciliation a deterministic tie-break
/// when two replicas hold different refreshes of the same LWG view (see
/// [`MappingDb::merge`]).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Mapping {
    /// The LWG view being mapped.
    pub lwg_view: ViewId,
    /// Members of that LWG view (the targets of MULTIPLE-MAPPINGS
    /// callbacks).
    pub members: Vec<NodeId>,
    /// The HWG the view is mapped onto.
    pub hwg: HwgId,
    /// The specific HWG view backing it.
    pub hwg_view: ViewId,
}

#[derive(Debug, Clone, Default, PartialEq)]
struct LwgEntry {
    /// Non-obsolete mappings, keyed by LWG view id.
    current: BTreeMap<ViewId, Mapping>,
    /// Known predecessor edges of LWG views (the partial order used for
    /// garbage collection).
    preds: BTreeMap<ViewId, Vec<ViewId>>,
    /// Views explicitly dissolved via `unset`. Tombstones win over
    /// presence during gossip merges, otherwise a peer that has not yet
    /// heard of the deletion would resurrect the mapping.
    tombstones: BTreeSet<ViewId>,
    /// This entry's digest (see `digest`), kept current with the fields
    /// above. Derived state: never on the wire.
    hash: u64,
}

impl LwgEntry {
    /// Whether `a` is a strict ancestor of `b` in the view partial order.
    fn is_ancestor(&self, a: ViewId, b: ViewId) -> bool {
        if a == b {
            return false;
        }
        let mut queue: VecDeque<ViewId> = VecDeque::new();
        let mut seen: BTreeSet<ViewId> = BTreeSet::new();
        queue.push_back(b);
        while let Some(v) = queue.pop_front() {
            if let Some(preds) = self.preds.get(&v) {
                for &p in preds {
                    if p == a {
                        return true;
                    }
                    if seen.insert(p) {
                        queue.push_back(p);
                    }
                }
            }
        }
        false
    }

    /// Removes every current mapping whose view is an ancestor of another
    /// current view — it has been superseded — and returns their views.
    /// Tombstoned (dissolved) views supersede their ancestors too: a view
    /// that flowed into a later view is obsolete even if that later view
    /// has since dissolved. (Without this, replicas that saw the
    /// dissolution in different orders would not converge.)
    fn gc(&mut self) -> Vec<ViewId> {
        let views: Vec<ViewId> = self.current.keys().copied().collect();
        let successors: Vec<ViewId> = views
            .iter()
            .chain(self.tombstones.iter())
            .copied()
            .collect();
        let obsolete: Vec<ViewId> = views
            .iter()
            .copied()
            .filter(|&v| successors.iter().any(|&other| self.is_ancestor(v, other)))
            .collect();
        for v in &obsolete {
            self.current.remove(v);
        }
        obsolete
    }
}

/// The naming database of one server (or a merged snapshot).
///
/// ```
/// use plwg_naming::{LwgId, Mapping, MappingDb};
/// use plwg_hwg::{HwgId, ViewId};
/// use plwg_sim::NodeId;
///
/// let mut db = MappingDb::new();
/// let v1 = ViewId::new(NodeId(0), 1);
/// db.set(LwgId(7), Mapping {
///     lwg_view: v1,
///     members: vec![NodeId(0)],
///     hwg: HwgId(1),
///     hwg_view: v1,
/// }, &[]);
/// // A successor view supersedes (and garbage-collects) its ancestor.
/// let v2 = ViewId::new(NodeId(0), 2);
/// db.set(LwgId(7), Mapping {
///     lwg_view: v2,
///     members: vec![NodeId(0), NodeId(1)],
///     hwg: HwgId(1),
///     hwg_view: v2,
/// }, &[v1]);
/// assert_eq!(db.read(LwgId(7)).len(), 1);
/// assert_eq!(db.read(LwgId(7))[0].lwg_view, v2);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MappingDb {
    entries: BTreeMap<LwgId, LwgEntry>,
    /// LWGs whose entry currently holds more than one concurrent mapping,
    /// maintained incrementally by every mutation, so `inconsistent()` and
    /// `is_inconsistent()` never scan the entries. Not serialised: the
    /// codec rebuilds it on decode.
    multi: BTreeSet<LwgId>,
    /// The XOR of every entry's hash, maintained and rebuilt with them.
    root: u64,
}

impl MappingDb {
    /// Creates an empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or overwrites) the mapping of `mapping.lwg_view` and
    /// records that view's `predecessors`, then garbage-collects mappings
    /// of views that became ancestors of a mapped view.
    ///
    /// Overwriting the same LWG view (e.g. with a fresh HWG view after the
    /// HWG merged) is the paper's Table 4 stage 2.
    pub fn set(&mut self, lwg: LwgId, mapping: Mapping, predecessors: &[ViewId]) {
        let entry = self.entries.entry(lwg).or_default();
        // The lineage information is recorded unconditionally — even for a
        // dissolved view it is true, and the garbage collector needs it.
        let e = entry.preds.entry(mapping.lwg_view).or_default();
        e.extend(predecessors.iter().copied());
        e.sort_unstable();
        e.dedup();
        if !entry.tombstones.contains(&mapping.lwg_view) {
            entry.current.insert(mapping.lwg_view, mapping);
        }
        entry.gc();
        self.resync(lwg);
    }

    /// Re-derives `lwg`'s membership in the inconsistency index, its hash
    /// and the root after its (existing) entry was mutated.
    fn resync(&mut self, lwg: LwgId) {
        let Some(entry) = self.entries.get_mut(&lwg) else {
            return;
        };
        if entry.current.len() > 1 {
            self.multi.insert(lwg);
        } else {
            self.multi.remove(&lwg);
        }
        self.root ^= entry.rehash(lwg);
    }

    /// The current (non-obsolete) mappings for `lwg`, in view-id order.
    pub fn read(&self, lwg: LwgId) -> Vec<Mapping> {
        self.entries
            .get(&lwg)
            .map(|e| e.current.values().cloned().collect())
            .unwrap_or_default()
    }

    /// Test-and-set (paper Table 2): if any current mapping exists, returns
    /// it unchanged; otherwise installs `mapping` and returns it.
    pub fn testset(
        &mut self,
        lwg: LwgId,
        mapping: Mapping,
        predecessors: &[ViewId],
    ) -> Vec<Mapping> {
        let existing = self.read(lwg);
        if existing.is_empty() {
            self.set(lwg, mapping, predecessors);
            self.read(lwg)
        } else {
            existing
        }
    }

    /// Removes the mapping of a specific LWG view (the group view
    /// dissolved without a successor — e.g. every member left).
    pub fn unset(&mut self, lwg: LwgId, lwg_view: ViewId) {
        let entry = self.entries.entry(lwg).or_default();
        entry.current.remove(&lwg_view);
        entry.tombstones.insert(lwg_view);
        self.resync(lwg);
    }

    /// Merges `other` into `self` (set-union of mappings and of the view
    /// order, then GC) — the reconciliation procedure run when name servers
    /// meet after a partition heals. Returns the ids of LWGs whose entry
    /// changed.
    ///
    /// A change is noticed where it is made, without a copy of the entry to
    /// compare against: a new lineage edge or tombstone, a mapping removed,
    /// replaced or added. Only an added mapping can be undone within the
    /// merge, by the garbage collection, and then it is no change.
    pub fn merge(&mut self, other: &MappingDb) -> Vec<LwgId> {
        let mut changed = Vec::new();
        for (&lwg, oe) in &other.entries {
            let entry = self.entries.entry(lwg).or_default();
            let mut touched = false;
            for (&v, preds) in &oe.preds {
                match entry.preds.entry(v) {
                    btree_map::Entry::Vacant(slot) => {
                        let mut e = preds.clone();
                        e.sort_unstable();
                        e.dedup();
                        slot.insert(e);
                        touched = true;
                    }
                    btree_map::Entry::Occupied(mut slot) => {
                        let e = slot.get_mut();
                        let known = e.len();
                        e.extend(preds.iter().copied());
                        e.sort_unstable();
                        e.dedup();
                        touched |= e.len() != known;
                    }
                }
            }
            for v in &oe.tombstones {
                touched |= entry.tombstones.insert(*v);
                touched |= entry.current.remove(v).is_some();
            }
            // Views this merge added to `current`.
            let mut added: Vec<ViewId> = Vec::new();
            for (&v, m) in &oe.current {
                if entry.tombstones.contains(&v) {
                    continue;
                }
                // Same LWG view known on both sides, possibly with
                // different refreshes (e.g. the HWG view advanced on one
                // side): keep the greater one — any total order makes the
                // replicas converge, and a live coordinator re-refreshes
                // the mapping anyway.
                match entry.current.entry(v) {
                    btree_map::Entry::Occupied(slot) if slot.get() >= m => {}
                    btree_map::Entry::Occupied(mut slot) => {
                        slot.insert(m.clone());
                        touched = true;
                    }
                    btree_map::Entry::Vacant(slot) => {
                        slot.insert(m.clone());
                        added.push(v);
                    }
                }
            }
            // Every entry is left garbage-collected, so retiring a mapping
            // that was there before takes a lineage edge, tombstone or
            // mapping this merge brought in, and that is already counted.
            let collected = entry.gc();
            added.retain(|v| !collected.contains(v));
            if touched || !added.is_empty() {
                changed.push(lwg);
            }
            self.resync(lwg);
        }
        changed
    }

    /// LWGs that currently have more than one concurrent mapping — the
    /// condition that triggers MULTIPLE-MAPPINGS callbacks (paper §6.1).
    /// Served from the maintained index, in the same ascending id order
    /// the historical full scan produced.
    pub fn inconsistent(&self) -> Vec<LwgId> {
        self.multi.iter().copied().collect()
    }

    /// Whether `lwg` currently has more than one concurrent mapping.
    pub fn is_inconsistent(&self, lwg: LwgId) -> bool {
        self.multi.contains(&lwg)
    }

    /// All LWGs with at least one current mapping.
    pub fn lwgs(&self) -> Vec<LwgId> {
        self.entries
            .iter()
            .filter(|(_, e)| !e.current.is_empty())
            .map(|(&l, _)| l)
            .collect()
    }

    /// Number of current mappings across all LWGs.
    pub fn len(&self) -> usize {
        self.entries.values().map(|e| e.current.len()).sum()
    }

    /// Whether no mapping is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Compacts bookkeeping state: drops lineage edges of views that are
    /// not reachable (walking predecessors) from any current or tombstoned
    /// view, and entries with neither mappings nor tombstones. Safe to run
    /// at any time — the reachable part of the partial order, which is all
    /// the garbage collector ever consults, is preserved.
    ///
    /// Returns the number of edges entries removed.
    pub fn compact(&mut self) -> usize {
        let mut removed = 0;
        let root = &mut self.root;
        self.entries.retain(|&lwg, entry| {
            // Reachable = current ∪ tombstones, closed under predecessors.
            let mut reachable: BTreeSet<ViewId> = entry
                .current
                .keys()
                .chain(entry.tombstones.iter())
                .copied()
                .collect();
            let mut frontier: Vec<ViewId> = reachable.iter().copied().collect();
            while let Some(v) = frontier.pop() {
                if let Some(preds) = entry.preds.get(&v) {
                    for &p in preds {
                        if reachable.insert(p) {
                            frontier.push(p);
                        }
                    }
                }
            }
            let before = entry.preds.len();
            entry.preds.retain(|v, _| reachable.contains(v));
            removed += before - entry.preds.len();
            let keep = !entry.current.is_empty() || !entry.tombstones.is_empty();
            if !keep {
                *root ^= entry.hash;
            } else if entry.preds.len() != before {
                *root ^= entry.rehash(lwg);
            }
            keep
        });
        removed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plwg_sim::{Decode, Encode, Reader};

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }
    fn vid(c: u32, s: u64) -> ViewId {
        ViewId::new(n(c), s)
    }
    fn map(lv: ViewId, hwg: u64, hv: ViewId, members: &[u32]) -> Mapping {
        Mapping {
            lwg_view: lv,
            members: members.iter().map(|&i| n(i)).collect(),
            hwg: HwgId(hwg),
            hwg_view: hv,
        }
    }

    const A: LwgId = LwgId(1);
    const B: LwgId = LwgId(2);

    #[test]
    fn set_read_roundtrip() {
        let mut db = MappingDb::new();
        let m = map(vid(0, 1), 10, vid(0, 5), &[0, 1]);
        db.set(A, m.clone(), &[]);
        assert_eq!(db.read(A), vec![m]);
        assert!(db.read(B).is_empty());
        assert_eq!(db.len(), 1);
    }

    #[test]
    fn overwrite_same_view_updates_hwg_view() {
        let mut db = MappingDb::new();
        db.set(A, map(vid(0, 1), 10, vid(0, 5), &[0, 1]), &[]);
        // HWG view advanced (e.g. the HWG merged); same LWG view re-set.
        db.set(A, map(vid(0, 1), 10, vid(0, 6), &[0, 1]), &[]);
        let got = db.read(A);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].hwg_view, vid(0, 6));
    }

    #[test]
    fn testset_keeps_existing() {
        let mut db = MappingDb::new();
        let first = map(vid(0, 1), 10, vid(0, 5), &[0]);
        assert_eq!(db.testset(A, first.clone(), &[]), vec![first.clone()]);
        let second = map(vid(1, 1), 20, vid(1, 5), &[1]);
        // The existing mapping wins; the candidate is discarded.
        assert_eq!(db.testset(A, second, &[]), vec![first]);
        assert_eq!(db.len(), 1);
    }

    #[test]
    fn successor_view_garbage_collects_ancestor() {
        let mut db = MappingDb::new();
        db.set(A, map(vid(0, 1), 10, vid(0, 5), &[0, 1]), &[]);
        // A successor view (predecessor = vid(0,1)) replaces it.
        db.set(A, map(vid(0, 2), 10, vid(0, 6), &[0, 1, 2]), &[vid(0, 1)]);
        let got = db.read(A);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].lwg_view, vid(0, 2));
    }

    #[test]
    fn transitive_ancestors_are_collected() {
        let mut db = MappingDb::new();
        db.set(A, map(vid(0, 1), 10, vid(0, 5), &[0]), &[]);
        db.set(A, map(vid(0, 2), 10, vid(0, 6), &[0]), &[vid(0, 1)]);
        db.set(A, map(vid(0, 3), 10, vid(0, 7), &[0]), &[vid(0, 2)]);
        let got = db.read(A);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].lwg_view, vid(0, 3));
    }

    #[test]
    fn concurrent_views_coexist() {
        let mut db = MappingDb::new();
        let root = vid(0, 1);
        db.set(A, map(root, 10, vid(0, 5), &[0, 1, 2, 3]), &[]);
        // Two concurrent successors (formed in different partitions).
        db.set(A, map(vid(0, 2), 10, vid(0, 6), &[0, 1]), &[root]);
        db.set(A, map(vid(2, 1), 20, vid(2, 1), &[2, 3]), &[root]);
        let got = db.read(A);
        assert_eq!(got.len(), 2, "concurrent mappings must coexist");
        assert_eq!(db.inconsistent(), vec![A]);
    }

    /// Paper Table 3: the merged naming service holds both partitions'
    /// mappings for both LWGs.
    #[test]
    fn table3_reconciliation_keeps_both_sides() {
        // Partition p: lwg_a -> hwg1, lwg_b -> hwg2.
        let mut p = MappingDb::new();
        p.set(A, map(vid(0, 1), 1, vid(0, 1), &[0, 1]), &[]);
        p.set(B, map(vid(1, 1), 2, vid(1, 1), &[0, 1]), &[]);
        // Partition p': lwg'_a -> hwg'2, lwg'_b -> hwg'1.
        let mut q = MappingDb::new();
        q.set(A, map(vid(2, 1), 2, vid(2, 1), &[2, 3]), &[]);
        q.set(B, map(vid(3, 1), 1, vid(3, 1), &[2, 3]), &[]);

        let changed = p.merge(&q);
        assert_eq!(changed, vec![A, B]);
        assert_eq!(p.read(A).len(), 2);
        assert_eq!(p.read(B).len(), 2);
        let mut inc = p.inconsistent();
        inc.sort_unstable();
        assert_eq!(inc, vec![A, B]);
    }

    /// Paper Table 4 stage 4: once the merged LWG view is registered with
    /// both concurrent views as predecessors, the old mappings vanish.
    #[test]
    fn table4_merged_view_collapses_concurrents() {
        let mut db = MappingDb::new();
        let va = vid(0, 2);
        let vb = vid(2, 1);
        db.set(A, map(va, 1, vid(0, 6), &[0, 1]), &[]);
        db.set(A, map(vb, 2, vid(2, 1), &[2, 3]), &[]);
        assert_eq!(db.inconsistent(), vec![A]);
        // Merged view lwg''_a succeeds both.
        db.set(A, map(vid(0, 3), 1, vid(0, 7), &[0, 1, 2, 3]), &[va, vb]);
        let got = db.read(A);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].lwg_view, vid(0, 3));
        assert!(db.inconsistent().is_empty());
    }

    #[test]
    fn merge_is_idempotent_and_commutative_on_content() {
        let mut a = MappingDb::new();
        a.set(A, map(vid(0, 1), 1, vid(0, 1), &[0]), &[]);
        let mut b = MappingDb::new();
        b.set(A, map(vid(1, 1), 2, vid(1, 1), &[1]), &[]);
        b.set(B, map(vid(1, 2), 3, vid(1, 2), &[1]), &[]);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ab2 = ab.clone();
        let changed = ab2.merge(&b);
        assert!(changed.is_empty(), "re-merge changes nothing");
        assert_eq!(ab, ab2);

        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba, "merge order does not matter");
    }

    #[test]
    fn merge_applies_gc_across_sides() {
        // Side A knows the old mapping; side B knows its successor.
        let mut a = MappingDb::new();
        a.set(A, map(vid(0, 1), 1, vid(0, 1), &[0]), &[]);
        let mut b = MappingDb::new();
        b.set(A, map(vid(0, 2), 1, vid(0, 2), &[0, 1]), &[vid(0, 1)]);
        a.merge(&b);
        let got = a.read(A);
        assert_eq!(got.len(), 1, "ancestor must be GC'd during reconcile");
        assert_eq!(got[0].lwg_view, vid(0, 2));
    }

    /// The reference merge: clone each entry, merge into it, and compare.
    fn merge_by_comparison(db: &mut MappingDb, other: &MappingDb) -> Vec<LwgId> {
        let mut changed = Vec::new();
        for (&lwg, oe) in &other.entries {
            let entry = db.entries.entry(lwg).or_default();
            let before = entry.clone();
            for (&v, preds) in &oe.preds {
                let e = entry.preds.entry(v).or_default();
                e.extend(preds.iter().copied());
                e.sort_unstable();
                e.dedup();
            }
            for v in &oe.tombstones {
                entry.tombstones.insert(*v);
                entry.current.remove(v);
            }
            for (&v, m) in &oe.current {
                if entry.tombstones.contains(&v) {
                    continue;
                }
                match entry.current.get(&v) {
                    Some(existing) if existing >= m => {}
                    _ => {
                        entry.current.insert(v, m.clone());
                    }
                }
            }
            entry.gc();
            if *entry != before {
                changed.push(lwg);
            }
            db.resync(lwg);
        }
        changed
    }

    /// On replicas grown by random sets, unsets and merges, `merge` reports
    /// the same changed LWGs as cloning each entry and comparing, and
    /// leaves the same database.
    #[test]
    fn merge_reports_exactly_the_entries_it_changed() {
        // A replica that already knows a successor is unchanged by a
        // mapping of its ancestor: the mapping is added, then collected.
        let mut a = MappingDb::new();
        a.set(A, map(vid(0, 1), 1, vid(0, 1), &[0]), &[]);
        a.set(A, map(vid(0, 2), 1, vid(0, 2), &[0, 1]), &[vid(0, 1)]);
        let mut b = MappingDb::new();
        b.set(A, map(vid(0, 1), 1, vid(0, 1), &[0]), &[]);
        assert_eq!(a.merge(&b), Vec::<LwgId>::new());

        let mut rng = plwg_sim::SimRng::from_seed(3);
        let mut replicas = vec![MappingDb::new(); 4];
        let (mut merges, mut changed) = (0, 0);
        for step in 0..3_000 {
            let i = rng.range(0, 4) as usize;
            let lwg = LwgId(rng.range(1, 4));
            let v = vid(rng.range(0, 3) as u32, rng.range(1, 8));
            match rng.range(0, 10) {
                0 => replicas[i].unset(lwg, v),
                1..=5 => {
                    let preds: Vec<ViewId> = (0..rng.range(0, 3))
                        .map(|_| vid(rng.range(0, 3) as u32, rng.range(1, 8)))
                        .collect();
                    let hv = vid(0, rng.range(1, 4));
                    replicas[i].set(lwg, map(v, rng.range(1, 3), hv, &[0]), &preds);
                }
                _ => {
                    let j = rng.range(0, 4) as usize;
                    let other = replicas[j].clone();
                    let mut reference = replicas[i].clone();
                    let want = merge_by_comparison(&mut reference, &other);
                    let got = replicas[i].merge(&other);
                    assert_eq!(got, want, "step {step}");
                    assert_eq!(replicas[i], reference, "step {step}");
                    merges += 1;
                    changed += usize::from(!got.is_empty());
                }
            }
        }
        assert!(
            changed > 100 && merges - changed > 100,
            "{changed} of {merges}"
        );
    }

    #[test]
    fn unset_removes_dissolved_view() {
        let mut db = MappingDb::new();
        db.set(A, map(vid(0, 1), 1, vid(0, 1), &[0]), &[]);
        db.unset(A, vid(0, 1));
        assert!(db.read(A).is_empty());
        assert!(db.is_empty());
        assert!(db.lwgs().is_empty());
    }

    /// The maintained inconsistency index must agree with a full entry
    /// scan after every kind of mutation — including a wire round-trip,
    /// where the index is rebuilt rather than transmitted.
    #[test]
    fn inconsistency_index_tracks_every_mutation() {
        let scan = |db: &MappingDb| -> Vec<LwgId> {
            db.lwgs()
                .into_iter()
                .filter(|&l| db.read(l).len() > 1)
                .collect()
        };
        let mut db = MappingDb::new();
        let root = vid(0, 1);
        db.set(A, map(root, 1, vid(0, 1), &[0]), &[]);
        assert_eq!(db.inconsistent(), scan(&db));
        // Concurrent successor: A becomes inconsistent.
        db.set(A, map(vid(2, 1), 2, vid(2, 1), &[2]), &[root]);
        db.set(A, map(vid(0, 2), 1, vid(0, 2), &[0]), &[root]);
        assert_eq!(db.inconsistent(), scan(&db));
        // Merge brings a second inconsistent group in.
        let mut other = MappingDb::new();
        other.set(B, map(vid(1, 1), 3, vid(1, 1), &[1]), &[]);
        other.set(B, map(vid(3, 1), 4, vid(3, 1), &[3]), &[]);
        db.merge(&other);
        assert_eq!(db.inconsistent(), scan(&db));
        assert_eq!(db.inconsistent(), vec![A, B]);
        // Dissolving one of A's concurrent views resolves A.
        db.unset(A, vid(2, 1));
        assert_eq!(db.inconsistent(), scan(&db));
        assert_eq!(db.inconsistent(), vec![B]);
        // A decoded snapshot rebuilds the same index.
        let mut out = Vec::new();
        db.encode_into(&mut out);
        let frame = plwg_sim::Frame::from_vec(out);
        let back = MappingDb::decode_from(&mut Reader::new(&frame)).expect("roundtrip");
        assert_eq!(back.inconsistent(), db.inconsistent());
    }
}
