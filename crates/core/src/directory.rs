//! The sharded group directory: every LWG record this node holds, with
//! maintained secondary indexes instead of table scans.
//!
//! The paper's light-weight-group economy assumes the LWG→HWG mapping
//! state stays cheap as group counts explode (thousands of LWGs over a
//! handful of HWGs). The flat `BTreeMap<LwgId, LwgState>` the service
//! grew up with made every structural question — "is this HWG still in
//! use?", "which joins are due?", "whose views ride this HWG?" — an O(L)
//! pass. The directory replaces those passes with indexes it maintains on
//! every mutation:
//!
//! - **records**, hash-sharded over [`SHARDS`] ordered maps (deterministic
//!   multiplicative hash on the group id — no `HashMap`). Sharding saves
//!   memory: one `BTreeMap` took `sim_heal_128` `peak_heap_mib` 4.378 → 4.596
//!   (seed 1, 5 s) and `BENCH_scale.json` `bytes_per_lwg` 2680 / 2820 / 2648
//!   → 2721 / 2839 / 2649. Node bytes alone give the same deltas: in-order
//!   ids leave each split B-tree leaf half full, and at 128 groups no
//!   shard's 11-slot leaf has split yet;
//! - a **reverse index** from HWG id to the LWGs that reference it (current
//!   mapping, switch target, switch being followed) — `hwg_in_use` and the
//!   view-install scans become index reads;
//! - **phase and watchdog indexes** (per-phase id sets, and the ids with a
//!   flush or switch in flight) — the housekeeping tick visits only
//!   candidates;
//! - **per-HWG load accounts** (mapped-LWG count plus a data-plane traffic
//!   window) — what the placement policy and the rebalancer decide on.
//!
//! Mutable access goes through [`RecordMut`], a guard that snapshots the
//! record's indexed facets and re-syncs every index on drop: protocol code
//! mutates `LwgState` fields exactly as before and cannot forget to update
//! an index. All index sets are ordered, so every query yields ids in the
//! ascending order the old full-table scans produced.

use crate::error::LwgError;
use crate::state::{LwgState, Phase};
use plwg_hwg::HwgId;
use plwg_naming::LwgId;
use plwg_sim::NodeId;
use std::cell::Cell;
use std::collections::{btree_map, BTreeMap, BTreeSet};
use std::ops::{Deref, DerefMut};

/// Record shard count (power of two; shard key = top Fibonacci-hash bits).
const SHARDS: usize = 16;

fn shard_of(lwg: LwgId) -> usize {
    // Fibonacci hashing: deterministic, well-mixed even for dense small ids.
    (lwg.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 60) as usize & (SHARDS - 1)
}

/// The per-phase index slot both joining phases share: the tick visits
/// them together, and a join deadline that moves re-syncs no index.
const JOINING: usize = 1;

fn phase_slot(phase: Phase) -> usize {
    match phase {
        Phase::ReadingNs => 0,
        Phase::JoiningHwg { .. } | Phase::AwaitingAdmission { .. } => JOINING,
        Phase::Member => 2,
        Phase::Leaving => 3,
    }
}

/// The indexed facets of one record — exactly the fields the secondary
/// indexes key on; [`RecordMut`] diffs a before/after pair to re-sync.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Facets {
    phase: usize,
    hwg: Option<HwgId>,
    target: Option<HwgId>,
    watched: bool,
}

impl Facets {
    fn of(state: &LwgState) -> Facets {
        Facets {
            phase: phase_slot(state.phase),
            hwg: state.hwg,
            target: state.followed().map(|f| f.1),
            watched: state.busy(),
        }
    }
}

/// Snapshot of the directory's operation counters (see
/// [`crate::LwgService::directory_counters`]); the `lwg_scale_sweep` bench
/// records these to show lookup cost does not scale with the group count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DirCounters {
    /// Record lookups (get / get-mut / insert / remove / contains).
    pub lookups: u64,
    /// Reverse- and phase-index queries answered.
    pub index_queries: u64,
    /// Index entries visited while materialising query results — the work
    /// a full-table scan used to spend O(L) on.
    pub visited: u64,
}

/// One HWG's load account: mapped local LWGs plus the data-plane
/// multicasts it carried in the current traffic window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HwgLoad {
    /// The heavy-weight group.
    pub hwg: HwgId,
    /// LWGs currently mapped onto it at this node.
    pub lwgs: usize,
    /// Data-plane multicasts sent on it since the window was last reset.
    pub traffic: u64,
}

/// Secondary indexes plus bookkeeping; disjoint from the record shards so
/// [`RecordMut`] can borrow a record and the indexes simultaneously.
#[derive(Debug)]
struct DirIndex {
    me: NodeId,
    /// hwg → LWGs whose *current mapping* (`state.hwg`) is this HWG.
    by_hwg: BTreeMap<HwgId, BTreeSet<LwgId>>,
    /// hwg → LWGs switching to this HWG, or following a switch to it.
    by_target: BTreeMap<HwgId, BTreeSet<LwgId>>,
    /// Per-phase id sets ([`phase_slot`] order).
    by_phase: [BTreeSet<LwgId>; 4],
    /// Records with an LWG flush or a switch in flight.
    watched: BTreeSet<LwgId>,
    /// Data-plane multicasts per HWG in the current traffic window.
    traffic: BTreeMap<HwgId, u64>,
    /// Highest counter observed in an HWG id carrying this node's
    /// allocation prefix — including ids re-learned from naming after a
    /// restart, which is what makes [`GroupDirectory::alloc_hwg_id`]
    /// collision-free.
    hwg_floor: u32,
    len: usize,
    lookups: Cell<u64>,
    index_queries: Cell<u64>,
    visited: Cell<u64>,
}

impl DirIndex {
    /// Records that an HWG id exists: ids carrying our allocation prefix
    /// raise the floor future [`GroupDirectory::alloc_hwg_id`] calls
    /// allocate above.
    fn note_hwg(&mut self, hwg: HwgId) {
        if let Some((node, counter)) = hwg.parts() {
            if node == self.me {
                self.hwg_floor = self.hwg_floor.max(counter);
            }
        }
    }

    fn link(&mut self, lwg: LwgId, f: &Facets) {
        if let Some(h) = f.hwg {
            self.by_hwg.entry(h).or_default().insert(lwg);
            self.note_hwg(h);
        }
        if let Some(h) = f.target {
            self.by_target.entry(h).or_default().insert(lwg);
            self.note_hwg(h);
        }
        self.by_phase[f.phase].insert(lwg);
        if f.watched {
            self.watched.insert(lwg);
        }
    }

    fn unlink(&mut self, lwg: LwgId, f: &Facets) {
        fn detach(map: &mut BTreeMap<HwgId, BTreeSet<LwgId>>, h: HwgId, lwg: LwgId) {
            if let btree_map::Entry::Occupied(mut e) = map.entry(h) {
                e.get_mut().remove(&lwg);
                if e.get().is_empty() {
                    e.remove();
                }
            }
        }
        if let Some(h) = f.hwg {
            detach(&mut self.by_hwg, h, lwg);
            if !self.by_hwg.contains_key(&h) {
                self.traffic.remove(&h);
            }
        }
        if let Some(h) = f.target {
            detach(&mut self.by_target, h, lwg);
        }
        self.by_phase[f.phase].remove(&lwg);
        self.watched.remove(&lwg);
    }

    fn resync(&mut self, lwg: LwgId, before: &Facets, after: &Facets) {
        if before != after {
            self.unlink(lwg, before);
            self.link(lwg, after);
        }
    }

    /// Materialises an index set as a sorted id list, counting the visit.
    fn collect(&self, set: Option<&BTreeSet<LwgId>>) -> Vec<LwgId> {
        self.index_queries.set(self.index_queries.get() + 1);
        let Some(set) = set else { return Vec::new() };
        self.visited.set(self.visited.get() + set.len() as u64);
        set.iter().copied().collect()
    }
}

/// The sharded LWG record store of one [`crate::LwgService`] — see the
/// module docs for the index inventory.
#[derive(Debug)]
pub(crate) struct GroupDirectory {
    shards: Vec<BTreeMap<LwgId, LwgState>>,
    index: DirIndex,
    /// The view and flush counters of each removed group, given back to its
    /// next record: ids of its views and flushes must never repeat.
    departed: BTreeMap<LwgId, (u64, u64)>,
}

impl GroupDirectory {
    pub(crate) fn new(me: NodeId) -> Self {
        GroupDirectory {
            shards: (0..SHARDS).map(|_| BTreeMap::new()).collect(),
            index: DirIndex {
                me,
                by_hwg: BTreeMap::new(),
                by_target: BTreeMap::new(),
                by_phase: Default::default(),
                watched: BTreeSet::new(),
                traffic: BTreeMap::new(),
                hwg_floor: 0,
                len: 0,
                lookups: Cell::new(0),
                index_queries: Cell::new(0),
                visited: Cell::new(0),
            },
            departed: BTreeMap::new(),
        }
    }

    // ------------------------------------------------------------------
    // Record access
    // ------------------------------------------------------------------

    pub(crate) fn len(&self) -> usize {
        self.index.len
    }

    pub(crate) fn contains(&self, lwg: LwgId) -> bool {
        self.get(lwg).is_some()
    }

    pub(crate) fn get(&self, lwg: LwgId) -> Option<&LwgState> {
        self.index.lookups.set(self.index.lookups.get() + 1);
        self.shards.get(shard_of(lwg))?.get(&lwg)
    }

    /// Mutable access through the index-maintaining guard.
    pub(crate) fn get_mut(&mut self, lwg: LwgId) -> Option<RecordMut<'_>> {
        self.index.lookups.set(self.index.lookups.get() + 1);
        let state = self.shards.get_mut(shard_of(lwg))?.get_mut(&lwg)?;
        let before = Facets::of(state);
        Some(RecordMut {
            lwg,
            before,
            state,
            index: &mut self.index,
        })
    }

    /// Like [`GroupDirectory::get_mut`] with a typed error — the protocol
    /// modules' re-borrow idiom (see [`crate::LwgError`]).
    pub(crate) fn record(&mut self, lwg: LwgId) -> Result<RecordMut<'_>, LwgError> {
        self.get_mut(lwg).ok_or(LwgError::UnknownGroup(lwg))
    }

    pub(crate) fn insert(&mut self, lwg: LwgId, mut state: LwgState) {
        self.index.lookups.set(self.index.lookups.get() + 1);
        let (seq, nonce) = self.departed.remove(&lwg).unwrap_or_default();
        state.bump_view_seq(seq);
        state.next_flush_nonce = state.next_flush_nonce.max(nonce);
        let facets = Facets::of(&state);
        let Some(shard) = self.shards.get_mut(shard_of(lwg)) else {
            return;
        };
        if let Some(old) = shard.insert(lwg, state) {
            self.index.unlink(lwg, &Facets::of(&old));
        } else {
            self.index.len += 1;
        }
        self.index.link(lwg, &facets);
    }

    pub(crate) fn remove(&mut self, lwg: LwgId) -> Option<LwgState> {
        self.index.lookups.set(self.index.lookups.get() + 1);
        let state = self.shards.get_mut(shard_of(lwg))?.remove(&lwg)?;
        self.index.unlink(lwg, &Facets::of(&state));
        self.index.len -= 1;
        self.departed
            .insert(lwg, (state.next_view_seq, state.next_flush_nonce));
        Some(state)
    }

    // ------------------------------------------------------------------
    // Index queries (each replaces a former O(L) scan)
    // ------------------------------------------------------------------

    /// LWGs whose current mapping is `hwg`, ascending.
    pub(crate) fn mapped_on(&self, hwg: HwgId) -> Vec<LwgId> {
        self.index.collect(self.index.by_hwg.get(&hwg))
    }

    /// LWGs switching onto `hwg` or following a switch onto it, ascending.
    pub(crate) fn switching_to(&self, hwg: HwgId) -> Vec<LwgId> {
        self.index.collect(self.index.by_target.get(&hwg))
    }

    /// Whether any record references `hwg` — as its mapping, as a switch
    /// target, or as the switch it follows (the shrink rule's liveness
    /// test, formerly a full scan).
    pub(crate) fn hwg_in_use(&self, hwg: HwgId) -> bool {
        self.index
            .index_queries
            .set(self.index.index_queries.get() + 1);
        self.index.by_hwg.contains_key(&hwg) || self.index.by_target.contains_key(&hwg)
    }

    /// Ids in `phase`, ascending (the tick's leaving and member sets).
    pub(crate) fn in_phase(&self, phase: Phase) -> Vec<LwgId> {
        self.index
            .collect(self.index.by_phase.get(phase_slot(phase)))
    }

    /// Ids in either joining phase, ascending (the tick's due joins).
    pub(crate) fn joining(&self) -> Vec<LwgId> {
        self.index.collect(self.index.by_phase.get(JOINING))
    }

    /// Ids with a flush or switch in flight (watchdog candidates).
    pub(crate) fn watched_ids(&self) -> Vec<LwgId> {
        self.index.collect(Some(&self.index.watched))
    }

    /// Every record in ascending id order — the one sanctioned full walk,
    /// used only by the operator status iterator (`tests/workspace_rules.rs`
    /// fails on any other caller in `plwg-core`).
    pub(crate) fn iter_all(&self) -> impl Iterator<Item = (LwgId, &LwgState)> + '_ {
        let mut heads: Vec<btree_map::Iter<'_, LwgId, LwgState>> =
            self.shards.iter().map(|s| s.iter()).collect();
        let mut peeked: Vec<Option<(LwgId, &LwgState)>> = heads
            .iter_mut()
            .map(|it| it.next().map(|(&l, s)| (l, s)))
            .collect();
        std::iter::from_fn(move || {
            let best = peeked
                .iter()
                .enumerate()
                .filter_map(|(i, p)| p.map(|(l, _)| (l, i)))
                .min()?
                .1;
            let out = peeked.get_mut(best)?.take();
            if let (Some(it), Some(slot)) = (heads.get_mut(best), peeked.get_mut(best)) {
                *slot = it.next().map(|(&l, s)| (l, s));
            }
            out
        })
    }

    // ------------------------------------------------------------------
    // Load accounts and id allocation
    // ------------------------------------------------------------------

    /// Data-plane multicast sent on `hwg`: feed its traffic window.
    pub(crate) fn note_traffic(&mut self, hwg: HwgId) {
        *self.index.traffic.entry(hwg).or_insert(0) += 1;
    }

    /// Load accounts of every HWG carrying at least one local LWG,
    /// ascending by HWG id.
    pub(crate) fn loads(&self) -> Vec<HwgLoad> {
        self.index
            .index_queries
            .set(self.index.index_queries.get() + 1);
        self.index
            .by_hwg
            .iter()
            .map(|(&hwg, set)| HwgLoad {
                hwg,
                lwgs: set.len(),
                traffic: self.index.traffic.get(&hwg).copied().unwrap_or(0),
            })
            .collect()
    }

    /// Mapped-LWG count of one HWG.
    pub(crate) fn hwg_load(&self, hwg: HwgId) -> usize {
        self.index
            .index_queries
            .set(self.index.index_queries.get() + 1);
        self.index.by_hwg.get(&hwg).map_or(0, BTreeSet::len)
    }

    /// Full load account of one HWG (zero for an HWG carrying nothing).
    pub(crate) fn load_of(&self, hwg: HwgId) -> HwgLoad {
        HwgLoad {
            hwg,
            lwgs: self.hwg_load(hwg),
            traffic: self.index.traffic.get(&hwg).copied().unwrap_or(0),
        }
    }

    /// Resets every traffic window (the rebalancer consumes a window per
    /// round).
    pub(crate) fn reset_traffic(&mut self) {
        for v in self.index.traffic.values_mut() {
            *v = 0;
        }
    }

    /// `(groups, loaded HWGs, most-crowded HWG's LWG count)` — the gauge
    /// summary the service publishes to the metrics registry.
    pub(crate) fn load_summary(&self) -> (usize, usize, usize) {
        let max = self
            .index
            .by_hwg
            .values()
            .map(BTreeSet::len)
            .max()
            .unwrap_or(0);
        (self.index.len, self.index.by_hwg.len(), max)
    }

    /// Allocates a fresh HWG id: node-prefixed, strictly above both every
    /// id this directory allocated before and every prefixed id it has
    /// *observed* (re-learned from naming after a restart) — the bump
    /// counter alone could collide with the latter.
    pub(crate) fn alloc_hwg_id(&mut self) -> HwgId {
        let next = self.index.hwg_floor + 1;
        self.index.hwg_floor = next;
        HwgId::allocated(self.index.me, next)
    }

    /// Raises the allocation floor from an HWG id observed outside the
    /// record facets (e.g. a view installed for a not-yet-mapped HWG).
    pub(crate) fn observe_hwg(&mut self, hwg: HwgId) {
        self.index.note_hwg(hwg);
    }

    /// Operation counters since construction (monotone).
    pub(crate) fn counters(&self) -> DirCounters {
        DirCounters {
            lookups: self.index.lookups.get(),
            index_queries: self.index.index_queries.get(),
            visited: self.index.visited.get(),
        }
    }
}

/// Mutable borrow of one record that re-syncs the directory indexes on
/// drop. Dereferences to [`LwgState`]; protocol code mutates fields as it
/// always did. Because the guard holds the directory's index borrow,
/// the borrow checker forces it to be dropped before the next directory
/// query — exactly the point where the indexes must be current.
pub(crate) struct RecordMut<'a> {
    lwg: LwgId,
    before: Facets,
    state: &'a mut LwgState,
    index: &'a mut DirIndex,
}

impl Deref for RecordMut<'_> {
    type Target = LwgState;

    fn deref(&self) -> &LwgState {
        self.state
    }
}

impl DerefMut for RecordMut<'_> {
    fn deref_mut(&mut self) -> &mut LwgState {
        self.state
    }
}

impl Drop for RecordMut<'_> {
    fn drop(&mut self) {
        // A failed check while a panic unwinds would abort the process.
        if !std::thread::panicking() {
            self.state.check();
        }
        let after = Facets::of(self.state);
        self.index.resync(self.lwg, &self.before, &after);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::LFlushId;
    use crate::state::{FlushReq, Part};
    use plwg_hwg::{View, ViewId};
    use plwg_sim::SimTime;

    fn dir() -> GroupDirectory {
        GroupDirectory::new(NodeId(3))
    }

    /// Targets `hwg`, as the join flow starts.
    fn join(r: &mut LwgState, hwg: HwgId) {
        let (deadline, attempts) = (SimTime::ZERO, 0);
        r.phase = Phase::JoiningHwg { deadline, attempts };
        r.hwg = Some(hwg);
    }

    /// Installs a view of `{3, 4}` on `hwg`, as the join flow ends.
    fn install(r: &mut LwgState, hwg: HwgId) {
        let view = View::initial(ViewId::new(NodeId(3), 1), vec![NodeId(3), NodeId(4)]);
        r.install(view, hwg, NodeId(3));
    }

    /// Node 3 flushes the view `install` installed, on `hwg`: a switch to
    /// `to` when set.
    fn begin(r: &mut LwgState, hwg: HwgId, to: Option<HwgId>) -> Part {
        let (initiator, nonce) = (NodeId(3), 1);
        let req = FlushReq {
            flush: LFlushId { initiator, nonce },
            hwg,
            view: ViewId::new(initiator, 1),
            members: vec![initiator],
            next: None,
            to,
        };
        r.begin_flush(req, SimTime::ZERO)
    }

    #[test]
    fn insert_indexes_phase_and_len() {
        let mut d = dir();
        d.insert(LwgId(1), LwgState::default());
        d.insert(LwgId(2), LwgState::default());
        assert_eq!(d.len(), 2);
        assert_eq!(
            d.in_phase(Phase::ReadingNs),
            vec![LwgId(1), LwgId(2)],
            "fresh records sit in the reading-ns phase index"
        );
        assert!(d.in_phase(Phase::Member).is_empty());
    }

    #[test]
    fn guard_resyncs_mapping_and_phase_indexes() {
        let mut d = dir();
        d.insert(LwgId(7), LwgState::default());
        join(&mut d.get_mut(LwgId(7)).unwrap(), HwgId(40));
        assert_eq!(d.mapped_on(HwgId(40)), vec![LwgId(7)]);
        assert!(d.hwg_in_use(HwgId(40)));
        assert_eq!(d.joining(), vec![LwgId(7)]);
        // A moved deadline keeps the record in its phase slot.
        *d.get_mut(LwgId(7)).unwrap().phase.join_mut().unwrap().1 += 1;
        assert_eq!(d.joining(), vec![LwgId(7)]);
        install(&mut d.get_mut(LwgId(7)).unwrap(), HwgId(41));
        assert!(d.mapped_on(HwgId(40)).is_empty());
        assert!(!d.hwg_in_use(HwgId(40)));
        assert_eq!(d.in_phase(Phase::Member), vec![LwgId(7)]);
        assert_eq!(d.mapped_on(HwgId(41)), vec![LwgId(7)]);
    }

    #[test]
    fn a_followed_switch_target_keeps_hwg_in_use() {
        let mut d = dir();
        d.insert(LwgId(1), LwgState::default());
        let mut r = d.get_mut(LwgId(1)).unwrap();
        install(&mut r, HwgId(10));
        assert_eq!(begin(&mut r, HwgId(10), Some(HwgId(99))), Part::Takes);
        drop(r);
        assert!(d.hwg_in_use(HwgId(99)), "switch target counts as in use");
        assert_eq!(d.switching_to(HwgId(99)), vec![LwgId(1)]);
        assert_eq!(d.watched_ids(), vec![LwgId(1)]);
        d.get_mut(LwgId(1)).unwrap().abandon();
        assert!(!d.hwg_in_use(HwgId(99)));
        assert!(d.watched_ids().is_empty());
    }

    #[test]
    fn remove_clears_every_index() {
        let mut d = dir();
        d.insert(LwgId(5), LwgState::default());
        {
            let mut r = d.get_mut(LwgId(5)).unwrap();
            install(&mut r, HwgId(2));
            assert_eq!(begin(&mut r, HwgId(2), None), Part::Takes);
        }
        assert_eq!(d.watched_ids(), vec![LwgId(5)]);
        assert!(d.remove(LwgId(5)).is_some());
        assert_eq!(d.len(), 0);
        assert!(d.mapped_on(HwgId(2)).is_empty());
        assert!(d.watched_ids().is_empty());
        assert!(!d.hwg_in_use(HwgId(2)));
        // All but the counters: a new record of the group continues them.
        d.insert(LwgId(5), LwgState::default());
        assert_eq!(d.get(LwgId(5)).map(|r| r.next_view_seq), Some(1));
    }

    #[test]
    fn iter_all_is_globally_ordered_across_shards() {
        let mut d = dir();
        // Ids chosen to land in several different shards.
        for i in (0..64).rev() {
            d.insert(LwgId(i), LwgState::default());
        }
        let ids: Vec<u64> = d.iter_all().map(|(l, _)| l.0).collect();
        assert_eq!(ids, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn alloc_hwg_id_matches_legacy_bump_counter() {
        let mut d = dir();
        // Without restart evidence the sequence is the seed's: counter
        // 1, 2, 3 … under the node prefix (bench byte-identity).
        assert_eq!(d.alloc_hwg_id(), HwgId::allocated(NodeId(3), 1));
        assert_eq!(d.alloc_hwg_id(), HwgId::allocated(NodeId(3), 2));
    }

    #[test]
    fn alloc_hwg_id_skips_ids_relearned_after_restart() {
        let mut d = dir();
        // A pre-restart allocation of ours (counter 7) comes back from the
        // naming service as a record's mapping target…
        d.insert(LwgId(1), LwgState::default());
        let hwg = HwgId::allocated(NodeId(3), 7);
        join(&mut d.get_mut(LwgId(1)).unwrap(), hwg);
        // …so the next allocation lands above it, not at counter 1.
        assert_eq!(d.alloc_hwg_id(), HwgId::allocated(NodeId(3), 8));
        // Another node's prefixed ids do not move our floor.
        d.observe_hwg(HwgId::allocated(NodeId(9), 100));
        assert_eq!(d.alloc_hwg_id(), HwgId::allocated(NodeId(3), 9));
    }

    #[test]
    fn load_accounts_track_mappings_and_traffic() {
        let mut d = dir();
        for i in 0..3 {
            d.insert(LwgId(i), LwgState::default());
            let hwg = HwgId(if i < 2 { 10 } else { 11 });
            install(&mut d.get_mut(LwgId(i)).unwrap(), hwg);
        }
        d.note_traffic(HwgId(10));
        d.note_traffic(HwgId(10));
        let loads = d.loads();
        assert_eq!(
            loads,
            vec![
                HwgLoad {
                    hwg: HwgId(10),
                    lwgs: 2,
                    traffic: 2
                },
                HwgLoad {
                    hwg: HwgId(11),
                    lwgs: 1,
                    traffic: 0
                },
            ]
        );
        assert_eq!(d.load_summary(), (3, 2, 2));
        d.reset_traffic();
        assert_eq!(d.loads()[0].traffic, 0);
        assert_eq!(d.hwg_load(HwgId(10)), 2);
    }

    #[test]
    fn counters_count_lookups_not_scans() {
        let mut d = dir();
        for i in 0..100 {
            d.insert(LwgId(i), LwgState::default());
        }
        let before = d.counters();
        let _ = d.get(LwgId(42));
        let _ = d.hwg_in_use(HwgId(1));
        let after = d.counters();
        assert_eq!(after.lookups - before.lookups, 1);
        assert_eq!(after.index_queries - before.index_queries, 1);
        assert_eq!(after.visited, before.visited, "no entries visited");
    }
}
