//! Randomised property tests for the mapping database: reconciliation is a
//! proper join (commutative, idempotent), tombstones win, garbage
//! collection only ever removes true ancestors, and the maintained digest
//! is what a recomputation gives and drives an exchange that ends where
//! full-snapshot gossip does. Cases come from a seeded in-tree RNG so
//! every run is deterministic.

use plwg_hwg::{HwgId, ViewId};
use plwg_naming::{Digest, LwgId, Mapping, MappingDb};
use plwg_sim::{Decode, Encode, Frame, NodeId, Reader, SimRng};

const CASES: u64 = 300;

/// A small operation language over the database.
#[derive(Debug, Clone)]
enum Op {
    /// Register mapping of view `v` with predecessors chosen among earlier
    /// view indices.
    Set {
        lwg: u8,
        v: u8,
        preds: Vec<u8>,
        hwg: u8,
    },
    /// Dissolve view `v`.
    Unset { lwg: u8, v: u8 },
}

fn vid(i: u8) -> ViewId {
    // Deterministic distinct view ids: coordinator = i % 4, seq = i.
    ViewId::new(NodeId(u32::from(i % 4)), u64::from(i))
}

fn mapping(v: u8, hwg: u8) -> Mapping {
    Mapping {
        lwg_view: vid(v),
        members: vec![NodeId(u32::from(v % 4))],
        hwg: HwgId(u64::from(hwg)),
        hwg_view: vid(v),
    }
}

fn apply(db: &mut MappingDb, ops: &[Op]) {
    for op in ops {
        match op {
            Op::Set { lwg, v, preds, hwg } => {
                let preds: Vec<ViewId> = preds.iter().map(|&p| vid(p)).collect();
                db.set(LwgId(u64::from(*lwg)), mapping(*v, *hwg), &preds);
            }
            Op::Unset { lwg, v } => db.unset(LwgId(u64::from(*lwg)), vid(*v)),
        }
    }
}

fn random_op(rng: &mut SimRng) -> Op {
    if rng.chance(0.5) {
        let v = rng.range(1, 16) as u8;
        let pred_count = rng.range(0, 3);
        Op::Set {
            lwg: rng.range(0, 3) as u8,
            v,
            // Predecessors are causally earlier views: real view lineages
            // are acyclic by construction, so the generator only points
            // "backwards".
            preds: (0..pred_count)
                .map(|_| rng.range(0, 16) as u8 % v)
                .collect(),
            hwg: rng.range(0, 4) as u8,
        }
    } else {
        Op::Unset {
            lwg: rng.range(0, 3) as u8,
            v: rng.range(0, 16) as u8,
        }
    }
}

fn random_ops(rng: &mut SimRng, max: u64) -> Vec<Op> {
    let count = rng.range(0, max);
    (0..count).map(|_| random_op(rng)).collect()
}

/// merge(a, b) == merge(b, a): the replicas converge regardless of gossip
/// direction.
#[test]
fn merge_is_commutative() {
    for case in 0..CASES {
        let mut rng = SimRng::from_seed(0xDB_1100 ^ case);
        let mut a = MappingDb::new();
        apply(&mut a, &random_ops(&mut rng, 25));
        let mut b = MappingDb::new();
        apply(&mut b, &random_ops(&mut rng, 25));

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba, "case {case}");
    }
}

/// Merging the same replica again changes nothing (anti-entropy can repeat
/// safely).
#[test]
fn merge_is_idempotent() {
    for case in 0..CASES {
        let mut rng = SimRng::from_seed(0xDB_2200 ^ case);
        let mut a = MappingDb::new();
        apply(&mut a, &random_ops(&mut rng, 25));
        let mut b = MappingDb::new();
        apply(&mut b, &random_ops(&mut rng, 25));
        a.merge(&b);
        let snapshot = a.clone();
        let changed = a.merge(&b);
        assert!(changed.is_empty(), "case {case}");
        assert_eq!(a, snapshot, "case {case}");
    }
}

/// Three-replica convergence: merging in any grouping yields the same
/// database (associativity up to state).
#[test]
fn merge_converges_three_ways() {
    for case in 0..CASES {
        let mut rng = SimRng::from_seed(0xDB_3300 ^ case);
        let mut a = MappingDb::new();
        apply(&mut a, &random_ops(&mut rng, 15));
        let mut b = MappingDb::new();
        apply(&mut b, &random_ops(&mut rng, 15));
        let mut c = MappingDb::new();
        apply(&mut c, &random_ops(&mut rng, 15));

        let mut abc = a.clone();
        abc.merge(&b);
        abc.merge(&c);
        let mut cba = c.clone();
        cba.merge(&b);
        cba.merge(&a);
        assert_eq!(abc, cba, "case {case}");
    }
}

/// A dissolved view never reappears, no matter what is merged in.
#[test]
fn tombstones_are_permanent() {
    for case in 0..CASES {
        let mut rng = SimRng::from_seed(0xDB_4400 ^ case);
        let ops = random_ops(&mut rng, 25);
        let resurrect_hwg = rng.range(0, 4) as u8;
        let lwg = LwgId(1);
        let mut a = MappingDb::new();
        apply(&mut a, &ops);
        a.set(lwg, mapping(3, 0), &[]);
        a.unset(lwg, vid(3));
        // Another replica still believes in view 3.
        let mut b = MappingDb::new();
        b.set(lwg, mapping(3, resurrect_hwg), &[]);
        a.merge(&b);
        assert!(
            a.read(lwg).iter().all(|m| m.lwg_view != vid(3)),
            "case {case}: tombstoned view must not resurrect"
        );
        // Direct re-set is also refused.
        a.set(lwg, mapping(3, resurrect_hwg), &[]);
        assert!(
            a.read(lwg).iter().all(|m| m.lwg_view != vid(3)),
            "case {case}"
        );
    }
}

/// After any operation sequence, no current mapping is an ancestor of
/// another current mapping of the same LWG (GC invariant).
#[test]
fn no_current_mapping_is_an_ancestor() {
    for case in 0..CASES {
        let mut rng = SimRng::from_seed(0xDB_5500 ^ case);
        let ops = random_ops(&mut rng, 40);
        // Rebuild the predecessor relation from the op log to check
        // independently of the database's own bookkeeping.
        let mut db = MappingDb::new();
        apply(&mut db, &ops);
        use std::collections::{BTreeMap, BTreeSet};
        let mut preds: BTreeMap<(u8, u8), BTreeSet<u8>> = BTreeMap::new();
        for op in &ops {
            if let Op::Set {
                lwg, v, preds: p, ..
            } = op
            {
                preds
                    .entry((*lwg, *v))
                    .or_default()
                    .extend(p.iter().copied());
            }
        }
        let ancestor = |lwg: u8, a: u8, b: u8| -> bool {
            // is `a` a strict ancestor of `b`?
            let mut stack = vec![b];
            let mut seen = BTreeSet::new();
            while let Some(v) = stack.pop() {
                if let Some(ps) = preds.get(&(lwg, v)) {
                    for &p in ps {
                        if p == a {
                            return true;
                        }
                        if seen.insert(p) {
                            stack.push(p);
                        }
                    }
                }
            }
            false
        };
        for lwg in 0u8..3 {
            let current: Vec<u8> = db
                .read(LwgId(u64::from(lwg)))
                .iter()
                .map(|m| m.lwg_view.seq as u8)
                .collect();
            for &x in &current {
                for &y in &current {
                    assert!(
                        !ancestor(lwg, x, y),
                        "case {case}: view {x} is an ancestor of {y} \
                         yet both are current"
                    );
                }
            }
        }
    }
}

// --- the digest -----------------------------------------------------------

/// The bytes a snapshot of `db` puts on the wire.
fn encoded(db: &MappingDb) -> Vec<u8> {
    let mut out = Vec::new();
    db.encode_into(&mut out);
    out
}

/// A snapshot's trip over the wire; decoding rebuilds the hashes.
fn round_trip(db: &MappingDb) -> MappingDb {
    let frame = Frame::from_vec(encoded(db));
    MappingDb::decode_from(&mut Reader::new(&frame)).expect("round trip")
}

/// One random mutation of `dbs[i]`: a set or unset, a test-and-set, a
/// merge of a random replica, a compaction, or a wire round trip.
fn mutate(rng: &mut SimRng, dbs: &mut [MappingDb], i: usize) {
    match rng.range(0, 6) {
        0 | 1 => apply(&mut dbs[i], &[random_op(rng)]),
        2 => {
            if let Op::Set { lwg, v, preds, hwg } = random_op(rng) {
                let preds: Vec<ViewId> = preds.iter().map(|&p| vid(p)).collect();
                dbs[i].testset(LwgId(u64::from(lwg)), mapping(v, hwg), &preds);
            }
        }
        3 => {
            let other = dbs[rng.range(0, dbs.len() as u64) as usize].clone();
            dbs[i].merge(&other);
        }
        4 => {
            dbs[i].compact();
        }
        _ => {
            let back = round_trip(&dbs[i]);
            assert_eq!(encoded(&back), encoded(&dbs[i]));
            dbs[i] = back;
        }
    }
}

/// After every mutation the maintained root equals one recomputed from
/// every entry, and replicas with the same content have the same root.
#[test]
fn the_root_is_maintained_through_every_mutation() {
    let mut equal_pairs = 0;
    for case in 0..CASES {
        let mut rng = SimRng::from_seed(0xDB_6600 ^ case);
        let mut dbs = vec![MappingDb::new(); 3];
        for step in 0..30 {
            let i = rng.range(0, 3) as usize;
            mutate(&mut rng, &mut dbs, i);
            let db = &dbs[i];
            assert_eq!(
                db.root(),
                db.root_from_scratch(),
                "case {case}, step {step}"
            );
        }
        // Replicas built in different orders: merged both ways, and each
        // against a wire copy.
        let (mut ab, mut ba) = (dbs[0].clone(), dbs[1].clone());
        ab.merge(&dbs[1]);
        ba.merge(&dbs[0]);
        let copy = round_trip(&dbs[2]);
        for (x, y) in [(&ab, &ba), (&dbs[0], &dbs[1]), (&dbs[2], &copy)] {
            if encoded(x) == encoded(y) {
                equal_pairs += 1;
                assert_eq!(x.root(), y.root(), "case {case}");
            }
        }
    }
    assert!(equal_pairs > CASES, "{equal_pairs} equal pairs");
}

/// A `Sync`: the sender's root, and its replica or nothing.
type Sync = (Digest, Option<MappingDb>);

/// One name server's end of the digest exchange, under the two rules
/// `NameServer` runs.
#[derive(Default)]
struct Side {
    db: MappingDb,
    /// The peer's latest root, while it arrived after this side's last
    /// `Sync`.
    fresh: Option<Digest>,
    /// The root of the snapshot sent since the previous tick.
    shipped: Option<Digest>,
    snapshots: usize,
}

impl Side {
    /// Rule 1: every tick sends the root, and the replica only if the
    /// peer's fresh root differs from it and this root was not shipped
    /// since the previous tick.
    fn tick(&mut self) -> Sync {
        let root = self.db.root();
        let differs = self.fresh.take().is_some_and(|theirs| theirs != root);
        let ship = differs && self.shipped != Some(root);
        self.shipped = ship.then_some(root);
        self.snapshots += usize::from(ship);
        (root, ship.then(|| self.db.clone()))
    }

    /// Rule 2: a `Sync` that ends a silence with a root that differs
    /// (after merging what it carried) is answered at once with the
    /// replica.
    fn receive(&mut self, (root, db): Sync, after_silence: bool) -> Option<Sync> {
        if let Some(db) = db {
            self.db.merge(&round_trip(&db));
        }
        self.fresh = Some(root);
        if !after_silence || root == self.db.root() {
            return None;
        }
        self.fresh = None;
        self.shipped = Some(self.db.root());
        self.snapshots += 1;
        Some((self.db.root(), Some(self.db.clone())))
    }
}

/// Two replicas grown apart from a common base, then exchanged by the two
/// rules for four ticks, end where one round of full-snapshot gossip (the
/// reference) leaves them; each side ships at most two snapshots, the
/// next tick ships none, and sides that never differed ship none at all.
#[test]
fn the_digest_exchange_ends_where_full_snapshot_gossip_does() {
    let mut differed = 0;
    for case in 0..CASES {
        let mut rng = SimRng::from_seed(0xDB_7700 ^ case);
        let mut base = MappingDb::new();
        apply(&mut base, &random_ops(&mut rng, 15));
        let mut grown = [base.clone(), base];
        for side in &mut grown {
            for _ in 0..rng.range(0, 12) {
                mutate(&mut rng, std::slice::from_mut(side), 0);
            }
        }

        // The reference: both replicas shipped whole, and merged.
        let [mut ref_a, mut ref_b] = grown.clone();
        ref_a.merge(&grown[1]);
        ref_b.merge(&grown[0]);

        let [a, b] = grown;
        let same = a == b;
        let (mut a, mut b) = (
            Side {
                db: a,
                ..Side::default()
            },
            Side {
                db: b,
                ..Side::default()
            },
        );
        for tick in 0..4 {
            let (to_b, to_a) = (a.tick(), b.tick());
            let (from_b, from_a) = (b.receive(to_b, tick == 0), a.receive(to_a, tick == 0));
            if let Some(sync) = from_b {
                a.receive(sync, false);
            }
            if let Some(sync) = from_a {
                b.receive(sync, false);
            }
        }
        assert_eq!(a.db, ref_a, "case {case}");
        assert_eq!(b.db, ref_b, "case {case}");
        assert!(a.snapshots <= 2 && b.snapshots <= 2, "case {case}");
        assert!(a.tick().1.is_none() && b.tick().1.is_none(), "case {case}");
        if same {
            assert_eq!(a.snapshots + b.snapshots, 0, "case {case}");
        }
        differed += usize::from(!same);
    }
    assert!(differed > 100, "{differed} cases grew apart");
}

/// Compaction drops only lineage nothing current or tombstoned can reach.
mod compact {
    use plwg_hwg::{HwgId, ViewId};
    use plwg_naming::{LwgId, Mapping, MappingDb};
    use plwg_sim::NodeId;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }
    fn vid(c: u32, s: u64) -> ViewId {
        ViewId::new(n(c), s)
    }
    fn map(lv: ViewId, hwg: u64) -> Mapping {
        Mapping {
            lwg_view: lv,
            members: vec![n(0)],
            hwg: HwgId(hwg),
            hwg_view: lv,
        }
    }

    #[test]
    fn compact_preserves_reachable_lineage() {
        let mut db = MappingDb::new();
        let l = LwgId(1);
        db.set(l, map(vid(0, 1), 1), &[]);
        db.set(l, map(vid(0, 2), 1), &[vid(0, 1)]);
        db.set(l, map(vid(0, 3), 1), &[vid(0, 2)]);
        db.compact();
        // GC still works after compaction: a late re-arrival of an old
        // mapping must be recognised as an ancestor.
        let mut other = MappingDb::new();
        other.set(l, map(vid(0, 1), 1), &[]);
        db.merge(&other);
        let got = db.read(l);
        assert_eq!(got.len(), 1, "compaction must not forget lineage");
        assert_eq!(got[0].lwg_view, vid(0, 3));
    }

    #[test]
    fn compact_drops_unreachable_edges_and_dead_entries() {
        let mut db = MappingDb::new();
        let l = LwgId(1);
        // A mapping whose view is later superseded and dissolved entirely.
        db.set(l, map(vid(0, 1), 1), &[]);
        db.set(l, map(vid(0, 2), 1), &[vid(0, 1)]);
        db.unset(l, vid(0, 2));
        // A disconnected edge for a view that never got a mapping and is
        // not an ancestor of anything current or tombstoned.
        let dead = LwgId(2);
        db.set(dead, map(vid(1, 1), 2), &[]);
        db.unset(dead, vid(1, 1));
        assert!(db.read(l).is_empty());
        let removed = db.compact();
        // vid(0,1) stays (ancestor of the tombstoned vid(0,2)); both
        // entries survive because tombstones must persist.
        let _ = removed;
        // Re-merging the superseded mapping is still refused.
        let mut other = MappingDb::new();
        other.set(l, map(vid(0, 1), 1), &[]);
        db.merge(&other);
        assert!(db.read(l).is_empty(), "ancestor of a tombstone stays GC'd");
    }
}
