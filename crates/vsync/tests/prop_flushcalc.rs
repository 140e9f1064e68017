//! Randomised property tests for the flush-plan computation: the plan must
//! make the closing view's delivery **consistent** (every member can reach
//! exactly the target), **complete** (nothing anyone delivered is dropped),
//! and **serviceable** (every missing message is pulled from a holder, or
//! its sender reported and serves it).
//!
//! Cases are generated from a seeded in-tree RNG so every run explores the
//! same space deterministically.

use plwg_sim::{NodeId, SimRng};
use plwg_vsync::flushcalc::{compute_plan, Digest};
use std::collections::{BTreeMap, BTreeSet};

const CASES: u64 = 400;

/// Generates a plausible digest set: a few members, a few senders, each
/// member holding a random prefix of each sender's stream plus random
/// out-of-order extras, with a random sprinkling of thin (marker-only)
/// holds. About half the senders are members that reported too; such a
/// sender delivered each of its messages when it sent it, so its own
/// prefix covers every seq of its that anyone holds, with real payloads.
fn digests_case(rng: &mut SimRng) -> BTreeMap<NodeId, Digest> {
    let member_count = rng.range(1, 5) as usize;
    let sender_count = rng.range(1, 4) as usize;
    let senders: Vec<NodeId> = (0..sender_count)
        .map(|si| {
            if si < member_count && rng.chance(0.5) {
                NodeId(si as u32)
            } else {
                NodeId(100 + si as u32)
            }
        })
        .collect();
    let mut out = BTreeMap::new();
    for mi in 0..member_count {
        let prefix: BTreeMap<NodeId, u64> =
            senders.iter().map(|&s| (s, rng.range(0, 10))).collect();
        // Extras must lie beyond the member's own prefix (a held message
        // below the prefix would have been delivered).
        let extra_count = rng.range(0, 6);
        let extras: Vec<(NodeId, u64)> = (0..extra_count)
            .map(|_| {
                (
                    senders[rng.range(0, sender_count as u64) as usize],
                    rng.range(1, 14),
                )
            })
            .filter(|(s, q)| *q > prefix.get(s).copied().unwrap_or(0))
            .collect();
        // Mark a random subset of the held messages as thin.
        let mut thin: Vec<(NodeId, u64)> = Vec::new();
        for (&s, &p) in &prefix {
            for q in 1..=p {
                if rng.chance(0.15) {
                    thin.push((s, q));
                }
            }
        }
        for &(s, q) in &extras {
            if rng.chance(0.15) {
                thin.push((s, q));
            }
        }
        out.insert(NodeId(mi as u32), Digest::new(prefix, extras, thin));
    }
    // A reporting sender's own digest holds its whole stream, for real.
    for &s in &senders {
        if !out.contains_key(&s) {
            continue;
        }
        let held_anywhere = out
            .values()
            .flat_map(|d| {
                let prefix = d.prefix.get(&s).copied();
                let extras = d.extras.iter().filter(|e| e.0 == s).map(|e| e.1);
                prefix.into_iter().chain(extras)
            })
            .max()
            .unwrap_or(0);
        let own = out.get_mut(&s).expect("a reporter");
        own.prefix.insert(s, held_anywhere);
        own.extras.retain(|e| e.0 != s);
        own.thin.retain(|e| e.0 != s);
    }
    out
}

/// Soundness of the plan, for arbitrary digest sets.
#[test]
fn plan_is_sound() {
    for case in 0..CASES {
        let mut rng = SimRng::from_seed(0xF1D5_0000 ^ case);
        let digests = digests_case(&mut rng);
        let plan = compute_plan(&digests);

        // What exists, per sender.
        let mut exists: BTreeMap<NodeId, BTreeSet<u64>> = BTreeMap::new();
        for d in digests.values() {
            for (&s, &p) in &d.prefix {
                exists.entry(s).or_default().extend(1..=p);
            }
            for &(s, q) in &d.extras {
                exists.entry(s).or_default().insert(q);
            }
        }

        for (&s, &t) in &plan.target {
            // 1. Reachable: every message up to the target exists somewhere.
            for seq in 1..=t {
                assert!(
                    exists.get(&s).is_some_and(|e| e.contains(&seq)),
                    "case {case}: target includes {s}#{seq} which nobody holds"
                );
            }
            // 2. Complete: the target is never below something a member has
            //    *delivered* (prefixes are delivered; dropping them would
            //    contradict delivery).
            for d in digests.values() {
                let delivered = d.prefix.get(&s).copied().unwrap_or(0);
                assert!(
                    t >= delivered,
                    "case {case}: target {t} for {s} below a delivered prefix {delivered}"
                );
            }
            // 3. Maximal-contiguous: target + 1 must not exist contiguously
            //    (otherwise the plan drops a recoverable message).
            let next_exists = exists.get(&s).is_some_and(|e| e.contains(&(t + 1)));
            assert!(
                !next_exists,
                "case {case}: target for {s} stops early at {t}"
            );
        }

        // 4. Serviceable: every member can reach the target using its own
        //    state plus the pulled retransmissions, or by asking a sender
        //    that reported and holds the real payload. A reporter's own
        //    messages are never pulled.
        let pulled: BTreeSet<(NodeId, u64)> = plan
            .pulls
            .values()
            .flat_map(|v| v.iter().copied())
            .collect();
        let serves_itself = |s: NodeId, seq: u64| {
            digests.get(&s).is_some_and(|own| {
                own.prefix.get(&s).copied().unwrap_or(0) >= seq && !own.thin.contains(&(s, seq))
            })
        };
        for &(s, seq) in &pulled {
            assert!(
                !digests.contains_key(&s),
                "case {case}: {s}#{seq} pulled though its sender reported"
            );
        }
        for (m, d) in &digests {
            let held: BTreeSet<(NodeId, u64)> = d.extras.iter().copied().collect();
            for (&s, &t) in &plan.target {
                let have = d.prefix.get(&s).copied().unwrap_or(0);
                for seq in have + 1..=t {
                    assert!(
                        held.contains(&(s, seq))
                            || pulled.contains(&(s, seq))
                            || serves_itself(s, seq),
                        "case {case}: member {m} cannot obtain {s}#{seq}"
                    );
                }
            }
        }

        // 5. Honest holders: a member scheduled to retransmit actually has
        //    the message, and a thin holder is only chosen when no member
        //    holds the real payload.
        for (holder, wants) in &plan.pulls {
            let d = &digests[holder];
            let held: BTreeSet<(NodeId, u64)> = d.extras.iter().copied().collect();
            for &(s, seq) in wants {
                let has = d.prefix.get(&s).copied().unwrap_or(0) >= seq || held.contains(&(s, seq));
                assert!(has, "case {case}: holder {holder} lacks {s}#{seq}");
                if d.thin.contains(&(s, seq)) {
                    let someone_real = digests.values().any(|o| {
                        let o_has = o.prefix.get(&s).copied().unwrap_or(0) >= seq
                            || o.extras.contains(&(s, seq));
                        o_has && !o.thin.contains(&(s, seq))
                    });
                    assert!(
                        !someone_real,
                        "case {case}: thin holder {holder} chosen for {s}#{seq} \
                         though a real holder exists"
                    );
                }
            }
        }
    }
}

/// The plan is a pure function of the digests (same input, same plan).
#[test]
fn plan_is_deterministic() {
    for case in 0..CASES {
        let mut rng = SimRng::from_seed(0xF1D5_1000 ^ case);
        let digests = digests_case(&mut rng);
        assert_eq!(compute_plan(&digests), compute_plan(&digests));
    }
}
