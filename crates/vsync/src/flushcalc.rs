//! Pure computation at the heart of the flush protocol: given every
//! member's digest, derive the **delivery target** (the exact message set
//! the closing view will have delivered) and the **pull plan** (which
//! member retransmits which missing message of a sender that did not
//! report; a reporting sender serves its own when a member asks).
//!
//! Kept free of protocol state so the correctness conditions can be tested
//! exhaustively — see the property tests in `tests/prop_flushcalc.rs`.

use plwg_sim::NodeId;
use std::collections::{BTreeMap, BTreeSet};

/// One member's flush digest.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Digest {
    /// Per-sender contiguously-delivered prefix.
    pub prefix: BTreeMap<NodeId, u64>,
    /// Out-of-order messages sitting in the hold-back queue.
    pub extras: Vec<(NodeId, u64)>,
    /// `(sender, seq)` pairs within `prefix`/`extras` that this member
    /// holds only as subset-delivery skip markers: they count towards the
    /// target (the message exists and was sequenced), but the member cannot
    /// serve the real payload as a fill.
    pub thin: Vec<(NodeId, u64)>,
}

impl Digest {
    /// Builds a digest from its parts.
    pub fn new(
        prefix: BTreeMap<NodeId, u64>,
        extras: Vec<(NodeId, u64)>,
        thin: Vec<(NodeId, u64)>,
    ) -> Self {
        Digest {
            prefix,
            extras,
            thin,
        }
    }
}

/// The outcome of the target computation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlushPlan {
    /// sender → final sequence number every member must deliver.
    pub target: BTreeMap<NodeId, u64>,
    /// holder → messages of non-reporting senders it must retransmit to
    /// the group.
    pub pulls: BTreeMap<NodeId, Vec<(NodeId, u64)>>,
}

/// Computes the delivery target and pull plan from the collected digests.
///
/// ```
/// use plwg_sim::NodeId;
/// use plwg_vsync::flushcalc::{compute_plan, Digest};
/// use std::collections::BTreeMap;
///
/// let mut digests = BTreeMap::new();
/// // Member 0 delivered 3 messages from sender 9; member 1 only 1.
/// digests.insert(
///     NodeId(0),
///     Digest::new(BTreeMap::from([(NodeId(9), 3)]), vec![], vec![]),
/// );
/// digests.insert(
///     NodeId(1),
///     Digest::new(BTreeMap::from([(NodeId(9), 1)]), vec![], vec![]),
/// );
/// let plan = compute_plan(&digests);
/// assert_eq!(plan.target[&NodeId(9)], 3);
/// // Member 0 retransmits what member 1 is missing.
/// assert_eq!(plan.pulls[&NodeId(0)], vec![(NodeId(9), 2), (NodeId(9), 3)]);
/// ```
///
/// The target for sender `s` is the longest gap-free prefix of `s`'s
/// messages that *somebody* in the view holds (delivered or held back):
/// anything beyond a hole that exists nowhere was never delivered to
/// anyone and may be dropped consistently.
///
/// A sender that reported (one of the digest keys) serves itself: it
/// delivered each of its own messages when it sent it, sends nothing after
/// its digest, and keeps every message until it is stable, so its digest
/// covers its whole stream up to the target with the real payloads. A
/// member short of such a message asks the sender at the target, and the
/// plan pulls nothing for it. For every other `(sender, seq)` in the target
/// that some member lacks, the lowest-id member holding it is scheduled to
/// retransmit — preferring members that hold the real payload over those
/// holding only a subset-delivery skip marker.
pub fn compute_plan(digests: &BTreeMap<NodeId, Digest>) -> FlushPlan {
    // Union of what exists, per sender.
    let mut max_prefix: BTreeMap<NodeId, u64> = BTreeMap::new();
    let mut extra_set: BTreeMap<NodeId, BTreeSet<u64>> = BTreeMap::new();
    for d in digests.values() {
        for (&s, &p) in &d.prefix {
            let e = max_prefix.entry(s).or_insert(0);
            *e = (*e).max(p);
        }
        for &(s, seq) in &d.extras {
            extra_set.entry(s).or_default().insert(seq);
        }
    }
    // Target: extend each sender's max prefix through contiguous extras.
    let mut target: BTreeMap<NodeId, u64> = BTreeMap::new();
    let senders: BTreeSet<NodeId> = max_prefix.keys().chain(extra_set.keys()).copied().collect();
    for s in senders {
        let mut t = max_prefix.get(&s).copied().unwrap_or(0);
        if let Some(extras) = extra_set.get(&s) {
            while extras.contains(&(t + 1)) {
                t += 1;
            }
        }
        target.insert(s, t);
    }

    // Which messages is anyone missing, and who can supply them?
    let mut needed: BTreeSet<(NodeId, u64)> = BTreeSet::new();
    for d in digests.values() {
        let held: BTreeSet<(NodeId, u64)> = d.extras.iter().copied().collect();
        for (&s, &t) in &target {
            let have = d.prefix.get(&s).copied().unwrap_or(0);
            for seq in have + 1..=t {
                if !held.contains(&(s, seq)) {
                    needed.insert((s, seq));
                }
            }
        }
    }
    let mut pulls: BTreeMap<NodeId, Vec<(NodeId, u64)>> = BTreeMap::new();
    for (s, seq) in needed {
        if digests.contains_key(&s) {
            continue; // a reporter serves its own messages when asked
        }
        let holds = |d: &Digest| {
            d.prefix.get(&s).copied().unwrap_or(0) >= seq || d.extras.contains(&(s, seq))
        };
        // Lowest-id reporter holding the *real* payload serves it; if the
        // message survives only as skip markers (sender gone, every
        // addressee lost it), the lowest marker-holder re-serves the
        // marker so everyone still reaches the target consistently.
        let real = digests
            .iter()
            .find_map(|(m, d)| (holds(d) && !d.thin.contains(&(s, seq))).then_some(*m));
        let holder = real.or_else(|| digests.iter().find_map(|(m, d)| holds(d).then_some(*m)));
        if let Some(h) = holder {
            pulls.entry(h).or_default().push((s, seq));
        }
        // A message nobody holds was never delivered anywhere; the target
        // computation above already excluded it — `holder` is always Some
        // for seqs within the target (asserted by the property tests).
    }
    FlushPlan { target, pulls }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    fn digest(prefix: &[(u32, u64)], extras: &[(u32, u64)]) -> Digest {
        Digest::new(
            prefix.iter().map(|&(s, p)| (n(s), p)).collect(),
            extras.iter().map(|&(s, q)| (n(s), q)).collect(),
            vec![],
        )
    }

    #[test]
    fn all_agree_no_pulls() {
        let mut d = BTreeMap::new();
        d.insert(n(0), digest(&[(0, 5), (1, 3)], &[]));
        d.insert(n(1), digest(&[(0, 5), (1, 3)], &[]));
        let plan = compute_plan(&d);
        assert_eq!(plan.target[&n(0)], 5);
        assert_eq!(plan.target[&n(1)], 3);
        assert!(plan.pulls.is_empty());
    }

    #[test]
    fn laggard_gets_fill_from_lowest_holder() {
        // Sender 9 did not report (it left or crashed).
        let mut d = BTreeMap::new();
        d.insert(n(0), digest(&[(9, 5)], &[]));
        d.insert(n(1), digest(&[(9, 5)], &[]));
        d.insert(n(2), digest(&[(9, 2)], &[]));
        let plan = compute_plan(&d);
        assert_eq!(plan.target[&n(9)], 5);
        assert_eq!(
            plan.pulls.get(&n(0)).map(Vec::as_slice),
            Some(&[(n(9), 3), (n(9), 4), (n(9), 5)][..]),
            "node 0 (lowest id) serves the laggard"
        );
    }

    #[test]
    fn holdback_extras_extend_the_target() {
        // Nobody delivered 3 of the departed sender 9 (gap at 2 is filled
        // by an extra), but member 1 holds 2 and 3 out of order: target
        // extends through them.
        let mut d = BTreeMap::new();
        d.insert(n(0), digest(&[(9, 1)], &[]));
        d.insert(n(1), digest(&[(9, 1)], &[(9, 2), (9, 3)]));
        let plan = compute_plan(&d);
        assert_eq!(plan.target[&n(9)], 3);
        // Member 0 lacks 2 and 3; member 1 holds them.
        assert_eq!(
            plan.pulls.get(&n(1)).map(Vec::as_slice),
            Some(&[(n(9), 2), (n(9), 3)][..])
        );
    }

    #[test]
    fn a_reporting_sender_is_never_pulled() {
        // Members 1 and 2 lack sender 0's 4 and 5, and sender 9's 3;
        // sender 0 reported, sender 9 did not. Only sender 9's message is
        // pulled; the laggards ask sender 0 themselves at the target.
        let mut d = BTreeMap::new();
        d.insert(n(0), digest(&[(0, 5), (9, 3)], &[]));
        d.insert(n(1), digest(&[(0, 3), (9, 2)], &[]));
        d.insert(n(2), digest(&[(0, 3), (9, 2)], &[(0, 5)]));
        let plan = compute_plan(&d);
        assert_eq!(plan.target[&n(0)], 5);
        assert_eq!(plan.target[&n(9)], 3);
        assert_eq!(
            plan.pulls,
            BTreeMap::from([(n(0), vec![(n(9), 3)])]),
            "only the non-reporter's message is pulled"
        );
    }

    #[test]
    fn messages_beyond_a_global_hole_are_dropped() {
        // Seq 2 exists nowhere; 3 sits in a hold-back queue. The target
        // stops at 1 — message 3 was never delivered anywhere, so dropping
        // it everywhere is consistent.
        let mut d = BTreeMap::new();
        d.insert(n(0), digest(&[(0, 1)], &[(0, 3)]));
        d.insert(n(1), digest(&[(0, 1)], &[]));
        let plan = compute_plan(&d);
        assert_eq!(plan.target[&n(0)], 1);
        assert!(plan.pulls.is_empty());
    }

    #[test]
    fn real_holder_preferred_over_thin() {
        // Member 0 (lowest id) holds seq 2 only as a skip marker; member 1
        // has the real payload. Member 2 needs it: member 1 must serve.
        let mut d = BTreeMap::new();
        let mut thin0 = digest(&[(9, 2)], &[]);
        thin0.thin = vec![(n(9), 2)];
        d.insert(n(0), thin0);
        d.insert(n(1), digest(&[(9, 2)], &[]));
        d.insert(n(2), digest(&[(9, 1)], &[]));
        let plan = compute_plan(&d);
        assert_eq!(plan.target[&n(9)], 2);
        assert_eq!(
            plan.pulls.get(&n(1)).map(Vec::as_slice),
            Some(&[(n(9), 2)][..])
        );
    }

    #[test]
    fn marker_only_message_still_serviced() {
        // The real payload of seq 2 survives nowhere (sender crashed, the
        // only addressee lost it) — the marker holder re-serves the marker
        // so the laggard can still reach the target.
        let mut d = BTreeMap::new();
        let mut thin0 = digest(&[(9, 2)], &[]);
        thin0.thin = vec![(n(9), 2)];
        d.insert(n(0), thin0);
        d.insert(n(1), digest(&[(9, 1)], &[]));
        let plan = compute_plan(&d);
        assert_eq!(plan.target[&n(9)], 2);
        assert_eq!(
            plan.pulls.get(&n(0)).map(Vec::as_slice),
            Some(&[(n(9), 2)][..])
        );
    }

    #[test]
    fn empty_digests_empty_plan() {
        let plan = compute_plan(&BTreeMap::new());
        assert!(plan.target.is_empty());
        assert!(plan.pulls.is_empty());
    }
}
