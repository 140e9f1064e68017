//! Data-plane role: view-tagged FIFO multicast, the hold-back queue, NACK
//! loss recovery, and the stability exchange that garbage-collects the
//! retransmission store.

use super::GroupEndpoint;
use crate::msg::{Slot, VsMsg};
use crate::wire;
use crate::{GroupStatus, HwgEvent};
use plwg_hwg::{keys, HwgTraceEvent, ViewId};
use plwg_sim::{NodeId, Payload, SimDuration, SimTime, Transport, TransportExt};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::ops::Bound::{Excluded, Unbounded};

/// NACK watchdog: how long a FIFO gap may sit in the hold-back queue before
/// the receiver asks the sender to retransmit. Without NACKs a message lost
/// mid-view would block its sender's stream until the next flush.
pub(super) const NACK_DELAY: SimDuration = SimDuration::from_millis(200);
/// Time trigger of the stability exchange: members advertise their
/// delivered prefixes so everyone can discard retransmission state that is
/// stable everywhere (bounds per-view memory).
const STABILITY_INTERVAL: SimDuration = SimDuration::from_secs(2);
/// Volume trigger of the stability exchange: messages stored since the last
/// advertisement that trigger the next one. With the time trigger alone the
/// retransmission store holds [`STABILITY_INTERVAL`] worth of traffic,
/// whatever the rate. Large enough that view-change control traffic never
/// reaches it.
const STABILITY_VOLUME: usize = 1024;

/// One sender's FIFO stream in the current view: where delivery stands and
/// the delivered tail still kept for retransmission. Delivery appends to
/// the ring and the stability exchange pops its stable prefix, so both cost
/// what they move, whatever the store holds.
#[derive(Debug)]
pub(super) struct SenderStream {
    /// Next FIFO seq to deliver (seqs start at 1 in every view).
    pub(super) next: u64,
    /// Delivered slots `next - stored.len() .. next`, oldest first. A slot
    /// delivered as a subset-delivery marker stays [`Slot::Skip`] here (the
    /// real payload was addressed elsewhere); flush digests advertise those
    /// as `thin` so pulls prefer real holders.
    stored: VecDeque<Slot>,
}

impl Default for SenderStream {
    fn default() -> Self {
        SenderStream {
            next: 1,
            stored: VecDeque::new(),
        }
    }
}

impl SenderStream {
    /// Seq of the oldest stored slot (`next` when nothing is stored).
    fn oldest(&self) -> u64 {
        self.next - self.stored.len() as u64
    }

    /// Position of `seq` in `stored`; past its end for a seq not delivered
    /// yet, `None` for one already collected.
    fn index_of(&self, seq: u64) -> Option<usize> {
        usize::try_from(seq.checked_sub(self.oldest())?).ok()
    }

    /// Drops the stored slots up to and including seq `stable`; returns how
    /// many went.
    fn drop_through(&mut self, stable: u64) -> usize {
        let upto = self.index_of(stable.saturating_add(1)).unwrap_or(0);
        let n = upto.min(self.stored.len());
        self.stored.drain(..n);
        n
    }
}

impl GroupEndpoint {
    /// Sends a virtually-synchronous multicast, to the whole view or — with
    /// `targets` — delivered only to a subset of it (interference-aware
    /// subset delivery). Members outside the target set receive a
    /// same-sequence [`Slot::Skip`] marker instead of the payload: the
    /// marker occupies the FIFO slot — so gap detection, stability, and
    /// flush digests are untouched — but is consumed by the receiving
    /// endpoint without an upcall.
    ///
    /// The sender's own copy is delivered synchronously (it is part of the
    /// sender's flush digest), so a message sent in response to a `Stop`
    /// upcall — before the owner confirms with `stop_ok` — is still covered
    /// by the closing view's flush, and the sender keeps the real payload
    /// regardless of `targets`, so NACK retransmissions (and the asks of
    /// members short of the flush target) always serve the real message.
    /// While a flush runs, only the members it keeps are sent to
    /// ([`Self::audience`]). Sends after the digest went out are buffered
    /// and released in the next view as *full* multicasts (the subset is an
    /// optimisation, never required for correctness).
    pub(crate) fn send_payload(
        &mut self,
        ctx: &mut dyn Transport,
        targets: Option<&BTreeSet<NodeId>>,
        data: Payload,
        events: &mut Vec<HwgEvent>,
    ) {
        if self.status == GroupStatus::Left {
            return;
        }
        let digest_out = self.flush.as_ref().is_some_and(|f| f.digest_sent);
        if self.view.is_none() || digest_out {
            self.pending_send.push(data);
            return;
        }
        self.send_seq += 1;
        let seq = self.send_seq;
        let view = self.view.as_ref().expect("checked above");
        // At most two frames per multicast — the real payload and, once a
        // member outside `targets` turns up, the thin marker — each encoded
        // once and refcount-shared by its receivers.
        let data_frame = |payload: Slot| {
            wire::frame(&VsMsg::Data {
                hwg: self.hwg,
                view_id: view.id,
                sender: self.me,
                seq,
                payload,
            })
        };
        let real = data_frame(Slot::Full(data.clone()));
        let mut marker: Option<Payload> = None;
        let mut trimmed = 0u64;
        for &m in self.audience() {
            if m == self.me {
                continue;
            }
            if targets.is_none_or(|t| t.contains(&m)) {
                ctx.send(m, real.clone());
            } else {
                let marker = marker.get_or_insert_with(|| data_frame(Slot::Skip));
                ctx.send(m, marker.clone());
                trimmed += 1;
            }
        }
        ctx.metrics().incr(keys::DATA_SENT);
        ctx.metrics().add(keys::BYTES_MULTICAST, data.len() as u64);
        if targets.is_some() {
            ctx.metrics().incr(keys::SUBSET_SENDS);
            ctx.metrics().add(keys::SUBSET_TRIMMED, trimmed);
        }
        // Synchronous self-delivery.
        self.accept(ctx, self.me, seq, Slot::Full(data), events);
    }

    pub(super) fn on_data(
        &mut self,
        ctx: &mut dyn Transport,
        view_id: ViewId,
        sender: NodeId,
        seq: u64,
        data: Slot,
        events: &mut Vec<HwgEvent>,
    ) {
        let Some(view) = &self.view else { return };
        if view.id != view_id {
            // Sent in a different (older or concurrent) view: never
            // delivered here (paper §5.1).
            ctx.metrics().incr(keys::DATA_FOREIGN_VIEW);
            return;
        }
        if seq < self.next_expected(sender) {
            ctx.metrics().incr(keys::DATA_DUP);
            return;
        }
        self.accept(ctx, sender, seq, data, events);
    }

    /// Takes in a slot of the current view that is not a duplicate. The
    /// steady state — no flush running, nothing held back, `seq` the next
    /// of its sender — is delivered on the spot; anything else waits in the
    /// hold-back queue for [`Self::try_drain`], which delivers through the
    /// same [`Self::deliver`] step.
    pub(super) fn accept(
        &mut self,
        ctx: &mut dyn Transport,
        sender: NodeId,
        seq: u64,
        slot: Slot,
        events: &mut Vec<HwgEvent>,
    ) {
        if self.flush.is_none() && self.holdback.is_empty() && seq == self.next_expected(sender) {
            self.deliver(ctx, sender, seq, slot, events);
            self.advertise_on_volume(ctx);
        } else {
            self.holdback.insert((sender, seq), slot);
            self.try_drain(ctx, events);
            self.check_flush_target_reached(ctx);
        }
    }

    /// Delivers from the hold-back queue every message that is in FIFO
    /// order and allowed by the current flush phase.
    pub(super) fn try_drain(&mut self, ctx: &mut dyn Transport, events: &mut Vec<HwgEvent>) {
        if self.delivery_frozen() || self.view.is_none() {
            return;
        }
        // Senders in ascending order; for each, the run of consecutive
        // messages starting at its next expected seq.
        let mut cursor = self.holdback.keys().next().map(|&(sender, _)| sender);
        while let Some(sender) = cursor {
            // During the fill phase deliver only up to the agreed target.
            let limit = match self.flush.as_ref().and_then(|f| f.target.as_ref()) {
                Some(target) => target.get(&sender).copied().unwrap_or(0),
                None => u64::MAX,
            };
            loop {
                let next = self.next_expected(sender);
                if next > limit {
                    break;
                }
                let Some(slot) = self.holdback.remove(&(sender, next)) else {
                    break;
                };
                self.deliver(ctx, sender, next, slot, events);
            }
            cursor = self
                .holdback
                .range((Excluded((sender, u64::MAX)), Unbounded))
                .next()
                .map(|(&(next_sender, _), _)| next_sender);
        }
        self.advertise_on_volume(ctx);
    }

    /// The one delivery step: `seq` is the next slot of `sender`'s stream.
    /// Advances the stream, keeps the slot for retransmission and hands a
    /// real payload to the layer above.
    fn deliver(
        &mut self,
        ctx: &mut dyn Transport,
        sender: NodeId,
        seq: u64,
        slot: Slot,
        events: &mut Vec<HwgEvent>,
    ) {
        let view = self.view.as_ref().expect("delivery needs a view");
        let stream = self.streams.entry(sender).or_default();
        stream.next = seq + 1;
        // Alone in the view there is nobody to retransmit to: the message
        // is stable on delivery.
        if view.len() > 1 {
            stream.stored.push_back(slot.clone());
            self.stored_since_advert += 1;
        }
        match slot {
            // Subset-delivery marker: the slot is consumed (so FIFO,
            // stability and flush digests advance) but nothing is delivered
            // to the layer above.
            Slot::Skip => ctx.metrics().incr(keys::SUBSET_SKIPPED),
            Slot::Full(data) => {
                ctx.metrics().incr(keys::DATA_DELIVERED);
                events.push(HwgEvent::Data {
                    hwg: self.hwg,
                    view_id: view.id,
                    src: sender,
                    data,
                });
            }
        }
    }

    /// Volume trigger of the stability exchange. Every delivery — own sends
    /// included — goes through [`Self::deliver`], so this one check bounds
    /// the store on all of them.
    fn advertise_on_volume(&mut self, ctx: &mut dyn Transport) {
        if self.stored_since_advert >= STABILITY_VOLUME {
            self.advertise_stability(ctx);
        }
    }

    // ---------------- loss recovery ----------------

    /// Receiver side: detect FIFO gaps that have persisted past
    /// [`NACK_DELAY`] and ask the original sender to retransmit.
    pub(super) fn check_nacks(&mut self, ctx: &mut dyn Transport, now: SimTime) {
        if self.view.is_none() || self.delivery_frozen() {
            return;
        }
        // Which senders currently have a gap (something held back beyond
        // the expected seq)?
        let mut gapped: BTreeMap<NodeId, u64> = BTreeMap::new();
        for &(sender, seq) in self.holdback.keys() {
            if seq > self.next_expected(sender) {
                let e = gapped.entry(sender).or_insert(seq);
                *e = (*e).max(seq);
            }
        }
        self.gap_since
            .retain(|sender, _| gapped.contains_key(sender));
        for (sender, max_held) in gapped {
            let since = *self.gap_since.entry(sender).or_insert(now);
            if now.saturating_since(since) < NACK_DELAY {
                continue;
            }
            // Re-arm pacing and ask for everything missing (bounded).
            self.gap_since.insert(sender, now);
            let missing: Vec<u64> = (self.next_expected(sender)..max_held)
                .filter(|seq| !self.holdback.contains_key(&(sender, *seq)))
                .take(32)
                .collect();
            if !missing.is_empty() {
                self.nack(ctx, sender, missing);
            }
        }
    }

    /// Asks `sender` to retransmit its `missing` seqs of the current view.
    pub(super) fn nack(&self, ctx: &mut dyn Transport, sender: NodeId, missing: Vec<u64>) {
        let Some(view) = &self.view else { return };
        ctx.metrics().incr(keys::NACKS_SENT);
        ctx.emit(|| HwgTraceEvent::Nack {
            hwg: self.hwg,
            sender,
            missing: missing.clone(),
        });
        ctx.send(
            sender,
            wire::frame(&VsMsg::Nack {
                hwg: self.hwg,
                view_id: view.id,
                sender,
                missing,
            }),
        );
    }

    /// Sender side: serve a retransmission request from the local store.
    pub(super) fn on_nack(
        &mut self,
        ctx: &mut dyn Transport,
        from: NodeId,
        view_id: ViewId,
        sender: NodeId,
        missing: &[u64],
    ) {
        let Some(view) = &self.view else { return };
        if view.id != view_id || sender != self.me {
            return;
        }
        for &seq in missing {
            // A sender's own store always holds the real payload (never a
            // skip marker), so resends serve the full message.
            if let Some(slot) = self.stored(sender, seq) {
                ctx.metrics().incr(keys::NACK_RESENDS);
                ctx.send(
                    from,
                    wire::frame(&VsMsg::Data {
                        hwg: self.hwg,
                        view_id,
                        sender,
                        seq,
                        payload: slot.clone(),
                    }),
                );
            }
        }
    }

    // ---------------- stability ----------------

    /// Per member of the current view, the last seq delivered from it: the
    /// prefix this endpoint reports in flush digests and stability
    /// advertisements.
    pub(super) fn delivered_prefix(&self) -> BTreeMap<NodeId, u64> {
        let Some(view) = &self.view else {
            return BTreeMap::new();
        };
        let delivered = |&m| (m, self.next_expected(m) - 1);
        view.members.iter().map(delivered).collect()
    }

    /// Time trigger of the stability exchange: advertise once
    /// [`STABILITY_INTERVAL`] has passed since the last advertisement.
    pub(super) fn stability_tick(&mut self, ctx: &mut dyn Transport, now: SimTime) {
        if now.saturating_since(self.last_stability_sent) >= STABILITY_INTERVAL {
            self.advertise_stability(ctx);
        }
    }

    /// Advertises the delivered prefix and garbage-collects the
    /// retransmission store below the view-wide stable point. Triggered by
    /// time ([`Self::stability_tick`]) or by volume ([`STABILITY_VOLUME`]
    /// messages stored since the last advertisement), whichever is first;
    /// not while a view change is running (the flush settles the store).
    fn advertise_stability(&mut self, ctx: &mut dyn Transport) {
        let Some(view) = &self.view else { return };
        if view.len() < 2 || self.flush.is_some() || self.running.is_some() {
            return;
        }
        self.last_stability_sent = ctx.now();
        self.stored_since_advert = 0;
        let prefix = self.delivered_prefix();
        // Nothing delivered since the last advertisement: peers already
        // have this exact prefix, so the multicast (and the gc pass it
        // would trigger) is pure overhead.
        if self.stable_info.get(&self.me) == Some(&prefix) {
            ctx.metrics().incr(keys::STABILITY_SUPPRESSED);
            return;
        }
        self.stable_info.insert(self.me, prefix.clone());
        let members: Vec<NodeId> = view
            .members
            .iter()
            .copied()
            .filter(|&m| m != self.me)
            .collect();
        let view_id = view.id;
        let msg = wire::frame(&VsMsg::Stability {
            hwg: self.hwg,
            view_id,
            prefix,
        });
        self.multicast(ctx, &members, &msg);
        self.gc_store(ctx);
    }

    pub(super) fn on_stability(
        &mut self,
        ctx: &mut dyn Transport,
        from: NodeId,
        view_id: ViewId,
        prefix: &BTreeMap<NodeId, u64>,
    ) {
        let Some(view) = &self.view else { return };
        if view.id != view_id || !view.contains(from) {
            return;
        }
        // A repeated report moves no stable point: nothing to collect.
        if self.stable_info.get(&from) == Some(prefix) {
            return;
        }
        self.stable_info.insert(from, prefix.clone());
        self.gc_store(ctx);
    }

    /// Drops stored messages that every member has contiguously delivered:
    /// per sender, the prefix up to the lowest seq any member reported.
    /// Only safe once all members have reported: an unreported member's
    /// prefix is conservatively 0.
    fn gc_store(&mut self, ctx: &mut dyn Transport) {
        let Some(view) = &self.view else { return };
        if view.members.len() != self.stable_info.len() {
            return;
        }
        let mut dropped = 0;
        for (sender, stream) in &mut self.streams {
            let reported = |p: &BTreeMap<NodeId, u64>| p.get(sender).copied().unwrap_or(0);
            let stable = self.stable_info.values().map(reported).min().unwrap_or(0);
            dropped += stream.drop_through(stable);
        }
        if dropped > 0 {
            ctx.metrics().add(keys::STORE_GC, dropped as u64);
        }
    }

    // ---------------- the retransmission store ----------------

    /// The stored slot `(sender, seq)`, if delivered and not yet collected.
    pub(super) fn stored(&self, sender: NodeId, seq: u64) -> Option<&Slot> {
        let stream = self.streams.get(&sender)?;
        stream.stored.get(stream.index_of(seq)?)
    }

    /// A real payload for a slot held only as a skip marker upgrades the
    /// store, so this member can serve future pulls for it.
    pub(super) fn upgrade_stored(&mut self, sender: NodeId, seq: u64, data: Slot) {
        let stream = self.streams.get_mut(&sender);
        let held = stream.and_then(|s| s.stored.get_mut(s.index_of(seq)?));
        if let Some(slot @ Slot::Skip) = held {
            *slot = data;
        }
    }

    /// The stored `(sender, seq)` slots held only as skip markers, in key
    /// order.
    pub(super) fn thin_stored(&self) -> impl Iterator<Item = (NodeId, u64)> + '_ {
        self.streams.iter().flat_map(|(&sender, stream)| {
            (stream.oldest()..stream.next)
                .zip(&stream.stored)
                .filter(|(_, slot)| slot.is_skip())
                .map(move |(seq, _)| (sender, seq))
        })
    }

    /// Number of messages currently retained for retransmission (tests).
    pub(crate) fn store_len(&self) -> usize {
        self.streams.values().map(|s| s.stored.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_drops_its_stable_prefix_and_nothing_else() {
        let mut s = SenderStream::default();
        for seq in 1..=5 {
            s.stored.push_back(Slot::Skip);
            s.next = seq + 1;
        }
        assert_eq!(s.drop_through(0), 0, "nothing is stable yet");
        assert_eq!(s.drop_through(2), 2);
        assert_eq!(s.drop_through(2), 0, "a repeated report drops nothing");
        assert_eq!((s.oldest(), s.next), (3, 6));
        assert_eq!(s.index_of(2), None, "collected");
        assert_eq!(s.index_of(3), Some(0));
        assert_eq!(s.index_of(5), Some(2));
        assert!(
            s.stored.get(s.index_of(6).unwrap()).is_none(),
            "not delivered"
        );
        // A report beyond what was delivered cannot drop what is not there.
        assert_eq!(s.drop_through(u64::MAX), 3);
        assert_eq!((s.oldest(), s.next), (6, 6));
        assert_eq!(s.drop_through(9), 0);
    }
}
