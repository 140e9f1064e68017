//! Data-plane role: view-tagged FIFO multicast, the hold-back queue, NACK
//! loss recovery, and the stability exchange that garbage-collects the
//! retransmission store.

use super::GroupEndpoint;
use crate::msg::{Slot, VsMsg};
use crate::wire;
use crate::{GroupStatus, VsEvent};
use plwg_hwg::{keys, HwgTraceEvent, ViewId};
use plwg_sim::{NodeId, Payload, SimDuration, SimTime, Transport, TransportExt};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Bound::{Excluded, Unbounded};

/// NACK watchdog: how long a FIFO gap may sit in the hold-back queue before
/// the receiver asks the sender to retransmit. Without NACKs a message lost
/// mid-view would block its sender's stream until the next flush.
const NACK_DELAY: SimDuration = SimDuration::from_millis(200);
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
    /// regardless of `targets`, so NACK retransmissions always serve the
    /// real message. Sends after the digest went out are buffered and
    /// released in the next view as *full* multicasts (the subset is an
    /// optimisation, never required for correctness).
    pub(crate) fn send_payload(
        &mut self,
        ctx: &mut dyn Transport,
        targets: Option<&BTreeSet<NodeId>>,
        data: Payload,
        events: &mut Vec<VsEvent>,
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
        for &m in &view.members {
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
        self.holdback.insert((self.me, seq), Slot::Full(data));
        self.try_drain(ctx, events);
    }

    pub(super) fn on_data(
        &mut self,
        ctx: &mut dyn Transport,
        view_id: ViewId,
        sender: NodeId,
        seq: u64,
        data: Slot,
        events: &mut Vec<VsEvent>,
    ) {
        let Some(view) = &self.view else { return };
        if view.id != view_id {
            // Sent in a different (older or concurrent) view: never
            // delivered here (paper §5.1).
            ctx.metrics().incr(keys::DATA_FOREIGN_VIEW);
            return;
        }
        if seq < self.next_expected(sender) || self.store.contains_key(&(sender, seq)) {
            ctx.metrics().incr(keys::DATA_DUP);
            return;
        }
        self.holdback.insert((sender, seq), data);
        self.try_drain(ctx, events);
        self.check_flush_target_reached(ctx);
    }

    /// Delivers from the hold-back queue every message that is in FIFO
    /// order and allowed by the current flush phase.
    pub(super) fn try_drain(&mut self, ctx: &mut dyn Transport, events: &mut Vec<VsEvent>) {
        if self.delivery_frozen() {
            return;
        }
        let Some(view) = &self.view else { return };
        let view_id = view.id;
        let target = self.flush.as_ref().and_then(|f| f.target.clone());
        // Senders in ascending order; for each, the run of consecutive
        // messages starting at its next expected seq.
        let mut cursor = self.holdback.keys().next().map(|&(sender, _)| sender);
        while let Some(sender) = cursor {
            loop {
                let next = self.next_expected(sender);
                // During the fill phase deliver only up to the agreed target.
                if let Some(t) = &target {
                    if next > t.get(&sender).copied().unwrap_or(0) {
                        break;
                    }
                }
                let Some(slot) = self.holdback.remove(&(sender, next)) else {
                    break;
                };
                self.expected.insert(sender, next + 1);
                self.store.insert((sender, next), slot.clone());
                self.stored_since_advert += 1;
                match slot {
                    Slot::Skip => {
                        // Subset-delivery marker: the slot is consumed
                        // (so FIFO, stability and flush digests advance)
                        // but nothing is delivered to the layer above.
                        self.thin_held.insert((sender, next));
                        ctx.metrics().incr(keys::SUBSET_SKIPPED);
                    }
                    Slot::Full(data) => {
                        ctx.metrics().incr(keys::DATA_DELIVERED);
                        events.push(VsEvent::Data {
                            hwg: self.hwg,
                            view_id,
                            src: sender,
                            data,
                        });
                    }
                }
            }
            cursor = self
                .holdback
                .range((Excluded((sender, u64::MAX)), Unbounded))
                .next()
                .map(|(&(next_sender, _), _)| next_sender);
        }
        // Every delivery — own sends included — stores its message just
        // above, so this one check bounds the store on all of them.
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
            if missing.is_empty() {
                continue;
            }
            let view_id = self.view.as_ref().expect("checked").id;
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
                    view_id,
                    sender,
                    missing,
                }),
            );
        }
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
            if let Some(slot) = self.store.get(&(sender, seq)) {
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
        self.stable_info.insert(from, prefix.clone());
        self.gc_store(ctx);
    }

    /// Drops stored messages that every member has contiguously delivered.
    /// Only safe once all members have reported: an unreported member's
    /// prefix is conservatively 0.
    fn gc_store(&mut self, ctx: &mut dyn Transport) {
        let Some(view) = &self.view else { return };
        if view.members.len() != self.stable_info.len() {
            return;
        }
        let mut stable: BTreeMap<NodeId, u64> = BTreeMap::new();
        for &sender in &view.members {
            let min = view
                .members
                .iter()
                .map(|m| {
                    self.stable_info
                        .get(m)
                        .and_then(|p| p.get(&sender))
                        .copied()
                        .unwrap_or(0)
                })
                .min()
                .unwrap_or(0);
            stable.insert(sender, min);
        }
        let before = self.store.len();
        self.store
            .retain(|(sender, seq), _| *seq > stable.get(sender).copied().unwrap_or(0));
        self.thin_held
            .retain(|(sender, seq)| *seq > stable.get(sender).copied().unwrap_or(0));
        let dropped = before - self.store.len();
        if dropped > 0 {
            ctx.metrics().add(keys::STORE_GC, dropped as u64);
        }
    }

    /// Number of messages currently retained for retransmission (tests).
    pub(crate) fn store_len(&self) -> usize {
        self.store.len()
    }
}
