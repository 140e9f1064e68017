//! Flush role: the protocol that closes a view with every member having
//! delivered the same set of messages (virtual synchrony).
//!
//! ```text
//!  initiator                         members (the reporters)
//!     | -- FlushReq(proposed) ---------> |   Stop upcall; sends reach only
//!     |                                  |   the proposed reporters
//!     | <-- FlushDigest(prefix,extras) - |   (after StopOk; later sends wait)
//!     |   compute target T, holders      |
//!     | -- FlushTarget(T) -------------> |   short of a reporter's seqs:
//!     |                                  |   Nack(missing) --> that reporter,
//!     |                                  |   which resends them (re-asked
//!     |                                  |   every NACK_DELAY while short)
//!     | -- FlushPull(missing) --> holder |   non-reporters' seqs only; the
//!     |                                  |   holder multicasts FlushFill
//!     |                                  |   to the reporters
//!     | <-- FlushDone ------------------ |   once delivered == T
//!     | -- NewView -------------------->  |   install, resume
//! ```
//!
//! Every member of the closing view delivers *exactly* the target set
//! before installing the successor view, which is the virtual-synchrony
//! guarantee ("all processes that install two consecutive views deliver the
//! same set of messages between these views"). Repair is receiver-driven:
//! a reporter's digest covers its own stream with the real payloads, so a
//! member short of it asks the reporter, and the initiator pulls only the
//! messages of senders that did not report. The member side comes first
//! below, the initiator side second.

use super::data::NACK_DELAY;
use super::{GroupEndpoint, MemberFlush, RunningFlush};
use crate::fd::FailureDetector;
use crate::msg::{FlushId, FlushPurpose, Slot, VsMsg};
use crate::wire;
use crate::{GroupStatus, VsEvent};
use plwg_hwg::{keys, HwgTraceEvent, View, ViewId};
use plwg_sim::{NodeId, SimDuration, SimTime, Transport, TransportExt};
use std::collections::{BTreeMap, BTreeSet};

/// Flush watchdog: an initiator restarts a flush round that has run this
/// long (the second time without the stragglers); a member abandons a flush
/// whose initiator has been silent for twice as long.
pub(super) const FLUSH_TIMEOUT: SimDuration = SimDuration::from_millis(1_500);

impl GroupEndpoint {
    // ---------------- member side ----------------

    pub(super) fn on_flush_req(
        &mut self,
        ctx: &mut dyn Transport,
        from: NodeId,
        view_id: ViewId,
        flush: FlushId,
        proposed: &[NodeId],
        events: &mut Vec<VsEvent>,
    ) {
        let Some(view) = &self.view else { return };
        if view.id != view_id || !view.contains(from) {
            return;
        }
        let new_rank = view.rank(from).expect("checked contains");
        if let Some(current) = &self.flush {
            let cur_rank = view.rank(current.flush.initiator).unwrap_or(usize::MAX);
            let supersedes = new_rank < cur_rank
                || (current.flush.initiator == from && flush.nonce > current.flush.nonce);
            if !supersedes {
                return;
            }
        }
        ctx.emit(|| HwgTraceEvent::FlushMember {
            hwg: self.hwg,
            flush,
            from,
        });
        self.flush = Some(MemberFlush {
            flush,
            reporters: proposed.to_vec(),
            awaiting_stop_ok: true,
            digest_sent: false,
            target: None,
            asked_at: None,
            done_sent: false,
            started_at: ctx.now(),
        });
        events.push(VsEvent::Stop { hwg: self.hwg });
    }

    /// Owner acknowledges the `Stop` upcall (or `auto_stop_ok` does, on
    /// its behalf); the digest can now be sent.
    pub(crate) fn stop_ok(&mut self, ctx: &mut dyn Transport) {
        let Some(f) = &mut self.flush else { return };
        if f.awaiting_stop_ok {
            f.awaiting_stop_ok = false;
            self.send_digest(ctx);
        }
    }

    fn send_digest(&mut self, ctx: &mut dyn Transport) {
        let Some(f) = &mut self.flush else { return };
        if f.digest_sent {
            return;
        }
        f.digest_sent = true;
        let initiator = f.flush.initiator;
        let flush = f.flush;
        let extras: Vec<(NodeId, u64)> = self.holdback.keys().copied().collect();
        // Marker-held slots: consumed markers plus markers still in the
        // hold-back queue. The initiator steers pulls away from these.
        let mut thin: Vec<(NodeId, u64)> = self.thin_stored().collect();
        thin.extend(
            self.holdback
                .iter()
                .filter(|(_, d)| d.is_skip())
                .map(|(&k, _)| k),
        );
        ctx.send(
            initiator,
            wire::frame(&VsMsg::FlushDigest {
                hwg: self.hwg,
                flush,
                prefix: self.delivered_prefix(),
                extras,
                thin,
            }),
        );
    }

    pub(super) fn on_flush_target(
        &mut self,
        ctx: &mut dyn Transport,
        flush: FlushId,
        target: BTreeMap<NodeId, u64>,
        events: &mut Vec<VsEvent>,
    ) {
        let Some(f) = &mut self.flush else { return };
        if f.flush != flush || f.target.is_some() {
            return;
        }
        f.target = Some(target.clone());
        // Discard held-back messages beyond the agreed set.
        self.holdback
            .retain(|(s, seq), _| *seq <= target.get(s).copied().unwrap_or(0));
        self.try_drain(ctx, events);
        self.check_flush_target_reached(ctx);
        self.ask_reporters(ctx);
    }

    /// Asks each reporter this member is still short of at the target for
    /// the missing messages, with one `Nack` apiece. A reporter delivered
    /// every message it sent when it sent it, sends nothing after its
    /// digest, and keeps each message until it is stable, so it always
    /// holds the real payload (`on_nack` resends it); the initiator pulls
    /// only the messages of senders that did not report.
    fn ask_reporters(&mut self, ctx: &mut dyn Transport) {
        let Some(f) = &self.flush else { return };
        let Some(target) = f.target.as_ref().filter(|_| !f.done_sent) else {
            return;
        };
        for &sender in &f.reporters {
            let upto = target.get(&sender).copied().unwrap_or(0);
            let missing: Vec<u64> = (self.next_expected(sender)..=upto)
                .filter(|&seq| !self.holdback.contains_key(&(sender, seq)))
                .collect();
            if !missing.is_empty() {
                self.nack(ctx, sender, missing);
            }
        }
        let now = ctx.now();
        if let Some(f) = &mut self.flush {
            f.asked_at = Some(now);
        }
    }

    /// Re-asks the reporters, [`NACK_DELAY`] after the last ask, while this
    /// member is still short of the target (the ask or its answer was
    /// lost). The flush watchdog stays the backstop.
    pub(super) fn reask_reporters(&mut self, ctx: &mut dyn Transport, now: SimTime) {
        let due = self
            .flush
            .as_ref()
            .and_then(|f| f.asked_at)
            .is_some_and(|at| now.saturating_since(at) >= NACK_DELAY);
        if due {
            self.ask_reporters(ctx);
        }
    }

    pub(super) fn on_flush_pull(&mut self, ctx: &mut dyn Transport, wants: &[(NodeId, u64)]) {
        let Some(view) = &self.view else { return };
        let view_id = view.id;
        for &(sender, seq) in wants {
            let slot = self
                .stored(sender, seq)
                .or_else(|| self.holdback.get(&(sender, seq)))
                .cloned();
            if let Some(slot) = slot {
                ctx.metrics().incr(keys::FLUSH_FILLS);
                let msg = wire::frame(&VsMsg::FlushFill {
                    hwg: self.hwg,
                    view_id,
                    sender,
                    seq,
                    payload: slot,
                });
                self.multicast(ctx, self.audience(), &msg);
            }
        }
    }

    pub(super) fn on_flush_fill(
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
            return;
        }
        if seq < self.next_expected(sender) {
            self.upgrade_stored(sender, seq, data);
            return;
        }
        // Respect the target if known; otherwise hold.
        if let Some(f) = &self.flush {
            if let Some(t) = &f.target {
                if seq > t.get(&sender).copied().unwrap_or(0) {
                    return;
                }
            }
        }
        self.accept(ctx, sender, seq, data, events);
    }

    /// Sends `FlushDone` once the delivered prefix matches the target.
    pub(super) fn check_flush_target_reached(&mut self, ctx: &mut dyn Transport) {
        let Some(f) = &self.flush else { return };
        let Some(target) = &f.target else { return };
        if f.done_sent {
            return;
        }
        let reached = target.iter().all(|(&s, &t)| self.next_expected(s) > t);
        if reached {
            let initiator = f.flush.initiator;
            let flush = f.flush;
            if let Some(f) = &mut self.flush {
                f.done_sent = true;
            }
            ctx.send(
                initiator,
                wire::frame(&VsMsg::FlushDone {
                    hwg: self.hwg,
                    flush,
                }),
            );
        }
    }

    /// Member-side watchdog: an initiator that vanished leaves us frozen;
    /// abandon and let the acting-coordinator rule recover.
    pub(super) fn abandon_orphaned_flush(
        &mut self,
        ctx: &mut dyn Transport,
        now: SimTime,
        fd: &FailureDetector,
        events: &mut Vec<VsEvent>,
    ) {
        let Some(f) = &self.flush else { return };
        if now.saturating_since(f.started_at) < FLUSH_TIMEOUT.saturating_mul(2) {
            return;
        }
        ctx.emit(|| HwgTraceEvent::FlushAbandon { hwg: self.hwg });
        self.flush = None;
        self.merge = None;
        self.invited_merge_leader = None;
        self.maybe_start_flush(ctx, fd, events);
    }

    // ---------------- initiator side ----------------

    /// Forces a no-change flush of the current view (used by the LWG
    /// layer's merge-views protocol as a synchronisation barrier, paper
    /// Figure 5). Only the acting coordinator honours it; ignored while
    /// another flush or merge is in progress.
    pub(crate) fn force_flush(
        &mut self,
        ctx: &mut dyn Transport,
        fd: &FailureDetector,
        events: &mut Vec<VsEvent>,
    ) {
        if self.running.is_some()
            || self.flush.is_some()
            || self.has_merge_in_progress()
            || self.view.is_none()
            || self.status != GroupStatus::Member
            || !self.i_am_acting_coordinator(fd)
        {
            return;
        }
        self.start_flush(ctx, fd, &[], 0, events);
    }

    /// Starts a flush if this node should coordinate one and there is a
    /// reason to (suspected member, pending join/leave).
    pub(super) fn maybe_start_flush(
        &mut self,
        ctx: &mut dyn Transport,
        fd: &FailureDetector,
        events: &mut Vec<VsEvent>,
    ) {
        if self.running.is_some() || self.view.is_none() || self.has_merge_in_progress() {
            return;
        }
        if self.status != GroupStatus::Member && self.status != GroupStatus::Leaving {
            return;
        }
        if !self.i_am_acting_coordinator(fd) {
            return;
        }
        let view = self.view.as_ref().expect("checked");
        let suspected: Vec<NodeId> = view
            .members
            .iter()
            .copied()
            .filter(|&m| m != self.me && fd.is_suspected(m))
            .collect();
        let has_joiners = self.pending_joins.iter().any(|j| !view.contains(*j));
        let has_leavers = self.pending_leaves.iter().any(|l| view.contains(*l));
        if suspected.is_empty() && !has_joiners && !has_leavers {
            return;
        }
        self.start_flush(ctx, fd, &suspected, 0, events);
    }

    fn take_flush_nonce(&mut self) -> u64 {
        self.next_flush_nonce += 1;
        self.next_flush_nonce
    }

    /// Starts a flush round excluding `excluded` (plus FD-suspected
    /// members); `attempts` counts the watchdog restarts that led to it.
    pub(super) fn start_flush(
        &mut self,
        ctx: &mut dyn Transport,
        fd: &FailureDetector,
        excluded: &[NodeId],
        attempts: u32,
        events: &mut Vec<VsEvent>,
    ) {
        let Some(view) = self.view.clone() else {
            return;
        };
        let reporters: Vec<NodeId> = view
            .members
            .iter()
            .copied()
            .filter(|&m| m == self.me || (!fd.is_suspected(m) && !excluded.contains(&m)))
            .collect();
        let survivors: Vec<NodeId> = reporters
            .iter()
            .copied()
            .filter(|m| !self.pending_leaves.contains(m))
            .collect();
        let joiners: Vec<NodeId> = self
            .pending_joins
            .iter()
            .copied()
            .filter(|j| !view.contains(*j))
            .collect();

        if survivors.is_empty() {
            // Only leavers remain (e.g. a sole member leaving) — dissolve.
            self.become_left(events);
            return;
        }

        let flush = FlushId {
            initiator: self.me,
            nonce: self.take_flush_nonce(),
        };
        let purpose = if self.merge.is_some() || self.invited_merge_leader.is_some() {
            FlushPurpose::Merge {
                leader: self.invited_merge_leader.unwrap_or(self.me),
            }
        } else {
            FlushPurpose::ViewChange
        };
        ctx.emit(|| HwgTraceEvent::FlushStart {
            hwg: self.hwg,
            flush,
            note: format!("purpose {purpose:?} reporters {reporters:?} joiners {joiners:?}"),
        });
        ctx.metrics().incr(keys::FLUSHES);
        self.running = Some(RunningFlush {
            flush,
            purpose,
            attempts,
            reporters: reporters.clone(),
            survivors,
            joiners,
            digests: BTreeMap::new(),
            target_sent: false,
            done: BTreeSet::new(),
            started_at: ctx.now(),
        });
        let msg = wire::frame(&VsMsg::FlushReq {
            hwg: self.hwg,
            view_id: view.id,
            flush,
            proposed: reporters.clone(),
            purpose,
        });
        self.multicast(ctx, &reporters, &msg);
    }

    /// Initiator watchdog: a stuck flush is retried once with the same
    /// membership (a lost protocol message is the common cause under
    /// loss); if it stalls again, the non-reporters are excluded.
    pub(super) fn restart_stalled_flush(
        &mut self,
        ctx: &mut dyn Transport,
        now: SimTime,
        fd: &FailureDetector,
        events: &mut Vec<VsEvent>,
    ) {
        let Some(running) = &self.running else { return };
        if now.saturating_since(running.started_at) < FLUSH_TIMEOUT {
            return;
        }
        let attempts = running.attempts;
        let responders: BTreeSet<NodeId> = running
            .digests
            .keys()
            .chain(running.done.iter())
            .copied()
            .collect();
        let stragglers: Vec<NodeId> = if attempts == 0 {
            Vec::new()
        } else {
            running
                .reporters
                .iter()
                .copied()
                .filter(|m| !responders.contains(m) && *m != self.me)
                .collect()
        };
        ctx.emit(|| HwgTraceEvent::FlushRestart {
            hwg: self.hwg,
            attempt: u64::from(attempts) + 1,
            stragglers: stragglers.clone(),
        });
        self.running = None;
        self.start_flush(ctx, fd, &stragglers, attempts + 1, events);
    }

    pub(super) fn on_flush_digest(
        &mut self,
        ctx: &mut dyn Transport,
        from: NodeId,
        flush: FlushId,
        prefix: &BTreeMap<NodeId, u64>,
        extras: &[(NodeId, u64)],
        thin: &[(NodeId, u64)],
    ) {
        let Some(running) = &mut self.running else {
            return;
        };
        if running.flush != flush || running.target_sent {
            return;
        }
        if !running.reporters.contains(&from) {
            return;
        }
        running.digests.insert(
            from,
            crate::flushcalc::Digest::new(prefix.clone(), extras.to_vec(), thin.to_vec()),
        );
        if running.digests.len() == running.reporters.len() {
            self.compute_and_send_target(ctx);
        }
    }

    /// With all digests in hand: compute the delivery target (the largest
    /// gap-free prefix of messages *somebody* holds), request fills for
    /// members that lack part of it, and announce it.
    fn compute_and_send_target(&mut self, ctx: &mut dyn Transport) {
        let Some(running) = &mut self.running else {
            return;
        };
        running.target_sent = true;
        let flush = running.flush;
        let reporters = running.reporters.clone();
        let plan = crate::flushcalc::compute_plan(&running.digests);

        ctx.emit(|| HwgTraceEvent::FlushTarget {
            hwg: self.hwg,
            flush,
            note: format!("target {:?}", plan.target),
        });
        let tmsg = wire::frame(&VsMsg::FlushTarget {
            hwg: self.hwg,
            flush,
            target: plan.target,
        });
        self.multicast(ctx, &reporters, &tmsg);
        for (holder, wants) in plan.pulls {
            ctx.send(
                holder,
                wire::frame(&VsMsg::FlushPull {
                    hwg: self.hwg,
                    flush,
                    wants,
                }),
            );
        }
    }

    pub(super) fn on_flush_done(&mut self, ctx: &mut dyn Transport, from: NodeId, flush: FlushId) {
        let Some(running) = &mut self.running else {
            return;
        };
        if running.flush != flush || !running.reporters.contains(&from) {
            return;
        }
        running.done.insert(from);
        if running.done.len() == running.reporters.len() {
            self.conclude_flush(ctx);
        }
    }

    /// All members reached the target: either install the successor view
    /// (ordinary view change) or freeze and report to the merge leader.
    fn conclude_flush(&mut self, ctx: &mut dyn Transport) {
        let Some(running) = self.running.take() else {
            return;
        };
        let took = ctx.now().saturating_since(running.started_at);
        ctx.metrics()
            .observe(keys::FLUSH_DURATION, took.as_micros());
        let old_view = self.view.clone().expect("flushing requires a view");
        match running.purpose {
            FlushPurpose::ViewChange => {
                let mut members = running.survivors.clone();
                let mut joiners = running.joiners.clone();
                joiners.sort_unstable();
                members.extend(joiners);
                let view = View::with_predecessors(
                    ViewId::new(self.me, self.take_view_seq()),
                    members,
                    vec![old_view.id],
                );
                // Excluded reporters (leavers) also learn the outcome, so a
                // leave completes with a view that omits the leaver.
                let extra: Vec<NodeId> = running
                    .reporters
                    .iter()
                    .copied()
                    .filter(|r| !view.contains(*r))
                    .collect();
                self.distribute_view(ctx, &view);
                let msg = wire::frame(&VsMsg::NewView {
                    hwg: self.hwg,
                    view: view.clone(),
                });
                self.multicast(ctx, &extra, &msg);
            }
            FlushPurpose::Merge { leader } => {
                let frozen = View::with_predecessors(
                    old_view.id,
                    running.survivors.clone(),
                    old_view.predecessors.clone(),
                );
                if leader == self.me {
                    if let Some(merge) = &mut self.merge {
                        merge.my_frozen = Some(frozen);
                    }
                    self.try_complete_merge(ctx);
                } else {
                    ctx.send(
                        leader,
                        wire::frame(&VsMsg::MergeReady {
                            hwg: self.hwg,
                            view: frozen,
                        }),
                    );
                    // `invited_merge_leader` stays set until the leader's
                    // NewView installs (or the watchdog clears it), so no
                    // conflicting flush starts in the meantime.
                }
            }
        }
    }

    /// Sends `NewView` to every member of `view` (the initiator installs
    /// its own copy through the loop-back delivery).
    pub(super) fn distribute_view(&mut self, ctx: &mut dyn Transport, view: &View) {
        ctx.emit(|| HwgTraceEvent::ViewDistribute {
            hwg: self.hwg,
            view: view.clone(),
        });
        let msg = wire::frame(&VsMsg::NewView {
            hwg: self.hwg,
            view: view.clone(),
        });
        self.multicast(ctx, &view.members, &msg);
    }
}
