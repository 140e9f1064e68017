//! Merge role: coordinators advertise their views with beacons; when two
//! concurrent views discover each other, the coordinator with the lower
//! node id leads a merge — every participating view flushes, reports its
//! frozen membership, and the leader installs one successor view. A member
//! that sees beacons for a view it was dropped from recovers here too.

use super::{GroupEndpoint, MergeState};
use crate::fd::FailureDetector;
use crate::msg::VsMsg;
use crate::wire;
use crate::{GroupStatus, HwgEvent};
use plwg_hwg::{keys, HwgTraceEvent, View, ViewId};
use plwg_sim::{NodeId, SimDuration, SimTime, Transport, TransportExt};
use std::collections::BTreeMap;

/// Merge-leader watchdog: on expiry the merge concludes without the
/// participants that never reported.
const MERGE_TIMEOUT: SimDuration = SimDuration::from_millis(3_000);

impl GroupEndpoint {
    /// Whether this endpoint is currently leading or contributing to a
    /// merge (used by the stack for introspection and tests).
    pub(crate) fn has_merge_in_progress(&self) -> bool {
        self.merge.is_some() || self.invited_merge_leader.is_some()
    }

    /// Sends the coordinator's view beacon (peer discovery): to everyone on
    /// the periodic tick, or `to` one peer just heard from again.
    pub(crate) fn send_beacon(
        &self,
        ctx: &mut dyn Transport,
        fd: &FailureDetector,
        to: Option<NodeId>,
    ) {
        if self.status != GroupStatus::Member && self.status != GroupStatus::Leaving {
            return;
        }
        if !self.i_am_acting_coordinator(fd) {
            return;
        }
        let view = self.view.as_ref().expect("member has a view");
        ctx.metrics().incr(keys::BEACONS);
        let beacon = wire::frame(&VsMsg::Beacon {
            hwg: self.hwg,
            view_id: view.id,
        });
        match to {
            Some(peer) => ctx.send(peer, beacon),
            None => ctx.broadcast(beacon),
        }
    }

    pub(super) fn on_beacon(
        &mut self,
        ctx: &mut dyn Transport,
        from: NodeId,
        their_view: ViewId,
        fd: &FailureDetector,
        events: &mut Vec<HwgEvent>,
    ) {
        if from == self.me || self.status != GroupStatus::Member {
            return;
        }
        let Some(view) = &self.view else { return };
        if view.id == their_view {
            self.stale_beacons = 0;
            return; // same view, nothing to merge
        }
        // Exclusion detection: a fellow member of *our* view is advertising
        // a different view. Either our NewView is still in flight (count a
        // few beacons of grace) or we were dropped by a flush restart while
        // still connected — in that case our failure detector will never
        // fire (the sender's beacons keep it happy), so we must recover
        // here: become a singleton lineage and let the merge protocol pull
        // us back in (a leaver simply completes its leave).
        if view.contains(from) {
            self.stale_beacons += 1;
            if self.stale_beacons >= 3
                && self.flush.is_none()
                && self.running.is_none()
                && !self.has_merge_in_progress()
            {
                let old_id = view.id;
                ctx.emit(|| HwgTraceEvent::Excluded {
                    hwg: self.hwg,
                    old: old_id,
                });
                if self.status == GroupStatus::Leaving {
                    self.become_left(events);
                } else {
                    let reborn = View::with_predecessors(
                        ViewId::new(self.me, self.take_view_seq()),
                        vec![self.me],
                        vec![old_id],
                    );
                    self.install_view(reborn, ctx, events);
                }
            }
            return;
        }
        if !self.i_am_acting_coordinator(fd) {
            return;
        }
        // Deterministic leadership: the lower node id drives the merge.
        if self.me.0 >= from.0 {
            return;
        }
        if self.running.is_some() || self.flush.is_some() {
            return; // busy; beacons will retry
        }
        let leader_view = view.id;
        let starting = self.merge.is_none();
        match &mut self.merge {
            // Extend an in-progress merge only before our own flush ran.
            Some(merge) if merge.my_frozen.is_some() => return,
            Some(merge) => {
                merge.participants.entry(their_view).or_insert(None);
            }
            None => {
                ctx.emit(|| HwgTraceEvent::MergeStart {
                    hwg: self.hwg,
                    leader: self.me,
                    invitee_view: their_view,
                });
                ctx.metrics().incr(keys::MERGES_STARTED);
                let mut participants = BTreeMap::new();
                participants.insert(their_view, None);
                self.merge = Some(MergeState {
                    participants,
                    my_frozen: None,
                    started_at: ctx.now(),
                });
            }
        }
        ctx.send(
            from,
            wire::frame(&VsMsg::MergeReq {
                hwg: self.hwg,
                invitee_view: their_view,
                leader_view,
            }),
        );
        if starting {
            // Flush our own view as our merge contribution.
            self.start_flush(ctx, fd, &[], 0, events);
        }
    }

    pub(super) fn on_merge_req(
        &mut self,
        ctx: &mut dyn Transport,
        from: NodeId,
        invitee_view: ViewId,
        fd: &FailureDetector,
        events: &mut Vec<HwgEvent>,
    ) {
        let stale = self.view.as_ref().map(|v| v.id) != Some(invitee_view)
            || self.status != GroupStatus::Member
            || !self.i_am_acting_coordinator(fd)
            || self.running.is_some()
            || self.flush.is_some()
            || self.merge.is_some();
        if stale {
            ctx.send(
                from,
                wire::frame(&VsMsg::MergeNack {
                    hwg: self.hwg,
                    invitee_view,
                }),
            );
            return;
        }
        ctx.emit(|| HwgTraceEvent::MergeAccept {
            hwg: self.hwg,
            leader: from,
        });
        self.invited_merge_leader = Some(from);
        self.start_flush(ctx, fd, &[], 0, events);
    }

    pub(super) fn on_merge_ready(&mut self, ctx: &mut dyn Transport, frozen: View) {
        let Some(merge) = &mut self.merge else { return };
        if let Some(slot) = merge.participants.get_mut(&frozen.id) {
            *slot = Some(frozen);
        }
        self.try_complete_merge(ctx);
    }

    pub(super) fn on_merge_nack(&mut self, ctx: &mut dyn Transport, invitee_view: ViewId) {
        if let Some(merge) = &mut self.merge {
            merge.participants.remove(&invitee_view);
        }
        self.try_complete_merge(ctx);
    }

    /// Leader watchdog: after [`MERGE_TIMEOUT`] proceed without the
    /// participants that never reported.
    pub(super) fn conclude_overdue_merge(&mut self, ctx: &mut dyn Transport, now: SimTime) {
        let Some(merge) = &mut self.merge else { return };
        if now.saturating_since(merge.started_at) >= MERGE_TIMEOUT {
            merge.participants.retain(|_, v| v.is_some());
            self.try_complete_merge(ctx);
        }
    }

    /// If the leader's own flush and every participant report are in,
    /// install the merged view everywhere.
    pub(super) fn try_complete_merge(&mut self, ctx: &mut dyn Transport) {
        let Some(merge) = &self.merge else { return };
        let Some(my_frozen) = &merge.my_frozen else {
            return;
        };
        if merge.participants.values().any(Option::is_none) {
            return;
        }
        let my_frozen = my_frozen.clone();
        let participants: Vec<View> = merge
            .participants
            .values()
            .map(|v| v.clone().expect("checked above"))
            .collect();
        self.merge = None;

        let mut members = my_frozen.members.clone();
        let mut predecessors = vec![my_frozen.id];
        for p in &participants {
            for &m in &p.members {
                if !members.contains(&m) {
                    members.push(m);
                }
            }
            predecessors.push(p.id);
        }
        let view = View::with_predecessors(
            ViewId::new(self.me, self.take_view_seq()),
            members,
            predecessors,
        );
        ctx.emit(|| HwgTraceEvent::MergeComplete {
            hwg: self.hwg,
            view: view.clone(),
        });
        ctx.metrics().incr(keys::MERGES_COMPLETED);
        self.distribute_view(ctx, &view);
    }
}
