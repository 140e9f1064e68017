//! Naming-service interaction and the LWG→HWG mapping policies: the join
//! flow (paper §3.1 and Table 2), MULTIPLE-MAPPINGS reconciliation (§6.2
//! step 2), the housekeeping tick, the Figure-1 interference/share rules,
//! and the shrink rule that releases idle HWGs.
//!
//! Every question this module used to answer by scanning the whole LWG
//! table ("which joins are due?", "who is leaving?", "is this HWG still
//! in use?") is now an indexed [`crate::directory`] query.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use crate::directory::HwgLoad;
use crate::keys;
use crate::msg::LwgMsg;
use crate::policy::{self, PolicyAction};
use crate::protocol_events::LwgProtocolEvent;
use crate::service::LwgService;
use crate::state::{LwgState, NsPurpose, Phase};
use crate::wire;
use plwg_hwg::{GroupStatus, HwgId, HwgSubstrate, ViewId};
use plwg_naming::{LwgId, Mapping, NsEvent};
use plwg_sim::{NodeId, SimDuration, Transport, TransportExt};
use std::collections::BTreeSet;

/// Admission retries (one per `lwg_join_timeout`) before a joiner founds
/// its own LWG view.
const LWG_JOIN_RETRIES: u32 = 2;
/// Watchdog for LWG-level flushes and switches: on expiry the coordinator
/// restarts and stuck members fall back to re-joining.
const LWG_FLUSH_TIMEOUT: SimDuration = SimDuration::from_secs(3);

impl<S: HwgSubstrate> LwgService<S> {
    // ------------------------------------------------------------------
    // Naming events: join lookups and MULTIPLE-MAPPINGS reconciliation
    // ------------------------------------------------------------------

    pub(crate) fn handle_ns_event(&mut self, ctx: &mut dyn Transport, ev: NsEvent) {
        match ev {
            NsEvent::Reply { req, lwg, mappings } => match self.ns_lookups.remove(&req) {
                Some((_, NsPurpose::JoinLookup)) => self.continue_join(ctx, lwg, &mappings),
                Some((_, NsPurpose::FoundClaim)) => self.resolve_found_claim(ctx, lwg, &mappings),
                Some((_, NsPurpose::Poll)) if mappings.len() > 1 => {
                    self.reconcile(ctx, lwg, &mappings);
                }
                Some((_, NsPurpose::Poll)) | None => {}
            },
            NsEvent::MultipleMappings { lwg, mappings } => {
                self.reconcile(ctx, lwg, &mappings);
            }
        }
    }

    /// Join step 2: the naming lookup answered; pick the target HWG.
    fn continue_join(&mut self, ctx: &mut dyn Transport, lwg: LwgId, mappings: &[Mapping]) {
        let Some(state) = self.dir.get(lwg) else {
            return;
        };
        if state.phase != Phase::ReadingNs {
            return;
        }
        if let Some(best) = mappings.iter().max_by_key(|m| m.hwg) {
            // Follow the recorded mapping (reconciliation rule picks the
            // highest HWG id when several exist).
            let hwg = best.hwg;
            self.begin_hwg_join(ctx, lwg, hwg, false);
        } else if let Some(&fwd) = self.forward.get(&lwg) {
            self.begin_hwg_join(ctx, lwg, fwd, false);
        } else {
            // No mapping anywhere: optimistic placement — reuse an HWG we
            // are already in (preferring the least-loaded one that carries
            // our LWGs over idle leftovers; highest id breaks ties, which
            // is the pre-directory behaviour when loads are equal), else
            // allocate a fresh one.
            let member_hwgs = self.hwgs();
            let candidates: Vec<HwgLoad> = member_hwgs
                .iter()
                .copied()
                .filter(|&h| self.dir.hwg_in_use(h))
                .map(|h| self.dir.load_of(h))
                .collect();
            let existing =
                policy::placement_rule(&candidates).or_else(|| member_hwgs.into_iter().max());
            match existing {
                Some(hwg) => self.begin_hwg_join(ctx, lwg, hwg, false),
                None => {
                    let hwg = self.dir.alloc_hwg_id();
                    self.begin_hwg_join(ctx, lwg, hwg, true);
                }
            }
        }
    }

    pub(crate) fn begin_hwg_join(
        &mut self,
        ctx: &mut dyn Transport,
        lwg: LwgId,
        hwg: HwgId,
        create: bool,
    ) {
        let deadline = ctx.now() + self.cfg.lwg_join_timeout;
        let Some(mut state) = self.dir.get_mut(lwg) else {
            return;
        };
        state.phase = Phase::JoiningHwg {
            deadline,
            attempts: 0,
        };
        state.hwg = Some(hwg);
        drop(state);
        match self.substrate.status_of(hwg) {
            GroupStatus::Left => {
                if create {
                    self.substrate.create(ctx, hwg);
                } else {
                    self.substrate.join(ctx, hwg);
                }
            }
            GroupStatus::Member => {
                if self
                    .substrate
                    .view_of(hwg)
                    .is_some_and(|v| v.contains(self.me))
                {
                    self.request_admission(ctx, lwg, hwg);
                }
            }
            GroupStatus::Joining | GroupStatus::Leaving => {}
        }
    }

    /// Join step 3: we are an HWG member; ask the LWG coordinator (if any)
    /// to admit us.
    pub(crate) fn request_admission(&mut self, ctx: &mut dyn Transport, lwg: LwgId, hwg: HwgId) {
        let deadline = ctx.now() + self.cfg.lwg_join_timeout;
        let Some(mut state) = self.dir.get_mut(lwg) else {
            return;
        };
        let attempts = state.phase.join_mut().map_or(0, |(_, a)| *a);
        state.phase = Phase::AwaitingAdmission { deadline, attempts };
        drop(state);
        self.substrate
            .send(ctx, hwg, wire::frame(&LwgMsg::JoinReq { lwg }));
    }

    /// Join fallback, part 1: nobody admitted us — claim the mapping with
    /// `ns.testset` (paper Table 2) *before* founding a view. If another
    /// founder won the race we follow its mapping instead of creating a
    /// competing view.
    fn claim_founding(&mut self, ctx: &mut dyn Transport, lwg: LwgId) {
        let Some(state) = self.dir.get(lwg) else {
            return;
        };
        let Some(hwg) = state.hwg else { return };
        let planned = ViewId::new(self.me, state.next_view_seq + 1);
        let Some(hview) = self.substrate.view_of(hwg) else {
            return;
        };
        let mapping = Mapping {
            lwg_view: planned,
            members: vec![self.me],
            hwg,
            hwg_view: hview.id,
        };
        ctx.emit(|| LwgProtocolEvent::Claim { lwg, planned, hwg });
        let req = self.ns.testset(ctx, lwg, mapping, vec![]);
        self.ns_lookups.insert(req, (lwg, NsPurpose::FoundClaim));
    }

    /// Join fallback, part 2: the test-and-set answered.
    fn resolve_found_claim(&mut self, ctx: &mut dyn Transport, lwg: LwgId, mappings: &[Mapping]) {
        let Some(state) = self.dir.get(lwg) else {
            return;
        };
        if !matches!(state.phase, Phase::AwaitingAdmission { .. }) {
            return;
        }
        let won = mappings
            .iter()
            .any(|m| m.lwg_view.coordinator == self.me && state.hwg == Some(m.hwg));
        if won {
            self.found_lwg_view(ctx, lwg);
        } else if let Some(best) = mappings.iter().max_by_key(|m| m.hwg) {
            // Someone else holds the mapping: follow it.
            self.begin_hwg_join(ctx, lwg, best.hwg, false);
        }
    }

    /// Installs the group's founding (singleton) view on the target HWG.
    fn found_lwg_view(&mut self, ctx: &mut dyn Transport, lwg: LwgId) {
        let Some(mut state) = self.dir.get_mut(lwg) else {
            return;
        };
        let Some(hwg) = state.hwg else { return };
        let seq = state.take_view_seq();
        drop(state);
        let view = plwg_hwg::View::initial(ViewId::new(self.me, seq), vec![self.me]);
        ctx.emit(|| LwgProtocolEvent::Found {
            lwg,
            view: view.clone(),
            hwg,
        });
        self.install_lwg_view(ctx, lwg, view, hwg);
        // Concurrent founders on the same HWG merge via Fig. 5.
        self.trigger_merge_views(ctx, hwg);
    }

    /// Step 2 of partition healing (paper §6.2): on MULTIPLE-MAPPINGS, the
    /// coordinator of each concurrent view switches deterministically to
    /// the HWG with the **highest group identifier**.
    fn reconcile(&mut self, ctx: &mut dyn Transport, lwg: LwgId, mappings: &[Mapping]) {
        ctx.metrics().incr(keys::RECONCILIATIONS);
        let Some(target) = mappings.iter().map(|m| m.hwg).max() else {
            return;
        };
        if self.lwg_coordinator(lwg) != Some(self.me) {
            return;
        }
        let Some(state) = self.dir.get(lwg) else {
            return;
        };
        if !state
            .view
            .as_ref()
            .is_some_and(|v| mappings.iter().any(|m| m.lwg_view == v.id))
        {
            // The callback predates our view: its registration brings a
            // fresh one if the group is still inconsistent.
            return;
        }
        // A mapping of an ancestor of our view is stale: its name server
        // missed the views between. Tombstone it and act on nothing else:
        // an HWG flush would re-register every mapping, and call back again.
        let mut stale = false;
        for m in mappings
            .iter()
            .filter(|m| state.history.contains(&m.lwg_view))
        {
            self.ns.unset(ctx, lwg, m.lwg_view);
            stale = true;
        }
        if stale {
            return;
        }
        let current = state.hwg;
        if current == Some(target) {
            // We are already on the winning HWG. A MERGE-VIEWS barrier only
            // helps once the other views' members actually share our HWG
            // view; before that (the HWG itself is still partitioned or
            // mid-merge) it would just churn flushes.
            let others_present = {
                let hview = self.substrate.view_of(target);
                mappings.iter().all(|m| {
                    m.members
                        .iter()
                        .all(|mm| hview.is_some_and(|v| v.contains(*mm)))
                })
            };
            if others_present {
                self.trigger_merge_views(ctx, target);
            }
        } else {
            ctx.emit(|| LwgProtocolEvent::Reconcile {
                lwg,
                current,
                target,
            });
            self.start_switch(ctx, lwg, target, false);
        }
    }

    /// A `Redirect` forward pointer arrived: our mapping information was
    /// outdated — retarget the join.
    pub(crate) fn handle_redirect(&mut self, ctx: &mut dyn Transport, lwg: LwgId, to: HwgId) {
        let retarget = self.dir.get(lwg).is_some_and(|s| {
            matches!(
                s.phase,
                Phase::JoiningHwg { .. } | Phase::AwaitingAdmission { .. }
            ) && s.hwg != Some(to)
        });
        if retarget {
            ctx.metrics().incr(keys::REDIRECTS_FOLLOWED);
            ctx.emit(|| LwgProtocolEvent::Redirect { lwg, to });
            self.begin_hwg_join(ctx, lwg, to, false);
        }
    }

    // ------------------------------------------------------------------
    // Housekeeping tick
    // ------------------------------------------------------------------

    pub(crate) fn tick(&mut self, ctx: &mut dyn Transport) {
        let now = ctx.now();

        // Join deadlines: retry admission, then found our own view. The
        // phase index narrows the candidates; the deadline filter runs on
        // the (few) joiners only.
        for lwg in self.dir.joining() {
            let Ok(mut state) = self.dir.record(lwg) else {
                continue;
            };
            let joining = matches!(state.phase, Phase::JoiningHwg { .. });
            let hwg = state.hwg;
            let Some((deadline, attempts)) = state.phase.join_mut() else {
                continue;
            };
            if now < *deadline {
                continue;
            }
            // Each step below (waiting for HWG membership, asking for
            // admission, claiming the mapping) gets one more timeout.
            *deadline = now + self.cfg.lwg_join_timeout;
            *attempts += 1;
            let attempts = *attempts;
            let in_hwg = hwg.filter(|&h| {
                self.substrate
                    .view_of(h)
                    .is_some_and(|v| v.contains(self.me))
            });
            let Some(hwg) = in_hwg else {
                continue;
            };
            drop(state);
            if joining || attempts <= LWG_JOIN_RETRIES {
                self.request_admission(ctx, lwg, hwg);
            } else {
                self.claim_founding(ctx, lwg);
            }
        }

        // Leaving members keep nudging the coordinator.
        for lwg in self.dir.in_phase(Phase::Leaving) {
            let Some(hwg) = self.dir.get(lwg).and_then(|s| s.hwg) else {
                continue;
            };
            self.substrate
                .send(ctx, hwg, wire::frame(&LwgMsg::LeaveReq { lwg }));
            self.maybe_start_lwg_flush(ctx, lwg);
        }

        // A flush's successor stays advertised in full for one to two ticks
        // at the members that do not coordinate it (see `MergeRound`).
        for round in self.rounds.values_mut() {
            round.aged = std::mem::take(&mut round.fresh);
        }

        // LWG flush / switch watchdogs.
        self.foreign_switches
            .retain(|_, (.., since)| now.saturating_since(*since) < LWG_FLUSH_TIMEOUT);
        for lwg in self.dir.watched_ids() {
            let timed_out = self
                .dir
                .get(lwg)
                .and_then(|s| Some(s.flush()?.started_at))
                .is_some_and(|t| now.saturating_since(t) >= LWG_FLUSH_TIMEOUT);
            if !timed_out {
                continue;
            }
            ctx.emit(|| LwgProtocolEvent::FlushAbandon { lwg });
            self.drop_flush(ctx, lwg);
            // Re-evaluate: the coordinator will re-flush with the members
            // still reachable.
            self.maybe_start_lwg_flush(ctx, lwg);
        }

        // Callback-vs-polling ablation: coordinators poll the naming
        // service for their groups (instead of being called back).
        if let Some(interval) = self.cfg.ns_poll_interval {
            if now.saturating_since(self.last_ns_poll) >= interval {
                self.last_ns_poll = now;
                for lwg in self.dir.in_phase(Phase::Member) {
                    if self.lwg_coordinator(lwg) == Some(self.me) {
                        let req = self.ns.read(ctx, lwg);
                        self.ns_lookups.insert(req, (lwg, NsPurpose::Poll));
                    }
                }
            }
        }

        // Shrink rule: leave HWGs that have had no local LWG for a while.
        self.refresh_idle_hwgs(ctx);
        let to_leave: Vec<HwgId> = self
            .idle_hwgs
            .iter()
            .filter(|(_, &since)| now.saturating_since(since) >= self.cfg.shrink_grace)
            .map(|(&h, _)| h)
            .collect();
        for hwg in to_leave {
            ctx.emit(|| LwgProtocolEvent::Shrink { hwg });
            ctx.metrics().incr(keys::SHRINKS);
            self.idle_hwgs.remove(&hwg);
            self.substrate.leave(ctx, hwg);
        }

        // Publish the directory's load accounts as gauges (the operator /
        // bench view of the mapping economy). Only while the rebalancer —
        // their consumer — is enabled: the first publication allocates the
        // gauge entries, and the load-blind default configuration must
        // stay allocation-identical on the data path (throughput guard).
        if self.cfg.rebalance_interval.is_some() {
            let (groups, loaded, max_load) = self.dir.load_summary();
            let metrics = ctx.metrics();
            metrics.set_gauge(keys::DIR_GROUPS, groups as i64);
            metrics.set_gauge(keys::DIR_HWGS_LOADED, loaded as i64);
            metrics.set_gauge(keys::DIR_MAX_HWG_LWGS, max_load as i64);
        }

        self.pump(ctx);
    }

    // ------------------------------------------------------------------
    // Policies (paper Fig. 1)
    // ------------------------------------------------------------------

    pub(crate) fn run_policies(&mut self, ctx: &mut dyn Transport) {
        let known: Vec<(HwgId, BTreeSet<NodeId>)> = self
            .hwgs()
            .into_iter()
            .filter_map(|h| {
                self.substrate
                    .view_of(h)
                    .map(|v| (h, v.members.iter().copied().collect()))
            })
            .collect();
        for lwg in self.dir.in_phase(Phase::Member) {
            if self.lwg_coordinator(lwg) != Some(self.me) {
                continue;
            }
            let Some(state) = self.dir.get(lwg) else {
                continue;
            };
            if state.busy() {
                continue;
            }
            let Some(view) = &state.view else { continue };
            let Some(hwg) = state.hwg else { continue };
            let lwg_members: BTreeSet<NodeId> = view.members.iter().copied().collect();
            let Some((_, hwg_members)) = known.iter().find(|(h, _)| *h == hwg) else {
                continue;
            };
            // Interference rule first (it protects small groups), then the
            // share rule (it consolidates similar HWGs).
            let action = match policy::interference_rule(
                &lwg_members,
                (hwg, hwg_members),
                &known,
                self.cfg.k_m,
                self.cfg.k_c,
            ) {
                PolicyAction::Stay => policy::share_rule((hwg, hwg_members), &known, self.cfg.k_m),
                other => other,
            };
            match action {
                PolicyAction::Stay => {}
                PolicyAction::SwitchTo(target) => {
                    ctx.emit(|| LwgProtocolEvent::PolicySwitch { lwg, target });
                    self.start_switch(ctx, lwg, target, false);
                }
                PolicyAction::CreateAndSwitch => {
                    let fresh = self.dir.alloc_hwg_id();
                    ctx.emit(|| LwgProtocolEvent::PolicyCreate { lwg, fresh });
                    self.start_switch(ctx, lwg, fresh, true);
                }
            }
        }
        self.pump(ctx);
    }

    // ------------------------------------------------------------------
    // Shrink-rule bookkeeping
    // ------------------------------------------------------------------

    fn refresh_idle_hwgs(&mut self, ctx: &mut dyn Transport) {
        let now = ctx.now();
        let member_hwgs: Vec<HwgId> = self.hwgs();
        for hwg in member_hwgs {
            if self.substrate.status_of(hwg) != GroupStatus::Member {
                continue;
            }
            if self.dir.hwg_in_use(hwg) {
                self.idle_hwgs.remove(&hwg);
            } else {
                self.idle_hwgs.entry(hwg).or_insert(now);
            }
        }
    }

    // ------------------------------------------------------------------
    // Misc
    // ------------------------------------------------------------------

    /// Restarts the join flow for a group whose transport vanished.
    pub(crate) fn restart_join(&mut self, ctx: &mut dyn Transport, lwg: LwgId) {
        // A new record, to which the directory gives the old one's counters.
        let Some(old) = self.dir.remove(lwg) else {
            return;
        };
        let mut state = LwgState::default();
        state.history.extend(old.view.map(|v| v.id));
        self.dir.insert(lwg, state);
        self.held.retain(|h| h.lwg != lwg);
        ctx.emit(|| LwgProtocolEvent::Rejoin { lwg });
        let req = self.ns.read(ctx, lwg);
        self.ns_lookups.insert(req, (lwg, NsPurpose::JoinLookup));
    }
}
