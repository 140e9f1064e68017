//! The rebalancer: migrating LWGs off crowded HWGs using the ordinary
//! switch protocol as its migration primitive.
//!
//! The directory's per-HWG load accounts (membership counts plus a
//! traffic window fed by the data plane) tell each node how crowded every
//! HWG it uses is. Periodically — `LwgConfig::rebalance_interval`, off by
//! default — the service scans those accounts, plans a bounded batch of
//! migrations (hottest donors shed first, receivers picked by the same
//! [`crate::policy::placement_rule`] that places joiners), and starts one
//! switch per planned move. A move is only planned when it is a *strict*
//! improvement ([`crate::policy::rebalance_improves`]), so a balanced
//! system plans nothing and no group ever oscillates between two HWGs.
//!
//! Only LWG coordinators migrate their groups, and only onto HWGs whose
//! current view already contains every group member — the same
//! closeness/interference admissibility the Figure-1 policies use, and it
//! keeps a migration down to one switch round with no HWG joins.

use crate::keys;
use crate::protocol_events::LwgProtocolEvent;
use crate::service::LwgService;
use plwg_hwg::{HwgId, HwgSubstrate};
use plwg_naming::LwgId;
use plwg_sim::{Transport, TransportExt};
use std::cmp::Reverse;

impl<S: HwgSubstrate> LwgService<S> {
    /// Runs one rebalance round now: scan the per-HWG load accounts, plan
    /// up to `rebalance_max_moves` strictly-improving migrations, and
    /// start a switch for each. Driven by the `rebalance_interval` timer;
    /// public so experiments and tests can force a round directly.
    pub fn run_rebalance(&mut self, ctx: &mut dyn Transport) {
        ctx.metrics().incr(keys::REBALANCE_ROUNDS);
        let mut loads = self.dir.loads();
        // Each round consumes the traffic window: hotness is judged per
        // interval, not over all time.
        self.dir.reset_traffic();
        let max_load = loads.iter().map(|l| l.lwgs).max().unwrap_or(0);
        if loads.len() < 2 {
            return; // nowhere to move anything
        }

        // Hottest donors shed first: membership load, then the traffic
        // window, then lowest id for determinism.
        let mut order: Vec<usize> = (0..loads.len()).collect();
        order.sort_by_key(|&i| {
            (
                Reverse(loads[i].lwgs),
                Reverse(loads[i].traffic),
                loads[i].hwg,
            )
        });

        let mut planned: Vec<(LwgId, HwgId, HwgId)> = Vec::new();
        'donors: for di in order {
            let donor = loads[di].hwg;
            for lwg in self.dir.mapped_on(donor) {
                if planned.len() >= self.cfg.rebalance_max_moves {
                    break 'donors;
                }
                if loads[di].lwgs <= 1 {
                    break; // the donor is down to one group: balanced enough
                }
                if !self.rebalance_candidate(lwg) {
                    continue;
                }
                let Some(view) = self.dir.get(lwg).and_then(|s| s.view.clone()) else {
                    continue;
                };
                // Admissible receivers: a different HWG, strictly less
                // loaded (accounting for moves already planned this
                // round), whose current view holds every group member.
                let admissible: Vec<crate::directory::HwgLoad> = loads
                    .iter()
                    .filter(|c| {
                        c.hwg != donor
                            && crate::policy::rebalance_improves(loads[di].lwgs, c.lwgs)
                            && self
                                .substrate
                                .view_of(c.hwg)
                                .is_some_and(|hv| view.members.iter().all(|&m| hv.contains(m)))
                    })
                    .copied()
                    .collect();
                let Some(target) = crate::policy::placement_rule(&admissible) else {
                    continue;
                };
                planned.push((lwg, donor, target));
                loads[di].lwgs -= 1;
                if let Some(t) = loads.iter_mut().find(|l| l.hwg == target) {
                    t.lwgs += 1;
                }
            }
        }

        if planned.is_empty() {
            return;
        }
        let moves = planned.len();
        ctx.emit(|| LwgProtocolEvent::RebalancePlan { max_load, moves });
        for (lwg, from, to) in planned {
            ctx.emit(|| LwgProtocolEvent::RebalanceMove { lwg, from, to });
            ctx.metrics().incr(keys::REBALANCE_MOVES);
            self.start_switch(ctx, lwg, to, false);
        }
    }

    /// Whether `lwg` may be migrated by the rebalancer right now: a stable
    /// member (no flush or switch in flight, not stopped on its HWG)
    /// whose coordinator is this node. `start_switch` re-checks all of
    /// this, but testing first keeps the planner from wasting its move
    /// budget on no-op switches.
    fn rebalance_candidate(&self, lwg: LwgId) -> bool {
        self.lwg_coordinator(lwg) == Some(self.me)
            && self.dir.get(lwg).is_some_and(|s| {
                s.phase == crate::state::Phase::Member && !s.busy() && !self.stopped_on(s.hwg)
            })
    }
}
