//! Typed trace events of the light-weight group service.
//!
//! The LWG layer's side of the workspace-wide typed event model
//! ([`plwg_sim::ProtocolEvent`]): every protocol transition the service
//! used to describe with an ad-hoc string now has a variant carrying the
//! actual protocol values, plus causal [`EventRefs`] — the view lineage
//! (`view` + `parents`) and flush identity links that let `plwg-obs`
//! assemble cross-node timelines of the paper's four-step heal.

use crate::msg::LFlushId;
use plwg_hwg::{view_key, HwgId, View, ViewId};
use plwg_naming::LwgId;
use plwg_sim::{EventRefs, NodeId, ProtocolEvent, TraceLayer};

/// One protocol transition of the LWG service.
#[derive(Debug, Clone)]
pub enum LwgProtocolEvent {
    /// `join(lwg)` was called; the naming lookup is under way.
    JoinStart {
        /// The group being joined.
        lwg: LwgId,
    },
    /// Every member of the flushed view left: the group dissolves with no
    /// successor view.
    Dissolve {
        /// The dissolved group.
        lwg: LwgId,
    },
    /// First member of a pruned view: the round of the HWG view that
    /// dropped some of the members of `view`'s predecessor computed it at
    /// every holder (no LWG flush, no announcement).
    Prune {
        /// The group.
        lwg: LwgId,
        /// The pruned successor view.
        view: View,
    },
    /// A new LWG view was installed at this member.
    ViewInstall {
        /// The group.
        lwg: LwgId,
        /// The installed view.
        view: View,
        /// The HWG the view is mapped onto.
        hwg: HwgId,
    },
    /// Coordinator started an LWG flush round, naming the successor view
    /// every member installs once the `FlushOk`s are in.
    FlushStart {
        /// The group being flushed.
        lwg: LwgId,
        /// The flush round.
        flush: LFlushId,
        /// Members whose `FlushOk`s are awaited.
        members: Vec<NodeId>,
        /// The successor view; `None` when the group dissolves.
        next: Option<View>,
    },
    /// A flush or switch timed out and was abandoned (watchdog).
    FlushAbandon {
        /// The group.
        lwg: LwgId,
    },
    /// Join fallback: claiming the mapping with `ns.testset` before
    /// founding a view (paper Table 2).
    Claim {
        /// The group.
        lwg: LwgId,
        /// The view id the founding view will use if the claim wins.
        planned: ViewId,
        /// The HWG the claim maps the group onto.
        hwg: HwgId,
    },
    /// The claim won: the founding (singleton) view is installed.
    Found {
        /// The group.
        lwg: LwgId,
        /// The founding view.
        view: View,
        /// The HWG it is mapped onto.
        hwg: HwgId,
    },
    /// MULTIPLE-MAPPINGS reconciliation (paper §6.2 step 2): the
    /// coordinator switches to the HWG with the highest group id.
    Reconcile {
        /// The group with concurrent mappings.
        lwg: LwgId,
        /// The HWG currently backing the group here.
        current: Option<HwgId>,
        /// The winning HWG being switched to.
        target: HwgId,
    },
    /// A forward-pointer redirect arrived: the join is retargeted.
    Redirect {
        /// The group.
        lwg: LwgId,
        /// Where the group lives now.
        to: HwgId,
    },
    /// Shrink rule: leaving an HWG that carried no local LWG for a while.
    Shrink {
        /// The HWG being left.
        hwg: HwgId,
    },
    /// The Figure-1 policies decided to switch the group to another HWG.
    PolicySwitch {
        /// The group.
        lwg: LwgId,
        /// The target HWG.
        target: HwgId,
    },
    /// The Figure-1 policies decided to create a fresh HWG and switch.
    PolicyCreate {
        /// The group.
        lwg: LwgId,
        /// The freshly allocated HWG id.
        fresh: HwgId,
    },
    /// The group's transport vanished; the join flow restarts from the
    /// naming service.
    Rejoin {
        /// The group.
        lwg: LwgId,
    },
    /// Coordinator started switching the group to another HWG (paper §3;
    /// step 2 of the §6.2 heal).
    SwitchStart {
        /// The group being switched.
        lwg: LwgId,
        /// The HWG being left.
        from: HwgId,
        /// The target HWG.
        to: HwgId,
    },
    /// First member of a switched view: every `FlushOk` and every member's
    /// `SwitchReady` on the target HWG are in, and it installs the switched
    /// view there.
    SwitchComplete {
        /// The group.
        lwg: LwgId,
        /// The target HWG.
        to: HwgId,
        /// The switched view.
        view: View,
    },
    /// MERGE-VIEWS concluded (paper Fig. 5): concurrent views merged into
    /// one successor after a single HWG flush.
    Merge {
        /// The group.
        lwg: LwgId,
        /// The concurrent views being merged.
        concurrent: Vec<ViewId>,
        /// The merged successor view.
        merged: View,
    },
    /// The backing HWG installed a new view (the LWG layer reacts: prune,
    /// merge round, naming refresh).
    HwgView {
        /// The HWG.
        hwg: HwgId,
        /// Its new view.
        view: View,
    },
    /// A rebalance round scanned the per-HWG load accounts and planned a
    /// batch of migrations.
    RebalancePlan {
        /// The most crowded HWG's membership load (LWGs mapped onto it).
        max_load: usize,
        /// Migrations the round decided to start.
        moves: usize,
    },
    /// The rebalancer migrates one LWG to a less loaded HWG (the migration
    /// primitive is the ordinary switch protocol).
    RebalanceMove {
        /// The group being migrated.
        lwg: LwgId,
        /// The crowded HWG it is leaving.
        from: HwgId,
        /// The less loaded target HWG.
        to: HwgId,
    },
}

/// The (coordinator, nonce) causal key of an LWG flush round.
fn lflush_key(f: LFlushId) -> (u32, u64) {
    (f.initiator.0, f.nonce)
}

impl ProtocolEvent for LwgProtocolEvent {
    fn layer(&self) -> TraceLayer {
        TraceLayer::Lwg
    }

    fn kind(&self) -> &'static str {
        match self {
            LwgProtocolEvent::JoinStart { .. } => "lwg.join.start",
            LwgProtocolEvent::Dissolve { .. } => "lwg.dissolve",
            LwgProtocolEvent::Prune { .. } => "lwg.prune",
            LwgProtocolEvent::ViewInstall { .. } => "lwg.view.install",
            LwgProtocolEvent::FlushStart { .. } => "lwg.flush.start",
            LwgProtocolEvent::FlushAbandon { .. } => "lwg.flush.abandon",
            LwgProtocolEvent::Claim { .. } => "lwg.claim",
            LwgProtocolEvent::Found { .. } => "lwg.found",
            LwgProtocolEvent::Reconcile { .. } => "lwg.reconcile",
            LwgProtocolEvent::Redirect { .. } => "lwg.redirect",
            LwgProtocolEvent::Shrink { .. } => "lwg.shrink",
            LwgProtocolEvent::PolicySwitch { .. } => "lwg.policy.switch",
            LwgProtocolEvent::PolicyCreate { .. } => "lwg.policy.create",
            LwgProtocolEvent::Rejoin { .. } => "lwg.rejoin",
            LwgProtocolEvent::SwitchStart { .. } => "lwg.switch.start",
            LwgProtocolEvent::SwitchComplete { .. } => "lwg.switch.complete",
            LwgProtocolEvent::Merge { .. } => "lwg.merge",
            LwgProtocolEvent::HwgView { .. } => "lwg.hwg_view",
            LwgProtocolEvent::RebalancePlan { .. } => "lwg.rebalance.plan",
            LwgProtocolEvent::RebalanceMove { .. } => "lwg.rebalance.move",
        }
    }

    fn refs(&self) -> EventRefs {
        let mut refs = EventRefs::default();
        match self {
            LwgProtocolEvent::JoinStart { lwg }
            | LwgProtocolEvent::Dissolve { lwg }
            | LwgProtocolEvent::FlushAbandon { lwg }
            | LwgProtocolEvent::Rejoin { lwg } => refs.lwg = Some(lwg.0),
            LwgProtocolEvent::Prune { lwg, view } => {
                refs.lwg = Some(lwg.0);
                refs.view = Some(view_key(view.id));
                refs.parents = view.predecessors.iter().copied().map(view_key).collect();
            }
            LwgProtocolEvent::ViewInstall { lwg, view, hwg }
            | LwgProtocolEvent::Found { lwg, view, hwg } => {
                refs.lwg = Some(lwg.0);
                refs.hwg = Some(hwg.0);
                refs.view = Some(view_key(view.id));
                refs.parents = view.predecessors.iter().copied().map(view_key).collect();
            }
            LwgProtocolEvent::FlushStart {
                lwg, flush, next, ..
            } => {
                refs.lwg = Some(lwg.0);
                refs.flush = Some(lflush_key(*flush));
                if let Some(next) = next {
                    refs.view = Some(view_key(next.id));
                    refs.parents = next.predecessors.iter().copied().map(view_key).collect();
                }
            }
            LwgProtocolEvent::Claim { lwg, planned, hwg } => {
                refs.lwg = Some(lwg.0);
                refs.hwg = Some(hwg.0);
                refs.view = Some(view_key(*planned));
            }
            LwgProtocolEvent::Reconcile { lwg, target, .. } => {
                refs.lwg = Some(lwg.0);
                refs.hwg = Some(target.0);
            }
            LwgProtocolEvent::Redirect { lwg, to } => {
                refs.lwg = Some(lwg.0);
                refs.hwg = Some(to.0);
            }
            LwgProtocolEvent::Shrink { hwg } => refs.hwg = Some(hwg.0),
            LwgProtocolEvent::PolicySwitch { lwg, target } => {
                refs.lwg = Some(lwg.0);
                refs.hwg = Some(target.0);
            }
            LwgProtocolEvent::PolicyCreate { lwg, fresh } => {
                refs.lwg = Some(lwg.0);
                refs.hwg = Some(fresh.0);
            }
            LwgProtocolEvent::SwitchStart { lwg, to, .. } => {
                refs.lwg = Some(lwg.0);
                refs.hwg = Some(to.0);
            }
            LwgProtocolEvent::SwitchComplete { lwg, to, view } => {
                refs.lwg = Some(lwg.0);
                refs.hwg = Some(to.0);
                refs.view = Some(view_key(view.id));
                refs.parents = view.predecessors.iter().copied().map(view_key).collect();
            }
            LwgProtocolEvent::Merge {
                lwg,
                concurrent,
                merged,
            } => {
                refs.lwg = Some(lwg.0);
                refs.view = Some(view_key(merged.id));
                refs.parents = concurrent.iter().copied().map(view_key).collect();
            }
            LwgProtocolEvent::HwgView { hwg, view } => {
                refs.hwg = Some(hwg.0);
                refs.view = Some(view_key(view.id));
                refs.parents = view.predecessors.iter().copied().map(view_key).collect();
            }
            LwgProtocolEvent::RebalancePlan { .. } => {}
            LwgProtocolEvent::RebalanceMove { lwg, to, .. } => {
                refs.lwg = Some(lwg.0);
                refs.hwg = Some(to.0);
            }
        }
        refs
    }

    fn detail(&self) -> String {
        match self {
            LwgProtocolEvent::JoinStart { lwg }
            | LwgProtocolEvent::Dissolve { lwg }
            | LwgProtocolEvent::FlushAbandon { lwg }
            | LwgProtocolEvent::Rejoin { lwg } => format!("{lwg}"),
            LwgProtocolEvent::Prune { lwg, view } => format!("{lwg} {view}"),
            LwgProtocolEvent::ViewInstall { lwg, view, hwg } => format!("{lwg} {view} on {hwg}"),
            LwgProtocolEvent::FlushStart {
                lwg,
                flush,
                members,
                next: Some(next),
            } => format!("{lwg} {flush} members {members:?} -> {next}"),
            LwgProtocolEvent::FlushStart {
                lwg,
                flush,
                members,
                next: None,
            } => format!("{lwg} {flush} members {members:?} -> dissolve"),
            LwgProtocolEvent::Claim { lwg, planned, hwg } => format!("{lwg} {planned} on {hwg}"),
            LwgProtocolEvent::Found { lwg, view, hwg } => format!("{lwg} {view} on {hwg}"),
            LwgProtocolEvent::Reconcile {
                lwg,
                current,
                target,
            } => format!("{lwg}: switch {current:?} -> {target}"),
            LwgProtocolEvent::Redirect { lwg, to } => format!("{lwg} -> {to}"),
            LwgProtocolEvent::Shrink { hwg } => format!("leaving {hwg}"),
            LwgProtocolEvent::PolicySwitch { lwg, target } => format!("{lwg} -> {target}"),
            LwgProtocolEvent::PolicyCreate { lwg, fresh } => format!("{lwg} -> {fresh}"),
            LwgProtocolEvent::SwitchStart { lwg, from, to } => format!("{lwg}: {from} -> {to}"),
            LwgProtocolEvent::SwitchComplete { lwg, to, view } => {
                format!("{lwg} -> {to} as {view}")
            }
            LwgProtocolEvent::Merge {
                lwg,
                concurrent,
                merged,
            } => format!("{lwg}: {concurrent:?} -> {merged}"),
            LwgProtocolEvent::HwgView { hwg, view } => format!("{hwg} {view}"),
            LwgProtocolEvent::RebalancePlan { max_load, moves } => {
                format!("max load {max_load}, {moves} moves")
            }
            LwgProtocolEvent::RebalanceMove { lwg, from, to } => {
                format!("{lwg}: {from} -> {to}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_refs_link_concurrent_parents() {
        let a = ViewId::new(NodeId(1), 3);
        let b = ViewId::new(NodeId(4), 2);
        let merged = View::with_predecessors(
            ViewId::new(NodeId(1), 4),
            vec![NodeId(1), NodeId(4)],
            vec![a, b],
        );
        let e = LwgProtocolEvent::Merge {
            lwg: LwgId(7),
            concurrent: vec![a, b],
            merged: merged.clone(),
        };
        assert_eq!(e.kind(), "lwg.merge");
        let refs = e.refs();
        assert_eq!(refs.lwg, Some(7));
        assert_eq!(refs.view, Some(view_key(merged.id)));
        assert_eq!(refs.parents, vec![view_key(a), view_key(b)]);
    }

    #[test]
    fn flush_start_carries_flush_key_and_successor() {
        let (from, id) = (ViewId::new(NodeId(5), 3), ViewId::new(NodeId(5), 4));
        let next = View::with_predecessors(id, vec![NodeId(5), NodeId(7)], vec![from]);
        let e = LwgProtocolEvent::FlushStart {
            lwg: LwgId(2),
            flush: LFlushId {
                initiator: NodeId(5),
                nonce: 9,
            },
            members: vec![NodeId(5), NodeId(6)],
            next: Some(next),
        };
        assert_eq!(e.kind(), "lwg.flush.start");
        let refs = e.refs();
        assert_eq!(refs.flush, Some((5, 9)));
        assert_eq!(
            (refs.view, refs.parents),
            (Some(view_key(id)), vec![view_key(from)])
        );
        assert_eq!(
            e.detail(),
            "lwg2 n5~9 members [NodeId(5), NodeId(6)] -> n5#4{n5,n7}"
        );
    }

    #[test]
    fn rebalance_move_links_group_and_target() {
        let e = LwgProtocolEvent::RebalanceMove {
            lwg: LwgId(4),
            from: HwgId(2),
            to: HwgId(7),
        };
        assert_eq!(e.kind(), "lwg.rebalance.move");
        assert_eq!(e.detail(), "lwg4: hwg2 -> hwg7");
        let refs = e.refs();
        assert_eq!(refs.lwg, Some(4));
        assert_eq!(refs.hwg, Some(7));
    }

    #[test]
    fn rebalance_plan_summarises_the_round() {
        let e = LwgProtocolEvent::RebalancePlan {
            max_load: 9,
            moves: 2,
        };
        assert_eq!(e.kind(), "lwg.rebalance.plan");
        assert_eq!(e.detail(), "max load 9, 2 moves");
    }

    #[test]
    fn switch_detail_matches_legacy_format() {
        let e = LwgProtocolEvent::SwitchStart {
            lwg: LwgId(1),
            from: HwgId(3),
            to: HwgId(9),
        };
        assert_eq!(e.kind(), "lwg.switch.start");
        assert_eq!(e.detail(), "lwg1: hwg3 -> hwg9");
        assert_eq!(e.refs().hwg, Some(9));
    }
}
