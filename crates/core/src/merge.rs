//! MERGE-VIEWS: healing concurrent LWG views that share one HWG with a
//! **single** HWG flush (paper Fig. 5, step 4 of the §6 procedure).
//!
//! Any member that suspects concurrent views multicasts `MergeViews`; the
//! HWG coordinator turns it into a forced flush. Every member piggybacks
//! its LWG view advertisements (`AllViews`) on the flush, so when the new
//! HWG view is delivered every member holds the same set of advertised
//! views and can deterministically compute the merged views — no extra
//! agreement round.
//!
//! Each view is advertised in full once: by its coordinator, the first of
//! its members in the closing HWG view. Every other holder advertises only
//! the view's id. The merged membership comes from the full views alone.
//! A view whose full copy is missing — its coordinator crashed before
//! advertising it, or holds another view — is weighed only if a full view
//! names it as a predecessor or nothing else is advertised for its group.
//! Otherwise the round defers the group: it merges nothing of it, the HWG
//! coordinator requests another round, and in that round every holder of
//! a view of the group advertises it in full. Every member received the
//! same advertisements, so every member defers the same groups.
//!
//! A merge round supersedes the LWG flushes in flight of the groups it
//! merges. Only the merged view may succeed a view the round merged away:
//! each member drops the flush or switch it was running from one, keeps
//! the queued joins and leaves for the follow-up flush after the merged
//! view's install, and treats a late announcement of the superseded flush
//! as stale. Otherwise the view lineage forks: some members install the
//! flush's view and others the merged one, and the branch that no
//! coordinator registers stays in the naming database as a concurrent
//! mapping nobody holds.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use crate::batch::FlushReason;
use crate::keys;
use crate::msg::{AdvertisedViews, LwgMsg};
use crate::protocol_events::LwgProtocolEvent;
use crate::service::LwgService;
use crate::wire;
use plwg_hwg::{HwgId, HwgSubstrate, View, ViewId};
use plwg_naming::LwgId;
use plwg_sim::{Decode, NodeId, Payload, Reader, Transport, TransportExt};
use std::collections::BTreeSet;

impl<S: HwgSubstrate> LwgService<S> {
    /// Requests a merge round on `hwg` (rate-limited): multicast
    /// `MergeViews` so the HWG coordinator forces the Fig. 5 flush barrier.
    pub(crate) fn trigger_merge_views(&mut self, ctx: &mut dyn Transport, hwg: HwgId) {
        // While this node is stopped on `hwg`, the flush under way is the
        // barrier already; a request sent now would only arrive after its
        // round and force another, empty one.
        if self.stopped_on(Some(hwg)) {
            return;
        }
        // Cooldown: repeated MERGE-VIEWS within a second only repeat the
        // same barrier flush — and a constant stream of forced flushes
        // starves the HWG layer's own beacon-driven merge (the flush
        // machinery and the merge machinery are mutually exclusive).
        let now = ctx.now();
        if let Some(&last) = self.last_merge_views.get(&hwg) {
            if now.saturating_since(last) < plwg_sim::SimDuration::from_secs(1) {
                return;
            }
        }
        self.last_merge_views.insert(hwg, now);
        ctx.metrics().incr(keys::MERGE_VIEWS_SENT);
        // Barrier: the merge request forces an HWG flush; buffered data
        // belongs to the views being merged and must go out first.
        self.flush_pack(ctx, hwg, FlushReason::Barrier);
        self.substrate
            .send(ctx, hwg, wire::frame(&LwgMsg::MergeViews));
    }

    /// A `MergeViews` request arrived on `hwg`: note the round and, as the
    /// coordinator's deterministic stand-in, force the flush barrier.
    pub(crate) fn handle_merge_views_msg(&mut self, ctx: &mut dyn Transport, hwg: Option<HwgId>) {
        if let Some(hwg) = hwg {
            let round = self.rounds.entry(hwg).or_default();
            if !round.triggered {
                round.triggered = true;
                ctx.metrics().incr(keys::MERGE_VIEWS_OBSERVED);
            }
            // The HWG coordinator turns the request into the flush
            // barrier of Fig. 5.
            self.substrate.force_flush(ctx, hwg);
        }
    }

    /// An `AllViews` advertisement arrived on `hwg`: record the advertised
    /// views for the round that concludes with the next HWG view.
    ///
    /// Every holder of a view advertises its id and its coordinator the
    /// view, so one entry per view id is kept: the first full copy, as a
    /// sub-frame of its advertisement, or `None` until one arrives. Full
    /// copies from several holders (a deferred group's) rely on a view id
    /// naming one view everywhere, which the debug assertion checks byte
    /// for byte.
    pub(crate) fn handle_all_views(
        &mut self,
        hwg: Option<HwgId>,
        views: &AdvertisedViews,
        held: &AdvertisedViews<ViewId>,
    ) {
        let Some(hwg) = hwg else { return };
        let round = self.rounds.entry(hwg).or_default();
        for (lwg, id, view) in views.iter() {
            match round.collected.entry((lwg, id)).or_default() {
                Some(kept) => debug_assert_eq!(*kept, view, "two views share an id"),
                slot => *slot = Some(view),
            }
        }
        for key in held.iter() {
            round.collected.entry(key).or_default();
        }
    }

    /// Whether this node has answered a flush `Stop` on `hwg` whose view
    /// has not arrived yet. Its advertisement is out, and the merge round
    /// weighs that: a successor of an advertised view announced now could
    /// be merged away or forked by the round, so it waits for the view.
    pub(crate) fn stopped_on(&self, hwg: Option<HwgId>) -> bool {
        hwg.and_then(|h| self.rounds.get(&h))
            .is_some_and(|round| round.stopped)
    }

    /// After an HWG flush: merge every set of concurrent LWG views the
    /// AllViews exchange revealed.
    pub(crate) fn complete_merge_round(
        &mut self,
        ctx: &mut dyn Transport,
        hwg: HwgId,
        hview: &View,
    ) {
        let Some(round) = self.rounds.remove(&hwg) else {
            return;
        };
        let mut deferred = BTreeSet::new();
        let mut previous = None;
        for &(lwg, _) in round.collected.keys() {
            if previous.replace(lwg) == Some(lwg) {
                continue;
            }
            let collected = round
                .collected
                .range((lwg, ViewId::new(NodeId(0), 0))..)
                .take_while(move |((l, _), _)| *l == lwg)
                .map(|((_, id), view)| (*id, view));
            let Some(views) = merge_candidates(collected) else {
                ctx.metrics().incr(keys::MERGE_DEFERRED);
                deferred.insert(lwg);
                self.supersede_flushes(ctx, lwg, hwg, Vec::new());
                continue;
            };
            let concurrent: Vec<&View> = concurrent_views(&views).collect();
            // Every member holds the same advertisements, so every member
            // knows which views this round merges away, and drops the LWG
            // flushes in flight from them before the merged view arrives.
            let merges = concurrent.len() >= 2;
            let merged_away = if merges {
                concurrent.iter().map(|v| v.id).collect()
            } else {
                Vec::new()
            };
            self.supersede_flushes(ctx, lwg, hwg, merged_away);
            if !merges {
                continue;
            }
            // Deterministic merged membership: views in id order, members
            // concatenated, only members present in the current HWG view.
            let mut members: Vec<NodeId> = Vec::new();
            for view in &concurrent {
                for &m in &view.members {
                    if hview.contains(m) && !members.contains(&m) {
                        members.push(m);
                    }
                }
            }
            // The merged view's coordinator (most senior member) announces
            // it; an empty merged membership has no coordinator.
            if members.first() != Some(&self.me) {
                continue;
            }
            let Some(seq) = self.dir.get_mut(lwg).map(|mut s| s.take_view_seq()) else {
                continue;
            };
            let merged = View::with_predecessors(
                ViewId::new(self.me, seq),
                members,
                concurrent.iter().map(|v| v.id).collect(),
            );
            ctx.emit(|| LwgProtocolEvent::Merge {
                lwg,
                concurrent: merged.predecessors.clone(),
                merged: merged.clone(),
            });
            ctx.metrics().incr(keys::VIEWS_MERGED);
            self.send_view(ctx, lwg, None, merged, hwg);
        }
        if deferred.is_empty() {
            return;
        }
        // The deferred groups are advertised in full at the next flush,
        // which the HWG coordinator requests now: the cooldown protects
        // the HWG layer from a stream of empty rounds, not from this one.
        self.rounds.entry(hwg).or_default().deferred = deferred;
        if self.substrate.is_coordinator(hwg) {
            self.last_merge_views.remove(&hwg);
            self.trigger_merge_views(ctx, hwg);
        }
    }

    /// A merge round on `hwg` concluded, merging `merged_away` (empty when
    /// it merges nothing of `lwg`, or defers it). If this node holds one of
    /// those views, or is still joining over `hwg`, the merge supersedes
    /// what it was doing: the flush or switch in flight is dropped, the queued joins
    /// and leaves stay for the follow-up flush, and the views are kept to
    /// recognise stale announcements until the merged view is installed.
    /// A round that merges nothing releases a view whose merged view was
    /// lost, and the sends it held back.
    pub(crate) fn supersede_flushes(
        &mut self,
        ctx: &mut dyn Transport,
        lwg: LwgId,
        hwg: HwgId,
        merged_away: Vec<ViewId>,
    ) {
        let Some(state) = self.dir.get(lwg) else {
            return;
        };
        let affected = !merged_away.is_empty()
            && state.hwg == Some(hwg)
            && state
                .view
                .as_ref()
                .is_none_or(|v| merged_away.contains(&v.id));
        if affected {
            if let Some(mut state) = self.dir.get_mut(lwg) {
                state.supersede(merged_away);
            }
        } else if state.merged_away() {
            self.drop_flush(ctx, lwg);
        }
    }

    /// The `AllViews` frame advertising the LWG views of groups this node
    /// maps onto `hwg` (piggybacked on every HWG flush), or `None` when it
    /// maps none. The views are found by an indexed query, in ascending
    /// group-id order. A view this node coordinates, or of a group the last
    /// round deferred, is encoded in full where it lives, without a copy;
    /// any other only by id.
    ///
    /// A view that is switching to another HWG is left out: its successor
    /// is installed there, possibly before this flush's view arrives, so a
    /// merge here would give it a second successor. The target HWG's merge
    /// round reconciles the switched view instead.
    pub(crate) fn all_views_advert(&self, hwg: HwgId) -> Option<Payload> {
        let hview = self.substrate.view_of(hwg)?;
        let deferred = self.rounds.get(&hwg).map(|round| &round.deferred);
        let mapped: Vec<(LwgId, &View, bool)> = self
            .dir
            .mapped_on(hwg)
            .into_iter()
            .filter_map(|l| {
                let state = self.dir.get(l)?;
                if state.switch().is_some() || state.followed().is_some() {
                    return None;
                }
                let view = state.view.as_ref()?;
                let coordinator = view.members.iter().find(|&&m| hview.contains(m));
                let full =
                    coordinator == Some(&self.me) || deferred.is_some_and(|d| d.contains(&l));
                Some((l, view, full))
            })
            .collect();
        if mapped.is_empty() {
            return None;
        }
        let views = AdvertisedViews::new(mapped.iter().filter(|e| e.2).map(|e| (e.0, e.1)));
        let held = AdvertisedViews::by_id(mapped.iter().filter(|e| !e.2).map(|e| (e.0, e.1.id)));
        Some(wire::frame(&LwgMsg::AllViews { views, held }))
    }
}

/// The full views one LWG's merge round weighs, ascending by id, from its
/// `collected` advertisements (`None`: advertised only by id). Only what
/// every member was sent counts — not this node's own view, which may have
/// changed since it advertised it — so every member weighs the same views
/// and reaches the same merge.
///
/// Empty — decided before anything is decoded or allocated — when there
/// are fewer than two candidates, as for every group whose members all
/// hold one view, or whose only view's coordinator is across a partition.
/// `None` when the round defers the group: some candidate came only by id,
/// and no full view names it as a predecessor, so what it succeeds, and
/// whether it is concurrent with the others, is unknown.
fn merge_candidates<'a>(
    collected: impl Iterator<Item = (ViewId, &'a Option<Payload>)> + Clone,
) -> Option<Vec<View>> {
    if collected.clone().nth(1).is_none() {
        return Some(Vec::new());
    }
    // Advertisements were validated on receipt, so every one decodes.
    let views: Vec<View> = collected
        .clone()
        .filter_map(|(_, view)| View::decode_from(&mut Reader::new(view.as_ref()?)).ok())
        .collect();
    let named = |id: ViewId| views.iter().any(|v| v.predecessors.contains(&id));
    let unexplained = collected
        .filter(|(_, view)| view.is_none())
        .any(|(id, _)| !named(id));
    (!unexplained).then_some(views)
}

/// The views of `views` that no view of `views` names as a predecessor, in
/// the order given: the concurrent views a merge combines.
///
/// Ancestry is known only through the views collected here, so any chain
/// of predecessors from one of them to another ends in a collected view
/// naming the ancestor directly. Being named is therefore the whole test:
/// no walk, no visited set, and no bound on the number of views.
fn concurrent_views(views: &[View]) -> impl Iterator<Item = &View> {
    views
        .iter()
        .filter(|v| !views.iter().any(|u| u.predecessors.contains(&v.id)))
}

#[cfg(test)]
#[allow(clippy::expect_used, clippy::indexing_slicing)]
mod tests {
    use super::*;
    use crate::{LwgNode, ScriptedHwg};
    use plwg_naming::{NameServer, NamingConfig};
    use plwg_sim::{Encode, SimRng, World, WorldConfig};
    use std::collections::{BTreeMap, BTreeSet};

    /// The reference filter: for every pair of views, a walk of the
    /// predecessor edges through the collected views with an explicit
    /// stack and visited set. Empty when fewer than two views are
    /// concurrent (no merge).
    fn reference(collected: &[View]) -> Vec<ViewId> {
        let views: BTreeMap<ViewId, View> = collected.iter().map(|v| (v.id, v.clone())).collect();
        let ids: Vec<ViewId> = views.keys().copied().collect();
        let is_anc = |a: ViewId, b: ViewId| -> bool {
            let mut stack = vec![b];
            let mut seen = BTreeSet::new();
            while let Some(v) = stack.pop() {
                if let Some(view) = views.get(&v) {
                    for &p in &view.predecessors {
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
        let concurrent: Vec<ViewId> = ids
            .iter()
            .copied()
            .filter(|&v| !ids.iter().any(|&o| is_anc(v, o)))
            .collect();
        if concurrent.len() < 2 {
            Vec::new()
        } else {
            concurrent
        }
    }

    /// The shipped path: advertisements as encoded sub-frames, candidates,
    /// then the filter. Empty when the round does not merge.
    fn shipped(collected: &[View]) -> Vec<ViewId> {
        let encoded: BTreeMap<ViewId, Option<Payload>> =
            collected.iter().map(|v| (v.id, Some(encoded(v)))).collect();
        let views = merge_candidates(encoded.iter().map(|(id, v)| (*id, v))).expect("all full");
        let concurrent: Vec<ViewId> = concurrent_views(&views).map(|v| v.id).collect();
        if concurrent.len() < 2 {
            Vec::new()
        } else {
            concurrent
        }
    }

    fn encoded(view: &View) -> Payload {
        let mut out = Vec::new();
        view.encode_into(&mut out);
        Payload::from_vec(out)
    }

    fn id(i: u64) -> ViewId {
        ViewId::new(NodeId((i % 4) as u32), i + 1)
    }

    fn view(i: u64, preds: Vec<ViewId>) -> View {
        View::with_predecessors(id(i), vec![NodeId((i % 8) as u32)], preds)
    }

    /// `n` views, each naming a random subset of the earlier ones and,
    /// now and then, a view outside the set.
    fn random_dag(rng: &mut SimRng, n: u64) -> Vec<View> {
        (0..n)
            .map(|i| {
                let mut preds: Vec<ViewId> = (0..i).filter(|_| rng.chance(0.2)).map(id).collect();
                if rng.chance(0.3) {
                    preds.push(id(1_000 + rng.range(0, 50)));
                }
                view(i, preds)
            })
            .collect()
    }

    #[test]
    fn concurrent_filter_matches_the_ancestor_walk() {
        let chain: Vec<View> = (0..6)
            .map(|i| view(i, if i == 0 { vec![] } else { vec![id(i - 1)] }))
            .collect();
        let diamond = vec![
            view(0, vec![]),
            view(1, vec![id(0)]),
            view(2, vec![id(0)]),
            view(3, vec![id(1), id(2)]),
        ];
        // A chain broken by a predecessor outside the set: both ends stay.
        let gap = vec![view(0, vec![]), view(2, vec![id(1)])];
        for collected in [
            chain.clone(),
            [&chain[..2], &[view(9, vec![])]].concat(),
            diamond.clone(),
            diamond[..3].to_vec(),
            gap,
            vec![view(0, vec![])],
            vec![],
        ] {
            assert_eq!(shipped(&collected), reference(&collected), "{collected:?}");
        }
        assert_eq!(shipped(&diamond[1..3]), vec![id(1), id(2)]);
        assert_eq!(shipped(&diamond), Vec::<ViewId>::new());

        let mut rng = SimRng::from_seed(5);
        let mut merged = 0;
        for round in 0..400 {
            // Every twentieth round is larger than a 64-bit set could index.
            let n = if round % 20 == 0 {
                rng.range(65, 72)
            } else {
                rng.range(0, 10)
            };
            let collected = random_dag(&mut rng, n);
            let want = reference(&collected);
            assert_eq!(shipped(&collected), want, "round {round}");
            merged += usize::from(!want.is_empty());
        }
        assert!(merged > 100, "{merged} of 400 rounds merge");
    }

    /// A group advertised with one view is skipped before its
    /// advertisement is decoded.
    #[test]
    fn a_single_view_is_skipped_undecoded() {
        let garbage = Some(Payload::from_vec(vec![0xff]));
        let weighed = |c: &[(ViewId, &Option<Payload>)]| merge_candidates(c.iter().copied());
        assert_eq!(weighed(&[(id(0), &garbage)]), Some(vec![]));
        assert_eq!(weighed(&[]), Some(vec![]));
    }

    /// The defer rule: a group is deferred when a view that came only by
    /// id is named by no full view and is one of at least two candidates.
    #[test]
    fn a_view_advertised_by_id_defers_only_an_unexplained_rival() {
        let weighed = |c: &[(ViewId, &Option<Payload>)]| merge_candidates(c.iter().copied());
        let by_id = None;
        // The far side of a split: the coordinator's copy is across it.
        assert_eq!(weighed(&[(id(0), &by_id)]), Some(vec![]), "alone");
        // A laggard's view, which its group's later view names.
        let later = view(1, vec![id(0)]);
        let full = Some(encoded(&later));
        let named = weighed(&[(id(0), &by_id), (id(1), &full)]);
        assert_eq!(named, Some(vec![later.clone()]));
        assert_eq!(concurrent_views(&named.unwrap_or_default()).count(), 1);
        // A view whose coordinator crashed before advertising it, and a
        // concurrent view that came in full.
        let rival = Some(encoded(&view(2, vec![])));
        assert_eq!(weighed(&[(id(0), &by_id), (id(2), &rival)]), None);
        assert_eq!(
            weighed(&[(id(0), &by_id), (id(1), &full), (id(3), &by_id)]),
            None
        );
    }

    /// A holder that does not coordinate a view advertises it by id, and
    /// in full once the last round deferred its group.
    #[test]
    fn a_deferred_group_is_advertised_in_full() {
        let mut w = World::new(WorldConfig::default());
        let node = |me| {
            LwgNode::<ScriptedHwg>::builder(me)
                .servers([NodeId(0)])
                .build()
                .expect("valid config")
        };
        w.add_node(Box::new(NameServer::new(
            NodeId(0),
            vec![],
            NamingConfig::default(),
        )));
        let coordinator = w.add_node(Box::new(node(NodeId(1))));
        let me = w.add_node(Box::new(node(NodeId(2))));
        let (hwg, lwg) = (HwgId(5), LwgId(3));
        let advertised = w.invoke(me, move |n: &mut LwgNode<ScriptedHwg>, ctx| {
            let svc = n.service();
            let view = View::initial(ViewId::new(coordinator, 1), vec![coordinator, me]);
            svc.hwg_stack_mut().inject_view(hwg, view.clone());
            svc.join(ctx, lwg);
            let flush = None;
            let announce = LwgMsg::NewLwgView {
                lwg,
                flush,
                view,
                hwg,
            };
            svc.hwg_stack_mut()
                .inject_data(hwg, coordinator, announce.to_frame());
            svc.pump(ctx);
            let lists = |svc: &LwgService<ScriptedHwg>| {
                let frame = svc.all_views_advert(hwg).expect("one view");
                match plwg_sim::decode_frame(plwg_sim::family::LWG, &frame) {
                    Ok(LwgMsg::AllViews { views, held }) => Some((views.len(), held.len())),
                    _ => None,
                }
            };
            let by_id = lists(svc);
            svc.rounds.entry(hwg).or_default().deferred.insert(lwg);
            (by_id, lists(svc))
        });
        assert_eq!(advertised, (Some((0, 1)), Some((1, 0))));
    }

    /// The MERGE-VIEWS cooldown keeps no entry for an HWG this node left.
    #[test]
    fn a_left_hwg_leaves_no_merge_views_cooldown() {
        let mut w = World::new(WorldConfig::default());
        let server = w.add_node(Box::new(NameServer::new(
            NodeId(0),
            vec![],
            NamingConfig::default(),
        )));
        let me = w.add_node(Box::new(
            LwgNode::<ScriptedHwg>::builder(NodeId(1))
                .servers([server])
                .build()
                .expect("valid config"),
        ));
        let hwg = HwgId(5);
        let entries = w.invoke(me, move |n: &mut LwgNode<ScriptedHwg>, ctx| {
            let svc = n.service();
            svc.hwg_stack_mut()
                .inject_view(hwg, View::initial(ViewId::new(me, 1), vec![me]));
            svc.pump(ctx);
            svc.trigger_merge_views(ctx, hwg);
            let before = svc.last_merge_views.len();
            svc.hwg_stack_mut().inject_left(hwg);
            svc.pump(ctx);
            (before, svc.last_merge_views.len())
        });
        assert_eq!(entries, (1, 0));
    }
}
