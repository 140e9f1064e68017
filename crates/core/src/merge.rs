//! The merge round: every LWG view an HWG view change implies, computed at
//! every member from one HWG flush — merged views of concurrent LWG views
//! sharing the HWG (MERGE-VIEWS, paper Fig. 5, step 4 of §6), and pruned
//! views of groups whose members fell out of it (Fig. 2's recovery).
//!
//! Any member that suspects concurrent views multicasts `MergeViews`; the
//! HWG coordinator turns it into a forced flush. Every member piggybacks
//! its LWG view advertisements (`AllViews`) on every flush, so at the new
//! HWG view every member holds the same advertisements and computes the
//! same views — no extra agreement round, and no announcement: each member
//! installs the new view of a group it holds a view of at that HWG view.
//!
//! Each view is advertised in full once: by its coordinator, the first of
//! its members in the closing HWG view. Every other holder advertises only
//! the view's id. The merged membership comes from the full views alone.
//! A view whose full copy is missing — its coordinator crashed before
//! advertising it, or holds another view — is weighed only if a full view
//! names it as a predecessor or nothing else is advertised for its group.
//! Otherwise the round defers the group: it merges nothing of it, the HWG
//! coordinator requests another round, and in that round every holder of
//! a view of the group advertises it in full. A group's one maximal view
//! that lost members is pruned, by each holder from its own copy; a view
//! the round cannot shrink is shrunk by its coordinator's LWG flush.
//!
//! A new view's id is `(creator, its seq_floor + 1)`: for a merge the
//! lowest node of the new HWG view that sent a concurrent view in full (no
//! such node: the group is deferred), for a prune the first member. The
//! `seq_floor` bounds every seq the sender took for the groups it maps on
//! the HWG, and it takes none after its `Stop` (see
//! [`LwgService::stopped_on`]). At the round it counts the new seq as
//! taken, as does a node that moved on from a listed view, so no id of a
//! group repeats. The install drops the flush or switch a member ran from
//! a predecessor, and so does a joiner that followed one.
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
use std::collections::{BTreeMap, BTreeSet};

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

    /// An `AllViews` advertisement from `from` arrived on `hwg`: record
    /// the advertised views and `from`'s `seq_floor` for the round that
    /// concludes with the next HWG view.
    ///
    /// Every holder of a view advertises its id and its coordinator the
    /// view, so one entry per view id is kept: the first full copy, as a
    /// sub-frame of its advertisement, and the lowest node that sent one;
    /// `None` until one arrives. Full copies from several holders (a
    /// deferred group's) rely on a view id naming one view everywhere,
    /// which the debug assertion checks byte for byte.
    pub(crate) fn handle_all_views(
        &mut self,
        hwg: Option<HwgId>,
        from: NodeId,
        views: &AdvertisedViews,
        held: &AdvertisedViews<ViewId>,
        seq_floor: u64,
    ) {
        let Some(hwg) = hwg else { return };
        let round = self.rounds.entry(hwg).or_default();
        let floor = round.floors.entry(from).or_default();
        *floor = (*floor).max(seq_floor);
        for (lwg, id, view) in views.iter() {
            match round.collected.entry((lwg, id)).or_default() {
                Some((kept, sender)) => {
                    debug_assert_eq!(*kept, view, "two views share an id");
                    *sender = (*sender).min(from);
                }
                slot => *slot = Some((view, from)),
            }
        }
        for key in held.iter() {
            round.collected.entry(key).or_default();
        }
    }

    /// Whether this node has answered a flush `Stop` on `hwg` whose view
    /// has not arrived yet. Its advertisement is out, and the merge round
    /// weighs that: a flush's successor installed now could be merged away
    /// or forked by the round, and a flush started now would arrive after
    /// it, from a view the round may replace (and its seq could pass the
    /// advertised `seq_floor`), so both wait for the view.
    pub(crate) fn stopped_on(&self, hwg: Option<HwgId>) -> bool {
        hwg.and_then(|h| self.rounds.get(&h))
            .is_some_and(|round| round.stopped)
    }

    /// After an HWG flush: install every LWG view the view change implies,
    /// here if this node takes part in it. A group's round merges its
    /// concurrent views, or prunes its one view whose members fell out of
    /// `hview`. Returns the groups whose view this node installed.
    pub(crate) fn complete_merge_round(
        &mut self,
        ctx: &mut dyn Transport,
        hwg: HwgId,
        hview: &View,
    ) -> BTreeSet<LwgId> {
        let mut installed = BTreeSet::new();
        // A flush whose acknowledgements are all in completed at every
        // member by this view: they were sent in the closing one. Where the
        // round lists its successor, a member completed it before its
        // `Stop`; each installs it before the round weighs the group, still
        // stopped, so that no flush starts from it before the round.
        for lwg in self.dir.watched_ids() {
            let lf = self.dir.get(lwg).and_then(|s| s.flush());
            let next = lf
                .filter(|lf| lf.complete())
                .and_then(|lf| lf.req.next.as_ref());
            let round = self.rounds.get(&hwg);
            if next.is_some_and(|v| round.is_some_and(|r| r.collected.contains_key(&(lwg, v.id)))) {
                self.conclude_lwg_flush(ctx, lwg);
            }
        }
        let Some(round) = self.rounds.remove(&hwg) else {
            return installed;
        };
        let (mut deferred, mut moved_on) = (BTreeSet::new(), Vec::new());
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
            if self.moved_on(lwg, collected.clone().map(|(id, _)| id)) {
                moved_on.push(lwg);
            }
            let next = match merge_candidates(collected.clone()) {
                Some(views) => match concurrent_views(&views).collect::<Vec<_>>() {
                    concurrent if concurrent.len() < 2 => {
                        let only = concurrent.first().map(|(v, _)| v.id);
                        let only = only.or(collected.map(|(id, _)| id).next());
                        let Some(pruned) = self.pruned_view(lwg, only, hview, &round.floors) else {
                            continue;
                        };
                        Some(pruned)
                    }
                    concurrent => next_view(&concurrent, hview, &round.floors),
                },
                None => None,
            };
            let Some(next) = next else {
                ctx.metrics().incr(keys::MERGE_DEFERRED);
                deferred.insert(lwg);
                continue;
            };
            if self.install_merged(ctx, lwg, hwg, next) {
                installed.insert(lwg);
            }
        }
        let reserved = round
            .floors
            .get(&self.me)
            .map_or(0, |f| f.saturating_add(1));
        for lwg in moved_on {
            if let Some(mut state) = self.dir.get_mut(lwg) {
                state.bump_view_seq(reserved);
            }
        }
        if deferred.is_empty() {
            return installed;
        }
        // The deferred groups are advertised in full at the next flush,
        // which the HWG coordinator requests now: the cooldown protects
        // the HWG layer from a stream of empty rounds, not from this one.
        self.rounds.entry(hwg).or_default().deferred = deferred;
        if self.substrate.is_coordinator(hwg) {
            self.last_merge_views.remove(&hwg);
            self.trigger_merge_views(ctx, hwg);
        }
        installed
    }

    /// The view `only`, the one maximal candidate of `lwg`'s round, prunes
    /// into at `hview`, if this node holds it; its first member in `hview`
    /// creates it. `None` when this node holds another view, nobody fell
    /// out, or the creator sent no floor. A view id names one view
    /// everywhere, so every holder computes it alike from its own copy.
    fn pruned_view(
        &self,
        lwg: LwgId,
        only: Option<ViewId>,
        hview: &View,
        floors: &BTreeMap<NodeId, u64>,
    ) -> Option<View> {
        let view = self.dir.get(lwg)?.view.as_ref();
        let view =
            view.filter(|v| Some(v.id) == only && !v.members.iter().all(|&m| hview.contains(m)))?;
        let creator = *view.members.iter().find(|&&m| hview.contains(m))?;
        next_view(&[(view, creator)], hview, floors)
    }

    /// Whether this node's view of `lwg` succeeds a view of `listed`, the
    /// round's, without being listed itself: it moved on during the flush,
    /// and may create a view the round prunes from the listed one.
    fn moved_on(&self, lwg: LwgId, mut listed: impl Iterator<Item = ViewId> + Clone) -> bool {
        let Some(state) = self.dir.get(lwg) else {
            return false;
        };
        let current = state.view.as_ref().map(|v| v.id);
        !listed.clone().any(|id| Some(id) == current)
            && listed.any(|id| state.history.contains(&id))
    }

    /// The round on `hwg` gave `lwg` the merged or pruned view `next`: its
    /// creator counts the seq as taken, its first member reports it, and a
    /// holder of a predecessor (or a listed joiner over `hwg`) installs it,
    /// a pruned one only if not switching: the switched view may be
    /// installed elsewhere already. Whoever else follows a flush of a
    /// predecessor, a joiner of it, drops that flush: its members drop it
    /// by installing `next`. Returns whether this node installed it.
    fn install_merged(
        &mut self,
        ctx: &mut dyn Transport,
        lwg: LwgId,
        hwg: HwgId,
        next: View,
    ) -> bool {
        let Some(mut state) = self.dir.get_mut(lwg) else {
            return false;
        };
        if next.id.coordinator == self.me {
            debug_assert!(state.next_view_seq < next.id.seq, "{lwg}: floor passed");
            state.bump_view_seq(next.id.seq);
        }
        let merge = next.predecessors.len() > 1;
        let applies = merge || state.followed().is_none();
        let takes_part = applies
            && state.hwg == Some(hwg)
            && state.view.as_ref().map_or(next.contains(self.me), |v| {
                next.predecessors.contains(&v.id)
            });
        let flushed = state.flush().map(|lf| lf.req.view);
        let drops = applies && flushed.is_some_and(|v| next.predecessors.contains(&v));
        drop(state);
        if next.members.first() == Some(&self.me) {
            ctx.emit(|| match merge {
                true => LwgProtocolEvent::Merge {
                    lwg,
                    concurrent: next.predecessors.clone(),
                    merged: next.clone(),
                },
                false => LwgProtocolEvent::Prune {
                    lwg,
                    view: next.clone(),
                },
            });
            let key = if merge {
                keys::VIEWS_MERGED
            } else {
                keys::PRUNES
            };
            ctx.metrics().incr(key);
        }
        if takes_part {
            self.install_lwg_view(ctx, lwg, next, hwg);
        } else if drops {
            self.drop_flush(ctx, lwg);
        }
        takes_part
    }

    /// The `AllViews` frame advertising the LWG views of groups this node
    /// maps onto `hwg` (piggybacked on every HWG flush), or `None` when it
    /// maps none. The views are found by an indexed query, in ascending
    /// group-id order. A view this node coordinates, or of a group the last
    /// round deferred, is encoded in full where it lives, without a copy;
    /// any other only by id. The frame's `seq_floor` is the largest view
    /// counter of the groups this node maps onto `hwg`, listed or not.
    ///
    /// A view that is switching to another HWG is left out: its successor
    /// is installed there, possibly before this flush's view arrives, so a
    /// merge here would give it a second successor. The target HWG's merge
    /// round reconciles the switched view instead.
    pub(crate) fn all_views_advert(&self, hwg: HwgId) -> Option<Payload> {
        let hview = self.substrate.view_of(hwg)?;
        let round = self.rounds.get(&hwg);
        let mut seq_floor = 0;
        let mapped: Vec<(LwgId, &View, bool)> = self
            .dir
            .mapped_on(hwg)
            .into_iter()
            .filter_map(|l| {
                let state = self.dir.get(l)?;
                seq_floor = seq_floor.max(state.next_view_seq);
                if state.followed().is_some() {
                    return None;
                }
                let view = state.view.as_ref()?;
                let coordinator = view.members.iter().find(|&&m| hview.contains(m));
                let full = coordinator == Some(&self.me) || round.is_some_and(|r| r.full(l));
                Some((l, view, full))
            })
            .collect();
        if mapped.is_empty() {
            return None;
        }
        let views = AdvertisedViews::new(mapped.iter().filter(|e| e.2).map(|e| (e.0, e.1)));
        let held = AdvertisedViews::by_id(mapped.iter().filter(|e| !e.2).map(|e| (e.0, e.1.id)));
        Some(wire::frame(&LwgMsg::AllViews {
            views,
            held,
            seq_floor,
        }))
    }
}

/// The full views one LWG's merge round weighs, ascending by id, each with
/// the lowest node that advertised it in full, from its `collected`
/// advertisements (`None`: advertised only by id). Only what every member
/// was sent counts — not this node's own view, which may have changed
/// since it advertised it — so every member weighs the same views and
/// reaches the same merge.
///
/// Empty — decided before anything is decoded or allocated — when there
/// are fewer than two candidates, as for every group whose members all
/// hold one view, or whose only view's coordinator is across a partition.
/// `None` when the round defers the group: some candidate came only by
/// id, and no full view names it as a predecessor, so what it succeeds,
/// and whether it is concurrent with the others, is unknown.
fn merge_candidates<'a>(
    collected: impl Iterator<Item = (ViewId, &'a Option<(Payload, NodeId)>)> + Clone,
) -> Option<Vec<(View, NodeId)>> {
    if collected.clone().nth(1).is_none() {
        return Some(Vec::new());
    }
    // Advertisements were validated on receipt, so every one decodes.
    let views: Vec<(View, NodeId)> = collected
        .clone()
        .filter_map(|(_, full)| {
            let (view, sender) = full.as_ref()?;
            Some((View::decode_from(&mut Reader::new(view)).ok()?, *sender))
        })
        .collect();
    let named = |id: ViewId| views.iter().any(|(v, _)| v.predecessors.contains(&id));
    let unexplained = collected
        .filter(|(_, full)| full.is_none())
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
fn concurrent_views(views: &[(View, NodeId)]) -> impl Iterator<Item = (&View, NodeId)> {
    views
        .iter()
        .filter(|(v, _)| !views.iter().any(|(u, _)| u.predecessors.contains(&v.id)))
        .map(|(v, sender)| (v, *sender))
}

/// The view the `concurrent` views (with their lowest full senders, or a
/// pruned view's creator) merge or prune into at `hview`: their members in
/// `hview`, in view-id order, and the id `(creator, floor + 1)` of the
/// lowest sender in `hview`; `None` when no sender stayed to count the seq
/// as taken, or the creator's floor is unknown.
fn next_view(
    concurrent: &[(&View, NodeId)],
    hview: &View,
    floors: &BTreeMap<NodeId, u64>,
) -> Option<View> {
    let creator = concurrent
        .iter()
        .map(|(_, sender)| *sender)
        .filter(|&s| hview.contains(s))
        .min()?;
    let seq = floors.get(&creator)?.saturating_add(1);
    let mut members: Vec<NodeId> = Vec::new();
    for (view, _) in concurrent {
        for &m in &view.members {
            if hview.contains(m) && !members.contains(&m) {
                members.push(m);
            }
        }
    }
    let predecessors = concurrent.iter().map(|(v, _)| v.id).collect();
    Some(View::with_predecessors(
        ViewId::new(creator, seq),
        members,
        predecessors,
    ))
}

#[cfg(test)]
mod tests;
