//! MERGE-VIEWS: healing concurrent LWG views that share one HWG with a
//! **single** HWG flush (paper Fig. 5, step 4 of the §6 procedure).
//!
//! Any member that suspects concurrent views multicasts `MergeViews`; the
//! HWG coordinator turns it into a forced flush. Every member piggybacks
//! its LWG view advertisements (`AllViews`) on the flush, so when the new
//! HWG view is delivered every member holds the same set of advertised
//! views and can deterministically compute the merged views — no extra
//! agreement round.
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
use crate::msg::LwgMsg;
use crate::protocol_events::LwgProtocolEvent;
use crate::service::LwgService;
use crate::wire;
use plwg_hwg::{HwgId, HwgSubstrate, View, ViewId};
use plwg_naming::LwgId;
use plwg_sim::{NodeId, Payload, Transport, TransportExt};
use std::collections::{BTreeMap, BTreeSet};

impl<S: HwgSubstrate> LwgService<S> {
    /// Requests a merge round on `hwg` (rate-limited): multicast
    /// `MergeViews` so the HWG coordinator forces the Fig. 5 flush barrier.
    pub(crate) fn trigger_merge_views(&mut self, ctx: &mut dyn Transport, hwg: HwgId) {
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
    /// Every member of a view advertises it, so one copy per view id is
    /// kept: the first. That relies on a view id naming one view
    /// everywhere, which the debug assertion checks.
    pub(crate) fn handle_all_views(&mut self, hwg: Option<HwgId>, views: &[(LwgId, View)]) {
        if let Some(hwg) = hwg {
            let round = self.rounds.entry(hwg).or_default();
            for (lwg, view) in views {
                let kept = round
                    .collected
                    .entry(*lwg)
                    .or_default()
                    .entry(view.id)
                    .or_insert_with(|| view.clone());
                debug_assert_eq!(kept, view, "two advertisements of one view id differ");
            }
        }
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
        for (lwg, mut views) in round.collected {
            // Add our own current view.
            if let Some(state) = self.dir.get(lwg) {
                if state.hwg == Some(hwg) {
                    if let Some(v) = &state.view {
                        views.insert(v.id, v.clone());
                    }
                }
            }
            // Drop views that are ancestors of other collected views.
            let ids: Vec<ViewId> = views.keys().copied().collect();
            let is_anc = |a: ViewId, b: ViewId, views: &BTreeMap<ViewId, View>| -> bool {
                // Transitive check over the collected predecessor edges.
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
                .filter(|&v| !ids.iter().any(|&o| is_anc(v, o, &views)))
                .collect();
            if concurrent.len() < 2 {
                continue;
            }
            // Deterministic merged membership: views in id order, members
            // concatenated, only members present in the current HWG view.
            let mut members: Vec<NodeId> = Vec::new();
            for vid in &concurrent {
                let Some(view) = views.get(vid) else {
                    continue;
                };
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
            let merged =
                View::with_predecessors(ViewId::new(self.me, seq), members, concurrent.clone());
            ctx.emit(|| LwgProtocolEvent::Merge {
                lwg,
                concurrent: concurrent.clone(),
                merged: merged.clone(),
            });
            ctx.metrics().incr(keys::VIEWS_MERGED);
            self.substrate.send(
                ctx,
                hwg,
                wire::frame(&LwgMsg::NewLwgView {
                    lwg,
                    flush: None,
                    view: merged,
                    hwg,
                }),
            );
        }
    }

    /// The `AllViews` frame advertising the LWG views of groups this node
    /// maps onto `hwg` (piggybacked on every HWG flush), or `None` when it
    /// maps none. The views are found by an indexed query, in ascending
    /// group-id order, and encoded where they live, without a copy.
    pub(crate) fn all_views_advert(&self, hwg: HwgId) -> Option<Payload> {
        let views: Vec<(LwgId, &View)> = self
            .dir
            .mapped_on(hwg)
            .into_iter()
            .filter_map(|l| Some((l, self.dir.get(l)?.view.as_ref()?)))
            .collect();
        (!views.is_empty()).then(|| wire::all_views_frame(&views))
    }
}
