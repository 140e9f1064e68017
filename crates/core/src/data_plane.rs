//! The data plane: user sends, message packing, subset delivery, and
//! delivery-side view filtering.
//!
//! Every LWG multicast rides the group's backing HWG as an
//! [`LwgMsg::Data`] (or, when packing is on, an [`LwgMsg::Batch`]) tagged
//! with the **LWG view id** it was sent in. Receivers deliver upward only
//! when the tag matches their installed view — the decoupling that lets
//! concurrent LWG views share one HWG (paper §6.3) and the source of the
//! interference cost the Figure-1 policies minimise. Data of a view about
//! to be installed here waits for that install; data of a view unknown to
//! the group's lineage here requests MERGE-VIEWS as it is delivered.
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
use crate::events::LwgEvent;
use crate::keys;
use crate::msg::LwgMsg;
use crate::service::{LwgService, TOK_PACK};
use crate::state::Held;
use crate::wire;
use plwg_hwg::{HwgId, HwgSubstrate, ViewId};
use plwg_naming::LwgId;
use plwg_sim::{NodeId, Payload, Transport};
use std::collections::BTreeSet;

impl<S: HwgSubstrate> LwgService<S> {
    /// Sends a multicast on `lwg` (buffered until a view is installed and
    /// no flush is in progress).
    pub fn send(&mut self, ctx: &mut dyn Transport, lwg: LwgId, data: Payload) {
        let Some(mut state) = self.dir.get_mut(lwg) else {
            return;
        };
        let Some((lwg_view, hwg)) = state.send_target() else {
            state.pending_send.push(data);
            return;
        };
        drop(state);
        ctx.metrics().incr(keys::DATA_SENT);
        if self.cfg.pack_max_msgs > 1 {
            let occupancy = self.packs.entry(hwg).or_default().push(lwg, lwg_view, data);
            if occupancy >= self.cfg.pack_max_msgs {
                self.flush_pack(ctx, hwg, FlushReason::Full);
            } else if !self.pack_timer_armed {
                self.pack_timer_armed = true;
                ctx.set_timer(self.cfg.pack_delay, TOK_PACK);
            }
            return;
        }
        let msg = LwgMsg::Data {
            lwg,
            lwg_view,
            data,
        };
        self.send_data_on(ctx, hwg, &[lwg], msg);
    }

    /// The subset-multicast target set for data of `lwgs` on `hwg`: the
    /// union of the groups' current LWG views plus the HWG coordinator
    /// (whose retransmission store anchors flush pulls). `None` when
    /// subset delivery is disabled, the HWG view is unknown, or the set is
    /// not a *strict* subset of the HWG view — then a plain full multicast
    /// is both cheaper and simpler.
    fn subset_targets<I>(&self, hwg: HwgId, lwgs: I) -> Option<BTreeSet<NodeId>>
    where
        I: IntoIterator<Item = LwgId>,
    {
        if !self.cfg.subset_delivery {
            return None;
        }
        let hview = self.substrate.view_of(hwg)?;
        let mut targets: BTreeSet<NodeId> = BTreeSet::new();
        targets.insert(hview.coordinator());
        for lwg in lwgs {
            let view = self.dir.get(lwg)?.view.as_ref()?;
            targets.extend(view.members.iter().copied());
        }
        if targets.len() < hview.len() && targets.iter().all(|t| hview.contains(*t)) {
            Some(targets)
        } else {
            None
        }
    }

    /// Multicasts a data-plane message for `lwgs` on `hwg`, addressing
    /// only the interested members when the subset path applies.
    fn send_data_on(&mut self, ctx: &mut dyn Transport, hwg: HwgId, lwgs: &[LwgId], msg: LwgMsg) {
        // One data-plane multicast on this HWG: feed its traffic window
        // (the rebalancer's hotness signal). Skipped while the rebalancer
        // is off — the window's first entry per HWG allocates, and the
        // load-blind default must stay allocation-identical on the data
        // path (throughput guard). With the window empty, placement ties
        // break purely by id, exactly the legacy pick.
        if self.cfg.rebalance_interval.is_some() {
            self.dir.note_traffic(hwg);
        }
        // Serialize exactly once per multicast (a whole batch is one
        // encode); the substrate hands out refcount clones per receiver.
        let frame = wire::frame(&msg);
        if let Some(targets) = self.subset_targets(hwg, lwgs.iter().copied()) {
            ctx.metrics().incr(keys::SUBSET_SENDS);
            self.substrate.send_to(ctx, hwg, &targets, frame);
        } else {
            self.substrate.send(ctx, hwg, frame);
        }
    }

    /// Flushes the pack buffer of `hwg` into one [`LwgMsg::Batch`]
    /// multicast. Barrier callers invoke this *before* any flush, view or
    /// merge control message so a batch never crosses a view cut on
    /// either layer.
    pub(crate) fn flush_pack(&mut self, ctx: &mut dyn Transport, hwg: HwgId, reason: FlushReason) {
        let Some(buf) = self.packs.get_mut(&hwg) else {
            return;
        };
        if buf.is_empty() {
            return;
        }
        let entries = buf.take();
        ctx.metrics().incr(keys::BATCH_SENT);
        ctx.metrics().incr(reason.metric());
        ctx.metrics()
            .observe(keys::BATCH_OCCUPANCY, entries.len() as u64);
        let lwgs: Vec<LwgId> = entries.iter().map(|(l, _, _)| *l).collect();
        self.send_data_on(ctx, hwg, &lwgs, LwgMsg::Batch { entries });
    }

    /// Flushes every non-empty pack buffer (pack-delay timer path).
    pub(crate) fn flush_all_packs(&mut self, ctx: &mut dyn Transport, reason: FlushReason) {
        let hwgs: Vec<HwgId> = self
            .packs
            .iter()
            .filter(|(_, b)| !b.is_empty())
            .map(|(&h, _)| h)
            .collect();
        for hwg in hwgs {
            self.flush_pack(ctx, hwg, reason);
        }
    }

    /// Delivery side: decides the data message by its LWG view tag against
    /// this node's lineage of `lwg`, with one directory lookup. The current
    /// view's is surfaced as [`LwgEvent::Data`]; a view about to be
    /// installed here holds it; any view unknown here is evidence of a
    /// concurrent view sharing the HWG (local peer discovery, paper §6.3 /
    /// Fig. 5 line 106), and MERGE-VIEWS is requested at once.
    pub(crate) fn handle_lwg_data(
        &mut self,
        ctx: &mut dyn Transport,
        hwg: Option<HwgId>,
        lwg: LwgId,
        lwg_view: ViewId,
        src: NodeId,
        data: Payload,
    ) {
        let Some(state) = self.dir.get(lwg) else {
            // Filtering cost of co-mapped groups we are not a member of —
            // this is the "interference" the paper's policies minimise.
            ctx.metrics().incr(keys::FILTERED);
            return;
        };
        if state.view.as_ref().is_some_and(|v| v.id == lwg_view) {
            ctx.metrics().incr(keys::DATA_DELIVERED);
            self.events.push(LwgEvent::Data { lwg, src, data });
            return;
        }
        // Whether the tag is the successor of the flush in flight, and
        // whether that lists this node.
        let next = state.flush().and_then(|lf| lf.req.next.as_ref());
        let next = next
            .filter(|v| v.id == lwg_view)
            .map(|v| v.contains(self.me));
        let stale = state.history.contains(&lwg_view);
        match (next, state.view.is_some()) {
            // Our successor's, or any while joining: the admitting `Flush`
            // can arrive after the first data of its view (loss repair).
            (Some(true), _) | (None, false) => self.held.push(Held {
                lwg,
                hwg,
                view: lwg_view,
                src,
                data,
            }),
            // A leaver's: the view it leaves out.
            (Some(false), _) => ctx.metrics().incr(keys::FILTERED),
            // From a predecessor of our current view; superseded.
            (None, true) if stale => ctx.metrics().incr(keys::DATA_STALE),
            (None, true) => {
                ctx.metrics().incr(keys::DATA_FOREIGN);
                if let Some(hwg) = hwg {
                    self.trigger_merge_views(ctx, hwg);
                }
            }
        }
    }

    /// Handles again, in arrival order, the data of `lwg` held for a view
    /// that was about to be installed, now that its flush ended: at an
    /// install, what the installed view tags is delivered; at an abandon,
    /// a successor nobody here installed is foreign. A joiner's first
    /// install filters the views it never knew instead: it held the data of
    /// every view its group went through while it waited.
    pub(crate) fn release_held(&mut self, ctx: &mut dyn Transport, lwg: LwgId, joined: bool) {
        let released: Vec<Held> = self.held.extract_if(.., |h| h.lwg == lwg).collect();
        if released.is_empty() {
            return;
        }
        let installed = self.view_of(lwg).map(|v| v.id);
        for h in released {
            if joined && Some(h.view) != installed {
                ctx.metrics().incr(keys::FILTERED);
            } else {
                self.handle_lwg_data(ctx, h.hwg, lwg, h.view, h.src, h.data);
            }
        }
    }
}
