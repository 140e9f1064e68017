//! The three service configurations of paper Figure 2, behind one node
//! type.
//!
//! * [`ServiceMode::NoLwg`] — every user group is its own heavy-weight
//!   group (a full virtually-synchronous stack per group).
//! * [`ServiceMode::Static`] — user groups are LWGs, all mapped onto a
//!   single HWG containing every process; the mapping never changes
//!   (policies disabled).
//! * [`ServiceMode::Dynamic`] — the full service of `plwg-core`, with
//!   the Figure-1 policies re-mapping groups at run time.

use plwg_core::{LwgConfig, LwgEvent, LwgId, LwgService};
use plwg_sim::{
    Frame, NodeId, Payload, Process, SimDuration, SimTime, TimerToken, Transport, World,
};
use plwg_vsync::{HwgId, VsEvent, VsyncStack};
use std::any::Any;

/// Which of the paper's three configurations a [`BenchNode`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceMode {
    /// One HWG per user group (the "no LWG service" baseline).
    NoLwg,
    /// All user groups mapped statically onto one big HWG.
    Static,
    /// The dynamic light-weight group service (the paper's system).
    Dynamic,
}

impl ServiceMode {
    /// Short label used in report rows.
    pub fn label(self) -> &'static str {
        match self {
            ServiceMode::NoLwg => "no-lwg",
            ServiceMode::Static => "static",
            ServiceMode::Dynamic => "dynamic",
        }
    }
}

/// A timestamped experiment payload: a fixed 16-byte frame (`seq` then
/// `sent_at` in micros, both little endian).
#[derive(Debug, Clone, Copy)]
pub struct Stamped {
    /// Sequence number within the sender's stream.
    pub seq: u64,
    /// Virtual send time.
    pub sent_at: SimTime,
}

impl Stamped {
    /// Serializes into a fresh 16-byte frame.
    pub fn to_frame(self) -> Payload {
        let mut buf = Vec::with_capacity(16);
        buf.extend_from_slice(&self.seq.to_le_bytes());
        buf.extend_from_slice(&self.sent_at.as_micros().to_le_bytes());
        Frame::from_vec(buf)
    }

    /// Parses a 16-byte frame; `None` when the payload is not one.
    pub fn from_frame(frame: &Payload) -> Option<Stamped> {
        let bytes: &[u8; 16] = frame.bytes().try_into().ok()?;
        let (seq, at) = bytes.split_at(8);
        Some(Stamped {
            seq: u64::from_le_bytes(seq.try_into().expect("8 bytes")),
            sent_at: SimTime::from_micros(u64::from_le_bytes(at.try_into().expect("8 bytes"))),
        })
    }
}

/// One recorded delivery.
#[derive(Debug, Clone, Copy)]
pub struct Delivery {
    /// Sender.
    pub src: NodeId,
    /// Virtual send time (from the payload).
    pub sent_at: SimTime,
    /// Virtual delivery time.
    pub recv_at: SimTime,
}

/// One recorded view installation.
#[derive(Debug, Clone)]
pub struct ViewRecord {
    /// User group.
    pub group: u64,
    /// When the view was installed here.
    pub at: SimTime,
    /// Members, sorted.
    pub members: Vec<NodeId>,
}

enum Inner {
    Raw(Box<VsyncStack>),
    Lwg(Box<LwgService<VsyncStack>>),
}

/// An experiment node able to run in any [`ServiceMode`], recording every
/// delivery and view installation with timestamps.
pub struct BenchNode {
    inner: Inner,
    /// Recorded deliveries, in order.
    pub deliveries: Vec<Delivery>,
    /// Recorded view installations, in order.
    pub views: Vec<ViewRecord>,
}

impl BenchNode {
    /// Creates a node for `me` in `mode`. `servers` and `cfg` are used by
    /// the LWG modes; `cfg.hwg` by all.
    pub fn new(me: NodeId, mode: ServiceMode, servers: Vec<NodeId>, cfg: LwgConfig) -> Self {
        let inner = match mode {
            ServiceMode::NoLwg => Inner::Raw(Box::new(VsyncStack::new(me, cfg.hwg.clone()))),
            ServiceMode::Static | ServiceMode::Dynamic => Inner::Lwg(Box::new(
                LwgService::builder(me)
                    .servers(servers)
                    .config(cfg)
                    .build()
                    .expect("valid LWG config"),
            )),
        };
        BenchNode {
            inner,
            deliveries: Vec::new(),
            views: Vec::new(),
        }
    }

    /// The configuration for static mode: the dynamic service with all
    /// adaptive machinery effectively disabled.
    pub fn static_config(base: LwgConfig) -> LwgConfig {
        LwgConfig {
            policy_interval: SimDuration::from_secs(100_000),
            shrink_grace: SimDuration::from_secs(100_000),
            ..base
        }
    }

    /// Joins user group `group`. In raw mode, `found` selects create vs
    /// probe (the runner passes `true` for the first member).
    pub fn join_group(&mut self, ctx: &mut dyn Transport, group: u64, found: bool) {
        match &mut self.inner {
            Inner::Raw(stack) => {
                if found {
                    stack.create(ctx, HwgId(group));
                } else {
                    stack.join(ctx, HwgId(group));
                }
            }
            Inner::Lwg(svc) => svc.join(ctx, LwgId(group)),
        }
        self.drain(ctx.now());
    }

    /// Sends a stamped message on `group`.
    pub fn send_stamped(&mut self, ctx: &mut dyn Transport, group: u64, seq: u64) {
        let msg = Stamped {
            seq,
            sent_at: ctx.now(),
        };
        match &mut self.inner {
            Inner::Raw(stack) => stack.send(ctx, HwgId(group), msg.to_frame()),
            Inner::Lwg(svc) => svc.send(ctx, LwgId(group), msg.to_frame()),
        }
        self.drain(ctx.now());
    }

    /// Current members of `group` at this node (sorted), if a view is
    /// installed.
    fn members_of(&self, group: u64) -> Option<Vec<NodeId>> {
        match &self.inner {
            Inner::Raw(stack) => stack.view_of(HwgId(group)).map(|v| v.sorted_members()),
            Inner::Lwg(svc) => svc.view_of(LwgId(group)).map(|v| v.sorted_members()),
        }
    }

    /// Whether every one of `members` (all [`BenchNode`]s) shows exactly
    /// `members` as its view of `group`.
    pub(crate) fn is_whole(world: &mut World, group: u64, members: &[NodeId]) -> bool {
        let mut expect = members.to_vec();
        expect.sort_unstable();
        members.iter().all(|&m| {
            world
                .inspect(m, |n: &BenchNode| n.members_of(group))
                .as_deref()
                == Some(&expect[..])
        })
    }

    /// Raw ids of the HWGs this node belongs to.
    pub fn hwg_ids(&self) -> Vec<u64> {
        match &self.inner {
            Inner::Raw(stack) => stack.groups().map(|h| h.0).collect(),
            Inner::Lwg(svc) => svc.hwgs().into_iter().map(|h| h.0).collect(),
        }
    }

    /// Size of the HWG view backing user group `group` at this node
    /// (`None` when unmapped). In raw mode the group *is* its HWG.
    pub fn backing_hwg_size(&self, group: u64) -> Option<usize> {
        match &self.inner {
            Inner::Raw(stack) => stack.view_of(HwgId(group)).map(plwg_vsync::View::len),
            Inner::Lwg(svc) => {
                let hwg = svc.mapping_of(LwgId(group))?;
                svc.hwg_stack().view_of(hwg).map(plwg_vsync::View::len)
            }
        }
    }

    fn drain(&mut self, now: SimTime) {
        let BenchNode {
            inner,
            deliveries,
            views,
        } = self;
        let mut on_data = |src, data: &Payload| {
            if let Some(st) = Stamped::from_frame(data) {
                deliveries.push(Delivery {
                    src,
                    sent_at: st.sent_at,
                    recv_at: now,
                });
            }
        };
        let mut on_view = |group, members| {
            views.push(ViewRecord {
                group,
                at: now,
                members,
            })
        };
        match inner {
            Inner::Raw(stack) => {
                for ev in stack.drain_events() {
                    match ev {
                        VsEvent::Data { src, data, .. } => on_data(src, &data),
                        VsEvent::View { hwg, view } => on_view(hwg.0, view.sorted_members()),
                        VsEvent::Stop { .. } | VsEvent::Left { .. } => {}
                    }
                }
            }
            Inner::Lwg(svc) => {
                for ev in svc.drain_events() {
                    match ev {
                        LwgEvent::Data { src, data, .. } => on_data(src, &data),
                        LwgEvent::View { lwg, view } => on_view(lwg.0, view.sorted_members()),
                        LwgEvent::Left { .. } => {}
                    }
                }
            }
        }
    }
}

impl Process for BenchNode {
    fn on_start(&mut self, ctx: &mut dyn Transport) {
        match &mut self.inner {
            Inner::Raw(stack) => stack.start(ctx),
            Inner::Lwg(svc) => svc.start(ctx),
        }
    }

    fn on_message(&mut self, ctx: &mut dyn Transport, from: NodeId, msg: Payload) {
        let consumed = match &mut self.inner {
            Inner::Raw(stack) => stack.on_message(ctx, from, &msg),
            Inner::Lwg(svc) => svc.on_message(ctx, from, &msg),
        };
        if consumed {
            self.drain(ctx.now());
        }
    }

    fn on_timer(&mut self, ctx: &mut dyn Transport, token: TimerToken) {
        let consumed = match &mut self.inner {
            Inner::Raw(stack) => stack.on_timer(ctx, token),
            Inner::Lwg(svc) => svc.on_timer(ctx, token),
        };
        if consumed {
            self.drain(ctx.now());
        }
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}
