//! The client-side stub of the naming service.
//!
//! A passive component owned by each LWG-service node (same pattern as
//! the HWG stack): the owner forwards messages and timers and
//! drains [`NsEvent`]s. The stub picks a server, times out, and fails over
//! to the next one — so requests keep being served as long as *some* server
//! is reachable in the caller's partition (the paper's placement
//! assumption, §5.2).

use crate::db::Mapping;
use crate::id::LwgId;
use crate::msg::NsMsg;
use crate::wire;
use plwg_hwg::ViewId;
use plwg_sim::{
    decode_frame, family, peek_family, NodeId, Payload, SimDuration, SimTime, TimerToken, Transport,
};
use std::collections::BTreeMap;

const TOK_NS_RETRY: TimerToken = TimerToken(0x0200_0000_0000_0002);

/// Request watchdog: how long a request may go unanswered before it is
/// retried, possibly against another server.
const REQUEST_TIMEOUT: SimDuration = SimDuration::from_millis(400);

/// Correlates a reply with its request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RequestId(pub u64);

/// Upcalls from the naming stub to its owner.
#[derive(Debug, Clone)]
pub enum NsEvent {
    /// A request completed; `mappings` are the group's current mappings
    /// after the operation.
    Reply {
        /// The request this answers.
        req: RequestId,
        /// The LWG concerned.
        lwg: LwgId,
        /// Current mappings at the answering server.
        mappings: Vec<Mapping>,
    },
    /// Server-initiated `MULTIPLE-MAPPINGS` callback (paper §6.1).
    MultipleMappings {
        /// The LWG with concurrent mappings.
        lwg: LwgId,
        /// All mappings the server holds for it.
        mappings: Vec<Mapping>,
    },
}

struct Pending {
    template: NsMsg,
    server_idx: usize,
    deadline: SimTime,
}

/// Client stub: request/retry bookkeeping against the server set.
pub struct NsClient {
    me: NodeId,
    servers: Vec<NodeId>,
    next_req: u64,
    pending: BTreeMap<RequestId, Pending>,
    events: Vec<NsEvent>,
}

impl NsClient {
    /// Creates a stub that talks to `servers` (at least one).
    ///
    /// # Panics
    ///
    /// Panics if `servers` is empty.
    pub fn new(me: NodeId, servers: Vec<NodeId>) -> Self {
        assert!(!servers.is_empty(), "need at least one name server");
        NsClient {
            me,
            servers,
            next_req: 0,
            pending: BTreeMap::new(),
            events: Vec::new(),
        }
    }

    /// `ns.read` — asynchronously fetch the current mappings of `lwg`.
    pub fn read(&mut self, ctx: &mut dyn Transport, lwg: LwgId) -> RequestId {
        let req = self.fresh_req();
        self.dispatch(ctx, req, NsMsg::Read { req, lwg });
        req
    }

    /// `ns.set` — register (or refresh) a view-to-view mapping.
    pub fn set(
        &mut self,
        ctx: &mut dyn Transport,
        lwg: LwgId,
        mapping: Mapping,
        preds: Vec<ViewId>,
    ) -> RequestId {
        let req = self.fresh_req();
        self.dispatch(
            ctx,
            req,
            NsMsg::Set {
                req,
                lwg,
                mapping,
                preds,
            },
        );
        req
    }

    /// `ns.testset` — claim the mapping if the group has none.
    pub fn testset(
        &mut self,
        ctx: &mut dyn Transport,
        lwg: LwgId,
        mapping: Mapping,
        preds: Vec<ViewId>,
    ) -> RequestId {
        let req = self.fresh_req();
        self.dispatch(
            ctx,
            req,
            NsMsg::TestSet {
                req,
                lwg,
                mapping,
                preds,
            },
        );
        req
    }

    /// Removes the mapping of a dissolved view.
    pub fn unset(&mut self, ctx: &mut dyn Transport, lwg: LwgId, lwg_view: ViewId) -> RequestId {
        let req = self.fresh_req();
        self.dispatch(ctx, req, NsMsg::Unset { req, lwg, lwg_view });
        req
    }

    /// Handles an incoming message if it belongs to the naming protocol.
    /// Returns `true` when consumed.
    pub fn on_message(&mut self, ctx: &mut dyn Transport, _from: NodeId, msg: &Payload) -> bool {
        if peek_family(msg) != Some(family::NS) {
            return false;
        }
        let ns = match decode_frame::<NsMsg>(family::NS, msg) {
            Ok(ns) => ns,
            Err(_) => {
                ctx.metrics().incr(crate::keys::DECODE_ERRORS);
                return true;
            }
        };
        match ns {
            NsMsg::Reply { req, lwg, mappings } if self.pending.remove(&req).is_some() => {
                self.events.push(NsEvent::Reply { req, lwg, mappings });
            }
            NsMsg::MultipleMappings { lwg, mappings } => {
                self.events
                    .push(NsEvent::MultipleMappings { lwg, mappings });
            }
            // Server-bound messages reaching a client are strays (e.g. a
            // node that is both client and server is not supported).
            _ => {}
        }
        true
    }

    /// Handles the retry timer. Returns `true` when consumed.
    pub fn on_timer(&mut self, ctx: &mut dyn Transport, token: TimerToken) -> bool {
        if token != TOK_NS_RETRY {
            return false;
        }
        let now = ctx.now();
        let expired: Vec<RequestId> = self
            .pending
            .iter()
            .filter(|(_, p)| now >= p.deadline)
            .map(|(&r, _)| r)
            .collect();
        for req in expired {
            let mut p = self.pending.remove(&req).expect("just listed");
            // Fail over to the next server.
            p.server_idx = (p.server_idx + 1) % self.servers.len();
            p.deadline = now + REQUEST_TIMEOUT;
            ctx.metrics().incr(crate::keys::CLIENT_RETRIES);
            ctx.send(self.servers[p.server_idx], wire::frame(&p.template));
            self.pending.insert(req, p);
        }
        if !self.pending.is_empty() {
            ctx.set_timer(REQUEST_TIMEOUT, TOK_NS_RETRY);
        }
        true
    }

    /// Takes the events produced since the last drain.
    pub fn drain_events(&mut self) -> Vec<NsEvent> {
        std::mem::take(&mut self.events)
    }

    /// Number of requests still awaiting a reply.
    pub fn pending_requests(&self) -> usize {
        self.pending.len()
    }

    fn fresh_req(&mut self) -> RequestId {
        self.next_req += 1;
        RequestId((u64::from(self.me.0) << 32) | self.next_req)
    }

    fn dispatch(&mut self, ctx: &mut dyn Transport, req: RequestId, msg: NsMsg) {
        // Spread load: each client starts from a home server and rotates on
        // failure.
        let idx = self.me.index() % self.servers.len();
        ctx.metrics().incr(crate::keys::CLIENT_REQUESTS);
        ctx.send(self.servers[idx], wire::frame(&msg));
        let had_pending = !self.pending.is_empty();
        self.pending.insert(
            req,
            Pending {
                template: msg,
                server_idx: idx,
                deadline: ctx.now() + REQUEST_TIMEOUT,
            },
        );
        if !had_pending {
            ctx.set_timer(REQUEST_TIMEOUT, TOK_NS_RETRY);
        }
    }
}

impl std::fmt::Debug for NsClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NsClient")
            .field("me", &self.me)
            .field("servers", &self.servers)
            .field("pending", &self.pending.len())
            .finish_non_exhaustive()
    }
}
