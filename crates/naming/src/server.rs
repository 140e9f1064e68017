//! The name-server process.
//!
//! Each server owns a [`MappingDb`] replica, answers client requests from
//! its own replica (weak consistency — paper §3.1 explicitly allows clients
//! to read outdated mappings), gossips with its peers, and emits
//! `MULTIPLE-MAPPINGS` callbacks to affected group members when a write or
//! a reconciliation leaves a group with concurrent mappings — and again
//! once per gossip period while they persist.

use crate::config::NamingConfig;
use crate::db::MappingDb;
use crate::events::NamingEvent;
use crate::id::LwgId;
use crate::keys;
use crate::msg::NsMsg;
use crate::wire;
use plwg_sim::{
    decode_frame, family, peek_family, NodeId, Payload, Process, TimerToken, Transport,
    TransportExt,
};
use std::any::Any;
use std::collections::BTreeSet;

const TOK_GOSSIP: TimerToken = TimerToken(0x0200_0000_0000_0001);

/// A replicated name server (one per designated node).
pub struct NameServer {
    me: NodeId,
    peers: Vec<NodeId>,
    cfg: NamingConfig,
    db: MappingDb,
    gossip_rounds: u64,
}

impl NameServer {
    /// Creates a server; `peers` are the *other* server nodes it gossips
    /// with.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is invalid or `peers` contains `me`.
    pub fn new(me: NodeId, peers: Vec<NodeId>, cfg: NamingConfig) -> Self {
        cfg.validate().unwrap_or_else(|e| panic!("{e}"));
        assert!(!peers.contains(&me), "peer list must not include self");
        NameServer {
            me,
            peers,
            cfg,
            db: MappingDb::new(),
            gossip_rounds: 0,
        }
    }

    /// Read access to the replica (tests and experiment probes).
    pub fn db(&self) -> &MappingDb {
        &self.db
    }

    /// Sends a `MULTIPLE-MAPPINGS` callback for each of `lwgs` whose entry
    /// holds concurrent mappings, to every member of every such mapping;
    /// consistent ones are skipped.
    ///
    /// Callers pass what changed: a `Set`/`TestSet` its own LWG, a gossip
    /// merge the LWGs it changed — so a heal of L groups costs O(L)
    /// callbacks, not one sweep of every inconsistent group per write. The
    /// gossip tick passes every inconsistent LWG: callbacks are idempotent
    /// triggers, and that once-per-period re-send is what makes the
    /// mechanism robust to a callback lost during the heal itself.
    fn notify_inconsistencies(&mut self, ctx: &mut dyn Transport, lwgs: &[LwgId]) {
        if !self.cfg.push_callbacks {
            return;
        }
        for &lwg in lwgs {
            if !self.db.is_inconsistent(lwg) {
                continue;
            }
            let mappings = self.db.read(lwg);
            let targets: BTreeSet<NodeId> = mappings
                .iter()
                .flat_map(|m| m.members.iter().copied())
                .collect();
            ctx.metrics().incr(keys::CALLBACKS);
            ctx.emit(|| NamingEvent::MultipleMappings {
                lwg,
                mappings: mappings.len(),
                targets: targets.iter().copied().collect(),
            });
            // One encode per inconsistency; each target gets a refcount
            // clone of the same frame.
            let callback = wire::frame(&NsMsg::MultipleMappings { lwg, mappings });
            for t in targets {
                ctx.send(t, callback.clone());
            }
        }
    }

    fn reply(&mut self, ctx: &mut dyn Transport, to: NodeId, req: crate::RequestId, lwg: LwgId) {
        let mappings = self.db.read(lwg);
        ctx.send(to, wire::frame(&NsMsg::Reply { req, lwg, mappings }));
    }
}

impl Process for NameServer {
    fn on_start(&mut self, ctx: &mut dyn Transport) {
        ctx.set_timer(self.cfg.gossip_interval, TOK_GOSSIP);
    }

    fn on_message(&mut self, ctx: &mut dyn Transport, from: NodeId, msg: Payload) {
        if peek_family(&msg) != Some(family::NS) {
            return;
        }
        let ns = match decode_frame::<NsMsg>(family::NS, &msg) {
            Ok(ns) => ns,
            Err(_) => {
                ctx.metrics().incr(keys::DECODE_ERRORS);
                return;
            }
        };
        match &ns {
            NsMsg::Set {
                req,
                lwg,
                mapping,
                preds,
            } => {
                ctx.metrics().incr(keys::SETS);
                self.db.set(*lwg, mapping.clone(), preds);
                self.reply(ctx, from, *req, *lwg);
                self.notify_inconsistencies(ctx, &[*lwg]);
            }
            NsMsg::Read { req, lwg } => {
                ctx.metrics().incr(keys::READS);
                self.reply(ctx, from, *req, *lwg);
            }
            NsMsg::TestSet {
                req,
                lwg,
                mapping,
                preds,
            } => {
                ctx.metrics().incr(keys::TESTSETS);
                let winners = self.db.testset(*lwg, mapping.clone(), preds);
                ctx.send(
                    from,
                    wire::frame(&NsMsg::Reply {
                        req: *req,
                        lwg: *lwg,
                        mappings: winners,
                    }),
                );
                self.notify_inconsistencies(ctx, &[*lwg]);
            }
            NsMsg::Unset { req, lwg, lwg_view } => {
                ctx.metrics().incr(keys::UNSETS);
                self.db.unset(*lwg, *lwg_view);
                self.reply(ctx, from, *req, *lwg);
            }
            NsMsg::Gossip { db } => {
                let changed = self.db.merge(db);
                if !changed.is_empty() {
                    ctx.metrics().incr(keys::RECONCILIATIONS);
                    ctx.emit(|| NamingEvent::Reconcile {
                        changed: changed.clone(),
                    });
                    self.notify_inconsistencies(ctx, &changed);
                }
            }
            NsMsg::Reply { .. } | NsMsg::MultipleMappings { .. } => {
                // Client-bound messages; a server ignores strays.
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut dyn Transport, token: TimerToken) {
        if token != TOK_GOSSIP {
            return;
        }
        if !self.peers.is_empty() {
            // Encode the snapshot once, straight from the replica; every
            // peer receives a refcount clone of the same frame.
            let gossip = wire::gossip_frame(&self.db);
            for &p in &self.peers {
                ctx.metrics().incr(keys::GOSSIP_SENT);
                ctx.send(p, gossip.clone());
            }
        }
        // Re-notify while inconsistencies persist (robust to lost
        // callbacks around the heal).
        let inconsistent = self.db.inconsistent();
        self.notify_inconsistencies(ctx, &inconsistent);
        // Periodic housekeeping: drop lineage bookkeeping nothing can
        // reach any more.
        self.gossip_rounds += 1;
        if self.gossip_rounds.is_multiple_of(32) {
            let removed = self.db.compact();
            if removed > 0 {
                ctx.metrics().add(keys::COMPACTED_EDGES, removed as u64);
            }
        }
        ctx.set_timer(self.cfg.gossip_interval, TOK_GOSSIP);
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

impl std::fmt::Debug for NameServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NameServer")
            .field("me", &self.me)
            .field("peers", &self.peers)
            .field("mappings", &self.db.len())
            .finish_non_exhaustive()
    }
}
