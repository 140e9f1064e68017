//! The name-server process.
//!
//! Each server owns a [`MappingDb`] replica, answers client requests from
//! its own replica (weak consistency — paper §3.1 explicitly allows clients
//! to read outdated mappings), gossips with its peers, and emits
//! `MULTIPLE-MAPPINGS` callbacks to affected group members when a write or
//! a reconciliation leaves a group with concurrent mappings — and again
//! once per gossip period while they persist.
//!
//! Gossip is digest-driven anti-entropy. On every tick a server sends each
//! peer one `Sync` carrying its replica's root digest, and adds the whole
//! replica only if that peer's latest digest arrived since this server's
//! last `Sync` to it and differs from the root — unless the root is the
//! one this server shipped the peer since its previous tick: the peer's
//! digest crossed that snapshot in flight and says nothing about it. A
//! `Sync` that ends a silence of more than 1.5 gossip periods with a
//! differing root is answered at once with the replica, so a heal
//! reconciles one round trip after first contact. Replies aside, the
//! sends and their times are those of full-snapshot gossip: the simulator
//! draws one jitter per send, so this keeps every run's random stream.

use crate::config::NamingConfig;
use crate::db::{Digest, MappingDb};
use crate::events::NamingEvent;
use crate::id::LwgId;
use crate::keys;
use crate::msg::NsMsg;
use crate::wire;
use plwg_sim::{
    decode_frame, family, peek_family, NodeId, Payload, Process, SimTime, TimerToken, Transport,
    TransportExt,
};
use std::any::Any;
use std::collections::BTreeSet;

const TOK_GOSSIP: TimerToken = TimerToken(0x0200_0000_0000_0001);

/// What a server knows of one peer's replica.
#[derive(Debug)]
struct Peer {
    id: NodeId,
    /// When the peer's last `Sync` arrived, or this server started.
    heard: SimTime,
    /// The peer's latest root, while it is news: it arrived after this
    /// server's last `Sync` to the peer.
    fresh: Option<Digest>,
    /// The root of the snapshot this server sent the peer since its
    /// previous tick, if it sent one.
    shipped: Option<Digest>,
}

/// A replicated name server (one per designated node).
pub struct NameServer {
    me: NodeId,
    peers: Vec<Peer>,
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
        let peers = (peers.into_iter())
            .map(|id| Peer {
                id,
                heard: SimTime::ZERO,
                fresh: None,
                shipped: None,
            })
            .collect();
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

    /// Sends `frame`, a `Sync`, to `to`.
    fn send_sync(ctx: &mut dyn Transport, to: NodeId, frame: Payload) {
        ctx.metrics().incr(keys::GOSSIP_SENT);
        ctx.metrics().add(keys::GOSSIP_BYTES, frame.len() as u64);
        ctx.send(to, frame);
    }

    fn reply(&mut self, ctx: &mut dyn Transport, to: NodeId, req: crate::RequestId, lwg: LwgId) {
        let mappings = self.db.read(lwg);
        ctx.send(to, wire::frame(&NsMsg::Reply { req, lwg, mappings }));
    }
}

impl Process for NameServer {
    fn on_start(&mut self, ctx: &mut dyn Transport) {
        for p in &mut self.peers {
            p.heard = ctx.now();
            p.fresh = None;
        }
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
            NsMsg::Sync { root, db } => {
                let changed = self.db.merge(db);
                if !changed.is_empty() {
                    ctx.metrics().incr(keys::RECONCILIATIONS);
                    ctx.emit(|| NamingEvent::Reconcile {
                        changed: changed.clone(),
                    });
                    self.notify_inconsistencies(ctx, &changed);
                }
                let Some(peer) = self.peers.iter_mut().find(|p| p.id == from) else {
                    return;
                };
                let now = ctx.now();
                let silence = now.saturating_since(peer.heard);
                peer.heard = now;
                peer.fresh = Some(*root);
                // First contact after a silence: push-pull in one round
                // trip instead of waiting for the next tick.
                let silent = silence.saturating_mul(2) > self.cfg.gossip_interval.saturating_mul(3);
                if silent && *root != self.db.root() {
                    peer.fresh = None;
                    peer.shipped = Some(self.db.root());
                    Self::send_sync(ctx, from, wire::sync_frame(&self.db, true));
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
        // Each frame is encoded at most once, straight from the replica;
        // every peer receives a refcount clone.
        let root = self.db.root();
        let (mut digest, mut snapshot) = (None, None);
        for p in &mut self.peers {
            let differs = p.fresh.take().is_some_and(|theirs| theirs != root);
            let ship = differs && p.shipped != Some(root);
            p.shipped = ship.then_some(root);
            let frame = if ship {
                snapshot.get_or_insert_with(|| wire::sync_frame(&self.db, true))
            } else {
                digest.get_or_insert_with(|| wire::sync_frame(&self.db, false))
            };
            Self::send_sync(ctx, p.id, frame.clone());
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
