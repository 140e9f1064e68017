//! Naming-service scenarios over the simulator: request failover,
//! cross-partition divergence, reconciliation, and callbacks.

use plwg_hwg::{HwgId, ViewId};
use plwg_naming::{
    Digest, LwgId, Mapping, MappingDb, NameServer, NamingConfig, NsClient, NsEvent, NsMsg,
    RequestId,
};
use plwg_sim::{
    encode_frame, family, NetConfig, NodeId, Payload, Process, SimDuration, SimTime, TimerToken,
    Transport, World, WorldConfig,
};
use std::any::Any;

/// A bare client node: records replies and callbacks.
struct ClientApp {
    me: NodeId,
    ns: NsClient,
    replies: Vec<(RequestId, LwgId, Vec<Mapping>)>,
    callbacks: Vec<(LwgId, Vec<Mapping>)>,
    /// Answer every MULTIPLE-MAPPINGS callback the way an LWG coordinator
    /// does: register one merged view succeeding all the mapped ones.
    reconcile: bool,
}

impl ClientApp {
    fn new(me: NodeId, servers: Vec<NodeId>) -> Self {
        ClientApp {
            me,
            ns: NsClient::new(me, servers),
            replies: Vec::new(),
            callbacks: Vec::new(),
            reconcile: false,
        }
    }
    fn drain(&mut self, ctx: &mut dyn Transport) {
        for ev in self.ns.drain_events() {
            match ev {
                NsEvent::Reply { req, lwg, mappings } => self.replies.push((req, lwg, mappings)),
                NsEvent::MultipleMappings { lwg, mappings } => {
                    if self.reconcile {
                        let mut members: Vec<NodeId> =
                            mappings.iter().flat_map(|m| m.members.clone()).collect();
                        members.sort_unstable();
                        members.dedup();
                        let hwg = mappings.iter().map(|m| m.hwg.0).max().unwrap_or(0);
                        let preds = mappings.iter().map(|m| m.lwg_view).collect();
                        let merged = mapping(ViewId::new(self.me, 100), hwg, &members);
                        self.ns.set(ctx, lwg, merged, preds);
                    }
                    self.callbacks.push((lwg, mappings));
                }
            }
        }
    }
    fn callbacks_for(&self, lwg: LwgId) -> usize {
        self.callbacks.iter().filter(|(l, _)| *l == lwg).count()
    }
}

impl Process for ClientApp {
    fn on_message(&mut self, ctx: &mut dyn Transport, from: NodeId, msg: Payload) {
        if self.ns.on_message(ctx, from, &msg) {
            self.drain(ctx);
        }
    }
    fn on_timer(&mut self, ctx: &mut dyn Transport, token: TimerToken) {
        if self.ns.on_timer(ctx, token) {
            self.drain(ctx);
        }
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

const A: LwgId = LwgId(1);

fn vid(c: u32, s: u64) -> ViewId {
    ViewId::new(NodeId(c), s)
}

fn mapping(lv: ViewId, hwg: u64, members: &[NodeId]) -> Mapping {
    Mapping {
        lwg_view: lv,
        members: members.to_vec(),
        hwg: HwgId(hwg),
        hwg_view: lv,
    }
}

/// Two servers (n0, n1) and two clients (n2, n3).
fn setup(seed: u64) -> (World, Vec<NodeId>, Vec<NodeId>) {
    let mut w = World::new(WorldConfig {
        seed,
        trace: true,
        ..WorldConfig::default()
    });
    let s0 = w.add_node(Box::new(NameServer::new(
        NodeId(0),
        vec![NodeId(1)],
        NamingConfig::default(),
    )));
    let s1 = w.add_node(Box::new(NameServer::new(
        NodeId(1),
        vec![NodeId(0)],
        NamingConfig::default(),
    )));
    let servers = vec![s0, s1];
    let c2 = w.add_node(Box::new(ClientApp::new(NodeId(2), servers.clone())));
    let c3 = w.add_node(Box::new(ClientApp::new(NodeId(3), servers.clone())));
    (w, servers, vec![c2, c3])
}

/// The longest one-way delay of the default network.
fn max_latency() -> SimDuration {
    let net = NetConfig::default();
    net.base_latency + net.jitter
}

/// `Sync` frames and their bytes sent so far.
fn gossip(w: &World) -> (u64, u64) {
    let m = w.metrics();
    (
        m.counter(plwg_naming::keys::GOSSIP_SENT),
        m.counter(plwg_naming::keys::GOSSIP_BYTES),
    )
}

/// Asserts that the `Sync`s sent since `before` (from [`gossip`]) carried
/// no snapshot, and that there were at least `min` of them.
fn assert_digests_only(w: &World, before: (u64, u64), min: u64, what: &str) {
    let digest_only = NsMsg::Sync {
        root: Digest(0),
        db: MappingDb::new(),
    };
    let budget = encode_frame(family::NS, &digest_only).len() as u64;
    let (frames, bytes) = gossip(w);
    let (frames, bytes) = (frames - before.0, bytes - before.1);
    assert!(frames >= min, "{what}: {frames} syncs");
    assert!(
        bytes <= frames * budget,
        "{what}: {bytes} B in {frames} syncs (at most {budget} B each without a snapshot)"
    );
}

/// Both servers' replicas.
fn replicas(w: &mut World, servers: &[NodeId]) -> [MappingDb; 2] {
    [0, 1].map(|i| w.inspect(servers[i], |s: &NameServer| s.db().clone()))
}

#[test]
fn set_then_read_roundtrip() {
    let (mut w, _servers, clients) = setup(1);
    let m = mapping(vid(2, 1), 7, &[NodeId(2)]);
    w.invoke(clients[0], {
        let m = m.clone();
        move |c: &mut ClientApp, ctx| {
            c.ns.set(ctx, A, m, vec![]);
        }
    });
    w.run_for(SimDuration::from_secs(2));
    w.invoke(clients[1], |c: &mut ClientApp, ctx| {
        c.ns.read(ctx, A);
    });
    w.run_for(SimDuration::from_secs(2));
    w.inspect(clients[1], |c: &ClientApp| {
        let (_, lwg, mappings) = c.replies.last().expect("read reply");
        assert_eq!(*lwg, A);
        assert_eq!(mappings, &vec![m]);
    });
}

#[test]
fn gossip_replicates_between_servers() {
    let (mut w, servers, clients) = setup(2);
    // Client 2's home server is n0 (2 % 2 = 0). Write there, then check n1.
    w.invoke(clients[0], |c: &mut ClientApp, ctx| {
        c.ns.set(ctx, A, mapping(vid(2, 1), 7, &[NodeId(2)]), vec![]);
    });
    w.run_for(SimDuration::from_secs(3));
    w.inspect(servers[1], |s: &NameServer| {
        assert_eq!(s.db().read(A).len(), 1, "gossip must replicate the set");
    });
    // Converged replicas have equal roots, and from then on each tick
    // sends only the digest: two servers, ten ticks each.
    let [a, b] = replicas(&mut w, &servers);
    assert_eq!(a, b);
    assert_eq!(a.root(), b.root());
    let before = gossip(&w);
    w.run_for(SimDuration::from_secs(5));
    assert_digests_only(&w, before, 20, "a converged pair");
}

#[test]
fn client_fails_over_when_home_server_is_down() {
    let (mut w, servers, clients) = setup(3);
    w.crash(servers[0]); // client 2's home server
    w.invoke(clients[0], |c: &mut ClientApp, ctx| {
        c.ns.read(ctx, A);
    });
    w.run_for(SimDuration::from_secs(3));
    w.inspect(clients[0], |c: &ClientApp| {
        assert_eq!(c.replies.len(), 1, "retry must reach the other server");
        assert_eq!(c.ns.pending_requests(), 0);
    });
    assert!(w.metrics().counter(plwg_naming::keys::CLIENT_RETRIES) >= 1);
}

/// The full §5.2/§6.1 flow: divergent writes in two partitions, heal,
/// reconciliation keeps both mappings and fires MULTIPLE-MAPPINGS at every
/// member of every conflicting view.
#[test]
fn partition_divergence_reconciles_with_callbacks() {
    let (mut w, servers, clients) = setup(4);
    // Partition: {s0, c2} | {s1, c3}.
    w.split_at(
        SimTime::from_secs(1),
        vec![vec![servers[0], clients[0]], vec![servers[1], clients[1]]],
    );
    // Each side maps LWG A onto a *different* HWG (concurrent views).
    w.invoke_at(
        SimTime::from_secs(2),
        clients[0],
        |c: &mut ClientApp, ctx| {
            c.ns.set(ctx, A, mapping(vid(2, 1), 7, &[NodeId(2)]), vec![]);
        },
    );
    w.invoke_at(
        SimTime::from_secs(2),
        clients[1],
        |c: &mut ClientApp, ctx| {
            c.ns.set(ctx, A, mapping(vid(3, 1), 9, &[NodeId(3)]), vec![]);
        },
    );
    w.run_until(SimTime::from_secs(6));
    // While partitioned: each server has exactly its side's mapping.
    w.inspect(servers[0], |s: &NameServer| {
        let got = s.db().read(A);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].hwg, HwgId(7));
    });
    w.inspect(servers[1], |s: &NameServer| {
        let got = s.db().read(A);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].hwg, HwgId(9));
    });

    w.heal_at(SimTime::from_secs(6));
    w.run_until(SimTime::from_secs(12));
    // Reconciliation: both servers hold both mappings (paper Table 3).
    for &s in &servers {
        w.inspect(s, |s: &NameServer| {
            assert_eq!(s.db().read(A).len(), 2, "both mappings coexist");
            assert_eq!(s.db().inconsistent(), vec![A]);
        });
    }
    // Both members got the callback.
    for &c in &clients {
        w.inspect(c, |c: &ClientApp| {
            assert!(
                !c.callbacks.is_empty(),
                "member must receive MULTIPLE-MAPPINGS"
            );
            let (lwg, mappings) = &c.callbacks[0];
            assert_eq!(*lwg, A);
            assert_eq!(mappings.len(), 2);
        });
    }
    assert!(w.metrics().counter(plwg_naming::keys::RECONCILIATIONS) >= 1);
}

/// After the conflict is resolved by registering a merged successor view,
/// callbacks stop and the database collapses to one mapping (Table 4).
#[test]
fn merged_view_registration_clears_inconsistency() {
    let (mut w, servers, clients) = setup(5);
    w.split_at(
        SimTime::from_secs(1),
        vec![vec![servers[0], clients[0]], vec![servers[1], clients[1]]],
    );
    w.invoke_at(
        SimTime::from_secs(2),
        clients[0],
        |c: &mut ClientApp, ctx| {
            c.ns.set(ctx, A, mapping(vid(2, 1), 7, &[NodeId(2)]), vec![]);
        },
    );
    w.invoke_at(
        SimTime::from_secs(2),
        clients[1],
        |c: &mut ClientApp, ctx| {
            c.ns.set(ctx, A, mapping(vid(3, 1), 9, &[NodeId(3)]), vec![]);
        },
    );
    w.heal_at(SimTime::from_secs(4));
    w.run_until(SimTime::from_secs(8));
    // Register the merged view succeeding both concurrent views.
    w.invoke(clients[0], |c: &mut ClientApp, ctx| {
        c.ns.set(
            ctx,
            A,
            mapping(vid(2, 2), 9, &[NodeId(2), NodeId(3)]),
            vec![vid(2, 1), vid(3, 1)],
        );
    });
    w.run_for(SimDuration::from_secs(4));
    for &s in &servers {
        w.inspect(s, |s: &NameServer| {
            let got = s.db().read(A);
            assert_eq!(got.len(), 1, "merged mapping replaces predecessors");
            assert_eq!(got[0].lwg_view, vid(2, 2));
            assert!(s.db().inconsistent().is_empty());
        });
    }
}

#[test]
fn testset_race_across_partition_is_kept_not_lost() {
    let (mut w, servers, clients) = setup(6);
    w.split_at(
        SimTime::from_secs(1),
        vec![vec![servers[0], clients[0]], vec![servers[1], clients[1]]],
    );
    // Both sides testset concurrently; within each partition the claim
    // succeeds (no competing mapping visible).
    w.invoke_at(
        SimTime::from_secs(2),
        clients[0],
        |c: &mut ClientApp, ctx| {
            c.ns.testset(ctx, A, mapping(vid(2, 1), 7, &[NodeId(2)]), vec![]);
        },
    );
    w.invoke_at(
        SimTime::from_secs(2),
        clients[1],
        |c: &mut ClientApp, ctx| {
            c.ns.testset(ctx, A, mapping(vid(3, 1), 9, &[NodeId(3)]), vec![]);
        },
    );
    w.run_until(SimTime::from_secs(5));
    for (i, &c) in clients.iter().enumerate() {
        w.inspect(c, |c: &ClientApp| {
            let (_, _, mappings) = c.replies.last().expect("testset reply");
            assert_eq!(mappings.len(), 1, "client {i} wins in its partition");
        });
    }
    // Healing surfaces the conflict rather than silently dropping a side.
    w.heal_at(SimTime::from_secs(5));
    w.run_until(SimTime::from_secs(10));
    w.inspect(servers[0], |s: &NameServer| {
        assert_eq!(s.db().read(A).len(), 2);
    });
}

#[test]
fn testset_within_partition_returns_existing_claim() {
    let (mut w, _servers, clients) = setup(7);
    w.invoke(clients[0], |c: &mut ClientApp, ctx| {
        c.ns.testset(ctx, A, mapping(vid(2, 1), 7, &[NodeId(2)]), vec![]);
    });
    w.run_for(SimDuration::from_secs(3));
    // Second claimant reads the first one's mapping back (same home server
    // after gossip).
    w.invoke(clients[1], |c: &mut ClientApp, ctx| {
        c.ns.testset(ctx, A, mapping(vid(3, 1), 9, &[NodeId(3)]), vec![]);
    });
    w.run_for(SimDuration::from_secs(2));
    w.inspect(clients[1], |c: &ClientApp| {
        let (_, _, mappings) = c.replies.last().expect("reply");
        assert_eq!(mappings.len(), 1);
        assert_eq!(mappings[0].hwg, HwgId(7), "existing claim wins");
    });
}

#[test]
fn unset_removes_mapping_everywhere() {
    let (mut w, servers, clients) = setup(8);
    w.invoke(clients[0], |c: &mut ClientApp, ctx| {
        c.ns.set(ctx, A, mapping(vid(2, 1), 7, &[NodeId(2)]), vec![]);
    });
    w.run_for(SimDuration::from_secs(2));
    w.invoke(clients[0], |c: &mut ClientApp, ctx| {
        c.ns.unset(ctx, A, vid(2, 1));
    });
    w.run_for(SimDuration::from_secs(1));
    w.inspect(servers[0], |s: &NameServer| {
        assert!(s.db().read(A).is_empty());
    });
    // Note: gossip union semantics mean a removed mapping can be
    // resurrected by a peer that still holds it; the LWG layer tolerates
    // this by re-running reconciliation (see plwg-core). Here we only
    // assert the serving replica honoured the unset.
}

/// A server that was down while the system moved on catches up entirely
/// from its peer's gossip after restarting (its replica is stable state):
/// its first digest ends the peer's silence, and the peer answers it at
/// once with the snapshot, within a gossip period and a round trip.
#[test]
fn restarted_server_catches_up_via_gossip() {
    let (mut w, servers, clients) = setup(9);
    w.invoke(clients[0], |c: &mut ClientApp, ctx| {
        c.ns.set(ctx, A, mapping(vid(2, 1), 7, &[NodeId(2)]), vec![]);
    });
    w.run_for(SimDuration::from_secs(2));
    // Server 1 goes down; the mapping is superseded meanwhile.
    w.crash(servers[1]);
    w.invoke(clients[0], |c: &mut ClientApp, ctx| {
        c.ns.set(
            ctx,
            A,
            mapping(vid(2, 2), 9, &[NodeId(2), NodeId(3)]),
            vec![vid(2, 1)],
        );
    });
    w.run_for(SimDuration::from_secs(2));
    w.restart(servers[1]);
    let period = NamingConfig::default().gossip_interval;
    w.run_for(period + max_latency().saturating_mul(2));
    let [up, restarted] = replicas(&mut w, &servers);
    assert_eq!(restarted, up, "caught up by the first round trip");
    w.inspect(servers[1], |s: &NameServer| {
        let got = s.db().read(A);
        assert_eq!(got.len(), 1, "catch-up must deliver the successor");
        assert_eq!(got[0].lwg_view, vid(2, 2));
        assert_eq!(got[0].hwg, HwgId(9));
    });
}

/// Two servers written on their own sides of a 10 s split gossip only
/// digests into the partition, and reconcile one round trip after the
/// heal's first tick: each answers the other's first digest at once with
/// its snapshot.
#[test]
fn split_servers_send_digests_and_reconcile_one_round_trip_after_the_heal() {
    let (mut w, servers, clients) = setup(10);
    // The servers start at 0 and tick every 500 ms; split and heal between
    // ticks.
    let split = SimTime::ZERO + SimDuration::from_millis(1_250);
    let heal = split + SimDuration::from_secs(10);
    let first_tick = heal + SimDuration::from_millis(250);
    w.split_at(
        split,
        vec![vec![servers[0], clients[0]], vec![servers[1], clients[1]]],
    );
    w.run_until(split);
    let before = gossip(&w);
    for (c, hwg) in [(0, 7), (1, 9)] {
        let m = mapping(vid(2 + c as u32, 1), hwg, &[clients[c]]);
        let at = split + SimDuration::from_secs(1);
        w.invoke_at(at, clients[c], move |a: &mut ClientApp, ctx| {
            a.ns.set(ctx, A, m, vec![]);
        });
    }
    w.heal_at(heal);
    w.run_until(heal);
    assert_digests_only(&w, before, 40, "the split");
    let [a, b] = replicas(&mut w, &servers);
    assert_ne!(a.root(), b.root(), "each side wrote its own mapping");

    w.run_until(first_tick + max_latency().saturating_mul(2));
    let [a, b] = replicas(&mut w, &servers);
    assert_eq!(a, b, "reconciled by the first tick and a round trip");
    assert_eq!(a.read(A).len(), 2, "both mappings coexist");
}

// --- when MULTIPLE-MAPPINGS callbacks are sent ----------------------------

const B: LwgId = LwgId(2);
const C: LwgId = LwgId(3);

/// A gossip period long enough that no tick fires during a test, so every
/// callback observed there was caused by a write or a merge.
const NO_TICK: SimDuration = SimDuration::from_secs(3600);

/// One name server (no peers) gossiping every `gossip_interval`, a client
/// that reconciles like an LWG coordinator (n1), and a plain client (n2).
fn one_server(gossip_interval: SimDuration) -> (World, NodeId, NodeId, NodeId) {
    let mut w = World::new(WorldConfig::default());
    let s = w.add_node(Box::new(NameServer::new(
        NodeId(0),
        vec![],
        NamingConfig {
            gossip_interval,
            ..NamingConfig::default()
        },
    )));
    let mut coordinator = ClientApp::new(NodeId(1), vec![s]);
    coordinator.reconcile = true;
    let coordinator = w.add_node(Box::new(coordinator));
    let member = w.add_node(Box::new(ClientApp::new(NodeId(2), vec![s])));
    (w, s, coordinator, member)
}

/// `client` registers `lwg`'s view `(c, 1)` with `members`, no
/// predecessors; the world then runs 100 ms.
fn set(w: &mut World, client: NodeId, lwg: LwgId, c: u32, members: &[NodeId]) {
    let m = mapping(vid(c, 1), 7, members);
    w.invoke(client, move |a: &mut ClientApp, ctx| {
        a.ns.set(ctx, lwg, m, vec![]);
    });
    w.run_for(SimDuration::from_millis(100));
}

fn callbacks(w: &mut World, client: NodeId, lwg: LwgId) -> usize {
    w.inspect(client, |a: &ClientApp| a.callbacks_for(lwg))
}

/// A write sends the callback for the LWG it wrote, only when that LWG is
/// inconsistent — never a re-send for another LWG that already was.
#[test]
fn a_write_notifies_only_its_own_lwg_and_only_when_inconsistent() {
    let (mut w, _s, _, m) = one_server(NO_TICK);
    set(&mut w, m, B, 2, &[m]);
    set(&mut w, m, B, 3, &[m]);
    assert_eq!(callbacks(&mut w, m, B), 1, "B became inconsistent");

    set(&mut w, m, A, 2, &[m]);
    assert_eq!(callbacks(&mut w, m, A), 0, "A is consistent");
    assert_eq!(callbacks(&mut w, m, B), 1, "B was not written");

    set(&mut w, m, A, 3, &[m]);
    assert_eq!(callbacks(&mut w, m, A), 1, "A became inconsistent");
    assert_eq!(callbacks(&mut w, m, B), 1, "B was not written");

    // A test-and-set on a fresh LWG installs one mapping: nothing to say.
    w.invoke(m, move |a: &mut ClientApp, ctx| {
        a.ns.testset(ctx, C, mapping(vid(2, 1), 7, &[m]), vec![]);
    });
    w.run_for(SimDuration::from_millis(100));
    assert_eq!(callbacks(&mut w, m, C), 0);
    assert_eq!(w.metrics().counter(plwg_naming::keys::CALLBACKS), 2);
}

/// A gossip merge notifies exactly the LWGs it changed that are
/// inconsistent afterwards.
#[test]
fn a_gossip_merge_notifies_exactly_the_changed_inconsistent_lwgs() {
    let (mut w, s, _, m) = one_server(NO_TICK);
    // The server already holds C's two concurrent mappings.
    set(&mut w, m, C, 2, &[m]);
    set(&mut w, m, C, 3, &[m]);
    assert_eq!(callbacks(&mut w, m, C), 1);

    // A peer's snapshot: A new and inconsistent, B new and consistent, C
    // exactly as the server has it.
    let mut peer = MappingDb::new();
    for (lwg, c) in [(A, 2), (A, 3), (B, 2), (C, 2), (C, 3)] {
        peer.set(lwg, mapping(vid(c, 1), 7, &[m]), &[]);
    }
    w.invoke(m, move |_: &mut ClientApp, ctx| {
        let sync = NsMsg::Sync {
            root: peer.root(),
            db: peer,
        };
        ctx.send(s, encode_frame(family::NS, &sync));
    });
    w.run_for(SimDuration::from_millis(100));
    assert_eq!(w.metrics().counter(plwg_naming::keys::RECONCILIATIONS), 1);
    assert_eq!(callbacks(&mut w, m, A), 1, "changed and inconsistent");
    assert_eq!(callbacks(&mut w, m, B), 0, "changed but consistent");
    assert_eq!(callbacks(&mut w, m, C), 1, "inconsistent but unchanged");
}

/// Every gossip tick re-sends the callback of every LWG that is still
/// inconsistent, and of no other.
#[test]
fn the_gossip_tick_renotifies_every_inconsistent_lwg() {
    let period = NamingConfig::default().gossip_interval;
    let (mut w, _s, _, m) = one_server(period);
    for (lwg, c) in [(A, 2), (A, 3), (B, 2), (B, 3), (C, 2)] {
        set(&mut w, m, lwg, c, &[m]);
    }
    let before = [A, B, C].map(|l| callbacks(&mut w, m, l));
    let ticks = 4;
    let now = w.now();
    w.run_until(now + period.saturating_mul(ticks));
    let after = [A, B, C].map(|l| callbacks(&mut w, m, l));
    assert_eq!(after[0] - before[0], ticks as usize, "A: one per tick");
    assert_eq!(after[1] - before[1], ticks as usize, "B: one per tick");
    assert_eq!(after[2], 0, "C is consistent");
}

/// The write-triggered callback to the coordinator is lost; the next tick
/// re-sends it, and the coordinator reconciles within one gossip period.
#[test]
fn a_lost_callback_is_resent_and_the_lwg_reconciles_within_one_gossip_interval() {
    let period = NamingConfig::default().gossip_interval;
    let (mut w, s, coordinator, m) = one_server(period);
    set(&mut w, coordinator, A, 1, &[coordinator]);

    let wrote_at = w.now();
    w.topology_mut().cut_link(s, coordinator);
    set(&mut w, m, A, 2, &[m]);
    w.topology_mut().restore_link(s, coordinator);
    assert_eq!(callbacks(&mut w, m, A), 1, "the callback was sent");
    assert_eq!(
        callbacks(&mut w, coordinator, A),
        0,
        "and lost to the coordinator"
    );
    w.inspect(s, |s: &NameServer| assert!(s.db().is_inconsistent(A)));

    w.run_until(wrote_at + period);
    assert_eq!(callbacks(&mut w, coordinator, A), 1, "re-sent by the tick");
    w.inspect(s, |s: &NameServer| {
        let got = s.db().read(A);
        assert_eq!(got.len(), 1, "the merged view superseded both");
        assert_eq!(got[0].lwg_view, vid(1, 100));
    });
}
