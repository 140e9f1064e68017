//! Naming-service scenarios over the simulator: request failover,
//! cross-partition divergence, reconciliation, and callbacks.

use plwg_hwg::{HwgId, ViewId};
use plwg_naming::{LwgId, Mapping, NameServer, NamingConfig, NsClient, NsEvent, RequestId};
use plwg_sim::{
    NodeId, Payload, Process, SimDuration, SimTime, TimerToken, Transport, World, WorldConfig,
};
use std::any::Any;

/// A bare client node: records replies and callbacks.
struct ClientApp {
    ns: NsClient,
    replies: Vec<(RequestId, LwgId, Vec<Mapping>)>,
    callbacks: Vec<(LwgId, Vec<Mapping>)>,
}

impl ClientApp {
    fn new(me: NodeId, servers: Vec<NodeId>) -> Self {
        ClientApp {
            ns: NsClient::new(me, servers),
            replies: Vec::new(),
            callbacks: Vec::new(),
        }
    }
    fn drain(&mut self) {
        for ev in self.ns.drain_events() {
            match ev {
                NsEvent::Reply { req, lwg, mappings } => self.replies.push((req, lwg, mappings)),
                NsEvent::MultipleMappings { lwg, mappings } => self.callbacks.push((lwg, mappings)),
            }
        }
    }
}

impl Process for ClientApp {
    fn on_message(&mut self, ctx: &mut dyn Transport, from: NodeId, msg: Payload) {
        if self.ns.on_message(ctx, from, &msg) {
            self.drain();
        }
    }
    fn on_timer(&mut self, ctx: &mut dyn Transport, token: TimerToken) {
        if self.ns.on_timer(ctx, token) {
            self.drain();
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

fn at(s: u64) -> SimTime {
    SimTime::from_micros(s * 1_000_000)
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
        at(1),
        vec![vec![servers[0], clients[0]], vec![servers[1], clients[1]]],
    );
    // Each side maps LWG A onto a *different* HWG (concurrent views).
    w.invoke_at(at(2), clients[0], |c: &mut ClientApp, ctx| {
        c.ns.set(ctx, A, mapping(vid(2, 1), 7, &[NodeId(2)]), vec![]);
    });
    w.invoke_at(at(2), clients[1], |c: &mut ClientApp, ctx| {
        c.ns.set(ctx, A, mapping(vid(3, 1), 9, &[NodeId(3)]), vec![]);
    });
    w.run_until(at(6));
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

    w.heal_at(at(6));
    w.run_until(at(12));
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
        at(1),
        vec![vec![servers[0], clients[0]], vec![servers[1], clients[1]]],
    );
    w.invoke_at(at(2), clients[0], |c: &mut ClientApp, ctx| {
        c.ns.set(ctx, A, mapping(vid(2, 1), 7, &[NodeId(2)]), vec![]);
    });
    w.invoke_at(at(2), clients[1], |c: &mut ClientApp, ctx| {
        c.ns.set(ctx, A, mapping(vid(3, 1), 9, &[NodeId(3)]), vec![]);
    });
    w.heal_at(at(4));
    w.run_until(at(8));
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
        at(1),
        vec![vec![servers[0], clients[0]], vec![servers[1], clients[1]]],
    );
    // Both sides testset concurrently; within each partition the claim
    // succeeds (no competing mapping visible).
    w.invoke_at(at(2), clients[0], |c: &mut ClientApp, ctx| {
        c.ns.testset(ctx, A, mapping(vid(2, 1), 7, &[NodeId(2)]), vec![]);
    });
    w.invoke_at(at(2), clients[1], |c: &mut ClientApp, ctx| {
        c.ns.testset(ctx, A, mapping(vid(3, 1), 9, &[NodeId(3)]), vec![]);
    });
    w.run_until(at(5));
    for (i, &c) in clients.iter().enumerate() {
        w.inspect(c, |c: &ClientApp| {
            let (_, _, mappings) = c.replies.last().expect("testset reply");
            assert_eq!(mappings.len(), 1, "client {i} wins in its partition");
        });
    }
    // Healing surfaces the conflict rather than silently dropping a side.
    w.heal_at(at(5));
    w.run_until(at(10));
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
/// from its peer's gossip after restarting (its replica is stable state).
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
    w.run_for(SimDuration::from_secs(3));
    w.inspect(servers[1], |s: &NameServer| {
        let got = s.db().read(A);
        assert_eq!(got.len(), 1, "catch-up must deliver the successor");
        assert_eq!(got[0].lwg_view, vid(2, 2));
        assert_eq!(got[0].hwg, HwgId(9));
    });
}
