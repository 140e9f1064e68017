//! Peer-lifecycle integration over real loopback sockets: connection
//! establishment, backpressure, the failure detector, partition control
//! frames, and the trace evidence each of them leaves.
//!
//! These tests also pin the net layer's event vocabulary: every
//! `NetEvent` kind — `net.peer.up`, `net.peer.down`, `net.queue.drop`,
//! `net.ctrl.block`, `net.ctrl.unblock` — is asserted on here.

use plwg_net::keys::{NETIO_DGRAM_RX, NETIO_DGRAM_TX, NETIO_QUEUE_DROPPED};
use plwg_net::{NetOptions, NetRuntime, PeerState};
use plwg_sim::{NodeId, Payload, Process, SimDuration, Transport};

/// A process that records payload bytes and answers nothing.
struct Sink {
    got: Vec<Vec<u8>>,
}

impl Sink {
    fn new() -> Sink {
        Sink { got: Vec::new() }
    }
}

impl Process for Sink {
    fn on_message(&mut self, _ctx: &mut dyn Transport, _from: NodeId, msg: Payload) {
        self.got.push(msg.bytes().to_vec());
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

fn pair(opts_a: NetOptions, opts_b: NetOptions) -> (NetRuntime, NetRuntime) {
    let mut a = NetRuntime::bind(NodeId(1), "127.0.0.1:0", opts_a).expect("bind a");
    let mut b = NetRuntime::bind(NodeId(2), "127.0.0.1:0", opts_b).expect("bind b");
    a.add_peer(NodeId(2), b.local_addr().expect("addr b"));
    b.add_peer(NodeId(1), a.local_addr().expect("addr a"));
    a.enable_trace();
    b.enable_trace();
    (a, b)
}

fn pump(
    a: &mut NetRuntime,
    pa: &mut Sink,
    b: &mut NetRuntime,
    pb: &mut Sink,
    rounds: usize,
    mut done: impl FnMut(&NetRuntime, &NetRuntime) -> bool,
) -> bool {
    for _ in 0..rounds {
        a.run_for(pa, SimDuration::from_millis(10));
        b.run_for(pb, SimDuration::from_millis(10));
        if done(a, b) {
            return true;
        }
    }
    false
}

#[test]
fn connect_exchange_and_observe_peer_up() {
    let (mut a, mut b) = pair(NetOptions::default(), NetOptions::default());
    let (mut pa, mut pb) = (Sink::new(), Sink::new());
    a.send(NodeId(2), Payload::copy_from_slice(b"early"));
    assert!(
        pump(&mut a, &mut pa, &mut b, &mut pb, 200, |a, b| {
            a.peers_up() == 1 && b.peers_up() == 1
        }),
        "hello/alive lifecycle never converged"
    );
    // The early frame rode the send queue and flushed on connect.
    let mut delivered = false;
    for _ in 0..100 {
        if !pb.got.is_empty() {
            delivered = true;
            break;
        }
        a.run_for(&mut pa, SimDuration::from_millis(10));
        b.run_for(&mut pb, SimDuration::from_millis(10));
    }
    assert!(delivered, "queued frame never flushed");
    assert_eq!(pb.got[0], b"early");
    assert_eq!(a.trace_ref().count("net.peer.up"), 1);
    assert_eq!(b.trace_ref().count("net.peer.up"), 1);
    assert!(a.registry().counter(NETIO_DGRAM_TX) > 0);
    assert!(a.registry().counter(NETIO_DGRAM_RX) > 0);
}

#[test]
fn backpressure_overflow_drops_newest_and_counts() {
    // Tiny queue towards a peer that never answers.
    let opts = NetOptions {
        queue_capacity: 4,
        ..NetOptions::default()
    };
    let mut a = NetRuntime::bind(NodeId(1), "127.0.0.1:0", opts).expect("bind");
    // The peer address exists but nothing is listening there that speaks
    // our protocol, so the peer never comes up.
    let dead = NetRuntime::bind(NodeId(9), "127.0.0.1:0", NetOptions::default()).expect("bind");
    a.add_peer(NodeId(2), dead.local_addr().expect("addr"));
    a.enable_trace();
    let mut pa = Sink::new();
    for i in 0..10u8 {
        a.send(NodeId(2), Payload::copy_from_slice(&[i]));
    }
    a.run_for(&mut pa, SimDuration::from_millis(30));
    assert_eq!(a.registry().counter(NETIO_QUEUE_DROPPED), 6);
    assert_eq!(a.trace_ref().count("net.queue.drop"), 6);
}

#[test]
fn failure_detector_reports_peer_down_after_silence() {
    // a suspects quickly; b is told to go quiet via a block filter on its
    // own side (it stops sending *and* ignores a).
    let fast = NetOptions {
        hb_interval: SimDuration::from_millis(50),
        suspect_timeout: SimDuration::from_millis(250),
        ..NetOptions::default()
    };
    let (mut a, mut b) = pair(fast.clone(), fast);
    let (mut pa, mut pb) = (Sink::new(), Sink::new());
    assert!(pump(&mut a, &mut pa, &mut b, &mut pb, 200, |a, b| {
        a.peers_up() == 1 && b.peers_up() == 1
    }));
    // Silence b: it drops everything to/from node 1 at the socket level.
    let ctl = plwg_net::harness::Controller::new().expect("controller");
    ctl.block(b.local_addr().expect("addr"), &[NodeId(1)])
        .expect("send block");
    assert!(
        pump(&mut a, &mut pa, &mut b, &mut pb, 400, |a, _| {
            a.peer_state(NodeId(2)) == Some(PeerState::Down)
        }),
        "suspect timeout never fired"
    );
    assert!(a.trace_ref().count("net.peer.down") >= 1);
    assert_eq!(b.trace_ref().count("net.ctrl.block"), 1);
    // Lift the filter: the hello loop reconnects without outside help.
    ctl.unblock(b.local_addr().expect("addr"), &[NodeId(1)])
        .expect("send unblock");
    assert!(
        pump(&mut a, &mut pa, &mut b, &mut pb, 400, |a, b| {
            a.peers_up() == 1 && b.peers_up() == 1
        }),
        "peers never reconnected after unblock"
    );
    assert_eq!(b.trace_ref().count("net.ctrl.unblock"), 1);
    assert!(
        a.trace_ref().count("net.peer.up") >= 2,
        "reconnect must be a fresh net.peer.up"
    );
}

#[test]
fn bye_is_faster_than_the_suspect_timeout() {
    // Generous suspicion, so only a Bye can explain a quick Down.
    let slow = NetOptions {
        suspect_timeout: SimDuration::from_secs(30),
        ..NetOptions::default()
    };
    let (mut a, mut b) = pair(slow.clone(), slow);
    let (mut pa, mut pb) = (Sink::new(), Sink::new());
    assert!(pump(&mut a, &mut pa, &mut b, &mut pb, 200, |a, b| {
        a.peers_up() == 1 && b.peers_up() == 1
    }));
    a.shutdown();
    assert!(
        pump(&mut a, &mut pa, &mut b, &mut pb, 100, |_, b| {
            b.peer_state(NodeId(1)) == Some(PeerState::Down)
        }),
        "goodbye never took the peer down"
    );
    assert!(b
        .trace_ref()
        .of_kind("net.peer.down")
        .any(|e| e.detail.contains("n1")));
}
