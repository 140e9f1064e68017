//! The reactor turn over real loopback sockets: deadlines honoured below a
//! millisecond, per-peer coalescing of what a turn sends, the receive
//! thread's lifetime, and pool maintenance that needs no traffic to run.
#![expect(clippy::disallowed_types, reason = "measures real reactor latency")]

use plwg_net::keys::{NETIO_BYTES_TX, NETIO_DGRAM_TX};
use plwg_net::{NetOptions, NetRuntime, PeerState, DGRAM_BUDGET};
use plwg_sim::{NodeId, Payload, Process, SimDuration, Transport};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// The tests of this file run one at a time. Most of them time reactor
/// turns on the wall clock, and one starts 200 receive threads; run side
/// by side, the threads' start-up stretched a timed turn past its bound.
static SERIAL: Mutex<()> = Mutex::new(());

/// Holds the file's test lock; a test that failed holding it does not
/// fail the others.
fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Records the frames it is handed, and when.
#[derive(Default)]
struct Sink {
    got: Vec<Payload>,
    at: Vec<Instant>,
}

impl Process for Sink {
    fn on_message(&mut self, _ctx: &mut dyn Transport, _from: NodeId, msg: Payload) {
        self.got.push(msg);
        self.at.push(Instant::now());
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

fn bind(me: u32, opts: NetOptions) -> NetRuntime {
    NetRuntime::bind(NodeId(me), "127.0.0.1:0", opts).expect("bind")
}

/// Heartbeats far apart, so the only traffic is the test's.
fn quiet() -> NetOptions {
    NetOptions {
        hb_interval: SimDuration::from_secs(10),
        suspect_timeout: SimDuration::from_secs(30),
        ..NetOptions::default()
    }
}

/// Two runtimes that know each other, pumped until both are `Up`.
fn connected_pair(opts: NetOptions) -> (NetRuntime, Sink, NetRuntime, Sink) {
    let mut a = bind(1, opts.clone());
    let mut b = bind(2, opts);
    a.add_peer(NodeId(2), b.local_addr().expect("addr b"));
    b.add_peer(NodeId(1), a.local_addr().expect("addr a"));
    let (mut pa, mut pb) = (Sink::default(), Sink::default());
    for _ in 0..500 {
        a.run_for(&mut pa, SimDuration::from_millis(2));
        b.run_for(&mut pb, SimDuration::from_millis(2));
        if a.peers_up() == 1 && b.peers_up() == 1 {
            return (a, pa, b, pb);
        }
    }
    panic!("hello/alive lifecycle never converged");
}

#[test]
fn idle_turns_honour_sub_millisecond_deadlines() {
    let _serial = serial();
    let mut rt = bind(1, NetOptions::default());
    let mut p = Sink::default();
    let turn = SimDuration::from_micros(100);
    rt.run_for(&mut p, turn); // on_start, first pool service
    let mut slowest = Duration::ZERO;
    let all = Instant::now();
    for _ in 0..100 {
        let t = Instant::now();
        rt.run_for(&mut p, turn);
        slowest = slowest.max(t.elapsed());
    }
    let all = all.elapsed();
    // A wait built on a socket read timeout takes a kernel timer tick or
    // two per turn (4–8 ms); the bounds leave room for a busy test host.
    assert!(
        all >= Duration::from_millis(10),
        "turns returned early: {all:?}"
    );
    assert!(
        all < Duration::from_millis(100),
        "100 idle turns took {all:?}"
    );
    assert!(
        slowest < Duration::from_millis(2),
        "one idle turn took {slowest:?}"
    );
}

#[test]
fn a_datagram_ends_the_wait_not_the_turn() {
    let _serial = serial();
    let (mut a, mut pa, mut b, mut pb) = connected_pair(quiet());
    let sent = Instant::now();
    a.send(NodeId(2), Payload::copy_from_slice(b"ping"));
    a.run_for(&mut pa, SimDuration::from_micros(100));
    // b's turn is long; the frame is dispatched when it lands, and the
    // turn still lasts as long as it was asked to.
    b.run_for(&mut pb, SimDuration::from_millis(300));
    let turn = sent.elapsed();
    assert_eq!(pb.got, vec![Payload::copy_from_slice(b"ping")]);
    let latency = pb.at[0].duration_since(sent);
    assert!(
        latency < Duration::from_millis(50),
        "dispatched after {latency:?}"
    );
    assert!(
        turn >= Duration::from_millis(300),
        "turn ended after {turn:?}"
    );
}

#[test]
fn sends_between_turns_coalesce_per_peer_within_the_budget() {
    let _serial = serial();
    let (mut a, mut pa, mut b, mut pb) = connected_pair(quiet());
    let sent = |rt: &NetRuntime| {
        (
            rt.registry().counter(NETIO_DGRAM_TX),
            rt.registry().counter(NETIO_BYTES_TX),
        )
    };
    let (dgrams0, bytes0) = sent(&a);
    // 32 frames between two turns, then one the budget cannot hold, then
    // one more: everything leaves at the top of the next turn.
    // (A frame's first byte is its family tag; 0x7f is nobody's, so the
    // runtime hands every one of these up.)
    let small: Vec<Payload> = (0..32u8)
        .map(|i| Payload::from_vec([&[0x7f][..], &[i; 99]].concat()))
        .collect();
    for f in &small {
        a.send(NodeId(2), f.clone());
    }
    let (dgrams, bytes) = sent(&a);
    assert_eq!(bytes, bytes0 + 2 * 1314, "two full datagrams left early");
    assert_eq!(dgrams, dgrams0 + 2, "the rest waits for the turn");
    let big = Payload::from_vec(vec![0x7f; 4 * DGRAM_BUDGET]);
    a.send(NodeId(2), big.clone());
    a.send(NodeId(2), Payload::copy_from_slice(b"tail"));
    a.run_for(&mut pa, SimDuration::from_micros(100));
    let (dgrams, bytes) = sent(&a);
    // The oversized frame travels alone (header + 2-byte length + body),
    // so does the tail behind it (6 B); the rest is the 32 small frames.
    let small_bytes = bytes - bytes0 - (big.len() as u64 + 3) - 6;
    assert_eq!(
        dgrams - dgrams0,
        small_bytes.div_ceil(DGRAM_BUDGET as u64) + 2,
        "{small_bytes} B of small frames must leave in the fewest datagrams"
    );
    for _ in 0..200 {
        b.run_for(&mut pb, SimDuration::from_millis(2));
        if pb.got.len() == 34 {
            break;
        }
    }
    // Arrival order is send order, whatever the datagram boundaries.
    let mut want = small;
    want.push(big);
    want.push(Payload::copy_from_slice(b"tail"));
    assert_eq!(pb.got, want);
}

/// Lines of `/proc/self/task/*/comm` naming a receive thread, and open
/// file descriptors; `None` where `/proc` is not there to read.
fn rx_threads_and_fds() -> Option<(usize, usize)> {
    let threads = std::fs::read_dir("/proc/self/task")
        .ok()?
        .filter_map(|e| std::fs::read_to_string(e.ok()?.path().join("comm")).ok())
        .filter(|name| name.trim() == "plwg-net-rx")
        .count();
    Some((threads, std::fs::read_dir("/proc/self/fd").ok()?.count()))
}

#[test]
fn dropping_a_runtime_ends_its_receive_thread() {
    let _serial = serial();
    let before = rx_threads_and_fds();
    let mut p = Sink::default();
    for i in 0..200 {
        let mut rt = bind(100 + i, NetOptions::default());
        rt.run_for(&mut p, SimDuration::from_micros(100));
    }
    // 200 leaked threads or sockets would stand out.
    if let (Some((threads0, fds0)), Some((threads, fds))) = (before, rx_threads_and_fds()) {
        assert!(threads < threads0 + 50, "{threads} receive threads alive");
        assert!(fds < fds0 + 100, "{fds} descriptors open");
    }
}

#[test]
fn the_pool_is_serviced_on_its_deadlines_without_any_traffic() {
    let _serial = serial();
    let (hb, suspect) = (SimDuration::from_millis(50), SimDuration::from_millis(250));
    let fast = NetOptions {
        hb_interval: hb,
        suspect_timeout: suspect,
        ..NetOptions::default()
    };
    let (mut a, mut pa, b, _pb) = connected_pair(fast);
    a.enable_trace();
    // From here on b is never run: it neither answers nor heartbeats, and
    // nothing arrives at a. One long turn has to wake itself up.
    let went_quiet = a.now();
    let dgrams0 = a.registry().counter(NETIO_DGRAM_TX);
    a.run_for(&mut pa, SimDuration::from_millis(220));
    assert_eq!(a.peer_state(NodeId(2)), Some(PeerState::Up));
    let heartbeats = a.registry().counter(NETIO_DGRAM_TX) - dgrams0;
    assert!(
        (3..=5).contains(&heartbeats),
        "{heartbeats} heartbeats in 220 ms at 50 ms"
    );
    a.run_for(&mut pa, SimDuration::from_millis(200));
    assert_eq!(a.peer_state(NodeId(2)), Some(PeerState::Down));
    let down = a
        .trace_ref()
        .of_kind("net.peer.down")
        .next()
        .expect("net.peer.down recorded");
    // b was last heard within one pump round (2 × 2 ms) before it went
    // quiet; 20 ms on top for a busy test host.
    let slack = SimDuration::from_millis(20);
    assert!(down.time + slack >= went_quiet + suspect, "down too early");
    assert!(
        down.time <= went_quiet + suspect + hb + slack,
        "down too late"
    );
    drop(b);
}
