//! The reactor: one UDP socket, one timer heap, one process.
//!
//! [`NetRuntime`] is the real-network counterpart of the simulator's
//! per-node context. It owns the socket, a monotone [`WallClock`], a
//! binary-heap timer wheel and the [`PeerPool`] lifecycle machine, and it
//! lends itself to the hosted [`Process`] as `&mut dyn Transport` — so the
//! vsync/naming/LWG stack runs over it unchanged.
//!
//! # The turn
//!
//! [`NetRuntime::run_for`] repeats, until its deadline:
//!
//! 1. deliver self-sends, fire due timers, service the peer pool if one of
//!    its deadlines (heartbeat, hello, suspicion) has passed;
//! 2. dispatch every datagram that is already waiting (in batches, so a
//!    flood cannot starve step 1) — frames of family [`family::NET`] are
//!    the transport's own lifecycle and harness-control traffic, every
//!    other family goes up to the process;
//! 3. **flush**: put on the wire whatever steps 1–2 — or the caller, since
//!    the previous turn — sent;
//! 4. wait for the next datagram, at most until the earliest of the turn's
//!    deadline, the next timer and the pool's next deadline.
//!
//! Work per turn is proportional to traffic: an idle runtime sleeps until
//! its next heartbeat, a busy one never waits.
//!
//! **Sending.** [`Transport::send`] appends the frame to a datagram pending
//! for that peer; the envelope carries any number of frames. The datagram
//! leaves when the next frame would take it past [`DGRAM_BUDGET`] (a frame
//! larger than the budget travels alone) and in any case at step 3, so
//! *nothing sent is ever held across a wait* — coalescing costs a frame
//! the encode time of the frames behind it, never a timer. Per-peer order
//! is send order.
//!
//! **Waiting.** `std` can only wait on a socket through `SO_RCVTIMEO`,
//! which rounds up to a kernel timer tick (4 ms on a 250 Hz kernel), so
//! the reactor does not read the socket at all: a receive thread
//! ([`crate::rx`]) blocks in `recv_from` and hands each datagram over a
//! bounded channel, already copied into the one exactly-sized allocation
//! its zero-copy frames will share. Step 4 waits on the channel, which
//! honours microsecond deadlines and wakes on arrival. The thread lives as
//! long as the runtime: `bind` starts it, `Drop` stops and joins it.
//!
//! **Errors.** `bind` returns whatever the socket or the thread refused.
//! At run time a failed `sendto`/`recvfrom` is counted
//! (`netio.io_errors`) and treated as a lost datagram — the layers above
//! repair loss anyway — and a persistently failing socket is paced by the
//! receive thread, so it cannot spin the reactor.
//!
//! Partitions, for real: the harness sends [`NetMsg::Block`] and the
//! runtime installs a socket-level drop filter — datagrams to or from a
//! blocked peer are discarded at this boundary, in both directions. Above
//! the seam that is indistinguishable from a network partition, which is
//! the point: the §6 heal protocol then runs against real packet loss.

use crate::clock::WallClock;
use crate::events::NetEvent;
use crate::keys::{
    NETIO_BYTES_TX, NETIO_DGRAM_RX, NETIO_DGRAM_TX, NETIO_IO_ERRORS, NETIO_PEERS_UP,
    NETIO_QUEUE_DROPPED, NETIO_UNROUTABLE,
};
use crate::msg::{datagram_header, net_frame, unpack_datagram, NetMsg, DGRAM_BUDGET};
use crate::peer::{NetOptions, Offer, PeerPool, PeerState, PoolAction};
use crate::rx::{Received, RxThread};
use plwg_sim::{
    family, peek_family, Clock, Encode, MetricsRegistry, NodeId, Payload, Process, SimDuration,
    SimTime, TimerToken, Trace, Transport, TransportExt,
};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, VecDeque};
use std::io;
use std::net::{SocketAddr, ToSocketAddrs, UdpSocket};
use std::time::Duration;

/// Datagrams dispatched in a row before the turn looks at its timers and
/// its deadline again, so a flood cannot starve them.
const RX_BATCH: usize = 64;

/// Where a peer's datagrams go, and the one being filled for it.
struct Route {
    addr: SocketAddr,
    /// The envelope header, then the frames sent since the last flush.
    pending: Vec<u8>,
}

/// The real-socket runtime hosting one protocol [`Process`].
pub struct NetRuntime {
    me: NodeId,
    clock: WallClock,
    socket: UdpSocket,
    rx: RxThread,
    /// Scratch for the frames of the datagram being dispatched.
    rx_frames: Vec<Payload>,
    book: BTreeMap<NodeId, Route>,
    /// Length of the envelope header every pending datagram starts with.
    header_len: usize,
    /// Peers whose pending datagram holds at least one frame.
    unflushed: Vec<NodeId>,
    pool: PeerPool,
    /// When the pool next needs a [`PeerPool::tick`].
    pool_due: SimTime,
    timers: BinaryHeap<Reverse<(u64, u64, u64)>>,
    timer_gen: BTreeMap<u64, u64>,
    next_gen: u64,
    pending_local: VecDeque<Payload>,
    blocked: BTreeSet<NodeId>,
    metrics: MetricsRegistry,
    trace: Trace,
    started: bool,
}

impl NetRuntime {
    /// Binds a runtime for node `me` on `addr` (use port 0 to let the OS
    /// pick; read it back with [`NetRuntime::local_addr`]) and starts its
    /// receive thread.
    pub fn bind(me: NodeId, addr: impl ToSocketAddrs, opts: NetOptions) -> io::Result<NetRuntime> {
        opts.validate()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        let socket = UdpSocket::bind(addr)?;
        let rx = RxThread::spawn(&socket)?;
        let mut header = Vec::new();
        datagram_header(me, &mut header);
        Ok(NetRuntime {
            me,
            clock: WallClock::start(),
            socket,
            rx,
            rx_frames: Vec::new(),
            book: BTreeMap::new(),
            header_len: header.len(),
            unflushed: Vec::new(),
            pool: PeerPool::new(me, opts),
            pool_due: SimTime::ZERO,
            timers: BinaryHeap::new(),
            timer_gen: BTreeMap::new(),
            next_gen: 0,
            pending_local: VecDeque::new(),
            blocked: BTreeSet::new(),
            metrics: MetricsRegistry::new(),
            trace: Trace::new(false),
            started: false,
        })
    }

    /// The socket's bound address (the harness publishes this).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.socket.local_addr()
    }

    /// Registers a peer's address and starts greeting it.
    pub fn add_peer(&mut self, node: NodeId, addr: SocketAddr) {
        if node == self.me {
            return;
        }
        self.learn_route(node, addr);
        self.pool.add_peer(node);
        self.pool_due = SimTime::ZERO;
    }

    /// Turns trace recording on (off by default, as on the simulator).
    pub fn enable_trace(&mut self) {
        if !self.trace.is_enabled() {
            self.trace = Trace::new(true);
        }
    }

    /// Read access to the metrics registry.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Read access to the trace sink.
    pub fn trace_ref(&self) -> &Trace {
        &self.trace
    }

    /// The lifecycle state of `peer`, if registered.
    pub fn peer_state(&self, peer: NodeId) -> Option<PeerState> {
        self.pool.state_of(peer)
    }

    /// Number of peers currently up.
    pub fn peers_up(&self) -> usize {
        self.pool.up_count()
    }

    /// Runs the reactor for `dur` of wall-clock time, driving `p`.
    ///
    /// The first call delivers `p`'s [`Process::on_start`] (arming its
    /// periodic timers), mirroring the simulator's node-admission hook.
    /// Frames sent since the previous call leave before anything is
    /// waited for.
    pub fn run_for(&mut self, p: &mut dyn Process, dur: SimDuration) {
        if !self.started {
            self.started = true;
            p.on_start(self);
        }
        let deadline = self.clock.now().checked_add(dur).unwrap_or(SimTime::MAX);
        loop {
            self.deliver_local(p);
            self.fire_timers(p);
            self.service_pool();
            let mut batch = RX_BATCH;
            while batch > 0 {
                let Some(item) = self.rx.try_recv() else {
                    break;
                };
                self.on_received(p, item);
                batch -= 1;
            }
            // Nothing this turn produced may sit out a wait.
            self.flush();
            let now = self.clock.now();
            if now >= deadline {
                return;
            }
            if batch == 0 || !self.pending_local.is_empty() {
                continue;
            }
            let mut next = deadline.min(self.pool_due);
            if let Some(&Reverse((due, _, _))) = self.timers.peek() {
                next = next.min(SimTime::from_micros(due));
            }
            let wait = Duration::from_micros(next.saturating_since(now).as_micros());
            if let Some(item) = self.rx.recv_timeout(wait) {
                self.on_received(p, item);
            }
        }
    }

    /// Runs until `done` returns true (checked once per reactor turn), or
    /// until `timeout` elapses. Returns whether `done` was reached.
    pub fn run_until(
        &mut self,
        p: &mut dyn Process,
        timeout: SimDuration,
        mut done: impl FnMut(&mut dyn Process, &NetRuntime) -> bool,
    ) -> bool {
        let deadline = self
            .clock
            .now()
            .checked_add(timeout)
            .unwrap_or(SimTime::MAX);
        while self.clock.now() < deadline {
            if done(p, self) {
                return true;
            }
            self.run_for(p, SimDuration::from_millis(10));
        }
        done(p, self)
    }

    /// Announces departure to all up peers (best-effort, unreliable).
    pub fn shutdown(&mut self) {
        for a in self.pool.goodbyes() {
            self.apply_action(a);
        }
        self.flush();
    }

    fn deliver_local(&mut self, p: &mut dyn Process) {
        while let Some(f) = self.pending_local.pop_front() {
            let me = self.me;
            p.on_message(self, me, f);
        }
    }

    fn fire_timers(&mut self, p: &mut dyn Process) {
        loop {
            let now = self.clock.now().as_micros();
            match self.timers.peek() {
                Some(&Reverse((due, gen, raw))) if due <= now => {
                    self.timers.pop();
                    if self.timer_gen.get(&raw) == Some(&gen) {
                        self.timer_gen.remove(&raw);
                        p.on_timer(self, TimerToken(raw));
                    }
                }
                _ => return,
            }
        }
    }

    /// Pool maintenance, when it is due: a heartbeat, hello or suspicion
    /// deadline has passed, or the pool has events to publish (every state
    /// change leaves one, and may have moved the deadlines).
    fn service_pool(&mut self) {
        let now = self.clock.now();
        if now < self.pool_due && !self.pool.has_events() {
            return;
        }
        for a in self.pool.tick(now) {
            self.apply_action(a);
        }
        self.metrics
            .set_gauge(NETIO_PEERS_UP, self.pool.up_count() as i64);
        for ev in self.pool.drain_events() {
            if matches!(ev, NetEvent::QueueDrop { .. }) {
                self.metrics.incr(NETIO_QUEUE_DROPPED);
            }
            self.emit(move || ev);
        }
        self.pool_due = self.pool.next_deadline().unwrap_or(SimTime::MAX);
    }

    fn apply_action(&mut self, action: PoolAction) {
        match action {
            PoolAction::Control(to, msg) => self.transmit(to, &net_frame(&msg)),
            PoolAction::Flush(to, frames) => {
                for f in &frames {
                    self.transmit(to, f);
                }
            }
        }
    }

    /// Records where `node`'s datagrams go (keeping what is pending).
    fn learn_route(&mut self, node: NodeId, addr: SocketAddr) {
        if let Some(route) = self.book.get_mut(&node) {
            route.addr = addr;
            return;
        }
        let mut pending = Vec::new();
        datagram_header(self.me, &mut pending);
        self.book.insert(node, Route { addr, pending });
    }

    /// Appends `frame` to the datagram pending for `to`. What was pending
    /// goes out first if `frame` would take it past [`DGRAM_BUDGET`]; the
    /// rest waits for [`NetRuntime::flush`].
    fn transmit(&mut self, to: NodeId, frame: &Payload) {
        let Some(route) = self.book.get_mut(&to) else {
            return;
        };
        let mark = route.pending.len();
        frame.encode_into(&mut route.pending);
        if mark == self.header_len {
            self.unflushed.push(to);
        } else if route.pending.len() > DGRAM_BUDGET {
            if !self.blocked.contains(&to) {
                send_dgram(
                    &self.socket,
                    &mut self.metrics,
                    route.addr,
                    &route.pending[..mark],
                );
            }
            route.pending.drain(self.header_len..mark);
        }
    }

    /// Puts every pending datagram on the wire (the drop filter applies
    /// here: what is pending for a blocked peer is discarded).
    fn flush(&mut self) {
        for i in 0..self.unflushed.len() {
            let to = self.unflushed[i];
            let Some(route) = self.book.get_mut(&to) else {
                continue;
            };
            if !self.blocked.contains(&to) {
                send_dgram(&self.socket, &mut self.metrics, route.addr, &route.pending);
            }
            route.pending.truncate(self.header_len);
        }
        self.unflushed.clear();
    }

    fn on_received(&mut self, p: &mut dyn Process, item: Received) {
        match item {
            Ok((dgram, addr)) => self.on_datagram(p, &dgram, addr),
            // A receive error is loss; the receive thread paces itself.
            Err(_) => self.metrics.incr(NETIO_IO_ERRORS),
        }
    }

    fn on_datagram(&mut self, p: &mut dyn Process, dgram: &Payload, addr: SocketAddr) {
        let mut frames = std::mem::take(&mut self.rx_frames);
        if let Ok(from) = unpack_datagram(dgram, &mut frames) {
            if !self.blocked.contains(&from) {
                self.dispatch(p, from, addr, &mut frames);
            }
        }
        frames.clear();
        self.rx_frames = frames;
    }

    fn dispatch(
        &mut self,
        p: &mut dyn Process,
        from: NodeId,
        addr: SocketAddr,
        frames: &mut Vec<Payload>,
    ) {
        self.metrics.incr(NETIO_DGRAM_RX);
        // Source address is authoritative for the sending node: a peer
        // that rebound after a restart is re-learned here.
        if from != self.me {
            self.learn_route(from, addr);
        }
        let now = self.clock.now();
        if let Some(a) = self.pool.heard_from(from, now) {
            self.apply_action(a);
        }
        for frame in frames.drain(..) {
            if peek_family(&frame) == Some(family::NET) {
                if let Ok(msg) = plwg_sim::decode_frame::<NetMsg>(family::NET, &frame) {
                    self.on_net_msg(from, msg);
                }
            } else {
                p.on_message(self, from, frame);
            }
        }
    }

    fn on_net_msg(&mut self, from: NodeId, msg: NetMsg) {
        match msg {
            NetMsg::Block { peers } => {
                self.blocked.extend(peers.iter().copied());
                self.emit(|| NetEvent::Blocked { peers });
            }
            NetMsg::Unblock { peers } => {
                for peer in &peers {
                    self.blocked.remove(peer);
                }
                self.emit(|| NetEvent::Unblocked { peers });
            }
            other => {
                let now = self.clock.now();
                for a in self.pool.on_net_msg(from, &other, now) {
                    self.apply_action(a);
                }
            }
        }
    }
}

/// One `sendto`. A failure is counted and otherwise treated as loss, as
/// on the wire.
fn send_dgram(socket: &UdpSocket, metrics: &mut MetricsRegistry, addr: SocketAddr, dgram: &[u8]) {
    match socket.send_to(dgram, addr) {
        Ok(_) => {
            metrics.incr(NETIO_DGRAM_TX);
            metrics.add(NETIO_BYTES_TX, dgram.len() as u64);
        }
        Err(_) => metrics.incr(NETIO_IO_ERRORS),
    }
}

impl Drop for NetRuntime {
    fn drop(&mut self) {
        self.rx.stop(&self.socket);
    }
}

impl Transport for NetRuntime {
    fn now(&self) -> SimTime {
        self.clock.now()
    }

    fn id(&self) -> NodeId {
        self.me
    }

    fn send(&mut self, to: NodeId, msg: Payload) {
        if to == self.me {
            self.pending_local.push_back(msg);
            return;
        }
        if self.blocked.contains(&to) {
            return;
        }
        match self.pool.offer(to, &msg) {
            Offer::Wire => self.transmit(to, &msg),
            Offer::Queued | Offer::Dropped => {}
            Offer::NoSuchPeer => self.metrics.incr(NETIO_UNROUTABLE),
        }
    }

    fn broadcast(&mut self, msg: Payload) {
        let peers: Vec<NodeId> = self.pool.peers().collect();
        for to in peers {
            self.send(to, msg.clone());
        }
    }

    fn set_timer(&mut self, delay: SimDuration, token: TimerToken) {
        let due = self
            .clock
            .now()
            .checked_add(delay)
            .unwrap_or(SimTime::MAX)
            .as_micros();
        let gen = self.next_gen;
        self.next_gen += 1;
        self.timer_gen.insert(token.0, gen);
        self.timers.push(Reverse((due, gen, token.0)));
    }

    fn cancel_timer(&mut self, token: TimerToken) {
        self.timer_gen.remove(&token.0);
    }

    fn metrics(&mut self) -> &mut MetricsRegistry {
        &mut self.metrics
    }

    fn trace(&mut self) -> &mut Trace {
        &mut self.trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Recorder {
        got: Vec<(NodeId, Vec<u8>)>,
        fired: Vec<TimerToken>,
    }

    impl Recorder {
        fn new() -> Self {
            Recorder {
                got: Vec::new(),
                fired: Vec::new(),
            }
        }
    }

    impl Process for Recorder {
        fn on_message(&mut self, _ctx: &mut dyn Transport, from: NodeId, msg: Payload) {
            self.got.push((from, msg.bytes().to_vec()));
        }
        fn on_timer(&mut self, _ctx: &mut dyn Transport, token: TimerToken) {
            self.fired.push(token);
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    fn rt(me: u32) -> NetRuntime {
        NetRuntime::bind(NodeId(me), "127.0.0.1:0", NetOptions::default()).expect("bind")
    }

    #[test]
    fn timers_fire_in_order_and_cancel() {
        let mut rt = rt(0);
        let mut p = Recorder::new();
        rt.set_timer(SimDuration::from_millis(20), TimerToken(2));
        rt.set_timer(SimDuration::from_millis(5), TimerToken(1));
        rt.set_timer(SimDuration::from_millis(10), TimerToken(3));
        rt.cancel_timer(TimerToken(3));
        rt.run_for(&mut p, SimDuration::from_millis(60));
        assert_eq!(p.fired, vec![TimerToken(1), TimerToken(2)]);
    }

    #[test]
    fn rearming_a_timer_supersedes_the_old_deadline() {
        let mut rt = rt(0);
        let mut p = Recorder::new();
        rt.set_timer(SimDuration::from_millis(5), TimerToken(7));
        rt.set_timer(SimDuration::from_millis(30), TimerToken(7));
        rt.run_for(&mut p, SimDuration::from_millis(15));
        assert!(p.fired.is_empty(), "old deadline must not fire");
        rt.run_for(&mut p, SimDuration::from_millis(30));
        assert_eq!(p.fired, vec![TimerToken(7)]);
    }

    #[test]
    fn self_send_loops_back_locally() {
        let mut rt = rt(4);
        let mut p = Recorder::new();
        rt.send(NodeId(4), Payload::copy_from_slice(&[1, 2, 3]));
        rt.run_for(&mut p, SimDuration::from_millis(5));
        assert_eq!(p.got, vec![(NodeId(4), vec![1, 2, 3])]);
    }

    #[test]
    fn two_runtimes_connect_and_exchange_frames() {
        let mut a = rt(1);
        let mut b = rt(2);
        a.add_peer(NodeId(2), b.local_addr().expect("addr"));
        b.add_peer(NodeId(1), a.local_addr().expect("addr"));
        let mut pa = Recorder::new();
        let mut pb = Recorder::new();
        // Queue app traffic before the peers are even up: it must ride
        // the queue and flush on connect.
        a.send(NodeId(2), Payload::copy_from_slice(&[42]));
        for _ in 0..100 {
            a.run_for(&mut pa, SimDuration::from_millis(10));
            b.run_for(&mut pb, SimDuration::from_millis(10));
            if a.peers_up() == 1 && b.peers_up() == 1 && !pb.got.is_empty() {
                break;
            }
        }
        assert_eq!(a.peer_state(NodeId(2)), Some(PeerState::Up));
        assert_eq!(b.peer_state(NodeId(1)), Some(PeerState::Up));
        assert_eq!(pb.got, vec![(NodeId(1), vec![42])]);
        assert!(a.registry().counter(NETIO_DGRAM_TX) > 0);
        assert!(b.registry().counter(NETIO_DGRAM_RX) > 0);
    }

    #[test]
    fn block_filter_cuts_both_directions_until_unblocked() {
        let mut a = rt(1);
        let mut b = rt(2);
        a.add_peer(NodeId(2), b.local_addr().expect("addr"));
        b.add_peer(NodeId(1), a.local_addr().expect("addr"));
        a.enable_trace();
        let mut pa = Recorder::new();
        let mut pb = Recorder::new();
        for _ in 0..100 {
            a.run_for(&mut pa, SimDuration::from_millis(10));
            b.run_for(&mut pb, SimDuration::from_millis(10));
            if a.peers_up() == 1 && b.peers_up() == 1 {
                break;
            }
        }
        assert_eq!(a.peers_up(), 1);
        // Partition: a drops everything to/from 2.
        a.on_net_msg(
            NodeId(99),
            NetMsg::Block {
                peers: vec![NodeId(2)],
            },
        );
        a.send(NodeId(2), Payload::copy_from_slice(&[9]));
        for _ in 0..200 {
            a.run_for(&mut pa, SimDuration::from_millis(10));
            b.run_for(&mut pb, SimDuration::from_millis(10));
            if a.peer_state(NodeId(2)) == Some(PeerState::Down)
                && b.peer_state(NodeId(1)) == Some(PeerState::Down)
            {
                break;
            }
        }
        assert_eq!(a.peer_state(NodeId(2)), Some(PeerState::Down));
        assert_eq!(b.peer_state(NodeId(1)), Some(PeerState::Down));
        assert!(pb.got.is_empty(), "blocked frame must not arrive");
        // Heal: the filter lifts and the pool reconnects on its own.
        a.on_net_msg(
            NodeId(99),
            NetMsg::Unblock {
                peers: vec![NodeId(2)],
            },
        );
        for _ in 0..200 {
            a.run_for(&mut pa, SimDuration::from_millis(10));
            b.run_for(&mut pb, SimDuration::from_millis(10));
            if a.peers_up() == 1 && b.peers_up() == 1 {
                break;
            }
        }
        assert_eq!(a.peers_up(), 1);
        assert_eq!(b.peers_up(), 1);
        assert_eq!(a.trace_ref().count("net.ctrl.block"), 1);
        assert_eq!(a.trace_ref().count("net.ctrl.unblock"), 1);
    }
}
