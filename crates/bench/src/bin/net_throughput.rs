//! Macro-benchmark: **wall-clock throughput of the real-socket data
//! plane** (`plwg-net`), the companion number to `throughput_sweep`'s
//! simulator-core msgs/s.
//!
//! Two `NetRuntime`s on loopback UDP, one per thread: the sender keeps a
//! fixed window of frames outstanding against the receiver's count (a
//! shared atomic — the two runtimes live in one process) and tops it up
//! between reactor turns; the receiver's reactor counts what arrives. The
//! loop is closed because the transport has no flow control of its own:
//! an open loop above the knee measures loopback's socket buffer, not the
//! reactor. Frames written off after a stall count against the delivery
//! ratio, which the smoke gate holds at 100 %.
//!
//! Results land in `BENCH_net.json`. Unlike `BENCH_pack.json` /
//! `BENCH_throughput.json` this file is wall-clock and machine-dependent,
//! so CI runs only `--smoke` (small counts, sanity gates) and never diffs
//! the JSON.
//!
//! Run with: `cargo run --release -p plwg-bench --bin net_throughput`

use plwg_net::{NetOptions, NetRuntime};
use plwg_sim::{NodeId, Payload, Process, SimDuration, Transport};
use plwg_workload::{write_json_rows, Table};
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

const SENDER: NodeId = NodeId(1);
const RECEIVER: NodeId = NodeId(2);
/// Frames the sender keeps outstanding.
const WINDOW: u64 = 64;
/// No delivery for this long: the outstanding frames are written off as
/// lost (nothing below this bench retransmits) and the loop moves on.
const STALL: Duration = Duration::from_secs(1);

/// Receiver process: counts frames and timestamps the first/last one.
struct Counter {
    n: Arc<AtomicU64>,
    first: Option<Instant>,
    last: Option<Instant>,
}

impl Process for Counter {
    fn on_message(&mut self, _ctx: &mut dyn Transport, _from: NodeId, _msg: Payload) {
        self.n.fetch_add(1, SeqCst);
        let now = Instant::now();
        self.first.get_or_insert(now);
        self.last = Some(now);
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Sender process: pure source, nothing to receive.
struct Source;

impl Process for Source {
    fn on_message(&mut self, _ctx: &mut dyn Transport, _from: NodeId, _msg: Payload) {}
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

struct Row {
    payload_bytes: usize,
    sent: u64,
    received: u64,
    wall_ms: f64,
    bytes_tx: u64,
}

impl Row {
    fn msgs_per_s(&self) -> f64 {
        self.received as f64 / (self.wall_ms / 1000.0).max(1e-9)
    }
    fn delivery_ratio(&self) -> f64 {
        self.received as f64 / self.sent.max(1) as f64
    }
    fn mib_per_s(&self) -> f64 {
        (self.received as f64 * self.payload_bytes as f64)
            / (1024.0 * 1024.0)
            / (self.wall_ms / 1000.0).max(1e-9)
    }
}

fn run(payload_bytes: usize, frames: u64) -> Row {
    let (addr_tx, addr_rx) = mpsc::channel();
    let (done_tx, done_rx) = mpsc::channel();
    let received = Arc::new(AtomicU64::new(0));

    // Receiver thread: bind, publish the address, count until the sender
    // says it is done (or 60 s pass).
    let rx_count = Arc::clone(&received);
    let rx_thread = std::thread::spawn(move || {
        let mut rt = NetRuntime::bind(RECEIVER, "127.0.0.1:0", NetOptions::default())
            .expect("bind receiver");
        addr_tx
            .send(rt.local_addr().expect("receiver addr"))
            .expect("publish addr");
        let mut counter = Counter {
            n: rx_count,
            first: None,
            last: None,
        };
        let deadline = Instant::now() + Duration::from_secs(60);
        while Instant::now() < deadline && done_rx.try_recv().is_err() {
            rt.run_for(&mut counter, SimDuration::from_millis(2));
        }
        counter
    });

    let peer = addr_rx.recv().expect("receiver addr");
    let mut rt =
        NetRuntime::bind(SENDER, "127.0.0.1:0", NetOptions::default()).expect("bind sender");
    rt.add_peer(RECEIVER, peer);
    let mut src = Source;
    // Connect before timing: the handshake is not the data plane.
    while rt.peers_up() == 0 {
        rt.run_for(&mut src, SimDuration::from_millis(10));
    }

    let frame = Payload::from_vec(vec![7u8; payload_bytes]);
    // Frames are cheap to clone (shared buffer), so one template suffices.
    let (mut sent, mut lost) = (0u64, 0u64);
    let mut progress = (0u64, Instant::now());
    loop {
        let got = received.load(SeqCst);
        if got != progress.0 {
            progress = (got, Instant::now());
        } else if progress.1.elapsed() > STALL {
            lost = sent - got;
            progress.1 = Instant::now();
        }
        if got + lost >= frames {
            break;
        }
        let top_up = WINDOW.saturating_sub(sent - got - lost).min(frames - sent);
        for _ in 0..top_up {
            rt.send(RECEIVER, frame.clone());
        }
        sent += top_up;
        // The turn puts the top-up on the wire and services heartbeats.
        rt.run_for(&mut src, SimDuration::from_micros(100));
    }
    let bytes_tx = rt.registry().counter(plwg_net::keys::NETIO_BYTES_TX);
    let _ = done_tx.send(());
    let counter = rx_thread.join().expect("receiver thread");

    let wall_ms = match (counter.first, counter.last) {
        (Some(a), Some(b)) => b.duration_since(a).as_secs_f64() * 1000.0,
        _ => 0.0,
    };
    Row {
        payload_bytes,
        sent,
        received: received.load(SeqCst),
        wall_ms,
        bytes_tx,
    }
}

fn json_row(r: &Row) -> String {
    format!(
        "\"payload_bytes\": {}, \"sent\": {}, \"received\": {}, \
         \"delivery_ratio\": {:.3}, \"wall_ms\": {:.1}, \"msgs_per_s\": {:.0}, \
         \"mib_per_s\": {:.1}, \"bytes_tx\": {}",
        r.payload_bytes,
        r.sent,
        r.received,
        r.delivery_ratio(),
        r.wall_ms,
        r.msgs_per_s(),
        r.mib_per_s(),
        r.bytes_tx,
    )
}

fn gate(rows: &[Row]) {
    for r in rows {
        assert!(
            r.received == r.sent,
            "{}B: {} of {} frames arrived — a closed loop of {WINDOW} must not lose any",
            r.payload_bytes,
            r.received,
            r.sent
        );
        assert!(
            r.msgs_per_s() > 500.0,
            "{}B: {:.0} msgs/s is below any plausible loopback floor",
            r.payload_bytes,
            r.msgs_per_s()
        );
    }
    // A reactor limited by per-message work moves 16x the payload at about
    // the same message rate; a bench limited by its own pacing (or a wait
    // that rounds up to a timer tick) moves the same bytes at either size.
    let (small, large) = (&rows[0], &rows[rows.len() - 1]);
    assert!(
        large.mib_per_s() >= 2.0 * small.mib_per_s(),
        "{}B and {}B both move ~{:.1} MiB/s: the rate is set by something \
         other than per-message cost",
        small.payload_bytes,
        large.payload_bytes,
        small.mib_per_s()
    );
    println!("gates: ok (every frame delivered, rate above floor, byte rate follows payload size)");
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let cells: &[(usize, u64)] = if smoke {
        &[(64, 50_000), (1024, 20_000)]
    } else {
        &[(64, 1_000_000), (1024, 500_000)]
    };

    println!("Real-socket data plane: UDP loopback, two runtimes, closed loop of {WINDOW}\n");
    let mut table = Table::new(&[
        "payload", "sent", "received", "delivery", "wall ms", "msg/s", "MiB/s",
    ]);
    let mut rows = Vec::new();
    for &(size, frames) in cells {
        let r = run(size, frames);
        table.row(&[
            format!("{}B", r.payload_bytes),
            r.sent.to_string(),
            r.received.to_string(),
            format!("{:.1}%", r.delivery_ratio() * 100.0),
            format!("{:.1}", r.wall_ms),
            format!("{:.0}", r.msgs_per_s()),
            format!("{:.1}", r.mib_per_s()),
        ]);
        rows.push(r);
    }
    println!("{}", table.render());
    println!("simulator-core baseline for the same payloads: BENCH_throughput.json");

    if smoke {
        gate(&rows);
        return;
    }
    write_json_rows("BENCH_net.json", "net_throughput", &rows, json_row);
}
