//! `net_pair_64b`: the stack over loopback UDP, closed loop.
//!
//! Three `NetRuntime`s in one process — the name server (own thread),
//! sender A (the calling thread) and receiver B (own thread) — each
//! hosting the same processes the simulator hosts, with
//! `LwgConfig::default()` and `NetOptions::default()`; one LWG {A, B}.
//! A keeps at most [`OUTSTANDING`] messages unacknowledged (B's delivery
//! count is a shared atomic), topping up between `run_for(100 µs)` turns.
//! Closed, because the application and the reactor share a thread and the
//! stack has no flow control: an open loop above the knee measures UDP
//! loss and NACK repair, which does not repeat. 64 B payloads carry wall
//! nanoseconds since a process-wide instant; an op is one delivery at B.
//! Traffic crosses the host's loopback interface, not a link.
#![forbid(unsafe_code)]

use crate::alloc;
use crate::host::{Host, Stamp};
use crate::layers::{self, Counts, LayerInputs, NetInputs};
use crate::report::{Budget, Measured, Opts};
use crate::stats::{self, LatencyHist};
use crate::trace::{self, Layer, Ledger, Spanned, SpannedProcess};
use crate::wire_replay;
use plwg_core::{LwgConfig, LwgId};
use plwg_hwg::HwgSubstrate;
use plwg_naming::{NameServer, NamingConfig};
use plwg_net::{NetOptions, NetRuntime, NetSubstrate};
use plwg_sim::{NodeId, Process, SimDuration, SimRng};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering::SeqCst};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const NS: NodeId = NodeId(0);
const A: NodeId = NodeId(1);
const B: NodeId = NodeId(2);
const GROUP: LwgId = LwgId(1);
/// Messages A may have in flight.
const OUTSTANDING: u64 = 32;
const PAYLOAD: usize = 64;
const TURN: SimDuration = SimDuration::from_micros(100);
/// Every wait of the set-up and the drain gives up after this long.
const PATIENCE: Duration = Duration::from_secs(30);

/// Where a run is; the helper threads follow the calling thread.
const SETTING_UP: u8 = 0;
const MEASURING: u8 = 1;
const DRAINING: u8 = 2;
const STOPPED: u8 = 3;

/// What the helper threads share with the calling one.
struct Shared {
    phase: AtomicU8,
    /// In-order deliveries at B.
    delivered: Arc<AtomicU64>,
    /// Members in A's and in B's view of the group.
    a_view: AtomicU64,
    b_view: AtomicU64,
    epoch: Instant,
    traced: bool,
}

/// What a helper thread hands back when it stops.
#[derive(Default)]
struct Report {
    /// Protocol counters over the window.
    counts: Counts,
    ledger: Ledger,
    /// Receiver only: latency of the window's deliveries (ns), and the
    /// delivery checks over the whole deployment.
    latency: LatencyHist,
    received: u64,
    duplicates: u64,
    gaps: u64,
}

type Book = Vec<(NodeId, SocketAddr)>;

fn bind(me: NodeId) -> Result<NetRuntime, String> {
    NetRuntime::bind(me, "127.0.0.1:0", NetOptions::default())
        .map_err(|e| format!("{me}: cannot bind a loopback UDP socket: {e}"))
}

fn address(rt: &NetRuntime, me: NodeId) -> Result<SocketAddr, String> {
    rt.local_addr()
        .map_err(|e| format!("{me}: cannot read the socket's address: {e}"))
}

/// Binds, publishes the address, waits for everyone else's, then runs
/// `process` until the run stops — the life of a helper thread.
/// `on_phase(process, was, now)` is called whenever the run moves on.
fn serve<P: Process>(
    me: NodeId,
    shared: &Shared,
    addr_tx: &Sender<Result<(NodeId, SocketAddr), String>>,
    book_rx: &Receiver<Book>,
    make: impl FnOnce() -> Result<P, String>,
    mut on_phase: impl FnMut(&mut P, u8, u8),
) -> Result<(P, Report), String> {
    if shared.traced {
        trace::start(shared.epoch);
    }
    let bound = bind(me).and_then(|rt| Ok((address(&rt, me)?, rt, make()?)));
    let (mut rt, mut process) = match bound {
        Ok((addr, rt, process)) => {
            let _ = addr_tx.send(Ok((me, addr)));
            (rt, process)
        }
        Err(e) => {
            let _ = addr_tx.send(Err(e.clone()));
            return Err(e);
        }
    };
    let book = book_rx
        .recv_timeout(PATIENCE)
        .map_err(|_| format!("{me}: the address book never arrived"))?;
    for (node, addr) in book {
        rt.add_peer(node, addr);
    }
    let mut report = Report::default();
    let mut counts0 = Counts::default();
    let mut seen = SETTING_UP;
    loop {
        let phase = shared.phase.load(SeqCst);
        if phase != seen {
            on_phase(&mut process, seen, phase);
            if phase == MEASURING {
                counts0 = Counts::of(rt.registry());
                if shared.traced {
                    drop(trace::finish());
                    trace::start(shared.epoch);
                }
            } else if seen == MEASURING {
                report.counts = Counts::of(rt.registry()).since(&counts0);
                if shared.traced {
                    report.ledger = trace::finish();
                }
            }
            seen = phase;
        }
        if phase == STOPPED {
            break;
        }
        let _g = trace::span(Layer::Net);
        rt.run_for(&mut process, SimDuration::from_millis(2));
    }
    rt.shutdown();
    Ok((process, report))
}

/// One deployment, up and joined.
struct Up<S: HwgSubstrate> {
    rt: NetRuntime,
    host: Host<S>,
    shared: Arc<Shared>,
    /// Messages A has sent.
    sent: u64,
    receiver: JoinHandle<Result<Report, String>>,
    server: JoinHandle<Result<Report, String>>,
}

impl<S: HwgSubstrate + 'static> Up<S> {
    /// One turn of the closed loop: top up to the window (when `sending`),
    /// then let the reactor run for 100 µs. At most [`OUTSTANDING`] ops a
    /// turn, so `ops_per_s` ≤ 32 × turns per second.
    fn turn(&mut self, sending: bool) {
        if sending {
            let _cb = trace::callback(Layer::Harness);
            let (host, sent, delivered) = (&mut self.host, &mut self.sent, &self.shared.delivered);
            // The room is read once per turn: re-reading it while sending
            // lets a receiver that keeps pace hold the window open for ever
            // — a second, 18× faster regime that one deployment in ten fell
            // into and none stayed out of reliably.
            let room = OUTSTANDING.saturating_sub(*sent - delivered.load(SeqCst));
            trace::with_transport(&mut self.rt, Layer::Net, |ctx| {
                for _ in 0..room {
                    host.send_next(ctx, 0);
                }
            });
            *sent += room;
        }
        let _g = trace::span(Layer::Net);
        self.rt.run_for(&mut self.host, TURN);
    }

    /// Stops both helper threads, waits for them and returns
    /// (receiver's report, server's report).
    fn stop(mut self) -> Result<(Report, Report), String> {
        self.shared.phase.store(STOPPED, SeqCst);
        self.rt.shutdown();
        let join = |h: JoinHandle<Result<Report, String>>, who: &str| {
            h.join()
                .unwrap_or_else(|_| Err(format!("the {who} thread panicked")))
        };
        let receiver = join(self.receiver, "receiver");
        let server = join(self.server, "name-server");
        Ok((receiver?, server?))
    }
}

fn set_up<S: HwgSubstrate + 'static>(opts: &Opts, epoch: Instant) -> Result<Up<S>, String> {
    let shared = Arc::new(Shared {
        phase: AtomicU8::new(SETTING_UP),
        delivered: Arc::new(AtomicU64::new(0)),
        a_view: AtomicU64::new(0),
        b_view: AtomicU64::new(0),
        epoch,
        traced: opts.traced,
    });
    let (addr_tx, addr_rx) = channel();
    let (ns_book_tx, ns_book_rx) = channel::<Book>();
    let (b_book_tx, b_book_rx) = channel::<Book>();

    let server = {
        let (shared, addr_tx) = (Arc::clone(&shared), addr_tx.clone());
        std::thread::spawn(move || {
            let make = || Ok(NameServer::new(NS, vec![], NamingConfig::default()));
            if shared.traced {
                let spanned = || make().map(|s| SpannedProcess::new(s, Layer::Naming, Layer::Net));
                serve(NS, &shared, &addr_tx, &ns_book_rx, spanned, |_, _, _| {}).map(|(_, r)| r)
            } else {
                serve(NS, &shared, &addr_tx, &ns_book_rx, make, |_, _, _| {}).map(|(_, r)| r)
            }
        })
    };
    let receiver = {
        let (shared, addr_tx) = (Arc::clone(&shared), addr_tx.clone());
        std::thread::spawn(move || {
            let make = || {
                let host: Host<S> = Host::new(
                    B,
                    &[NS],
                    LwgConfig::default(),
                    Layer::Net,
                    Stamp::Wall(shared.epoch),
                    Arc::clone(&shared.delivered),
                )?;
                Ok(ReceiverHost {
                    host,
                    shared: Arc::clone(&shared),
                    joined: false,
                })
            };
            // The window's latencies are set aside when the window closes;
            // the delivery checks cover the whole deployment.
            let mut latency = LatencyHist::default();
            let on_phase = |p: &mut ReceiverHost<S>, was: u8, now: u8| {
                if now == MEASURING {
                    p.host.latency = LatencyHist::default();
                } else if was == MEASURING {
                    latency = p.host.latency.clone();
                }
            };
            let (p, mut report) = serve(B, &shared, &addr_tx, &b_book_rx, make, on_phase)?;
            report.latency = latency;
            report.received = p.host.received_from(GROUP, A);
            report.duplicates = p.host.duplicates;
            report.gaps = p.host.gaps;
            Ok(report)
        })
    };
    drop(addr_tx);

    // The calling thread hosts the sender.
    let up = (|| {
        let mut rt = bind(A)?;
        let mut book: Book = vec![(A, address(&rt, A)?)];
        for _ in 0..2 {
            let entry = addr_rx
                .recv_timeout(PATIENCE)
                .map_err(|_| "a helper thread never reported its socket".to_string())??;
            book.push(entry);
        }
        for (node, addr) in &book {
            rt.add_peer(*node, *addr);
        }
        let _ = ns_book_tx.send(book.clone());
        let _ = b_book_tx.send(book);
        let mut host: Host<S> = Host::new(
            A,
            &[NS],
            LwgConfig::default(),
            Layer::Net,
            Stamp::Wall(epoch),
            // A's own deliveries are not ops; nobody reads this counter.
            Arc::default(),
        )?;
        let mut rng = SimRng::from_seed(opts.seed ^ 0x5EED_0A1B);
        host.make_sender(vec![GROUP], PAYLOAD, &mut rng);
        rt.run_for(&mut host, SimDuration::from_millis(20));
        host.join(&mut rt, GROUP);
        let patience = Instant::now();
        loop {
            rt.run_for(&mut host, SimDuration::from_millis(10));
            let a_view = host.service.view_of(GROUP).map_or(0, |v| v.len());
            shared.a_view.store(a_view as u64, SeqCst);
            let b_view = shared.b_view.load(SeqCst);
            if a_view == 2 && b_view == 2 {
                return Ok((rt, host));
            }
            if patience.elapsed() > PATIENCE {
                return Err(format!(
                    "the group did not form within {PATIENCE:?}: A sees {a_view} members, B sees {b_view}, {} peers up",
                    rt.peers_up()
                ));
            }
        }
    })();
    match up {
        Ok((rt, host)) => Ok(Up {
            rt,
            host,
            shared,
            sent: 0,
            receiver,
            server,
        }),
        Err(e) => {
            // A helper still waiting for the address book must not wait
            // out its patience: hang up on it.
            drop((ns_book_tx, b_book_tx));
            shared.phase.store(STOPPED, SeqCst);
            let _ = (receiver.join(), server.join());
            Err(e)
        }
    }
}

/// The receiver's process: a [`Host`] that joins the group once the
/// sender has founded it, and publishes its view size after every callback.
/// Joining in a fixed order gives every deployment the same roles (the
/// sender founds the group and coordinates its HWG) and the same set-up.
struct ReceiverHost<S: HwgSubstrate> {
    host: Host<S>,
    shared: Arc<Shared>,
    joined: bool,
}

impl<S: HwgSubstrate + 'static> ReceiverHost<S> {
    fn after_callback(&mut self, ctx: &mut dyn plwg_sim::Transport) {
        if !self.joined && self.shared.a_view.load(SeqCst) >= 1 {
            self.joined = true;
            self.host.join(ctx, GROUP);
        }
        let members = self.host.service.view_of(GROUP).map_or(0, |v| v.len());
        self.shared.b_view.store(members as u64, SeqCst);
    }
}

impl<S: HwgSubstrate + 'static> Process for ReceiverHost<S> {
    fn on_start(&mut self, ctx: &mut dyn plwg_sim::Transport) {
        self.host.on_start(ctx);
    }

    fn on_message(
        &mut self,
        ctx: &mut dyn plwg_sim::Transport,
        from: NodeId,
        msg: plwg_sim::Payload,
    ) {
        self.host.on_message(ctx, from, msg);
        self.after_callback(ctx);
    }

    fn on_timer(&mut self, ctx: &mut dyn plwg_sim::Transport, token: plwg_sim::TimerToken) {
        self.host.on_timer(ctx, token);
        self.after_callback(ctx);
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// User + system CPU time of this process so far, µs (clock ticks of
/// 10 ms, as Linux reports them); `None` where `/proc` is not readable.
fn cpu_us() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th of the line.
    let rest = stat.rsplit_once(')')?.1;
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) * 10_000.0)
}

/// Runs the workload once. Every set-up is followed by its own warm-up,
/// window (an equal share of `opts.seconds`) and drain, and each metric is
/// the median over the deployments: this is wall time on a shared box, and
/// where the threads and sockets of one deployment happen to land moves
/// its latencies by several percent.
pub fn measure(opts: &Opts) -> Result<Measured, String> {
    let deploy = if opts.traced {
        deployment::<Spanned<NetSubstrate>>
    } else {
        deployment::<NetSubstrate>
    };
    let epoch = Instant::now();
    let n = opts.setups.max(1);
    let mut out = Measured::default();
    let mut per_metric: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut rates = Vec::new();
    for _ in 0..n {
        let d = deploy(opts, epoch, opts.seconds / n as f64)?;
        for (name, v) in d.end_to_end {
            per_metric.entry(name).or_default().push(v);
        }
        rates.push(d.ops_per_s);
        out.attempted += d.attempted;
        out.failed += d.failed;
        out.problems.extend(d.problems);
        out.phases.setups_s.extend(d.phases.setups_s);
        out.phases.warm_s += d.phases.warm_s;
        out.phases.window_s += d.phases.window_s;
        out.phases.drain_s += d.phases.drain_s;
        // Traced runs deploy once.
        out.per_layer = d.per_layer;
        out.trace = d.trace;
    }
    let median = |v: &[f64]| stats::median(v).unwrap_or(0.0);
    out.ops_per_s = median(&rates);
    out.end_to_end = per_metric
        .iter()
        .map(|(name, v)| (*name, median(v)))
        .collect();
    Ok(out)
}

/// One deployment from bind to shutdown: set-up, warm-up, a window of
/// `seconds`, drain, checks.
fn deployment<S: HwgSubstrate + 'static>(
    opts: &Opts,
    epoch: Instant,
    seconds: f64,
) -> Result<Measured, String> {
    let mut out = Measured::default();
    if opts.traced {
        trace::start(epoch);
    }
    let t = Instant::now();
    let mut up = set_up::<S>(opts, epoch)?;
    out.phases.setups_s.push(t.elapsed().as_secs_f64());
    let delivered = Arc::clone(&up.shared.delivered);

    let t = Instant::now();
    let warm = Budget::new((seconds / 10.0).min(0.5));
    while !warm.spent() {
        up.turn(true);
    }
    out.phases.warm_s = t.elapsed().as_secs_f64();

    // Window.
    if opts.traced {
        drop(trace::finish());
        trace::start(epoch);
    }
    up.shared.phase.store(MEASURING, SeqCst);
    alloc::reset_peak();
    let counts0 = Counts::of(up.rt.registry());
    let heap0 = alloc::heap();
    let cpu0 = cpu_us();
    let ops0 = delivered.load(SeqCst);
    let mut turn_ns = LatencyHist::default();
    let budget = Budget::new(seconds);
    let mut stalled = None;
    while !budget.spent() {
        let before = delivered.load(SeqCst);
        let t = Instant::now();
        up.turn(true);
        turn_ns.record(t.elapsed().as_nanos() as u64);
        // The closed loop cannot make progress if deliveries stop.
        if delivered.load(SeqCst) != before {
            stalled = None;
        } else if stalled.get_or_insert(t).elapsed() > PATIENCE {
            out.problems.push(format!(
                "no delivery at B for {PATIENCE:?}; window abandoned"
            ));
            break;
        }
    }
    let ops = delivered.load(SeqCst) - ops0;
    out.phases.window_s = budget.elapsed_s();
    let heap1 = alloc::heap();
    let cpu1 = cpu_us();
    let mut counts = Counts::of(up.rt.registry()).since(&counts0);
    let main_ledger = opts.traced.then(trace::finish);
    up.shared.phase.store(DRAINING, SeqCst);

    // Drain: no more sends; wait for what is outstanding.
    let t = Instant::now();
    while delivered.load(SeqCst) < up.sent && t.elapsed() < PATIENCE.min(Duration::from_secs(5)) {
        up.turn(false);
    }
    out.phases.drain_s = t.elapsed().as_secs_f64();
    let sent = up.sent;
    let (b, ns) = up.stop()?;

    // Checks.
    let missing = sent.saturating_sub(b.received);
    out.attempted = sent;
    out.failed = (missing + b.duplicates + b.gaps).min(sent);
    if out.failed > 0 {
        out.problems.push(format!(
            "{missing} deliveries missing at B after the drain, {} duplicated, {} out of order",
            b.duplicates, b.gaps
        ));
    }
    counts.add(&b.counts);
    counts.add(&ns.counts);
    counts.check_decode_errors(&mut out.problems);
    let dropped = counts.get(plwg_net::keys::NETIO_QUEUE_DROPPED.name());
    if dropped > 0 {
        out.problems
            .push(format!("{dropped} frames dropped by a peer send queue"));
    }

    // End-to-end metrics, over the whole window (wall-clock world: there is
    // no prefix that would repeat).
    let latency = b.latency;
    let us = |ns: f64| ns / 1000.0;
    let n = ops.max(1) as f64;
    out.ops_per_s = ops as f64 / out.phases.window_s;
    out.end_to_end.extend([
        ("ops_per_s", out.ops_per_s),
        ("op_p50_us", us(latency.percentile(0.50))),
        ("allocs_per_op", (heap1.total() - heap0.total()) as f64 / n),
        (
            "wire_bytes_per_op",
            counts.get(plwg_net::keys::NETIO_BYTES_TX.name()) as f64 / n,
        ),
        ("peak_heap_mib", heap1.peak_bytes as f64 / (1024.0 * 1024.0)),
    ]);

    if let Some(mut ledger) = main_ledger {
        let main_self_ns = ledger.total_self_ns();
        ledger.merge(b.ledger);
        ledger.merge(ns.ledger);
        let wire = wire_replay::replay(&ledger.frames, &mut out.problems);
        out.per_layer = layers::metrics(&LayerInputs {
            ledger: &ledger,
            main_self_ns,
            allocs: heap1.allocs_since(&heap0),
            ops,
            op_p95_us: us(latency.percentile(0.95)),
            samples: latency.count(),
            cycles: 0,
            chunks: 1,
            window_s: out.phases.window_s,
            counts: &counts,
            dir_lookups: 0,
            wire: &wire,
            net: Some(NetInputs {
                turn_wall_us_p50: us(turn_ns.percentile(0.50)),
                turns: turn_ns.count(),
                cpu_us: cpu0.zip(cpu1).map_or(0.0, |(a, b)| b - a),
                op_p99_us: us(latency.percentile(0.99)),
                op_max_us: us(latency.max() as f64),
            }),
        });
        out.trace = Some(ledger.to_json());
    }
    Ok(out)
}
