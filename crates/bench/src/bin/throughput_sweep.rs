//! Macro-benchmark: **wall-clock throughput of the LWG data plane**.
//!
//! Where `pack_sweep` counts protocol messages in virtual time (a
//! determinism guard), this sweep measures what the paper's Swiss-Exchange
//! motivation actually cares about: how many application multicasts per
//! second of *host CPU* the stack pushes end to end, and how much
//! allocator traffic each delivered message costs. Payload sizes bracket
//! the interesting regimes (64 B ticker updates, 1 KB orders, 64 KB
//! snapshots); the group count sweeps the co-mapping fan-in like
//! `pack_sweep` does.
//!
//! Topology: one 8-process group pins the HWG at 8 members; `G` co-mapped
//! groups over the first 4 processes carry the measured traffic (two
//! senders, one message per group every 10 ms for 2 s, pack-2ms+subset —
//! the shipping configuration). Results land in `BENCH_throughput.json`;
//! the before/after wall-clock guard for the zero-copy refactor is
//! checked in under `results/throughput_guard_{before,after}.json`.

use plwg_core::{LwgConfig, LwgId};
use plwg_vsync::VsyncStack;

type LwgNode = plwg_core::LwgNode<VsyncStack>;
use plwg_naming::{NameServer, NamingConfig};
use plwg_sim::{Frame, NodeId, SimDuration, World, WorldConfig};
use plwg_workload::{write_json_rows, Table};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Counts heap allocations so the sweep can report steady-state
/// allocations per delivered message (the zero-copy refactor's target
/// metric). Single-threaded process; relaxed ordering is exact.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const BIG: LwgId = LwgId(100);
const TRAFFIC_SECS: u64 = 2;
const BURSTS: u64 = 200; // one burst every 10 ms for 2 s
const SENDERS: usize = 2;

/// Measured outcome of one (payload size, group count) cell.
struct Row {
    payload_bytes: usize,
    groups: usize,
    delivered: u64,
    hwg_multicasts: u64,
    bytes_multicast: u64,
    wall_ms: f64,
    allocs: u64,
    alloc_bytes: u64,
}

impl Row {
    fn msgs_per_s_core(&self) -> f64 {
        self.delivered as f64 / (self.wall_ms / 1000.0).max(1e-9)
    }
    fn allocs_per_delivered(&self) -> f64 {
        self.allocs as f64 / self.delivered.max(1) as f64
    }
    fn bytes_per_multicast(&self) -> f64 {
        self.bytes_multicast as f64 / self.hwg_multicasts.max(1) as f64
    }
}

fn run(groups: usize, payload_bytes: usize, seed: u64) -> Row {
    let lwg_cfg = LwgConfig {
        pack_max_msgs: 16,
        pack_delay: SimDuration::from_millis(2),
        subset_delivery: true,
        // Keep the co-mapped regime stable for the whole measurement.
        policy_interval: SimDuration::from_secs(600),
        ..LwgConfig::default()
    };
    let mut w = World::new(WorldConfig {
        seed,
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
    let apps: Vec<NodeId> = (0..8)
        .map(|i| {
            w.add_node(Box::new(
                LwgNode::builder(NodeId(2 + i))
                    .servers(servers.clone())
                    .config(lwg_cfg.clone())
                    .build()
                    .expect("valid LWG config"),
            ))
        })
        .collect();
    for (i, &n) in apps.iter().enumerate() {
        let t = w.now() + SimDuration::from_millis(300 * i as u64);
        w.invoke_at(t, n, move |a: &mut LwgNode, ctx| a.service().join(ctx, BIG));
    }
    w.run_for(SimDuration::from_secs(10));
    for g in 0..groups {
        let lwg = LwgId(1 + g as u64);
        for (i, &n) in apps[..4].iter().enumerate() {
            let t = w.now() + SimDuration::from_millis(200 * i as u64);
            w.invoke_at(t, n, move |a: &mut LwgNode, ctx| a.service().join(ctx, lwg));
        }
        w.run_for(SimDuration::from_secs(3));
    }
    w.run_for(SimDuration::from_secs(4));
    // Steady state reached: membership traffic is over. Measure the data
    // plane only — counters, wall-clock and allocations.
    w.metrics_mut().reset();

    for &sender in apps.iter().take(SENDERS) {
        for b in 0..BURSTS {
            let t = w.now() + SimDuration::from_millis(b * 10);
            w.invoke_at(t, sender, move |a: &mut LwgNode, ctx| {
                for g in 0..groups {
                    a.service().send(
                        ctx,
                        LwgId(1 + g as u64),
                        Frame::from_vec(vec![0u8; payload_bytes]),
                    );
                }
            });
        }
    }
    let allocs0 = ALLOCS.load(Ordering::Relaxed);
    let bytes0 = ALLOC_BYTES.load(Ordering::Relaxed);
    let t0 = Instant::now();
    w.run_for(SimDuration::from_secs(TRAFFIC_SECS + 2));
    let wall_ms = t0.elapsed().as_secs_f64() * 1000.0;
    let allocs = ALLOCS.load(Ordering::Relaxed) - allocs0;
    let alloc_bytes = ALLOC_BYTES.load(Ordering::Relaxed) - bytes0;

    let m = w.metrics();
    Row {
        payload_bytes,
        groups,
        delivered: m.counter(plwg_core::keys::DATA_DELIVERED),
        hwg_multicasts: m.counter(plwg_vsync::keys::DATA_SENT),
        bytes_multicast: m.counter(plwg_vsync::keys::BYTES_MULTICAST),
        wall_ms,
        allocs,
        alloc_bytes,
    }
}

fn json_row(r: &Row) -> String {
    format!(
        "\"payload_bytes\": {}, \"groups\": {}, \"delivered\": {}, \
         \"hwg_data_multicasts\": {}, \"bytes_per_multicast\": {:.0}, \
         \"wall_ms\": {:.1}, \
         \"msgs_per_s_core\": {:.0}, \"allocs\": {}, \
         \"allocs_per_delivered\": {:.1}, \"alloc_mib\": {:.1}",
        r.payload_bytes,
        r.groups,
        r.delivered,
        r.hwg_multicasts,
        r.bytes_per_multicast(),
        r.wall_ms,
        r.msgs_per_s_core(),
        r.allocs,
        r.allocs_per_delivered(),
        r.alloc_bytes as f64 / (1024.0 * 1024.0),
    )
}

fn main() {
    println!("Data-plane throughput: G co-mapped 4-member LWGs on an 8-member HWG");
    println!(
        "({SENDERS} senders, 1 msg/group every 10 ms for {TRAFFIC_SECS} s, pack-2ms+subset)\n"
    );
    let mut table = Table::new(&[
        "payload",
        "groups",
        "delivered",
        "B/multicast",
        "wall ms",
        "msg/s/core",
        "allocs/delivered",
        "alloc MiB",
    ]);
    let mut rows = Vec::new();
    for &size in &[64usize, 1024, 65536] {
        for &groups in &[2usize, 4, 8] {
            let r = run(groups, size, 31);
            table.row(&[
                format!("{}B", r.payload_bytes),
                r.groups.to_string(),
                r.delivered.to_string(),
                format!("{:.0}", r.bytes_per_multicast()),
                format!("{:.1}", r.wall_ms),
                format!("{:.0}", r.msgs_per_s_core()),
                format!("{:.1}", r.allocs_per_delivered()),
                format!("{:.1}", r.alloc_bytes as f64 / (1024.0 * 1024.0)),
            ]);
            rows.push(r);
        }
    }
    println!("{}", table.render());
    write_json_rows("BENCH_throughput.json", "throughput_sweep", &rows, json_row);
}
