//! Extension experiment: **message packing + subset delivery** on the
//! LWG data plane.
//!
//! Several small LWGs co-mapped on one big HWG are the paper's resource-
//! sharing win — and its interference cost: every HWG member receives and
//! filters every co-mapped group's traffic, and every LWG send costs one
//! full HWG multicast. This sweep quantifies the two data-plane
//! countermeasures:
//!
//! * **packing** (`pack_max_msgs`/`pack_delay`): one sender's bursty
//!   sends across its co-mapped groups ride a single `LwgMsg::Batch`
//!   multicast, amortising the per-multicast HWG cost;
//! * **subset delivery** (`subset_delivery`): co-mapped data is addressed
//!   only to the interested members (plus the HWG coordinator), so
//!   uninterested members stop paying the filtering cost.
//!
//! Topology: one 8-process group pins the HWG at 8 members; `G` co-mapped
//! groups over the first 4 processes carry the measured traffic (two
//! senders, bursts of one message per group every 10 ms for 2 s).
//! Baseline is `pack_max_msgs = 1`, subset delivery off — byte-identical
//! to the unpacked protocol. Results land in `BENCH_pack.json`.

use plwg_core::{LwgConfig, LwgId};
use plwg_vsync::VsyncStack;

type LwgNode = plwg_core::LwgNode<VsyncStack>;
use plwg_bench::{write_json_rows, Table};
use plwg_naming::{NameServer, NamingConfig};
use plwg_sim::{Frame, NodeId, SimDuration, World, WorldConfig};

/// One swept configuration.
struct Cfg {
    label: &'static str,
    pack_max_msgs: usize,
    pack_delay: SimDuration,
    subset: bool,
}

/// Measured outcome of one run.
struct Row {
    label: &'static str,
    groups: usize,
    pack_max_msgs: usize,
    pack_delay_ms: f64,
    subset: bool,
    sent: u64,
    delivered: u64,
    hwg_multicasts: u64,
    filtered: u64,
    occupancy_mean: f64,
    net_bytes: u64,
}

impl Row {
    fn multicasts_per_delivered(&self) -> f64 {
        self.hwg_multicasts as f64 / self.delivered.max(1) as f64
    }

    fn filtered_per_delivered(&self) -> f64 {
        self.filtered as f64 / self.delivered.max(1) as f64
    }

    /// Wire bytes handed to the network per delivered application message
    /// (printed only: `BENCH_pack.json` is a byte-identity guard for the
    /// zero-copy refactor and must not change shape).
    fn wire_bytes_per_delivered(&self) -> f64 {
        self.net_bytes as f64 / self.delivered.max(1) as f64
    }
}

const BIG: LwgId = LwgId(100);
const TRAFFIC_SECS: u64 = 2;
const BURSTS: u64 = 200; // one burst every 10 ms for 2 s
const SENDERS: usize = 2;

fn run(groups: usize, cfg: &Cfg, seed: u64) -> Row {
    let lwg_cfg = LwgConfig {
        pack_max_msgs: cfg.pack_max_msgs,
        pack_delay: if cfg.pack_delay > SimDuration::ZERO {
            cfg.pack_delay
        } else {
            SimDuration::from_millis(1)
        },
        subset_delivery: cfg.subset,
        // The interference rule would de-map the small groups mid-run;
        // this sweep measures the co-mapped regime the policies start
        // every group in.
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
    // The big group pins the HWG at all 8 processes.
    for (i, &n) in apps.iter().enumerate() {
        let t = w.now() + SimDuration::from_millis(300 * i as u64);
        w.invoke_at(t, n, move |a: &mut LwgNode, ctx| a.service().join(ctx, BIG));
    }
    w.run_for(SimDuration::from_secs(10));
    // G co-mapped groups over the first 4 processes.
    for g in 0..groups {
        let lwg = LwgId(1 + g as u64);
        for (i, &n) in apps[..4].iter().enumerate() {
            let t = w.now() + SimDuration::from_millis(200 * i as u64);
            w.invoke_at(t, n, move |a: &mut LwgNode, ctx| a.service().join(ctx, lwg));
        }
        w.run_for(SimDuration::from_secs(3));
    }
    w.run_for(SimDuration::from_secs(4));
    // Drop everything spent on membership; measure the data plane only.
    w.metrics_mut().reset();

    // Bursty traffic: each sender puts one message on every co-mapped
    // group per burst — the packing layer's best case, and exactly the
    // fan-in the Swiss-Exchange motivation describes (§1).
    for &sender in apps.iter().take(SENDERS) {
        for b in 0..BURSTS {
            let t = w.now() + SimDuration::from_millis(b * 10);
            w.invoke_at(t, sender, move |a: &mut LwgNode, ctx| {
                for g in 0..groups {
                    a.service()
                        .send(ctx, LwgId(1 + g as u64), Frame::from_u64(b));
                }
            });
        }
    }
    w.run_for(SimDuration::from_secs(TRAFFIC_SECS + 2));

    let m = w.metrics();
    let occupancy = m
        .histogram(plwg_core::keys::BATCH_OCCUPANCY)
        .map_or(0.0, |h| h.summary().mean);
    Row {
        label: cfg.label,
        groups,
        pack_max_msgs: cfg.pack_max_msgs,
        pack_delay_ms: cfg.pack_delay.as_micros() as f64 / 1000.0,
        subset: cfg.subset,
        sent: m.counter(plwg_core::keys::DATA_SENT),
        delivered: m.counter(plwg_core::keys::DATA_DELIVERED),
        hwg_multicasts: m.counter(plwg_vsync::keys::DATA_SENT),
        filtered: m.counter(plwg_core::keys::FILTERED),
        occupancy_mean: occupancy,
        net_bytes: m.counter(plwg_sim::keys::NET_BYTES_SENT),
    }
}

fn json_row(r: &Row) -> String {
    format!(
        "\"config\": \"{}\", \"groups\": {}, \"pack_max_msgs\": {}, \
         \"pack_delay_ms\": {}, \"subset_delivery\": {}, \"lwg_sent\": {}, \
         \"lwg_delivered\": {}, \"hwg_data_multicasts\": {}, \"lwg_filtered\": {}, \
         \"multicasts_per_delivered\": {:.4}, \"filtered_per_delivered\": {:.4}, \
         \"batch_occupancy_mean\": {:.2}",
        r.label,
        r.groups,
        r.pack_max_msgs,
        r.pack_delay_ms,
        r.subset,
        r.sent,
        r.delivered,
        r.hwg_multicasts,
        r.filtered,
        r.multicasts_per_delivered(),
        r.filtered_per_delivered(),
        r.occupancy_mean,
    )
}

fn main() {
    println!("Packing + subset delivery: G co-mapped 4-member LWGs on an 8-member HWG");
    println!("({SENDERS} senders, 1 msg/group every 10 ms for {TRAFFIC_SECS} s; baseline = pack_max_msgs 1)\n");
    let configs = [
        Cfg {
            label: "baseline",
            pack_max_msgs: 1,
            pack_delay: SimDuration::ZERO,
            subset: false,
        },
        Cfg {
            label: "pack-2ms",
            pack_max_msgs: 16,
            pack_delay: SimDuration::from_millis(2),
            subset: false,
        },
        Cfg {
            label: "subset-only",
            pack_max_msgs: 1,
            pack_delay: SimDuration::ZERO,
            subset: true,
        },
        Cfg {
            label: "pack-2ms+subset",
            pack_max_msgs: 16,
            pack_delay: SimDuration::from_millis(2),
            subset: true,
        },
    ];
    let mut table = Table::new(&[
        "groups",
        "config",
        "delivered",
        "HWG multicasts",
        "mc/delivered",
        "filtered/delivered",
        "wire B/delivered",
        "occupancy",
    ]);
    let mut rows = Vec::new();
    for &groups in &[2usize, 4, 8] {
        let mut baseline_mpd = None;
        for cfg in &configs {
            let r = run(groups, cfg, 31);
            if cfg.label == "baseline" {
                baseline_mpd = Some(r.multicasts_per_delivered());
            }
            table.row(&[
                groups.to_string(),
                r.label.to_string(),
                r.delivered.to_string(),
                r.hwg_multicasts.to_string(),
                format!("{:.3}", r.multicasts_per_delivered()),
                format!("{:.3}", r.filtered_per_delivered()),
                format!("{:.0}", r.wire_bytes_per_delivered()),
                if r.occupancy_mean > 0.0 {
                    format!("{:.1}", r.occupancy_mean)
                } else {
                    "-".to_string()
                },
            ]);
            rows.push(r);
        }
        if let (Some(base), Some(packed)) = (
            baseline_mpd,
            rows.iter()
                .rev()
                .find(|r| r.groups == groups && r.label == "pack-2ms+subset")
                .map(Row::multicasts_per_delivered),
        ) {
            println!(
                "G={groups}: pack-2ms+subset uses {:.1}x fewer HWG Data multicasts per delivered message than baseline",
                base / packed.max(f64::EPSILON)
            );
        }
    }
    println!("\n{}", table.render());
    write_json_rows("BENCH_pack.json", "pack_sweep", &rows, json_row);
}
