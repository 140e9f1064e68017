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
//! to the unpacked protocol. The rows land in `BENCH_pack.json`.

use crate::report::{page, Table};
use crate::Output;
use plwg_core::{LwgConfig, LwgId};
use plwg_obs::scenarios::{join_staggered, Node, Scenario};
use plwg_sim::{Frame, SimDuration};
use plwg_vsync::VsyncStack;
use std::fmt::Write as _;

/// One swept configuration.
struct Cfg {
    label: &'static str,
    pack_max_msgs: usize,
    /// `pack_delay`; the run uses 1 ms where this is 0, which with one
    /// message per pack never fires.
    delay_ms: u64,
    subset: bool,
}

#[rustfmt::skip]
static CONFIGS: [Cfg; 4] = [
    Cfg { label: "baseline", pack_max_msgs: 1, delay_ms: 0, subset: false },
    Cfg { label: "pack-2ms", pack_max_msgs: 16, delay_ms: 2, subset: false },
    Cfg { label: "subset-only", pack_max_msgs: 1, delay_ms: 0, subset: true },
    Cfg { label: "pack-2ms+subset", pack_max_msgs: 16, delay_ms: 2, subset: true },
];

/// Measured outcome of one run.
struct Row {
    cfg: &'static Cfg,
    groups: usize,
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

    fn json(&self) -> String {
        format!(
            "\"config\": \"{}\", \"groups\": {}, \"pack_max_msgs\": {}, \
             \"pack_delay_ms\": {}, \"subset_delivery\": {}, \"lwg_sent\": {}, \
             \"lwg_delivered\": {}, \"hwg_data_multicasts\": {}, \"lwg_filtered\": {}, \
             \"multicasts_per_delivered\": {:.4}, \"filtered_per_delivered\": {:.4}, \
             \"batch_occupancy_mean\": {:.2}",
            self.cfg.label,
            self.groups,
            self.cfg.pack_max_msgs,
            self.cfg.delay_ms,
            self.cfg.subset,
            self.sent,
            self.delivered,
            self.hwg_multicasts,
            self.filtered,
            self.multicasts_per_delivered(),
            self.filtered_per_delivered(),
            self.occupancy_mean,
        )
    }
}

const BIG: LwgId = LwgId(100);
const TRAFFIC_SECS: u64 = 2;
const BURSTS: u64 = 200; // one burst every 10 ms for 2 s
const SENDERS: usize = 2;

fn run(groups: usize, cfg: &'static Cfg, seed: u64) -> Row {
    let lwg_cfg = LwgConfig {
        pack_max_msgs: cfg.pack_max_msgs,
        pack_delay: SimDuration::from_millis(cfg.delay_ms.max(1)),
        subset_delivery: cfg.subset,
        // The interference rule would de-map the small groups mid-run;
        // this sweep measures the co-mapped regime the policies start
        // every group in.
        policy_interval: SimDuration::from_secs(600),
        ..LwgConfig::default()
    };
    let scenario = Scenario {
        lwg: lwg_cfg,
        ..Scenario::new(seed, 8)
    };
    let (mut w, _, apps) = scenario.build::<VsyncStack>();
    // The big group pins the HWG at all 8 processes.
    let now = w.now();
    join_staggered::<VsyncStack>(&mut w, BIG, &apps, now, SimDuration::from_millis(300));
    w.run_for(SimDuration::from_secs(10));
    // G co-mapped groups over the first 4 processes.
    for g in 0..groups {
        let (lwg, now) = (LwgId(1 + g as u64), w.now());
        join_staggered::<VsyncStack>(&mut w, lwg, &apps[..4], now, SimDuration::from_millis(200));
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
            w.invoke_at(t, sender, move |a: &mut Node, ctx| {
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
        cfg,
        groups,
        sent: m.counter(plwg_core::keys::DATA_SENT),
        delivered: m.counter(plwg_core::keys::DATA_DELIVERED),
        hwg_multicasts: m.counter(plwg_vsync::keys::DATA_SENT),
        filtered: m.counter(plwg_core::keys::FILTERED),
        occupancy_mean: occupancy,
        net_bytes: m.counter(plwg_sim::keys::NET_BYTES_SENT),
    }
}

/// `pack_sweep`: the four configurations at 2, 4 and 8 co-mapped groups.
pub(crate) fn sweep() -> Output {
    let mut title = format!(
        "Packing + subset delivery: G co-mapped 4-member LWGs on an 8-member HWG\n\
         ({SENDERS} senders, 1 msg/group every 10 ms for {TRAFFIC_SECS} s; baseline = pack_max_msgs 1)\n"
    );
    let mut rows = Vec::new();
    for groups in [2, 4, 8] {
        let runs: Vec<Row> = CONFIGS.iter().map(|cfg| run(groups, cfg, 31)).collect();
        let per_delivered = |label| {
            runs.iter()
                .find(|r| r.cfg.label == label)
                .map_or(0.0, Row::multicasts_per_delivered)
        };
        let _ = write!(
            title,
            "\nG={groups}: pack-2ms+subset uses {:.1}x fewer HWG Data multicasts per delivered message than baseline",
            per_delivered("baseline") / per_delivered("pack-2ms+subset").max(f64::EPSILON)
        );
        rows.extend(runs);
    }
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
    for r in &rows {
        table.row(&[
            r.groups.to_string(),
            r.cfg.label.to_string(),
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
    }
    Output {
        rows: rows.iter().map(Row::json).collect(),
        ..page(&title, &table, "")
    }
}
