//! The per-layer ledger: one function turns what a traced window recorded
//! (spans, allocations, protocol counters, the wire replay) into every
//! per-layer metric `BENCHMARK.json` declares. A metric that does not apply
//! to the workload (a `*_per_cycle` on a data workload, `sim.*` on the net
//! workload) is reported as 0, which is itself the bypass check.
#![forbid(unsafe_code)]

use crate::trace::{Layer, Ledger, LAYERS};
use crate::wire_replay::WireCost;
use plwg_sim::MetricsRegistry;
use std::collections::BTreeMap;

/// Protocol counters by name, aggregated over labels.
#[derive(Debug, Default, Clone)]
pub struct Counts(BTreeMap<&'static str, u64>);

impl Counts {
    /// The counters of `registry` now.
    pub fn of(registry: &MetricsRegistry) -> Counts {
        Counts(registry.counters().collect())
    }

    /// What was counted since `earlier`.
    pub fn since(mut self, earlier: &Counts) -> Counts {
        for (name, v) in &mut self.0 {
            *v = v.saturating_sub(earlier.get(name));
        }
        self
    }

    /// Adds the counters of another runtime.
    pub fn add(&mut self, other: &Counts) {
        for (name, v) in &other.0 {
            *self.0.entry(name).or_insert(0) += v;
        }
    }

    pub fn get(&self, name: &str) -> u64 {
        self.0.get(name).copied().unwrap_or(0)
    }

    /// One more line in `problems` if any layer counted a frame it could
    /// not decode.
    pub fn check_decode_errors(&self, problems: &mut Vec<String>) {
        let errors: u64 = [
            plwg_core::keys::DECODE_ERRORS,
            plwg_vsync::keys::DECODE_ERRORS,
            plwg_naming::keys::DECODE_ERRORS,
        ]
        .iter()
        .map(|key| self.get(key.name()))
        .sum();
        if errors > 0 {
            problems.push(format!("{errors} frames failed to decode"));
        }
    }
}

/// What only the net workload measures.
#[derive(Debug, Default, Clone, Copy)]
pub struct NetInputs {
    /// Median wall time of one sender `run_for(100 µs)` turn, µs.
    pub turn_wall_us_p50: f64,
    pub turns: u64,
    /// CPU time (user + system) of the process over the window, µs; 0 when
    /// `/proc/self/stat` could not be read.
    pub cpu_us: f64,
    pub op_p99_us: f64,
    pub op_max_us: f64,
}

/// Everything a traced window recorded.
pub struct LayerInputs<'a> {
    /// Spans of every thread of the run together.
    pub ledger: &'a Ledger,
    /// Self time of every layer on the thread that timed the window: what
    /// the window is reconciled against.
    pub main_self_ns: u64,
    /// Allocations in the window, by the layer they were charged to.
    pub allocs: [u64; LAYERS],
    pub ops: u64,
    /// 95th percentile of the window's send → upcall latencies, µs.
    pub op_p95_us: f64,
    /// Latency samples behind the percentiles.
    pub samples: u64,
    /// Split-and-heal cycles (0 on the data workloads).
    pub cycles: u64,
    pub chunks: u64,
    pub window_s: f64,
    pub counts: &'a Counts,
    pub dir_lookups: u64,
    pub wire: &'a WireCost,
    pub net: Option<NetInputs>,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Every per-layer metric except `harness.trace_overhead_share`, which
/// needs the untraced reference run and is added by the caller.
pub fn metrics(i: &LayerInputs<'_>) -> BTreeMap<&'static str, f64> {
    let ops = i.ops as f64;
    let kops = ops / 1000.0;
    let cycles = i.cycles as f64;
    let window_ns = i.window_s * 1e9;
    let self_ns = |l: Layer| i.ledger.self_ns[l as usize] as f64;
    let allocs = |l: Layer| i.allocs[l as usize] as f64;
    let count = |key: plwg_sim::CounterKey| i.counts.get(key.name()) as f64;
    use plwg_core::keys as lwg;
    use plwg_naming::keys as ns;
    use plwg_vsync::keys as hwg;

    let mut m = BTreeMap::new();
    // core: the LWG service.
    m.insert("core.self_ns_per_op", ratio(self_ns(Layer::Core), ops));
    m.insert("core.allocs_per_op", ratio(allocs(Layer::Core), ops));
    m.insert("core.hwg_sends_per_op", ratio(count(hwg::DATA_SENT), ops));
    m.insert(
        "core.batch_occupancy_mean",
        ratio(count(lwg::DATA_SENT), count(hwg::DATA_SENT)),
    );
    m.insert("core.filtered_per_op", ratio(count(lwg::FILTERED), ops));
    m.insert("core.dir_lookups_per_op", ratio(i.dir_lookups as f64, ops));
    m.insert(
        "core.self_ms_per_cycle",
        ratio(self_ns(Layer::Core) / 1e6, cycles),
    );
    m.insert(
        "core.lwg_flushes_per_cycle",
        ratio(count(lwg::FLUSHES), cycles),
    );
    m.insert(
        "core.merges_per_healed_lwg",
        if i.cycles > 0 {
            ratio(count(lwg::VIEWS_MERGED), ops)
        } else {
            0.0
        },
    );
    // vsync: the HWG substrate.
    m.insert("vsync.self_ns_per_op", ratio(self_ns(Layer::Vsync), ops));
    m.insert("vsync.allocs_per_op", ratio(allocs(Layer::Vsync), ops));
    m.insert(
        "vsync.transport_sends_per_op",
        ratio(i.ledger.sends_from[Layer::Vsync as usize] as f64, ops),
    );
    m.insert("vsync.nacks_per_kop", ratio(count(hwg::NACKS_SENT), kops));
    m.insert(
        "vsync.resends_per_kop",
        ratio(count(hwg::NACK_RESENDS), kops),
    );
    m.insert("vsync.dups_per_kop", ratio(count(hwg::DATA_DUP), kops));
    m.insert(
        "vsync.self_ms_per_cycle",
        ratio(self_ns(Layer::Vsync) / 1e6, cycles),
    );
    m.insert(
        "vsync.flushes_per_cycle",
        ratio(count(hwg::FLUSHES), cycles),
    );
    // naming: the name servers.
    let server_msgs = i.ledger.server_msgs as f64;
    m.insert(
        "naming.server_self_ms_per_cycle",
        ratio(self_ns(Layer::Naming) / 1e6, cycles),
    );
    m.insert("naming.server_msgs_per_cycle", ratio(server_msgs, cycles));
    m.insert(
        "naming.reconciliations_per_cycle",
        ratio(count(ns::RECONCILIATIONS), cycles),
    );
    m.insert(
        "naming.callbacks_per_cycle",
        ratio(count(ns::CALLBACKS), cycles),
    );
    m.insert(
        "naming.gossip_per_cycle",
        ratio(count(ns::GOSSIP_SENT), cycles),
    );
    m.insert("naming.server_msgs_per_kop", ratio(server_msgs, kops));
    // wire: the frame codec, by replay.
    let frames = i.ledger.sends as f64;
    let encodes = i.ledger.encodes as f64;
    m.insert("wire.frames_per_op", ratio(frames, ops));
    m.insert("wire.encode_ns_per_frame", i.wire.encode_ns_per_frame);
    m.insert("wire.decode_ns_per_frame", i.wire.decode_ns_per_frame);
    m.insert(
        "wire.decode_allocs_per_frame",
        i.wire.decode_allocs_per_frame,
    );
    m.insert(
        "wire.est_share",
        ratio(
            encodes * i.wire.encode_ns_per_frame + frames * i.wire.decode_ns_per_frame,
            window_ns,
        ),
    );
    // sim: the event-queue transport (absent on the net workload).
    let on_sim = i.net.is_none();
    let events = i.ledger.callbacks as f64;
    let sim = |v: f64| if on_sim { v } else { 0.0 };
    m.insert(
        "sim.self_ns_per_event",
        sim(ratio(self_ns(Layer::Sim), events)),
    );
    m.insert("sim.events_per_op", sim(ratio(events, ops)));
    m.insert(
        "sim.sends_per_op",
        ratio(count(plwg_sim::keys::NET_SENT), ops),
    );
    // net: the UDP reactor (absent on the sim workloads).
    let net = i.net.unwrap_or_default();
    let calls = i.ledger.spans[Layer::Net as usize] - i.ledger.roots[Layer::Net as usize];
    let call_ns =
        i.ledger.self_ns[Layer::Net as usize] - i.ledger.root_self_ns[Layer::Net as usize];
    let dgrams = count(plwg_net::keys::NETIO_DGRAM_TX);
    m.insert("net.turn_wall_us_p50", net.turn_wall_us_p50);
    m.insert("net.turns_per_s", ratio(net.turns as f64, i.window_s));
    m.insert("net.send_self_ns", ratio(call_ns as f64, calls as f64));
    m.insert("net.dgrams_per_op", ratio(dgrams, ops));
    m.insert(
        "net.bytes_per_dgram",
        ratio(count(plwg_net::keys::NETIO_BYTES_TX), dgrams),
    );
    m.insert(
        "net.queue_dropped",
        count(plwg_net::keys::NETIO_QUEUE_DROPPED),
    );
    let total = i.ledger.total_self_ns() as f64;
    m.insert(
        "net.callback_share",
        if on_sim {
            0.0
        } else {
            ratio(total - self_ns(Layer::Net), total)
        },
    );
    m.insert("net.cpu_us_per_op", ratio(net.cpu_us, ops));
    m.insert("net.op_p99_us", net.op_p99_us);
    m.insert("net.op_max_us", net.op_max_us);
    // harness: the benchmark itself.
    m.insert(
        "harness.ledger_gap_share",
        ratio(window_ns - i.main_self_ns as f64, window_ns),
    );
    m.insert("harness.op_p95_us", i.op_p95_us);
    m.insert("harness.samples", i.samples as f64);
    m.insert("harness.chunks", i.chunks as f64);
    m.insert("harness.window_s", i.window_s);
    m
}
