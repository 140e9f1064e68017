//! Randomised test of the virtual-synchrony invariant: across randomly
//! timed crashes, randomly sized bursts, and random loss, processes that
//! install the same pair of consecutive views deliver exactly the same
//! messages in between — including each member's message sent on the
//! `Stop` upcall, which the flush repairs by asking its sender. Cases come from a seeded in-tree RNG so every run
//! is deterministic.

use plwg_sim::{
    Frame, NetConfig, NodeId, Payload, Process, SimDuration, SimRng, SimTime, TimerToken,
    Transport, World, WorldConfig,
};
use plwg_vsync::{HwgId, ViewId, VsEvent, VsyncConfig, VsyncStack};
use std::any::Any;

/// Test payload: a bare 8-byte little-endian integer frame.
fn payload(v: u64) -> Payload {
    Frame::from_u64(v)
}

const G: HwgId = HwgId(1);
const CASES: u64 = 24;

/// Records, per installed view, the messages delivered while it was
/// current. Like the LWG layer's ALL-VIEWS advertisement, it multicasts on
/// every `Stop` upcall before confirming with `stop_ok`, so its message
/// races the other members' flush digests.
struct Harness {
    stack: VsyncStack,
    /// (view id, messages delivered in that view).
    epochs: Vec<(ViewId, Vec<(NodeId, u64)>)>,
    /// Values of the messages sent on `Stop` (distinct from the bursts').
    next_stop_value: u64,
}

impl Harness {
    fn new(me: NodeId) -> Self {
        Harness {
            stack: VsyncStack::new(
                me,
                VsyncConfig {
                    auto_stop_ok: false,
                    ..VsyncConfig::default()
                },
            ),
            epochs: Vec::new(),
            next_stop_value: 1_000_000 * (u64::from(me.0) + 1),
        }
    }
    fn drain(&mut self, ctx: &mut dyn Transport) {
        for ev in self.stack.drain_events() {
            match ev {
                VsEvent::View { view, .. } => self.epochs.push((view.id, Vec::new())),
                VsEvent::Data { src, data, .. } => {
                    let v = data.try_u64().expect("u64");
                    if let Some((_, msgs)) = self.epochs.last_mut() {
                        msgs.push((src, v));
                    }
                }
                VsEvent::Stop { hwg } => {
                    self.next_stop_value += 1;
                    self.stack.send(ctx, hwg, payload(self.next_stop_value));
                    self.stack.stop_ok(ctx, hwg);
                    self.drain(ctx);
                }
                VsEvent::Left { .. } => {}
            }
        }
    }
}

impl Process for Harness {
    fn on_start(&mut self, ctx: &mut dyn Transport) {
        self.stack.start(ctx);
    }
    fn on_message(&mut self, ctx: &mut dyn Transport, from: NodeId, msg: Payload) {
        if self.stack.on_message(ctx, from, &msg) {
            self.drain(ctx);
        }
    }
    fn on_timer(&mut self, ctx: &mut dyn Transport, token: TimerToken) {
        if self.stack.on_timer(ctx, token) {
            self.drain(ctx);
        }
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Random crash time, random traffic, optional loss: for every pair of
/// survivors and every pair of *consecutive* views both installed, the
/// delivered message sets in between are identical.
#[test]
fn same_views_same_messages() {
    for case in 0..CASES {
        let mut rng = SimRng::from_seed(0x5A5A_0000 ^ case);
        let seed = rng.range(0, 10_000);
        let crash_ms = rng.range(500, 4_000);
        let bursts = rng.range(1, 12);
        let loss_pct = rng.range(0, 5) as u32;
        let mut w = World::new(WorldConfig {
            seed,
            net: NetConfig {
                loss: f64::from(loss_pct) / 100.0,
                ..NetConfig::default()
            },
            ..WorldConfig::default()
        });
        let nodes: Vec<NodeId> = (0..4)
            .map(|i| w.add_node(Box::new(Harness::new(NodeId(i)))))
            .collect();
        w.invoke(nodes[0], |h: &mut Harness, ctx| h.stack.create(ctx, G));
        for &n in &nodes[1..] {
            w.invoke(n, move |h: &mut Harness, ctx| h.stack.join(ctx, G));
        }
        w.run_for(SimDuration::from_secs(5));
        // Traffic from two senders; node 3 crashes at a random moment.
        for b in 0..bursts {
            let t = SimTime::from_micros(5_000_000 + b * 300_000);
            for (si, &sender) in nodes[..2].iter().enumerate() {
                let base = (si as u64) * 1_000 + b * 10;
                w.invoke_at(t, sender, move |h: &mut Harness, ctx| {
                    for k in 0..5u64 {
                        h.stack.send(ctx, G, payload(base + k));
                    }
                });
            }
        }
        w.crash_at(SimTime::from_micros(5_000_000 + crash_ms * 1_000), nodes[3]);
        w.run_for(SimDuration::from_secs(15));

        // Collect per-node epochs and compare common consecutive pairs.
        type Epochs = Vec<(ViewId, Vec<(NodeId, u64)>)>;
        let all: Vec<Epochs> = nodes[..3]
            .iter()
            .map(|&n| w.inspect(n, |h: &Harness| h.epochs.clone()))
            .collect();
        for i in 0..3 {
            for j in (i + 1)..3 {
                let (a, b) = (&all[i], &all[j]);
                for wa in a.windows(2) {
                    for wb in b.windows(2) {
                        if wa[0].0 == wb[0].0 && wa[1].0 == wb[1].0 {
                            let mut ma = wa[0].1.clone();
                            let mut mb = wb[0].1.clone();
                            ma.sort_unstable();
                            mb.sort_unstable();
                            assert_eq!(
                                ma, mb,
                                "case {case}: nodes {i} and {j} delivered \
                                 different sets between views {} and {}",
                                wa[0].0, wa[1].0
                            );
                        }
                    }
                }
            }
        }
    }
}
