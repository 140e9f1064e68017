//! Using the heavy-weight group layer directly — for applications that
//! want plain partitionable virtual synchrony without the light-weight
//! multiplexing on top.
//!
//! The stack is a passive component: the node that owns it is a
//! [`Process`] that forwards messages and timers and drains the upcalls.
//!
//! Run with: `cargo run --example raw_vsync`

use plwg::prelude::*;
use plwg::sim::{TimerToken, Transport};
use plwg::vsync::HwgId;

const GROUP: HwgId = HwgId(42);

/// A chat node: the stack plus the upcalls it has made so far.
struct ChatNode {
    stack: VsyncStack,
    events: Vec<HwgEvent>,
}

fn chat_node(me: NodeId) -> Box<ChatNode> {
    Box::new(ChatNode {
        stack: VsyncStack::new(me, HwgConfig::default()),
        events: Vec::new(),
    })
}

impl Process for ChatNode {
    fn on_start(&mut self, ctx: &mut dyn Transport) {
        self.stack.start(ctx);
    }
    fn on_message(&mut self, ctx: &mut dyn Transport, from: NodeId, msg: Payload) {
        if self.stack.on_message(ctx, from, &msg) {
            self.events.extend(self.stack.drain_events());
        }
    }
    fn on_timer(&mut self, ctx: &mut dyn Transport, token: TimerToken) {
        if self.stack.on_timer(ctx, token) {
            self.events.extend(self.stack.drain_events());
        }
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Renders the recorded upcalls as chat-log lines.
fn render(events: &[HwgEvent]) -> Vec<String> {
    events
        .iter()
        .filter_map(|ev| match ev {
            HwgEvent::View { view, .. } => Some(format!("view {view}")),
            HwgEvent::Data { src, data, .. } => {
                let text = std::str::from_utf8(data.bytes()).expect("utf-8 payload");
                Some(format!("{src}: {text}"))
            }
            HwgEvent::Stop { .. } | HwgEvent::Left { .. } => None,
        })
        .collect()
}

/// A chat line as a UTF-8 payload frame.
fn text(s: &str) -> Frame {
    Frame::from_vec(s.as_bytes().to_vec())
}

fn main() {
    let mut world = World::new(WorldConfig::default());
    let nodes: Vec<NodeId> = (0..4)
        .map(|i| world.add_node(chat_node(NodeId(i))))
        .collect();

    // First node creates the group; the rest rendezvous via probes.
    world.invoke(nodes[0], |c: &mut ChatNode, ctx| c.stack.create(ctx, GROUP));
    for (i, &n) in nodes[1..].iter().enumerate() {
        world.invoke_at(
            SimTime::from_secs(1 + i as u64),
            n,
            |c: &mut ChatNode, ctx| c.stack.join(ctx, GROUP),
        );
    }
    world.run_until(SimTime::from_secs(8));
    world.invoke(nodes[1], |c: &mut ChatNode, ctx| {
        c.stack
            .send(ctx, GROUP, text("hello, virtually synchronous world"));
    });
    world.run_until(SimTime::from_secs(9));

    // Partition 2/2, chat within each side, heal, and watch the merge.
    world.split_at(
        SimTime::from_secs(10),
        vec![vec![nodes[0], nodes[1]], vec![nodes[2], nodes[3]]],
    );
    world.run_until(SimTime::from_secs(16));
    world.invoke(nodes[0], |c: &mut ChatNode, ctx| {
        c.stack.send(ctx, GROUP, text("anyone there?"));
    });
    world.invoke(nodes[3], |c: &mut ChatNode, ctx| {
        c.stack.send(ctx, GROUP, text("our side is fine"));
    });
    world.heal_at(SimTime::from_secs(18));
    world.run_until(SimTime::from_secs(30));

    for &n in &nodes {
        println!("--- {n} ---");
        let log = world.inspect(n, |c: &ChatNode| render(&c.events));
        for line in log {
            println!("  {line}");
        }
        let final_view = world.inspect(n, |c: &ChatNode| {
            c.stack.view_of(GROUP).cloned().expect("view")
        });
        assert_eq!(final_view.len(), 4, "merged back to 4: {final_view}");
    }
    println!("ok");
}
