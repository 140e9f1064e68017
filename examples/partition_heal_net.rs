//! The paper's headline scenario **over real sockets**: four OS processes
//! (one name server, three application nodes) on loopback UDP, a
//! partition injected as a socket-level drop filter, and the §6 four-step
//! heal verified from the processes' merged trace events.
//!
//! This is the same protocol stack as `--example partition_heal` — same
//! membership, flush, naming and merge engines, byte-identical wire
//! frames — but nothing is simulated: real datagrams, real loss, real
//! wall-clock timers, real process isolation. The only seam is
//! [`plwg::sim::Transport`].
//!
//! Orchestration: the parent re-execs *itself* with `--child` for each
//! process (never a nested `cargo run`, which would deadlock on the build
//! lock), wires the sockets via the stdio address-book protocol in
//! `plwg::net::harness`, waits on `MARK` milestones, injects the
//! partition with `Block`/`Unblock` control datagrams, and finally merges
//! every child's `EVT` dump into one corpus to assert on.
//!
//! Run with: `cargo run --example partition_heal_net`

use plwg::net::harness::{self, ChildProc, Controller};
use plwg::net::{NetOptions, NetRuntime};
use plwg::prelude::*;
use std::process::Command;

/// The light-weight group everyone joins.
const GROUP: LwgId = LwgId(7);
/// The name-server process's node id.
const NS: NodeId = NodeId(0);
/// The application nodes, one process each.
const APPS: [NodeId; 3] = [NodeId(2), NodeId(3), NodeId(4)];

fn main() {
    let args: Vec<String> = std::env::args().collect();
    match args.get(1).map(String::as_str) {
        Some("--child") => {
            let id: u32 = args[2].parse().expect("node id");
            if NodeId(id) == NS {
                run_name_server();
            } else {
                run_app(NodeId(id));
            }
        }
        _ => orchestrate(),
    }
}

/// Binds a runtime, publishes its port, and wires in the address book.
fn child_runtime(me: NodeId) -> NetRuntime {
    let mut rt = NetRuntime::bind(me, "127.0.0.1:0", NetOptions::default()).expect("bind");
    rt.enable_trace();
    harness::announce(rt.local_addr().expect("local addr"));
    for (node, addr) in harness::read_book().expect("address book") {
        rt.add_peer(node, addr);
    }
    rt
}

/// Name-server child: serves mappings until every application peer has
/// come up and then said bye (or 120 s pass).
fn run_name_server() {
    let mut rt = child_runtime(NS);
    let mut server = NameServer::new(NS, vec![], NamingConfig::default());
    let mut seen_all = false;
    rt.run_until(&mut server, SimDuration::from_secs(120), |_, rt| {
        seen_all |= rt.peers_up() == APPS.len();
        seen_all && rt.peers_up() == 0
    });
    harness::emit_events(rt.trace_ref().events());
}

/// Application child: join the group, observe the split, observe the
/// merge, report each milestone to the parent.
fn run_app(me: NodeId) {
    let mut rt = child_runtime(me);
    let mut node: LwgNode = LwgService::builder(me)
        .servers([NS])
        .config(LwgConfig::default())
        .build_node()
        .expect("valid LWG config");
    // First turn fires on_start (timers armed), then join.
    rt.run_for(&mut node, SimDuration::from_millis(20));
    node.service().join(&mut rt, GROUP);

    let view_len = |p: &mut dyn Process| -> usize {
        p.as_any_mut()
            .downcast_mut::<LwgNode>()
            .expect("hosts an LwgNode")
            .current_view(GROUP)
            .map_or(0, |v| v.len())
    };

    // Phase 1: the full view forms across the three processes.
    assert!(
        rt.run_until(&mut node, SimDuration::from_secs(60), |p, _| view_len(p)
            == APPS.len()),
        "{me}: initial view never reached {} members",
        APPS.len()
    );
    harness::mark("joined");

    // Phase 2: the parent cuts the network; this node's view shrinks to
    // its own side of the partition.
    assert!(
        rt.run_until(&mut node, SimDuration::from_secs(60), |p, _| view_len(p)
            < APPS.len()
            && view_len(p) > 0),
        "{me}: view never shrank after the split"
    );
    harness::mark("split");

    // Phase 3: the parent heals; the four-step procedure reunites the
    // concurrent views into one.
    assert!(
        rt.run_until(&mut node, SimDuration::from_secs(120), |p, _| view_len(p)
            == APPS.len()),
        "{me}: views never merged after the heal"
    );
    harness::mark("merged");

    // Grace period so slower peers can finish their own merge, then a
    // polite goodbye and the evidence dump.
    rt.run_for(&mut node, SimDuration::from_secs(2));
    rt.shutdown();
    harness::emit_events(rt.trace_ref().events());
}

fn orchestrate() {
    let exe = std::env::current_exe().expect("own path");
    let spawn = |id: NodeId| -> ChildProc {
        ChildProc::spawn(id, Command::new(&exe).arg("--child").arg(id.0.to_string()))
            .expect("spawn child")
    };
    let mut children = vec![spawn(NS)];
    children.extend(APPS.iter().map(|&a| spawn(a)));
    harness::share_books(&mut children).expect("share address book");
    println!("spawned {} processes on loopback", children.len());
    for c in &children {
        println!("  {} at {}", c.node, c.addr);
    }

    // Wait for the full view everywhere, then partition {ns, 2, 3} | {4}.
    for c in children.iter_mut().skip(1) {
        c.wait_mark("joined").expect("join milestone");
    }
    println!("group formed across 3 processes — splitting {{0,2,3}} | {{4}}");
    let ctl = Controller::new().expect("controller socket");
    let (majority, minority) = (&[&children[0], &children[1], &children[2]], &[&children[3]]);
    ctl.split(majority, minority).expect("install drop filters");
    for c in children.iter_mut().skip(1) {
        c.wait_mark("split").expect("split milestone");
    }

    println!("both sides installed concurrent views — healing");
    let (majority, minority) = (&[&children[0], &children[1], &children[2]], &[&children[3]]);
    ctl.heal(majority, minority).expect("lift drop filters");
    for c in children.iter_mut().skip(1) {
        c.wait_mark("merged").expect("merge milestone");
    }
    println!("all processes report the merged view — collecting evidence");

    let mut corpus = Vec::new();
    for c in children.drain(..) {
        let node = c.node;
        let (status, events) = c.finish().expect("child evidence");
        assert!(status.success(), "{node} exited with {status}");
        println!("  {} contributed {} trace events", node, events.len());
        corpus.extend(events);
    }

    // The §6 pipeline, reconstructed from four processes' evidence.
    let merges = corpus.iter().filter(|e| e.kind == "lwg.merge").count();
    assert_eq!(merges, 1, "exactly one MERGE-VIEWS for one heal");
    assert!(
        corpus.iter().any(|e| e.kind == "net.peer.down"),
        "the real failure detector must have noticed the partition"
    );
    assert!(
        corpus.iter().any(|e| e.kind == "net.peer.up"),
        "peers must have reconnected after the heal"
    );
    let blocks = corpus.iter().filter(|e| e.kind == "net.ctrl.block").count();
    let unblocks = corpus
        .iter()
        .filter(|e| e.kind == "net.ctrl.unblock")
        .count();
    assert_eq!(blocks, 4, "each process acknowledged the drop filter");
    assert_eq!(blocks, unblocks, "every filter was lifted");

    // Merge-sort the four processes' evidence by each runtime's
    // micros-since-start stamp (the processes start together, so this is
    // a readable — if approximate — cross-process order).
    corpus.sort_by_key(|e| e.time);
    let timeline = plwg::obs::Timeline::from_events(&corpus);
    println!("\nheal procedure, stitched across processes:");
    for entry in timeline.heal_procedure() {
        println!("  {entry}");
    }
    println!("\npartition healed over real sockets: exactly one lwg.merge — ok");
}
