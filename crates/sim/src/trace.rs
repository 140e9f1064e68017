//! Structured, typed event trace for debugging, assertions and timelines.
//!
//! Every protocol layer defines an enum of its transitions (the simulator's
//! own is [`SimEvent`]; the HWG, naming and LWG layers define theirs) and
//! implements [`ProtocolEvent`] for it. The [`Trace`] sink records those
//! events as flattened [`TraceEvent`] records carrying the canonical kind
//! string, the human-readable detail and the causal references
//! ([`EventRefs`]) that let `plwg-obs` stitch a cross-node timeline.
//!
//! Tracing is off by default: [`Trace::record`] takes a closure producing
//! the event, and the closure is never invoked when tracing is disabled, so
//! benchmark runs pay almost nothing for it. Tests enable it to assert on
//! protocol behaviour ("exactly one flush ran", "the merge happened after
//! the heal").

use crate::node::NodeId;
use crate::time::SimTime;
use std::fmt;

/// Which protocol layer an event belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TraceLayer {
    /// The simulated world itself (crashes, partitions, heals).
    World,
    /// The heavy-weight group substrate (membership, flush, vsync merge).
    Hwg,
    /// The replicated naming service.
    Naming,
    /// The light-weight group service.
    Lwg,
    /// The real-socket transport runtime (`plwg-net`).
    Net,
}

impl TraceLayer {
    /// The inverse of [`TraceLayer`]'s `Display`: parses the canonical
    /// layer name. Used by the multi-process harness to reconstruct
    /// [`TraceEvent`]s that crossed a process boundary as text.
    pub fn from_name(name: &str) -> Option<TraceLayer> {
        match name {
            "world" => Some(TraceLayer::World),
            "hwg" => Some(TraceLayer::Hwg),
            "naming" => Some(TraceLayer::Naming),
            "lwg" => Some(TraceLayer::Lwg),
            "net" => Some(TraceLayer::Net),
            _ => None,
        }
    }
}

impl fmt::Display for TraceLayer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TraceLayer::World => "world",
            TraceLayer::Hwg => "hwg",
            TraceLayer::Naming => "naming",
            TraceLayer::Lwg => "lwg",
            TraceLayer::Net => "net",
        };
        f.write_str(s)
    }
}

/// Causal references attached to a trace event.
///
/// Identifiers are layer-agnostic numeric keys so the simulator core does
/// not depend on the protocol crates: a view id `n3#7` becomes `(3, 7)`, a
/// flush id `n3@9` becomes `(3, 9)`, and group ids use their raw `u64`.
/// Two events that mention the same key are causally related; an event
/// whose [`EventRefs::parents`] contains a view another event installed is
/// a causal *successor* of that installation. The timeline builder in
/// `plwg-obs` uses exactly these keys.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EventRefs {
    /// The light-weight group concerned, if any (raw `LwgId`).
    pub lwg: Option<u64>,
    /// The heavy-weight group concerned, if any (raw `HwgId`).
    pub hwg: Option<u64>,
    /// The view this event installs or concerns: `(coordinator, seq)`.
    pub view: Option<(u32, u64)>,
    /// Predecessor views, for events that merge or succeed earlier views.
    pub parents: Vec<(u32, u64)>,
    /// The flush round this event belongs to: `(initiator, nonce)`.
    pub flush: Option<(u32, u64)>,
}

impl EventRefs {
    /// True when the event carries no references at all.
    pub fn is_empty(&self) -> bool {
        self.lwg.is_none()
            && self.hwg.is_none()
            && self.view.is_none()
            && self.parents.is_empty()
            && self.flush.is_none()
    }
}

/// A typed protocol event: one transition of one layer's state machine.
///
/// Implementors are per-layer enums (`SimEvent`, the HWG trace events, the
/// naming events, the LWG protocol events). The trait flattens them into
/// the uniform [`TraceEvent`] record the sink stores.
pub trait ProtocolEvent {
    /// The layer that emitted the event.
    fn layer(&self) -> TraceLayer;

    /// The canonical machine-matchable kind, e.g. `"hwg.flush.start"`.
    ///
    /// Each variant maps to exactly one `'static` name; tests match on it
    /// and the golden trace snapshots are sequences of these names.
    fn kind(&self) -> &'static str;

    /// Causal references for timeline stitching (empty by default).
    fn refs(&self) -> EventRefs {
        EventRefs::default()
    }

    /// Free-form human-readable detail.
    fn detail(&self) -> String;
}

/// One flattened trace record.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// When it happened.
    pub time: SimTime,
    /// Which node emitted it (`None` for world-level events such as
    /// partition changes).
    pub node: Option<NodeId>,
    /// The layer that emitted it.
    pub layer: TraceLayer,
    /// The canonical kind, e.g. `"hwg.flush.start"`.
    pub kind: &'static str,
    /// Free-form human-readable detail.
    pub detail: String,
    /// Causal references (view / flush / group ids) for timeline stitching.
    pub refs: EventRefs,
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.node {
            Some(n) => write!(f, "[{} {}] {}: {}", self.time, n, self.kind, self.detail),
            None => write!(f, "[{} world] {}: {}", self.time, self.kind, self.detail),
        }
    }
}

/// The simulator's own protocol events: world-level fault injections.
#[derive(Debug, Clone)]
pub enum SimEvent {
    /// A node crashed.
    Crash(NodeId),
    /// A crashed node restarted.
    Restart(NodeId),
    /// The network split into the given components.
    Split(Vec<Vec<NodeId>>),
    /// All partitions healed.
    Heal,
}

impl ProtocolEvent for SimEvent {
    fn layer(&self) -> TraceLayer {
        TraceLayer::World
    }

    fn kind(&self) -> &'static str {
        match self {
            SimEvent::Crash(_) => "world.crash",
            SimEvent::Restart(_) => "world.restart",
            SimEvent::Split(_) => "world.split",
            SimEvent::Heal => "world.heal",
        }
    }

    fn detail(&self) -> String {
        match self {
            SimEvent::Crash(n) | SimEvent::Restart(n) => format!("{n}"),
            SimEvent::Split(groups) => format!("{groups:?}"),
            SimEvent::Heal => String::new(),
        }
    }
}

/// The world's trace sink.
#[derive(Debug, Default)]
pub struct Trace {
    enabled: bool,
    events: Vec<TraceEvent>,
}

impl Trace {
    /// Creates a sink; pass `enabled = false` for benchmark runs.
    pub fn new(enabled: bool) -> Self {
        Trace {
            enabled,
            events: Vec::new(),
        }
    }

    /// Whether events are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records a typed event. The closure producing the event is only
    /// evaluated when tracing is enabled, so disabled runs pay one branch.
    pub fn record<E: ProtocolEvent>(
        &mut self,
        time: SimTime,
        node: Option<NodeId>,
        event: impl FnOnce() -> E,
    ) {
        if self.enabled {
            let e = event();
            self.events.push(TraceEvent {
                time,
                node,
                layer: e.layer(),
                kind: e.kind(),
                detail: e.detail(),
                refs: e.refs(),
            });
        }
    }

    /// All recorded events, in emission order. The simulator is
    /// single-threaded, so this order is a causality-consistent total
    /// order across all nodes.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Events whose kind matches `kind` exactly.
    pub fn of_kind<'a>(&'a self, kind: &'a str) -> impl Iterator<Item = &'a TraceEvent> {
        self.events.iter().filter(move |e| e.kind == kind)
    }

    /// Events emitted by one layer.
    pub fn of_layer(&self, layer: TraceLayer) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().filter(move |e| e.layer == layer)
    }

    /// Counts events of a kind.
    pub fn count(&self, kind: &str) -> usize {
        self.of_kind(kind).count()
    }

    /// The first event of a kind, if any.
    pub fn first(&self, kind: &str) -> Option<&TraceEvent> {
        self.events.iter().find(|e| e.kind == kind)
    }

    /// The last event of a kind, if any.
    pub fn last(&self, kind: &str) -> Option<&TraceEvent> {
        self.events.iter().rev().find(|e| e.kind == kind)
    }

    /// Drops all recorded events (e.g. after a warm-up phase).
    pub fn clear(&mut self) {
        self.events.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct TestEvent {
        kind: &'static str,
        detail: String,
    }

    impl ProtocolEvent for TestEvent {
        fn layer(&self) -> TraceLayer {
            TraceLayer::World
        }
        fn kind(&self) -> &'static str {
            self.kind
        }
        fn detail(&self) -> String {
            self.detail.clone()
        }
    }

    fn ev(kind: &'static str, detail: &str) -> TestEvent {
        TestEvent {
            kind,
            detail: detail.to_owned(),
        }
    }

    #[test]
    fn disabled_trace_records_nothing_and_skips_closure() {
        let mut t = Trace::new(false);
        t.record::<TestEvent>(SimTime::ZERO, None, || {
            panic!("event closure must not run when disabled")
        });
        assert!(t.events().is_empty());
    }

    #[test]
    fn enabled_trace_records_in_order() {
        let mut t = Trace::new(true);
        t.record(SimTime::from_micros(1), Some(NodeId(0)), || ev("a", "one"));
        t.record(SimTime::from_micros(2), None, || ev("b", "two"));
        t.record(SimTime::from_micros(3), Some(NodeId(1)), || {
            ev("a", "three")
        });
        assert_eq!(t.count("a"), 2);
        assert_eq!(t.first("a").map(|e| e.detail.as_str()), Some("one"));
        assert_eq!(t.last("a").map(|e| e.detail.as_str()), Some("three"));
        assert_eq!(t.count("missing"), 0);
        assert_eq!(t.of_layer(TraceLayer::World).count(), 3);
    }

    #[test]
    fn display_formats() {
        let e = TraceEvent {
            time: SimTime::from_micros(1_000_000),
            node: Some(NodeId(2)),
            layer: TraceLayer::Hwg,
            kind: "k",
            detail: "d".into(),
            refs: EventRefs::default(),
        };
        assert_eq!(e.to_string(), "[1.000000s n2] k: d");
    }

    #[test]
    fn sim_event_kinds_and_details() {
        let crash = SimEvent::Crash(NodeId(3));
        assert_eq!(crash.kind(), "world.crash");
        assert_eq!(crash.detail(), "n3");
        assert!(crash.refs().is_empty());
        let split = SimEvent::Split(vec![vec![NodeId(0)], vec![NodeId(1)]]);
        assert_eq!(split.kind(), "world.split");
        assert_eq!(SimEvent::Heal.detail(), "");
    }

    #[test]
    fn clear_empties() {
        let mut t = Trace::new(true);
        t.record(SimTime::ZERO, None, || ev("a", ""));
        t.clear();
        assert!(t.events().is_empty());
    }
}
