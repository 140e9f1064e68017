//! Spans at the layer seams, recorded from outside the stack.
//!
//! Every span is opened by benchmark code around a call into a layer:
//! [`Spanned`] (a delegating [`HwgSubstrate`]) cuts core | vsync,
//! [`SpannedTransport`] (wrapping the `&mut dyn Transport` handed down)
//! cuts core, vsync, naming | sim, net, and [`SpannedProcess`] around a
//! `NameServer` gives naming. A layer's self time is its spans' duration
//! minus the part their child spans cover; the counting allocator charges
//! an allocation to the innermost open span's layer.
//!
//! The tracer is thread-local and off unless [`start`] was called on the
//! thread, so the untraced run pays one thread-local read per callback.
#![forbid(unsafe_code)]

use crate::alloc;
use crate::json::Value;
use plwg_hwg::{GroupStatus, HwgConfig, HwgEvent, HwgId, HwgSubstrate, View};
use plwg_sim::{
    Frame, MetricsRegistry, NodeId, Payload, Process, SimDuration, SimTime, TimerToken, Trace,
    Transport,
};
use std::any::Any;
use std::cell::{Cell, RefCell};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

/// The layers a span can belong to. `wire` has no spans: its share is
/// estimated by replaying captured frames (see `wire_replay`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The benchmark itself: traffic generation, delivery checks.
    Harness = 0,
    /// `plwg-core`: the LWG service.
    Core,
    /// `plwg-vsync` behind the `HwgSubstrate` seam.
    Vsync,
    /// `plwg-naming`: the name servers.
    Naming,
    /// `plwg-sim`: the event-queue transport.
    Sim,
    /// `plwg-net`: the UDP reactor.
    Net,
}

/// Number of [`Layer`]s.
pub const LAYERS: usize = 6;

impl Layer {
    pub const ALL: [Layer; LAYERS] = [
        Layer::Harness,
        Layer::Core,
        Layer::Vsync,
        Layer::Naming,
        Layer::Sim,
        Layer::Net,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Harness => "harness",
            Layer::Core => "core",
            Layer::Vsync => "vsync",
            Layer::Naming => "naming",
            Layer::Sim => "sim",
            Layer::Net => "net",
        }
    }
}

/// Raw spans kept per thread for the trace file.
const RAW_SPANS: usize = 4096;
/// Frames kept per thread for the wire replay, one in every `FRAME_STRIDE`.
const FRAMES: usize = 2048;
const FRAME_STRIDE: u64 = 61;

/// One finished span as written to the trace file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RawSpan {
    pub id: u32,
    /// Id of the enclosing span, 0 for a root.
    pub parent: u32,
    pub layer: Layer,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The top-level callback (one frame delivered or one timer fired)
    /// this span ran under; spans of one callback share it.
    pub op: u64,
}

struct Open {
    id: u32,
    layer: Layer,
    start_ns: u64,
    child_ns: u64,
}

/// What one thread's tracer saw between [`start`] and [`finish`].
#[derive(Default)]
pub struct Ledger {
    /// Self time per layer, ns.
    pub self_ns: [u64; LAYERS],
    /// Spans closed per layer.
    pub spans: [u64; LAYERS],
    /// Root spans (no enclosing span) closed per layer, and their self time.
    pub roots: [u64; LAYERS],
    pub root_self_ns: [u64; LAYERS],
    /// Top-level callbacks entered.
    pub callbacks: u64,
    /// Messages delivered to a [`SpannedProcess`] (the name servers).
    pub server_msgs: u64,
    /// `Transport::send` calls seen by [`SpannedTransport`], and the same
    /// by the layer that made the call.
    pub sends: u64,
    pub sends_from: [u64; LAYERS],
    /// Sends whose frame buffer differs from the previous send's: one
    /// encode each (a multicast hands one buffer to every receiver).
    pub encodes: u64,
    /// A bounded, strided sample of the frames sent.
    pub frames: Vec<Frame>,
    /// The first [`RAW_SPANS`] spans closed.
    pub raw: Vec<RawSpan>,
}

impl Ledger {
    /// Adds another thread's ledger.
    pub fn merge(&mut self, other: Ledger) {
        for l in 0..LAYERS {
            self.self_ns[l] += other.self_ns[l];
            self.spans[l] += other.spans[l];
            self.roots[l] += other.roots[l];
            self.root_self_ns[l] += other.root_self_ns[l];
            self.sends_from[l] += other.sends_from[l];
        }
        self.callbacks += other.callbacks;
        self.server_msgs += other.server_msgs;
        self.sends += other.sends;
        self.encodes += other.encodes;
        self.frames.extend(other.frames);
        self.raw.extend(other.raw);
    }

    /// Self time of every layer together.
    pub fn total_self_ns(&self) -> u64 {
        self.self_ns.iter().sum()
    }

    /// Aggregates and the raw-span sample, for `trace_<workload>.json`.
    pub fn to_json(&self) -> Value {
        let layers = Layer::ALL.iter().map(|&l| {
            let v = Value::obj([
                ("self_ns", Value::Num(self.self_ns[l as usize] as f64)),
                ("spans", Value::Num(self.spans[l as usize] as f64)),
            ]);
            (l.name(), v)
        });
        let raw = self.raw.iter().map(|s| {
            Value::obj([
                ("id", Value::Num(f64::from(s.id))),
                ("parent", Value::Num(f64::from(s.parent))),
                ("layer", s.layer.name().into()),
                ("start_ns", Value::Num(s.start_ns as f64)),
                ("end_ns", Value::Num(s.end_ns as f64)),
                ("op", Value::Num(s.op as f64)),
            ])
        });
        Value::obj([
            ("layers", Value::obj(layers)),
            ("callbacks", Value::Num(self.callbacks as f64)),
            ("sends", Value::Num(self.sends as f64)),
            ("encodes", Value::Num(self.encodes as f64)),
            ("frames_sampled", Value::Num(self.frames.len() as f64)),
            ("spans", Value::Arr(raw.collect())),
        ])
    }
}

/// The span stack of one thread. Timestamps are passed in, so the
/// self-time arithmetic is testable without a clock.
struct Tracer {
    stack: Vec<Open>,
    next_id: u32,
    /// The last frame sent. Held (not just its address) so that its buffer
    /// cannot be freed and handed to the next frame while it is compared.
    last_frame: Option<Frame>,
    ledger: Ledger,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            stack: Vec::with_capacity(32),
            next_id: 1,
            last_frame: None,
            ledger: Ledger {
                frames: Vec::with_capacity(FRAMES),
                raw: Vec::with_capacity(RAW_SPANS),
                ..Ledger::default()
            },
        }
    }

    fn enter(&mut self, layer: Layer, now_ns: u64) {
        self.stack.push(Open {
            id: self.next_id,
            layer,
            start_ns: now_ns,
            child_ns: 0,
        });
        self.next_id = self.next_id.wrapping_add(1).max(1);
    }

    /// Closes the innermost span; returns the layer of the span that is
    /// innermost afterwards.
    fn exit(&mut self, now_ns: u64) -> Layer {
        let Some(open) = self.stack.pop() else {
            return Layer::Harness;
        };
        let duration = now_ns.saturating_sub(open.start_ns);
        let l = open.layer as usize;
        let self_ns = duration.saturating_sub(open.child_ns);
        self.ledger.self_ns[l] += self_ns;
        self.ledger.spans[l] += 1;
        if self.stack.is_empty() {
            self.ledger.roots[l] += 1;
            self.ledger.root_self_ns[l] += self_ns;
        }
        let parent = self.stack.last_mut().map(|p| {
            p.child_ns += duration;
            (p.id, p.layer)
        });
        if self.ledger.raw.len() < RAW_SPANS {
            self.ledger.raw.push(RawSpan {
                id: open.id,
                parent: parent.map_or(0, |(id, _)| id),
                layer: open.layer,
                start_ns: open.start_ns,
                end_ns: now_ns,
                op: self.ledger.callbacks,
            });
        }
        parent.map_or(Layer::Harness, |(_, layer)| layer)
    }

    fn sent(&mut self, frame: &Frame) {
        self.ledger.sends += 1;
        let from = self.stack.last().map_or(Layer::Harness, |open| open.layer);
        self.ledger.sends_from[from as usize] += 1;
        let same_buffer = self
            .last_frame
            .as_ref()
            .is_some_and(|last| Arc::ptr_eq(last.backing(), frame.backing()));
        if !same_buffer {
            self.last_frame = Some(frame.clone());
            self.ledger.encodes += 1;
            if self.ledger.encodes.is_multiple_of(FRAME_STRIDE) && self.ledger.frames.len() < FRAMES
            {
                self.ledger.frames.push(frame.clone());
            }
        }
    }
}

thread_local! {
    static ON: Cell<bool> = const { Cell::new(false) };
    static TRACER: RefCell<Option<(Instant, Tracer)>> = const { RefCell::new(None) };
}

/// Turns tracing on for this thread, with `epoch` as time zero (pass the
/// same epoch on every thread of a run so their spans share a time line).
pub fn start(epoch: Instant) {
    TRACER.with(|t| *t.borrow_mut() = Some((epoch, Tracer::new())));
    ON.with(|on| on.set(true));
}

/// Turns tracing off for this thread and hands back what it recorded.
pub fn finish() -> Ledger {
    ON.with(|on| on.set(false));
    alloc::set_layer(Layer::Harness as usize);
    TRACER
        .with(|t| t.borrow_mut().take())
        .map(|(_, tracer)| tracer.ledger)
        .unwrap_or_default()
}

/// Whether this thread is tracing.
pub fn enabled() -> bool {
    ON.with(Cell::get)
}

fn with_tracer(f: impl FnOnce(&mut Tracer, u64) -> Layer) {
    TRACER.with(|t| {
        if let Some((epoch, tracer)) = t.borrow_mut().as_mut() {
            let now_ns = epoch.elapsed().as_nanos() as u64;
            let layer = f(tracer, now_ns);
            alloc::set_layer(layer as usize);
        }
    });
}

/// Closes its span when dropped.
#[must_use = "the span ends when the guard is dropped"]
pub struct SpanGuard(bool);

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.0 {
            with_tracer(|t, now| t.exit(now));
        }
    }
}

/// Opens a span of `layer` on this thread, after `note` has counted what
/// the span is for (a no-op guard when tracing is off).
fn open(layer: Layer, note: impl FnOnce(&mut Tracer)) -> SpanGuard {
    if !enabled() {
        return SpanGuard(false);
    }
    with_tracer(|t, now| {
        note(t);
        t.enter(layer, now);
        layer
    });
    SpanGuard(true)
}

/// Opens a span of `layer` on this thread.
pub fn span(layer: Layer) -> SpanGuard {
    open(layer, |_| {})
}

/// Opens the span of a top-level callback (a frame delivered or a timer
/// fired): like [`span`], and starts a new op id.
pub fn callback(layer: Layer) -> SpanGuard {
    open(layer, |t| t.ledger.callbacks += 1)
}

/// A [`Transport`] that spans every action handed to the runtime below
/// (`send`, `broadcast`, timers) as `layer`, counts the sends and samples
/// their frames. Reads (`now`, `id`) and the metric/trace sinks pass
/// through unspanned: a span would cost more than they do.
pub struct SpannedTransport<'a> {
    inner: &'a mut dyn Transport,
    layer: Layer,
}

impl<'a> SpannedTransport<'a> {
    pub fn new(inner: &'a mut dyn Transport, layer: Layer) -> Self {
        SpannedTransport { inner, layer }
    }
}

impl Transport for SpannedTransport<'_> {
    fn now(&self) -> SimTime {
        self.inner.now()
    }

    fn id(&self) -> NodeId {
        self.inner.id()
    }

    fn send(&mut self, to: NodeId, msg: Payload) {
        let _g = open(self.layer, |t| t.sent(&msg));
        self.inner.send(to, msg);
    }

    fn broadcast(&mut self, msg: Payload) {
        let _g = span(self.layer);
        self.inner.broadcast(msg);
    }

    fn set_timer(&mut self, delay: SimDuration, token: TimerToken) {
        let _g = span(self.layer);
        self.inner.set_timer(delay, token);
    }

    fn cancel_timer(&mut self, token: TimerToken) {
        let _g = span(self.layer);
        self.inner.cancel_timer(token);
    }

    fn metrics(&mut self) -> &mut MetricsRegistry {
        self.inner.metrics()
    }

    fn trace(&mut self) -> &mut Trace {
        self.inner.trace()
    }
}

/// Runs `f` with `ctx` wrapped in a [`SpannedTransport`] when this thread
/// is tracing, and with `ctx` itself otherwise.
pub fn with_transport<R>(
    ctx: &mut dyn Transport,
    layer: Layer,
    f: impl FnOnce(&mut dyn Transport) -> R,
) -> R {
    if enabled() {
        f(&mut SpannedTransport::new(ctx, layer))
    } else {
        f(ctx)
    }
}

/// A delegating [`HwgSubstrate`]: every down-call and every message, timer
/// and drain handed to `S` runs in a [`Layer::Vsync`] span. The pure
/// queries (`node`, `view_of`, `status_of`, `is_coordinator`, `groups`)
/// are map lookups cheaper than a span and stay in the caller's time.
pub struct Spanned<S>(S);

impl<S: HwgSubstrate> HwgSubstrate for Spanned<S> {
    fn build(me: NodeId, cfg: &HwgConfig) -> Self {
        Spanned(S::build(me, cfg))
    }

    fn node(&self) -> NodeId {
        self.0.node()
    }

    fn start(&mut self, ctx: &mut dyn Transport) {
        let _g = span(Layer::Vsync);
        self.0.start(ctx);
    }

    fn join(&mut self, ctx: &mut dyn Transport, hwg: HwgId) {
        let _g = span(Layer::Vsync);
        self.0.join(ctx, hwg);
    }

    fn create(&mut self, ctx: &mut dyn Transport, hwg: HwgId) {
        let _g = span(Layer::Vsync);
        self.0.create(ctx, hwg);
    }

    fn leave(&mut self, ctx: &mut dyn Transport, hwg: HwgId) {
        let _g = span(Layer::Vsync);
        self.0.leave(ctx, hwg);
    }

    fn send(&mut self, ctx: &mut dyn Transport, hwg: HwgId, data: Payload) {
        let _g = span(Layer::Vsync);
        self.0.send(ctx, hwg, data);
    }

    fn send_to(
        &mut self,
        ctx: &mut dyn Transport,
        hwg: HwgId,
        targets: &BTreeSet<NodeId>,
        data: Payload,
    ) {
        let _g = span(Layer::Vsync);
        self.0.send_to(ctx, hwg, targets, data);
    }

    fn force_flush(&mut self, ctx: &mut dyn Transport, hwg: HwgId) {
        let _g = span(Layer::Vsync);
        self.0.force_flush(ctx, hwg);
    }

    fn stop_ok(&mut self, ctx: &mut dyn Transport, hwg: HwgId) {
        let _g = span(Layer::Vsync);
        self.0.stop_ok(ctx, hwg);
    }

    fn view_of(&self, hwg: HwgId) -> Option<&View> {
        self.0.view_of(hwg)
    }

    fn status_of(&self, hwg: HwgId) -> GroupStatus {
        self.0.status_of(hwg)
    }

    fn is_coordinator(&self, hwg: HwgId) -> bool {
        self.0.is_coordinator(hwg)
    }

    fn groups(&self) -> Vec<HwgId> {
        self.0.groups()
    }

    fn on_message(&mut self, ctx: &mut dyn Transport, from: NodeId, msg: &Payload) -> bool {
        let _g = span(Layer::Vsync);
        self.0.on_message(ctx, from, msg)
    }

    fn on_timer(&mut self, ctx: &mut dyn Transport, token: TimerToken) -> bool {
        let _g = span(Layer::Vsync);
        self.0.on_timer(ctx, token)
    }

    fn drain_events(&mut self) -> Vec<HwgEvent> {
        let _g = span(Layer::Vsync);
        self.0.drain_events()
    }

    fn drain_events_into(&mut self, out: &mut Vec<HwgEvent>) {
        let _g = span(Layer::Vsync);
        self.0.drain_events_into(out);
    }
}

/// Runs a whole [`Process`] as one layer: each callback is a top-level
/// span of `layer`, and what the process sends is spanned as `below`.
pub struct SpannedProcess<P> {
    inner: P,
    layer: Layer,
    below: Layer,
}

impl<P: Process> SpannedProcess<P> {
    pub fn new(inner: P, layer: Layer, below: Layer) -> Self {
        SpannedProcess {
            inner,
            layer,
            below,
        }
    }
}

impl<P: Process> Process for SpannedProcess<P> {
    fn on_start(&mut self, ctx: &mut dyn Transport) {
        let _g = callback(self.layer);
        with_transport(ctx, self.below, |ctx| self.inner.on_start(ctx));
    }

    fn on_message(&mut self, ctx: &mut dyn Transport, from: NodeId, msg: Payload) {
        let _g = open(self.layer, |t| {
            t.ledger.callbacks += 1;
            t.ledger.server_msgs += 1;
        });
        with_transport(ctx, self.below, |ctx| self.inner.on_message(ctx, from, msg));
    }

    fn on_timer(&mut self, ctx: &mut dyn Transport, token: TimerToken) {
        let _g = callback(self.layer);
        with_transport(ctx, self.below, |ctx| self.inner.on_timer(ctx, token));
    }

    fn on_crash(&mut self, now: SimTime) {
        self.inner.on_crash(now);
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::new();
        // sim 0..100 { core 10..70 { vsync 20..50 { sim 30..40 } } harness 80..90 }
        t.enter(Layer::Sim, 0);
        t.ledger.callbacks += 1;
        t.enter(Layer::Core, 10);
        t.enter(Layer::Vsync, 20);
        t.enter(Layer::Sim, 30);
        assert_eq!(t.exit(40), Layer::Vsync);
        assert_eq!(t.exit(50), Layer::Core);
        assert_eq!(t.exit(70), Layer::Sim);
        t.ledger.callbacks += 1;
        t.enter(Layer::Harness, 80);
        assert_eq!(t.exit(90), Layer::Sim);
        assert_eq!(t.exit(100), Layer::Harness);
        let l = &t.ledger;
        assert_eq!(l.self_ns[Layer::Sim as usize], (100 - 60 - 10) + 10);
        assert_eq!(l.self_ns[Layer::Core as usize], 60 - 30);
        assert_eq!(l.self_ns[Layer::Vsync as usize], 30 - 10);
        assert_eq!(l.self_ns[Layer::Harness as usize], 10);
        // Every nanosecond of the root is some layer's self time.
        assert_eq!(l.total_self_ns(), 100);
        assert_eq!(l.spans, [1, 1, 1, 0, 2, 0]);
        assert_eq!(
            (
                l.roots[Layer::Sim as usize],
                l.root_self_ns[Layer::Sim as usize]
            ),
            (1, 30)
        );
        // Raw spans close innermost first and name their parent and op.
        let inner = l.raw[0];
        assert_eq!(
            (inner.layer, inner.start_ns, inner.end_ns),
            (Layer::Sim, 30, 40)
        );
        assert_eq!((inner.parent, inner.op), (l.raw[1].id, 1));
        assert_eq!((l.raw[3].layer, l.raw[3].op), (Layer::Harness, 2));
        assert_eq!((l.raw[4].parent, l.raw[4].end_ns), (0, 100));
    }

    #[test]
    fn an_unbalanced_exit_is_ignored() {
        let mut t = Tracer::new();
        assert_eq!(t.exit(5), Layer::Harness);
        assert_eq!(t.ledger.total_self_ns(), 0);
    }

    #[test]
    fn spans_are_inert_until_started() {
        assert!(!enabled());
        drop(span(Layer::Core));
        assert_eq!(finish().total_self_ns(), 0);
        start(Instant::now());
        {
            let _outer = callback(Layer::Harness);
            let _inner = span(Layer::Core);
        }
        let ledger = finish();
        assert!(!enabled());
        assert_eq!(ledger.spans[Layer::Core as usize], 1);
        assert_eq!((ledger.callbacks, ledger.raw.len()), (1, 2));
    }

    #[test]
    fn sends_of_one_buffer_count_as_one_encode() {
        let mut t = Tracer::new();
        let a = Frame::copy_from_slice(b"aaaa");
        let b = Frame::copy_from_slice(b"bbbb");
        for f in [&a, &a.clone(), &a, &b] {
            t.sent(f);
        }
        assert_eq!((t.ledger.sends, t.ledger.encodes), (4, 2));
        assert_eq!(t.ledger.sends_from[Layer::Harness as usize], 4);
    }
}
