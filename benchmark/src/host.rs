//! The benchmark's node: a [`Process`] around `plwg_core::LwgService<S>`
//! (the object `LwgNode` wraps).
//!
//! It forwards start/message/timer, drains the service's events inside the
//! callback, and counts, checks and timestamps every `LwgEvent::Data`
//! there — retaining nothing per message. `LwgNode` is not used because
//! its event log grows without bound (see the README's findings).
#![forbid(unsafe_code)]

use crate::stats::LatencyHist;
use crate::trace::{self, Layer};
use plwg_core::{LwgConfig, LwgEvent, LwgId, LwgService};
use plwg_hwg::HwgSubstrate;
use plwg_sim::{
    Frame, NodeId, Payload, Process, SimDuration, SimRng, SimTime, TimerToken, Transport,
};
use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

/// The traffic timer. The service claims tokens `0x01..`–`0x03..` only.
const TOK_TRAFFIC: TimerToken = TimerToken(0x0B00_0000_0000_0001);
/// Bytes of header at the front of every payload: sequence number, then
/// send time, both little endian.
const HEADER: usize = 16;

/// Which clock stamps a payload and times its delivery.
#[derive(Clone, Copy)]
pub enum Stamp {
    /// The transport's clock, in µs (virtual on the simulator).
    Transport,
    /// Wall nanoseconds since a process-wide instant.
    Wall(Instant),
}

/// One node of a workload.
pub struct Host<S: HwgSubstrate> {
    pub service: LwgService<S>,
    /// The layer the transport below belongs to (for spans).
    below: Layer,
    stamp: Stamp,
    /// Groups this node multicasts on at every traffic tick.
    send_on: Vec<LwgId>,
    tick: SimDuration,
    sending: bool,
    /// Payload template: header space, then seeded random bytes.
    scratch: Vec<u8>,
    /// Messages sent so far, per entry of `send_on`.
    pub sent: Vec<u64>,
    /// Next sequence number expected, by `[lwg][sender]`.
    expect: Vec<Vec<u64>>,
    /// Deliveries with a sequence number already seen.
    pub duplicates: u64,
    /// Deliveries that skipped ahead of the expected sequence number.
    pub gaps: u64,
    /// Send → upcall latency of every delivery, in the [`Stamp`]'s unit.
    pub latency: LatencyHist,
    /// Deliveries that arrived in order, exactly once — a counter the
    /// workload reads, possibly shared with other hosts and threads.
    progress: Arc<AtomicU64>,
    /// Size of a whole view, and when each group's view last became whole.
    whole_size: usize,
    whole_since: Vec<Option<SimTime>>,
    /// Groups whose installed view is whole now.
    pub whole: usize,
}

impl<S: HwgSubstrate + 'static> Host<S> {
    pub fn new(
        me: NodeId,
        servers: &[NodeId],
        cfg: LwgConfig,
        below: Layer,
        stamp: Stamp,
        progress: Arc<AtomicU64>,
    ) -> Result<Self, String> {
        let service = LwgService::builder(me)
            .servers(servers.iter().copied())
            .config(cfg)
            .build()
            .map_err(|e| format!("LWG service for {me} rejected its configuration: {e}"))?;
        Ok(Host {
            service,
            below,
            stamp,
            send_on: Vec::new(),
            tick: SimDuration::from_millis(1),
            sending: false,
            scratch: Vec::new(),
            sent: Vec::new(),
            expect: Vec::new(),
            duplicates: 0,
            gaps: 0,
            latency: LatencyHist::default(),
            progress,
            whole_size: usize::MAX,
            whole_since: Vec::new(),
            whole: 0,
        })
    }

    /// Makes this node a sender: one `payload_len`-byte multicast per group
    /// of `send_on` per traffic tick, the bytes after the header drawn
    /// from `rng`.
    pub fn make_sender(&mut self, send_on: Vec<LwgId>, payload_len: usize, rng: &mut SimRng) {
        self.sent = vec![0; send_on.len()];
        self.send_on = send_on;
        self.scratch = vec![0; payload_len.max(HEADER)];
        rng.fill_bytes(&mut self.scratch[HEADER..]);
    }

    /// Views of `size` members count as whole from now on.
    pub fn track_whole(&mut self, size: usize) {
        self.whole_size = size;
    }

    /// When `lwg`'s view last became whole here, if it is whole now.
    pub fn whole_since(&self, lwg: LwgId) -> Option<SimTime> {
        self.whole_since.get(lwg.0 as usize).copied().flatten()
    }

    /// Joins `lwg` (call through `World::invoke` or between reactor turns).
    pub fn join(&mut self, ctx: &mut dyn Transport, lwg: LwgId) {
        trace::with_transport(ctx, self.below, |ctx| {
            let _g = trace::span(Layer::Core);
            self.service.join(ctx, lwg);
        });
    }

    /// Starts the traffic timer: the first tick fires one period from now.
    pub fn start_traffic(&mut self, ctx: &mut dyn Transport) {
        self.sending = true;
        ctx.set_timer(self.tick, TOK_TRAFFIC);
    }

    /// Stops sending; a tick already armed fires once more and does nothing.
    pub fn stop_traffic(&mut self) {
        self.sending = false;
    }

    /// Multicasts the next message on entry `i` of `send_on`.
    pub fn send_next(&mut self, ctx: &mut dyn Transport, i: usize) {
        let stamp = match self.stamp {
            Stamp::Transport => ctx.now().as_micros(),
            Stamp::Wall(epoch) => epoch.elapsed().as_nanos() as u64,
        };
        self.scratch[..8].copy_from_slice(&self.sent[i].to_le_bytes());
        self.scratch[8..HEADER].copy_from_slice(&stamp.to_le_bytes());
        self.sent[i] += 1;
        let payload = Frame::copy_from_slice(&self.scratch);
        let _g = trace::span(Layer::Core);
        self.service.send(ctx, self.send_on[i], payload);
    }

    fn traffic_tick(&mut self, ctx: &mut dyn Transport) {
        if !self.sending {
            return;
        }
        for i in 0..self.send_on.len() {
            self.send_next(ctx, i);
        }
        self.pump(ctx);
        ctx.set_timer(self.tick, TOK_TRAFFIC);
    }

    /// Drains the service's upcalls and accounts for them. Called inside
    /// every callback that may have produced some.
    pub fn pump(&mut self, ctx: &mut dyn Transport) {
        let events = {
            let _g = trace::span(Layer::Core);
            self.service.drain_events()
        };
        for ev in events {
            match ev {
                LwgEvent::Data { lwg, src, data } => self.on_data(ctx, lwg, src, &data),
                LwgEvent::View { lwg, view } => {
                    let g = lwg.0 as usize;
                    if self.whole_since.len() <= g {
                        self.whole_since.resize(g + 1, None);
                    }
                    let was = self.whole_since[g].is_some();
                    let is = view.len() == self.whole_size;
                    self.whole_since[g] = is.then(|| ctx.now());
                    self.whole = self.whole + usize::from(is) - usize::from(was);
                }
                LwgEvent::Left { .. } => {}
            }
        }
    }

    fn on_data(&mut self, ctx: &mut dyn Transport, lwg: LwgId, src: NodeId, data: &Payload) {
        let Some((seq, sent_at)) = data.bytes().first_chunk::<HEADER>().map(|h| {
            let (seq, at) = h.split_at(8);
            (
                u64::from_le_bytes(seq.try_into().expect("8 bytes")),
                u64::from_le_bytes(at.try_into().expect("8 bytes")),
            )
        }) else {
            self.gaps += 1; // not a payload this benchmark sent
            return;
        };
        let now = match self.stamp {
            Stamp::Transport => ctx.now().as_micros(),
            Stamp::Wall(epoch) => epoch.elapsed().as_nanos() as u64,
        };
        self.latency.record(now.saturating_sub(sent_at));
        let (g, s) = (lwg.0 as usize, src.0 as usize);
        if self.expect.len() <= g {
            self.expect.resize(g + 1, Vec::new());
        }
        if self.expect[g].len() <= s {
            self.expect[g].resize(s + 1, 0);
        }
        let expected = &mut self.expect[g][s];
        if seq < *expected {
            self.duplicates += 1;
            return;
        }
        if seq > *expected {
            self.gaps += 1;
        }
        *expected = seq + 1;
        self.progress.fetch_add(1, Relaxed);
    }

    /// Messages of `src` on `lwg` accounted for here (the next sequence
    /// number expected).
    pub fn received_from(&self, lwg: LwgId, src: NodeId) -> u64 {
        self.expect
            .get(lwg.0 as usize)
            .and_then(|by_src| by_src.get(src.0 as usize))
            .copied()
            .unwrap_or(0)
    }
}

impl<S: HwgSubstrate + 'static> Process for Host<S> {
    fn on_start(&mut self, ctx: &mut dyn Transport) {
        let _cb = trace::callback(Layer::Harness);
        trace::with_transport(ctx, self.below, |ctx| {
            let _g = trace::span(Layer::Core);
            self.service.start(ctx);
        });
    }

    fn on_message(&mut self, ctx: &mut dyn Transport, from: NodeId, msg: Payload) {
        let _cb = trace::callback(Layer::Harness);
        trace::with_transport(ctx, self.below, |ctx| {
            let consumed = {
                let _g = trace::span(Layer::Core);
                self.service.on_message(ctx, from, &msg)
            };
            if consumed {
                self.pump(ctx);
            }
        });
    }

    fn on_timer(&mut self, ctx: &mut dyn Transport, token: TimerToken) {
        let _cb = trace::callback(Layer::Harness);
        trace::with_transport(ctx, self.below, |ctx| {
            if token == TOK_TRAFFIC {
                self.traffic_tick(ctx);
                return;
            }
            let consumed = {
                let _g = trace::span(Layer::Core);
                self.service.on_timer(ctx, token)
            };
            if consumed {
                self.pump(ctx);
            }
        });
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}
