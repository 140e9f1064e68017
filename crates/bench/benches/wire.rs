//! Micro-benchmark of the `plwg-wire` codec: encode and decode cost of the
//! frames the data plane moves in steady state (a single `Data` multicast
//! and a 16-entry packed `Batch`), at 64 B, 1 KB and 64 KB payloads.
//!
//! Plain `harness = false` timing loop — no external bench framework. Run
//! with `cargo bench --bench wire`; pass `--smoke` (the CI throughput job
//! does) to run a single fast iteration per case as a correctness smoke
//! test instead of a measurement.
#![expect(clippy::disallowed_types, reason = "a wall-clock micro-benchmark")]

use plwg_core::{HwgId, LwgId, LwgMsg, ViewId};
use plwg_sim::{decode_frame, encode_frame, family, Frame, NodeId};
use std::time::Instant;

/// Times `iters` runs of `f` over `per_iter` frames and prints the mean
/// per-frame cost plus throughput.
fn bench<F: FnMut() -> u64>(
    name: &str,
    iters: u32,
    per_iter: u64,
    bytes_per_frame: usize,
    mut f: F,
) {
    let mut sink = f(); // warm-up outside the timed window
    let mut samples: Vec<f64> = Vec::with_capacity(iters as usize);
    for _ in 0..iters {
        let t0 = Instant::now();
        sink = sink.wrapping_add(f());
        samples.push(t0.elapsed().as_secs_f64());
    }
    let mean_s = samples.iter().sum::<f64>() / samples.len() as f64;
    let per_frame_ns = mean_s / per_iter as f64 * 1e9;
    let mib_s = (bytes_per_frame as f64 * per_iter as f64) / mean_s / (1024.0 * 1024.0);
    println!("{name:<28} {per_frame_ns:>9.0} ns/frame   {mib_s:>9.0} MiB/s ({iters} iters)");
    std::hint::black_box(sink);
}

fn data_msg(payload_bytes: usize) -> LwgMsg {
    LwgMsg::Data {
        lwg: LwgId(7),
        lwg_view: ViewId::new(NodeId(1), 3),
        data: Frame::from_vec(vec![0xA5; payload_bytes]),
    }
}

fn batch_msg(entries: usize, payload_bytes: usize) -> LwgMsg {
    LwgMsg::Batch {
        entries: (0..entries)
            .map(|i| {
                (
                    LwgId(1 + i as u64),
                    ViewId::new(NodeId(1), 3),
                    Frame::from_vec(vec![0xA5; payload_bytes]),
                )
            })
            .collect(),
    }
}

/// One encode+decode round trip as a correctness check (the smoke mode).
fn smoke(msg: &LwgMsg) {
    let frame = encode_frame(family::LWG, msg);
    let back = decode_frame::<LwgMsg>(family::LWG, &frame).expect("round trip");
    assert_eq!(format!("{msg:?}"), format!("{back:?}"));
    // A decoded payload must slice the incoming allocation, not copy it.
    if let (LwgMsg::Data { data: a, .. }, LwgMsg::Data { data: b, .. }) = (msg, &back) {
        assert_eq!(a.bytes(), b.bytes());
        assert!(std::sync::Arc::ptr_eq(frame.backing(), b.backing()));
    }
}

fn main() {
    let smoke_only = std::env::args().any(|a| a == "--smoke");
    if smoke_only {
        for &size in &[64usize, 1024, 65536] {
            smoke(&data_msg(size));
            smoke(&batch_msg(16, size));
        }
        println!("wire codec smoke: encode/decode round trips ok (zero-copy decode verified)");
        return;
    }

    const FRAMES: u64 = 10_000;
    for &size in &[64usize, 1024, 65536] {
        let msg = data_msg(size);
        let encoded = encode_frame(family::LWG, &msg);
        let iters = if size >= 65536 { 20 } else { 100 };
        bench(&format!("encode/data_{size}B"), iters, FRAMES, size, || {
            let mut n = 0u64;
            for _ in 0..FRAMES {
                n = n.wrapping_add(encode_frame(family::LWG, &msg).len() as u64);
            }
            n
        });
        bench(&format!("decode/data_{size}B"), iters, FRAMES, size, || {
            let mut n = 0u64;
            for _ in 0..FRAMES {
                let m = decode_frame::<LwgMsg>(family::LWG, &encoded).expect("decodes");
                if let LwgMsg::Data { data, .. } = m {
                    n = n.wrapping_add(data.len() as u64);
                }
            }
            n
        });
    }

    const BATCHES: u64 = 2_000;
    let msg = batch_msg(16, 1024);
    let encoded = encode_frame(family::LWG, &msg);
    bench("encode/batch_16x1KB", 50, BATCHES, 16 * 1024, || {
        let mut n = 0u64;
        for _ in 0..BATCHES {
            n = n.wrapping_add(encode_frame(family::LWG, &msg).len() as u64);
        }
        n
    });
    bench("decode/batch_16x1KB", 50, BATCHES, 16 * 1024, || {
        let mut n = 0u64;
        for _ in 0..BATCHES {
            let m = decode_frame::<LwgMsg>(family::LWG, &encoded).expect("decodes");
            if let LwgMsg::Batch { entries } = m {
                n = n.wrapping_add(entries.len() as u64);
            }
        }
        n
    });

    // Keep `Redirect` (the one direct node-to-node message) covered too.
    let msg = LwgMsg::Redirect {
        lwg: LwgId(3),
        to: HwgId(9),
    };
    bench("encode/redirect", 50, FRAMES, 4, || {
        let mut n = 0u64;
        for _ in 0..FRAMES {
            n = n.wrapping_add(encode_frame(family::LWG, &msg).len() as u64);
        }
        n
    });
}
