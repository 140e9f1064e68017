//! The wire layer's share, by replay.
//!
//! The codec is called from inside core, vsync and naming, so no seam
//! separates it at run time. Instead, a bounded sample of the frames handed
//! to the transport during the traced window is put through the public
//! `Encode`/`Decode` impls of `VsMsg`, `LwgMsg` and `NsMsg` afterwards —
//! each frame the way its receiver and its sender treat it: a vsync data
//! frame that carries an LWG message is decoded, and encoded, at both
//! levels.
#![forbid(unsafe_code)]

use crate::alloc;
use plwg_core::LwgMsg;
use plwg_naming::NsMsg;
use plwg_sim::{decode_frame, encode_frame, family, peek_family, Frame};
use plwg_vsync::{Slot, VsMsg};
use std::hint::black_box;
use std::time::Instant;

/// Passes over the sample; the fastest pass is reported.
const PASSES: usize = 5;

/// Per-frame codec cost over the replayed sample.
#[derive(Debug, Default, Clone, Copy)]
pub struct WireCost {
    /// Frames in the sample that decoded.
    pub frames: u64,
    /// Frames in the sample that did not decode (must be 0).
    pub errors: u64,
    pub encode_ns_per_frame: f64,
    pub decode_ns_per_frame: f64,
    pub decode_allocs_per_frame: f64,
}

enum Decoded {
    Vs(VsMsg, Option<LwgMsg>),
    Lwg(LwgMsg),
    Ns(NsMsg),
}

fn decode(frame: &Frame) -> Option<Decoded> {
    match peek_family(frame)? {
        family::VS => {
            let msg: VsMsg = decode_frame(family::VS, frame).ok()?;
            let inner = match &msg {
                VsMsg::Data {
                    payload: Slot::Full(p),
                    ..
                } if peek_family(p) == Some(family::LWG) => {
                    Some(decode_frame::<LwgMsg>(family::LWG, p).ok()?)
                }
                _ => None,
            };
            Some(Decoded::Vs(msg, inner))
        }
        family::LWG => decode_frame(family::LWG, frame).ok().map(Decoded::Lwg),
        family::NS => decode_frame(family::NS, frame).ok().map(Decoded::Ns),
        _ => None,
    }
}

fn encode(msg: &Decoded) -> usize {
    match msg {
        Decoded::Vs(vs, inner) => {
            let nested = inner
                .as_ref()
                .map_or(0, |lm| encode_frame(family::LWG, lm).len());
            nested + encode_frame(family::VS, vs).len()
        }
        Decoded::Lwg(lm) => encode_frame(family::LWG, lm).len(),
        Decoded::Ns(ns) => encode_frame(family::NS, ns).len(),
    }
}

/// Replays `frames` and reports the cost of one frame; a frame that does
/// not decode is one more line in `problems`.
pub fn replay(frames: &[Frame], problems: &mut Vec<String>) -> WireCost {
    let mut cost = WireCost::default();
    let mut best_decode = f64::INFINITY;
    let mut best_encode = f64::INFINITY;
    for pass in 0..PASSES {
        let allocs0 = alloc::heap().total();
        let t = Instant::now();
        let decoded: Vec<Option<Decoded>> = frames.iter().map(|f| decode(black_box(f))).collect();
        let decode_ns = t.elapsed().as_nanos() as f64;
        let allocs = alloc::heap().total() - allocs0;
        let good: Vec<&Decoded> = decoded.iter().flatten().collect();
        let t = Instant::now();
        let bytes: usize = good.iter().map(|m| encode(black_box(m))).sum();
        let encode_ns = t.elapsed().as_nanos() as f64;
        black_box(bytes);
        if pass == 0 {
            cost.frames = good.len() as u64;
            cost.errors = (frames.len() - good.len()) as u64;
            // Less the one allocation of the collecting `Vec` itself.
            cost.decode_allocs_per_frame =
                allocs.saturating_sub(1) as f64 / frames.len().max(1) as f64;
        }
        best_decode = best_decode.min(decode_ns);
        best_encode = best_encode.min(encode_ns);
    }
    if cost.errors > 0 {
        problems.push(format!(
            "{} of {} sampled frames did not decode on replay",
            cost.errors,
            frames.len()
        ));
    }
    if cost.frames > 0 {
        cost.decode_ns_per_frame = best_decode / frames.len() as f64;
        cost.encode_ns_per_frame = best_encode / cost.frames as f64;
    }
    cost
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_counts_good_and_bad_frames() {
        let ns = encode_frame(
            family::NS,
            &NsMsg::Read {
                req: plwg_naming::RequestId(7),
                lwg: plwg_naming::LwgId(3),
            },
        );
        let garbage = Frame::copy_from_slice(&[family::VS as u8, 0xff, 0xff]);
        let mut problems = Vec::new();
        let cost = replay(&[ns.clone(), garbage, ns], &mut problems);
        assert_eq!((cost.frames, cost.errors, problems.len()), (2, 1, 1));
        assert!(cost.decode_ns_per_frame > 0.0 && cost.encode_ns_per_frame > 0.0);
        let empty = replay(&[], &mut problems);
        assert_eq!(
            (empty.frames, empty.decode_ns_per_frame, problems.len()),
            (0, 0.0, 1)
        );
    }
}
