//! The environment block every result file records. Every read is
//! optional: a missing `/proc`, `rustc` or `.git` yields `null`, never a
//! failed run.
#![forbid(unsafe_code)]

use crate::json::Value;
use std::net::UdpSocket;
use std::process::Command;
use std::time::{Duration, Instant};

fn text(s: Option<String>) -> Value {
    s.map_or(Value::Null, |s| Value::Str(s.trim().to_string()))
}

/// The commit of the checkout the benchmark runs in, when it is a git
/// work tree (the driver's checkout is not).
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    match head.trim().strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}")).ok(),
        None => Some(head),
    }
}

/// How long a `recv` with a 100 µs `SO_RCVTIMEO` really blocks on this
/// kernel: the tick that paces a `NetRuntime` turn (median of 5, µs).
fn rcvtimeo_tick_us() -> Option<f64> {
    let socket = UdpSocket::bind("127.0.0.1:0").ok()?;
    socket
        .set_read_timeout(Some(Duration::from_micros(100)))
        .ok()?;
    let mut waits: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            let _ = socket.recv_from(&mut [0u8; 16]);
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    waits.sort_by(f64::total_cmp);
    Some(waits[2])
}

pub fn environment() -> Value {
    let nproc = std::thread::available_parallelism().ok();
    let rustc = Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok());
    Value::obj([
        (
            "nproc",
            nproc.map_or(Value::Null, |n| Value::Num(n.get() as f64)),
        ),
        (
            "kernel",
            text(std::fs::read_to_string("/proc/sys/kernel/osrelease").ok()),
        ),
        ("rustc", text(rustc)),
        ("git_commit", text(git_commit())),
        (
            "so_rcvtimeo_tick_us",
            rcvtimeo_tick_us().map_or(Value::Null, Value::Num),
        ),
    ])
}
