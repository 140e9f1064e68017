//! The receive thread: the one place a [`crate::NetRuntime`] blocks on its
//! socket.
//!
//! `std` offers no way to wait on a UDP socket with a deadline finer than
//! a kernel timer tick (`SO_RCVTIMEO` rounds up to a jiffy), so the
//! reactor never reads the socket itself. A helper thread blocks in
//! `recv_from` on a clone of the socket, copies each datagram once into
//! the exactly-sized allocation that will back its zero-copy
//! [`Frame`]s, and hands it over a bounded channel; the reactor waits on
//! the *channel* (`recv_timeout`: futex + high-resolution timer), which
//! honours sub-millisecond deadlines and wakes the moment a datagram
//! lands.
//!
//! The channel is bounded so a reactor that falls behind pushes back into
//! the kernel's socket buffer — which drops, as UDP does — instead of
//! growing an in-process queue without limit.
//!
//! Lifetime: the thread ends when [`RxThread::stop`] is called (the
//! runtime's `Drop`), which raises a flag and sends an empty datagram to
//! the socket itself so the blocked `recv_from` returns.

use plwg_sim::Frame;
use std::io;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// What the receive thread hands over: a datagram (already in its final
/// allocation) with its source address, or the socket error it hit.
pub(crate) type Received = io::Result<(Frame, SocketAddr)>;

/// Datagrams the thread may hold ahead of the reactor before it stops
/// reading and lets the kernel's socket buffer take (and drop) the rest.
const QUEUE: usize = 256;

/// Handle on a runtime's receive thread.
pub(crate) struct RxThread {
    rx: Receiver<Received>,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl RxThread {
    /// Starts the thread on a clone of `socket`.
    pub(crate) fn spawn(socket: &UdpSocket) -> io::Result<RxThread> {
        let socket = socket.try_clone()?;
        let (tx, rx) = sync_channel(QUEUE);
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("plwg-net-rx".into())
            .spawn(move || receive_loop(&socket, &tx, &flag))?;
        Ok(RxThread {
            rx,
            stop,
            handle: Some(handle),
        })
    }

    /// A datagram that is already waiting, if any.
    pub(crate) fn try_recv(&self) -> Option<Received> {
        self.rx.try_recv().ok()
    }

    /// Waits up to `wait` for a datagram. `None` on timeout. Should the
    /// thread be gone (it only ends early by panicking), the wait is slept
    /// out so the caller's loop keeps its pace instead of spinning.
    pub(crate) fn recv_timeout(&self, wait: Duration) -> Option<Received> {
        match self.rx.recv_timeout(wait) {
            Ok(item) => Some(item),
            Err(RecvTimeoutError::Timeout) => None,
            Err(RecvTimeoutError::Disconnected) => {
                std::thread::sleep(wait);
                None
            }
        }
    }

    /// Ends the thread and waits for it. `socket` is the runtime's own
    /// handle on the socket the thread reads: the wake-up datagram is sent
    /// from it, to it.
    pub(crate) fn stop(&mut self, socket: &UdpSocket) {
        let Some(handle) = self.handle.take() else {
            return;
        };
        self.stop.store(true, SeqCst);
        // A thread blocked handing over to a full channel gets room.
        while self.rx.try_recv().is_ok() {}
        let woken = socket
            .local_addr()
            .and_then(|addr| socket.send_to(&[], reachable(addr)));
        // Without the wake-up the thread may never return from `recv_from`;
        // leaving it detached is better than hanging the caller's drop.
        if woken.is_ok() {
            let _ = handle.join();
        }
    }
}

/// The address a socket bound to `addr` can be reached at from this host
/// (a wildcard bind is reached over loopback).
fn reachable(addr: SocketAddr) -> SocketAddr {
    let ip = match addr.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, addr.port())
}

fn receive_loop(socket: &UdpSocket, tx: &SyncSender<Received>, stop: &AtomicBool) {
    // One buffer for the thread's life, large enough for any UDP datagram.
    let mut buf = vec![0u8; 65_536];
    loop {
        let got = socket.recv_from(&mut buf);
        if stop.load(SeqCst) {
            return;
        }
        let item = match got {
            Ok((n, addr)) => Ok((Frame::copy_from_slice(&buf[..n]), addr)),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => Err(e),
        };
        let failed = item.is_err();
        if tx.send(item).is_err() {
            return;
        }
        // Socket errors (e.g. ICMP-induced) are reported and treated as
        // loss, with a pause so a persistent fault cannot spin.
        if failed {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}
