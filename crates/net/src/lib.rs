//! `plwg-net` — the real-socket substrate: the PLWG protocol stack over
//! actual UDP datagrams, OS processes and wall-clock time.
//!
//! The simulator proves the protocols correct under modelled loss and
//! partitions; this crate closes the loop the paper closes in §7 (the
//! prototype "runs over Horus"): the *same* membership, flush, naming and
//! merge engines — unchanged, down to the wire frames — drive real
//! sockets. The pivot is the [`Transport`](plwg_sim::Transport) seam:
//! protocol code acts through seven verbs and never learns whether a
//! virtual network or the loopback interface sits below.
//!
//! Pieces, bottom-up:
//!
//! * [`WallClock`] — real elapsed time as monotone `SimTime` micros.
//! * [`NetMsg`] + datagram envelope ([`pack_datagram`] /
//!   [`unpack_datagram`]) — multi-frame UDP datagrams (kept under
//!   [`DGRAM_BUDGET`]) reusing the `plwg-wire` codec, demuxed by frame
//!   family.
//! * [`PeerPool`] — hello/alive/bye connection lifecycle, bounded
//!   per-peer send queues (drop-newest-and-count backpressure) and the
//!   heartbeat failure detector, as a socket-free state machine.
//! * [`NetRuntime`] — the reactor that owns the socket and timer heap and
//!   hosts any [`Process`](plwg_sim::Process): an `LwgNode`, a
//!   `NameServer`, or both. Its turn drains what has arrived, coalesces
//!   what it sends per peer and flushes before it waits; a receive thread
//!   does the one blocking socket read.
//! * [`NetSubstrate`] — the name deployments over this runtime use for
//!   their [`HwgSubstrate`](plwg_hwg::HwgSubstrate): `VsyncStack` itself,
//!   which never learns which `Transport` it is given.
//! * [`harness`] — spawn child processes, exchange address books over
//!   stdio, inject partitions with socket-level drop filters, and merge
//!   the children's trace events for cross-process assertions.
//!
//! No dependencies beyond `std` and the workspace crates below it.
//!
//! # Quickstart
//!
//! ```no_run
//! use plwg_net::{NetOptions, NetRuntime};
//! use plwg_sim::{NodeId, Process, SimDuration};
//!
//! # fn host(process: &mut dyn Process) -> std::io::Result<()> {
//! let mut rt = NetRuntime::bind(NodeId(2), "127.0.0.1:0", NetOptions::default())?;
//! rt.add_peer(NodeId(1), "127.0.0.1:9001".parse().unwrap());
//! rt.run_for(process, SimDuration::from_secs(5));
//! # Ok(()) }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clock;
mod events;
pub mod harness;
pub mod keys;
mod msg;
mod peer;
mod runtime;
mod rx;

pub use clock::WallClock;
pub use events::NetEvent;
pub use msg::{net_frame, pack_datagram, unpack_datagram, NetMsg, DGRAM_BUDGET};
pub use peer::{NetOptions, Offer, PeerPool, PeerState, PoolAction};
pub use runtime::NetRuntime;

/// The HWG substrate of a real-socket deployment: the same
/// [`plwg_vsync::VsyncStack`] the simulator runs, byte-identical wire
/// frames, a [`NetRuntime`] as its [`plwg_sim::Transport`].
pub type NetSubstrate = plwg_vsync::VsyncStack;
