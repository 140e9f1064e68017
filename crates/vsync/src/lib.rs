//! # plwg-vsync — partitionable virtually-synchronous groups (the HWG layer)
//!
//! This crate implements the *heavy-weight group* (HWG) layer the paper
//! assumes (§5.1): a group-communication service that keeps delivering views
//! in the presence of partitions, lets a group split into **concurrent
//! views** when the network splits, and merges those views when it heals.
//! It plays the role Horus played in the original system.
//!
//! Guarantees provided to the layer above (the light-weight group service in
//! `plwg-core`):
//!
//! * **View synchrony** — processes that install the same two consecutive
//!   views deliver exactly the same set of multicast messages between them
//!   (enforced by the flush protocol in the group state machine).
//! * **View-tagged delivery** — every data message carries the
//!   [`ViewId`] it was sent in and is only delivered to members of that
//!   view (paper §5.1; this is what lets the LWG layer decouple LWG merges
//!   from HWG merges).
//! * **Partitionable membership** — each network component forms its own
//!   view (coordinator = most senior reachable member); concurrent views
//!   carry *predecessor* view ids, so the partial order of views needed by
//!   the naming service's garbage collector (paper §7) is explicit.
//! * **Merge on heal** — coordinators advertise their views with periodic
//!   beacons on the physical network; when concurrent views discover each
//!   other, a leader-driven merge flushes every participating view and
//!   installs a single successor view.
//!
//! The stack is a *passive component*: the owning [`plwg_sim::Process`]
//! (an application node or the LWG service) forwards messages and timers to
//! [`VsyncStack`] and drains the resulting [`HwgEvent`] upcalls through its
//! one API, [`HwgSubstrate`] — the `Join/Leave/Send/StopOk` down-calls and
//! `View/Data/Stop` up-calls of Table 1 in the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fd;
/// Pure flush-plan computation (digests → delivery target + pull plan).
pub mod flushcalc;
mod group;
pub mod keys;
mod msg;
mod stack;
mod wire;

pub use fd::{FailureDetector, FdEvent};
pub use msg::{FlushId, FlushPurpose, Slot, VsMsg};
pub use plwg_hwg::{
    GroupStatus, HwgConfig, HwgEvent, HwgId, HwgSubstrate, HwgTraceEvent, View, ViewId,
};
pub use stack::VsyncStack;
