//! # plwg-core — the partitionable light-weight group service
//!
//! This crate is the reproduction of the paper's contribution: a
//! *Light-Weight Group Service* that maps many user-level groups (LWGs)
//! onto a small pool of virtually-synchronous heavy-weight groups (HWGs,
//! any [`HwgSubstrate`] — production uses `plwg_vsync::VsyncStack`, tests
//! can use the in-memory [`ScriptedHwg`]), preserving the full interface of
//! paper Table 1 towards the user while sharing failure detection,
//! flushes and transport — and that keeps working across **network
//! partitions**, reconciling the inconsistent mapping decisions concurrent
//! partitions inevitably make (paper §4–§6).
//!
//! ## Architecture
//!
//! ```text
//!   application            LwgEvent::{View,Data,Left}   join/leave/send
//!        ▲                                                   │
//!   ┌────┴───────────────────────────────────────────────────▼────┐
//!   │ LwgService<S>  mapping table · policies (Fig. 1) · healing  │
//!   ├──────────────────────────┬───────────────────────────────────┤
//!   │ S: HwgSubstrate (Table 1)│ NsClient → replicated NameServers  │
//!   │  VsyncStack / ScriptedHwg│                                    │
//!   └──────────────────────────┴───────────────────────────────────┘
//! ```
//!
//! The service multiplexes each LWG's traffic onto its HWG as
//! [`LwgMsg::Data`] messages tagged with the **LWG view id** they were sent
//! in — delivered upward only to members of that view, which is what lets
//! concurrent LWG views coexist on one HWG and be discovered (paper §6.3).
//!
//! ## Partition healing (paper §6)
//!
//! 1. **Global peer discovery** — the naming service detects concurrent
//!    mappings during reconciliation and calls members back with
//!    MULTIPLE-MAPPINGS.
//! 2. **Mapping reconciliation** — the coordinator of each concurrent view
//!    switches its view to the HWG with the *highest group id*.
//! 3. **Local peer discovery** — a view-tagged message (or an HWG merge)
//!    reveals concurrent views sharing one HWG view.
//! 4. **Merge-views** — one forced HWG flush (paper Fig. 5) merges *all*
//!    concurrent views of *all* LWGs on that HWG at once.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod builder;
mod config;
mod data_plane;
mod directory;
mod error;
mod events;
mod flush;
pub mod keys;
mod mapping;
mod merge;
mod msg;
mod node;
mod policy;
mod protocol_events;
mod rebalance;
mod scripted;
mod service;
mod state;
mod switch;
mod wire;

pub use builder::LwgBuilder;
pub use config::LwgConfig;
pub use directory::{DirCounters, HwgLoad};
pub use error::LwgError;
pub use events::{LwgEvent, LwgEvents};
pub use msg::{AdvertisedViews, LFlushId, LwgMsg};
pub use node::LwgNode;
pub use policy::{
    closeness, interference_rule, is_minority, placement_rule, rebalance_improves, share_rule,
    share_rule_collapses, PolicyAction,
};
pub use protocol_events::LwgProtocolEvent;
pub use scripted::ScriptedHwg;
pub use service::LwgService;
pub use state::{LwgStatus, ServiceStats};

// Re-export the identifier, view and substrate types user code needs.
pub use plwg_hwg::{GroupStatus, HwgConfig, HwgEvent, HwgId, HwgSubstrate, View, ViewId};
pub use plwg_naming::{LwgId, Mapping};
