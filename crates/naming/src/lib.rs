//! # plwg-naming — the weakly-consistent replicated naming service
//!
//! The light-weight group service stores the association between LWGs and
//! the HWGs they are mapped onto in an external *naming service* (paper
//! §3.1, Table 2: `ns.set`, `ns.read`, `ns.testset`). For partitionable
//! operation (§5.2) the service is implemented by a set of cooperating
//! servers, placed so that each partition is likely to contain at least
//! one. Strong replica consistency is impossible across partitions, so the
//! design embraces weak consistency:
//!
//! * the database stores **view-to-view mappings** — `LwgViewId →
//!   (HwgId, HwgViewId)` — so concurrent mappings made in different
//!   partitions can *coexist* (paper Table 3);
//! * servers reconcile by anti-entropy gossip; after a heal, mappings
//!   unknown on one side are propagated and conflicting ones are kept side
//!   by side;
//! * the partial order of views (each mapping records its view's
//!   *predecessors*) lets the database garbage-collect mappings of obsolete
//!   views once a successor mapping is registered (paper Table 4, §7);
//! * when reconciliation exposes **multiple concurrent mappings** for one
//!   LWG, the server calls back the affected group members with a
//!   `MULTIPLE-MAPPINGS` notification (paper §6.1) instead of making
//!   clients poll.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod client;
mod config;
mod db;
mod events;
mod id;
pub mod keys;
mod msg;
mod server;
mod wire;

pub use client::{NsClient, NsEvent, RequestId};
pub use config::NamingConfig;
pub use db::{Digest, Mapping, MappingDb};
pub use events::NamingEvent;
pub use id::LwgId;
pub use msg::NsMsg;
pub use server::NameServer;
