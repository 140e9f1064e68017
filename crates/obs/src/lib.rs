//! # plwg-obs — observability for the PLWG stack
//!
//! Builds **causal protocol timelines** from the typed trace the simulator
//! records ([`plwg_sim::Trace`]): every layer of the stack (world faults,
//! the HWG substrate, the naming service, the LWG service) emits
//! [`plwg_sim::ProtocolEvent`]s carrying [`plwg_sim::EventRefs`] — view lineage,
//! flush identity, group ids — and this crate links those references into
//! a cross-node, causally-ordered rendering of a run.
//!
//! The flagship use is the paper's four-step partition heal (§6):
//! [`Timeline::heal_procedure`] extracts naming reconciliation →
//! MULTIPLE-MAPPINGS callback → mapping switch → MERGE-VIEWS single-flush
//! merge from a full run, each step annotated with the events that caused
//! it. The [`scenarios`] module holds the one world builder,
//! [`scenarios::Scenario`], that every test and experiment builds its world
//! with, and packages deterministic worlds to build timelines from
//! (`cargo run --bin timeline -- heal`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod scenarios;
mod timeline;

pub use timeline::{
    ancestor_merges_of, forks_of, AncestorMerge, Fork, Timeline, TimelineEntry, ViewKey,
};
