//! The Bus-Based COMA coherence protocol (paper §3.1).
//!
//! This crate implements the functional (state-machine) half of the
//! memory system: what moves where, which copies get invalidated, where a
//! displaced responsible copy is re-homed. The timing half — how long it
//! all takes under contention — lives in `coma-sim`, which interprets the
//! [`Outcome`] each access returns.
//!
//! Protocol summary:
//!
//! * AM line states Exclusive / Owner / Shared / Invalid, with exactly one
//!   E-or-O ("responsible") copy per live line machine-wide.
//! * Invalidation-based writes: gaining ownership invalidates every other
//!   copy; the writer's AM ends in Exclusive.
//! * **Accept-based replacement**: a displaced E/O line is *injected* on
//!   the bus; if a replica exists anywhere, ownership simply migrates to
//!   it; otherwise the snoop arbitration picks a receiver with an Invalid
//!   slot in the line's home set, then one that would overwrite a Shared
//!   replica; if every slot machine-wide is responsible, the line leaves
//!   through the OS (page-out).
//! * Intra-node MSI over the private SLCs with AM inclusion, including
//!   dirty peer-to-peer supplies within a node.
//! * Pages are allocated on demand to the first-touching node; untouched
//!   lines of an allocated page materialize at that home node.

#![forbid(unsafe_code)]

pub mod directory;
pub mod engine;
pub mod memory;
pub mod node;
pub mod numa;
pub mod outcome;
mod sharers;
pub mod table;

pub use coma_stats::ProtocolCounters;
pub use directory::Directory;
pub use engine::CoherenceEngine;
pub use memory::MemorySystem;
pub use node::NodeState;
pub use numa::{BaselineEngine, BaselineKind};
pub use outcome::Outcome;
