//! Cache structures for the cluster-based COMA simulator.
//!
//! Three levels exist in the modeled hierarchy (paper §2, Figure 1):
//!
//! * the per-processor **first-level cache** (FLC) — 4 KB direct-mapped,
//!   zero-latency on hit ([`Flc`]);
//! * the per-processor **second-level cache** (SLC) — working-set/128,
//!   set-associative, write-back, MSI states ([`Slc`]);
//! * the per-node **attraction memory** (AM) — the node's entire memory
//!   organized as a huge set-associative cache with the four COMA states
//!   Exclusive / Owner / Shared / Invalid ([`AttractionMemory`]).
//!
//! The SLC and the AM are built on the same generic [`SetAssoc`] array,
//! and every cache takes the accessed line's set from a [`LineIndex`],
//! reduced once per access by the machine's [`Indexer`]. The AM's
//! replacement behaviour — Shared victims preferred over Owner/Exclusive,
//! and incoming injected lines accepted into Invalid slots before Shared
//! slots — is what the paper calls the *accept-based replacement strategy*
//! and is configurable here for ablation studies.

#![forbid(unsafe_code)]

pub mod am;
pub mod flc;
pub mod index;
pub mod policy;
pub mod set_assoc;
pub mod slc;
pub mod state;

pub use am::{AcceptSlot, AttractionMemory, Victim};
pub use flc::Flc;
pub use index::{Indexer, LineIndex};
pub use policy::{AcceptPolicy, VictimPolicy};
pub use set_assoc::SetAssoc;
pub use slc::Slc;
pub use state::{AmState, SlcState};
