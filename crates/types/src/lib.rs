//! Common foundation types for the cluster-based COMA simulator.
//!
//! This crate contains the vocabulary shared by every other crate in the
//! workspace: byte/line addresses, processor and node identifiers, the
//! machine and latency configurations from the paper's Section 3, the
//! memory-pressure arithmetic from Section 2, and a small deterministic
//! pseudo-random number generator used by the workload models so that every
//! simulation is exactly reproducible.
//!
//! The machine under study is the one simulated by Landin & Karlgren
//! (IPPS 1997): 16 processors grouped into nodes of 1, 2 or 4 processors,
//! each node holding one *attraction memory* (AM) shared by its processors,
//! with a global snooping bus connecting the nodes.

#![forbid(unsafe_code)]

pub mod addr;
pub mod config;
pub mod fastmod;
pub mod ids;
pub mod nodeset;
pub mod placement;
pub mod pressure;
pub mod rng;
pub mod time;
pub mod topology;

pub use addr::{Addr, LineNum, LINE_BYTES, LINE_SHIFT, MAX_LINE, PAGE_BYTES, PAGE_SHIFT};
pub use config::{ConfigError, LatencyConfig, MachineConfig, MachineGeometry};
pub use fastmod::FastMod;
pub use ids::{NodeId, ProcId};
pub use nodeset::NodeSet;
pub use placement::Placement;
pub use pressure::{full_replication_threshold, MemoryPressure};
pub use rng::{Rng64, ZipfSampler};
pub use time::Nanos;
pub use topology::Topology;
