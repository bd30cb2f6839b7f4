//! Synthetic SPLASH-2-analogue workloads for the COMA simulator.
//!
//! The paper drives its memory-system simulator with the 14 programs of
//! the SPLASH-2 suite executed under SimICS. Neither is reproducible
//! here, so this crate provides the closest synthetic equivalent: one
//! generator per application that emits the same *kind* of reference
//! stream — the partitioning, the sharing breadth, the communication
//! locality between neighbouring processes, the read/write mix, the
//! synchronization structure and the bandwidth demand that characterize
//! each SPLASH-2 program — over a working set scaled from Table 1 with
//! all capacity ratios preserved (see DESIGN.md §2).
//!
//! A [`Workload`] bundles one [`OpStream`] per processor plus the
//! working-set size the machine geometry is derived from. Streams are
//! deterministic functions of `(application, processor, seed)`.
//!
//! ```
//! use coma_workloads::{AppId, Scale};
//!
//! let wl = AppId::Fft.build(16, 42, Scale::SMOKE);
//! assert_eq!(wl.streams.len(), 16);
//! assert!(wl.ws_bytes > 0);
//! ```

#![forbid(unsafe_code)]

pub mod apps;
pub mod catalog;
pub mod compiled;
pub mod op;
pub mod pattern;
pub mod region;
pub mod stream;
pub mod trace;
pub mod workload;

pub use catalog::AppId;
pub use compiled::{FlatKind, FlatOp, OpArena};
pub use op::{Op, OpStream};
pub use pattern::{BlockWalker, StrideWalker};
pub use region::Region;
pub use stream::{OpBuf, PhaseGen, Scale, Stream};
pub use trace::{record, record_to_file, replay, replay_from_file, TraceStats};
pub use workload::Workload;
