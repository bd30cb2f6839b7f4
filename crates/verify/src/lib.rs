//! Protocol verification for the COMA coherence engine.
//!
//! Everything the paper measures rides on the E/O/S/I attraction-memory
//! protocol (and the intra-node MSI layer under it) being correct. This
//! crate attacks that from three independent directions:
//!
//! * [`checker`] — an **exhaustive model checker**: BFS over every
//!   reachable machine state of a small configuration (2–4 nodes, flat
//!   or in two cluster groups, a handful of lines, bounded op depth),
//!   with canonicalized state dedup and a counterexample trace printer.
//!   The invariants it asserts are re-implemented here from the protocol
//!   definition (not borrowed from the engine), so an engine bug cannot
//!   hide in a shared checker.
//! * [`fuzz`] — a **differential fuzzer**: seeded random op streams run
//!   through the full engine against a flat sequentially-consistent
//!   oracle that tracks, per physical copy, *which version of the data*
//!   that copy holds. Every read must observe the latest write; failing
//!   streams are shrunk to a minimal reproducer.
//! * The **live invariant auditor** (in `coma-protocol`, armed via
//!   `SimParams::audit` or `CoherenceEngine::set_audit`): re-verifies
//!   every machine-wide invariant after each access that performed a
//!   protocol transaction, during ordinary simulation runs.
//!
//! [`mutant`] seeds deliberate protocol corruptions (e.g. a skipped
//! invalidation) to demonstrate that all three layers actually catch
//! real coherence bugs — a verification tool that has never seen its
//! quarry is untrustworthy.
//!
//! Every configuration shares one machine shape type
//! ([`MachineGeometry`]) and one engine constructor ([`clean_engine`]).
//! [`campaign::run`] is the canned campaign; `coma verify --mode
//! smoke|full` is its command-line entry point.

#![forbid(unsafe_code)]

pub mod campaign;
pub mod checker;
pub mod fuzz;
pub mod mutant;
pub mod snapshot;

use coma_cache::{AcceptPolicy, VictimPolicy};
use coma_protocol::{CoherenceEngine, MemorySystem, Outcome};
use coma_types::{LineNum, MachineGeometry, ProcId};

/// Extract a printable message from a caught panic payload.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "engine panicked".into())
}

/// The clean engine every verification configuration builds: the
/// paper's default victim and accept policies with intra-node transfers
/// on; `inclusive` selects SLC ⊆ AM inclusion.
pub fn clean_engine(geom: MachineGeometry, inclusive: bool) -> CoherenceEngine {
    CoherenceEngine::with_inclusion(
        geom,
        VictimPolicy::SharedFirst,
        AcceptPolicy::InvalidThenShared,
        true,
        inclusive,
    )
}

pub use checker::{CheckConfig, CheckReport, OpLabel, Violation};
pub use fuzz::{FuzzConfig, FuzzFailure, FuzzReport};
pub use mutant::{MutantEngine, Mutation};
pub use snapshot::Snapshot;

/// A protocol implementation under verification: the clean engine, or a
/// deliberately corrupted wrapper around it. `Clone` must produce an
/// independent deep copy — the model checker forks the machine at every
/// explored transition.
pub trait ProtocolModel: Clone {
    fn read(&mut self, proc: ProcId, line: LineNum) -> Outcome;
    fn write(&mut self, proc: ProcId, line: LineNum) -> Outcome;
    /// The underlying engine, for state inspection.
    fn engine(&self) -> &CoherenceEngine;
}

impl ProtocolModel for CoherenceEngine {
    fn read(&mut self, proc: ProcId, line: LineNum) -> Outcome {
        MemorySystem::read(self, proc, line)
    }

    fn write(&mut self, proc: ProcId, line: LineNum) -> Outcome {
        MemorySystem::write(self, proc, line)
    }

    fn engine(&self) -> &CoherenceEngine {
        self
    }
}
