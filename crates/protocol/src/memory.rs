//! The [`MemorySystem`] trait: the simulator-facing surface of a whole
//! memory architecture.
//!
//! `coma-sim` drives every machine — the paper's bus-based COMA and the
//! NUMA/UMA baselines alike — through this one interface: issue a read
//! or write, get back an [`Outcome`] for the timing model, and read the
//! accumulated [`Traffic`] and [`ProtocolCounters`] at the end. Adding a
//! new architecture (a flat COMA, a directory NUMA with a remote cache)
//! means implementing this trait, not editing the simulation driver.
//!
//! This module holds the trait and its `Box` forwarding only: each
//! engine's `impl MemorySystem` block, next to its state, is the one
//! definition of its operations, so callers bring the trait into scope
//! to read, write or inspect an engine.

use crate::outcome::Outcome;
use coma_stats::{ProtocolCounters, Traffic};
use coma_types::{LineNum, MachineGeometry, ProcId};
use std::any::Any;

/// A complete memory architecture: caches, coherence, replacement.
///
/// Implementations are purely functional with respect to time; the
/// simulator interprets each [`Outcome`] against the machine's contended
/// resources.
pub trait MemorySystem {
    /// Perform a processor read of `line`.
    fn read(&mut self, proc: ProcId, line: LineNum) -> Outcome;

    /// Perform a processor write of `line` (ownership acquisition).
    fn write(&mut self, proc: ProcId, line: LineNum) -> Outcome;

    /// The machine geometry this system was built for.
    fn geometry(&self) -> &MachineGeometry;

    /// Derive the report views ([`Self::traffic`], [`Self::counters`])
    /// from the system's event counts. The driver calls it once, when it
    /// builds the report. It overwrites the views, so calling it again
    /// is harmless; systems that keep their views current need not
    /// override the no-op default.
    fn flush_stats(&mut self) {}

    /// Global interconnect traffic, as of the last [`Self::flush_stats`].
    fn traffic(&self) -> &Traffic;

    /// Replacement / allocation event counters, as of the last
    /// [`Self::flush_stats`].
    fn counters(&self) -> &ProtocolCounters;

    /// Verify every internal invariant; returns a description of the
    /// first violation.
    fn check_invariants(&self) -> Result<(), String>;

    /// Census over the attraction memories: `(shared, owner, exclusive)`
    /// entries machine-wide. Architectures without AMs report zeros.
    fn am_census(&self) -> (usize, usize, usize) {
        (0, 0, 0)
    }

    /// Escape hatch for tests and diagnostics that need the concrete
    /// engine behind the trait object.
    fn as_any(&self) -> &dyn Any;
}

impl<M: MemorySystem + ?Sized> MemorySystem for Box<M> {
    fn read(&mut self, proc: ProcId, line: LineNum) -> Outcome {
        (**self).read(proc, line)
    }

    fn write(&mut self, proc: ProcId, line: LineNum) -> Outcome {
        (**self).write(proc, line)
    }

    fn geometry(&self) -> &MachineGeometry {
        (**self).geometry()
    }

    fn flush_stats(&mut self) {
        (**self).flush_stats()
    }

    fn traffic(&self) -> &Traffic {
        (**self).traffic()
    }

    fn counters(&self) -> &ProtocolCounters {
        (**self).counters()
    }

    fn check_invariants(&self) -> Result<(), String> {
        (**self).check_invariants()
    }

    fn am_census(&self) -> (usize, usize, usize) {
        (**self).am_census()
    }

    fn as_any(&self) -> &dyn Any {
        (**self).as_any()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::numa::{BaselineEngine, BaselineKind};
    use crate::CoherenceEngine;
    use coma_cache::{AcceptPolicy, VictimPolicy};
    use coma_types::{MachineConfig, MemoryPressure};

    fn geom() -> MachineGeometry {
        let cfg = MachineConfig {
            n_procs: 4,
            procs_per_node: 1,
            memory_pressure: MemoryPressure::MP_50,
            ..Default::default()
        };
        cfg.geometry(64 * 1024).unwrap()
    }

    fn systems() -> Vec<Box<dyn MemorySystem>> {
        vec![
            Box::new(CoherenceEngine::new(
                geom(),
                VictimPolicy::SharedFirst,
                AcceptPolicy::InvalidThenShared,
                true,
            )),
            Box::new(BaselineEngine::new(geom(), BaselineKind::Numa)),
            Box::new(BaselineEngine::new(geom(), BaselineKind::Uma)),
        ]
    }

    #[test]
    fn every_system_serves_the_same_trace() {
        for mut m in systems() {
            m.write(ProcId(0), LineNum(3));
            m.read(ProcId(1), LineNum(3));
            let out = m.read(ProcId(1), LineNum(3));
            assert_eq!(out.level, coma_stats::Level::Flc);
            m.check_invariants().unwrap();
            assert_eq!(m.geometry().n_procs, 4);
        }
    }

    #[test]
    fn downcast_recovers_the_concrete_engine() {
        let systems = systems();
        assert!(systems[0]
            .as_any()
            .downcast_ref::<CoherenceEngine>()
            .is_some());
        assert!(systems[1]
            .as_any()
            .downcast_ref::<BaselineEngine>()
            .is_some());
        assert!(systems[1]
            .as_any()
            .downcast_ref::<CoherenceEngine>()
            .is_none());
    }

    #[test]
    fn census_defaults_to_zero_for_baselines() {
        let mut systems = systems();
        for m in &mut systems {
            m.write(ProcId(0), LineNum(1));
        }
        assert_ne!(systems[0].am_census(), (0, 0, 0));
        assert_eq!(systems[1].am_census(), (0, 0, 0));
    }
}
