//! Whole-machine simulation of the cluster-based COMA multiprocessor.
//!
//! This is the core library of the reproduction: it assembles the
//! coherence protocol (`coma-protocol`), the contention timing model
//! (`coma-timing`) and a workload (`coma-workloads`) into a 16-processor
//! machine and runs it to completion, producing the paper's statistics
//! (`coma-stats`).
//!
//! The simulation is *timing-coupled trace generation*: each processor
//! pulls its next operation from its generator, and the globally earliest
//! processor advances first, so stalls reorder the interleaving exactly
//! as in program-driven simulation. Synchronization (locks, barriers)
//! executes real coherence transactions on dedicated sync lines.
//!
//! # Quickstart
//!
//! ```
//! use coma_sim::{run_simulation, SimParams};
//! use coma_types::MemoryPressure;
//! use coma_workloads::{AppId, Scale};
//!
//! let mut params = SimParams::default();
//! params.machine.procs_per_node = 4;
//! params.machine.memory_pressure = MemoryPressure::MP_50;
//! let workload = AppId::WaterN2.build(16, 42, Scale::SMOKE);
//! let report = run_simulation(workload, &params);
//! assert!(report.exec_time_ns > 0);
//! assert!(report.rnm_rate() < 1.0);
//! ```

#![forbid(unsafe_code)]

pub mod canon;
pub mod machine;
pub mod resources;
pub mod sync;

pub use machine::{run_simulation, MemoryModel, SimParams, Simulation};
pub use resources::MachineResources;
