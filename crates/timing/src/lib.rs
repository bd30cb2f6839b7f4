//! Timing model for the cluster-based COMA simulator (paper §3.2).
//!
//! The memory-system simulator "models contention effects for the node
//! controllers, attraction memory DRAMs, second-level caches and the
//! shared bus". Each of those is a [`Resource`]: a FIFO server with a
//! `free_at` horizon, an *occupancy* per use (the bandwidth knob) and a
//! caller-visible latency. Doubling DRAM bandwidth while holding latency
//! constant — the paper's §4.3 experiment — is just halving the occupancy.
//!
//! Writes retire into per-processor write buffers ([`WriteBufferArray`],
//! 10 entries, release consistency): the processor only stalls when the
//! buffer is full or when it must drain at a synchronization release.
//!
//! The [`EventQueue`] orders processor wake-ups so the whole-machine
//! simulation advances the globally earliest processor first, which is
//! what couples the timing model back into the reference interleaving
//! (program-driven simulation's essential property).

#![forbid(unsafe_code)]

pub mod event;
pub mod interconnect;
pub mod resource;
pub mod write_buffer;

pub use event::EventQueue;
pub use interconnect::HierarchicalFabric;
pub use resource::Resource;
pub use write_buffer::WriteBufferArray;
