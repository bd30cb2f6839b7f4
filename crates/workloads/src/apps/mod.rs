//! The 14 SPLASH-2-analogue application models, plus the two
//! production-shaped traffic families (`kv_zipf`, `graph_bfs`).
//!
//! Each module documents which SPLASH-2 program it stands in for, what
//! structural features of that program it reproduces (partitioning,
//! sharing breadth, communication locality, synchronization, bandwidth
//! demand), and which of the paper's figures the application appears in.
//! The traffic families instead document which production access pattern
//! they model and why it stresses attraction memories.
//!
//! All models are deterministic in `(processor, seed)` and respect the
//! scaled Table-1 working-set sizes supplied by the catalog.

pub mod barnes;
pub mod cholesky;
pub mod fft;
pub mod fmm;
pub mod graph_bfs;
pub mod kv_zipf;
pub mod lu;
pub mod ocean;
pub mod radiosity;
pub mod radix;
pub mod raytrace;
pub mod volrend;
pub mod water;

use crate::op::OpStream;
use crate::stream::{proc_rng, PhaseGen, Stream};

/// Build one boxed stream per processor from a per-processor model
/// constructor, with the application's instruction-gap range applied.
pub(crate) fn build_streams<G, F>(
    nprocs: usize,
    seed: u64,
    salt: u64,
    gap: (u32, u32),
    make: F,
) -> Vec<Box<dyn OpStream>>
where
    G: PhaseGen + 'static,
    F: Fn(usize) -> G,
{
    (0..nprocs)
        .map(|me| {
            let rng = proc_rng(seed, salt, me);
            Box::new(Stream::new(make(me), rng, gap)) as Box<dyn OpStream>
        })
        .collect()
}
