//! Reusable address-pattern walkers.
//!
//! The application models compose these to express their access
//! behaviour: unit-stride and large-stride sweeps (contiguous vs
//! non-contiguous array layouts — the difference between the `cont` and
//! `non` versions of LU and Ocean), and blocked/tiled walks.

use crate::region::Region;
use coma_types::Addr;

/// Walks a region with a fixed line stride, wrapping around; visiting all
/// lines when the stride is coprime with the region length.
#[derive(Clone, Debug)]
pub struct StrideWalker {
    region: Region,
    stride: u64,
    cursor: u64,
}

impl StrideWalker {
    pub fn new(region: Region, stride: u64) -> Self {
        assert!(stride > 0);
        StrideWalker {
            region,
            stride,
            cursor: 0,
        }
    }

    /// Start from a specific line offset.
    pub fn starting_at(region: Region, stride: u64, start: u64) -> Self {
        let mut w = Self::new(region, stride);
        w.cursor = start % region.lines();
        w
    }

    /// Next address in the sweep.
    pub fn next_addr(&mut self) -> Addr {
        let a = self.region.line(self.cursor);
        self.cursor = (self.cursor + self.stride) % self.region.lines();
        a
    }
}

/// Walks a region as a sequence of fixed-size blocks (tiles): all lines of
/// a block are visited consecutively before moving to the next block.
/// Models blocked algorithms (LU-cont, tiled matrix kernels).
#[derive(Clone, Debug)]
pub struct BlockWalker {
    region: Region,
    block_lines: u64,
    block: u64,
    within: u64,
}

impl BlockWalker {
    pub fn new(region: Region, block_lines: u64) -> Self {
        assert!(block_lines > 0);
        BlockWalker {
            region,
            block_lines: block_lines.min(region.lines()),
            block: 0,
            within: 0,
        }
    }

    pub fn n_blocks(&self) -> u64 {
        self.region.lines().div_ceil(self.block_lines)
    }

    /// Jump to block `b` (wrapping).
    pub fn seek_block(&mut self, b: u64) {
        self.block = b % self.n_blocks();
        self.within = 0;
    }

    /// Next address; advances within the block, then to the next block.
    pub fn next_addr(&mut self) -> Addr {
        let line = self.block * self.block_lines + self.within;
        let a = self.region.line(line);
        self.within += 1;
        if self.within >= self.block_lines {
            self.within = 0;
            self.block = (self.block + 1) % self.n_blocks();
        }
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_stride_visits_sequentially() {
        let r = Region::new(0, 4);
        let mut w = StrideWalker::new(r, 1);
        let addrs: Vec<u64> = (0..5).map(|_| w.next_addr().0).collect();
        assert_eq!(addrs, vec![0, 64, 128, 192, 0]);
    }

    #[test]
    fn coprime_stride_visits_all_lines() {
        let r = Region::new(0, 8);
        let mut w = StrideWalker::new(r, 3);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..8 {
            seen.insert(w.next_addr().0);
        }
        assert_eq!(seen.len(), 8);
    }

    #[test]
    fn starting_offset_applies() {
        let r = Region::new(0, 8);
        let mut w = StrideWalker::starting_at(r, 1, 5);
        assert_eq!(w.next_addr().0, 5 * 64);
    }

    #[test]
    fn block_walker_tiles() {
        let r = Region::new(0, 6);
        let mut w = BlockWalker::new(r, 2);
        let addrs: Vec<u64> = (0..6).map(|_| w.next_addr().0 / 64).collect();
        assert_eq!(addrs, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(w.n_blocks(), 3);
    }

    #[test]
    fn seek_block_jumps() {
        let r = Region::new(0, 8);
        let mut w = BlockWalker::new(r, 2);
        w.seek_block(2);
        assert_eq!(w.next_addr().0 / 64, 4);
        assert_eq!(w.next_addr().0 / 64, 5);
        // wraps into block 3
        assert_eq!(w.next_addr().0 / 64, 6);
    }

    #[test]
    fn oversized_block_clamps_to_region() {
        let r = Region::new(0, 3);
        let w = BlockWalker::new(r, 100);
        assert_eq!(w.n_blocks(), 1);
    }
}
