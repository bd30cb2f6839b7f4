//! Byte and cache-line addressing.
//!
//! The entire study uses a fixed 64-byte cache line (paper §3.1) and 4 KB
//! pages allocated consecutively on demand (paper §3). Addresses are plain
//! byte offsets into the application's (scaled) working set; there is no
//! virtual memory translation because the paper allocates physical pages
//! consecutively as they are touched.

use std::fmt;

/// Cache line size in bytes (paper §3.1: "the cache line size has been held
/// at 64 bytes").
pub const LINE_BYTES: u64 = 64;
/// log2 of [`LINE_BYTES`].
pub const LINE_SHIFT: u32 = 6;
/// Largest line number the simulator can hold, `u32::MAX - 1`: the
/// caches and the directory store line numbers narrowed to `u32`, with
/// one value kept as a sentinel.
pub const MAX_LINE: u64 = u32::MAX as u64 - 1;
/// Page size used for on-demand consecutive allocation.
pub const PAGE_BYTES: u64 = 4096;
/// log2 of [`PAGE_BYTES`].
pub const PAGE_SHIFT: u32 = 12;

/// A byte address within the simulated application address space.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr(pub u64);

/// A cache-line number: the byte address shifted right by [`LINE_SHIFT`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LineNum(pub u64);

impl Addr {
    /// The line containing this address.
    #[inline]
    pub fn line(self) -> LineNum {
        LineNum(self.0 >> LINE_SHIFT)
    }

    /// The page number containing this address.
    #[inline]
    pub fn page(self) -> u64 {
        self.0 >> PAGE_SHIFT
    }

    /// Offset of this address within its cache line.
    #[inline]
    pub fn line_offset(self) -> u64 {
        self.0 & (LINE_BYTES - 1)
    }
}

impl LineNum {
    /// Cache set index for a cache with `n_sets` sets.
    ///
    /// Set count does not have to be a power of two: the attraction-memory
    /// size is derived from the working set and the memory pressure, which
    /// yields "odd cache sizes" (paper §3.1), so a modulo mapping is used.
    #[inline]
    pub fn set_index(self, n_sets: u64) -> u64 {
        debug_assert!(n_sets > 0);
        self.0 % n_sets
    }
}

impl fmt::Debug for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Addr({:#x})", self.0)
    }
}

impl fmt::Debug for LineNum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Line({:#x})", self.0)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_of_address() {
        assert_eq!(Addr(0).line(), LineNum(0));
        assert_eq!(Addr(63).line(), LineNum(0));
        assert_eq!(Addr(64).line(), LineNum(1));
        assert_eq!(Addr(6400).line(), LineNum(100));
    }

    #[test]
    fn page_of_address() {
        assert_eq!(Addr(0).page(), 0);
        assert_eq!(Addr(4095).page(), 0);
        assert_eq!(Addr(4096).page(), 1);
    }

    #[test]
    fn line_offset_within_line() {
        assert_eq!(Addr(0).line_offset(), 0);
        assert_eq!(Addr(65).line_offset(), 1);
        assert_eq!(Addr(127).line_offset(), 63);
    }

    #[test]
    fn set_index_non_power_of_two() {
        // 13 sets: lines distribute modulo 13.
        assert_eq!(LineNum(0).set_index(13), 0);
        assert_eq!(LineNum(13).set_index(13), 0);
        assert_eq!(LineNum(14).set_index(13), 1);
    }
}
