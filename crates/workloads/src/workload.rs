//! A complete workload: one operation stream per processor plus the
//! metadata the simulator needs to size the machine and map
//! synchronization ids to cache lines.

use crate::op::OpStream;
use coma_types::{Addr, LineNum, LINE_BYTES};

/// A ready-to-run workload.
pub struct Workload {
    /// Application name (Table 1 spelling).
    pub name: &'static str,
    /// Data working-set size in bytes; the machine geometry (SLC and AM
    /// sizes) is derived from this, exactly as in the paper.
    pub ws_bytes: u64,
    /// Number of distinct locks the streams may reference.
    pub n_locks: u32,
    /// One stream per processor, index = processor id.
    pub streams: Vec<Box<dyn OpStream>>,
}

impl Workload {
    /// Address of the line backing lock `id`. Sync lines live immediately
    /// above the data working set (their AM footprint is negligible but
    /// their coherence traffic is real).
    pub fn lock_addr(&self, id: u32) -> Addr {
        assert!(id < self.n_locks, "lock id {id} out of range");
        Addr(self.sync_base() + id as u64 * LINE_BYTES)
    }

    /// Address of the barrier counter line (lock-protected arrival count).
    pub fn barrier_counter_addr(&self) -> Addr {
        Addr(self.sync_base() + self.n_locks as u64 * LINE_BYTES)
    }

    /// Address of the barrier release-flag line (read-shared spin target,
    /// invalidated on release so every waiter re-fetches it).
    pub fn barrier_flag_addr(&self) -> Addr {
        Addr(self.sync_base() + (self.n_locks as u64 + 1) * LINE_BYTES)
    }

    /// First byte above the data working set, line-aligned.
    fn sync_base(&self) -> u64 {
        self.ws_bytes.div_ceil(LINE_BYTES) * LINE_BYTES
    }

    /// Total address-space lines including sync lines.
    pub fn total_lines(&self) -> u64 {
        self.ws_bytes.div_ceil(LINE_BYTES) + self.n_locks as u64 + 2
    }

    /// Line number of the highest sync line.
    pub fn last_sync_line(&self) -> LineNum {
        self.barrier_flag_addr().line()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Op;

    struct Empty;
    impl OpStream for Empty {
        fn next_op(&mut self) -> Option<Op> {
            None
        }
    }

    fn wl(ws: u64, n_locks: u32) -> Workload {
        Workload {
            name: "test",
            ws_bytes: ws,
            n_locks,
            streams: vec![Box::new(Empty)],
        }
    }

    #[test]
    fn sync_lines_above_working_set() {
        let w = wl(1000, 3); // ws rounds to 1024
        assert_eq!(w.lock_addr(0), Addr(1024));
        assert_eq!(w.lock_addr(2), Addr(1024 + 128));
        assert_eq!(w.barrier_counter_addr(), Addr(1024 + 192));
        assert_eq!(w.barrier_flag_addr(), Addr(1024 + 256));
    }

    #[test]
    fn sync_addrs_are_distinct_lines() {
        let w = wl(4096, 4);
        let mut lines: Vec<u64> = (0..4).map(|i| w.lock_addr(i).line().0).collect();
        lines.push(w.barrier_counter_addr().line().0);
        lines.push(w.barrier_flag_addr().line().0);
        lines.sort_unstable();
        lines.dedup();
        assert_eq!(lines.len(), 6);
    }

    #[test]
    #[should_panic]
    fn out_of_range_lock_panics() {
        wl(4096, 2).lock_addr(2);
    }

    #[test]
    fn total_lines_counts_everything() {
        let w = wl(128, 1);
        // 2 data lines + 1 lock + 2 barrier lines
        assert_eq!(w.total_lines(), 5);
        assert_eq!(w.last_sync_line().0, 4);
    }
}
