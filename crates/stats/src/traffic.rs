//! Global-bus traffic, decomposed as in Figures 3 and 4.
//!
//! Transactions carry either a full cache line (64 bytes of data plus an
//! 8-byte header) or just an address/command (8 bytes). The figures'
//! three segments map to:
//!
//! * **read** — remote read fills (data);
//! * **write** — ownership traffic: upgrades/invalidations (command) and
//!   read-exclusive fetches (data);
//! * **replace** — injections of displaced Owner/Exclusive lines (data),
//!   ownership migrations to an existing replica (command), and page-outs.

/// Bytes on the bus for a transaction carrying a data line.
pub const DATA_TXN_BYTES: u64 = 72;
/// Bytes for an address-only command transaction.
pub const CMD_TXN_BYTES: u64 = 8;

/// Accumulated global-bus traffic for one run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Traffic {
    pub read_bytes: u64,
    pub write_bytes: u64,
    pub replace_bytes: u64,
    pub read_txns: u64,
    pub write_txns: u64,
    pub replace_txns: u64,
    /// Injections that found no receiver and fell back to the OS.
    pub pageouts: u64,
}

impl Traffic {
    /// Total bytes moved over the global bus.
    pub fn total_bytes(&self) -> u64 {
        self.read_bytes + self.write_bytes + self.replace_bytes
    }

    /// Total transactions.
    pub fn total_txns(&self) -> u64 {
        self.read_txns + self.write_txns + self.replace_txns
    }

    pub fn merge(&mut self, o: &Traffic) {
        self.read_bytes += o.read_bytes;
        self.write_bytes += o.write_bytes;
        self.replace_bytes += o.replace_bytes;
        self.read_txns += o.read_txns;
        self.write_txns += o.write_txns;
        self.replace_txns += o.replace_txns;
        self.pageouts += o.pageouts;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Traffic {
        Traffic {
            read_bytes: 2 * DATA_TXN_BYTES,
            write_bytes: CMD_TXN_BYTES,
            replace_bytes: DATA_TXN_BYTES,
            read_txns: 2,
            write_txns: 1,
            replace_txns: 1,
            pageouts: 0,
        }
    }

    #[test]
    fn totals_sum_the_segments() {
        let t = sample();
        assert_eq!(t.total_txns(), 4);
        assert_eq!(t.total_bytes(), 3 * DATA_TXN_BYTES + CMD_TXN_BYTES);
    }

    #[test]
    fn merge_sums_everything() {
        let mut a = sample();
        let b = Traffic {
            replace_txns: 2,
            pageouts: 1,
            ..Traffic::default()
        };
        a.merge(&b);
        assert_eq!(a.read_txns, 2);
        assert_eq!(a.replace_txns, 3);
        assert_eq!(a.pageouts, 1);
    }
}
