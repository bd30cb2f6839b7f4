//! The observability seam between the protocol engines and everything
//! that counts: a memory system counts [`ProtocolEvent`]s into one
//! [`EventLog`], which derives the report's numbers from the counts.
//!
//! The engines report *what happened* exactly once per event, as one
//! array increment; what an event costs in bus bytes and which counter
//! it feeds is decided here, once, at report time. Every statistic is a
//! plain sum, so deriving them from the final counts is exact.

use crate::traffic::{Traffic, CMD_TXN_BYTES, DATA_TXN_BYTES};

/// One protocol-level event, as emitted by a memory system.
///
/// Each variant corresponds to exactly one global-interconnect transaction
/// or bookkeeping fact; the mapping to bytes/segments (Figures 3–4) lives
/// in this module, not the protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ProtocolEvent {
    /// A remote read fill supplied a Shared copy (data transaction).
    ReadFill,
    /// An ownership upgrade (invalidation broadcast, command only).
    Upgrade,
    /// A read-exclusive fetch (write miss carrying data + invalidation).
    ReadExclusive,
    /// A displaced responsible copy was injected to another node (data).
    Injection,
    /// An injection resolved by migrating ownership to a replica (command).
    OwnershipMigration,
    /// An injection found no receiver machine-wide: OS page-out.
    Pageout,
    /// A Shared replica was silently dropped by replacement (no traffic).
    SharedDrop,
    /// A line was first materialized by on-demand page allocation.
    ColdAlloc,
    /// A dirty private-cache victim was written back to a remote home
    /// (the NUMA baseline's replacement-traffic analogue; data).
    RemoteWriteback,
}

impl ProtocolEvent {
    /// Number of distinct event kinds.
    pub const COUNT: usize = 9;

    /// All event kinds, in [`Self::idx`] order.
    pub const ALL: [ProtocolEvent; Self::COUNT] = [
        ProtocolEvent::ReadFill,
        ProtocolEvent::Upgrade,
        ProtocolEvent::ReadExclusive,
        ProtocolEvent::Injection,
        ProtocolEvent::OwnershipMigration,
        ProtocolEvent::Pageout,
        ProtocolEvent::SharedDrop,
        ProtocolEvent::ColdAlloc,
        ProtocolEvent::RemoteWriteback,
    ];

    /// Index into an event-count array.
    #[inline]
    pub fn idx(self) -> usize {
        self as usize
    }
}

/// Occurrences of each event kind, indexed by [`ProtocolEvent::idx`].
type EventCounts = [u64; ProtocolEvent::COUNT];

/// A memory system's statistics: the count of every protocol event and
/// the report views derived from the counts. Both engines keep one, so
/// a COMA-vs-NUMA comparison divides numbers counted and derived by the
/// same code.
#[derive(Clone, Debug, Default)]
pub struct EventLog {
    counts: EventCounts,
    traffic: Traffic,
    counters: ProtocolCounters,
}

impl EventLog {
    /// Count one protocol event.
    #[inline]
    pub fn emit(&mut self, ev: ProtocolEvent) {
        self.counts[ev.idx()] += 1;
    }

    /// Events counted so far, of every kind.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Derive [`Self::traffic`] and [`Self::counters`] from the counts.
    /// It overwrites the views, so calling it again is harmless.
    pub fn flush(&mut self) {
        (self.traffic, self.counters) = derive_stats(&self.counts);
    }

    /// Interconnect traffic, as of the last [`Self::flush`].
    #[inline]
    pub fn traffic(&self) -> &Traffic {
        &self.traffic
    }

    /// Replacement / allocation counters, as of the last [`Self::flush`].
    #[inline]
    pub fn counters(&self) -> &ProtocolCounters {
        &self.counters
    }
}

/// Replacement / allocation event counters (beyond bus traffic).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProtocolCounters {
    /// Successful injections of displaced responsible copies.
    pub injections: u64,
    /// Injections resolved by migrating ownership to an existing replica.
    pub ownership_migrations: u64,
    /// Shared replicas silently dropped by replacement.
    pub shared_drops: u64,
    /// Injections with no receiver anywhere (OS page-out).
    pub pageouts: u64,
    /// Lines first materialized by on-demand page allocation.
    pub cold_allocs: u64,
    /// Dirty write-backs to a remote home (NUMA baseline only).
    pub remote_writebacks: u64,
}

/// The paper's traffic decomposition and the replacement counters of a
/// run, derived from its event counts. This is the only place the
/// events-to-bytes mapping is written.
fn derive_stats(counts: &EventCounts) -> (Traffic, ProtocolCounters) {
    let n = |ev: ProtocolEvent| counts[ev.idx()];
    let fills = n(ProtocolEvent::ReadFill);
    let upgrades = n(ProtocolEvent::Upgrade);
    let read_exclusives = n(ProtocolEvent::ReadExclusive);
    let migrations = n(ProtocolEvent::OwnershipMigration);
    // Injections, page-outs and remote dirty write-backs all carry the
    // victim line's data: replacement-segment data transactions.
    let replace_data =
        n(ProtocolEvent::Injection) + n(ProtocolEvent::Pageout) + n(ProtocolEvent::RemoteWriteback);
    let traffic = Traffic {
        read_bytes: fills * DATA_TXN_BYTES,
        write_bytes: upgrades * CMD_TXN_BYTES + read_exclusives * DATA_TXN_BYTES,
        replace_bytes: replace_data * DATA_TXN_BYTES + migrations * CMD_TXN_BYTES,
        read_txns: fills,
        write_txns: upgrades + read_exclusives,
        replace_txns: replace_data + migrations,
        pageouts: n(ProtocolEvent::Pageout),
    };
    let counters = ProtocolCounters {
        injections: n(ProtocolEvent::Injection),
        ownership_migrations: migrations,
        shared_drops: n(ProtocolEvent::SharedDrop),
        pageouts: n(ProtocolEvent::Pageout),
        cold_allocs: n(ProtocolEvent::ColdAlloc),
        remote_writebacks: n(ProtocolEvent::RemoteWriteback),
    };
    (traffic, counters)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Counts with one occurrence of each listed event.
    fn once(events: &[ProtocolEvent]) -> EventCounts {
        let mut c = EventCounts::default();
        for ev in events {
            c[ev.idx()] += 1;
        }
        c
    }

    #[test]
    fn events_map_to_traffic_segments() {
        let (t, c) = derive_stats(&once(&[
            ProtocolEvent::ReadFill,
            ProtocolEvent::Upgrade,
            ProtocolEvent::ReadExclusive,
            ProtocolEvent::Injection,
            ProtocolEvent::OwnershipMigration,
        ]));
        assert_eq!(t.read_bytes, DATA_TXN_BYTES);
        assert_eq!(t.write_bytes, CMD_TXN_BYTES + DATA_TXN_BYTES);
        assert_eq!(t.replace_bytes, DATA_TXN_BYTES + CMD_TXN_BYTES);
        assert_eq!((t.read_txns, t.write_txns, t.replace_txns), (1, 2, 2));
        assert_eq!(c.injections, 1);
        assert_eq!(c.ownership_migrations, 1);
    }

    #[test]
    fn read_exclusive_counts_as_write_traffic() {
        let (t, _) = derive_stats(&once(&[ProtocolEvent::ReadExclusive]));
        assert_eq!(t.write_bytes, DATA_TXN_BYTES);
        assert_eq!(t.read_bytes, 0);
    }

    #[test]
    fn bookkeeping_events_move_no_bytes() {
        let (t, c) = derive_stats(&once(&[
            ProtocolEvent::SharedDrop,
            ProtocolEvent::ColdAlloc,
        ]));
        assert_eq!(t.total_bytes(), 0);
        assert_eq!(c.shared_drops, 1);
        assert_eq!(c.cold_allocs, 1);
    }

    #[test]
    fn pageout_counts_in_both_traffic_and_counters() {
        let (t, c) = derive_stats(&once(&[ProtocolEvent::Pageout]));
        assert_eq!(t.pageouts, 1);
        assert_eq!(t.replace_txns, 1);
        assert_eq!(t.replace_bytes, DATA_TXN_BYTES);
        assert_eq!(c.pageouts, 1);
    }

    #[test]
    fn remote_writeback_is_replacement_traffic() {
        let (t, c) = derive_stats(&once(&[ProtocolEvent::RemoteWriteback]));
        assert_eq!(t.replace_bytes, DATA_TXN_BYTES);
        assert_eq!(c.remote_writebacks, 1);
    }

    #[test]
    fn log_views_follow_the_counts_at_each_flush() {
        let mut log = EventLog::default();
        log.emit(ProtocolEvent::ReadFill);
        log.emit(ProtocolEvent::RemoteWriteback);
        assert_eq!(log.total(), 2);
        assert_eq!(log.traffic().total_bytes(), 0, "views moved before a flush");
        log.flush();
        log.flush();
        let (t, c) = derive_stats(&once(&[
            ProtocolEvent::ReadFill,
            ProtocolEvent::RemoteWriteback,
        ]));
        assert_eq!((*log.traffic(), *log.counters()), (t, c));
    }

    #[test]
    fn all_table_matches_discriminant_order() {
        for (i, ev) in ProtocolEvent::ALL.into_iter().enumerate() {
            assert_eq!(ev.idx(), i);
        }
    }

    #[test]
    fn derivation_is_linear_in_the_counts() {
        // Every statistic is a plain sum: n occurrences derive exactly n
        // times what one does, and the views of a sum are the sums of
        // the views.
        let scale = |t: Traffic, k: u64| Traffic {
            read_bytes: t.read_bytes * k,
            write_bytes: t.write_bytes * k,
            replace_bytes: t.replace_bytes * k,
            read_txns: t.read_txns * k,
            write_txns: t.write_txns * k,
            replace_txns: t.replace_txns * k,
            pageouts: t.pageouts * k,
        };
        let mut total = Traffic::default();
        let mut all = EventCounts::default();
        for (i, ev) in ProtocolEvent::ALL.into_iter().enumerate() {
            let k = 3 * i as u64 + 1;
            let mut c = EventCounts::default();
            c[ev.idx()] = k;
            all[ev.idx()] = k;
            let (one, _) = derive_stats(&once(&[ev]));
            let (many, _) = derive_stats(&c);
            assert_eq!(many, scale(one, k), "{ev:?} x{k}");
            total.merge(&many);
        }
        assert_eq!(derive_stats(&all).0, total);
    }
}
