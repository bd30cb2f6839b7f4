//! The complete result of one simulation run.

use crate::counts::AccessCounts;
use crate::exec::ExecBreakdown;
use crate::histo::LatencyHisto;
use crate::traffic::Traffic;
use coma_types::Nanos;

/// Everything a single simulation produced. `Eq` is exact — the
/// byte-identity differential tests (gap fusion) compare whole reports.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SimReport {
    /// Wall-clock of the simulated parallel section: the time at which the
    /// last processor finished.
    pub exec_time_ns: Nanos,
    /// Machine-wide access counters.
    pub counts: AccessCounts,
    /// Global-bus traffic.
    pub traffic: Traffic,
    /// Per-processor execution-time breakdowns (index = processor id).
    pub per_proc: Vec<ExecBreakdown>,
    /// Total attraction-memory injections (successful relocations).
    pub injections: u64,
    /// Injections resolved by migrating ownership to an existing replica.
    pub ownership_migrations: u64,
    /// Shared replicas silently dropped by replacements.
    pub shared_drops: u64,
    /// Lines first materialized by on-demand page allocation.
    pub cold_allocs: u64,
    /// Global-bus busy time (for utilization).
    pub bus_busy_ns: Nanos,
    /// Sum of AM DRAM busy time across nodes.
    pub dram_busy_ns: Nanos,
    /// Distribution of read latencies (all processors).
    pub read_latency: LatencyHisto,
}

impl SimReport {
    /// Machine-average execution breakdown.
    pub fn avg_breakdown(&self) -> ExecBreakdown {
        let mut total = ExecBreakdown::default();
        for b in &self.per_proc {
            total.merge(b);
        }
        if self.per_proc.is_empty() {
            return total;
        }
        let n = self.per_proc.len() as u64;
        ExecBreakdown {
            busy_ns: total.busy_ns / n,
            slc_ns: total.slc_ns / n,
            am_ns: total.am_ns / n,
            remote_ns: total.remote_ns / n,
            sync_ns: total.sync_ns / n,
        }
    }

    /// The paper's Read Node Miss rate.
    pub fn rnm_rate(&self) -> f64 {
        self.counts.rnm_rate()
    }

    /// Global-bus utilization over the run.
    pub fn bus_utilization(&self) -> f64 {
        if self.exec_time_ns == 0 {
            0.0
        } else {
            self.bus_busy_ns as f64 / self.exec_time_ns as f64
        }
    }

    /// Bus bytes per processor read+write (traffic intensity).
    pub fn bytes_per_ref(&self) -> f64 {
        let refs = self.counts.total_reads() + self.counts.total_writes();
        if refs == 0 {
            0.0
        } else {
            self.traffic.total_bytes() as f64 / refs as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counts::Level;
    use crate::traffic::DATA_TXN_BYTES;

    #[test]
    fn avg_breakdown_divides_by_procs() {
        let r = SimReport {
            per_proc: vec![
                ExecBreakdown {
                    busy_ns: 10,
                    ..Default::default()
                },
                ExecBreakdown {
                    busy_ns: 30,
                    ..Default::default()
                },
            ],
            ..Default::default()
        };
        assert_eq!(r.avg_breakdown().busy_ns, 20);
    }

    #[test]
    fn empty_report_is_safe() {
        let r = SimReport::default();
        assert_eq!(r.rnm_rate(), 0.0);
        assert_eq!(r.bus_utilization(), 0.0);
        assert_eq!(r.bytes_per_ref(), 0.0);
        assert_eq!(r.avg_breakdown(), ExecBreakdown::default());
    }

    #[test]
    fn bytes_per_ref_uses_all_refs() {
        let mut r = SimReport::default();
        r.counts.record_read(Level::Flc);
        r.counts.record_write(Level::Flc);
        r.traffic.read_bytes = DATA_TXN_BYTES;
        assert!((r.bytes_per_ref() - 36.0).abs() < 1e-12);
    }
}
