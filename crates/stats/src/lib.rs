//! Statistics for the cluster-based COMA simulator.
//!
//! The paper reports three families of numbers, and this crate carries
//! all of them:
//!
//! * the **Read Node Miss rate** (RNMr, §4.1) — reads that leave the node
//!   as a fraction of *all* reads, tracked by [`AccessCounts`];
//! * **global bus traffic** split into read / write / replacement bytes
//!   (§4.2, Figures 3–4) — [`Traffic`];
//! * the **execution-time breakdown** into Busy / SLC-stall / AM-stall /
//!   Remote-stall (§4.3, Figure 5) — [`ExecBreakdown`].
//!
//! [`SimReport`] bundles one run's worth of everything, and [`table`]
//! renders aligned ASCII tables and CSV for the experiment binaries.

#![forbid(unsafe_code)]

pub mod chart;
pub mod counts;
pub mod events;
pub mod exec;
pub mod histo;
pub mod report;
pub mod table;
pub mod traffic;

pub use chart::{Bar, BarChart, BarGroup};
pub use counts::{AccessCounts, Level};
pub use events::{EventLog, ProtocolCounters, ProtocolEvent};
pub use exec::ExecBreakdown;
pub use histo::LatencyHisto;
pub use report::SimReport;
pub use table::Table;
pub use traffic::Traffic;
