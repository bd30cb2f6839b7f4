//! Golden regressions for the production-shaped traffic families:
//! byte-identical report snapshots (like the FFT/Barnes goldens in
//! `memory_system.rs`) pinning both generators under both memory models.
//! Any change here means a generator's op stream or the protocol
//! machinery it exercises changed behavior.

use coma::sim::{run_simulation, MemoryModel, SimParams};
use coma::types::{MemoryPressure, Topology};
use coma::workloads::{AppId, Scale};

/// KV-store parameters from the issue: 2 procs/node at 81.25 % MP —
/// enough pressure that replicas of the hot set start competing with
/// masters for AM capacity.
fn kv_params() -> SimParams {
    let mut params = SimParams::default();
    params.machine.procs_per_node = 2;
    params.machine.memory_pressure = MemoryPressure::MP_81;
    params
}

/// Byte-identical COMA totals for the Zipf key-value family
/// (16 procs, seed 42, SMOKE). Pins the shard-lock transaction path and
/// the hot-line replication behavior.
#[test]
fn golden_kv_zipf_coma_totals() {
    let r = run_simulation(AppId::KvZipf.build(16, 42, Scale::SMOKE), &kv_params());
    assert_eq!(r.counts.total_reads(), 134_436);
    assert_eq!(r.counts.total_writes(), 19_232);
    assert_eq!(r.counts.read_node_misses(), 62_922);
    assert_eq!(r.traffic.read_bytes, 4_530_384);
    assert_eq!(r.traffic.write_bytes, 94_128);
    assert_eq!(r.traffic.replace_bytes, 93_840);
    assert_eq!(r.traffic.read_txns, 62_922);
    assert_eq!(r.traffic.write_txns, 11_750);
    assert_eq!(r.traffic.replace_txns, 2_290);
    assert_eq!(r.injections, 1_180);
    assert_eq!(r.ownership_migrations, 1_110);
    assert_eq!(r.shared_drops, 30_271);
    assert_eq!(r.cold_allocs, 12_867);
    assert_eq!(r.exec_time_ns, 14_728_216);
}

/// The NUMA twin of the test above: same trace, first-touch homes. The
/// hot keys pile onto their home nodes, so node misses rise 62 922 →
/// 91 883 — the replication advantage the EXPERIMENTS.md traffic section
/// quantifies, pinned here byte-for-byte.
#[test]
fn golden_kv_zipf_numa_totals() {
    let mut params = kv_params();
    params.memory_model = MemoryModel::Numa;
    let r = run_simulation(AppId::KvZipf.build(16, 42, Scale::SMOKE), &params);
    assert_eq!(r.counts.total_reads(), 134_436);
    assert_eq!(r.counts.total_writes(), 19_232);
    assert_eq!(r.counts.read_node_misses(), 91_883);
    assert_eq!(r.traffic.read_bytes, 6_615_576);
    assert_eq!(r.traffic.write_bytes, 96_352);
    assert_eq!(r.traffic.replace_bytes, 187_488);
    assert_eq!(r.traffic.read_txns, 91_883);
    assert_eq!(r.traffic.write_txns, 12_036);
    assert_eq!(r.traffic.replace_txns, 2_604);
    assert_eq!(r.injections, 0);
    assert_eq!(r.ownership_migrations, 0);
    assert_eq!(r.shared_drops, 0);
    assert_eq!(r.cold_allocs, 0);
    assert_eq!(r.exec_time_ns, 18_434_619);
}

/// Graph parameters from the issue: 4-processor nodes at the paper's
/// highest pressure (87.5 % MP) — the worst case for attraction
/// memories driving near-uniform traffic.
fn graph_params() -> SimParams {
    let mut params = SimParams::default();
    params.machine.procs_per_node = 4;
    params.machine.memory_pressure = MemoryPressure::MP_87;
    params
}

/// Byte-identical COMA totals for the irregular-graph family
/// (16 procs, seed 42, SMOKE): scattered claims, streamed CSR rows and
/// dependent pointer chases under a wide node.
#[test]
fn golden_graph_bfs_coma_4ppn_totals() {
    let r = run_simulation(AppId::GraphBfs.build(16, 42, Scale::SMOKE), &graph_params());
    assert_eq!(r.counts.total_reads(), 291_655);
    assert_eq!(r.counts.total_writes(), 64_871);
    assert_eq!(r.counts.read_node_misses(), 76_933);
    assert_eq!(r.traffic.read_bytes, 5_539_176);
    assert_eq!(r.traffic.write_bytes, 394_160);
    assert_eq!(r.traffic.replace_bytes, 64_784);
    assert_eq!(r.traffic.read_txns, 76_933);
    assert_eq!(r.traffic.write_txns, 44_990);
    assert_eq!(r.traffic.replace_txns, 986);
    assert_eq!(r.injections, 889);
    assert_eq!(r.ownership_migrations, 97);
    assert_eq!(r.shared_drops, 1_611);
    assert_eq!(r.cold_allocs, 24_208);
    assert_eq!(r.exec_time_ns, 28_380_540);
}

/// The NUMA twin: with no replication at all, nearly every probe of a
/// remote vertex goes to its home (node misses 76 933 → 144 575), and
/// replacement traffic through the fixed home mapping explodes.
#[test]
fn golden_graph_bfs_numa_4ppn_totals() {
    let mut params = graph_params();
    params.memory_model = MemoryModel::Numa;
    let r = run_simulation(AppId::GraphBfs.build(16, 42, Scale::SMOKE), &params);
    assert_eq!(r.counts.total_reads(), 291_655);
    assert_eq!(r.counts.total_writes(), 64_871);
    assert_eq!(r.counts.read_node_misses(), 144_575);
    assert_eq!(r.traffic.read_bytes, 10_409_400);
    assert_eq!(r.traffic.write_bytes, 495_416);
    assert_eq!(r.traffic.replace_bytes, 1_008_072);
    assert_eq!(r.traffic.read_txns, 144_575);
    assert_eq!(r.traffic.write_txns, 57_319);
    assert_eq!(r.traffic.replace_txns, 14_001);
    assert_eq!(r.injections, 0);
    assert_eq!(r.ownership_migrations, 0);
    assert_eq!(r.shared_drops, 0);
    assert_eq!(r.cold_allocs, 0);
    assert_eq!(r.exec_time_ns, 33_067_463);
}

/// Byte-identical COMA totals for the widest machine the simulator
/// runs: FFT on 256 processors, 4 per node, 16 groups on a two-level
/// tree (seed 42, SMOKE, 50 % MP) — the `coma run --procs 256 --ppn 4
/// --groups 16` shape. Pins the driver's event order where the
/// wake-up queue is widest.
#[test]
fn golden_fft_256p_16_groups_totals() {
    let mut params = SimParams::default();
    params.machine.n_procs = 256;
    params.machine.procs_per_node = 4;
    params.machine.topology = Topology {
        n_groups: 16,
        levels: 1,
    };
    let r = run_simulation(AppId::Fft.build(256, 42, Scale::SMOKE), &params);
    assert_eq!(r.counts.total_reads(), 271_358);
    assert_eq!(r.counts.total_writes(), 117_250);
    assert_eq!(r.counts.read_node_misses(), 66_599);
    assert_eq!(r.traffic.read_bytes, 4_795_128);
    assert_eq!(r.traffic.write_bytes, 126_360);
    assert_eq!(r.traffic.replace_bytes, 0);
    assert_eq!(r.traffic.read_txns, 66_599);
    assert_eq!(r.traffic.write_txns, 3_499);
    assert_eq!(r.traffic.replace_txns, 0);
    assert_eq!(r.injections, 0);
    assert_eq!(r.ownership_migrations, 0);
    assert_eq!(r.shared_drops, 62_473);
    assert_eq!(r.cold_allocs, 51_202);
    assert_eq!(r.exec_time_ns, 16_231_824);
}

/// Water n2 on 128 single-processor nodes: 128 nodes, MP 13/16, the
/// hierarchy experiment's 32-group, 3-level tree (seed 42, SMOKE).
fn water_128_params() -> SimParams {
    let mut params = SimParams::default();
    params.machine.n_procs = 128;
    params.machine.procs_per_node = 1;
    params.machine.memory_pressure = MemoryPressure::MP_81;
    params.machine.topology = Topology {
        n_groups: 32,
        levels: 3,
    };
    params
}

/// Byte-identical COMA totals past the directory's 64-node inline
/// sharer mask: molecules read by every node spill their sharer sets,
/// and at 13/16 pressure some AM sets fill machine-wide, so lines are
/// paged out to the OS and paged back in.
#[test]
fn golden_water_n2_128_nodes_coma_totals() {
    let r = run_simulation(
        AppId::WaterN2.build(128, 42, Scale::SMOKE),
        &water_128_params(),
    );
    assert_eq!(r.counts.total_reads(), 41_314);
    assert_eq!(r.counts.total_writes(), 3_834);
    assert_eq!(r.counts.read_node_misses(), 35_618);
    assert_eq!(r.traffic.read_bytes, 2_564_496);
    assert_eq!(r.traffic.write_bytes, 174_416);
    assert_eq!(r.traffic.replace_bytes, 2_577_592);
    assert_eq!(r.traffic.read_txns, 35_618);
    assert_eq!(r.traffic.write_txns, 3_306);
    assert_eq!(r.traffic.replace_txns, 36_919);
    assert_eq!(r.traffic.pageouts, 43);
    assert_eq!(r.injections, 35_617);
    assert_eq!(r.ownership_migrations, 1_259);
    assert_eq!(r.shared_drops, 33_395);
    assert_eq!(r.cold_allocs, 1_097);
    assert_eq!(r.exec_time_ns, 13_100_157);
}

/// The NUMA twin on a flat bus: 128 processors put the home
/// directory's reader sets past its 64-processor inline mask.
#[test]
fn golden_water_n2_128_procs_numa_totals() {
    let mut params = water_128_params();
    params.machine.topology = Topology::flat();
    params.memory_model = MemoryModel::Numa;
    let r = run_simulation(AppId::WaterN2.build(128, 42, Scale::SMOKE), &params);
    assert_eq!(r.counts.total_reads(), 41_314);
    assert_eq!(r.counts.total_writes(), 3_834);
    assert_eq!(r.counts.read_node_misses(), 15_585);
    assert_eq!(r.traffic.read_bytes, 1_122_120);
    assert_eq!(r.traffic.write_bytes, 26_608);
    assert_eq!(r.traffic.replace_bytes, 51_840);
    assert_eq!(r.traffic.read_txns, 15_585);
    assert_eq!(r.traffic.write_txns, 3_310);
    assert_eq!(r.traffic.replace_txns, 720);
    assert_eq!(r.traffic.pageouts, 0);
    assert_eq!(r.injections, 0);
    assert_eq!(r.cold_allocs, 0);
    assert_eq!(r.exec_time_ns, 3_152_813);
}
