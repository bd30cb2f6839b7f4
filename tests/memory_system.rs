//! The layering contract: every memory architecture runs through the
//! same `dyn MemorySystem` surface, and the refactor that introduced it
//! changed no numbers — a golden regression pins the exact RNMr and
//! traffic totals captured before the engines moved behind the trait.

use coma::protocol::{BaselineEngine, BaselineKind, CoherenceEngine, MemorySystem};
use coma::sim::{run_simulation, MemoryModel, SimParams, Simulation};
use coma::stats::{Level, SimReport};
use coma::types::{LineNum, MachineConfig, MemoryPressure, ProcId, Rng64};
use coma::workloads::{AppId, Scale};

fn all_systems() -> Vec<(&'static str, Box<dyn MemorySystem>)> {
    let cfg = MachineConfig {
        n_procs: 8,
        procs_per_node: 2,
        memory_pressure: MemoryPressure::MP_75,
        ..Default::default()
    };
    let geom = cfg.geometry(128 * 1024).unwrap();
    vec![
        (
            "coma",
            Box::new(CoherenceEngine::new(
                geom,
                coma::cache::VictimPolicy::SharedFirst,
                coma::cache::AcceptPolicy::InvalidThenShared,
                true,
            )) as Box<dyn MemorySystem>,
        ),
        (
            "numa",
            Box::new(BaselineEngine::new(geom, BaselineKind::Numa)),
        ),
        (
            "uma",
            Box::new(BaselineEngine::new(geom, BaselineKind::Uma)),
        ),
    ]
}

/// The same synthetic trace drives every engine through the trait
/// object: all invariants hold, every read is eventually node-local
/// once cached, and traffic only ever grows.
#[test]
fn trait_object_smoke_all_architectures() {
    for (name, mut m) in all_systems() {
        let mut rng = Rng64::new(0xD15C);
        let mut last_bytes = 0;
        for i in 0..10_000 {
            let p = ProcId(rng.below(8) as u16);
            let l = LineNum(rng.below(1200));
            if rng.chance(0.35) {
                m.write(p, l);
            } else {
                m.read(p, l);
            }
            m.flush_stats();
            let bytes = m.traffic().total_bytes();
            assert!(bytes >= last_bytes, "{name}: traffic shrank at op {i}");
            last_bytes = bytes;
        }
        m.check_invariants()
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        // A cached line is served without touching the bus.
        m.read(ProcId(0), LineNum(7));
        m.flush_stats();
        let before = m.traffic().total_txns();
        m.read(ProcId(0), LineNum(7));
        m.flush_stats();
        assert_eq!(m.traffic().total_txns(), before, "{name}: rehit used bus");
    }
}

/// An externally built engine runs under the standard driver via
/// `Simulation::with_memory`, and the driver can hand it back.
#[test]
fn simulation_accepts_external_memory_system() {
    let params = SimParams::default();
    let wl = AppId::WaterSp.build(16, 8, Scale::SMOKE);
    let geom = params.machine.geometry(wl.ws_bytes).unwrap();
    let mem: Box<dyn MemorySystem> = Box::new(BaselineEngine::new(geom, BaselineKind::Numa));
    let sim = Simulation::with_memory(wl, &params, mem);
    assert!(sim.engine().is_none(), "baseline downcast to COMA engine");
    let r = sim.run_checked().expect("invariants hold");
    assert!(r.exec_time_ns > 0);
    assert_eq!(r.injections, 0, "baselines never inject");
}

fn golden_params() -> SimParams {
    let mut params = SimParams::default();
    params.machine.procs_per_node = 2;
    params.machine.memory_pressure = MemoryPressure::MP_81;
    params
}

/// Byte-identical COMA totals, captured on the pre-refactor engine
/// (FFT, 16 procs, seed 42, SMOKE, 2 procs/node, 81.25% MP). Any
/// change here means the layered refactor altered protocol behavior.
#[test]
fn golden_coma_totals_unchanged_by_refactor() {
    let r = run_simulation(AppId::Fft.build(16, 42, Scale::SMOKE), &golden_params());
    assert_eq!(r.counts.total_reads(), 230_462);
    assert_eq!(r.counts.total_writes(), 76_834);
    assert_eq!(r.counts.read_node_misses(), 22_041);
    assert_eq!(r.traffic.read_bytes, 1_586_952);
    assert_eq!(r.traffic.write_bytes, 376);
    assert_eq!(r.traffic.replace_bytes, 184_192);
    assert_eq!(r.traffic.read_txns, 22_041);
    assert_eq!(r.traffic.write_txns, 31);
    assert_eq!(r.traffic.replace_txns, 5_824);
    assert_eq!(r.injections, 2_150);
    assert_eq!(r.ownership_migrations, 3_674);
    assert_eq!(r.shared_drops, 8_646);
    assert_eq!(r.cold_allocs, 51_202);
    assert_eq!(r.exec_time_ns, 7_521_891);
}

/// Byte-identical totals for a lock-heavy application (Radiosity: 16-way
/// critical sections plus barriers) at the paper's highest memory
/// pressure, captured before the hot-path data-structure overhaul. This
/// pins the synchronization and injection machinery, which the FFT
/// golden barely exercises.
#[test]
fn golden_radiosity_totals_unchanged() {
    let mut params = SimParams::default();
    params.machine.procs_per_node = 2;
    params.machine.memory_pressure = MemoryPressure::MP_87;
    let r = run_simulation(AppId::Radiosity.build(16, 42, Scale::SMOKE), &params);
    assert_eq!(r.counts.total_reads(), 128_031);
    assert_eq!(r.counts.total_writes(), 38_417);
    assert_eq!(r.counts.read_node_misses(), 22_209);
    assert_eq!(r.traffic.read_bytes, 1_599_048);
    assert_eq!(r.traffic.write_bytes, 96_296);
    assert_eq!(r.traffic.replace_bytes, 31_584);
    assert_eq!(r.traffic.read_txns, 22_209);
    assert_eq!(r.traffic.write_txns, 12_013);
    assert_eq!(r.traffic.replace_txns, 692);
    assert_eq!(r.injections, 407);
    assert_eq!(r.ownership_migrations, 285);
    assert_eq!(r.shared_drops, 2_547);
    assert_eq!(r.cold_allocs, 17_263);
    assert_eq!(r.exec_time_ns, 5_781_143);
}

/// Byte-identical totals for a 4-processors-per-node cluster (OceanNon),
/// pinning the intra-node peer-SLC machinery under a wide node.
#[test]
fn golden_ocean_4ppn_totals_unchanged() {
    let mut params = SimParams::default();
    params.machine.procs_per_node = 4;
    params.machine.memory_pressure = MemoryPressure::MP_81;
    let r = run_simulation(AppId::OceanNon.build(16, 42, Scale::SMOKE), &params);
    assert_eq!(r.counts.total_reads(), 43_994);
    assert_eq!(r.counts.total_writes(), 14_678);
    assert_eq!(r.counts.read_node_misses(), 12_717);
    assert_eq!(r.traffic.read_bytes, 915_624);
    assert_eq!(r.traffic.write_bytes, 90_856);
    assert_eq!(r.traffic.replace_bytes, 49_960);
    assert_eq!(r.traffic.read_txns, 12_717);
    assert_eq!(r.traffic.write_txns, 11_341);
    assert_eq!(r.traffic.replace_txns, 725);
    assert_eq!(r.injections, 690);
    assert_eq!(r.ownership_migrations, 35);
    assert_eq!(r.shared_drops, 478);
    assert_eq!(r.cold_allocs, 14_646);
    assert_eq!(r.exec_time_ns, 3_597_413);
}

/// Barnes on 16 processors, 4 per node, at 87.5 % MP with `assoc`-way
/// AMs and `tweak` applied to the machine (seed 42, SMOKE).
fn barnes_4ppn_mp87(assoc: usize, tweak: impl FnOnce(&mut MachineConfig)) -> SimReport {
    let mut params = SimParams::default();
    params.machine.procs_per_node = 4;
    params.machine.memory_pressure = MemoryPressure::MP_87;
    params.machine.am_assoc = assoc;
    tweak(&mut params.machine);
    run_simulation(AppId::Barnes.build(16, 42, Scale::SMOKE), &params)
}

/// Byte-identical totals for Barnes at the paper's Fig-4 blowup point
/// (ppn=4, 87.5% MP, default 4-way AM): the configuration where conflict
/// misses dominate — replacement traffic and injections are at their
/// worst. Together with the 8-way twin below this pins the conflict-miss
/// recovery story byte-for-byte.
#[test]
fn golden_barnes_4ppn_mp87_4way_totals_unchanged() {
    let r = barnes_4ppn_mp87(4, |_| {});
    assert_eq!(r.counts.total_reads(), 64_892);
    assert_eq!(r.counts.total_writes(), 7_620);
    assert_eq!(r.counts.read_node_misses(), 17_679);
    assert_eq!(r.traffic.read_bytes, 1_272_888);
    assert_eq!(r.traffic.write_bytes, 27_096);
    assert_eq!(r.traffic.replace_bytes, 745_016);
    assert_eq!(r.traffic.read_txns, 17_679);
    assert_eq!(r.traffic.write_txns, 3_291);
    assert_eq!(r.traffic.replace_txns, 10_975);
    assert_eq!(r.injections, 10_269);
    assert_eq!(r.ownership_migrations, 706);
    assert_eq!(r.shared_drops, 13_922);
    assert_eq!(r.cold_allocs, 3_594);
    assert_eq!(r.exec_time_ns, 5_967_601);
}

/// Barnes at the same ppn=4, 87.5 % MP, 4-way point with SLC/AM
/// inclusion off (the `inclusion` experiment's knob): SLC copies outlive
/// their AM entries, so this pins the non-inclusive sharer bookkeeping
/// and the residency-filter probes no other golden reaches.
#[test]
fn golden_barnes_4ppn_mp87_4way_noninclusive_totals_unchanged() {
    let r = barnes_4ppn_mp87(4, |m| m.inclusive_hierarchy = false);
    assert_eq!(r.counts.total_reads(), 64_892);
    assert_eq!(r.counts.read_node_misses(), 12_546);
    assert_eq!(r.traffic.read_bytes, 903_312);
    assert_eq!(r.traffic.write_bytes, 28_304);
    assert_eq!(r.traffic.replace_bytes, 394_928);
    assert_eq!(r.injections, 5_405);
    assert_eq!(r.ownership_migrations, 721);
    assert_eq!(r.shared_drops, 8_812);
    assert_eq!(r.cold_allocs, 3_594);
    assert_eq!(r.exec_time_ns, 4_194_787);
}

/// The same point with intra-node peer-SLC transfers off (`ablation`
/// variant 6): every private-cache miss goes to the AM or the bus, so
/// this pins the path a wide node takes without peer supplies.
#[test]
fn golden_barnes_4ppn_mp87_4way_no_peer_transfers_totals_unchanged() {
    let r = barnes_4ppn_mp87(4, |m| m.intra_node_transfers = false);
    assert_eq!(r.counts.total_reads(), 64_892);
    assert_eq!(r.counts.read_node_misses(), 17_715);
    assert_eq!(r.traffic.read_bytes, 1_275_480);
    assert_eq!(r.traffic.write_bytes, 26_560);
    assert_eq!(r.traffic.replace_bytes, 753_288);
    assert_eq!(r.injections, 10_384);
    assert_eq!(r.ownership_migrations, 705);
    assert_eq!(r.shared_drops, 13_976);
    assert_eq!(r.cold_allocs, 3_594);
    assert_eq!(r.exec_time_ns, 5_998_828);
}

/// The 8-way twin of the test above: doubling AM associativity at the
/// same pressure recovers most of the conflict-miss blowup (replacement
/// transactions drop 10 975 → 1 872, node misses 17 679 → 11 204),
/// which is the paper's §4.2 associativity argument in miniature.
#[test]
fn golden_barnes_4ppn_mp87_8way_totals_unchanged() {
    let r = barnes_4ppn_mp87(8, |_| {});
    assert_eq!(r.counts.total_reads(), 64_892);
    assert_eq!(r.counts.total_writes(), 7_620);
    assert_eq!(r.counts.read_node_misses(), 11_204);
    assert_eq!(r.traffic.read_bytes, 806_688);
    assert_eq!(r.traffic.write_bytes, 23_008);
    assert_eq!(r.traffic.replace_bytes, 122_496);
    assert_eq!(r.traffic.read_txns, 11_204);
    assert_eq!(r.traffic.write_txns, 2_820);
    assert_eq!(r.traffic.replace_txns, 1_872);
    assert_eq!(r.injections, 1_680);
    assert_eq!(r.ownership_migrations, 192);
    assert_eq!(r.shared_drops, 8_635);
    assert_eq!(r.cold_allocs, 3_594);
    assert_eq!(r.exec_time_ns, 3_439_349);
}

/// Byte-identical NUMA-baseline totals from the same capture.
#[test]
fn golden_numa_totals_unchanged_by_refactor() {
    let mut params = golden_params();
    params.memory_model = MemoryModel::Numa;
    let r = run_simulation(AppId::Fft.build(16, 42, Scale::SMOKE), &params);
    assert_eq!(r.counts.total_reads(), 230_462);
    assert_eq!(r.counts.total_writes(), 76_834);
    assert_eq!(r.counts.read_node_misses(), 22_454);
    assert_eq!(r.traffic.read_bytes, 1_616_688);
    assert_eq!(r.traffic.write_bytes, 392);
    assert_eq!(r.traffic.replace_bytes, 72);
    assert_eq!(r.traffic.read_txns, 22_454);
    assert_eq!(r.traffic.write_txns, 33);
    assert_eq!(r.traffic.replace_txns, 1);
    assert_eq!(r.injections, 0);
    assert_eq!(r.exec_time_ns, 6_958_843);
}

/// NUMA homes are first-touch and fixed: on a 4-processors-per-node
/// machine, every line's home is the node of the first processor that
/// touched any line of its 4 KiB page, for every later access. A
/// `Remote` outcome names the home; an `Am` outcome is served by the
/// requester's own node, which must then be the home.
#[test]
fn numa_homes_are_the_first_touchers_node_per_page() {
    let cfg = MachineConfig {
        n_procs: 16,
        procs_per_node: 4,
        memory_pressure: MemoryPressure::MP_50,
        ..Default::default()
    };
    let mut m = BaselineEngine::new(cfg.geometry(256 * 1024).unwrap(), BaselineKind::Numa);
    // 4 KiB pages of 64-byte lines.
    let page_of = |l: LineNum| l.0 / 64;
    let mut homes = std::collections::HashMap::new();
    let mut rng = Rng64::new(0x40E5);
    let (mut remote, mut local) = (0, 0);
    for _ in 0..40_000 {
        let p = ProcId(rng.below(16) as u16);
        let l = LineNum(rng.below(64 * 48));
        let node = p.node(4);
        let home = *homes.entry(page_of(l)).or_insert(node);
        let out = if rng.chance(0.3) {
            m.write(p, l)
        } else {
            m.read(p, l)
        };
        match out.level {
            Level::Remote => {
                assert_eq!(out.remote_node, Some(home), "{p:?} {l:?}");
                remote += 1;
            }
            Level::Am => {
                assert_eq!(node, home, "{p:?} {l:?} served locally off its home");
                local += 1;
            }
            _ => {}
        }
    }
    m.check_invariants().unwrap();
    assert!(
        remote > 1_000 && local > 1_000,
        "{remote} remote, {local} local"
    );
}
