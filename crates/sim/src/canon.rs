//! Canonical field enumeration and stable hashing of simulation configs.
//!
//! The sweep engine's result cache (coma-experiments) keys cached runs by
//! a 64-bit hash of everything that determines a simulation's output. For
//! that key to be trustworthy it must
//!
//! * cover **every** sweep-relevant [`SimParams`] field — a field the hash
//!   misses would let a changed configuration be served a stale result;
//! * be **canonical** — independent of the order fields are visited in, so
//!   refactoring the walk (or a struct) can never silently change keys;
//! * be **stable** across runs and platforms — no pointer values, no
//!   `Hash`-trait randomization, fixed-width little-endian encoding.
//!
//! [`walk_params`] destructures `SimParams` and its sub-structs
//! *exhaustively* (no `..` patterns), so adding a field to any of them is
//! a compile error here until the walk is updated — the canonicalizer can
//! not drift out of sync with the config structs. [`FieldWalk::hash`]
//! sorts the named fields before hashing, giving order independence, and
//! uses FNV-1a over the name and the value's little-endian bytes.

use crate::machine::{MemoryModel, SimParams};
use coma_cache::{AcceptPolicy, VictimPolicy};
use coma_types::{LatencyConfig, MachineConfig, MemoryPressure, Topology};

/// FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Fold `bytes` into an FNV-1a 64-bit hash state.
#[inline]
pub fn fnv1a_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Fold one `u64` (as little-endian bytes) into an FNV-1a hash state.
#[inline]
pub fn fnv1a_u64(h: u64, v: u64) -> u64 {
    fnv1a_bytes(h, &v.to_le_bytes())
}

/// An ordered collection of named scalar fields, hashed canonically.
///
/// Every field is reduced to a `u64` (bools as 0/1, enums as their
/// variant index, `f64`s as their bit pattern). Names must be unique;
/// [`FieldWalk::hash`] asserts this, because a duplicate would make two
/// different configs collide by construction.
#[derive(Clone, Debug, Default)]
pub struct FieldWalk {
    fields: Vec<(&'static str, u64)>,
}

impl FieldWalk {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one field. Insertion order does not affect the hash.
    pub fn field(&mut self, name: &'static str, value: u64) {
        self.fields.push((name, value));
    }

    /// The names of every recorded field (insertion order).
    pub fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.fields.iter().map(|(n, _)| *n)
    }

    pub fn len(&self) -> usize {
        self.fields.len()
    }

    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Canonical hash: fields sorted by name, then FNV-1a over
    /// `name \0 value_le` per field. Panics on duplicate names.
    pub fn hash(&self) -> u64 {
        let mut sorted = self.fields.clone();
        sorted.sort_by_key(|(n, _)| *n);
        for w in sorted.windows(2) {
            assert_ne!(w[0].0, w[1].0, "duplicate canonical field '{}'", w[0].0);
        }
        let mut h = FNV_OFFSET;
        for (name, value) in &sorted {
            h = fnv1a_bytes(h, name.as_bytes());
            h = fnv1a_bytes(h, &[0]);
            h = fnv1a_u64(h, *value);
        }
        h
    }
}

fn victim_code(p: VictimPolicy) -> u64 {
    match p {
        VictimPolicy::SharedFirst => 0,
        VictimPolicy::StrictLru => 1,
    }
}

fn accept_code(p: AcceptPolicy) -> u64 {
    match p {
        AcceptPolicy::InvalidThenShared => 0,
        AcceptPolicy::SharedThenInvalid => 1,
        AcceptPolicy::FirstFit => 2,
    }
}

fn model_code(m: MemoryModel) -> u64 {
    match m {
        MemoryModel::Coma => 0,
        MemoryModel::Numa => 1,
        MemoryModel::Uma => 2,
    }
}

/// Walk every field of `SimParams` into a [`FieldWalk`].
///
/// The destructuring patterns are exhaustive on purpose: a new field in
/// `SimParams`, `MachineConfig` or `LatencyConfig` fails to compile here
/// until it is given a canonical name and encoding.
pub fn walk_params(p: &SimParams) -> FieldWalk {
    let SimParams {
        machine,
        latency,
        victim_policy,
        accept_policy,
        memory_model,
        audit,
    } = p;
    let MachineConfig {
        n_procs,
        procs_per_node,
        slc_ws_ratio,
        am_assoc,
        memory_pressure,
        write_buffer_entries,
        intra_node_transfers,
        inclusive_hierarchy,
        topology,
    } = machine;
    let MemoryPressure { num, den } = memory_pressure;
    let Topology { n_groups, levels } = topology;
    let LatencyConfig {
        slc_ns,
        slc_occ_ns,
        ctrl_ns,
        ctrl_occ_ns,
        dram_ns,
        dram_occ_ns,
        bus_ns,
        bus_occ_ns,
        remote_extra_ns,
        pageout_ns,
        link_ns,
        link_occ_ns,
    } = latency;

    let mut w = FieldWalk::new();
    w.field("machine.n_procs", *n_procs as u64);
    w.field("machine.procs_per_node", *procs_per_node as u64);
    w.field("machine.slc_ws_ratio", *slc_ws_ratio);
    w.field("machine.am_assoc", *am_assoc as u64);
    w.field("machine.memory_pressure.num", *num as u64);
    w.field("machine.memory_pressure.den", *den as u64);
    w.field("machine.write_buffer_entries", *write_buffer_entries as u64);
    w.field("machine.intra_node_transfers", *intra_node_transfers as u64);
    w.field("machine.inclusive_hierarchy", *inclusive_hierarchy as u64);
    w.field("machine.topology.n_groups", *n_groups as u64);
    w.field("machine.topology.levels", *levels as u64);
    w.field("latency.slc_ns", *slc_ns);
    w.field("latency.slc_occ_ns", *slc_occ_ns);
    w.field("latency.ctrl_ns", *ctrl_ns);
    w.field("latency.ctrl_occ_ns", *ctrl_occ_ns);
    w.field("latency.dram_ns", *dram_ns);
    w.field("latency.dram_occ_ns", *dram_occ_ns);
    w.field("latency.bus_ns", *bus_ns);
    w.field("latency.bus_occ_ns", *bus_occ_ns);
    w.field("latency.remote_extra_ns", *remote_extra_ns);
    w.field("latency.pageout_ns", *pageout_ns);
    w.field("latency.link_ns", *link_ns);
    w.field("latency.link_occ_ns", *link_occ_ns);
    w.field("victim_policy", victim_code(*victim_policy));
    w.field("accept_policy", accept_code(*accept_policy));
    w.field("memory_model", model_code(*memory_model));
    w.field("audit", *audit as u64);
    w
}

/// The canonical 64-bit hash of a `SimParams`.
pub fn config_hash(p: &SimParams) -> u64 {
    walk_params(p).hash()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn insertion_order_does_not_matter() {
        let mut a = FieldWalk::new();
        a.field("x", 1);
        a.field("y", 2);
        a.field("z", 3);
        let mut b = FieldWalk::new();
        b.field("z", 3);
        b.field("x", 1);
        b.field("y", 2);
        assert_eq!(a.hash(), b.hash());
    }

    #[test]
    fn name_and_value_both_matter() {
        let mut a = FieldWalk::new();
        a.field("x", 1);
        let mut b = FieldWalk::new();
        b.field("x", 2);
        let mut c = FieldWalk::new();
        c.field("y", 1);
        assert_ne!(a.hash(), b.hash());
        assert_ne!(a.hash(), c.hash());
    }

    #[test]
    #[should_panic(expected = "duplicate canonical field")]
    fn duplicate_names_are_rejected() {
        let mut w = FieldWalk::new();
        w.field("x", 1);
        w.field("x", 2);
        w.hash();
    }

    #[test]
    fn default_params_hash_is_stable_within_a_run() {
        let p = SimParams::default();
        assert_eq!(config_hash(&p), config_hash(&p.clone()));
    }

    /// Every field the canonicalizer emits must change the hash when the
    /// corresponding `SimParams` field changes — and the mutation list
    /// below must cover exactly the emitted field set, so a new field
    /// cannot land without a sensitivity check.
    #[test]
    fn every_canonical_field_changes_the_hash() {
        type Mutation = (&'static str, fn(&mut SimParams));
        let mutations: &[Mutation] = &[
            ("machine.n_procs", |p| p.machine.n_procs = 8),
            ("machine.procs_per_node", |p| p.machine.procs_per_node = 4),
            ("machine.slc_ws_ratio", |p| p.machine.slc_ws_ratio = 64),
            ("machine.am_assoc", |p| p.machine.am_assoc = 8),
            ("machine.memory_pressure.num", |p| {
                p.machine.memory_pressure = MemoryPressure::new(14, 16)
            }),
            ("machine.memory_pressure.den", |p| {
                p.machine.memory_pressure = MemoryPressure::new(8, 32)
            }),
            ("machine.write_buffer_entries", |p| {
                p.machine.write_buffer_entries = 2
            }),
            ("machine.intra_node_transfers", |p| {
                p.machine.intra_node_transfers = false
            }),
            ("machine.inclusive_hierarchy", |p| {
                p.machine.inclusive_hierarchy = false
            }),
            ("machine.topology.n_groups", |p| {
                p.machine.topology = Topology::two_level(4)
            }),
            ("machine.topology.levels", |p| {
                p.machine.topology = Topology {
                    n_groups: 4,
                    levels: 2,
                }
            }),
            ("latency.slc_ns", |p| p.latency.slc_ns += 1),
            ("latency.slc_occ_ns", |p| p.latency.slc_occ_ns += 1),
            ("latency.ctrl_ns", |p| p.latency.ctrl_ns += 1),
            ("latency.ctrl_occ_ns", |p| p.latency.ctrl_occ_ns += 1),
            ("latency.dram_ns", |p| p.latency.dram_ns += 1),
            ("latency.dram_occ_ns", |p| p.latency.dram_occ_ns += 1),
            ("latency.bus_ns", |p| p.latency.bus_ns += 1),
            ("latency.bus_occ_ns", |p| p.latency.bus_occ_ns += 1),
            ("latency.remote_extra_ns", |p| {
                p.latency.remote_extra_ns += 1
            }),
            ("latency.pageout_ns", |p| p.latency.pageout_ns += 1),
            ("latency.link_ns", |p| p.latency.link_ns += 1),
            ("latency.link_occ_ns", |p| p.latency.link_occ_ns += 1),
            ("victim_policy", |p| {
                p.victim_policy = VictimPolicy::StrictLru
            }),
            ("accept_policy", |p| {
                p.accept_policy = AcceptPolicy::FirstFit
            }),
            ("memory_model", |p| p.memory_model = MemoryModel::Numa),
            ("audit", |p| p.audit = true),
        ];

        let base = SimParams::default();
        let emitted: HashSet<&str> = walk_params(&base).names().collect();
        let covered: HashSet<&str> = mutations.iter().map(|(n, _)| *n).collect();
        assert_eq!(
            emitted, covered,
            "mutation list out of sync with the canonical field walk"
        );

        let h0 = config_hash(&base);
        for (name, mutate) in mutations {
            let mut p = base.clone();
            mutate(&mut p);
            assert_ne!(
                config_hash(&p),
                h0,
                "field '{name}' did not change the hash"
            );
        }
    }

    /// The hash must distinguish configurations that merely *render* the
    /// same (e.g. equal-fraction memory pressures with different nums).
    #[test]
    fn rational_pressure_is_hashed_exactly() {
        let mut a = SimParams::default();
        a.machine.memory_pressure = MemoryPressure::new(8, 16);
        let mut b = SimParams::default();
        b.machine.memory_pressure = MemoryPressure::new(16, 32);
        assert_ne!(config_hash(&a), config_hash(&b));
    }
}
