//! Per-access set indices.
//!
//! Every node of a machine has the same attraction-memory geometry, every
//! processor the same SLC and FLC (paper §3.1: AM capacity per processor
//! is held constant). So a line sits in the same AM set of every node,
//! the same SLC set and FLC slot of every processor, and one reduction
//! per cache level serves every cache an access touches. An engine
//! reduces the accessed line once per read or write into a
//! [`LineIndex`] and passes it to each probe. Set counts are not powers
//! of two, so each reduction is a [`FastMod`] multiply, and a remote read
//! or an upgrade probes many caches.

use coma_types::{FastMod, LineNum, MachineGeometry};

/// A line with its set in every cache level. Only an [`Indexer`] builds
/// one, and each cache checks (debug builds) that the index it is given
/// is the line's own.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LineIndex {
    pub(crate) line: LineNum,
    /// Set in every attraction memory.
    pub(crate) am: usize,
    /// Set in every SLC.
    pub(crate) slc: usize,
    /// Slot in every FLC.
    pub(crate) flc: usize,
}

impl LineIndex {
    #[inline]
    pub fn line(self) -> LineNum {
        self.line
    }
}

/// One division-free reducer per cache level of a machine.
#[derive(Clone, Copy, Debug)]
pub struct Indexer {
    am: FastMod,
    slc: FastMod,
    flc: FastMod,
}

impl Indexer {
    pub fn new(geom: &MachineGeometry) -> Self {
        Indexer {
            am: FastMod::new(geom.am_sets),
            slc: FastMod::new(geom.slc_sets),
            flc: FastMod::new(geom.flc_sets),
        }
    }

    /// The index of `line` in every level.
    #[inline]
    pub fn index(&self, line: LineNum) -> LineIndex {
        LineIndex {
            line,
            am: self.am.reduce(line.0) as usize,
            slc: self.slc.reduce(line.0) as usize,
            flc: self.flc.reduce(line.0) as usize,
        }
    }

    /// The index of `line`, displaced from the AM set of `ix`: it shares
    /// that set, so only its SLC set and FLC slot are reduced.
    #[inline]
    pub fn am_neighbour(&self, ix: LineIndex, line: LineNum) -> LineIndex {
        LineIndex {
            line,
            slc: self.slc.reduce(line.0) as usize,
            flc: self.flc.reduce(line.0) as usize,
            ..ix
        }
    }

    /// The index of `line`, evicted from the SLC set of `ix`: it shares
    /// that set, so only its AM set and FLC slot are reduced.
    #[inline]
    pub fn slc_neighbour(&self, ix: LineIndex, line: LineNum) -> LineIndex {
        LineIndex {
            line,
            am: self.am.reduce(line.0) as usize,
            flc: self.flc.reduce(line.0) as usize,
            ..ix
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coma_types::{MachineConfig, MemoryPressure};

    #[test]
    fn indices_agree_with_plain_modulo() {
        let cfg = MachineConfig::paper(4, MemoryPressure::MP_81);
        let geom = cfg.geometry(1 << 20).unwrap();
        let ixr = Indexer::new(&geom);
        for l in [0u64, 1, 63, 64, 12_345, 999_999] {
            let ix = ixr.index(LineNum(l));
            assert_eq!(ix.am as u64, l % geom.am_sets);
            assert_eq!(ix.slc as u64, l % geom.slc_sets);
            assert_eq!(ix.flc as u64, l % geom.flc_sets);
            let other = LineNum(l + geom.am_sets);
            assert_eq!(ixr.am_neighbour(ix, other), ixr.index(other));
            let other = LineNum(l + geom.slc_sets);
            assert_eq!(ixr.slc_neighbour(ix, other), ixr.index(other));
        }
    }
}
