//! Deliberately broken protocol variants (fault injection).
//!
//! A verification tool is only credible once it has been watched
//! catching a real bug. [`MutantEngine`] wraps the clean engine and
//! corrupts its state in a precisely targeted way after certain ops —
//! the kind of bug a protocol implementation could genuinely have (a
//! missed invalidation message, a dropped directory update). The test
//! suite demonstrates that the model checker, the differential fuzzer
//! *and* the live auditor each catch every mutation.

use crate::ProtocolModel;
use coma_cache::{AmState, Victim};
use coma_protocol::{CoherenceEngine, MemorySystem, Outcome};
use coma_types::{LineNum, NodeId, NodeSet, ProcId};

/// Which protocol bug to seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mutation {
    /// A write "forgets" to invalidate one remote Shared replica: the
    /// stale copy silently reappears in the first former sharer's AM
    /// after the upgrade completes (as if the invalidation message was
    /// lost), without the directory knowing.
    SkipInvalidate,
    /// A write's directory update is lost: after an upgrade the old
    /// sharer set is restored in the directory even though the copies
    /// were invalidated (directory claims holders that do not exist).
    ForgetDirectoryUpdate,
}

/// The clean engine plus one seeded [`Mutation`].
#[derive(Clone)]
pub struct MutantEngine {
    inner: CoherenceEngine,
    mutation: Mutation,
}

impl MutantEngine {
    pub fn new(inner: CoherenceEngine, mutation: Mutation) -> Self {
        MutantEngine { inner, mutation }
    }

    pub fn into_inner(self) -> CoherenceEngine {
        self.inner
    }

    fn corrupt_after_write(&mut self, writer_node: usize, line: LineNum, pre_sharers: NodeSet) {
        // Only trigger off genuine invalidations: some other node held a
        // Shared replica before this write.
        let victim = pre_sharers.iter().find(|&n| n as usize != writer_node);
        let Some(victim) = victim else { return };
        match self.mutation {
            Mutation::SkipInvalidate => {
                // The stale replica survives in the victim's AM. Only
                // re-insert when the set has room — a lost invalidation
                // cannot displace anything.
                let ix = self.inner.index(line);
                let am = &mut self.inner.node_mut(victim as usize).am;
                if am.peek(ix) == AmState::Invalid && am.make_room(ix) == Victim::FreeSlot {
                    am.insert(ix, AmState::Shared);
                }
            }
            Mutation::ForgetDirectoryUpdate => {
                if self.inner.directory().contains(line) {
                    self.inner.directory_mut().add_sharer(line, NodeId(victim));
                }
            }
        }
    }
}

impl ProtocolModel for MutantEngine {
    fn read(&mut self, proc: ProcId, line: LineNum) -> Outcome {
        MemorySystem::read(&mut self.inner, proc, line)
    }

    fn write(&mut self, proc: ProcId, line: LineNum) -> Outcome {
        let writer_node = proc.node(self.inner.geometry().procs_per_node).as_usize();
        let pre = self
            .inner
            .directory()
            .get(line)
            .map(|i| {
                let mut s = i.sharers;
                if i.owner.as_usize() != writer_node {
                    s.insert(i.owner.0);
                }
                s
            })
            .unwrap_or_default();
        let out = MemorySystem::write(&mut self.inner, proc, line);
        self.corrupt_after_write(writer_node, line, pre);
        out
    }

    fn engine(&self) -> &CoherenceEngine {
        &self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::CheckConfig;
    use crate::snapshot::Snapshot;

    #[test]
    fn skip_invalidate_leaves_a_stale_copy() {
        let cfg = CheckConfig::two_node_one_line();
        let mut m = MutantEngine::new(cfg.build_engine(), Mutation::SkipInvalidate);
        m.read(ProcId(1), LineNum(0)); // replica at node 1's home...
        m.read(ProcId(0), LineNum(0)); // ...and at node 0
        m.write(ProcId(1), LineNum(0)); // upgrade "loses" node 0's inval
        let snap = Snapshot::capture(m.engine());
        assert!(snap.check(true).is_err(), "mutation produced a legal state");
    }
}
