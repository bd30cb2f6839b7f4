//! The write path: ownership acquisition. A write that misses the
//! private caches silences the node-local peers, then either upgrades an
//! existing copy (invalidation broadcast) or fetches the line with
//! ownership (read-exclusive).

use super::*;

impl CoherenceEngine {
    /// Perform a processor write of `line` (ownership acquisition; the
    /// store data itself is not modeled). Unaudited; the engine's
    /// [`MemorySystem::write`] wraps this with the live auditor.
    pub(super) fn write_inner(&mut self, proc: ProcId, line: LineNum) -> Outcome {
        let n = self.place.node_of(proc).as_usize();
        let pidx = self.place.index_in_node(proc);
        let ix = self.ix.index(line);

        if self.nodes[n].flcs[pidx].write_hit(ix) {
            return Outcome::at(Level::Flc);
        }
        if self.nodes[n].slcs[pidx].lookup(ix) == SlcState::Modified {
            self.nodes[n].flcs[pidx].fill(ix, true);
            return Outcome::at(Level::Slc);
        }

        // Ownership must be obtained: first silence the node-local peers.
        self.nodes[n].invalidate_peers(ix, pidx);

        let mut out = match self.nodes[n].am.touch(ix) {
            AmState::Exclusive => Outcome::at(Level::Am),
            AmState::Owner | AmState::Shared => self.global_upgrade(n, ix),
            AmState::Invalid => self.global_read_exclusive(n, ix),
        };
        self.fill_private(n, pidx, ix, SlcState::Modified, &mut out);
        out
    }

    /// Write upgrade: the node already holds the line (Owner or Shared);
    /// invalidate every other copy and end Exclusive.
    fn global_upgrade(&mut self, n: usize, ix: LineIndex) -> Outcome {
        let line = ix.line();
        let mut out = Outcome::at(Level::Remote);
        let info = self.dir.get(line).expect("valid AM line not in directory");
        // How far the invalidation must climb: to the group holding the
        // copy farthest from the writer, derived from the root entry.
        // Flat machines broadcast to everyone and get no scope.
        out.inval_scope = info
            .farthest_present(&self.place, self.place.group_of(NodeId(n as u16)))
            .map(|g| NodeId((g * self.geom.nodes_per_group()) as u16));
        for sh in info.sharer_nodes() {
            let s = sh.as_usize();
            if s != n {
                self.nodes[s].am.remove(ix);
                self.nodes[s].invalidate_private(ix);
            }
        }
        let owner = info.owner.as_usize();
        if owner != n {
            self.nodes[owner].am.remove(ix);
            self.nodes[owner].invalidate_private(ix);
        }
        self.dir.set_owner(line, NodeId(n as u16));
        self.dir.clear_sharers(line);
        self.nodes[n].am.set_state(ix, AmState::Exclusive);
        out.upgrade = true;
        self.log.emit(ProtocolEvent::Upgrade);
        out
    }

    /// Write miss: fetch the line with ownership (read-exclusive),
    /// invalidating every existing copy.
    fn global_read_exclusive(&mut self, n: usize, ix: LineIndex) -> Outcome {
        let line = ix.line();
        let mut out = Outcome::at(Level::Remote);
        match self.dir.get(line) {
            Some(info) => {
                for sh in info.sharer_nodes() {
                    let s = sh.as_usize();
                    self.nodes[s].am.remove(ix);
                    self.nodes[s].invalidate_private(ix);
                }
                let owner = info.owner.as_usize();
                debug_assert_ne!(owner, n);
                self.nodes[owner].am.remove(ix);
                self.nodes[owner].invalidate_private(ix);
                self.dir.remove(line);
                self.fill_am(n, ix, AmState::Exclusive, &mut out);
                self.dir.insert_sole(line, NodeId(n as u16));
                out.read_exclusive = true;
                out.remote_node = Some(NodeId(owner as u16));
                self.log.emit(ProtocolEvent::ReadExclusive);
            }
            None => {
                let home = self.pages.home_of(line, NodeId(n as u16)).as_usize();
                out.pagein = self.paged_out.get_mut(line.0).is_some_and(std::mem::take);
                self.fill_am(n, ix, AmState::Exclusive, &mut out);
                self.dir.insert_sole(line, NodeId(n as u16));
                self.log.emit(ProtocolEvent::ColdAlloc);
                if home == n {
                    out.level = Level::Am; // local cold allocation
                } else {
                    // Data pulled from the home node's page frame.
                    out.read_exclusive = true;
                    out.remote_node = Some(NodeId(home as u16));
                    self.log.emit(ProtocolEvent::ReadExclusive);
                }
            }
        }
        out
    }
}
