//! The read path: FLC → own SLC → dirty peer SLC → attraction memory →
//! global bus, with the private-cache fill bookkeeping on the way back.

use super::*;

impl CoherenceEngine {
    /// Perform a processor read of `line` (unaudited; the engine's
    /// [`MemorySystem::read`] wraps this with the live auditor).
    pub(super) fn read_inner(&mut self, proc: ProcId, line: LineNum) -> Outcome {
        let n = self.place.node_of(proc).as_usize();
        let pidx = self.place.index_in_node(proc);
        let ix = self.ix.index(line);

        if self.nodes[n].flcs[pidx].read_hit(ix) {
            return Outcome::at(Level::Flc);
        }
        let slc_state = self.nodes[n].slcs[pidx].lookup(ix);
        if slc_state.is_valid() {
            self.nodes[n].flcs[pidx].fill(ix, slc_state == SlcState::Modified);
            return Outcome::at(Level::Slc);
        }

        let mut out;
        if let Some(peer) = self.nodes[n].dirty_peer(ix, pidx) {
            // The dirty peer downgrades, its data written back into the
            // AM (which must hold the line Exclusive). With intra-node
            // transfers the peer supplies; without, the AM does below —
            // functionally identical, timed as an AM hit.
            self.nodes[n].slcs[peer].downgrade(ix);
            self.nodes[n].flcs[peer].downgrade(ix);
            if self.intra_node_transfers {
                debug_assert_eq!(self.nodes[n].am.peek(ix), AmState::Exclusive);
                out = Outcome::at(Level::PeerSlc);
                out.peer_slc = Some(peer);
                self.fill_private(n, pidx, ix, SlcState::Shared, &mut out);
                return out;
            }
        }

        if self.nodes[n].am.touch(ix).is_valid() {
            out = Outcome::at(Level::Am);
            self.fill_private(n, pidx, ix, SlcState::Shared, &mut out);
            return out;
        }

        // Node miss: the access goes on the global bus.
        out = self.global_read(n, ix);
        self.fill_private(n, pidx, ix, SlcState::Shared, &mut out);
        out
    }

    /// Remote read: supply a Shared copy into node `n`.
    fn global_read(&mut self, n: usize, ix: LineIndex) -> Outcome {
        let line = ix.line();
        let mut out = Outcome::at(Level::Remote);
        match self.dir.get(line) {
            Some(info) => {
                let owner = info.owner.as_usize();
                debug_assert_ne!(owner, n, "node-missing line owned locally");
                // Any dirty private copy in the owner node is written back.
                self.nodes[owner].downgrade_private(ix);
                if self.nodes[owner].am.peek(ix) == AmState::Exclusive {
                    self.nodes[owner].am.set_state(ix, AmState::Owner);
                }
                self.fill_am(n, ix, AmState::Shared, &mut out);
                self.dir.add_sharer(line, NodeId(n as u16));
                out.remote_node = Some(NodeId(owner as u16));
                self.log.emit(ProtocolEvent::ReadFill);
            }
            None => {
                let home = self.pages.home_of(line, NodeId(n as u16)).as_usize();
                out.pagein = self.paged_out.get_mut(line.0).is_some_and(std::mem::take);
                if out.pagein {
                    self.log.emit(ProtocolEvent::ColdAlloc);
                }
                if home == n {
                    // Local on-demand materialization: no bus traffic.
                    self.fill_am(n, ix, AmState::Exclusive, &mut out);
                    self.dir.insert_sole(line, NodeId(n as u16));
                    self.log.emit(ProtocolEvent::ColdAlloc);
                    out.level = Level::Am;
                } else {
                    // The page frame lives at `home`: materialize the
                    // responsible copy there and supply a replica here.
                    self.fill_am(home, ix, AmState::Owner, &mut out);
                    self.dir.insert_sole(line, NodeId(home as u16));
                    self.fill_am(n, ix, AmState::Shared, &mut out);
                    self.dir.add_sharer(line, NodeId(n as u16));
                    self.log.emit(ProtocolEvent::ColdAlloc);
                    out.remote_node = Some(NodeId(home as u16));
                    self.log.emit(ProtocolEvent::ReadFill);
                }
            }
        }
        out
    }
}
