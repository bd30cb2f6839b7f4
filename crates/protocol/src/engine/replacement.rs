//! Replacement: what happens when an attraction-memory set is full.
//! Shared replicas are silently dropped; a displaced responsible copy
//! enters the paper's accept-based injection protocol — ownership
//! migration to an existing replica if one exists, otherwise snoop
//! arbitration for a receiver, otherwise OS page-out.

use super::*;

impl CoherenceEngine {
    /// An AM entry is being displaced (replacement, not coherence). Under
    /// inclusion the private copies die with it; without inclusion clean
    /// SLC replicas survive and the node remains a sharer. Returns true
    /// if the node keeps (SLC-only) copies.
    fn displace_private(&mut self, node_idx: usize, vx: LineIndex) -> bool {
        if self.inclusive_hierarchy {
            self.nodes[node_idx].invalidate_private(vx);
            return false;
        }
        // Dirty data must not be lost: fold it back before the AM entry
        // goes (the write-back is part of the replacement).
        self.nodes[node_idx].downgrade_private(vx);
        self.nodes[node_idx].slc_holds(vx)
    }

    /// An SLC eviction may have destroyed a node's last copy of a line it
    /// held only in its private caches (non-inclusive hierarchies): the
    /// node then stops being a sharer.
    fn retire_slc_only_sharer(&mut self, n: usize, ex: LineIndex) {
        if !self.inclusive_hierarchy
            && !self.nodes[n].am.peek(ex).is_valid()
            && !self.nodes[n].slc_holds(ex)
        {
            self.dir.remove_sharer(ex.line(), NodeId(n as u16));
        }
    }

    /// Fill processor `pidx`'s SLC (in `state`: Shared after a read
    /// serviced at or under the AM, Modified after a write obtained
    /// ownership) and its FLC, writable iff Modified.
    pub(super) fn fill_private(
        &mut self,
        n: usize,
        pidx: usize,
        ix: LineIndex,
        state: SlcState,
        out: &mut Outcome,
    ) {
        if let Some((evicted, st)) = self.nodes[n].slc_fill(pidx, ix, state) {
            if st == SlcState::Modified {
                // Write-back into the AM (data only; AM keeps Exclusive).
                out.slc_writeback = true;
            }
            let ex = self.ix.slc_neighbour(ix, evicted);
            self.nodes[n].flcs[pidx].invalidate(ex);
            self.retire_slc_only_sharer(n, ex);
        }
        self.nodes[n].flcs[pidx].fill(ix, state == SlcState::Modified);
    }

    /// Make room for and insert `ix`'s line into node `node_idx`'s AM.
    pub(super) fn fill_am(
        &mut self,
        node_idx: usize,
        ix: LineIndex,
        state: AmState,
        out: &mut Outcome,
    ) {
        match self.nodes[node_idx].am.make_room(ix) {
            Victim::FreeSlot => {}
            Victim::DropShared(l) => {
                let vx = self.ix.am_neighbour(ix, l);
                self.nodes[node_idx].am.remove(vx);
                let keeps = self.displace_private(node_idx, vx);
                if !keeps {
                    self.dir.remove_sharer(l, NodeId(node_idx as u16));
                }
                self.log.emit(ProtocolEvent::SharedDrop);
            }
            Victim::Inject(l, _) => {
                let vx = self.ix.am_neighbour(ix, l);
                self.nodes[node_idx].am.remove(vx);
                let keeps = self.displace_private(node_idx, vx);
                self.inject(node_idx, vx, keeps, out);
            }
        }
        self.nodes[node_idx].am.insert(ix, state);
        out.am_filled = true;
    }

    /// Relocate a displaced responsible copy (the accept-based strategy).
    /// `from_keeps_slc` marks that the displacing node retains SLC-only
    /// replicas (non-inclusive hierarchies).
    fn inject(&mut self, from: usize, vx: LineIndex, from_keeps_slc: bool, out: &mut Outcome) {
        let line = vx.line();
        // 1. Ownership migration: a Shared replica anywhere can simply
        //    take over responsibility — no data slot is consumed. Only an
        //    AM replica can; a sharer holding SLC-only copies
        //    (non-inclusive hierarchies) has no AM slot to own the line.
        let info = self.dir.get(line).expect("injecting a dead line");
        debug_assert_eq!(info.owner.as_usize(), from, "injecting non-owned line");
        let replica = info
            .sharer_nodes()
            .find(|s| self.nodes[s.as_usize()].am.peek(vx) == AmState::Shared);
        if let Some(new_owner) = replica {
            self.nodes[new_owner.as_usize()]
                .am
                .set_state(vx, AmState::Owner);
            self.dir.set_owner(line, new_owner);
            if from_keeps_slc {
                self.dir.add_sharer(line, NodeId(from as u16));
            }
            self.log.emit(ProtocolEvent::OwnershipMigration);
            out.ownership_migrated = true;
            out.migrated_to = Some(new_owner);
            return;
        }

        // 2. Snoop arbitration for a receiver, scanning nodes after the
        //    injector (deterministic round-robin).
        let n_nodes = self.geom.n_nodes;
        let order = (1..n_nodes).map(|k| (from + k) % n_nodes);
        let mut invalid_slot: Option<usize> = None;
        let mut shared_slot: Option<(usize, LineNum)> = None;
        for k in order {
            match self.nodes[k].am.accept_slot(vx, self.accept_policy) {
                Some(AcceptSlot::Invalid) if invalid_slot.is_none() => invalid_slot = Some(k),
                Some(AcceptSlot::Shared(v)) if shared_slot.is_none() => shared_slot = Some((k, v)),
                _ => {}
            }
            if invalid_slot.is_some() && shared_slot.is_some() {
                break;
            }
        }
        let choice = match self.accept_policy {
            AcceptPolicy::InvalidThenShared => invalid_slot
                .map(|k| (k, None))
                .or(shared_slot.map(|(k, v)| (k, Some(v)))),
            AcceptPolicy::SharedThenInvalid => shared_slot
                .map(|(k, v)| (k, Some(v)))
                .or(invalid_slot.map(|k| (k, None))),
        };

        match choice {
            Some((acceptor, sacrificed)) => {
                if let Some(v) = sacrificed {
                    let sx = self.ix.am_neighbour(vx, v);
                    self.nodes[acceptor].am.remove(sx);
                    let keeps = self.displace_private(acceptor, sx);
                    if !keeps {
                        self.dir.remove_sharer(v, NodeId(acceptor as u16));
                    }
                    self.log.emit(ProtocolEvent::SharedDrop);
                }
                // Sole AM copy at the acceptor; Owner if some node (the
                // displacing one among them) retains SLC-only replicas,
                // else Exclusive.
                self.dir.set_owner(line, NodeId(acceptor as u16));
                if from_keeps_slc {
                    self.dir.add_sharer(line, NodeId(from as u16));
                }
                let state = match self.dir.get(line) {
                    Some(info) if !info.sharers.is_empty() => AmState::Owner,
                    _ => AmState::Exclusive,
                };
                self.nodes[acceptor].am.insert(vx, state);
                self.log.emit(ProtocolEvent::Injection);
                out.injected_to = Some(NodeId(acceptor as u16));
            }
            None => {
                // Every slot machine-wide is responsible: OS page-out.
                // The line dies, and with it every SLC-only copy.
                if from_keeps_slc {
                    self.nodes[from].invalidate_private(vx);
                }
                for s in info.sharer_nodes() {
                    self.nodes[s.as_usize()].invalidate_private(vx);
                }
                self.dir.remove(line);
                *self.paged_out.entry(line.0) = true;
                self.log.emit(ProtocolEvent::Pageout);
                out.pageout = true;
            }
        }
    }
}
