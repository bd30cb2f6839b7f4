//! Processor wake-up ordering.
//!
//! The whole-machine simulation is driven by repeatedly advancing the
//! processor with the earliest pending wake-up time. Ties are broken by
//! processor id so runs are fully deterministic.
//!
//! The driver maintains at most **one** pending wake-up per processor (a
//! processor is either running or parked at exactly one resume time), so
//! the queue is a **winner (tournament) tree** over a fixed set of
//! per-processor slots rather than a binary heap:
//!
//! * the leaves are the slots, padded with `IDLE` leaves to a
//!   power-of-two width; every inner node holds the minimum of its two
//!   children, so the root is the earliest wake-up, cached in `min`;
//! * `push` and `pop` each change one leaf and replay its leaf-to-root
//!   path: log2 of the width steps (4 at 16 processors, 8 at 256);
//! * `precedes` — the driver's *follow-through* test, "would this wake-up
//!   be popped next anyway?" — is a single compare against `min`, letting
//!   the driver keep stepping a processor without any queue traffic while
//!   it stays the earliest.
//!
//! # Keys
//!
//! A wake-up is one `u64` key, `time << 16 | proc`. [`ProcId`] is a
//! `u16`, so comparing keys as integers is exactly the lexicographic
//! `(time, proc)` order the old binary heap popped in. Each replay level
//! is then `win = win.min(sibling)`, one compare and a conditional move:
//! no branch on which side won, which in a tournament is a coin flip.
//!
//! The packing bounds simulated time: a wake-up must be at most
//! `MAX_TIME` = 2^48 − 2 ns (about 78 hours). `push` panics beyond it,
//! in release builds too, rather than wrap. The bound is 2^48 − 2, not
//! 2^48 − 1, so that no key equals the `IDLE` sentinel `u64::MAX`, which
//! is `(2^48 − 1, 0xFFFF)` unpacked.

use coma_types::{Nanos, ProcId};

/// Key bits below the time: the processor id.
const PROC_BITS: u32 = u16::BITS;

/// Latest wake-up time a key can hold (see the module docs).
const MAX_TIME: Nanos = (1 << (u64::BITS - PROC_BITS)) - 2;

/// Slot value marking "no pending wake-up"; above every real key.
const IDLE: u64 = u64::MAX;

/// Pack a wake-up into its key. Panics if `time` exceeds `MAX_TIME`.
#[inline]
fn key(time: Nanos, proc: ProcId) -> u64 {
    assert!(
        time <= MAX_TIME,
        "wake-up time {time} ns exceeds the event queue's bound of 2^48 - 2 ns"
    );
    (time << PROC_BITS) | proc.0 as u64
}

/// Pending wake-up times, indexed by processor id.
#[derive(Clone, Debug)]
pub struct EventQueue {
    /// Winner tree of keys in heap layout: node `n`'s children are `2n`
    /// and `2n + 1`, the root is node 1 and processor `p`'s leaf is node
    /// `width + p`. Node 0 is unused. Empty until the first push.
    tree: Vec<u64>,
    /// Number of leaves: a power of two, or 0 before the first push.
    width: usize,
    len: usize,
    /// Key of the earliest pending wake-up, the tree's root; `IDLE` when
    /// the queue is empty.
    min: u64,
}

impl Default for EventQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl EventQueue {
    pub fn new() -> Self {
        EventQueue {
            tree: Vec::new(),
            width: 0,
            len: 0,
            min: IDLE,
        }
    }

    /// Schedule `proc` to run at `time`. At most one wake-up may be
    /// pending per processor. Panics if `time` exceeds 2^48 − 2 ns.
    pub fn push(&mut self, time: Nanos, proc: ProcId) {
        let k = key(time, proc);
        let p = proc.0 as usize;
        if p >= self.width {
            self.grow(p + 1);
        }
        debug_assert_eq!(
            self.tree[self.width + p],
            IDLE,
            "processor {p} already scheduled"
        );
        self.len += 1;
        self.replay(p, k);
    }

    /// Would a wake-up `(time, proc)` run before everything pending?
    /// True when the queue is empty or `(time, proc)` lexicographically
    /// precedes the earliest pending wake-up — i.e. pushing it and then
    /// popping would return it straight back. Any `time` is accepted: one
    /// beyond the push bound follows every pending wake-up.
    #[inline]
    pub fn precedes(&self, time: Nanos, proc: ProcId) -> bool {
        if time > MAX_TIME {
            return self.is_empty();
        }
        key(time, proc) < self.min
    }

    /// Remove and return the earliest wake-up (ties: lowest processor id).
    pub fn pop(&mut self) -> Option<(Nanos, ProcId)> {
        if self.len == 0 {
            return None;
        }
        let k = self.min;
        let p = k as u16;
        self.len -= 1;
        self.replay(p as usize, IDLE);
        Some((k >> PROC_BITS, ProcId(p)))
    }

    /// Set processor `p`'s leaf to key `leaf` and replay its path to the
    /// root. The walk carries the path's winner in a register and loads
    /// only each level's *sibling*, whose address depends on `p` alone,
    /// so the loads issue in parallel rather than waiting on the stores
    /// of the level below.
    #[inline]
    fn replay(&mut self, p: usize, leaf: u64) {
        let mut n = self.width + p;
        let mut win = leaf;
        self.tree[n] = win;
        while n > 1 {
            win = win.min(self.tree[n ^ 1]);
            n >>= 1;
            self.tree[n] = win;
        }
        self.min = win;
    }

    /// Widen the tree to at least `procs` leaves and rebuild it, keeping
    /// every pending wake-up. The new leaves are `IDLE`, so the root and
    /// `min` do not change. Runs only while the driver first schedules
    /// its processors, so it favours clarity over speed.
    #[cold]
    fn grow(&mut self, procs: usize) {
        let width = procs.next_power_of_two();
        let mut tree = vec![IDLE; 2 * width];
        tree[width..width + self.width].copy_from_slice(&self.tree[self.width..]);
        for n in (1..width).rev() {
            tree[n] = tree[2 * n].min(tree[2 * n + 1]);
        }
        self.tree = tree;
        self.width = width;
    }

    /// Time of the earliest wake-up without removing it.
    pub fn peek_time(&self) -> Option<Nanos> {
        (self.len > 0).then_some(self.min >> PROC_BITS)
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(30, ProcId(0));
        q.push(10, ProcId(1));
        q.push(20, ProcId(2));
        assert_eq!(q.pop(), Some((10, ProcId(1))));
        assert_eq!(q.pop(), Some((20, ProcId(2))));
        assert_eq!(q.pop(), Some((30, ProcId(0))));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_by_proc_id() {
        let mut q = EventQueue::new();
        q.push(10, ProcId(5));
        q.push(10, ProcId(2));
        assert_eq!(q.pop(), Some((10, ProcId(2))));
        assert_eq!(q.pop(), Some((10, ProcId(5))));
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.push(7, ProcId(0));
        assert_eq!(q.peek_time(), Some(7));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn popped_processor_can_be_rescheduled() {
        let mut q = EventQueue::new();
        q.push(5, ProcId(3));
        assert_eq!(q.pop(), Some((5, ProcId(3))));
        q.push(9, ProcId(3));
        assert_eq!(q.peek_time(), Some(9));
        assert_eq!(q.pop(), Some((9, ProcId(3))));
        assert!(q.is_empty());
    }

    #[test]
    fn empty_queue_peeks_none() {
        let q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn precedes_matches_push_pop_order() {
        let mut q = EventQueue::new();
        // Empty queue: anything runs next.
        assert!(q.precedes(100, ProcId(7)));
        q.push(50, ProcId(2));
        // Earlier time precedes; later does not.
        assert!(q.precedes(49, ProcId(9)));
        assert!(!q.precedes(51, ProcId(0)));
        // Equal time: proc id breaks the tie.
        assert!(q.precedes(50, ProcId(1)));
        assert!(!q.precedes(50, ProcId(3)));
    }

    #[test]
    fn precedes_agrees_with_pop_after_mutations() {
        let mut q = EventQueue::new();
        q.push(10, ProcId(4));
        q.push(20, ProcId(1));
        assert_eq!(q.pop(), Some((10, ProcId(4))));
        // Remaining min is (20, 1).
        assert!(q.precedes(19, ProcId(8)));
        assert!(q.precedes(20, ProcId(0)));
        assert!(!q.precedes(20, ProcId(2)));
        assert!(!q.precedes(21, ProcId(0)));
    }

    #[test]
    fn popping_empty_queue_is_none_and_harmless() {
        let mut q = EventQueue::new();
        assert_eq!(q.pop(), None);
        assert_eq!(q.pop(), None); // still fine after a failed pop
        q.push(3, ProcId(1));
        assert_eq!(q.pop(), Some((3, ProcId(1))));
        assert_eq!(q.pop(), None); // and after draining
        assert_eq!(q.peek_time(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn high_proc_push_widens_the_tree_and_keeps_pending_wakeups() {
        // The first push to processor 200 rebuilds a 2-leaf tree as a
        // 256-leaf one while processors 0 and 1 are pending.
        let mut q = EventQueue::new();
        q.push(10, ProcId(0));
        q.push(5, ProcId(1));
        assert!(q.precedes(5, ProcId(0)));
        q.push(7, ProcId(200));
        assert_eq!(q.len(), 3);
        assert_eq!(q.peek_time(), Some(5));
        assert!(!q.precedes(5, ProcId(2)));
        assert_eq!(q.pop(), Some((5, ProcId(1))));
        assert!(q.precedes(7, ProcId(199)));
        assert!(!q.precedes(7, ProcId(201)));
        assert_eq!(q.pop(), Some((7, ProcId(200))));
        q.push(10, ProcId(255));
        assert_eq!(q.pop(), Some((10, ProcId(0))));
        assert_eq!(q.pop(), Some((10, ProcId(255))));
        assert_eq!(q.pop(), None);
        assert!(q.precedes(Nanos::MAX - 1, ProcId(255)));
    }

    #[test]
    fn many_way_tie_pops_in_proc_id_order() {
        // The old BinaryHeap ordered by (time, proc); an all-way tie is
        // the purest probe of that lexicographic order.
        let mut q = EventQueue::new();
        for p in [6u16, 0, 3, 5, 1, 4, 2] {
            q.push(42, ProcId(p));
        }
        for p in 0..7 {
            assert_eq!(q.pop(), Some((42, ProcId(p))));
        }
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_at_the_time_bound_pop_in_proc_id_order() {
        let mut q = EventQueue::new();
        for p in [65534u16, 0, 255] {
            q.push(MAX_TIME, ProcId(p));
        }
        assert_eq!(MAX_TIME, (1 << 48) - 2);
        assert!(q.precedes(MAX_TIME - 1, ProcId(u16::MAX)));
        assert!(!q.precedes(MAX_TIME, ProcId(1)));
        for p in [0u16, 255, 65534] {
            assert_eq!(q.pop(), Some((MAX_TIME, ProcId(p))));
        }
        assert_eq!(q.pop(), None);
    }

    #[test]
    #[should_panic(expected = "exceeds the event queue's bound of 2^48 - 2 ns")]
    fn push_beyond_the_time_bound_panics() {
        EventQueue::new().push(MAX_TIME + 1, ProcId(0));
    }

    #[test]
    fn no_pushable_key_is_the_idle_sentinel() {
        // The largest key a push can build sorts below IDLE, so the
        // queue holds it as a real wake-up rather than an empty slot.
        assert!(key(MAX_TIME, ProcId(u16::MAX)) < IDLE);
        let mut q = EventQueue::new();
        q.push(MAX_TIME, ProcId(u16::MAX));
        assert_eq!(q.peek_time(), Some(MAX_TIME));
        assert!(!q.precedes(MAX_TIME + 1, ProcId(0)));
        assert_eq!(q.pop(), Some((MAX_TIME, ProcId(u16::MAX))));
        assert!(q.is_empty());
        assert!(q.precedes(MAX_TIME + 1, ProcId(0)));
    }

    /// Differential check against the pre-refactor semantics: a
    /// `BinaryHeap<Reverse<(time, proc)>>` run in lockstep through a
    /// seeded random push/pop/probe schedule, with small times so
    /// equal-timestamp ties are frequent.
    #[test]
    fn differential_vs_binary_heap_reference() {
        use coma_types::Rng64;
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        const PROCS: usize = 16;
        let mut rng = Rng64::new(0x0E7E);
        let mut q = EventQueue::new();
        let mut heap: BinaryHeap<Reverse<(Nanos, u16)>> = BinaryHeap::new();
        let mut pending = [false; PROCS];

        for _ in 0..20_000 {
            let idle: Vec<u16> = (0..PROCS as u16)
                .filter(|&p| !pending[p as usize])
                .collect();
            let do_push = !idle.is_empty() && (heap.is_empty() || rng.below(100) < 55);
            if do_push {
                let p = *rng.pick(&idle);
                let t = rng.below(32); // tiny time range → constant ties
                q.push(t, ProcId(p));
                heap.push(Reverse((t, p)));
                pending[p as usize] = true;
            } else {
                let expect = heap.pop().map(|Reverse((t, p))| (t, ProcId(p)));
                assert_eq!(q.pop(), expect);
                if let Some((_, p)) = expect {
                    pending[p.0 as usize] = false;
                }
            }
            // The follow-through probe must agree with the heap's view:
            // "precedes" iff pushing then popping would return it back.
            let probe = (rng.below(32), ProcId(rng.below(PROCS as u64) as u16));
            let heap_says = heap
                .peek()
                .is_none_or(|&Reverse(min)| (probe.0, probe.1 .0) < min);
            assert_eq!(q.precedes(probe.0, probe.1), heap_says);
        }
        // Drain both and compare the tail order.
        while let Some(Reverse((t, p))) = heap.pop() {
            assert_eq!(q.pop(), Some((t, ProcId(p))));
        }
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn follow_through_probe_is_push_pop_equivalent() {
        // `precedes(t, p)` promises: push(t, p) followed by pop() returns
        // (t, p) straight back. Verify the promise on both outcomes.
        let mut q = EventQueue::new();
        q.push(50, ProcId(2));
        q.push(50, ProcId(6));

        assert!(q.precedes(50, ProcId(1)));
        q.push(50, ProcId(1));
        assert_eq!(q.pop(), Some((50, ProcId(1)))); // came straight back

        assert!(!q.precedes(50, ProcId(4)));
        q.push(50, ProcId(4));
        assert_ne!(q.pop(), Some((50, ProcId(4)))); // (50,2) runs first
    }
}
