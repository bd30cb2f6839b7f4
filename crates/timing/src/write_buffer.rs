//! Per-processor write buffer under release consistency (paper §3.2:
//! "a release consistency model with a 10 entry write buffer").
//!
//! A write retires into the buffer immediately; the ownership acquisition
//! and data transfer proceed in the background, finishing at a completion
//! time computed by the memory system. The processor stalls only when
//!
//! * the buffer is full — it waits for the oldest outstanding write to
//!   complete — or
//! * it executes a *release* (unlock, barrier entry), at which point all
//!   buffered writes must have completed before the release is visible.

use coma_types::Nanos;

/// All processors' write buffers in one flat slab: completion times live
/// in a single `n_procs × capacity` array walked by processor index, so
/// the simulation driver's hot path stays on contiguous memory instead
/// of chasing one heap allocation per processor.
///
/// Each processor's buffer is a *set* of completion times, so the
/// unsorted fixed slab with linear min-scan — capacity is 10 in the
/// paper, so a scan beats a heap — retires, stalls and drains at exactly
/// the instants a per-processor priority queue would (pinned by the
/// differential test below).
#[derive(Clone, Debug)]
pub struct WriteBufferArray {
    capacity: usize,
    /// Slot `p * capacity ..` holds processor `p`'s in-flight times.
    times: Box<[Nanos]>,
    /// Live entries per processor (≤ capacity).
    len: Box<[u32]>,
}

impl WriteBufferArray {
    /// Buffers of `capacity` entries (10 in the paper) for `n_procs`
    /// processors. A capacity of 0 means every write stalls until it
    /// completes (processor-blocking writes; ablation configuration).
    pub fn new(n_procs: usize, capacity: usize) -> Self {
        WriteBufferArray {
            capacity,
            times: vec![0; n_procs * capacity].into_boxed_slice(),
            len: vec![0; n_procs].into_boxed_slice(),
        }
    }

    /// Drop processor `p`'s entries that have completed by `now`.
    #[inline]
    fn retire(&mut self, p: usize, now: Nanos) {
        let base = p * self.capacity;
        let mut n = self.len[p] as usize;
        let mut i = 0;
        while i < n {
            if self.times[base + i] <= now {
                n -= 1;
                self.times.swap(base + i, base + n);
            } else {
                i += 1;
            }
        }
        self.len[p] = n as u32;
    }

    /// Record a write of processor `p` that will complete at
    /// `completes_at`, issued at `now`. Returns the time at which the
    /// *processor* may continue: `now` if a slot was free, later if it
    /// had to wait for one (or for the write itself when capacity is 0).
    pub fn push(&mut self, p: usize, now: Nanos, completes_at: Nanos) -> Nanos {
        self.retire(p, now);
        if self.capacity == 0 {
            // Blocking writes: the processor waits out the whole write.
            return completes_at.max(now);
        }
        let base = p * self.capacity;
        let mut resume = now;
        if self.len[p] as usize == self.capacity {
            // Full: wait for (and evict) the oldest outstanding write.
            let n = self.capacity;
            let mut min_i = 0;
            for i in 1..n {
                if self.times[base + i] < self.times[base + min_i] {
                    min_i = i;
                }
            }
            resume = self.times[base + min_i].max(now);
            self.times.swap(base + min_i, base + n - 1);
            self.len[p] -= 1;
            self.retire(p, resume);
        }
        let n = self.len[p] as usize;
        self.times[base + n] = completes_at;
        self.len[p] += 1;
        resume
    }

    /// Drain processor `p`'s buffer at a release point: returns the time
    /// at which all its buffered writes have completed (≥ `now`), and
    /// empties it.
    pub fn drain(&mut self, p: usize, now: Nanos) -> Nanos {
        let base = p * self.capacity;
        let n = std::mem::take(&mut self.len[p]) as usize;
        self.times[base..base + n]
            .iter()
            .copied()
            .fold(now, Nanos::max)
    }

    /// Processor `p`'s writes outstanding (after retiring completions at
    /// `now`).
    pub fn outstanding(&mut self, p: usize, now: Nanos) -> usize {
        self.retire(p, now);
        self.len[p] as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// Reference model: one processor's buffer as a priority queue of
    /// completion times.
    struct WriteBuffer {
        capacity: usize,
        in_flight: BinaryHeap<Reverse<Nanos>>,
    }

    impl WriteBuffer {
        fn new(capacity: usize) -> Self {
            WriteBuffer {
                capacity,
                in_flight: BinaryHeap::new(),
            }
        }

        fn retire(&mut self, now: Nanos) {
            while matches!(self.in_flight.peek(), Some(&Reverse(t)) if t <= now) {
                self.in_flight.pop();
            }
        }

        fn push(&mut self, now: Nanos, completes_at: Nanos) -> Nanos {
            self.retire(now);
            if self.capacity == 0 {
                return completes_at.max(now);
            }
            let mut resume = now;
            if self.in_flight.len() >= self.capacity {
                let Reverse(oldest) = self.in_flight.pop().expect("full implies non-empty");
                resume = oldest.max(now);
                self.retire(resume);
            }
            self.in_flight.push(Reverse(completes_at));
            resume
        }

        fn drain(&mut self, now: Nanos) -> Nanos {
            let done = self
                .in_flight
                .iter()
                .map(|&Reverse(t)| t)
                .fold(now, Nanos::max);
            self.in_flight.clear();
            done
        }

        fn outstanding(&mut self, now: Nanos) -> usize {
            self.retire(now);
            self.in_flight.len()
        }
    }

    /// A one-processor array.
    fn single(capacity: usize) -> WriteBufferArray {
        WriteBufferArray::new(1, capacity)
    }

    #[test]
    fn non_full_buffer_never_stalls() {
        let mut wb = single(4);
        for i in 0..4 {
            assert_eq!(wb.push(0, i, i + 1000), i);
        }
    }

    #[test]
    fn full_buffer_stalls_until_oldest_completes() {
        let mut wb = single(2);
        wb.push(0, 0, 100);
        wb.push(0, 0, 200);
        // Buffer full; oldest completes at 100.
        assert_eq!(wb.push(0, 10, 300), 100);
    }

    #[test]
    fn completed_writes_free_slots() {
        let mut wb = single(2);
        wb.push(0, 0, 50);
        wb.push(0, 0, 60);
        // At t=70 both completed; no stall.
        assert_eq!(wb.push(0, 70, 500), 70);
        assert_eq!(wb.outstanding(0, 70), 1);
    }

    #[test]
    fn drain_waits_for_slowest() {
        let mut wb = single(4);
        wb.push(0, 0, 100);
        wb.push(0, 0, 400);
        wb.push(0, 0, 250);
        assert_eq!(wb.drain(0, 50), 400);
        assert_eq!(wb.outstanding(0, 50), 0);
    }

    #[test]
    fn drain_empty_returns_now() {
        let mut wb = single(4);
        assert_eq!(wb.drain(0, 123), 123);
    }

    #[test]
    fn drain_never_travels_back_in_time() {
        let mut wb = single(4);
        wb.push(0, 0, 100);
        assert_eq!(wb.drain(0, 500), 500);
    }

    #[test]
    fn zero_capacity_blocks_every_write() {
        let mut wb = single(0);
        assert_eq!(wb.push(0, 10, 300), 300);
        assert_eq!(wb.outstanding(0, 300), 0);
    }

    #[test]
    fn outstanding_counts_in_flight_only() {
        let mut wb = single(8);
        wb.push(0, 0, 100);
        wb.push(0, 0, 200);
        wb.push(0, 0, 300);
        assert_eq!(wb.outstanding(0, 150), 2);
        assert_eq!(wb.outstanding(0, 250), 1);
        assert_eq!(wb.outstanding(0, 350), 0);
    }

    /// Minimal xorshift so the differential test needs no dev-dependency.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }
    }

    /// The flat-slab array must agree with per-processor reference
    /// buffers on every operation's return value, under a random
    /// interleaving of pushes, drains and outstanding queries across
    /// several processors and capacities (including 0 and 1).
    #[test]
    fn array_matches_per_proc_buffers_differentially() {
        for capacity in [0usize, 1, 2, 10] {
            let n_procs = 4;
            let mut reference: Vec<WriteBuffer> =
                (0..n_procs).map(|_| WriteBuffer::new(capacity)).collect();
            let mut array = WriteBufferArray::new(n_procs, capacity);
            let mut rng = Rng(0x9e37_79b9_7f4a_7c15 ^ capacity as u64);
            // Per-processor monotone clocks, like the simulation's.
            let mut clock = vec![0u64; n_procs];
            for _ in 0..5_000 {
                let p = (rng.next() % n_procs as u64) as usize;
                clock[p] += rng.next() % 50;
                let now = clock[p];
                match rng.next() % 10 {
                    0 => {
                        assert_eq!(reference[p].drain(now), array.drain(p, now));
                    }
                    1 => {
                        assert_eq!(reference[p].outstanding(now), array.outstanding(p, now));
                    }
                    _ => {
                        let completes = now + rng.next() % 400;
                        assert_eq!(
                            reference[p].push(now, completes),
                            array.push(p, now, completes),
                            "push(cap {capacity}, proc {p}, now {now})"
                        );
                    }
                }
            }
            for p in 0..n_procs {
                assert_eq!(reference[p].drain(clock[p]), array.drain(p, clock[p]));
            }
        }
    }
}
