//! Contended single-server resources.
//!
//! A [`Resource`] models a unit of hardware that serves one request at a
//! time: the node controller / AM state+tag pipeline, the AM DRAM, an SLC
//! port, a group bus or a tree link. It keeps one watermark, `free_at`:
//! a request booked at `now` starts at `max(now, free_at)` and holds the
//! resource for its *occupancy*. Requests are served in the order the
//! timing walk books them, not in simulated arrival order, so a request
//! booked later but arriving earlier waits behind the earlier booking.
//! The requester usually perceives a *latency* that is ≥ the occupancy
//! (e.g. DRAM with doubled bandwidth: occupancy 50 ns, latency still
//! 100 ns).

use coma_types::Nanos;

/// A single server that starts each booking at its `free_at` watermark.
#[derive(Clone, Debug, Default)]
pub struct Resource {
    free_at: Nanos,
    busy_ns: Nanos,
}

impl Resource {
    pub fn new() -> Self {
        Resource::default()
    }

    /// Acquire the resource at time `now` for `occupancy` ns.
    /// Returns the *service start* time (≥ `now`); the caller adds its own
    /// latency on top of the start time.
    #[inline]
    pub fn acquire(&mut self, now: Nanos, occupancy: Nanos) -> Nanos {
        let start = self.free_at.max(now);
        self.free_at = start + occupancy;
        self.busy_ns += occupancy;
        start
    }

    /// Acquire and return the time at which the requester's access
    /// completes: `start + latency`, with the resource held for
    /// `occupancy` (≤ or ≥ latency, independently).
    #[inline]
    pub fn serve(&mut self, now: Nanos, occupancy: Nanos, latency: Nanos) -> Nanos {
        self.acquire(now, occupancy) + latency
    }

    /// Earliest time a new request could start service.
    #[inline]
    pub fn free_at(&self) -> Nanos {
        self.free_at
    }

    /// Total time this resource has been occupied.
    #[inline]
    pub fn busy_ns(&self) -> Nanos {
        self.busy_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_resource_starts_immediately() {
        let mut r = Resource::new();
        assert_eq!(r.acquire(100, 20), 100);
        assert_eq!(r.free_at(), 120);
    }

    #[test]
    fn contention_queues_fifo() {
        let mut r = Resource::new();
        assert_eq!(r.acquire(0, 50), 0);
        // Second request arrives at t=10 but waits until t=50.
        assert_eq!(r.acquire(10, 50), 50);
        assert_eq!(r.free_at(), 100);
    }

    #[test]
    fn gap_resets_start_time() {
        let mut r = Resource::new();
        r.acquire(0, 10);
        assert_eq!(r.acquire(1000, 10), 1000);
    }

    #[test]
    fn serve_adds_latency_not_occupancy() {
        let mut r = Resource::new();
        // Doubled-bandwidth DRAM: occ 50, latency 100.
        assert_eq!(r.serve(0, 50, 100), 100);
        // Next request can start at t=50 (bandwidth), completes 150.
        assert_eq!(r.serve(0, 50, 100), 150);
    }

    #[test]
    fn busy_accounting() {
        let mut r = Resource::new();
        r.acquire(0, 30);
        r.acquire(100, 30);
        assert_eq!(r.busy_ns(), 60);
    }

    #[test]
    fn zero_occupancy_is_transparent() {
        let mut r = Resource::new();
        assert_eq!(r.acquire(5, 0), 5);
        assert_eq!(r.acquire(5, 0), 5);
        assert_eq!(r.busy_ns(), 0);
    }
}
