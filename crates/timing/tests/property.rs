//! Randomized property tests for the timing substrates, driven by the
//! in-repo deterministic RNG so the workspace builds with no external
//! test dependencies.

use coma_timing::{EventQueue, Resource, WriteBufferArray};
use coma_types::{ProcId, Rng64};

/// Resource: for requests booked in arrival order, starts are monotone
/// and never precede the request, and total busy time equals the sum of
/// occupancies (work conservation).
#[test]
fn resource_fifo_and_work_conservation() {
    let mut rng = Rng64::new(0xF1F0);
    for _case in 0..128 {
        let n = rng.range(1, 200);
        let mut arrivals: Vec<(u64, u64)> = (0..n)
            .map(|_| (rng.below(10_000), rng.below(500)))
            .collect();
        // Booked in arrival order, so starts are monotone.
        arrivals.sort_by_key(|r| r.0);
        let mut r = Resource::new();
        let mut last_start = 0u64;
        let mut total_occ = 0u64;
        for (t, occ) in arrivals {
            let start = r.acquire(t, occ);
            assert!(start >= t, "service before request");
            assert!(start >= last_start, "FIFO order violated");
            last_start = start;
            total_occ += occ;
        }
        assert_eq!(r.busy_ns(), total_occ);
        assert!(r.free_at() >= last_start);
    }
}

/// Resource: serve() = acquire() + latency, for any latency.
#[test]
fn resource_serve_adds_latency() {
    let mut rng = Rng64::new(0x5E17E);
    for _case in 0..128 {
        let t = rng.below(1_000_000);
        let occ = rng.below(1_000);
        let lat = rng.below(1_000);
        let mut a = Resource::new();
        let mut b = Resource::new();
        let done = a.serve(t, occ, lat);
        let start = b.acquire(t, occ);
        assert_eq!(done, start + lat);
    }
}

/// WriteBufferArray, with several processors interleaved: a processor
/// never resumes before issue time, never later than the completion of
/// all its own outstanding writes, and its outstanding count never
/// exceeds capacity.
#[test]
fn write_buffer_bounds() {
    let mut rng = Rng64::new(0xB0FF);
    for _case in 0..128 {
        let cap = rng.range(1, 16) as usize;
        let n_procs = rng.range(1, 9) as usize;
        let n = rng.range(1, 400);
        let mut wbs = WriteBufferArray::new(n_procs, cap);
        let mut now = vec![0u64; n_procs];
        let mut max_completion = vec![0u64; n_procs];
        for _ in 0..n {
            let p = rng.below(n_procs as u64) as usize;
            now[p] += rng.below(10_000);
            let completes = now[p] + rng.below(2_000);
            let resume = wbs.push(p, now[p], completes);
            max_completion[p] = max_completion[p].max(completes);
            assert!(resume >= now[p]);
            // Worst case: waited for an earlier outstanding write of the
            // same processor, which completes no later than the latest
            // completion it has seen so far.
            assert!(resume <= max_completion[p].max(now[p]));
            now[p] = resume;
            assert!(wbs.outstanding(p, now[p]) <= cap);
        }
        for p in 0..n_procs {
            let drained = wbs.drain(p, now[p]);
            assert!(drained >= now[p]);
            assert!(drained <= max_completion[p].max(now[p]));
            assert_eq!(wbs.outstanding(p, drained), 0);
        }
    }
}

/// EventQueue under its driver contract (at most one pending wake-up per
/// processor, arbitrary push/pop interleavings): pops agree exactly with
/// a sorted reference model — earliest time first, ties broken by lowest
/// processor id — and pop order is time-monotone within a parked epoch.
/// After every step, the follow-through probe `precedes` agrees with the
/// model's minimum. Besides random widths, it runs every width the
/// simulator uses (16 flat, 64 `tree64`, 128 and 256 in the hierarchy
/// experiment) and the degenerate 1-3.
#[test]
fn event_queue_matches_sorted_reference_model() {
    let mut rng = Rng64::new(0xE0E0);
    // Half the times are small, so ties are frequent; half span the
    // queue's whole legal range (0 to 2^48 - 2 ns), so every bit of the
    // packed time is exercised.
    let draw_time = |rng: &mut Rng64| {
        if rng.chance(0.5) {
            rng.below(100_000)
        } else {
            rng.below((1 << 48) - 1)
        }
    };
    let mut widths = vec![1u16, 2, 3, 16, 64, 128, 256];
    widths.extend((0..128).map(|_| rng.range(1, 64) as u16));
    for n_procs in widths {
        // Long enough for the widest cases to fill up and drain.
        let n_steps = rng.range(1, 400 + 4 * n_procs as u64);
        let mut q = EventQueue::new();
        // Reference model: the pending (time, proc) pairs, no structure.
        let mut model: Vec<(u64, u16)> = Vec::new();
        for _ in 0..n_steps {
            let parked = model.len();
            if parked < n_procs as usize && (parked == 0 || rng.chance(0.55)) {
                // Park a processor that has no pending wake-up.
                let p = loop {
                    let p = rng.below(n_procs as u64) as u16;
                    if !model.iter().any(|&(_, q)| q == p) {
                        break p;
                    }
                };
                let t = draw_time(&mut rng);
                q.push(t, ProcId(p));
                model.push((t, p));
            } else {
                let got = q.pop();
                let want = model.iter().copied().min();
                if let Some((t, p)) = want {
                    model.retain(|&e| e != (t, p));
                    assert_eq!(got, Some((t, ProcId(p))));
                } else {
                    assert_eq!(got, None);
                }
            }
            assert_eq!(q.len(), model.len());
            assert_eq!(q.peek_time(), model.iter().map(|&(t, _)| t).min());
            // Half the probes tie the earliest time, so the proc-id
            // tie-break decides them.
            let t = match model.iter().min() {
                Some(&(t, _)) if rng.chance(0.5) => t,
                _ => draw_time(&mut rng),
            };
            let probe = (t, rng.below(n_procs as u64) as u16);
            let want = model.iter().all(|&e| probe < e);
            assert_eq!(q.precedes(probe.0, ProcId(probe.1)), want);
        }
        // Drain: the remaining pops arrive in (time, proc) sorted order.
        let mut rest = model;
        rest.sort_unstable();
        for (t, p) in rest {
            assert_eq!(q.pop(), Some((t, ProcId(p))));
        }
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }
}
