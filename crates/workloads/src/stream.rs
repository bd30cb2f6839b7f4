//! Stream machinery shared by all application models.
//!
//! An application model implements [`PhaseGen`]: it knows how many outer
//! iterations (time steps, passes, …) it performs and how to emit the
//! operations of one iteration into an [`OpBuf`]. [`Stream`] adapts that
//! into the lazy [`OpStream`] the simulator consumes, refilling one
//! iteration at a time so memory stays bounded.
//!
//! Barriers are emitted through [`OpBuf::barrier`], which numbers them
//! sequentially per stream; since every processor runs the same phase
//! program, the sequences line up machine-wide.

use crate::op::{Op, OpStream};
use coma_types::{Addr, Rng64};

/// Scales the amount of work (outer iterations) an application performs.
///
/// The working-set size is *never* scaled by this (that would change the
/// memory pressure); only the trace length is.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Scale(pub f64);

impl Scale {
    /// Full-length runs used for the paper-reproduction experiments.
    pub const PAPER: Scale = Scale(1.0);
    /// Reduced runs: the CLI's default trace length.
    pub const BENCH: Scale = Scale(0.25);
    /// Minimal runs for integration tests.
    pub const SMOKE: Scale = Scale(0.08);

    /// Scale an iteration count, keeping at least one iteration.
    pub fn iters(self, base: u32) -> u32 {
        ((base as f64 * self.0).round() as u32).max(1)
    }

    /// Scale a reference count, keeping at least one reference.
    pub fn refs(self, base: u64) -> u64 {
        ((base as f64 * self.0).round() as u64).max(1)
    }
}

/// Parse `paper`, `bench`, `smoke` or a finite positive factor. Anything
/// else is an error: NaN, infinities, zero and negatives would all scale
/// an iteration count to nonsense.
impl std::str::FromStr for Scale {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "paper" => Ok(Scale::PAPER),
            "bench" => Ok(Scale::BENCH),
            "smoke" => Ok(Scale::SMOKE),
            _ => match s.parse::<f64>() {
                Ok(x) if x.is_finite() && x > 0.0 => Ok(Scale(x)),
                _ => Err(format!(
                    "unknown scale '{s}' (expected paper, bench, smoke or a positive number)"
                )),
            },
        }
    }
}

/// Operation buffer with helpers for the idioms the models share:
/// compute gaps between references, read/write mixes, locks and barriers.
///
/// Internally a `Vec` with a consuming head cursor rather than a ring
/// buffer: the producer (one `gen_iter`) and consumer (`Stream::next_op`)
/// strictly alternate in bulk, so pushes are plain appends and pops are an
/// index bump — no wrap-around masking on the trace-compilation hot path.
/// The storage is recycled (cleared, cursor rewound) each time the buffer
/// drains, so memory stays bounded at one iteration's operations.
#[derive(Debug)]
pub struct OpBuf {
    ops: Vec<Op>,
    head: usize,
    rng: Rng64,
    gap_lo: u32,
    gap_hi: u32,
    barrier_ctr: u32,
}

impl OpBuf {
    fn new(rng: Rng64) -> Self {
        OpBuf {
            ops: Vec::new(),
            head: 0,
            rng,
            gap_lo: 2,
            gap_hi: 6,
            barrier_ctr: 0,
        }
    }

    /// Set the instruction gap drawn before each memory reference.
    /// Smaller gaps mean higher bandwidth demand (LU-non, Radix); larger
    /// gaps model compute-bound codes (Water).
    pub fn set_gap(&mut self, lo: u32, hi: u32) {
        assert!(lo <= hi);
        self.gap_lo = lo;
        self.gap_hi = hi;
    }

    /// The per-stream RNG (deterministic per processor).
    pub fn rng(&mut self) -> &mut Rng64 {
        &mut self.rng
    }

    fn gap(&mut self) {
        let n = if self.gap_lo == self.gap_hi {
            self.gap_lo
        } else {
            self.rng.range(self.gap_lo as u64, self.gap_hi as u64 + 1) as u32
        };
        if n > 0 {
            self.compute(n);
        }
    }

    /// Push an explicit compute burst (coalesces with a preceding one).
    pub fn compute(&mut self, n: u32) {
        if n == 0 {
            return;
        }
        // Only coalesce with an op the consumer has not yet taken.
        if self.head < self.ops.len() {
            if let Some(Op::Compute(m)) = self.ops.last_mut() {
                *m = m.saturating_add(n);
                return;
            }
        }
        self.ops.push(Op::Compute(n));
    }

    /// Gap + read.
    pub fn read(&mut self, a: Addr) {
        self.gap();
        self.ops.push(Op::Read(a));
    }

    /// Gap + write.
    pub fn write(&mut self, a: Addr) {
        self.gap();
        self.ops.push(Op::Write(a));
    }

    /// Gap + read-or-write with the given write probability.
    pub fn rw(&mut self, a: Addr, write_frac: f64) {
        if self.rng.chance(write_frac) {
            self.write(a);
        } else {
            self.read(a);
        }
    }

    /// Read-modify-write of one location (load then store).
    pub fn update(&mut self, a: Addr) {
        self.read(a);
        self.ops.push(Op::Write(a));
    }

    pub fn lock(&mut self, id: u32) {
        self.ops.push(Op::Lock(id));
    }

    pub fn unlock(&mut self, id: u32) {
        self.ops.push(Op::Unlock(id));
    }

    /// Emit the next global barrier (sequentially numbered).
    pub fn barrier(&mut self) {
        self.ops.push(Op::Barrier(self.barrier_ctr));
        self.barrier_ctr += 1;
    }

    /// Number of buffered (unconsumed) operations (tests / diagnostics).
    pub fn len(&self) -> usize {
        self.ops.len() - self.head
    }

    pub fn is_empty(&self) -> bool {
        self.head == self.ops.len()
    }

    fn pop(&mut self) -> Option<Op> {
        match self.ops.get(self.head) {
            Some(&op) => {
                self.head += 1;
                Some(op)
            }
            None => {
                // Drained: recycle the storage for the next iteration.
                self.ops.clear();
                self.head = 0;
                None
            }
        }
    }
}

/// An application model: emits one outer iteration at a time.
pub trait PhaseGen {
    /// Total outer iterations this processor will run.
    fn n_iters(&self) -> u32;
    /// Emit iteration `iter`'s operations into `buf`.
    fn gen_iter(&mut self, iter: u32, buf: &mut OpBuf);
}

/// Adapts a [`PhaseGen`] into a lazy [`OpStream`].
pub struct Stream<G: PhaseGen> {
    gen: G,
    buf: OpBuf,
    iter: u32,
}

impl<G: PhaseGen> Stream<G> {
    /// Wrap a model with a per-processor RNG and its default
    /// instruction-gap range `gap = (lo, hi)`.
    pub fn new(gen: G, rng: Rng64, gap: (u32, u32)) -> Self {
        let mut buf = OpBuf::new(rng);
        buf.set_gap(gap.0, gap.1);
        Stream { gen, buf, iter: 0 }
    }
}

impl<G: PhaseGen> OpStream for Stream<G> {
    fn next_op(&mut self) -> Option<Op> {
        loop {
            if let Some(op) = self.buf.pop() {
                return Some(op);
            }
            if self.iter >= self.gen.n_iters() {
                return None;
            }
            let it = self.iter;
            self.iter += 1;
            self.gen.gen_iter(it, &mut self.buf);
        }
    }
}

/// Deterministic per-processor RNG for application `app_salt`, processor
/// `proc`, experiment seed `seed`.
pub fn proc_rng(seed: u64, app_salt: u64, proc: usize) -> Rng64 {
    let mut root = Rng64::new(seed ^ app_salt.wrapping_mul(0xA24B_AED4_963E_E407));
    root.fork(proc as u64)
}

/// Deterministic RNG for decisions that must be *identical on every
/// processor* (e.g. which block is this iteration's pivot).
pub fn shared_rng(seed: u64, app_salt: u64, iter: u32) -> Rng64 {
    Rng64::new(seed ^ app_salt.wrapping_mul(0x9FB2_1C65_1E98_DF25) ^ ((iter as u64) << 32))
}

#[cfg(test)]
mod tests {
    use super::*;
    use coma_types::Addr;

    struct TwoIter;
    impl PhaseGen for TwoIter {
        fn n_iters(&self) -> u32 {
            2
        }
        fn gen_iter(&mut self, iter: u32, buf: &mut OpBuf) {
            buf.read(Addr(iter as u64 * 64));
            buf.barrier();
        }
    }

    #[test]
    fn scale_parse_rejects_non_positive_and_non_finite() {
        assert_eq!("smoke".parse(), Ok(Scale::SMOKE));
        assert_eq!("0.5".parse(), Ok(Scale(0.5)));
        for bad in ["nan", "inf", "-1", "0", "smok"] {
            assert!(bad.parse::<Scale>().is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn stream_runs_all_iterations_then_ends() {
        let mut s = Stream::new(TwoIter, Rng64::new(1), (2, 6));
        let mut reads = 0;
        let mut barriers = Vec::new();
        while let Some(op) = s.next_op() {
            match op {
                Op::Read(_) => reads += 1,
                Op::Barrier(b) => barriers.push(b),
                _ => {}
            }
        }
        assert_eq!(reads, 2);
        assert_eq!(barriers, vec![0, 1]);
        assert_eq!(s.next_op(), None);
    }

    #[test]
    fn compute_coalesces() {
        let mut buf = OpBuf::new(Rng64::new(1));
        buf.compute(3);
        buf.compute(4);
        assert_eq!(buf.len(), 1);
        assert_eq!(buf.pop(), Some(Op::Compute(7)));
    }

    #[test]
    fn gap_emitted_before_each_ref() {
        let mut buf = OpBuf::new(Rng64::new(1));
        buf.set_gap(5, 5);
        buf.read(Addr(0));
        assert_eq!(buf.pop(), Some(Op::Compute(5)));
        assert_eq!(buf.pop(), Some(Op::Read(Addr(0))));
    }

    #[test]
    fn zero_gap_means_back_to_back_refs() {
        let mut buf = OpBuf::new(Rng64::new(1));
        buf.set_gap(0, 0);
        buf.read(Addr(0));
        assert_eq!(buf.pop(), Some(Op::Read(Addr(0))));
    }

    #[test]
    fn update_is_read_then_write_same_line() {
        let mut buf = OpBuf::new(Rng64::new(1));
        buf.set_gap(0, 0);
        buf.update(Addr(64));
        assert_eq!(buf.pop(), Some(Op::Read(Addr(64))));
        assert_eq!(buf.pop(), Some(Op::Write(Addr(64))));
    }

    #[test]
    fn rw_respects_extremes() {
        let mut buf = OpBuf::new(Rng64::new(1));
        buf.set_gap(0, 0);
        buf.rw(Addr(0), 0.0);
        assert_eq!(buf.pop(), Some(Op::Read(Addr(0))));
        buf.rw(Addr(0), 1.0);
        assert_eq!(buf.pop(), Some(Op::Write(Addr(0))));
    }

    #[test]
    fn scale_keeps_minimum_one() {
        assert_eq!(Scale::SMOKE.iters(2), 1);
        assert_eq!(Scale::PAPER.iters(7), 7);
        assert_eq!(Scale(2.0).iters(3), 6);
        assert_eq!(Scale::SMOKE.refs(5), 1);
    }

    #[test]
    fn proc_rngs_differ_shared_rngs_agree() {
        let a = proc_rng(1, 2, 0).next_u64();
        let b = proc_rng(1, 2, 1).next_u64();
        assert_ne!(a, b);
        let s1 = shared_rng(1, 2, 3).next_u64();
        let s2 = shared_rng(1, 2, 3).next_u64();
        assert_eq!(s1, s2);
        assert_ne!(
            shared_rng(1, 2, 3).next_u64(),
            shared_rng(1, 2, 4).next_u64()
        );
    }
}
