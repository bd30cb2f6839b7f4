//! Deterministic pseudo-random number generation.
//!
//! Every stochastic choice in the workload models draws from this small
//! SplitMix64-based generator so that a simulation is a pure function of
//! its configuration and seed: identical runs produce identical traces,
//! identical statistics and identical figures. SplitMix64 passes BigCrush,
//! is a single multiply-xor-shift pipeline per draw, and — unlike
//! process-global RNGs — costs nothing to seed per processor.

use std::sync::Arc;

/// A SplitMix64 pseudo-random generator.
#[derive(Clone, Debug)]
pub struct Rng64 {
    state: u64,
}

impl Rng64 {
    /// Create a generator from a seed. Any seed (including 0) is fine.
    pub fn new(seed: u64) -> Self {
        Rng64 { state: seed }
    }

    /// Derive an independent child generator; used to give each simulated
    /// processor its own stream from one experiment seed.
    pub fn fork(&mut self, salt: u64) -> Rng64 {
        Rng64::new(self.next_u64() ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Next raw 64-bit value (SplitMix64).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, n)`. `n` must be non-zero.
    /// Uses Lemire's multiply-shift reduction (no modulo bias worth noting
    /// at the ranges used here, and branch-free in the common case).
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform value in `[lo, hi)`.
    #[inline]
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo < hi);
        lo + self.below(hi - lo)
    }

    /// Uniform float in `[0, 1)`.
    #[inline]
    pub fn f64_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw with probability `p`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64_unit() < p
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }

    /// Pick a uniformly random element.
    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len() as u64) as usize]
    }
}

/// Zipf-distributed sampler over `0..n` with exponent `s`, built once and
/// sampled in O(log n) via binary search on the precomputed CDF.
///
/// Workload models use this for hot-spot access patterns (e.g. upper
/// octree levels in Barnes, popular scene objects in Raytrace), where a
/// small set of lines is touched far more often than the tail.
///
/// A clone shares the CDF (one `f64` per element), so handing each
/// processor its own sampler costs O(1).
#[derive(Clone, Debug)]
pub struct ZipfSampler {
    cdf: Arc<[f64]>,
}

impl ZipfSampler {
    /// Build a sampler over `0..n` (n ≥ 1) with exponent `s ≥ 0`.
    /// `s = 0` degenerates to the uniform distribution.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n >= 1, "ZipfSampler needs at least one element");
        assert!(s >= 0.0 && s.is_finite());
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for k in 1..=n {
            acc += (k as f64).powf(-s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        ZipfSampler { cdf: cdf.into() }
    }

    /// Number of elements in the support.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Draw an index in `0..n`; index 0 is the most popular.
    pub fn sample(&self, rng: &mut Rng64) -> usize {
        let u = rng.f64_unit();
        match self
            .cdf
            .binary_search_by(|probe| probe.partial_cmp(&u).expect("cdf is finite"))
        {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = Rng64::new(42);
        let mut b = Rng64::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng64::new(1);
        let mut b = Rng64::new(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn below_in_range() {
        let mut r = Rng64::new(7);
        for _ in 0..10_000 {
            let v = r.below(13);
            assert!(v < 13);
        }
    }

    #[test]
    fn below_reaches_all_buckets() {
        let mut r = Rng64::new(99);
        let mut seen = [false; 8];
        for _ in 0..10_000 {
            seen[r.below(8) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn f64_unit_in_unit_interval() {
        let mut r = Rng64::new(3);
        for _ in 0..10_000 {
            let v = r.f64_unit();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn forked_streams_are_independent() {
        let mut root = Rng64::new(5);
        let mut a = root.fork(0);
        let mut b = root.fork(1);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 3);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = Rng64::new(11);
        let mut xs: Vec<u32> = (0..100).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn zipf_prefers_head() {
        let z = ZipfSampler::new(1000, 1.0);
        let mut r = Rng64::new(17);
        let mut head = 0usize;
        const N: usize = 20_000;
        for _ in 0..N {
            if z.sample(&mut r) < 10 {
                head += 1;
            }
        }
        // With s=1 over 1000 elements the top-10 mass is ~39%.
        assert!(head > N / 4, "head mass too small: {head}/{N}");
    }

    #[test]
    fn zipf_zero_exponent_is_uniformish() {
        let z = ZipfSampler::new(10, 0.0);
        let mut r = Rng64::new(23);
        let mut counts = [0usize; 10];
        for _ in 0..50_000 {
            counts[z.sample(&mut r)] += 1;
        }
        for &c in &counts {
            assert!((3500..6500).contains(&c), "not uniform: {counts:?}");
        }
    }

    #[test]
    fn zipf_single_element() {
        let z = ZipfSampler::new(1, 1.5);
        let mut r = Rng64::new(1);
        for _ in 0..100 {
            assert_eq!(z.sample(&mut r), 0);
        }
    }
}
