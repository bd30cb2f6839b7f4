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

    /// Bernoulli draw with probability `p`: exactly `self.f64_unit() < p`,
    /// decided on the draw's 53 integer bits. `f64_unit` is `k·2⁻⁵³` for
    /// an integer `k`, so `k·2⁻⁵³ < p` holds iff `k < ⌈p·2⁵³⌉`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        (self.next_u64() >> 11) < unit_threshold(p)
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

/// `⌈p·2⁵³⌉` clamped to `[0, 2⁵³]`: the number of 53-bit draws `k` with
/// `k·2⁻⁵³ < p`. Scaling by a power of two is exact (subnormals included),
/// the saturating cast sends NaN and negatives to 0, and the ceiling is a
/// compare, not a libm call.
#[inline]
fn unit_threshold(p: f64) -> u64 {
    const ONE: u64 = 1 << 53;
    let x = p * ONE as f64;
    let t = x as u64;
    if t >= ONE {
        ONE
    } else {
        t + u64::from((t as f64) < x)
    }
}

/// Zipf-distributed sampler over `0..n` with exponent `s`, built once and
/// sampled in expected O(1) by indexed search (Chen & Asau's guide table)
/// on the precomputed CDF.
///
/// Workload models use this for hot-spot access patterns (e.g. upper
/// octree levels in Barnes, popular scene objects in Raytrace), where a
/// small set of lines is touched far more often than the tail.
///
/// The guide table splits `[0, 1)` into `M` equal buckets, `M` the largest
/// power of two ≤ n, so `u·M` and `b/M` are exact. Entry `b` counts the
/// CDF entries below `b/M`: a draw in bucket `b` starts its scan there,
/// and since every bucket is hit with probability `1/M`, the expected scan
/// is at most `1 + n/M ≤ 3` entries.
///
/// A clone shares the CDF (one `f64` per element) and the guide table (one
/// `u32` per bucket, at most half the CDF's bytes), so handing each
/// processor its own sampler costs O(1).
#[derive(Clone, Debug)]
pub struct ZipfSampler {
    cdf: Arc<[f64]>,
    guide: Arc<[u32]>,
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
        // The last entry is `total / total = 1.0`, above every draw, so a
        // scan from any bucket stops inside the table.
        debug_assert_eq!(cdf[n - 1], 1.0);
        let buckets = 1usize << n.ilog2();
        let mut guide = Vec::with_capacity(buckets);
        let mut below = 0usize;
        for b in 0..buckets {
            let edge = b as f64 / buckets as f64;
            while cdf[below] < edge {
                below += 1;
            }
            guide.push(u32::try_from(below).expect("ZipfSampler support exceeds u32"));
        }
        ZipfSampler {
            cdf: cdf.into(),
            guide: guide.into(),
        }
    }

    /// Number of elements in the support.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Draw an index in `0..n`; index 0 is the most popular.
    #[inline]
    pub fn sample(&self, rng: &mut Rng64) -> usize {
        self.index_of(rng.f64_unit())
    }

    /// The index a draw `u ∈ [0, 1)` selects: the first CDF entry not
    /// below `u`, found by a forward scan from `u`'s guide bucket. On an
    /// exact tie (`cdf[j] == u`) the binary search decides, since its pick
    /// among equal entries is the one every generated stream was built on.
    #[inline]
    fn index_of(&self, u: f64) -> usize {
        let cdf = &*self.cdf;
        let bucket = (u * self.guide.len() as f64) as usize;
        let mut j = self.guide[bucket] as usize;
        while cdf[j] < u {
            j += 1;
        }
        if cdf[j] == u {
            return self.binary_search(u);
        }
        j
    }

    /// The reference lookup: binary search over the whole CDF.
    fn binary_search(&self, u: f64) -> usize {
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

    /// The probes at which a guide lookup could part from the binary
    /// search: every CDF value and its two neighbours, both ends of
    /// `[0, 1)`, and random draws.
    fn probes(z: &ZipfSampler, rng: &mut Rng64) -> Vec<f64> {
        let mut us = vec![0.0, 1.0 - f64::EPSILON / 2.0];
        for &c in z.cdf.iter() {
            us.extend([c.next_down(), c, c.next_up()]);
        }
        us.extend((0..100_000).map(|_| rng.f64_unit()));
        us.retain(|u| (0.0..1.0).contains(u));
        us
    }

    #[test]
    fn zipf_guide_lookup_matches_binary_search() {
        let mut rng = Rng64::new(29);
        for n in [1usize, 2, 3, 1000, 4097] {
            for s in [0.0, 1.0, 1.25, 40.0] {
                let z = ZipfSampler::new(n, s);
                let m = z.guide.len();
                assert!(m.is_power_of_two() && m <= n, "n {n}: {m} buckets");
                for u in probes(&z, &mut rng) {
                    assert_eq!(z.index_of(u), z.binary_search(u), "n {n} s {s} u {u:e}");
                }
            }
        }
    }

    #[test]
    fn zipf_steep_exponent_has_tied_cdf_runs() {
        // s = 40 pushes the tail below the head's rounding, so the probe
        // test above meets runs of equal CDF entries; a draw equal to an
        // entry is the tie the guide lookup defers to the binary search.
        let z = ZipfSampler::new(1000, 40.0);
        assert!(z.cdf.windows(2).any(|w| w[0] == w[1]));
        assert_eq!(z.index_of(z.cdf[0]), 0);
    }

    /// Every p the integer Bernoulli test must agree with `f64_unit() < p` on.
    const CHANCE_PS: [f64; 12] = [
        0.0,
        -0.0,
        f64::from_bits(1),
        f64::EPSILON / 2.0,
        0.1,
        0.25,
        1.0 - f64::EPSILON / 2.0,
        1.0,
        1.5,
        f64::INFINITY,
        -1.0,
        f64::NAN,
    ];

    #[test]
    fn chance_matches_float_compare_on_cloned_streams() {
        for (i, &p) in CHANCE_PS.iter().enumerate() {
            let mut a = Rng64::new(1000 + i as u64);
            let mut b = a.clone();
            for _ in 0..10_000 {
                assert_eq!(a.chance(p), b.f64_unit() < p, "p {p:e}");
            }
        }
    }

    #[test]
    fn chance_threshold_is_exact_at_its_boundary() {
        // Each 53-bit draw k stands for f64_unit() = k·2⁻⁵³; the threshold
        // must split the k's exactly where the float compare does.
        const ONE: u64 = 1 << 53;
        let unit = |k: u64| k as f64 / ONE as f64;
        for &p in &CHANCE_PS {
            let t = unit_threshold(p);
            assert!(t <= ONE, "p {p:e}");
            let ks = [0, 1, t.saturating_sub(1), t, t + 1, ONE - 1];
            for k in ks.into_iter().filter(|&k| k < ONE) {
                assert_eq!(k < t, unit(k) < p, "p {p:e} k {k}");
            }
        }
        assert_eq!(unit_threshold(f64::from_bits(1)), 1);
        assert_eq!(unit_threshold(0.25), ONE / 4);
        assert_eq!(unit_threshold(1.0 - f64::EPSILON / 2.0), ONE - 1);
        assert_eq!(unit_threshold(f64::INFINITY), ONE);
        assert_eq!(unit_threshold(f64::NAN), 0);
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
