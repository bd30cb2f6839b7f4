//! Division-free modulo by a runtime constant (Lemire's fastmod).
//!
//! The attraction-memory set count is derived from the working set and the
//! memory pressure, which yields "odd cache sizes" (paper §3.1) — the set
//! mapping is a genuine `x % d` with a non-power-of-two `d`, evaluated once
//! per cache probe on the simulator's hottest path. A hardware 64-bit
//! division costs tens of cycles; precomputing the magic constant
//! `M = ceil(2^128 / d)` turns every subsequent modulo into two widening
//! multiplies (Lemire, Kaser & Kurz, "Faster remainder by direct
//! computation", 2019, extended from the published 32-bit version to u64
//! operands with a 128-bit magic).

/// A divisor with a precomputed magic constant for division-free `%`.
#[derive(Clone, Copy, Debug)]
pub struct FastMod {
    d: u64,
    /// `ceil(2^128 / d)`, or 0 when `d == 1` (every remainder is 0, which
    /// the multiply then produces without a special case).
    m: u128,
}

/// High 64 bits of the 192-bit product `a * d`.
#[inline]
fn mul128_by_64_hi(a: u128, d: u64) -> u64 {
    let lo = (a as u64 as u128) * d as u128;
    let hi = (a >> 64) * d as u128;
    ((hi + (lo >> 64)) >> 64) as u64
}

impl FastMod {
    /// Precompute the magic for divisor `d`. Panics if `d == 0`.
    pub fn new(d: u64) -> Self {
        assert!(d > 0, "FastMod divisor must be non-zero");
        let m = if d == 1 { 0 } else { u128::MAX / d as u128 + 1 };
        FastMod { d, m }
    }

    /// `x % d`, without a division instruction.
    #[inline]
    pub fn reduce(self, x: u64) -> u64 {
        let lowbits = self.m.wrapping_mul(x as u128);
        mul128_by_64_hi(lowbits, self.d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng64;

    #[test]
    fn agrees_with_hardware_modulo_on_edge_values() {
        for d in [1u64, 2, 3, 5, 7, 13, 64, 1000, u64::MAX - 1, u64::MAX] {
            let f = FastMod::new(d);
            for x in [
                0u64,
                1,
                2,
                d.wrapping_sub(1),
                d,
                d.wrapping_add(1),
                u64::MAX,
            ] {
                assert_eq!(f.reduce(x), x % d, "x={x} d={d}");
            }
        }
    }

    #[test]
    fn agrees_with_hardware_modulo_randomized() {
        let mut rng = Rng64::new(0x0F45_740D);
        for _ in 0..20_000 {
            let d = rng.next_u64().max(1);
            let x = rng.next_u64();
            let f = FastMod::new(d);
            assert_eq!(f.reduce(x), x % d, "x={x} d={d}");
        }
        // Small divisors (the realistic set-count range) deserve density.
        for _ in 0..20_000 {
            let d = rng.range(1, 1 << 20);
            let x = rng.next_u64();
            assert_eq!(FastMod::new(d).reduce(x), x % d, "x={x} d={d}");
        }
    }

    #[test]
    #[should_panic]
    fn zero_divisor_panics() {
        FastMod::new(0);
    }
}
