//! The suite's only randomness source: a seeded **splitmix64** generator.
//!
//! Every stochastic element of the workspace — app input data, scripted
//! sensor peripherals, generated test programs, campaign seed sweeps —
//! draws from this one deterministic stream so that simulations are
//! bit-reproducible and the workspace needs no external `rand` crate
//! (the build must succeed on air-gapped machines).

/// Seeded splitmix64 pseudo-random generator.
///
/// The raw `state` is the splitmix64 counter; `next_u64` applies the
/// standard finalizer. Callers that historically pre-mixed their seed
/// (e.g. `seed * GOLDEN + k`) can reproduce their exact streams via
/// [`SplitMix64::from_state`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

/// The splitmix64 increment (the 64-bit golden ratio).
pub const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The splitmix64 finalizer: two xor-shifts and two odd multiplies, each a
/// bijection on `u64`, so the whole is one; it maps 0 to 0.
pub(crate) fn finalize(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SplitMix64 {
    /// A generator whose counter starts at `seed`.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// A generator resuming from a raw counter value (for callers that
    /// derive the initial state themselves).
    pub fn from_state(state: u64) -> SplitMix64 {
        SplitMix64 { state }
    }

    /// The raw counter (serializable; `from_state` restores it).
    pub fn state(&self) -> u64 {
        self.state
    }

    /// The next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN_GAMMA);
        finalize(self.state)
    }

    /// A uniform integer in `lo..hi` (half-open; `hi > lo`).
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(hi > lo, "empty range {lo}..{hi}");
        lo + self.next_u64() % (hi - lo)
    }

    /// A uniform integer in `lo..hi` (half-open; `hi > lo`).
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(hi > lo, "empty range {lo}..{hi}");
        // Span in u64 via wrapping two's-complement subtraction: correct
        // even when `hi - lo` exceeds i64::MAX (e.g. i64::MIN..i64::MAX).
        let span = (hi as u64).wrapping_sub(lo as u64);
        lo.wrapping_add((self.next_u64() % span) as i64)
    }

    /// A uniform float in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        // 53 mantissa bits of uniformity.
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + (hi - lo) * unit
    }

    /// Picks an index by integer weight (weights need not be normalized).
    pub fn pick_weighted(&mut self, weights: &[u32]) -> usize {
        let total: u64 = weights.iter().map(|&w| w as u64).sum();
        assert!(total > 0, "weights must not all be zero");
        let mut roll = self.next_u64() % total;
        for (i, &w) in weights.iter().enumerate() {
            if roll < w as u64 {
                return i;
            }
            roll -= w as u64;
        }
        unreachable!("roll exhausted the weight table")
    }

    /// A fresh, decorrelated child generator (for per-item streams).
    pub fn split(&mut self) -> SplitMix64 {
        SplitMix64::new(self.next_u64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_deterministic_and_nontrivial() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 8, "no short cycles: {xs:?}");
    }

    #[test]
    fn known_vector() {
        // Reference value of splitmix64(seed=0), first output.
        let mut r = SplitMix64::new(0);
        assert_eq!(r.next_u64(), 0xE220_A839_7B1D_CDAF);
    }

    #[test]
    fn ranges_are_in_bounds() {
        let mut r = SplitMix64::new(7);
        for _ in 0..1000 {
            let u = r.range_u64(10, 20);
            assert!((10..20).contains(&u));
            let i = r.range_i64(-5, 5);
            assert!((-5..5).contains(&i));
            let f = r.range_f64(1.5, 2.5);
            assert!((1.5..2.5).contains(&f));
            let w = r.pick_weighted(&[4, 3, 2, 1]);
            assert!(w < 4);
        }
    }

    #[test]
    fn range_i64_survives_extreme_spans() {
        let mut r = SplitMix64::new(99);
        for _ in 0..1000 {
            let full = r.range_i64(i64::MIN, i64::MAX);
            assert!(full < i64::MAX);
            let wide = r.range_i64(i64::MIN, 1);
            assert!(wide < 1);
        }
    }

    #[test]
    fn split_decorrelates() {
        let mut r = SplitMix64::new(1);
        let mut c1 = r.split();
        let mut c2 = r.split();
        assert_ne!(c1.next_u64(), c2.next_u64());
    }
}
