//! Property test for the conservative span sizer (see `segment.rs`
//! module docs): `safe_steps` never overshoots — taking that many
//! worst-case steps (as actually evaluated in f64) keeps the trajectory at
//! or above the floor the whole way.

use gecko_energy::segment::safe_steps;

/// Minimal splitmix64 (same construction as `gecko_isa::rng`), kept local
/// so `gecko-energy`'s dev-dependencies stay at layer 0.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[test]
fn safe_steps_never_overshoots() {
    const CAP: u64 = 200_000;
    let mut rng = SplitMix64(0x5eed_0003);
    for case in 0..2_000u64 {
        // Arbitrary (non-dyadic) magnitudes across the simulator's real
        // regimes: millijoule storage, nanojoule-to-millijoule losses.
        let e0 = 1e-6 * 10f64.powf(4.0 * rng.unit_f64());
        let floor = e0 * rng.unit_f64();
        // Keep the loss ≥ 1e-9·e0 so CAP steps of f64 rounding noise
        // (≈ CAP·2⁻⁵²·e0) stay far below one step's haircut.
        let loss = e0 * (1e-9 + rng.unit_f64());
        let n = safe_steps(e0, floor, loss);
        let mut e = e0;
        for k in 0..n.min(CAP) {
            e -= loss;
            assert!(
                e >= floor,
                "case {case}: below floor after step {} of {n} (e0={e0} floor={floor} loss={loss})",
                k + 1
            );
        }
    }
}
