//! Conservative span sizing for event-horizon stepping.
//!
//! Between observable events the capacitor trajectory under a constant
//! harvester segment is bounded below by an affine one: every simulation
//! step loses at most `worst_loss_j`, so after `k` steps the stored energy
//! is at least `E_0 - k·worst_loss_j`. [`safe_steps`] turns that bound
//! into a step count guaranteed to keep the trajectory at or above a
//! guard floor, which the simulator's active-path coalescer (and
//! `DeviceBatch`'s planner) uses to size a batched span before executing
//! it.
//!
//! Floating point makes a closed-form *jump* unsound: the per-step
//! reference accumulates `E ← (E + gain) - draw` with two roundings per
//! step, which agrees with the affine form only when every intermediate
//! value is exactly representable. The simulator therefore never trusts
//! the closed form alone: it uses [`safe_steps`] to *decide how far* to
//! batch, and re-checks an exact per-step guard while replaying the very
//! same float operations the reference would execute (see DESIGN.md §13).
//! The property test in `tests/segment_props.rs` pins the contract:
//! [`safe_steps`] never overshoots, on arbitrary inputs.

/// A conservative number of steps guaranteed to keep the trajectory at or
/// above `floor_j` when every step loses at most `worst_loss_j` joules.
///
/// Returns 0 when no step is provably safe and `u64::MAX` when
/// `worst_loss_j <= 0` (a non-draining worst case never crosses). The
/// count is deliberately a haircut below the exact crossing — one full
/// step plus a 1e-9 relative shave — and is clamped to 2^32 steps so that
/// accumulated f64 rounding across a batch (≤ `k·2⁻⁵²·e0` after `k`
/// steps) stays orders of magnitude below any guard margin the simulator
/// uses; callers must still keep `floor_j` a real margin above the
/// threshold they protect (the sim uses the ADC-LSB margin, ~10⁻⁶ J,
/// vs ≤ 10⁻⁸ J of drift at the clamp) and re-check per-step while
/// replaying (DESIGN.md §13).
pub fn safe_steps(e0_j: f64, floor_j: f64, worst_loss_j: f64) -> u64 {
    // NaN-safe: anything but a strict `e0 > floor` (including NaN inputs)
    // means no step is provably safe.
    if e0_j.partial_cmp(&floor_j) != Some(std::cmp::Ordering::Greater) {
        return 0;
    }
    if worst_loss_j <= 0.0 {
        return u64::MAX;
    }
    let q = (e0_j - floor_j) / worst_loss_j;
    let n = (q * (1.0 - 1e-9)).floor() - 1.0;
    if n <= 0.0 {
        0
    } else {
        (n as u64).min(1 << 32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Steps of `E ← (E + gain) - draw` that end at or above `floor`
    /// before the first one that ends below it (capped at `cap`).
    fn steps_above(e0: f64, floor: f64, gain: f64, draw: f64, cap: u64) -> u64 {
        let mut e = e0;
        for k in 0..cap {
            e = (e + gain) - draw;
            if e < floor {
                return k;
            }
        }
        cap
    }

    #[test]
    fn already_below_floor() {
        assert_eq!(safe_steps(1.0, 2.0, 1.0), 0);
        // Sitting exactly on the floor leaves no provably safe step.
        assert_eq!(safe_steps(3.0, 3.0, 1.0), 0);
        assert_eq!(safe_steps(f64::NAN, 3.0, 1.0), 0);
    }

    #[test]
    fn non_draining_never_crosses() {
        assert_eq!(safe_steps(10.0, 3.0, 0.0), u64::MAX);
        assert_eq!(safe_steps(10.0, 3.0, -1.0), u64::MAX);
    }

    #[test]
    fn exact_small_cases_match_iteration() {
        // On integer inputs the haircut is exactly one step, plus one more
        // when the floor lands on a step boundary (the 1e-9 shave).
        // 10 → floor 3 at 1 J/step: 7 steps end at or above 3.
        assert_eq!(steps_above(10.0, 3.0, 0.0, 1.0, 100), 7);
        assert_eq!(safe_steps(10.0, 3.0, 1.0), 5);
        // 10 → floor 3 at 2 J/step: 3 steps end at or above 3.
        assert_eq!(steps_above(10.0, 3.0, 0.0, 2.0, 100), 3);
        assert_eq!(safe_steps(10.0, 3.0, 2.0), 2);
    }

    #[test]
    fn gain_offsets_draw() {
        // A step that banks `gain` and then draws `draw` loses at most
        // `draw - gain`; that many steps of the real iteration stay safe.
        let (gain, draw) = (0.25, 1.25);
        let n = safe_steps(10.0, 3.0, draw - gain);
        assert_eq!(n, safe_steps(10.0, 3.0, 1.0));
        assert!(n <= steps_above(10.0, 3.0, gain, draw, 100));
    }

    #[test]
    fn far_crossing_is_never() {
        // A crossing too far away to reach within one batch: the count
        // clamps at 2^32 steps, so accumulated drift stays bounded.
        assert_eq!(safe_steps(1.0, 0.0, 1e-30), 1 << 32);
        assert_eq!(safe_steps(1.0, 0.0, 1e-300), 1 << 32);
    }

    #[test]
    fn safe_steps_is_below_crossing() {
        // Every small integer case: at most the iterated count, and never
        // more than the two-step haircut below it.
        for e0 in 0..40u32 {
            for floor in 0..=e0 {
                for loss in 1..6u32 {
                    let (e0, floor, loss) = (f64::from(e0), f64::from(floor), f64::from(loss));
                    let n = safe_steps(e0, floor, loss);
                    let exact = steps_above(e0, floor, 0.0, loss, 100);
                    assert!(
                        n <= exact && n + 2 >= exact,
                        "{e0} {floor} {loss}: {n} vs {exact}"
                    );
                }
            }
        }
    }
}
