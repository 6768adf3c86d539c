//! Property tests of the energy substrate: capacitor physics invariants
//! that every simulation run implicitly relies on.
//!
//! Inputs are generated deterministically with the in-tree
//! [`SplitMix64`] generator (seeded per property), so failures reproduce
//! exactly and the suite needs no external property-testing dependency.

use gecko_energy::{Capacitor, PowerSource, PulsedRf, VoltageThresholds};
use gecko_isa::SplitMix64;

const CASES: u64 = 24;

/// Runs `body` on `CASES` deterministic RNG states derived from `seed`.
fn for_cases(seed: u64, mut body: impl FnMut(&mut SplitMix64)) {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(seed ^ case.wrapping_mul(0x9E37_79B9));
        body(&mut rng);
    }
}

/// Charging never exceeds the ceiling and never loses banked energy.
#[test]
fn charge_is_bounded_and_conservative() {
    for_cases(0xCAFE_0001, |rng| {
        let c_mf = rng.range_f64(0.01, 20.0);
        let v0 = rng.range_f64(0.0, 3.3);
        let power_mw = rng.range_f64(0.0, 50.0);
        let dt_ms = rng.range_f64(0.0, 500.0);
        let mut cap = Capacitor::new(c_mf * 1e-3, v0);
        let before = cap.energy_j();
        let banked = cap.charge(power_mw * 1e-3, dt_ms * 1e-3, 3.3);
        assert!(cap.voltage_v() <= 3.3 + 1e-9);
        assert!(banked >= -1e-12, "lossless charge cannot drain: {banked}");
        assert!(
            (cap.energy_j() - before - banked).abs() < 1e-9,
            "energy accounting closes"
        );
        assert!(banked <= power_mw * 1e-3 * dt_ms * 1e-3 + 1e-12);
    });
}

/// Discharging is exact while energy is available and clamps at zero.
#[test]
fn discharge_is_exact_or_brownout() {
    for_cases(0xCAFE_0002, |rng| {
        let c_mf = rng.range_f64(0.01, 20.0);
        let v0 = rng.range_f64(0.0, 3.3);
        let draw_uj = rng.range_f64(0.0, 20_000.0);
        let mut cap = Capacitor::new(c_mf * 1e-3, v0);
        let before = cap.energy_j();
        let draw = draw_uj * 1e-6;
        let ok = cap.discharge_j(draw);
        if ok {
            assert!((before - cap.energy_j() - draw).abs() < 1e-9);
        } else {
            assert!(draw > before);
            assert_eq!(cap.voltage_v(), 0.0);
        }
    });
}

/// Charge/discharge round-trips return to the same voltage.
#[test]
fn charge_then_discharge_roundtrips() {
    for_cases(0xCAFE_0003, |rng| {
        let c_mf = rng.range_f64(0.1, 10.0);
        let v0 = rng.range_f64(0.5, 2.5);
        let add_uj = rng.range_f64(0.0, 500.0);
        let mut cap = Capacitor::new(c_mf * 1e-3, v0);
        // Inject energy as 1 s of the equivalent power, then remove it.
        let banked = cap.charge(add_uj * 1e-6, 1.0, 3.3);
        assert!(cap.discharge_j(banked));
        assert!((cap.voltage_v() - v0).abs() < 1e-6);
    });
}

/// Time-to-charge is consistent with actually charging for that long.
#[test]
fn time_to_charge_is_accurate() {
    for_cases(0xCAFE_0004, |rng| {
        let c_mf = rng.range_f64(0.1, 5.0);
        let v0 = rng.range_f64(0.0, 2.0);
        let power_mw = rng.range_f64(0.1, 10.0);
        let cap = Capacitor::new(c_mf * 1e-3, v0);
        let t = cap.time_to_charge_s(3.0, power_mw * 1e-3);
        assert!(t.is_finite());
        let mut cap2 = cap.clone();
        cap2.charge(power_mw * 1e-3, t, 3.3);
        assert!(
            (cap2.voltage_v() - 3.0).abs() < 1e-6,
            "{}",
            cap2.voltage_v()
        );
    });
}

/// Threshold rescaling preserves the buffered energy for any larger
/// capacitor.
#[test]
fn rescaling_preserves_buffered_energy() {
    for_cases(0xCAFE_0005, |rng| {
        let scale = rng.range_f64(1.0, 20.0);
        let t = VoltageThresholds::default();
        let c_ref = 1e-3;
        let c = c_ref * scale;
        let t2 = t.rescale_for_capacitor(c_ref, c);
        let e1 = 0.5 * c_ref * (t.v_on * t.v_on - t.v_off * t.v_off);
        let e2 = 0.5 * c * (t2.v_on * t2.v_on - t2.v_off * t2.v_off);
        assert!((e1 - e2).abs() < 1e-9);
        assert!(t2.v_on > t2.v_backup && t2.v_backup > t2.v_off);
    });
}

/// Pulsed sources are periodic and never negative.
#[test]
fn pulsed_sources_are_periodic() {
    for_cases(0xCAFE_0006, |rng| {
        let period_ms = rng.range_f64(1.0, 2_000.0);
        let duty = rng.range_f64(0.05, 1.0);
        let t_s = rng.range_f64(0.0, 100.0);
        let src = PulsedRf::new(period_ms * 1e-3, duty, 1e-3);
        let p1 = src.power_w(t_s);
        let p2 = src.power_w(t_s + period_ms * 1e-3);
        assert!(p1 >= 0.0);
        assert!((p1 - p2).abs() < 1e-12, "periodic");
    });
}

/// `charge` is bit-identical to the lossless, leak-free integrate-and-clamp
/// it replaced, `(before + (p.max(0)·1 − 0)·dt).clamp(0, max(ceiling, before))`,
/// including its predicted in-range arm. The cases mix capacitors at, below
/// and above the ceiling with zero, negative, tiny and bench-supply power,
/// zero to large steps, and steps that land exactly on the ceiling.
#[test]
fn charge_matches_the_reference_clamp_bit_for_bit() {
    let mut rng = SplitMix64::new(0xCAFE_0007);
    let mut landed_on_ceiling = 0u32;
    for case in 0..120_000u32 {
        let c_f = rng.range_f64(1e-6, 20e-3);
        let ceiling_v = rng.range_f64(1.0, 3.6);
        let v0 = match case % 5 {
            0 => ceiling_v,
            1 => rng.range_f64(0.0, ceiling_v),
            2 => rng.range_f64(ceiling_v, ceiling_v + 2.0),
            3 => 0.0,
            // At least half the ceiling's energy, so `ceiling_e - before`
            // below is exact and the step can land on the ceiling itself.
            _ => rng.range_f64(ceiling_v * 0.71, ceiling_v),
        };
        let mut cap = Capacitor::new(c_f, v0);
        let before = cap.energy_j();
        let ceiling_e = 0.5 * c_f * ceiling_v * ceiling_v;
        let (p, dt) = match (case / 5) % 7 {
            0 => (0.0, rng.range_f64(0.0, 1.0)),
            1 => (-rng.range_f64(0.0, 1.0), rng.range_f64(0.0, 1.0)),
            2 => (rng.range_f64(0.0, 1e-9), rng.range_f64(1e-7, 1e-5)),
            3 => (0.1, rng.range_f64(1e-7, 1e-5)),
            4 => (rng.range_f64(0.0, 0.2), 0.0),
            5 => (rng.range_f64(0.0, 1e-3), rng.range_f64(1.0, 1e3)),
            _ if case % 5 == 4 => {
                let p = ceiling_e - before;
                if before + p == ceiling_e {
                    landed_on_ceiling += 1;
                }
                (p, 1.0)
            }
            _ => (rng.range_f64(0.0, 1e-2), rng.range_f64(0.0, 1e-2)),
        };
        let reference = (before + (p.max(0.0) * 1.0 - 0.0) * dt).clamp(0.0, ceiling_e.max(before));
        let banked = cap.charge(p, dt, ceiling_v);
        assert_eq!(
            cap.energy_j().to_bits(),
            reference.to_bits(),
            "case {case}: C={c_f} V0={v0} ceiling={ceiling_v} p={p} dt={dt}"
        );
        assert_eq!(banked.to_bits(), (reference - before).to_bits());
    }
    assert!(
        landed_on_ceiling > 1_000,
        "only {landed_on_ceiling} steps landed on the ceiling"
    );
}

/// `discharge_j` is bit-identical to the draw-or-drain it has always
/// computed, `if draw <= before { before - draw } else { 0 }` with the
/// bool saying which arm ran, including its predicted in-range arm. The
/// cases mix draws below, exactly at and above the stored energy with
/// zero, subnormal and instruction-sized (nJ·1e-9) draws, on full, partly
/// charged, nearly empty and empty capacitors.
#[test]
fn discharge_matches_the_reference_select_bit_for_bit() {
    let mut rng = SplitMix64::new(0xCAFE_0008);
    let (mut exact, mut drained) = (0u32, 0u32);
    for case in 0..120_000u32 {
        let c_f = rng.range_f64(1e-6, 20e-3);
        let v0 = match case % 4 {
            0 => rng.range_f64(0.0, 3.6),
            1 => rng.range_f64(1.7, 3.3),
            2 => rng.range_f64(0.0, 1e-3),
            _ => 0.0,
        };
        let mut cap = Capacitor::new(c_f, v0);
        let before = cap.energy_j();
        let draw = match (case / 4) % 7 {
            0 => rng.range_f64(0.0, before),
            1 => before,
            2 => before + rng.range_f64(0.0, 1e-3) + f64::MIN_POSITIVE,
            3 => 0.0,
            4 => f64::from_bits(rng.next_u64() % (1u64 << 52)),
            5 => rng.range_f64(0.05, 20.0) * 1e-9,
            _ => before * rng.range_f64(0.999_999, 1.000_001),
        };
        let (reference, alive) = if draw <= before {
            (before - draw, true)
        } else {
            (0.0, false)
        };
        exact += u32::from(draw == before && before > 0.0);
        drained += u32::from(!alive);
        assert_eq!(
            cap.discharge_j(draw),
            alive,
            "case {case}: C={c_f} V0={v0} draw={draw}"
        );
        assert_eq!(
            cap.energy_j().to_bits(),
            reference.to_bits(),
            "case {case}: C={c_f} V0={v0} draw={draw}"
        );
    }
    assert!(
        exact > 10_000,
        "only {exact} draws took the exact stored energy"
    );
    assert!(drained > 10_000, "only {drained} draws browned out");
}
