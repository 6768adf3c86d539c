//! The energy-buffer capacitor.

use std::fmt;

/// A capacitor used as the energy buffer of an intermittent system.
///
/// State is the pair (capacitance, stored energy); the voltage is derived
/// on demand as `V = sqrt(2·E/C)`. Energy is the *primary* state variable
/// because every simulation step charges and discharges in joules: keeping
/// the bookkeeping in the energy domain makes a charge/discharge tick a
/// handful of adds and multiplies with no square root, which is what lets
/// the simulator's hibernation fast-forward replay millions of sleep ticks
/// cheaply while staying bit-identical to stepping them one at a time.
///
/// Charging integrates harvested power, discharging removes instruction
/// energy. The stored energy never exceeds the rated ceiling set at charge
/// time and never goes below zero.
#[derive(Debug, Clone, PartialEq)]
pub struct Capacitor {
    capacitance_f: f64,
    energy_j: f64,
}

impl Capacitor {
    /// Creates a capacitor of `capacitance_f` farads pre-charged to
    /// `voltage_v` volts.
    ///
    /// # Panics
    ///
    /// Panics if `capacitance_f <= 0` or `voltage_v < 0`.
    pub fn new(capacitance_f: f64, voltage_v: f64) -> Capacitor {
        assert!(capacitance_f > 0.0, "capacitance must be positive");
        assert!(voltage_v >= 0.0, "voltage must be non-negative");
        Capacitor {
            capacitance_f,
            energy_j: 0.5 * capacitance_f * voltage_v * voltage_v,
        }
    }

    /// Capacitance in farads.
    #[inline]
    pub fn capacitance_f(&self) -> f64 {
        self.capacitance_f
    }

    /// Present voltage in volts (`sqrt(2·E/C)`, derived from the stored
    /// energy).
    #[inline]
    pub fn voltage_v(&self) -> f64 {
        (2.0 * self.energy_j / self.capacitance_f).sqrt()
    }

    /// Stored energy in joules.
    #[inline]
    pub fn energy_j(&self) -> f64 {
        self.energy_j
    }

    /// Energy stored above a floor voltage, i.e. the budget available before
    /// the voltage drops to `floor_v`. Zero when already below the floor.
    pub fn energy_above_j(&self, floor_v: f64) -> f64 {
        let floor_e = 0.5 * self.capacitance_f * floor_v * floor_v;
        (self.energy_j() - floor_e).max(0.0)
    }

    /// Forces the voltage to `voltage_v` (used when modeling a DC bench
    /// supply or when configuring experiments).
    ///
    /// # Panics
    ///
    /// Panics if `voltage_v < 0`.
    pub fn set_voltage(&mut self, voltage_v: f64) {
        assert!(voltage_v >= 0.0, "voltage must be non-negative");
        self.energy_j = 0.5 * self.capacitance_f * voltage_v * voltage_v;
    }

    /// Integrates `power_w` of harvested power for `dt_s` seconds, clamping
    /// the stored energy at `½·C·ceiling_v²`. Returns the energy actually
    /// banked (joules).
    #[inline]
    pub fn charge(&mut self, power_w: f64, dt_s: f64, ceiling_v: f64) -> f64 {
        debug_assert!(dt_s >= 0.0);
        let before = self.energy_j;
        let after = before + power_w.max(0.0) * dt_s;
        let ceiling_e = 0.5 * self.capacitance_f * ceiling_v * ceiling_v;
        // Every simulated instruction and sleep tick runs through here with
        // `energy_j` as the loop-carried value, so the serial energy chain
        // is one add (`power_w · dt_s` is off it) plus this clamp. The
        // clamp is a predicted branch rather than `maxsd`/`minsd` selects
        // on that chain: in range `clamp` returns `after` itself, so the
        // first arm is bit-exact, and only a saturating step (every step on
        // a bench supply) or a capacitor already above the ceiling takes
        // the full clamp.
        self.energy_j = if after >= 0.0 && after <= ceiling_e {
            after
        } else {
            cold();
            after.clamp(0.0, ceiling_e.max(before))
        };
        self.energy_j - before
    }

    /// Removes `energy_j` joules (instruction execution, checkpointing…).
    /// Returns `true` if the full amount was available; on `false` the
    /// capacitor is left fully drained (brown-out).
    #[inline]
    pub fn discharge_j(&mut self, energy_j: f64) -> bool {
        debug_assert!(energy_j >= 0.0);
        // Brown-out ends a run's active phase, so its arm is cold, as in
        // `charge`. Inlined into the event-horizon span loop the two arms
        // still become a compare-and-mask select (the weights do not
        // survive there); forcing a branch measured slower (DESIGN.md §13).
        if energy_j <= self.energy_j {
            self.energy_j -= energy_j;
            true
        } else {
            cold();
            self.energy_j = 0.0;
            false
        }
    }

    /// Seconds needed to charge from the present voltage to `target_v` given
    /// constant harvested `power_w`. Returns `f64::INFINITY` when
    /// `power_w <= 0`.
    pub fn time_to_charge_s(&self, target_v: f64, power_w: f64) -> f64 {
        if target_v <= self.voltage_v() {
            return 0.0;
        }
        if power_w <= 0.0 {
            return f64::INFINITY;
        }
        let target_e = 0.5 * self.capacitance_f * target_v * target_v;
        (target_e - self.energy_j()) / power_w
    }
}

/// Marks the arm that calls it as unlikely, so the compiler lays it out
/// off the hot path. Inlined: a real call there would cost a saturating
/// step more than the branch saves.
#[cold]
#[inline(always)]
fn cold() {}

impl fmt::Display for Capacitor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.1} mF @ {:.3} V ({:.3} mJ)",
            self.capacitance_f * 1e3,
            self.voltage_v(),
            self.energy_j * 1e3
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_formula() {
        let c = Capacitor::new(1e-3, 3.3);
        assert!((c.energy_j() - 0.5 * 1e-3 * 3.3 * 3.3).abs() < 1e-12);
    }

    #[test]
    fn charge_respects_ceiling() {
        let mut c = Capacitor::new(1e-3, 3.0);
        let banked = c.charge(1.0, 100.0, 3.3); // absurd power: must clamp
        assert!((c.voltage_v() - 3.3).abs() < 1e-9);
        let expect = 0.5e-3 * (3.3 * 3.3 - 3.0 * 3.0);
        assert!((banked - expect).abs() < 1e-9);
    }

    #[test]
    fn discharge_success_and_brownout() {
        let mut c = Capacitor::new(1e-3, 3.3);
        let half = c.energy_j() / 2.0;
        assert!(c.discharge_j(half));
        assert!(c.voltage_v() < 3.3 && c.voltage_v() > 0.0);
        assert!(!c.discharge_j(1.0), "overdraw must fail");
        assert_eq!(c.voltage_v(), 0.0);
        assert_eq!(c.energy_j(), 0.0);
    }

    #[test]
    fn energy_above_floor() {
        let c = Capacitor::new(2e-3, 3.0);
        let e = c.energy_above_j(2.0);
        assert!((e - 0.5 * 2e-3 * (9.0 - 4.0)).abs() < 1e-12);
        assert_eq!(c.energy_above_j(3.5), 0.0);
    }

    #[test]
    fn charge_conserves_energy() {
        let mut c = Capacitor::new(1e-3, 1.0);
        let before = c.energy_j();
        let banked = c.charge(2e-3, 0.5, 3.3); // 1 mJ input, no clamp
        assert!((banked - 1e-3).abs() < 1e-12);
        assert!((c.energy_j() - before - 1e-3).abs() < 1e-12);
    }

    #[test]
    fn time_to_charge() {
        let c = Capacitor::new(1e-3, 0.0);
        // To 3.0 V: E = 4.5 mJ; at 1 mW → 4.5 s.
        let t = c.time_to_charge_s(3.0, 1e-3);
        assert!((t - 4.5).abs() < 1e-9);
        assert_eq!(c.time_to_charge_s(0.0, 1e-3), 0.0);
        assert_eq!(c.time_to_charge_s(3.0, 0.0), f64::INFINITY);
    }

    #[test]
    fn larger_capacitor_charges_slower() {
        let small = Capacitor::new(1e-3, 0.0);
        let large = Capacitor::new(10e-3, 0.0);
        assert!(large.time_to_charge_s(3.0, 1e-3) > small.time_to_charge_s(3.0, 1e-3));
    }

    #[test]
    #[should_panic(expected = "capacitance")]
    fn zero_capacitance_panics() {
        let _ = Capacitor::new(0.0, 1.0);
    }
}
