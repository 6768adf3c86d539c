//! The attacker: single-tone EMI signals, injection methods and schedules.

use std::fmt;

/// A single-tone sine-wave EMI attack signal, as swept in Section IV.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EmiSignal {
    /// Carrier frequency (Hz).
    pub freq_hz: f64,
    /// Transmit power (dBm). The paper's emitters stay below 35 dBm.
    pub power_dbm: f64,
}

impl EmiSignal {
    /// Creates a signal.
    ///
    /// # Panics
    ///
    /// Panics if `freq_hz <= 0`.
    pub fn new(freq_hz: f64, power_dbm: f64) -> EmiSignal {
        assert!(freq_hz > 0.0, "frequency must be positive");
        EmiSignal { freq_hz, power_dbm }
    }

    /// Transmit power in watts.
    pub fn power_w(&self) -> f64 {
        10f64.powf((self.power_dbm - 30.0) / 10.0)
    }

    /// Peak voltage amplitude of the signal into a 50 Ω system:
    /// `V = sqrt(2·P·Z)`.
    pub fn amplitude_v(&self) -> f64 {
        (2.0 * self.power_w() * 50.0).sqrt()
    }
}

impl fmt::Display for EmiSignal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.1} MHz @ {:.0} dBm",
            self.freq_hz / 1e6,
            self.power_dbm
        )
    }
}

/// The two direct-power-injection points of Figure 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DpiPoint {
    /// Injection into the power line upstream of the capacitor.
    P1,
    /// Injection at the monitor side — "P2 signals can affect the
    /// ADC/Comparator more directly" and over a broader frequency range
    /// (Section IV-A2).
    P2,
}

/// How the attack signal reaches the victim.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Injection {
    /// Direct power injection through a coupling circuit (Figure 3). No
    /// path loss; `P2` additionally couples broadband.
    Dpi(DpiPoint),
    /// Radiated attack from an antenna `distance_m` away; amplitude is
    /// attenuated by free-space path loss.
    Remote {
        /// Antenna-to-victim distance in meters. Clamped to ≥ 0.1 m.
        distance_m: f64,
    },
}

impl Injection {
    /// Amplitude path gain from the emitter to the victim board for a tone
    /// at `freq_hz`.
    pub fn path_gain(&self, freq_hz: f64) -> f64 {
        match *self {
            Injection::Dpi(DpiPoint::P1) => 0.35,
            Injection::Dpi(DpiPoint::P2) => 1.0,
            Injection::Remote { distance_m } => {
                let d = distance_m.max(0.1);
                let lambda = 299_792_458.0 / freq_hz;
                // Free-space amplitude attenuation λ/(4πd), capped at 1.
                (lambda / (4.0 * std::f64::consts::PI * d)).min(1.0)
            }
        }
    }

    /// Broadband coupling added on top of the device's resonance profile.
    /// Only the P2 injection point exhibits it (it drives the monitor input
    /// directly, bypassing the input network selectivity).
    pub fn broadband_bonus(&self) -> f64 {
        match self {
            Injection::Dpi(DpiPoint::P2) => 0.4,
            _ => 0.0,
        }
    }
}

/// An attack active over a time window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimedAttack {
    /// Window start (s, inclusive).
    pub start_s: f64,
    /// Window end (s, exclusive).
    pub end_s: f64,
    /// The emitted signal.
    pub signal: EmiSignal,
    /// The injection method.
    pub injection: Injection,
}

impl TimedAttack {
    /// Whether the attack is active at `t_s`.
    pub fn active_at(&self, t_s: f64) -> bool {
        t_s >= self.start_s && t_s < self.end_s
    }
}

/// A sequence of timed attacks — the "attack scenarios" of Figure 13.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AttackSchedule {
    attacks: Vec<TimedAttack>,
}

impl AttackSchedule {
    /// No attack, ever.
    pub fn none() -> AttackSchedule {
        AttackSchedule::default()
    }

    /// A single attack active for the whole simulation.
    pub fn continuous(signal: EmiSignal, injection: Injection) -> AttackSchedule {
        AttackSchedule {
            attacks: vec![TimedAttack {
                start_s: 0.0,
                end_s: f64::INFINITY,
                signal,
                injection,
            }],
        }
    }

    /// Builds a schedule from explicit windows.
    pub fn from_windows(attacks: Vec<TimedAttack>) -> AttackSchedule {
        AttackSchedule { attacks }
    }

    /// Convenience: the same signal fired in several `[start, start+dur)`
    /// windows — how Figure 13's multi-burst scenarios are expressed.
    pub fn bursts(
        signal: EmiSignal,
        injection: Injection,
        starts_s: &[f64],
        duration_s: f64,
    ) -> AttackSchedule {
        AttackSchedule {
            attacks: starts_s
                .iter()
                .map(|&start_s| TimedAttack {
                    start_s,
                    end_s: start_s + duration_s,
                    signal,
                    injection,
                })
                .collect(),
        }
    }

    /// The attack active at `t_s`, if any (first match wins).
    pub fn active_at(&self, t_s: f64) -> Option<&TimedAttack> {
        self.attacks.iter().find(|a| a.active_at(t_s))
    }

    /// Whether the schedule contains no attacks at all.
    pub fn is_empty(&self) -> bool {
        self.attacks.is_empty()
    }

    /// If no attack is active at `t_s`, returns the time the next attack
    /// window opens (`f64::INFINITY` when none ever will); returns `None`
    /// when an attack is active right now.
    ///
    /// The simulator's hibernation fast-forward uses this to bound a span
    /// of sleep ticks it may coalesce: within `[t_s, horizon)` the
    /// disturbance amplitude is identically zero, so skipping the per-tick
    /// monitor evaluation cannot change any reading.
    pub fn quiet_horizon(&self, t_s: f64) -> Option<f64> {
        if self.active_at(t_s).is_some() {
            return None;
        }
        let mut horizon = f64::INFINITY;
        for a in &self.attacks {
            if a.start_s > t_s {
                horizon = horizon.min(a.start_s);
            }
        }
        Some(horizon)
    }

    /// The next attack-window edge — a window opening *or* closing —
    /// strictly after `t_s`, or `f64::INFINITY` when the schedule holds
    /// no further edges.
    ///
    /// Between consecutive edges the set of active windows cannot change,
    /// so [`active_at`](AttackSchedule::active_at) (and with it the
    /// disturbance amplitude seen by every monitor) is constant over
    /// `[t_s, next_edge)`. The simulator's event-horizon stepping uses
    /// this as the attack component of a coalesced segment's horizon.
    pub fn next_edge(&self, t_s: f64) -> f64 {
        let mut edge = f64::INFINITY;
        for a in &self.attacks {
            if a.start_s > t_s {
                edge = edge.min(a.start_s);
            }
            if a.end_s > t_s {
                edge = edge.min(a.end_s);
            }
        }
        edge
    }

    /// The scheduled attack windows.
    pub fn windows(&self) -> &[TimedAttack] {
        &self.attacks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dbm_conversions() {
        let s = EmiSignal::new(27e6, 30.0);
        assert!((s.power_w() - 1.0).abs() < 1e-12, "30 dBm = 1 W");
        assert!(
            (s.amplitude_v() - 10.0).abs() < 1e-9,
            "1 W into 50 Ω = 10 V pk"
        );
        let weak = EmiSignal::new(27e6, 0.0);
        assert!((weak.power_w() - 1e-3).abs() < 1e-15, "0 dBm = 1 mW");
    }

    #[test]
    fn remote_path_loss_decreases_with_distance_and_frequency() {
        let near = Injection::Remote { distance_m: 1.0 };
        let far = Injection::Remote { distance_m: 5.0 };
        assert!(near.path_gain(27e6) > far.path_gain(27e6));
        assert!(
            far.path_gain(27e6) > far.path_gain(270e6),
            "higher f, more loss"
        );
        // Distance clamp prevents gain blow-up at 0 m.
        let zero = Injection::Remote { distance_m: 0.0 };
        assert!(zero.path_gain(27e6) <= 1.0);
    }

    #[test]
    fn dpi_stronger_than_remote() {
        let p2 = Injection::Dpi(DpiPoint::P2);
        let remote = Injection::Remote { distance_m: 5.0 };
        assert!(p2.path_gain(27e6) > remote.path_gain(27e6));
        assert!(p2.broadband_bonus() > 0.0);
        assert_eq!(Injection::Dpi(DpiPoint::P1).broadband_bonus(), 0.0);
    }

    #[test]
    fn quiet_horizon_bounds_coalescing() {
        let sig = EmiSignal::new(27e6, 35.0);
        let inj = Injection::Remote { distance_m: 5.0 };
        let sched = AttackSchedule::bursts(sig, inj, &[60.0, 300.0], 30.0);
        assert_eq!(sched.quiet_horizon(0.0), Some(60.0));
        assert_eq!(sched.quiet_horizon(65.0), None, "inside a window");
        assert_eq!(sched.quiet_horizon(100.0), Some(300.0));
        assert_eq!(sched.quiet_horizon(400.0), Some(f64::INFINITY));
        assert_eq!(
            AttackSchedule::none().quiet_horizon(1.0),
            Some(f64::INFINITY)
        );
    }

    #[test]
    fn next_edge_sees_openings_and_closings() {
        let sig = EmiSignal::new(27e6, 35.0);
        let inj = Injection::Remote { distance_m: 5.0 };
        let sched = AttackSchedule::bursts(sig, inj, &[60.0, 300.0], 30.0);
        assert_eq!(sched.next_edge(0.0), 60.0, "first opening");
        assert_eq!(sched.next_edge(60.0), 90.0, "strictly after: the close");
        assert_eq!(sched.next_edge(65.0), 90.0, "closing edge mid-window");
        assert_eq!(sched.next_edge(90.0), 300.0);
        assert_eq!(sched.next_edge(330.0), f64::INFINITY);
        assert_eq!(AttackSchedule::none().next_edge(0.0), f64::INFINITY);
    }

    #[test]
    fn schedule_windows() {
        let sig = EmiSignal::new(27e6, 35.0);
        let inj = Injection::Remote { distance_m: 5.0 };
        let sched = AttackSchedule::bursts(sig, inj, &[60.0, 300.0], 30.0);
        assert!(sched.active_at(0.0).is_none());
        assert!(sched.active_at(65.0).is_some());
        assert!(sched.active_at(90.0).is_none(), "window is half-open");
        assert!(sched.active_at(315.0).is_some());
        assert_eq!(sched.windows().len(), 2);
        assert!(AttackSchedule::none().is_empty());
        assert!(AttackSchedule::continuous(sig, inj)
            .active_at(1e9)
            .is_some());
    }
}
