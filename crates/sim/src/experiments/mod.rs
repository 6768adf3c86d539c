//! One entry point per table and figure of the paper's evaluation
//! (Section IV for the attack studies, Section VII for the GECKO
//! evaluation). Each module exposes typed records (see
//! [`crate::report::Record`]); the `gecko-bench` crate renders them as
//! paper-style tables and persists them as JSON through the `gecko-fleet`
//! telemetry sinks. Most modules also compute their rows here through a
//! `rows(...)` function. The heavyweight grid sweeps (Figures 4, 5, 7, 8,
//! 11 and 13) are the exception: they run only on the campaign engine, in
//! `gecko_fleet::figures`, which fans their cells out over a worker pool.
//! Their modules here keep the row types, grid constants and summaries
//! the fleet sweeps and bench targets share, because `gecko-fleet`
//! depends on this crate and not the other way round.
//!
//! Every experiment accepts a [`Fidelity`]: `Quick` shrinks sweeps and
//! windows so integration tests finish in seconds, `Full` is what the
//! bench harness runs.
//!
//! Simulated-time scaling: experiments that the paper ran for tens of
//! minutes on real boards (Figure 13's 45-minute attack scenarios) are
//! compressed — one paper-minute becomes one simulated second — because
//! the dynamics of interest (detection latency, recovery, re-enable)
//! happen at millisecond scale. The compression factor is recorded in the
//! row types.

pub mod extras;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig4;
pub mod fig5;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod table1;
pub mod table2;
pub mod table3;

use gecko_emi::{AttackSchedule, DeviceModel, EmiSignal, Injection, MonitorKind};

use crate::device::{SimConfig, Simulator};
use crate::scheme::SchemeKind;

/// Sweep density / window length selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fidelity {
    /// Coarse sweeps, short windows — for tests.
    Quick,
    /// The full sweeps the bench harness runs.
    Full,
}

impl Fidelity {
    /// Measurement window for forward-progress experiments (s).
    pub fn window_s(self) -> f64 {
        match self {
            Fidelity::Quick => 0.04,
            Fidelity::Full => 0.1,
        }
    }
}

/// The app used as the victim workload in the attack studies (the paper
/// runs a sensing/compute loop; `bitcnt` is our stand-in).
pub const VICTIM_APP: &str = "bitcnt";

/// Forward-progress cycles of an unattacked device over `window_s`.
pub fn clean_forward_cycles(device: &DeviceModel, monitor: MonitorKind, window_s: f64) -> u64 {
    let app = gecko_apps::app_by_name(VICTIM_APP).expect("victim app");
    let cfg = SimConfig::bench_supply(SchemeKind::Nvp).with_device(device.clone(), monitor);
    let mut sim = Simulator::new(&app, cfg).expect("compiles");
    sim.run_for(window_s).forward_cycles
}

/// Forward-progress *rate* `R = T_forward / T_guarantee` of an attacked
/// NVP device relative to `clean` baseline cycles.
pub fn attacked_rate(
    device: &DeviceModel,
    monitor: MonitorKind,
    signal: EmiSignal,
    injection: Injection,
    window_s: f64,
    clean: u64,
) -> f64 {
    let app = gecko_apps::app_by_name(VICTIM_APP).expect("victim app");
    let cfg = SimConfig::bench_supply(SchemeKind::Nvp)
        .with_device(device.clone(), monitor)
        .with_attack(AttackSchedule::continuous(signal, injection));
    let mut sim = Simulator::new(&app, cfg).expect("compiles");
    let m = sim.run_for(window_s);
    m.forward_cycles as f64 / clean.max(1) as f64
}

/// A logarithmic frequency grid over `lo_hz..=hi_hz` with `points` points.
pub fn log_freq_grid(lo_hz: f64, hi_hz: f64, points: usize) -> Vec<f64> {
    assert!(points >= 2 && lo_hz > 0.0 && hi_hz > lo_hz);
    let (l0, l1) = (lo_hz.ln(), hi_hz.ln());
    (0..points)
        .map(|i| (l0 + (l1 - l0) * i as f64 / (points - 1) as f64).exp())
        .collect()
}

/// A linear frequency grid.
pub fn lin_freq_grid(lo_hz: f64, hi_hz: f64, step_hz: f64) -> Vec<f64> {
    assert!(step_hz > 0.0 && hi_hz >= lo_hz);
    let mut out = Vec::new();
    let mut f = lo_hz;
    while f <= hi_hz + 1e-6 {
        out.push(f);
        f += step_hz;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grids_are_monotone() {
        let g = log_freq_grid(1e6, 1e9, 10);
        assert_eq!(g.len(), 10);
        assert!(g.windows(2).all(|w| w[0] < w[1]));
        assert!((g[0] - 1e6).abs() < 1.0);
        assert!((g[9] - 1e9).abs() < 1e3);

        let l = lin_freq_grid(5e6, 20e6, 5e6);
        assert_eq!(l.len(), 4);
    }

    #[test]
    fn clean_baseline_is_substantial() {
        let dev = gecko_emi::devices::msp430fr5994();
        let fwd = clean_forward_cycles(&dev, MonitorKind::Adc, 0.02);
        // 20 ms at 16 MHz with minor overhead.
        assert!(fwd > 200_000, "{fwd}");
    }

    #[test]
    fn attacked_rate_is_bounded() {
        let dev = gecko_emi::devices::msp430fr5994();
        let clean = clean_forward_cycles(&dev, MonitorKind::Adc, 0.02);
        let r = attacked_rate(
            &dev,
            MonitorKind::Adc,
            EmiSignal::new(27e6, 35.0),
            Injection::Remote { distance_m: 5.0 },
            0.02,
            clean,
        );
        assert!((0.0..=1.1).contains(&r), "{r}");
        assert!(r < 0.3, "resonant attack suppresses progress: {r}");
    }
}
