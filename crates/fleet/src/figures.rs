//! The paper's heavyweight grid sweeps (Figures 4, 5, 7, 8, 11 and 13),
//! run on the campaign engine.
//!
//! Each function builds its figure's grid as one [`CampaignSpec`], fans
//! the cells out over a worker pool, and reassembles the rows in grid
//! order, with every `(app, scheme)` compiled once. These are the only
//! implementations of the six sweeps: a one-worker campaign is the
//! sequential reference, and the row types, grid constants and summaries
//! live in `gecko_sim::experiments` (this crate depends on `gecko-sim`).
//! The tests below run each Quick sweep on one and on several workers,
//! require identical rows, pin the row count, and check the figure's
//! shape; `campaign::tests::campaign_matches_direct_simulation` checks
//! the engine cell by cell against hand-built simulators.

use gecko_emi::attack::DpiPoint;
use gecko_emi::{AttackSchedule, DeviceModel, EmiSignal, Injection, MonitorKind};
use gecko_sim::experiments::fig11::Fig11Row;
use gecko_sim::experiments::fig13::{Fig13Row, MINUTES_PER_SIM_SECOND};
use gecko_sim::experiments::fig4::Fig4Row;
use gecko_sim::experiments::fig5::Fig5Row;
use gecko_sim::experiments::fig7::Fig7Row;
use gecko_sim::experiments::fig8::Fig8Row;
use gecko_sim::experiments::{lin_freq_grid, log_freq_grid, Fidelity, VICTIM_APP};
use gecko_sim::SchemeKind;

use crate::campaign::{
    AttackCase, Campaign, CampaignError, CampaignReport, CampaignSpec, CapacitorSpec, DeviceCase,
    Supply, Workload,
};

/// Shared shape of the attack-study sweeps (fig4/fig5/fig8): victim app on
/// NVP, attack axis = `none` followed by the labeled attack grid, and
/// rate = attacked forward cycles over the unattacked cell's.
fn attack_study(
    name: &str,
    devices: Vec<DeviceCase>,
    attacks: Vec<AttackCase>,
    window_s: f64,
    workers: usize,
) -> Result<CampaignReport, CampaignError> {
    let mut axis = vec![AttackCase::none()];
    axis.extend(attacks);
    let spec = CampaignSpec::new(name)
        .apps([VICTIM_APP])
        .schemes([SchemeKind::Nvp])
        .devices(devices)
        .attacks(axis)
        .workload(Workload::RunFor { seconds: window_s });
    Campaign::new(spec).workers(workers).run()
}

/// Forward-progress rate of attack cell `attack_idx` (1-based within the
/// grid; 0 is the clean baseline) on device `device_idx`.
fn rate(report: &CampaignReport, device_idx: usize, attack_idx: usize) -> f64 {
    let clean = report
        .result_for(0, 0, device_idx, 0, 0)
        .metrics
        .forward_cycles;
    let attacked = report
        .result_for(0, 0, device_idx, attack_idx, 0)
        .metrics
        .forward_cycles;
    attacked as f64 / clean.max(1) as f64
}

/// Figure 4 (DPI sweep: 9 boards × {P1, P2} × frequency grid) through the
/// campaign engine.
///
/// # Errors
///
/// Propagates campaign failures.
pub fn fig4(fidelity: Fidelity, workers: usize) -> Result<Vec<Fig4Row>, CampaignError> {
    let points = match fidelity {
        Fidelity::Quick => 9,
        Fidelity::Full => 49,
    };
    let freqs = log_freq_grid(1e6, 1e9, points);
    let injections = [("P1", DpiPoint::P1), ("P2", DpiPoint::P2)];
    let mut attacks = Vec::new();
    for (label, point) in injections {
        for &f in &freqs {
            attacks.push(AttackCase::new(
                format!("{label}@{:.0}Hz", f),
                AttackSchedule::continuous(EmiSignal::new(f, 20.0), Injection::Dpi(point)),
            ));
        }
    }
    let devices: Vec<DeviceCase> = gecko_emi::devices::all_devices()
        .into_iter()
        .map(|d| DeviceCase::new(d, MonitorKind::Adc))
        .collect();
    let report = attack_study("fig4", devices, attacks, fidelity.window_s(), workers)?;

    let mut out = Vec::new();
    for (di, case) in report.spec.devices.iter().enumerate() {
        for (pi, (label, _)) in injections.iter().enumerate() {
            for (fi, &f) in freqs.iter().enumerate() {
                out.push(Fig4Row {
                    device: case.device.name().to_string(),
                    point: (*label).to_string(),
                    freq_hz: f,
                    rate: rate(&report, di, 1 + pi * freqs.len() + fi),
                });
            }
        }
    }
    Ok(out)
}

/// The remote sweep behind Figures 5 and 7: every board that passes
/// `board_filter`, watched by `monitor`, under a 5–500 MHz continuous tone
/// at 35 dBm from 5 m.
fn remote_sweep(
    name: &str,
    fidelity: Fidelity,
    monitor: MonitorKind,
    board_filter: fn(&DeviceModel) -> bool,
    workers: usize,
) -> Result<Vec<Fig5Row>, CampaignError> {
    use gecko_sim::experiments::fig5::{DISTANCE_M, POWER_DBM};
    let step = match fidelity {
        Fidelity::Quick => 11e6,
        Fidelity::Full => 5e6,
    };
    let freqs = lin_freq_grid(5e6, 500e6, step);
    let attacks: Vec<AttackCase> = freqs
        .iter()
        .map(|&f| {
            AttackCase::new(
                format!("{:.0}Hz", f),
                AttackSchedule::continuous(
                    EmiSignal::new(f, POWER_DBM),
                    Injection::Remote {
                        distance_m: DISTANCE_M,
                    },
                ),
            )
        })
        .collect();
    let devices: Vec<DeviceCase> = gecko_emi::devices::all_devices()
        .into_iter()
        .filter(board_filter)
        .map(|d| DeviceCase::new(d, monitor))
        .collect();
    let report = attack_study(name, devices, attacks, fidelity.window_s(), workers)?;

    let mut out = Vec::new();
    for (di, case) in report.spec.devices.iter().enumerate() {
        for (fi, &f) in freqs.iter().enumerate() {
            out.push(Fig5Row {
                device: case.device.name().to_string(),
                freq_hz: f,
                rate: rate(&report, di, 1 + fi),
            });
        }
    }
    Ok(out)
}

/// Figure 5 (remote sweep: 9 boards × 5–500 MHz at 35 dBm / 5 m, ADC
/// monitors) through the campaign engine.
///
/// # Errors
///
/// Propagates campaign failures.
pub fn fig5(fidelity: Fidelity, workers: usize) -> Result<Vec<Fig5Row>, CampaignError> {
    remote_sweep("fig5", fidelity, MonitorKind::Adc, |_| true, workers)
}

/// Figure 7 (the Figure 5 sweep on the two comparator-monitored boards,
/// MSP430FR5994 and FR6989) through the campaign engine. The comparator,
/// being continuous-time, collapses far harder than the sampled ADC at
/// its resonance (Table I's `Comp-R_min ≈ 10⁻²%`).
///
/// # Errors
///
/// Propagates campaign failures.
pub fn fig7(fidelity: Fidelity, workers: usize) -> Result<Vec<Fig7Row>, CampaignError> {
    remote_sweep(
        "fig7",
        fidelity,
        MonitorKind::Comparator,
        DeviceModel::has_comparator,
        workers,
    )
}

/// Figure 8 (distance × power grid on the MSP430FR5994 at 27 MHz) through
/// the campaign engine.
///
/// # Errors
///
/// Propagates campaign failures.
pub fn fig8(fidelity: Fidelity, workers: usize) -> Result<Vec<Fig8Row>, CampaignError> {
    let (distances, powers): (Vec<f64>, Vec<f64>) = match fidelity {
        Fidelity::Quick => (vec![0.5, 2.0, 5.0], vec![10.0, 25.0, 35.0]),
        Fidelity::Full => (
            vec![0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0],
            vec![0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0],
        ),
    };
    let mut attacks = Vec::new();
    for &d in &distances {
        for &p in &powers {
            attacks.push(AttackCase::new(
                format!("{d}m@{p}dBm"),
                AttackSchedule::continuous(
                    EmiSignal::new(27e6, p),
                    Injection::Remote { distance_m: d },
                ),
            ));
        }
    }
    let report = attack_study(
        "fig8",
        vec![DeviceCase::default_board()],
        attacks,
        fidelity.window_s(),
        workers,
    )?;

    let mut out = Vec::new();
    for (di, &d) in distances.iter().enumerate() {
        for (pi, &p) in powers.iter().enumerate() {
            out.push(Fig8Row {
                distance_m: d,
                power_dbm: p,
                rate: rate(&report, 0, 1 + di * powers.len() + pi),
            });
        }
    }
    Ok(out)
}

/// Figure 11 (11 apps × 4 schemes, outage-free normalized execution time)
/// through the campaign engine. This is the flagship cache workload: 44
/// cells and 44 distinct compiles, each `(app, scheme)` compiled exactly
/// once even with `seeds` widened, and the grid itself runs in parallel.
///
/// # Errors
///
/// Propagates campaign failures.
pub fn fig11(fidelity: Fidelity, workers: usize) -> Result<Vec<Fig11Row>, CampaignError> {
    let runs = match fidelity {
        Fidelity::Quick => 3,
        Fidelity::Full => 20,
    };
    let apps: Vec<String> = gecko_apps::all_apps()
        .iter()
        .map(|a| a.name.to_string())
        .collect();
    let spec = CampaignSpec::new("fig11")
        .apps(apps)
        .schemes(SchemeKind::all())
        .workload(Workload::UntilCompletions {
            n: runs,
            max_seconds: 30.0,
        });
    let report = Campaign::new(spec).workers(workers).run()?;

    let mut out = Vec::new();
    for (ai, app) in report.spec.apps.iter().enumerate() {
        let cycles = |si: usize| {
            let m = report.result_for(ai, si, 0, 0, 0).metrics;
            assert!(m.completions >= runs, "{app}: {m:?}");
            (m.forward_cycles + m.overhead_cycles) as f64 / m.completions as f64
        };
        let nvp = cycles(0);
        for (si, scheme) in report.spec.schemes.iter().enumerate() {
            let c = cycles(si);
            out.push(Fig11Row {
                app: app.clone(),
                scheme: scheme.name().to_string(),
                cycles_per_run: c,
                normalized: c / nvp,
            });
        }
    }
    Ok(out)
}

/// Figure 13 (six attack scenarios × three schemes, throughput timelines
/// in the harvesting environment) through the campaign engine. The
/// unattacked-NVP baseline runs as its own single-item campaign (one
/// uninterrupted `run_for`), then the 18 timelines fan out with the
/// bucketed workload.
///
/// # Errors
///
/// Propagates campaign failures.
pub fn fig13(fidelity: Fidelity, workers: usize) -> Result<Vec<Fig13Row>, CampaignError> {
    let scale = match fidelity {
        Fidelity::Quick => 0.25,
        Fidelity::Full => 1.0,
    } * MINUTES_PER_SIM_SECOND;
    let horizon_min = 50.0;
    let burst_min = 5.0;
    let bucket_min = 2.5;
    let cap = CapacitorSpec {
        capacitance_f: 100e-6,
        initial_voltage_v: 3.3,
        rescale_thresholds: false,
    };
    let harvesting = Supply::Harvesting { power_w: 1.2e-3 };

    let base_spec = CampaignSpec::new("fig13-baseline")
        .apps([VICTIM_APP])
        .schemes([SchemeKind::Nvp])
        .supply(harvesting)
        .capacitor(cap)
        .workload(Workload::RunFor {
            seconds: horizon_min * scale,
        });
    let base = Campaign::new(base_spec).run()?;
    let base_per_bucket = (base.totals.completions as f64 * bucket_min / horizon_min).max(1e-9);

    let scenarios = gecko_sim::experiments::fig13::scenarios();
    let attacks: Vec<AttackCase> = scenarios
        .iter()
        .map(|(label, bursts)| {
            AttackCase::new(
                *label,
                AttackSchedule::bursts(
                    EmiSignal::new(27e6, 35.0),
                    Injection::Remote { distance_m: 5.0 },
                    &bursts.iter().map(|m| m * scale).collect::<Vec<_>>(),
                    burst_min * scale,
                ),
            )
        })
        .collect();
    let spec = CampaignSpec::new("fig13")
        .apps([VICTIM_APP])
        .schemes([SchemeKind::Nvp, SchemeKind::Ratchet, SchemeKind::Gecko])
        .attacks(attacks)
        .supply(harvesting)
        .capacitor(cap)
        .workload(Workload::Buckets {
            horizon_s: horizon_min * scale,
            bucket_s: bucket_min * scale,
        });
    let report = Campaign::new(spec).workers(workers).run()?;

    // Reassemble in row order: scenario → scheme → bucket.
    let mut out = Vec::new();
    for (xi, (label, _)) in scenarios.iter().enumerate() {
        let schedule = &report.spec.attacks[xi].schedule;
        for (si, scheme) in report.spec.schemes.iter().enumerate() {
            let buckets = &report.result_for(0, si, 0, xi, 0).buckets;
            let mut prev = 0u64;
            for (bi, m) in buckets.iter().enumerate() {
                let t = bi as f64 * bucket_min;
                let done = m.completions - prev;
                prev = m.completions;
                let mid = (t + bucket_min / 2.0) * scale;
                out.push(Fig13Row {
                    scenario: (*label).to_string(),
                    scheme: scheme.name().to_string(),
                    t_min: t,
                    under_attack: schedule.active_at(mid).is_some(),
                    throughput_pct: 100.0 * done as f64 / base_per_bucket,
                });
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Lowest rate per board.
    fn min_rate_per_device(rows: &[Fig5Row]) -> std::collections::BTreeMap<&str, f64> {
        let mut min = std::collections::BTreeMap::new();
        for r in rows {
            let m = min.entry(r.device.as_str()).or_insert(f64::INFINITY);
            *m = f64::min(*m, r.rate);
        }
        min
    }

    #[test]
    fn fig4_agrees_across_worker_counts_and_shows_resonance_and_hf_immunity() {
        let solo = fig4(Fidelity::Quick, 1).unwrap();
        assert_eq!(solo.len(), 9 * 2 * 9, "9 boards × {{P1, P2}} × 9 freqs");
        assert_eq!(solo, fig4(Fidelity::Quick, 4).unwrap());

        let rows: Vec<&Fig4Row> = solo
            .iter()
            .filter(|r| r.device.contains("FR5994"))
            .collect();
        assert!(!rows.is_empty());
        // High frequencies (≥ 200 MHz) are harmless on every point.
        for r in rows.iter().filter(|r| r.freq_hz > 2e8) {
            assert!(r.rate > 0.8, "{r:?}");
        }
        // Something in the tens-of-MHz band hurts via P2.
        let p2_min = rows
            .iter()
            .filter(|r| r.point == "P2" && r.freq_hz < 1e8)
            .map(|r| r.rate)
            .fold(f64::INFINITY, f64::min);
        assert!(p2_min < 0.5, "P2 low-band minimum {p2_min}");
    }

    #[test]
    fn fig5_agrees_across_worker_counts_and_every_board_has_a_dos_frequency() {
        let solo = fig5(Fidelity::Quick, 1).unwrap();
        assert_eq!(solo.len(), 9 * 46, "9 boards × 46 freqs");
        assert_eq!(solo, fig5(Fidelity::Quick, 4).unwrap());

        let min = min_rate_per_device(&solo);
        assert_eq!(min.len(), 9);
        for (d, min) in min {
            // The Quick grid has 11 MHz spacing; it still brushes the
            // resonance band closely enough to show suppression.
            assert!(min < 0.6, "{d}: min rate {min}");
        }
    }

    #[test]
    fn fig7_agrees_across_worker_counts_and_comparators_collapse() {
        let solo = fig7(Fidelity::Quick, 1).unwrap();
        assert_eq!(solo.len(), 2 * 46, "2 comparator boards × 46 freqs");
        assert_eq!(solo, fig7(Fidelity::Quick, 4).unwrap());

        let min = min_rate_per_device(&solo);
        assert_eq!(min.len(), 2, "FR5994 and FR6989");
        for (d, min) in min {
            assert!(min < 0.05, "{d}: comparator min rate {min}");
        }
    }

    #[test]
    fn fig8_agrees_across_worker_counts_and_power_hurts_while_distance_helps() {
        let solo = fig8(Fidelity::Quick, 1).unwrap();
        assert_eq!(solo.len(), 9, "3 distances × 3 powers");
        assert_eq!(solo, fig8(Fidelity::Quick, 4).unwrap());

        let get = |d: f64, p: f64| {
            solo.iter()
                .find(|r| (r.distance_m - d).abs() < 1e-9 && (r.power_dbm - p).abs() < 1e-9)
                .map(|r| r.rate)
                .unwrap()
        };
        // At close range, full power is devastating; weak power is not.
        assert!(get(0.5, 35.0) < 0.2, "{}", get(0.5, 35.0));
        assert!(get(5.0, 10.0) > 0.6, "{}", get(5.0, 10.0));
        // Monotone trends (allowing simulator noise of 10 percentage points).
        assert!(get(0.5, 35.0) <= get(5.0, 35.0) + 0.1);
        assert!(get(5.0, 35.0) <= get(5.0, 10.0) + 0.1);
    }

    /// Scenario (d) distills Figure 13's story: during the attack NVP and
    /// Ratchet stall while GECKO keeps serving; after it ends GECKO
    /// returns to full throughput.
    #[test]
    fn fig13_agrees_across_worker_counts_and_tells_the_scenario_d_story() {
        let solo = fig13(Fidelity::Quick, 1).unwrap();
        assert_eq!(
            solo.len(),
            6 * 3 * 20,
            "6 scenarios × 3 schemes × 20 buckets"
        );
        assert_eq!(solo, fig13(Fidelity::Quick, 4).unwrap());

        let rows: Vec<&Fig13Row> = solo.iter().filter(|r| r.scenario == "d").collect();
        let avg = |scheme: &str, attacked: bool| -> f64 {
            let v: Vec<f64> = rows
                .iter()
                .filter(|r| r.scheme == scheme && r.under_attack == attacked)
                .map(|r| r.throughput_pct)
                .collect();
            v.iter().sum::<f64>() / v.len().max(1) as f64
        };
        let gecko_attacked = avg("GECKO", true);
        let nvp_attacked = avg("NVP", true);
        let ratchet_attacked = avg("Ratchet", true);
        assert!(
            gecko_attacked > 3.0 * nvp_attacked.max(1.0)
                || (nvp_attacked < 5.0 && gecko_attacked > 15.0),
            "GECKO {gecko_attacked}% vs NVP {nvp_attacked}%"
        );
        assert!(
            gecko_attacked > 3.0 * ratchet_attacked.max(1.0)
                || (ratchet_attacked < 5.0 && gecko_attacked > 15.0),
            "GECKO {gecko_attacked}% vs Ratchet {ratchet_attacked}%"
        );
        // Quiet-phase throughput recovers.
        assert!(avg("GECKO", false) > 50.0, "{}", avg("GECKO", false));
    }
}
