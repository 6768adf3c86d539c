//! Differential proofs for the EM instruction-fault dimension:
//!
//! * a schedule with no *armed* windows is bit-identical — same
//!   [`gecko_sim::Metrics`], same logical state hash, same time and
//!   voltage bits — to a simulator that was never given a schedule at
//!   all, across the fig. 4 scheme × attack grid and a splitmix64 stream
//!   of randomly-placed disarmed windows;
//! * an armed schedule steered through the event-horizon coalescer
//!   matches the per-instruction reference exactly (the fault-edge bail
//!   is observationally invisible);
//! * a fault window covering an active span forces the scalar path — no
//!   instruction may retire coalesced while a fault could land on it;
//! * a one-shot fault armed by point injection dies with a crash or a
//!   shutdown that comes before its instruction retires.

use gecko_emi::attack::DpiPoint;
use gecko_emi::fault::{FaultModel, FaultSchedule, TimedFault};
use gecko_emi::{AttackSchedule, EmiSignal, Injection};
use gecko_mcu::FaultEffect;
use gecko_sim::{ExecMode, SchemeKind, SimConfig, Simulator};

fn quick() -> bool {
    std::env::var_os("GECKO_QUICK").is_some()
}

fn window_s() -> f64 {
    if quick() {
        0.02
    } else {
        0.05
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

fn assert_equivalent(a: &Simulator, b: &Simulator, label: &str) {
    assert_eq!(a.metrics, b.metrics, "{label}: metrics diverged");
    assert_eq!(a.state_hash(), b.state_hash(), "{label}: state hash");
    assert_eq!(a.time_s().to_bits(), b.time_s().to_bits(), "{label}: time");
    assert_eq!(
        a.voltage_v().to_bits(),
        b.voltage_v().to_bits(),
        "{label}: voltage"
    );
}

fn fig4_attacks() -> Vec<(&'static str, AttackSchedule)> {
    let sig = EmiSignal::new(27e6, 20.0);
    let inj = Injection::Dpi(DpiPoint::P2);
    vec![
        ("clean", AttackSchedule::none()),
        ("continuous", AttackSchedule::continuous(sig, inj)),
        (
            "bursts",
            AttackSchedule::bursts(sig, inj, &[0.004, 0.017, 0.031], 0.003),
        ),
    ]
}

/// A schedule of `n` windows that are physically present but below the
/// fault power threshold (the 35 dBm pulse from 10 m away), placed by a
/// splitmix64 stream.
fn disarmed_schedule(seed: u64, n: usize) -> FaultSchedule {
    let mut state = seed;
    let sig = EmiSignal::new(27e6, 35.0);
    let windows = (0..n)
        .map(|_| {
            let start_s = (splitmix64(&mut state) % 1000) as f64 * 50e-6;
            let dur_s = (splitmix64(&mut state) % 100 + 1) as f64 * 10e-6;
            TimedFault {
                start_s,
                end_s: start_s + dur_s,
                signal: sig,
                injection: Injection::Remote { distance_m: 10.0 },
                model: FaultModel::Skip,
            }
        })
        .collect();
    FaultSchedule::from_windows(windows)
}

#[test]
fn empty_and_disarmed_schedules_are_bit_identical_to_none() {
    let app = gecko_apps::app_by_name("bitcnt").unwrap();
    let mut seed = 0xfau64;
    for scheme in SchemeKind::all() {
        for (label, attack) in fig4_attacks() {
            let base = || SimConfig::bench_supply(scheme).with_attack(attack.clone());
            let mut bare = Simulator::new(&app, base()).unwrap();
            let mut empty = Simulator::new(&app, base().with_fault(FaultSchedule::none())).unwrap();
            let mut disarmed = Simulator::new(
                &app,
                base().with_fault(disarmed_schedule(splitmix64(&mut seed), 7)),
            )
            .unwrap();
            bare.run_for(window_s());
            empty.run_for(window_s());
            disarmed.run_for(window_s());
            let tag = format!("fig4/{}/{label}", scheme.name());
            assert_equivalent(&empty, &bare, &format!("{tag}/empty"));
            assert_equivalent(&disarmed, &bare, &format!("{tag}/disarmed"));
            assert_eq!(bare.metrics.fault_skips, 0, "{tag}");
            assert_eq!(bare.metrics.fault_corruptions, 0, "{tag}");
            // The fault-free fast paths must remain fully engaged.
            assert_eq!(
                disarmed.fast_path_stats(),
                bare.fast_path_stats(),
                "{tag}: a disarmed schedule must not perturb coalescing"
            );
        }
    }
}

#[test]
fn armed_fault_windows_match_the_per_step_reference() {
    // The fault analogue of the spoofed-pulse regression: a short armed
    // skip burst strictly inside a would-be coalesced segment, plus an
    // opcode-corrupt burst later. The batched walk must bail to the
    // scalar path exactly over the windows and agree with the
    // per-instruction reference bit-for-bit.
    let app = gecko_apps::app_by_name("bitcnt").unwrap();
    let sig = EmiSignal::new(27e6, 35.0);
    let inj = Injection::Dpi(DpiPoint::P2);
    for scheme in SchemeKind::all() {
        let fault = FaultSchedule::from_windows(vec![
            TimedFault {
                start_s: 0.0101,
                end_s: 0.0113,
                signal: sig,
                injection: inj,
                model: FaultModel::Skip,
            },
            TimedFault {
                start_s: 0.0172,
                end_s: 0.0175,
                signal: sig,
                injection: inj,
                model: FaultModel::OperandBitflip { bit: 5 },
            },
        ]);
        let build = || SimConfig::bench_supply(scheme).with_fault(fault.clone());
        let mut fast = Simulator::new(&app, build()).unwrap();
        let mut exact = Simulator::new(&app, build()).unwrap();
        exact.set_exec_mode(ExecMode::Interpreted);
        fast.run_for(0.025);
        exact.run_for(0.025);
        let tag = format!("armed/{}", scheme.name());
        assert_equivalent(&fast, &exact, &tag);
        assert!(
            fast.metrics.fault_skips > 0 && fast.metrics.fault_corruptions > 0,
            "{tag}: both windows must bite: {:?}",
            fast.metrics
        );
        let s = fast.fast_path_stats();
        assert!(
            s.eh_spans > 0,
            "{tag}: segments outside the windows must still coalesce: {s:?}"
        );
    }
}

#[test]
fn fault_window_covering_a_span_forces_the_scalar_path() {
    // Regression for the coalescing bail: under a continuous armed fault
    // no instruction may retire inside an event-horizon span (a span
    // solver pass cannot model per-instruction fault effects), while the
    // identical fault-free run coalesces nearly everything.
    let app = gecko_apps::app_by_name("bitcnt").unwrap();
    let armed = FaultSchedule::continuous(
        EmiSignal::new(27e6, 35.0),
        Injection::Dpi(DpiPoint::P2),
        FaultModel::Skip,
    );
    let mut faulted = Simulator::new(
        &app,
        SimConfig::bench_supply(SchemeKind::Gecko).with_fault(armed),
    )
    .unwrap();
    let mut free = Simulator::new(&app, SimConfig::bench_supply(SchemeKind::Gecko)).unwrap();
    faulted.run_for(0.01);
    free.run_for(0.01);
    assert!(
        free.fast_path_stats().eh_insts > 0,
        "fault-free bench run must coalesce: {:?}",
        free.fast_path_stats()
    );
    assert_eq!(
        faulted.fast_path_stats().eh_insts,
        0,
        "no instruction may retire coalesced under an armed fault: {:?}",
        faulted.fast_path_stats()
    );
    assert!(faulted.metrics.fault_skips > 0, "{:?}", faulted.metrics);
}

#[test]
fn a_crash_before_the_faulted_instruction_disarms_the_fault() {
    // A `+0` crash after an armed one-shot fault: the instruction the
    // pulse aimed at never retires, so nothing after the reboot may
    // suffer the fault. Without the crash the next instruction does.
    let app = gecko_apps::app_by_name("crc16").unwrap();
    for scheme in SchemeKind::all() {
        for fault in [FaultEffect::Skip, FaultEffect::OpcodeCorrupt] {
            let mut sim = Simulator::new(&app, SimConfig::bench_supply(scheme)).unwrap();
            sim.run_steps(500);
            let armed = sim.snapshot();
            sim.inject_instruction_fault(fault);
            sim.run_steps(1);
            let hits = sim.metrics.fault_skips + sim.metrics.fault_corruptions;
            assert_eq!(hits, 1, "{scheme} {fault:?}: the next instruction is hit");
            for name in ["power failure", "spoofed checkpoint"] {
                sim.restore(&armed);
                sim.inject_instruction_fault(fault);
                if name == "power failure" {
                    sim.inject_power_failure();
                } else {
                    sim.inject_spoofed_checkpoint();
                }
                assert!(!sim.is_on(), "{scheme} {name}: the device stops");
                sim.run_steps(20_000);
                assert!(sim.metrics.reboots >= 1, "{scheme} {name}: it boots again");
                assert_eq!(
                    (sim.metrics.fault_skips, sim.metrics.fault_corruptions),
                    (0, 0),
                    "{scheme} {fault:?} then {name}: the fault survived the crash"
                );
            }
        }
    }
}
