//! The simulator's fast path is observationally invisible: with
//! event-horizon spans and hibernation fast-forward on (the default), a
//! duty-cycling device lands on exactly the trajectory the step-exact
//! reference walks — same metrics, logical state, simulated time and
//! capacitor voltage, bit for bit. The 100 µF buffer of the served
//! harvesting sweep makes every scheme drain, checkpoint, hibernate and
//! resume inside the window, and the instrumented schemes retire their
//! region boundaries and checkpoint stores inside batched spans. Under an
//! attack tone too weak to spoof the voltage monitor, spans keep running
//! inside the attack window and the trajectory still matches.

use gecko_emi::attack::DpiPoint;
use gecko_emi::{AttackSchedule, EmiSignal, Injection};
use gecko_sim::{ExecMode, SchemeKind, SimConfig, Simulator};

fn small_buffer(scheme: SchemeKind) -> SimConfig {
    SimConfig::harvesting(scheme).with_capacitor(100e-6, 3.3)
}

/// Runs `app` for 0.1 s on the fast path and on the step-exact reference,
/// asserts they agree bit for bit and that spans carried the fast run, and
/// returns the fast simulator.
fn fast_matches_exact(app: &str, scheme: SchemeKind, config: impl Fn() -> SimConfig) -> Simulator {
    let app = gecko_apps::app_by_name(app).expect("bundled app");
    let mut fast = Simulator::new(&app, config()).unwrap();
    let mut exact = Simulator::new(&app, config()).unwrap();
    exact.set_exec_mode(ExecMode::Interpreted);
    fast.run_for(0.1);
    exact.run_for(0.1);

    let name = scheme.name();
    assert_eq!(fast.metrics, exact.metrics, "{name}: metrics");
    assert_eq!(fast.state_hash(), exact.state_hash(), "{name}: state");
    assert_eq!(
        fast.time_s().to_bits(),
        exact.time_s().to_bits(),
        "{name}: time"
    );
    assert_eq!(
        fast.voltage_v().to_bits(),
        exact.voltage_v().to_bits(),
        "{name}: voltage"
    );
    let s = fast.fast_path_stats();
    assert_eq!(s.steps, exact.fast_path_stats().steps, "{name}: steps");
    assert!(
        s.eh_insts > 10 * s.dispatches,
        "{name}: spans must carry the run: {s:?}"
    );
    fast
}

#[test]
fn fast_path_matches_the_step_exact_reference_on_every_scheme() {
    for scheme in SchemeKind::all() {
        let fast = fast_matches_exact("crc16", scheme, || small_buffer(scheme));
        let name = scheme.name();
        assert!(fast.metrics.completions > 0, "{name}: the app completes");
        let s = fast.fast_path_stats();
        if scheme != SchemeKind::Nvp {
            assert!(
                s.eh_runtime_ops > 0,
                "{name}: runtime ops must retire in-span: {s:?}"
            );
        }
    }
}

#[test]
fn fast_path_keeps_spans_under_a_weak_attack_tone() {
    // Continuous DPI at 100 MHz induces ~75 mV at the monitor: far from
    // the 27 MHz resonance, too weak to pull a reading under V_backup
    // until the capacitor is within that much of it.
    let attack =
        || AttackSchedule::continuous(EmiSignal::new(100e6, 20.0), Injection::Dpi(DpiPoint::P2));
    for scheme in SchemeKind::all() {
        let fast = fast_matches_exact("bitcnt", scheme, || {
            small_buffer(scheme).with_attack(attack())
        });
        assert!(
            fast.metrics.completions > 0,
            "{}: the app completes",
            scheme.name()
        );
    }
}
