//! The simulator's fast path is observationally invisible: with
//! event-horizon spans and hibernation fast-forward on (the default), a
//! duty-cycling device lands on exactly the trajectory the step-exact
//! reference walks — same metrics, logical state, simulated time and
//! capacitor voltage, bit for bit. The 100 µF buffer of the served
//! harvesting sweep makes every scheme drain, checkpoint, hibernate and
//! resume inside the window, and the instrumented schemes retire their
//! region boundaries and checkpoint stores inside batched spans.

use gecko_sim::{ExecMode, SchemeKind, SimConfig, Simulator};

fn small_buffer(scheme: SchemeKind) -> SimConfig {
    SimConfig::harvesting(scheme).with_capacitor(100e-6, 3.3)
}

#[test]
fn fast_path_matches_the_step_exact_reference_on_every_scheme() {
    let app = gecko_apps::app_by_name("crc16").expect("bundled app");
    for scheme in SchemeKind::all() {
        let mut fast = Simulator::new(&app, small_buffer(scheme)).unwrap();
        let mut exact = Simulator::new(&app, small_buffer(scheme)).unwrap();
        exact.set_exec_mode(ExecMode::Interpreted);
        exact.set_fast_forward(false);
        exact.set_event_horizon(false);
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
        assert!(fast.metrics.completions > 0, "{name}: the app completes");

        let s = fast.fast_path_stats();
        assert_eq!(s.steps, exact.fast_path_stats().steps, "{name}: steps");
        assert!(
            s.eh_insts > 10 * s.dispatches,
            "{name}: spans must carry the run: {s:?}"
        );
        if scheme != SchemeKind::Nvp {
            assert!(
                s.eh_runtime_ops > 0,
                "{name}: runtime ops must retire in-span: {s:?}"
            );
        }
    }
}
