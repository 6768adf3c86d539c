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

use gecko_compiler::CompileOptions;
use gecko_emi::attack::DpiPoint;
use gecko_emi::{AttackSchedule, EmiSignal, FaultModel, FaultSchedule, Injection};
use gecko_isa::{CostModel, EnergyModel};
use gecko_mcu::PredecodedProgram;
use gecko_sim::{CompiledApp, ExecMode, SchemeKind, SimConfig, Simulator};

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

/// Every predecoded entry's precomputed `dt_s` and `step_nj` are exactly
/// the values the per-step `consume` derives from its cycles and energy,
/// for every bundled app and the WCET-split war counter under every
/// scheme, and every simulator meters with the models its artifact was
/// predecoded under. Event-horizon spans meter from these fields, so a
/// drift in either would silently break fast ≡ step-exact.
#[test]
fn precomputed_step_costs_equal_the_per_step_expressions_bit_for_bit() {
    let (cost, energy) = (CostModel::default(), EnergyModel::default());
    let mut apps = gecko_apps::all_apps();
    assert_eq!(apps.len(), 11);
    apps.push(gecko_check::war_counter_app(16_000));
    let mut entries = 0usize;
    for app in &apps {
        for scheme in SchemeKind::all() {
            let tag = format!("{}/{}", app.name, scheme.name());
            let compiled = CompiledApp::build(app, scheme, &CompileOptions::default()).unwrap();
            let sim = Simulator::from_compiled(&compiled, SimConfig::bench_supply(scheme));
            assert_eq!(sim.cost_model(), cost, "{tag}");
            assert_eq!(sim.energy_model(), energy, "{tag}");
            assert_eq!(
                PredecodedProgram::build(&compiled.program, &sim.cost_model(), &sim.energy_model()),
                compiled.pre,
                "{tag}: the artifact was predecoded under the simulator's models"
            );
            for (id, block) in compiled.program.blocks() {
                for index in 0..=block.insts.len() {
                    let e = compiled.pre.entry(id, index);
                    // `consume(cycles, extra_nj)` with the extra the span
                    // closure derived before the costs were precomputed.
                    let base = energy.cycles_energy_nj(e.cycles);
                    let extra_nj = (e.energy_nj - base).max(0.0);
                    let dt = cost.cycles_to_seconds(e.cycles);
                    assert_eq!(e.dt_s.to_bits(), dt.to_bits(), "{tag} {id:?}[{index}]");
                    assert_eq!(
                        e.step_nj.to_bits(),
                        (energy.cycles_energy_nj(e.cycles) + extra_nj).to_bits(),
                        "{tag} {id:?}[{index}]"
                    );
                    entries += 1;
                }
            }
        }
    }
    assert!(entries > 2_000, "only {entries} entries checked");
}

/// The eight `eh_refused_*` reasons partition `eh_refused`, and each
/// scenario refuses for the reason it sets up.
#[test]
fn span_refusals_split_by_reason() {
    let app = gecko_apps::app_by_name("bitcnt").unwrap();
    let refusals = |config: SimConfig, mode: ExecMode| {
        let mut sim = Simulator::new(&app, config).unwrap();
        sim.set_exec_mode(mode);
        sim.run_for(0.03);
        let s = sim.fast_path_stats();
        let split = [
            s.eh_refused_interpreted,
            s.eh_refused_fault,
            s.eh_refused_filtered_adc,
            s.eh_refused_held_below_backup,
            s.eh_refused_latched_comparator,
            s.eh_refused_harvester,
            s.eh_refused_short_horizon,
            s.eh_refused_not_admitted,
        ];
        assert_eq!(split.iter().sum::<u64>(), s.eh_refused, "{s:?}");
        s
    };
    let gecko = || small_buffer(SchemeKind::Gecko);

    let s = refusals(gecko(), ExecMode::Interpreted);
    assert!(
        s.eh_refused > 0 && s.eh_refused == s.eh_refused_interpreted,
        "{s:?}"
    );

    let s = refusals(gecko(), ExecMode::Predecoded);
    assert_eq!(s.eh_refused_interpreted, 0, "{s:?}");
    assert!(s.eh_refused > 0, "{s:?}");

    let skip = FaultSchedule::bursts(
        EmiSignal::new(27e6, 35.0),
        Injection::Dpi(DpiPoint::P2),
        FaultModel::Skip,
        &[0.01],
        0.005,
    );
    let s = refusals(gecko().with_fault(skip), ExecMode::Predecoded);
    assert!(s.eh_refused_fault > 0, "{s:?}");

    let mut filtered = gecko();
    filtered.adc_filter_taps = Some(5);
    let s = refusals(filtered, ExecMode::Predecoded);
    assert!(s.eh_refused_filtered_adc > 0, "{s:?}");

    let resonant = gecko().with_attack(AttackSchedule::continuous(
        EmiSignal::new(27e6, 20.0),
        Injection::Dpi(DpiPoint::P2),
    ));
    let s = refusals(resonant, ExecMode::Predecoded);
    assert!(s.eh_refused_short_horizon > 0, "{s:?}");
}
