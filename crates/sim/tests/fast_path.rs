//! Differential proof that the fast-path machinery is *observationally
//! invisible*: predecoded dispatch and hibernation fast-forward must
//! produce bit-identical trajectories to the interpreted, tick-exact
//! reference — same [`gecko_sim::Metrics`], same logical state hash, same
//! simulated time and capacitor voltage down to the last bit — across the
//! full app × scheme grid, randomized physical configurations, and
//! snapshots forked from the middle of a fast-forwarded span.

use gecko_emi::{AttackSchedule, EmiSignal, Injection, MonitorKind};
use gecko_energy::{ConstantPower, PulsedRf};
use gecko_isa::SplitMix64;
use gecko_sim::{ExecMode, SchemeKind, SimConfig, Simulator};

fn quick() -> bool {
    std::env::var_os("GECKO_QUICK").is_some()
}

/// Asserts two simulators are on bit-identical trajectories.
fn assert_equivalent(fast: &Simulator, exact: &Simulator, label: &str) {
    assert_eq!(
        fast.metrics, exact.metrics,
        "{label}: metrics diverged (fast vs exact)"
    );
    assert_eq!(
        fast.state_hash(),
        exact.state_hash(),
        "{label}: logical state hash diverged"
    );
    assert_eq!(
        fast.time_s().to_bits(),
        exact.time_s().to_bits(),
        "{label}: simulated time diverged: {} vs {}",
        fast.time_s(),
        exact.time_s()
    );
    assert_eq!(
        fast.voltage_v().to_bits(),
        exact.voltage_v().to_bits(),
        "{label}: capacitor voltage diverged: {} vs {}",
        fast.voltage_v(),
        exact.voltage_v()
    );
}

/// A duty-cycling configuration with attack bursts and quiet gaps: the
/// regime where both the fast-forward (hibernation spans between bursts)
/// and its exact fallback (spans overlapping a burst) are exercised.
fn grid_config(scheme: SchemeKind, monitor: MonitorKind) -> SimConfig {
    let mut cfg = SimConfig::harvesting(scheme);
    cfg.monitor = monitor;
    cfg.attack = AttackSchedule::bursts(
        EmiSignal::new(27e6, 35.0),
        Injection::Remote { distance_m: 2.0 },
        &[0.05, 0.4, 0.9],
        0.08,
    );
    cfg
}

#[test]
fn grid_fast_path_is_bit_identical_to_reference() {
    let quick_set = ["blink", "crc16", "bitcnt"];
    let window_s = if quick() { 0.6 } else { 1.0 };
    for app in &gecko_apps::all_apps() {
        if quick() && !quick_set.contains(&app.name) {
            continue;
        }
        let name = app.name;
        for (i, scheme) in SchemeKind::all().into_iter().enumerate() {
            // Alternate monitor kinds so both the ADC sample-and-hold
            // replay and the comparator latch-skip paths are covered.
            let monitor = if i % 2 == 0 {
                MonitorKind::Adc
            } else {
                MonitorKind::Comparator
            };
            let mut fast = Simulator::new(app, grid_config(scheme, monitor)).unwrap();
            let mut exact = Simulator::new(app, grid_config(scheme, monitor)).unwrap();
            exact.set_exec_mode(ExecMode::Interpreted);
            fast.run_for(window_s);
            exact.run_for(window_s);
            let label = format!("{name}/{}", scheme.name());
            assert_equivalent(&fast, &exact, &label);
            // The one switch selects the whole reference: every sleep tick
            // and every instruction goes through the full dispatch.
            let s = exact.fast_path_stats();
            assert_eq!(s.ff_ticks, 0, "{label}: reference fast-forwarded");
            assert_eq!(s.eh_insts, 0, "{label}: reference ran a span");
            assert_eq!(s.dispatches, s.steps, "{label}: {s:?}");
        }
    }
}

#[test]
fn filtered_adc_falls_back_to_exact_ticks() {
    // The median filter carries per-poll state, so the fast-forward must
    // refuse to engage — and the trajectory must still match the reference.
    let app = gecko_apps::app_by_name("blink").unwrap();
    let build = || {
        let mut cfg = grid_config(SchemeKind::Nvp, MonitorKind::Adc);
        cfg.adc_filter_taps = Some(5);
        cfg
    };
    let mut fast = Simulator::new(&app, build()).unwrap();
    let mut exact = Simulator::new(&app, build()).unwrap();
    exact.set_exec_mode(ExecMode::Interpreted);
    fast.run_for(0.8);
    exact.run_for(0.8);
    assert_equivalent(&fast, &exact, "filtered-adc");
    assert_eq!(
        fast.fast_path_stats().ff_ticks,
        0,
        "filter present: no ticks may be coalesced"
    );
}

#[test]
fn randomized_configurations_stay_bit_identical() {
    let cases = if quick() { 4 } else { 12 };
    let names = ["blink", "crc16", "bitcnt", "fir", "qsort"];
    let mut rng = SplitMix64::new(0xFA57_0A71);
    for case in 0..cases {
        let mut case_rng = rng.split();
        let name = names[case_rng.range_u64(0, names.len() as u64) as usize];
        let app = gecko_apps::app_by_name(name).unwrap();
        let scheme = SchemeKind::all()[case_rng.range_u64(0, 4) as usize];
        let monitor = if case_rng.range_u64(0, 2) == 0 {
            MonitorKind::Adc
        } else {
            MonitorKind::Comparator
        };
        let power_w = case_rng.range_f64(-6.5, -2.8);
        let power_w = 10f64.powf(power_w); // 0.3 µW .. 1.6 mW
        let pulsed = case_rng.range_u64(0, 3) == 0;
        let capacitance_f = case_rng.range_f64(20e-6, 1e-3);
        let initial_v = case_rng.range_f64(0.0, 3.3);
        let seed = case_rng.next_u64();
        let n_bursts = case_rng.range_u64(0, 4);
        let mut starts = Vec::new();
        for _ in 0..n_bursts {
            starts.push(case_rng.range_f64(0.0, 1.5));
        }
        let burst_dur = case_rng.range_f64(0.01, 0.2);
        let window_s = case_rng.range_f64(0.3, 1.2);

        let build = || {
            let mut cfg = SimConfig::harvesting(scheme)
                .with_capacitor(capacitance_f, initial_v)
                .with_attack(AttackSchedule::bursts(
                    EmiSignal::new(27e6, 35.0),
                    Injection::Remote { distance_m: 1.0 },
                    &starts,
                    burst_dur,
                ));
            cfg.monitor = monitor;
            cfg.seed = seed;
            cfg.harvester = if pulsed {
                Box::new(PulsedRf::new(0.02, 0.35, power_w))
            } else {
                Box::new(ConstantPower::new(power_w))
            };
            cfg
        };
        let mut fast = Simulator::new(&app, build()).unwrap();
        let mut exact = Simulator::new(&app, build()).unwrap();
        exact.set_exec_mode(ExecMode::Interpreted);
        fast.run_for(window_s);
        exact.run_for(window_s);
        assert_equivalent(&fast, &exact, &format!("case {case} ({name})"));
    }
}

#[test]
fn advance_matches_run_steps_exactly() {
    // `advance` promises step-for-step equivalence with `step_one`, not
    // just same-time equivalence: after the same number of steps both
    // simulators sit at the same point.
    let app = gecko_apps::app_by_name("crc16").unwrap();
    let build = || SimConfig::harvesting(SchemeKind::Gecko).with_capacitor(200e-6, 0.0);
    let mut fast = Simulator::new(&app, build()).unwrap();
    let mut exact = Simulator::new(&app, build()).unwrap();
    exact.set_exec_mode(ExecMode::Interpreted);
    for chunk in [1u64, 7, 500, 12_000, 50_000] {
        let n = fast.advance(chunk);
        assert_eq!(n, chunk, "advance takes exactly the requested steps");
        exact.run_steps(chunk);
        assert_equivalent(&fast, &exact, &format!("after +{chunk} steps"));
    }
    let stats = fast.fast_path_stats();
    assert_eq!(
        stats.steps,
        stats.dispatches + stats.ff_ticks + stats.eh_insts,
        "step accounting: {stats:?}"
    );
    assert!(
        stats.ff_ticks > 0,
        "a 200 µF cap charging from empty must hibernate long enough to \
         coalesce: {stats:?}"
    );
}

#[test]
fn run_capped_slices_reproduce_run_for_bit_exactly() {
    // The supervisor's cooperative budget checks slice a workload into
    // `run_capped` calls sharing one `t_end`. Slicing may split coalesced
    // hibernation spans, so this is the regression proof that the sliced
    // walk lands on the identical trajectory — on a hibernation-heavy
    // configuration where spans genuinely straddle slice boundaries.
    let app = gecko_apps::app_by_name("blink").unwrap();
    let build = || {
        let mut cfg = SimConfig::harvesting(SchemeKind::Gecko).with_capacitor(200e-6, 0.0);
        cfg.harvester = Box::new(ConstantPower::new(3e-6));
        cfg
    };
    let window_s = 2.0;
    for slice in [1u64, 137, 4_096, u64::MAX] {
        let mut sliced = Simulator::new(&app, build()).unwrap();
        let t_end = sliced.time_s() + window_s;
        let mut total = 0u64;
        loop {
            let taken = sliced.run_capped(t_end, u64::MAX, slice);
            total += taken;
            if sliced.time_s() >= t_end {
                break;
            }
            assert_eq!(taken, slice, "a capped call fills its cap");
        }
        let mut reference = Simulator::new(&app, build()).unwrap();
        reference.run_for(window_s);
        assert_equivalent(&sliced, &reference, &format!("slice {slice}"));
        assert_eq!(total, sliced.fast_path_stats().steps);
    }
    // And the completion-target form must reproduce run_until_completions.
    let mut capped = Simulator::new(&app, build()).unwrap();
    let t_end = capped.time_s() + 30.0;
    while capped.time_s() < t_end && capped.metrics.completions < 2 {
        capped.run_capped(t_end, 2, 10_000);
    }
    let mut reference = Simulator::new(&app, build()).unwrap();
    reference.run_until_completions(2, 30.0);
    assert_equivalent(&capped, &reference, "until-completions");
}

#[test]
fn snapshot_forked_inside_a_fast_forwarded_span_is_exact() {
    // Drive a simulator deep into a hibernation span that the fast path
    // coalesces, snapshot mid-span, and check (a) the snapshot carries an
    // exact `sim_time_s` even though no run loop has exited, and (b) a
    // fast continuation and an exact continuation from the restored
    // snapshot land on identical trajectories.
    let app = gecko_apps::app_by_name("blink").unwrap();
    let build = || SimConfig::harvesting(SchemeKind::Nvp).with_capacitor(470e-6, 0.0);
    let mut sim = Simulator::new(&app, build()).unwrap();
    assert!(!sim.is_on(), "starts hibernating");
    sim.advance(10_000);
    assert!(
        sim.fast_path_stats().ff_ticks > 0,
        "span was coalesced: {:?}",
        sim.fast_path_stats()
    );
    assert_eq!(
        sim.metrics.sim_time_s.to_bits(),
        sim.time_s().to_bits(),
        "sim_time_s must be exact mid-span, not only at run-loop exit"
    );

    let snap = sim.snapshot();
    let m_fast = sim.run_for(4.0);
    let fast_hash = sim.state_hash();
    let fast_t = sim.time_s().to_bits();
    let fast_v = sim.voltage_v().to_bits();

    sim.restore(&snap);
    sim.set_exec_mode(ExecMode::Interpreted);
    let m_exact = sim.run_for(4.0);
    assert_eq!(m_fast, m_exact, "metrics diverged across the fork");
    assert_eq!(sim.state_hash(), fast_hash, "state hash diverged");
    assert_eq!(sim.time_s().to_bits(), fast_t, "time diverged");
    assert_eq!(sim.voltage_v().to_bits(), fast_v, "voltage diverged");
}
