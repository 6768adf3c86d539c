//! Differential proof that event-horizon active stepping is
//! *observationally invisible*: batched ON-state spans must produce
//! bit-identical trajectories to the per-instruction reference — same
//! [`gecko_sim::Metrics`], same logical state hash, same simulated time
//! and capacitor voltage down to the last bit — across the scheme grid of
//! the paper's fig. 4 workload, under attack and no-attack schedules,
//! with `run_capped` slices and snapshot forks landing strictly inside
//! would-be spans, including spans that run inside attack windows too
//! weak to move the monitor. Companion to `tests/fast_path.rs`, which
//! proves the same property for predecoded dispatch and hibernation
//! fast-forward.

use gecko_emi::attack::DpiPoint;
use gecko_emi::fault::FaultModel;
use gecko_emi::{AdcMonitor, AttackSchedule, EmiSignal, FaultSchedule, Injection, MonitorKind};
use gecko_energy::ConstantPower;
use gecko_isa::Inst;
use gecko_sim::areas::GeckoMode;
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

/// Asserts two simulators are on bit-identical trajectories, plus the
/// fast-path step-accounting invariant on both.
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
    for sim in [fast, exact] {
        let s = sim.fast_path_stats();
        assert_eq!(
            s.steps,
            s.dispatches + s.ff_ticks + s.eh_insts,
            "{label}: step accounting: {s:?}"
        );
    }
}

/// The fig. 4 workload shape: bench supply, the victim app, the paper's
/// board model, and a direct-power-injection attack schedule.
fn fig4_config(scheme: SchemeKind, attack: AttackSchedule) -> SimConfig {
    SimConfig::bench_supply(scheme).with_attack(attack)
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

#[test]
fn fig4_grid_is_bit_identical_to_reference() {
    let app = gecko_apps::app_by_name("bitcnt").unwrap();
    for scheme in SchemeKind::all() {
        for (label, attack) in fig4_attacks() {
            let mut fast = Simulator::new(&app, fig4_config(scheme, attack.clone())).unwrap();
            let mut exact = Simulator::new(&app, fig4_config(scheme, attack)).unwrap();
            exact.set_exec_mode(ExecMode::Interpreted);
            fast.run_for(window_s());
            exact.run_for(window_s());
            let tag = format!("fig4/{}/{label}", scheme.name());
            assert_equivalent(&fast, &exact, &tag);
            if label == "clean" {
                let s = fast.fast_path_stats();
                assert!(
                    s.eh_insts > 0 && s.eh_spans > 0,
                    "{tag}: clean bench-supply execution must coalesce: {s:?}"
                );
            }
        }
    }
}

#[test]
fn comparator_monitor_cells_match_reference() {
    // The comparator path skips provably-no-op evaluations instead of
    // replaying them; prove that across clean and burst-attacked cells.
    let app = gecko_apps::app_by_name("bitcnt").unwrap();
    let sig = EmiSignal::new(27e6, 20.0);
    let inj = Injection::Dpi(DpiPoint::P2);
    for scheme in [SchemeKind::Nvp, SchemeKind::Gecko] {
        for (label, attack) in [
            ("clean", AttackSchedule::none()),
            (
                "bursts",
                AttackSchedule::bursts(sig, inj, &[0.006, 0.021], 0.004),
            ),
        ] {
            let build = || {
                let mut cfg = fig4_config(scheme, attack.clone());
                cfg.monitor = MonitorKind::Comparator;
                cfg
            };
            let mut fast = Simulator::new(&app, build()).unwrap();
            let mut exact = Simulator::new(&app, build()).unwrap();
            exact.set_exec_mode(ExecMode::Interpreted);
            fast.run_for(window_s());
            exact.run_for(window_s());
            assert_equivalent(
                &fast,
                &exact,
                &format!("comparator/{}/{label}", scheme.name()),
            );
        }
    }
}

#[test]
fn harvesting_duty_cycle_is_bit_identical() {
    // The duty-cycling regime: active spans drain to V_backup, the device
    // checkpoints and hibernates, recharges, resumes — both coalescers
    // hand off to each other and to the exact paths around every edge.
    let app = gecko_apps::app_by_name("crc16").unwrap();
    for scheme in SchemeKind::all() {
        let build = || SimConfig::harvesting(scheme);
        let mut fast = Simulator::new(&app, build()).unwrap();
        let mut exact = Simulator::new(&app, build()).unwrap();
        exact.set_exec_mode(ExecMode::Interpreted);
        let w = if quick() { 0.2 } else { 0.6 };
        fast.run_for(w);
        exact.run_for(w);
        assert_equivalent(&fast, &exact, &format!("harvesting/{}", scheme.name()));
    }
}

/// The `sweep_clean` cell shape: the paper's 1.2 mW harvester into a
/// 100 µF buffer charged to 3.3 V, which duty-cycles many times a second.
fn small_buffer_config(scheme: SchemeKind, seed: u64) -> SimConfig {
    let mut cfg = SimConfig::harvesting(scheme).with_capacitor(100e-6, 3.3);
    cfg.seed = seed;
    cfg
}

/// Every event-horizon span ends for exactly one counted reason.
fn assert_span_ends_add_up(sim: &Simulator, label: &str) {
    let s = sim.fast_path_stats();
    assert_eq!(
        s.eh_spans,
        s.eh_end_energy
            + s.eh_end_time
            + s.eh_end_attack_edge
            + s.eh_end_fault_edge
            + s.eh_end_budget
            + s.eh_end_program,
        "{label}: span-end reasons: {s:?}"
    );
}

#[test]
fn harvesting_small_buffer_grid_is_bit_identical() {
    // The regime the served harvesting sweep runs: active spans retire
    // boundaries and checkpoint stores in-span, drain to V_backup,
    // checkpoint, hibernate and resume several times per window.
    let (apps, window) = if quick() { (4, 0.1) } else { (usize::MAX, 0.4) };
    for app in gecko_apps::all_apps().into_iter().take(apps) {
        for scheme in SchemeKind::all() {
            for seed in [1, 2] {
                let mut fast = Simulator::new(&app, small_buffer_config(scheme, seed)).unwrap();
                let mut exact = Simulator::new(&app, small_buffer_config(scheme, seed)).unwrap();
                exact.set_exec_mode(ExecMode::Interpreted);
                fast.run_for(window);
                exact.run_for(window);
                let tag = format!("small-buffer/{}/{}/seed{seed}", app.name, scheme.name());
                assert_equivalent(&fast, &exact, &tag);
                assert_span_ends_add_up(&fast, &tag);
                if matches!(scheme, SchemeKind::Gecko | SchemeKind::Ratchet) {
                    let s = fast.fast_path_stats();
                    assert!(
                        s.eh_runtime_ops > 0,
                        "{tag}: runtime ops must retire in-span: {s:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn probation_boundary_ends_the_span_and_stays_exact() {
    // A burst drives GECKO into rollback mode; a later power failure
    // boots it in rollback mode on probation. Probation resolves at the
    // first boundary (re-enabling the JIT protocol), so runtime ops must
    // end spans until it does — and the walk must match the reference.
    let app = gecko_apps::app_by_name("bitcnt").unwrap();
    let attack = AttackSchedule::bursts(
        EmiSignal::new(27e6, 20.0),
        Injection::Dpi(DpiPoint::P2),
        &[0.004],
        0.003,
    );
    let build = || fig4_config(SchemeKind::Gecko, attack.clone());
    let mut fast = Simulator::new(&app, build()).unwrap();
    let mut exact = Simulator::new(&app, build()).unwrap();
    exact.set_exec_mode(ExecMode::Interpreted);
    fast.run_for(0.03);
    exact.run_for(0.03);
    assert_equivalent(&fast, &exact, "probation/attacked");
    assert_eq!(
        fast.gecko_mode(),
        Some(GeckoMode::Rollback),
        "attack detected"
    );

    fast.inject_power_failure();
    exact.inject_power_failure();
    let start = fast.fast_path_stats();
    while !fast.is_on() {
        fast.advance_to_horizon(u64::MAX, f64::INFINITY);
    }
    // Walk span by span until probation resolves; the boundary that
    // resolves it must run on the exact path, right after a span that
    // stopped in front of a runtime op.
    let mut program_ends = 0;
    while fast.metrics.jit_reenables == 0 {
        let pc = fast.pc();
        let at_boundary = matches!(
            fast.program().block(pc.block).insts.get(pc.index),
            Some(Inst::Boundary { .. })
        );
        let before = fast.fast_path_stats();
        let n = fast.advance_to_horizon(u64::MAX, f64::INFINITY);
        let after = fast.fast_path_stats();
        program_ends += after.eh_end_program - before.eh_end_program;
        if fast.metrics.jit_reenables > 0 {
            assert!(at_boundary, "probation resolves at a boundary");
            assert_eq!(n, 1);
            assert_eq!(after.dispatches - before.dispatches, 1, "exact step");
        }
        assert!(
            after.steps - start.steps < 1_000_000,
            "probation never resolved"
        );
    }
    assert!(
        program_ends > 0,
        "a span must stop in front of the probation ops"
    );
    assert_eq!(fast.gecko_mode(), Some(GeckoMode::Jit));
    exact.run_steps(fast.fast_path_stats().steps - start.steps);
    assert_equivalent(&fast, &exact, "probation/resolved");

    // After re-enablement, runtime ops retire in-span again.
    let ops = fast.fast_path_stats().eh_runtime_ops;
    fast.run_for(0.01);
    exact.run_for(0.01);
    assert_equivalent(&fast, &exact, "probation/after");
    assert!(fast.fast_path_stats().eh_runtime_ops > ops);
}

#[test]
fn slices_and_forks_right_after_an_in_span_runtime_op_are_exact() {
    // Land a run_capped slice, and a snapshot fork, on the step right
    // after a boundary or checkpoint op the batched walk retired in-span.
    let app = gecko_apps::app_by_name("bitcnt").unwrap();
    for scheme in [SchemeKind::Gecko, SchemeKind::Ratchet] {
        let build = || fig4_config(scheme, AttackSchedule::none());
        // On the reference walk, find the first runtime op past 17k steps
        // with no app completion (a `Halt`, which ends spans) in the
        // `TAIL` steps before it.
        const TAIL: u64 = 50;
        let mut walk = Simulator::new(&app, build()).unwrap();
        walk.set_exec_mode(ExecMode::Interpreted);
        walk.run_steps(17_000);
        let mut since_completion = 0;
        loop {
            let pc = walk.pc();
            let op = walk.program().block(pc.block).insts.get(pc.index).copied();
            let completions = walk.metrics.completions;
            walk.step_one();
            since_completion = if walk.metrics.completions == completions {
                since_completion + 1
            } else {
                0
            };
            let runtime_op = matches!(op, Some(Inst::Boundary { .. } | Inst::Checkpoint { .. }));
            if runtime_op && since_completion > TAIL {
                break;
            }
        }
        let land = walk.fast_path_stats().steps;
        let goal = land + 30_000;
        let tag = scheme.name();

        // A slice ending exactly on the op: the tail of the walk to it
        // must be batched, so the op retired in-span.
        let mut sliced = Simulator::new(&app, build()).unwrap();
        sliced.run_capped(f64::INFINITY, u64::MAX, land - TAIL);
        let before = sliced.fast_path_stats();
        assert_eq!(sliced.run_capped(f64::INFINITY, u64::MAX, TAIL), TAIL);
        let after = sliced.fast_path_stats();
        assert_eq!(after.dispatches, before.dispatches, "{tag}: batched tail");
        assert!(after.eh_runtime_ops > before.eh_runtime_ops, "{tag}");
        assert_eq!(after.eh_end_budget - before.eh_end_budget, 1, "{tag}");

        // Fork there, diverge, rewind, and resume.
        let snap = sliced.snapshot();
        sliced.run_steps(5_000);
        sliced.restore(&snap);
        sliced.run_steps(goal - land);

        let mut straight = Simulator::new(&app, build()).unwrap();
        straight.run_steps(goal);
        let mut exact = Simulator::new(&app, build()).unwrap();
        exact.set_exec_mode(ExecMode::Interpreted);
        exact.run_steps(goal);
        assert_equivalent(&straight, &exact, &format!("{tag}/straight"));
        assert_eq!(sliced.metrics, exact.metrics, "{tag}: sliced + forked");
        assert_eq!(sliced.state_hash(), exact.state_hash());
        assert_eq!(sliced.time_s().to_bits(), exact.time_s().to_bits());
        assert_eq!(sliced.voltage_v().to_bits(), exact.voltage_v().to_bits());
    }
}

#[test]
fn run_capped_slices_inside_active_spans_are_exact() {
    // Slice boundaries land mid-span: an uncapped reference walk vs a
    // chain of deliberately awkward run_capped slices. The slices must
    // split batched active spans without observable effect.
    let app = gecko_apps::app_by_name("bitcnt").unwrap();
    for scheme in [SchemeKind::Nvp, SchemeKind::Gecko] {
        let mut whole = Simulator::new(&app, fig4_config(scheme, AttackSchedule::none())).unwrap();
        let mut sliced = Simulator::new(&app, fig4_config(scheme, AttackSchedule::none())).unwrap();
        let t_end = window_s();
        whole.run_for(t_end);
        let mut slice = 1u64;
        while sliced.time_s() < t_end {
            sliced.run_capped(t_end, u64::MAX, slice);
            slice = (slice * 7 + 3) % 997 + 1; // awkward, deterministic
        }
        assert_eq!(
            whole.metrics,
            sliced.metrics,
            "{}: sliced run",
            scheme.name()
        );
        assert_eq!(whole.state_hash(), sliced.state_hash());
        assert_eq!(whole.time_s().to_bits(), sliced.time_s().to_bits());
    }
}

#[test]
fn snapshot_fork_inside_active_span_resumes_identically() {
    // Fork in the middle of what the batched walk would coalesce: land
    // there by step count, snapshot, diverge (drop the fork), restore,
    // and resume — the resumed trajectory must be bit-identical to never
    // having forked, and to the per-step reference.
    let app = gecko_apps::app_by_name("bitcnt").unwrap();
    let build = || fig4_config(SchemeKind::Gecko, AttackSchedule::none());

    let mut straight = Simulator::new(&app, build()).unwrap();
    straight.run_steps(40_000);

    let mut forked = Simulator::new(&app, build()).unwrap();
    forked.run_steps(17_123); // lands strictly inside an active span
    let snap = forked.snapshot();
    forked.run_steps(5_000); // the fork's divergent excursion
    forked.restore(&snap);
    forked.run_steps(40_000 - 17_123);

    assert_eq!(straight.metrics, forked.metrics, "fork-resume metrics");
    assert_eq!(straight.state_hash(), forked.state_hash());
    assert_eq!(straight.time_s().to_bits(), forked.time_s().to_bits());

    let mut exact = Simulator::new(&app, build()).unwrap();
    exact.set_exec_mode(ExecMode::Interpreted);
    exact.run_steps(40_000);
    assert_eq!(straight.metrics, exact.metrics, "vs per-step reference");
    assert_eq!(straight.state_hash(), exact.state_hash());
}

#[test]
fn snapshot_mid_batch_span_matches_scalar_mid_span_fork() {
    // The DeviceBatch analog of the fork-inside-span test above: drive a
    // batch with awkward drain caps so a member lands strictly inside a
    // planned span, snapshot it there, and prove the snapshot — and the
    // trajectory resumed from it — is bit-identical to a scalar mid-span
    // fork at the same step count.
    use gecko_sim::DeviceBatch;

    let app = gecko_apps::app_by_name("bitcnt").unwrap();
    let build = |seed: u64| {
        let mut cfg = fig4_config(SchemeKind::Gecko, AttackSchedule::none());
        cfg.seed = seed;
        cfg
    };

    let mut batch = DeviceBatch::new(
        (0..3)
            .map(|seed| Simulator::new(&app, build(seed)).unwrap())
            .collect(),
    );
    batch.begin_run_for(1.0);
    let mut cap = 977u64; // smaller than bench-supply spans: lands mid-span
    for _ in 0..40 {
        batch.drain(cap);
        cap = (cap * 7 + 3) % 997 + 1;
    }
    let dev = batch.device(0);
    assert!(dev.is_on(), "the probe device must stop mid-execution");
    assert!(
        dev.fast_path_stats().eh_spans > 0,
        "the walk must have been batching spans: {:?}",
        dev.fast_path_stats()
    );
    let steps = dev.fast_path_stats().steps;
    let from_batch = dev.snapshot();

    // The scalar mid-span fork at the same step count.
    let mut scalar = Simulator::new(&app, build(0)).unwrap();
    scalar.run_steps(steps);
    assert_eq!(batch.device(0).metrics, scalar.metrics, "mid-span metrics");
    assert_eq!(batch.device(0).state_hash(), scalar.state_hash());
    assert_eq!(
        batch.device(0).time_s().to_bits(),
        scalar.time_s().to_bits()
    );
    let from_scalar = scalar.snapshot();

    // Both forks, resumed on fresh devices, must converge on the straight
    // per-step reference.
    let goal = steps + 40_000;
    let mut a = Simulator::new(&app, build(0)).unwrap();
    a.restore(&from_batch);
    a.run_steps(goal - steps);
    let mut b = Simulator::new(&app, build(0)).unwrap();
    b.restore(&from_scalar);
    b.run_steps(goal - steps);
    assert_eq!(a.metrics, b.metrics, "fork-resume metrics");
    assert_eq!(a.state_hash(), b.state_hash());
    assert_eq!(a.time_s().to_bits(), b.time_s().to_bits());

    let mut exact = Simulator::new(&app, build(0)).unwrap();
    exact.set_exec_mode(ExecMode::Interpreted);
    exact.run_steps(goal);
    assert_eq!(a.metrics, exact.metrics, "vs per-step reference");
    assert_eq!(a.state_hash(), exact.state_hash());
}

#[test]
fn spoofed_pulse_strictly_inside_coalesced_segment_matches_reference() {
    // Regression for the EMI interaction: a short spoofing pulse whose
    // window falls strictly inside what would otherwise be one coalesced
    // active segment. The batch must stop at the window edge, hand the
    // pulse to the exact path (where it spoofs the checkpoint signal),
    // and resume — with the identical trace a per-step walk produces.
    let app = gecko_apps::app_by_name("bitcnt").unwrap();
    let sig = EmiSignal::new(27e6, 35.0);
    let inj = Injection::Dpi(DpiPoint::P2);
    for scheme in SchemeKind::all() {
        let attack = AttackSchedule::bursts(sig, inj, &[0.0101], 0.0012);
        let build = || fig4_config(scheme, attack.clone());
        let mut fast = Simulator::new(&app, build()).unwrap();
        let mut exact = Simulator::new(&app, build()).unwrap();
        exact.set_exec_mode(ExecMode::Interpreted);
        fast.run_for(0.025);
        exact.run_for(0.025);
        let tag = format!("pulse/{}", scheme.name());
        assert_equivalent(&fast, &exact, &tag);
        let s = fast.fast_path_stats();
        assert!(
            s.eh_spans > 0,
            "{tag}: segments before/after the pulse must coalesce: {s:?}"
        );
        // Ratchet's compiler-placed checkpoints never consult the voltage
        // monitor, so a spoofed reading is (correctly) a no-op there; every
        // JIT-protocol scheme must visibly react to the pulse.
        if scheme != SchemeKind::Ratchet {
            assert!(
                fast.metrics.jit_checkpoints > 0 || fast.metrics.attack_detections > 0,
                "{tag}: the pulse must actually bite (spoofed checkpoint or detection)"
            );
        }
    }
}

/// [`assert_equivalent`] plus the whole captured device state, including
/// the ADC's held conversion, which only later polls would observe: a
/// span must replay every poll with the disturbance the exact path sees.
fn assert_same_snapshot(fast: &Simulator, exact: &Simulator, label: &str) {
    assert_equivalent(fast, exact, label);
    assert_eq!(
        format!("{:?}", fast.snapshot()),
        format!("{:?}", exact.snapshot()),
        "{label}: device state diverged"
    );
}

/// A continuous DPI tone at P2 — the `sweep_attack` grid's direct-injection
/// attack shape.
fn dpi(freq_hz: f64) -> AttackSchedule {
    AttackSchedule::continuous(EmiSignal::new(freq_hz, 20.0), Injection::Dpi(DpiPoint::P2))
}

/// The disturbance amplitude (V) `cfg`'s first attack window induces at
/// its monitor input.
fn induced_amp_v(cfg: &SimConfig) -> f64 {
    let a = cfg.attack.windows()[0];
    cfg.device
        .induced_amplitude_v(cfg.monitor, &a.signal, a.injection)
}

/// The polled span guard floor without disturbance: `V_backup` plus the
/// ADC's worst-case round-up and the f64 cushion.
fn quiet_guard_v(cfg: &SimConfig) -> f64 {
    cfg.thresholds.v_backup + AdcMonitor::default().lsb_v() + 1e-9
}

#[test]
fn disturbed_grid_is_bit_identical_and_weak_cells_coalesce() {
    // The `sweep_attack` cell shape (bitcnt on the 1.2 mW harvester) under
    // attacks from too weak to move the monitor to resonant. A cell is
    // weak when the raised guard floor `V_backup + margin + amp` still
    // sits below a full capacitor: spans must keep carrying the run. A
    // resonant cell lifts the floor above it: the exact path runs and the
    // attack must still bite. Every cell must land on the per-instruction
    // reference bit for bit.
    let app = gecko_apps::app_by_name("bitcnt").unwrap();
    let w = window_s();
    let attacks = [
        ("dpi-100MHz", dpi(100e6)),
        ("dpi-54.9MHz", dpi(54.9e6)),
        (
            "remote-9.1MHz",
            AttackSchedule::bursts(
                EmiSignal::new(9.1e6, 35.0),
                Injection::Remote { distance_m: 2.0 },
                &[0.2 * w, 0.6 * w],
                0.2 * w,
            ),
        ),
        ("dpi-27MHz", dpi(27e6)),
    ];
    let faults = [
        ("no-fault", FaultSchedule::none()),
        (
            "skip",
            FaultSchedule::bursts(
                EmiSignal::new(27e6, 35.0),
                Injection::Dpi(DpiPoint::P2),
                FaultModel::Skip,
                &[0.5 * w],
                0.02 * w,
            ),
        ),
    ];
    let (mut weak_cells, mut resonant_cells) = (0, 0);
    for scheme in SchemeKind::all() {
        for monitor in MonitorKind::all() {
            for (attack_name, attack) in &attacks {
                for (fault_name, fault) in &faults {
                    let build = || {
                        let mut cfg = SimConfig::harvesting(scheme)
                            .with_attack(attack.clone())
                            .with_fault(fault.clone());
                        cfg.monitor = monitor;
                        cfg
                    };
                    let mut fast = Simulator::new(&app, build()).unwrap();
                    let mut exact = Simulator::new(&app, build()).unwrap();
                    exact.set_exec_mode(ExecMode::Interpreted);
                    fast.run_for(w);
                    exact.run_for(w);
                    let tag = format!(
                        "disturbed/{}/{monitor:?}/{attack_name}/{fault_name}",
                        scheme.name()
                    );
                    assert_same_snapshot(&fast, &exact, &tag);
                    assert_span_ends_add_up(&fast, &tag);
                    let s = fast.fast_path_stats();
                    let cfg = build();
                    let amp = induced_amp_v(&cfg);
                    if quiet_guard_v(&cfg) + amp < cfg.thresholds.v_max {
                        weak_cells += 1;
                        assert!(
                            s.eh_insts > 10 * s.dispatches,
                            "{tag}: a weak disturbance (amp {amp:.4} V) must not pin \
                             the exact path: {s:?}"
                        );
                        // Spans run up to every window edge in reach.
                        let bursts = cfg.attack.windows()[0].end_s.is_finite();
                        assert_eq!(s.eh_end_attack_edge > 0, bursts, "{tag}: {s:?}");
                        let armed = !cfg.fault.is_empty();
                        assert_eq!(s.eh_end_fault_edge > 0, armed, "{tag}: {s:?}");
                    } else {
                        resonant_cells += 1;
                        // Ratchet never consults the monitor for a JIT
                        // checkpoint: a spoofed reading only shuts it down.
                        assert!(
                            scheme == SchemeKind::Ratchet
                                || fast.metrics.jit_checkpoints > 0
                                || fast.metrics.attack_detections > 0,
                            "{tag}: a resonant disturbance (amp {amp:.4} V) must still \
                             bite: {:?}",
                            fast.metrics
                        );
                    }
                }
            }
        }
    }
    assert!(
        weak_cells > 0 && resonant_cells > 0,
        "{weak_cells}/{resonant_cells}"
    );
}

#[test]
fn capacitor_inside_the_disturbed_guard_band_declines_spans() {
    // With no harvest the capacitor only falls. Once it drops below
    // `V_backup + margin + amp` (but is still above `V_backup + margin`,
    // where a quiet span would still run), a weak tone could pull a poll
    // under `V_backup`: every step must take the exact path, and the walk
    // must stay on the reference trajectory.
    let app = gecko_apps::app_by_name("bitcnt").unwrap();
    for scheme in [SchemeKind::Nvp, SchemeKind::Gecko] {
        for monitor in MonitorKind::all() {
            let build = || {
                let mut cfg = SimConfig::harvesting(scheme)
                    .with_capacitor(100e-6, 3.3)
                    .with_attack(dpi(100e6));
                cfg.harvester = Box::new(ConstantPower::new(0.0));
                cfg.monitor = monitor;
                cfg
            };
            let tag = format!("guard-band/{}/{monitor:?}", scheme.name());
            let cfg = build();
            let lo = quiet_guard_v(&cfg);
            let hi = lo + induced_amp_v(&cfg);
            assert!(hi - lo > 0.05, "{tag}: the band must be wide");

            let mut fast = Simulator::new(&app, build()).unwrap();
            while fast.is_on() && fast.voltage_v() >= hi {
                fast.advance_to_horizon(u64::MAX, f64::INFINITY);
            }
            assert!(
                fast.is_on() && fast.voltage_v() > lo,
                "{tag}: inside the band"
            );
            assert!(fast.fast_path_stats().eh_insts > 0, "{tag}: spans above it");
            let mut declined = 0;
            while fast.is_on() && fast.voltage_v() > lo {
                let before = fast.fast_path_stats();
                assert_eq!(fast.advance_to_horizon(u64::MAX, f64::INFINITY), 1);
                let after = fast.fast_path_stats();
                assert_eq!(after.dispatches, before.dispatches + 1, "{tag}");
                assert_eq!(after.eh_refused, before.eh_refused + 1, "{tag}");
                declined += 1;
            }
            assert!(declined > 100, "{tag}: only {declined} steps in the band");

            let mut exact = Simulator::new(&app, build()).unwrap();
            exact.set_exec_mode(ExecMode::Interpreted);
            exact.run_steps(fast.fast_path_stats().steps);
            assert_equivalent(&fast, &exact, &tag);
            fast.run_for(0.01);
            exact.run_for(0.01);
            assert_equivalent(&fast, &exact, &format!("{tag}/after"));
        }
    }
}

#[test]
fn slices_and_forks_inside_disturbed_spans_are_exact() {
    // The weak-tone analog of the slice and fork tests above: spans run
    // inside an open attack window, and `run_capped` slices and a
    // snapshot fork split them without observable effect.
    let app = gecko_apps::app_by_name("bitcnt").unwrap();
    let build = |scheme| fig4_config(scheme, dpi(100e6));
    for scheme in [SchemeKind::Nvp, SchemeKind::Gecko] {
        let tag = scheme.name();
        let t_end = window_s();
        let mut whole = Simulator::new(&app, build(scheme)).unwrap();
        whole.run_for(t_end);
        let s = whole.fast_path_stats();
        assert!(
            s.eh_insts > 10 * s.dispatches,
            "{tag}: disturbed spans: {s:?}"
        );
        let mut sliced = Simulator::new(&app, build(scheme)).unwrap();
        let mut slice = 1u64;
        while sliced.time_s() < t_end {
            sliced.run_capped(t_end, u64::MAX, slice);
            slice = (slice * 7 + 3) % 997 + 1;
        }
        let mut exact = Simulator::new(&app, build(scheme)).unwrap();
        exact.set_exec_mode(ExecMode::Interpreted);
        exact.run_for(t_end);
        assert_same_snapshot(&whole, &exact, &format!("{tag}/whole"));
        assert_same_snapshot(&sliced, &exact, &format!("{tag}/sliced"));

        // Fork in the middle of the first long disturbed span past 15k
        // steps, diverge, rewind, and resume.
        let mut probe = Simulator::new(&app, build(scheme)).unwrap();
        let fork = loop {
            let start = probe.fast_path_stats().steps;
            let n = probe.advance_to_horizon(u64::MAX, f64::INFINITY);
            if start > 15_000 && n > 1_000 {
                break start + n / 2;
            }
        };
        let goal = fork + 40_000;
        let mut forked = Simulator::new(&app, build(scheme)).unwrap();
        forked.run_steps(fork);
        let snap = forked.snapshot();
        forked.run_steps(5_000);
        forked.restore(&snap);
        forked.run_steps(goal - fork);
        let mut exact = Simulator::new(&app, build(scheme)).unwrap();
        exact.set_exec_mode(ExecMode::Interpreted);
        exact.run_steps(goal);
        assert_eq!(forked.metrics, exact.metrics, "{tag}: forked");
        assert_eq!(forked.state_hash(), exact.state_hash(), "{tag}: forked");
        assert_eq!(forked.time_s().to_bits(), exact.time_s().to_bits());
        assert_eq!(forked.voltage_v().to_bits(), exact.voltage_v().to_bits());
    }
}
