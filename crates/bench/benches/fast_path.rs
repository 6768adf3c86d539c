//! `BENCH_sim` — baseline numbers for the simulator fast path.
//!
//! Seven sections, one JSONL row each per grid point, persisted as
//! `target/gecko-results/BENCH_sim.jsonl` plus a compact machine-readable
//! summary (`row name, ns/op, ratio, commit`) as
//! `target/gecko-results/BENCH_sim.json`:
//!
//! 1. **Hibernation fast-forward** — a hibernation-heavy workload (µW-class
//!    harvest into a 100 µF buffer, EMI bursts forcing the exact fallback
//!    around the attack windows) per scheme. The headline coalescing ratio
//!    `steps / dispatches` is *deterministic* — simulated ticks, not
//!    wall-clock — so the `>= 3x` assertion cannot flake on a loaded CI
//!    box. Trajectory equality against the tick-exact reference is
//!    asserted on every run; wall-clock steps/s are printed for scale.
//! 2. **Event horizon** — batched active-execution stepping on the
//!    Figure 4 workload (bench supply, victim app) in three cells: clean,
//!    under a continuous DPI tone too weak to spoof the monitor
//!    (`disturbed`, 100 MHz), and under a continuous resonant DPI attack
//!    (`attacked`, 27 MHz), which lifts the span guard above the
//!    capacitor and runs per instruction (1.0x by design). The clean and
//!    disturbed coalescing ratios `steps / dispatches` are deterministic
//!    and asserted `>= 3x`, and `>= 500x` for the instrumented schemes,
//!    whose boundary and checkpoint ops retire in-span; trajectory
//!    equality against the per-instruction reference is asserted on every
//!    run. Rows carry the span diagnostics: runtime ops retired in-span,
//!    span ends by reason (energy / time / attack edge / fault edge /
//!    budget / program op) and refused span entries, whose split by reason
//!    the table prints too. Each clean cell's fast run is also timed once
//!    on each of 5 freshly spawned threads, whose min/median/max steps/s
//!    show how much the span loop's speed depends on where its stack and
//!    heap land (printed, not gated).
//!    * **Batch step** — the harvesting duty-cycle workload through a
//!      [`gecko_sim::DeviceBatch`]: a fleet of devices sharing one
//!      predecoded program, planned and drained lock-step. Bit-exact
//!      against per-instruction scalar references; the deterministic
//!      per-device steps-per-dispatch ratio is asserted `>= 5x`, and
//!      `>= 500x` for the instrumented schemes.
//!    * **Fault path** — the EM instruction-fault seam's fault-free cost:
//!      an armed-but-unreached fault window forces every span plan
//!      through the fault-edge guard; bit-identical trajectory asserted,
//!      wall-clock overhead gated `< 2%` (`< 10%` in the quick run).
//! 3. **Dispatch** — the predecoded fast path vs the interpreted
//!    step-exact reference on the bench-supply throughput workload (the
//!    same shape as the `sim_throughput` micro-bench), reported as steps/s
//!    per scheme.
//! 4. **Campaign** — wall-clock for a small `gecko-fleet` Monte-Carlo
//!    campaign (the fast path is on by default for every worker).
//! 5. **Checker** — `gecko-check` windows/s on the simulator's fast paths
//!    vs the step-exact reference; the two reports must match exactly. The
//!    share of explored drains that join an earlier drain at their join
//!    point (the first region commit, or NVP's first loop-header entry) is
//!    printed for NVP, Ratchet, GECKO and GECKO-noprune and gated at a
//!    deterministic floor.
//!    * **Incremental check** — the same campaign cold (fresh memo
//!      store) vs warm (store reopened from disk), on a grid with
//!      violations (depth 2, fault windows). Warm must answer ≥ 90% of
//!      windows from the persisted memo and re-prove the cold run's
//!      violations; the deterministic warm-over-cold work ratio is
//!      asserted `>= 5x`, and the share of re-prove drains that join at
//!      their join point is gated at a deterministic floor; digests must
//!      match the store-free reference either way.
//! 6. **Campaign resume** — the same fleet campaign with a resume journal
//!    attached, vs plain, vs replayed from a complete journal. The clean
//!    path must absorb supervision + journaling for < 2% overhead, and a
//!    full-journal resume must re-execute nothing.
//! 7. **Serve submit** — the same quick grid submitted to an ephemeral
//!    `gecko-serve` daemon over HTTP (submit, long-poll, fetch) vs the
//!    direct library call; the service layer must add < 10% and produce
//!    the identical deterministic digest.

use gecko_bench::{
    print_table, save_json_summary, save_rows, time_best_of, time_pairs, workers_from_env,
    SummaryRow,
};
use gecko_check::{check_app, CheckCampaign, CheckSpec, ExploreConfig};
use gecko_compiler::CompileOptions;
use gecko_emi::attack::DpiPoint;
use gecko_emi::{AttackSchedule, EmiSignal, Injection};
use gecko_energy::ConstantPower;
use gecko_fleet::{Campaign, CampaignSpec, Journal, Workload};
use gecko_sim::device::CompiledApp;
use gecko_sim::{impl_record, ExecMode, FastPathStats, SchemeKind, SimConfig, Simulator};

/// One `BENCH_sim` row. The `eh_*` span diagnostics are filled on the
/// simulator sections and left zero elsewhere.
#[derive(Default)]
struct BenchRow {
    section: String,
    scheme: String,
    app: String,
    steps: u64,
    ff_ticks: u64,
    eh_insts: u64,
    ratio: f64,
    wall_ms: f64,
    rate_per_s: f64,
    eh_runtime_ops: u64,
    eh_end_energy: u64,
    eh_end_time: u64,
    eh_end_attack_edge: u64,
    eh_end_fault_edge: u64,
    eh_end_budget: u64,
    eh_end_program: u64,
    eh_refused: u64,
}
impl_record!(BenchRow {
    section,
    scheme,
    app,
    steps,
    ff_ticks,
    eh_insts,
    ratio,
    wall_ms,
    rate_per_s,
    eh_runtime_ops,
    eh_end_energy,
    eh_end_time,
    eh_end_attack_edge,
    eh_end_fault_edge,
    eh_end_budget,
    eh_end_program,
    eh_refused
});

impl BenchRow {
    /// Copies the event-horizon span diagnostics from `s`.
    fn with_spans(self, s: &FastPathStats) -> BenchRow {
        BenchRow {
            eh_runtime_ops: s.eh_runtime_ops,
            eh_end_energy: s.eh_end_energy,
            eh_end_time: s.eh_end_time,
            eh_end_attack_edge: s.eh_end_attack_edge,
            eh_end_fault_edge: s.eh_end_fault_edge,
            eh_end_budget: s.eh_end_budget,
            eh_end_program: s.eh_end_program,
            eh_refused: s.eh_refused,
            ..self
        }
    }
}

/// Refused span entries by reason, as
/// `interpreted/fault/filtered-adc/held-reading/latched-comparator/
/// harvester/short-horizon/not-admitted`.
fn refusals(s: &FastPathStats) -> String {
    format!(
        "{}/{}/{}/{}/{}/{}/{}/{}",
        s.eh_refused_interpreted,
        s.eh_refused_fault,
        s.eh_refused_filtered_adc,
        s.eh_refused_held_below_backup,
        s.eh_refused_latched_comparator,
        s.eh_refused_harvester,
        s.eh_refused_short_horizon,
        s.eh_refused_not_admitted
    )
}

/// Span ends by reason, as `energy/time/attack/fault/budget/program`.
fn span_ends(s: &FastPathStats) -> String {
    format!(
        "{}/{}/{}/{}/{}/{}",
        s.eh_end_energy,
        s.eh_end_time,
        s.eh_end_attack_edge,
        s.eh_end_fault_edge,
        s.eh_end_budget,
        s.eh_end_program
    )
}

/// Deterministic floor on the clean-cell coalescing ratio of the
/// instrumented schemes. With their boundaries and checkpoint stores
/// retired inside spans they measure >= 1000x on both sections; a change
/// that splits spans at runtime ops again drops them back to 6-15x and
/// fails this gate.
const RUNTIME_OP_SCHEME_FLOOR: f64 = 500.0;

/// Asserts [`RUNTIME_OP_SCHEME_FLOOR`] for the instrumented schemes.
fn assert_runtime_op_floor(section: &str, scheme: SchemeKind, ratio: f64) {
    if scheme != SchemeKind::Nvp {
        assert!(
            ratio >= RUNTIME_OP_SCHEME_FLOOR,
            "{section}: {scheme} must coalesce >= {RUNTIME_OP_SCHEME_FLOOR}x with runtime \
             ops retired in-span (got {ratio:.1}x)"
        );
    }
}

/// The hibernation-heavy configuration: 0.3 µW of harvest into an empty
/// 100 µF buffer never reaches V_on inside the window, so the whole run is
/// recharge hibernation; two EMI bursts force the tick-exact fallback (and
/// give the coalescing ratio a non-trivial denominator on monitor-woken
/// schemes).
fn hibernation_config(scheme: SchemeKind) -> SimConfig {
    let mut cfg = SimConfig::harvesting(scheme)
        .with_capacitor(100e-6, 0.0)
        .with_attack(AttackSchedule::bursts(
            EmiSignal::new(27e6, 35.0),
            Injection::Remote { distance_m: 2.0 },
            &[0.3, 1.1],
            0.05,
        ));
    cfg.harvester = Box::new(ConstantPower::new(0.3e-6));
    cfg
}

fn bench_fast_forward(rows: &mut Vec<BenchRow>, quick: bool) {
    let app = gecko_apps::app_by_name("blink").unwrap();
    let window_s = if quick { 5.0 } else { 20.0 };
    let iters = if quick { 2 } else { 5 };
    let mut table = Vec::new();
    let mut worst_ratio = f64::INFINITY;
    for scheme in SchemeKind::all() {
        // Compile once outside the timed region: the bench measures the
        // hot loop, not the compiler.
        let compiled = CompiledApp::build(&app, scheme, &CompileOptions::default()).unwrap();
        let run_fast = || {
            let mut sim = Simulator::from_compiled(&compiled, hibernation_config(scheme));
            sim.run_for(window_s);
            sim
        };
        let run_exact = || {
            let mut sim = Simulator::from_compiled(&compiled, hibernation_config(scheme));
            sim.set_exec_mode(ExecMode::Interpreted);
            sim.run_for(window_s);
            sim
        };
        // Correctness first: the fast path must be observationally
        // invisible on the exact workload being timed.
        let fast = run_fast();
        let exact = run_exact();
        assert_eq!(fast.metrics, exact.metrics, "{scheme}: metrics diverged");
        assert_eq!(
            fast.state_hash(),
            exact.state_hash(),
            "{scheme}: state hash diverged"
        );
        let stats = fast.fast_path_stats();
        assert_eq!(
            stats.steps,
            stats.dispatches + stats.ff_ticks + stats.eh_insts
        );
        let ratio = stats.steps as f64 / (stats.dispatches.max(1)) as f64;
        worst_ratio = worst_ratio.min(ratio);

        let fast_wall = time_best_of(iters, run_fast);
        let exact_wall = time_best_of(iters, run_exact);
        let rate = stats.steps as f64 / fast_wall.as_secs_f64();
        table.push(vec![
            scheme.name().to_string(),
            stats.steps.to_string(),
            stats.ff_ticks.to_string(),
            format!("{ratio:.1}x"),
            format!("{:.0}k/s", rate / 1e3),
            format!("{:.1}x", exact_wall.as_secs_f64() / fast_wall.as_secs_f64()),
        ]);
        rows.push(
            BenchRow {
                section: "fast_forward".to_string(),
                scheme: scheme.name().to_string(),
                app: "blink".to_string(),
                steps: stats.steps,
                ff_ticks: stats.ff_ticks,
                eh_insts: stats.eh_insts,
                ratio,
                wall_ms: fast_wall.as_secs_f64() * 1e3,
                rate_per_s: rate,
                ..BenchRow::default()
            }
            .with_spans(&stats),
        );
    }
    print_table(
        &format!("hibernation fast-forward, 0.3 µW / 100 µF, {window_s}s window (best of {iters})"),
        &[
            "scheme",
            "steps",
            "coalesced",
            "ratio",
            "steps/s",
            "wall speedup",
        ],
        &table,
    );
    assert!(
        worst_ratio >= 3.0,
        "hibernation-heavy workload must coalesce >= 3x (got {worst_ratio:.1}x)"
    );
    println!("ok: fast-forward coalesces >= {worst_ratio:.1}x of hibernation ticks");
}

/// The Figure 4 cell shape: bench-supply active execution of the victim
/// app, clean or under a continuous 20 dBm DPI tone at P2 of `tone_hz`.
/// At 100 MHz the tone induces ~0.075 V at the monitor, too weak to spoof
/// it, and spans keep running; at the 27 MHz resonance its amplitude
/// lifts the span guard above the capacitor and pins the simulator on
/// the per-instruction fallback for the whole window.
fn fig4_cell(scheme: SchemeKind, tone_hz: Option<f64>) -> SimConfig {
    let cfg = SimConfig::bench_supply(scheme);
    match tone_hz {
        Some(f) => cfg.with_attack(AttackSchedule::continuous(
            EmiSignal::new(f, 20.0),
            Injection::Dpi(DpiPoint::P2),
        )),
        None => cfg,
    }
}

fn bench_event_horizon(rows: &mut Vec<BenchRow>, quick: bool) {
    let app = gecko_apps::app_by_name("bitcnt").unwrap();
    let window_s = if quick { 0.02 } else { 0.05 };
    let iters = if quick { 2 } else { 5 };
    let mut table = Vec::new();
    let mut spread = Vec::new();
    let mut worst_ratio = f64::INFINITY;
    for scheme in SchemeKind::all() {
        let compiled = CompiledApp::build(&app, scheme, &CompileOptions::default()).unwrap();
        for (cell, tone_hz) in [
            ("clean", None),
            ("disturbed", Some(100e6)),
            ("attacked", Some(27e6)),
        ] {
            let run_fast = || {
                let mut sim = Simulator::from_compiled(&compiled, fig4_cell(scheme, tone_hz));
                sim.run_for(window_s);
                sim
            };
            let run_exact = || {
                let mut sim = Simulator::from_compiled(&compiled, fig4_cell(scheme, tone_hz));
                sim.set_exec_mode(ExecMode::Interpreted);
                sim.run_for(window_s);
                sim
            };
            // Correctness first: the event-horizon walk must be
            // observationally invisible on the exact workload being timed.
            let fast = run_fast();
            let exact = run_exact();
            assert_eq!(
                fast.metrics, exact.metrics,
                "{scheme}/{cell}: metrics diverged"
            );
            assert_eq!(
                fast.state_hash(),
                exact.state_hash(),
                "{scheme}/{cell}: state hash diverged"
            );
            let stats = fast.fast_path_stats();
            assert_eq!(
                stats.steps,
                stats.dispatches + stats.ff_ticks + stats.eh_insts
            );
            // The coalescing ratio is deterministic (simulated instructions,
            // not wall-clock), so the floor cannot flake on a loaded box.
            let ratio = stats.steps as f64 / (stats.dispatches.max(1)) as f64;
            if cell != "attacked" {
                worst_ratio = worst_ratio.min(ratio);
                assert_runtime_op_floor("event_horizon", scheme, ratio);
            }
            let fast_wall = time_best_of(iters, run_fast);
            let exact_wall = time_best_of(iters, run_exact);
            let rate = stats.steps as f64 / fast_wall.as_secs_f64();
            if cell == "clean" {
                spread.push(thread_spread(scheme, stats.steps, &run_fast));
            }
            table.push(vec![
                scheme.name().to_string(),
                cell.to_string(),
                stats.steps.to_string(),
                stats.eh_insts.to_string(),
                stats.eh_runtime_ops.to_string(),
                span_ends(&stats),
                stats.eh_refused.to_string(),
                refusals(&stats),
                format!("{ratio:.1}x"),
                format!("{:.1}M/s", rate / 1e6),
                format!("{:.1}x", exact_wall.as_secs_f64() / fast_wall.as_secs_f64()),
            ]);
            rows.push(
                BenchRow {
                    section: "event_horizon".to_string(),
                    scheme: scheme.name().to_string(),
                    app: format!("bitcnt/{cell}"),
                    steps: stats.steps,
                    ff_ticks: stats.ff_ticks,
                    eh_insts: stats.eh_insts,
                    ratio,
                    wall_ms: fast_wall.as_secs_f64() * 1e3,
                    rate_per_s: rate,
                    ..BenchRow::default()
                }
                .with_spans(&stats),
            );
        }
    }
    print_table(
        &format!("event-horizon active stepping, bitcnt, {window_s}s window (best of {iters})"),
        &[
            "scheme",
            "cell",
            "steps",
            "coalesced",
            "rt ops",
            "ends e/t/a/f/b/p",
            "refused",
            "by i/f/a/h/l/p/s/n",
            "ratio",
            "steps/s",
            "wall speedup",
        ],
        &table,
    );
    print_table(
        &format!(
            "event-horizon placement spread, bitcnt/clean, one run on each of \
             {SPREAD_THREADS} fresh threads"
        ),
        &["scheme", "min", "median", "max", "max/min"],
        &spread,
    );
    assert!(
        worst_ratio >= 3.0,
        "clean and weakly disturbed active execution must coalesce >= 3x \
         (got {worst_ratio:.1}x)"
    );
    println!("ok: event horizon coalesces >= {worst_ratio:.1}x of active instructions");
}

/// Fresh threads [`thread_spread`] times a cell on.
const SPREAD_THREADS: usize = 5;

/// Times one `run` on each of [`SPREAD_THREADS`] freshly spawned threads,
/// one after another, and returns the table row `scheme, min, median, max,
/// max/min` in M steps/s. A new thread puts the span loop's stack frame
/// and the simulator's heap at new addresses, so the spread shows how much
/// the loop's speed depends on where its memory lands.
fn thread_spread(
    scheme: SchemeKind,
    steps: u64,
    run: &(impl Fn() -> Simulator + Sync),
) -> Vec<String> {
    let mut rates: Vec<f64> = (0..SPREAD_THREADS)
        .map(|_| {
            std::thread::scope(|scope| {
                scope
                    .spawn(|| {
                        let t0 = std::time::Instant::now();
                        std::hint::black_box(run());
                        steps as f64 / t0.elapsed().as_secs_f64() / 1e6
                    })
                    .join()
                    .unwrap()
            })
        })
        .collect();
    rates.sort_by(f64::total_cmp);
    let (min, max) = (rates[0], rates[SPREAD_THREADS - 1]);
    vec![
        scheme.name().to_string(),
        format!("{min:.1}M/s"),
        format!("{:.1}M/s", rates[SPREAD_THREADS / 2]),
        format!("{max:.1}M/s"),
        format!("{:.2}", max / min),
    ]
}

/// Section 2b: `DeviceBatch` lock-step stepping — a fleet of devices
/// sharing one predecoded program on the harvesting duty-cycle workload
/// (active bursts draining the capacitor, recharge hibernation between
/// them), vs the same fleet on the interpreted step-exact reference.
/// Correctness is asserted bit-exactly on every run. The
/// headline floor is *deterministic*, like the other coalescing sections:
/// per-device steps retired per scalar dispatch — the amortized ns/op
/// lever — must stay `>= 5x`; wall-clock ns/op is printed for scale but
/// never asserted (tiny windows make wall ratios pure scheduler noise).
fn bench_batch_step(rows: &mut Vec<BenchRow>, quick: bool) {
    use gecko_sim::DeviceBatch;

    let app = gecko_apps::app_by_name("bitcnt").unwrap();
    let window_s = if quick { 1.0 } else { 3.0 };
    let iters = if quick { 2 } else { 5 };
    let devices = 8usize;
    let mut table = Vec::new();
    let mut worst_ratio = f64::INFINITY;
    for scheme in SchemeKind::all() {
        let compiled = CompiledApp::build(&app, scheme, &CompileOptions::default()).unwrap();
        let sims = |exact: bool| {
            (0..devices as u64)
                .map(|seed| {
                    let mut cfg = SimConfig::harvesting(scheme);
                    cfg.seed = seed;
                    let mut sim = Simulator::from_compiled(&compiled, cfg);
                    if exact {
                        sim.set_exec_mode(ExecMode::Interpreted);
                    }
                    sim
                })
                .collect::<Vec<_>>()
        };
        let run_batch = || {
            let mut batch = DeviceBatch::new(sims(false));
            batch.run_for(window_s);
            batch
        };
        let run_exact = || {
            let mut fleet = sims(true);
            for sim in &mut fleet {
                sim.run_for(window_s);
            }
            fleet
        };
        // Correctness first: every batched device must land bit-exactly on
        // its per-instruction reference trajectory.
        let batch = run_batch();
        let exact = run_exact();
        for (i, reference) in exact.iter().enumerate() {
            let dev = batch.device(i);
            assert_eq!(
                dev.metrics, reference.metrics,
                "{scheme}/dev{i}: metrics diverged"
            );
            assert_eq!(
                dev.state_hash(),
                reference.state_hash(),
                "{scheme}/dev{i}: state hash diverged"
            );
        }
        let stats = batch.stats();
        // Totals over the batch of the counters this row reports.
        let fast = batch.devices().iter().map(Simulator::fast_path_stats).fold(
            FastPathStats::default(),
            |t, s| FastPathStats {
                steps: t.steps + s.steps,
                dispatches: t.dispatches + s.dispatches,
                eh_runtime_ops: t.eh_runtime_ops + s.eh_runtime_ops,
                eh_end_energy: t.eh_end_energy + s.eh_end_energy,
                eh_end_time: t.eh_end_time + s.eh_end_time,
                eh_end_attack_edge: t.eh_end_attack_edge + s.eh_end_attack_edge,
                eh_end_fault_edge: t.eh_end_fault_edge + s.eh_end_fault_edge,
                eh_end_budget: t.eh_end_budget + s.eh_end_budget,
                eh_end_program: t.eh_end_program + s.eh_end_program,
                eh_refused: t.eh_refused + s.eh_refused,
                ..t
            },
        );
        let steps = fast.steps;
        // Deterministic: simulated steps per scalar dispatch, i.e. how
        // many ops each coalesced plan retires for the price of one.
        let ratio = steps as f64 / fast.dispatches.max(1) as f64;
        worst_ratio = worst_ratio.min(ratio);
        assert_runtime_op_floor("batch_step", scheme, ratio);

        let batch_wall = time_best_of(iters, run_batch);
        let ns_per_op = batch_wall.as_nanos() as f64 / steps.max(1) as f64;
        table.push(vec![
            scheme.name().to_string(),
            steps.to_string(),
            format!("{}", stats.spans),
            format!("{}\u{2030}", stats.occupancy_permille()),
            fast.eh_runtime_ops.to_string(),
            span_ends(&fast),
            fast.eh_refused.to_string(),
            format!("{ratio:.1}x"),
            format!("{ns_per_op:.1}ns"),
        ]);
        rows.push(
            BenchRow {
                section: "batch_step".to_string(),
                scheme: scheme.name().to_string(),
                app: format!("bitcnt x{devices}"),
                steps,
                ff_ticks: stats.spans,
                eh_insts: stats.coalesced_steps,
                ratio,
                wall_ms: batch_wall.as_secs_f64() * 1e3,
                rate_per_s: steps as f64 / batch_wall.as_secs_f64(),
                ..BenchRow::default()
            }
            .with_spans(&fast),
        );
    }
    print_table(
        &format!("DeviceBatch lock-step, bitcnt x{devices}, {window_s}s window (best of {iters})"),
        &[
            "scheme",
            "steps",
            "spans",
            "occupancy",
            "rt ops",
            "ends e/t/a/f/b/p",
            "refused",
            "ratio",
            "ns/op",
        ],
        &table,
    );
    assert!(
        worst_ratio >= 5.0,
        "batched stepping must retire >= 5x steps per scalar dispatch \
         per device (got {worst_ratio:.1}x)"
    );
    println!("ok: DeviceBatch retires >= {worst_ratio:.1}x steps per scalar dispatch");
}

/// Section 2c: the fault seam's fault-free cost. A schedule whose only
/// armed window opens far beyond the simulated horizon forces every span
/// plan through the fault-edge guard (`FaultSchedule::next_edge`) without
/// a single fault ever firing. The trajectory must be bit-identical to a
/// simulator that was never given a schedule, and the wall-clock overhead
/// must stay under 2% (10% in the quick smoke run, where the window is
/// small enough for scheduler noise to dominate). Plain and guarded runs
/// are timed in adjacent pairs ([`time_pairs`]) and the gate reads the
/// median per-pair ratio, so drift between the two halves cancels.
fn bench_fault_path(rows: &mut Vec<BenchRow>, quick: bool) {
    use gecko_emi::fault::{FaultModel, FaultSchedule, TimedFault};

    let app = gecko_apps::app_by_name("bitcnt").unwrap();
    let window_s = if quick { 0.05 } else { 0.2 };
    let pairs = if quick { 21 } else { 15 };
    // Armed (DPI P2 at 35 dBm clears the fault power threshold) but
    // opening three orders of magnitude past the simulated window.
    let far_future = FaultSchedule::from_windows(vec![TimedFault {
        start_s: 1_000.0,
        end_s: 1_001.0,
        signal: EmiSignal::new(27e6, 35.0),
        injection: Injection::Dpi(DpiPoint::P2),
        model: FaultModel::Skip,
    }]);
    let scheme = SchemeKind::Gecko;
    let compiled = CompiledApp::build(&app, scheme, &CompileOptions::default()).unwrap();
    let run_plain = || {
        let mut sim = Simulator::from_compiled(&compiled, SimConfig::bench_supply(scheme));
        sim.run_for(window_s);
        sim
    };
    let run_guarded = || {
        let mut sim = Simulator::from_compiled(
            &compiled,
            SimConfig::bench_supply(scheme).with_fault(far_future.clone()),
        );
        sim.run_for(window_s);
        sim
    };
    let plain = run_plain();
    let guarded = run_guarded();
    assert_eq!(
        plain.metrics, guarded.metrics,
        "an unreached fault window must not change the trajectory"
    );
    assert_eq!(plain.state_hash(), guarded.state_hash());
    assert_eq!(guarded.metrics.fault_skips, 0);

    let walls = time_pairs(pairs, run_plain, run_guarded);
    let overhead = walls.ratio;
    let steps = plain.fast_path_stats().steps;
    print_table(
        &format!(
            "fault-free fault-path overhead, bitcnt, {window_s}s window (median of {pairs} pairs)"
        ),
        &["path", "wall", "vs plain"],
        &[
            vec![
                "plain".to_string(),
                format!("{:.1}ms", walls.base_s * 1e3),
                "1.00x".to_string(),
            ],
            vec![
                "guarded".to_string(),
                format!("{:.1}ms", walls.other_s * 1e3),
                format!("{overhead:.3}x (pair median)"),
            ],
        ],
    );
    rows.push(
        BenchRow {
            section: "fault_path".to_string(),
            scheme: scheme.name().to_string(),
            app: "bitcnt".to_string(),
            steps,
            ff_ticks: 0,
            eh_insts: guarded.fast_path_stats().eh_insts,
            ratio: overhead,
            wall_ms: walls.other_s * 1e3,
            rate_per_s: steps as f64 / walls.other_s,
            ..BenchRow::default()
        }
        .with_spans(&guarded.fast_path_stats()),
    );
    let max_overhead = if quick { 1.10 } else { 1.02 };
    assert!(
        overhead < max_overhead,
        "the fault-edge guard must cost < {max_overhead:.2}x on fault-free \
         runs (got {overhead:.3}x)"
    );
}

fn bench_dispatch(rows: &mut Vec<BenchRow>, quick: bool) {
    let app = gecko_apps::app_by_name("crc32").unwrap();
    let iters = if quick { 3 } else { 10 };
    let window_s = 0.01;
    let mut table = Vec::new();
    for scheme in SchemeKind::all() {
        let compiled = CompiledApp::build(&app, scheme, &CompileOptions::default()).unwrap();
        let run = |mode: ExecMode| {
            let compiled = &compiled;
            move || {
                let mut sim = Simulator::from_compiled(compiled, SimConfig::bench_supply(scheme));
                sim.set_exec_mode(mode);
                sim.run_for(window_s);
                sim
            }
        };
        let steps = run(ExecMode::Predecoded)().fast_path_stats().steps;
        let pre_wall = time_best_of(iters, run(ExecMode::Predecoded));
        let int_wall = time_best_of(iters, run(ExecMode::Interpreted));
        let rate = steps as f64 / pre_wall.as_secs_f64();
        let speedup = int_wall.as_secs_f64() / pre_wall.as_secs_f64();
        table.push(vec![
            scheme.name().to_string(),
            format!("{:.1}M/s", rate / 1e6),
            format!("{:.1}M/s", steps as f64 / int_wall.as_secs_f64() / 1e6),
            format!("{speedup:.2}x"),
        ]);
        rows.push(BenchRow {
            section: "dispatch".to_string(),
            scheme: scheme.name().to_string(),
            app: "crc32".to_string(),
            steps,
            ff_ticks: 0,
            eh_insts: 0,
            ratio: speedup,
            wall_ms: pre_wall.as_secs_f64() * 1e3,
            rate_per_s: rate,
            ..BenchRow::default()
        });
    }
    print_table(
        &format!("instruction dispatch, crc32, {window_s}s window (best of {iters})"),
        &["scheme", "predecoded", "exact reference", "speedup"],
        &table,
    );
}

fn bench_campaign(rows: &mut Vec<BenchRow>, quick: bool) {
    let seconds = if quick { 0.05 } else { 0.2 };
    let iters = if quick { 1 } else { 3 };
    let spec = CampaignSpec::new("bench_fast_path")
        .apps(["blink", "crc16"])
        .schemes([SchemeKind::Nvp, SchemeKind::Gecko])
        .seeds([1, 2, 3])
        .workload(Workload::RunFor { seconds });
    let items = spec.expand().len() as u64;
    let campaign = Campaign::new(spec).workers(workers_from_env());
    let wall = time_best_of(iters, || campaign.run().expect("campaign runs"));
    let rate = items as f64 / wall.as_secs_f64();
    print_table(
        &format!("fleet campaign wall-clock, {items} items x {seconds}s (best of {iters})"),
        &["items", "wall", "items/s"],
        &[vec![
            items.to_string(),
            format!("{:.1}ms", wall.as_secs_f64() * 1e3),
            format!("{rate:.0}/s"),
        ]],
    );
    rows.push(BenchRow {
        section: "campaign".to_string(),
        scheme: "nvp+gecko".to_string(),
        app: "blink+crc16".to_string(),
        steps: items,
        ff_ticks: 0,
        eh_insts: 0,
        ratio: 1.0,
        wall_ms: wall.as_secs_f64() * 1e3,
        rate_per_s: rate,
        ..BenchRow::default()
    });
}

/// Section 6: campaign resume. Plain and journaled runs are timed in
/// adjacent pairs ([`time_pairs`]) and the journaling gate reads the
/// median per-pair ratio.
fn bench_campaign_resume(rows: &mut Vec<BenchRow>, quick: bool) {
    use std::sync::Arc;
    let seconds = if quick { 0.05 } else { 0.2 };
    let iters = if quick { 2 } else { 5 };
    let pairs = if quick { 21 } else { 15 };
    let spec = || {
        CampaignSpec::new("bench_resume")
            .apps(["blink", "crc16"])
            .schemes([SchemeKind::Nvp, SchemeKind::Gecko])
            .seeds([1, 2, 3])
            .workload(Workload::RunFor { seconds })
    };
    let items = spec().expand().len() as u64;
    let workers = workers_from_env();

    // Clean path: supervision is always on; the journal is the only delta.
    let plain = Campaign::new(spec()).workers(workers);
    let walls = time_pairs(
        pairs,
        || plain.run().expect("campaign runs"),
        || {
            Campaign::new(spec())
                .workers(workers)
                .journal(Arc::new(Journal::memory()))
                .run()
                .expect("journaled campaign runs")
        },
    );

    // Replay path: resuming from a complete journal re-executes nothing,
    // so it must merge bit-exactly and come back far faster.
    let journal = Arc::new(Journal::memory());
    let reference = Campaign::new(spec())
        .workers(workers)
        .journal(Arc::clone(&journal))
        .run()
        .expect("reference campaign runs");
    let resume_wall = time_best_of(iters, || {
        let resumed = Campaign::new(spec())
            .workers(workers)
            .journal(Arc::clone(&journal))
            .run()
            .expect("resume runs");
        assert_eq!(resumed.counters.resumed, items, "resume must skip all runs");
        assert_eq!(
            resumed.deterministic_digest(),
            reference.deterministic_digest(),
            "resume must merge bit-exactly"
        );
        resumed
    });

    let overhead = walls.ratio;
    print_table(
        &format!(
            "campaign resume, {items} items x {seconds}s \
             (plain/journaled: median of {pairs} pairs; resumed: best of {iters})"
        ),
        &["path", "wall", "vs plain"],
        &[
            vec![
                "plain".to_string(),
                format!("{:.1}ms", walls.base_s * 1e3),
                "1.00x".to_string(),
            ],
            vec![
                "journaled".to_string(),
                format!("{:.1}ms", walls.other_s * 1e3),
                format!("{overhead:.3}x (pair median)"),
            ],
            vec![
                "resumed".to_string(),
                format!("{:.1}ms", resume_wall.as_secs_f64() * 1e3),
                format!("{:.3}x", resume_wall.as_secs_f64() / walls.base_s),
            ],
        ],
    );
    rows.push(BenchRow {
        section: "campaign_resume".to_string(),
        scheme: "nvp+gecko".to_string(),
        app: "blink+crc16".to_string(),
        steps: items,
        ff_ticks: 0,
        eh_insts: 0,
        ratio: overhead,
        wall_ms: walls.other_s * 1e3,
        rate_per_s: items as f64 / walls.other_s,
        ..BenchRow::default()
    });
    // Quick-mode windows total ~70 ms, where a single millisecond of
    // scheduler noise already exceeds 2%; the smoke run only guards
    // against gross regressions, the full run holds the real bound.
    let max_overhead = if quick { 1.10 } else { 1.02 };
    assert!(
        overhead < max_overhead,
        "clean-path supervision + journaling overhead must stay < \
         {max_overhead:.2}x (median per-pair ratio {overhead:.3}x)"
    );
    assert!(
        resume_wall.as_secs_f64() < walls.base_s,
        "a full-journal resume must be faster than re-running the campaign"
    );
}

/// Section 7: `gecko-serve` submit→complete overhead. The same quick grid
/// through the daemon (HTTP submit, long-poll, result fetch, the one job
/// log) vs the direct library call; serving must add < 10%.
///
/// Direct and served runs are timed in adjacent pairs ([`time_pairs`])
/// and the gate reads the median per-pair ratio.
fn bench_serve_submit(rows: &mut Vec<BenchRow>, quick: bool) {
    use gecko_fleet::spec_to_json;
    use gecko_fleet::Json;
    use gecko_serve::{http_call, ServeConfig, Server};

    let seconds = if quick { 0.05 } else { 0.2 };
    let pairs = if quick { 31 } else { 21 };
    let spec = CampaignSpec::new("bench_serve")
        .apps(["blink", "crc16"])
        .schemes([SchemeKind::Nvp, SchemeKind::Gecko])
        .seeds([1, 2, 3])
        .workload(Workload::RunFor { seconds });
    let items = spec.expand().len() as u64;
    let workers = workers_from_env();

    let direct = Campaign::new(spec.clone()).workers(workers);
    let reference = direct.run().expect("direct campaign runs");

    let data = std::env::temp_dir().join(format!("gecko-serve-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&data);
    let server = Server::start(ServeConfig {
        bind: "127.0.0.1:0".to_string(),
        journal_root: data.clone(),
        ..ServeConfig::default()
    })
    .expect("daemon boots");
    let addr = server.addr().to_string();
    let body = format!("{{\"spec\":{},\"workers\":{workers}}}", spec_to_json(&spec));

    let served = || {
        let resp = http_call(&addr, "POST", "/v1/campaigns", &body).expect("submit");
        assert_eq!(resp.status, 201, "submit failed: {}", resp.body);
        let id = Json::parse(&resp.body)
            .expect("status doc parses")
            .get("id")
            .and_then(Json::as_u64)
            .expect("job id");
        loop {
            let resp =
                http_call(&addr, "GET", &format!("/v1/jobs/{id}?wait_ms=10000"), "").expect("poll");
            let doc = Json::parse(&resp.body).expect("status doc parses");
            match doc.get("state").and_then(Json::as_str) {
                Some("done") => {
                    assert_eq!(
                        doc.get("digest").and_then(Json::as_u64),
                        Some(reference.deterministic_digest()),
                        "served digest diverged from the direct run"
                    );
                    break;
                }
                Some("queued") | Some("running") => {}
                other => panic!("job {id} landed in {other:?}: {}", resp.body),
            }
        }
    };
    let walls = time_pairs(
        pairs,
        || direct.run().expect("direct campaign runs"),
        served,
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&data);

    let (direct_wall, served_wall, overhead) = (walls.base_s, walls.other_s, walls.ratio);
    print_table(
        &format!("serve submit→complete, {items} items x {seconds}s (median of {pairs} pairs)"),
        &["path", "wall", "vs direct"],
        &[
            vec![
                "direct".to_string(),
                format!("{:.1}ms", direct_wall * 1e3),
                "1.00x".to_string(),
            ],
            vec![
                "served".to_string(),
                format!("{:.1}ms", served_wall * 1e3),
                format!("{overhead:.3}x (pair median)"),
            ],
        ],
    );
    rows.push(BenchRow {
        section: "serve_submit".to_string(),
        scheme: "nvp+gecko".to_string(),
        app: "blink+crc16".to_string(),
        steps: items,
        ff_ticks: 0,
        eh_insts: 0,
        ratio: overhead,
        wall_ms: served_wall * 1e3,
        rate_per_s: items as f64 / served_wall,
        ..BenchRow::default()
    });
    assert!(
        overhead < 1.10,
        "serving a campaign must add < 10% over the direct library call \
         (median per-pair ratio {overhead:.3}x)"
    );
}

fn bench_checker(rows: &mut Vec<BenchRow>, quick: bool) {
    let app = gecko_apps::app_by_name("crc16").unwrap();
    let cap = if quick { 120 } else { 400 };
    let iters = if quick { 1 } else { 3 };
    let cfg = ExploreConfig::default().with_max_windows(cap);
    let exact_cfg = ExploreConfig {
        fast_forward: false,
        ..cfg
    };
    let opts = CompileOptions::default();
    let fast = check_app(&app, SchemeKind::Gecko, &opts, &cfg).unwrap();
    let exact = check_app(&app, SchemeKind::Gecko, &opts, &exact_cfg).unwrap();
    assert_eq!(fast.violations, exact.violations, "checker verdict changed");
    assert_eq!(fast.stats, exact.stats, "checker stats changed");

    let mut table = Vec::new();
    for (label, explore) in [("fast paths", &cfg), ("exact reference", &exact_cfg)] {
        let wall = time_best_of(iters, || {
            check_app(&app, SchemeKind::Gecko, &opts, explore).unwrap()
        });
        let rate = fast.stats.windows as f64 / wall.as_secs_f64();
        table.push(vec![
            label.to_string(),
            fast.stats.windows.to_string(),
            format!("{:.1}ms", wall.as_secs_f64() * 1e3),
            format!("{rate:.0}/s"),
        ]);
        rows.push(BenchRow {
            section: "checker".to_string(),
            scheme: "gecko".to_string(),
            app: format!("crc16/{label}"),
            steps: fast.stats.steps,
            ff_ticks: 0,
            eh_insts: 0,
            ratio: 1.0,
            wall_ms: wall.as_secs_f64() * 1e3,
            rate_per_s: rate,
            ..BenchRow::default()
        });
    }
    print_table(
        &format!("checker windows/s, crc16 under GECKO, {cap} windows (best of {iters})"),
        &["simulator", "windows", "wall", "windows/s"],
        &table,
    );

    // Drains that stop at their join point (the first region commit, or
    // for NVP the first loop-header entry) because an earlier drain of
    // the chunk passed through a state with the same drain hash there.
    // Deterministic: each floor sits just below the share measured on
    // both grid sizes (120 / 400 windows: NVP 0.868 / 0.868, Ratchet
    // 0.571 / 0.727, GECKO 0.962 / 0.974, without pruning 0.964 / 0.975).
    let mut table = Vec::new();
    for (scheme, floor) in [
        (SchemeKind::Nvp, 0.85),
        (SchemeKind::Ratchet, 0.55),
        (SchemeKind::Gecko, 0.95),
        (SchemeKind::GeckoNoPrune, 0.95),
    ] {
        let spec = CheckSpec::new("bench_checker_joins")
            .apps([app.clone()])
            .schemes([scheme])
            .explore(cfg);
        let report = CheckCampaign::new(spec).run().expect("crc16 checks");
        let (joins, explored) = (report.counters.drain_joins, report.totals.explored);
        let share = joins as f64 / explored.max(1) as f64;
        table.push(vec![
            scheme.name().to_string(),
            explored.to_string(),
            joins.to_string(),
            format!("{share:.3}"),
        ]);
        assert!(
            share >= floor,
            "{}: only {joins} of {explored} explored drains joined at their join point",
            scheme.name()
        );
    }
    print_table(
        &format!("checker drain joins, crc16, {cap} windows"),
        &["scheme", "explored", "joins", "joins/explored"],
        &table,
    );
}

/// Section 5b: incremental persistent checking — the same campaign run
/// cold (fresh [`gecko_check::MemoStore`]) and warm (store reopened from
/// disk). The headline is *deterministic*: windows the cold run explored
/// over windows the warm run had to re-explore, derived from the
/// memo-window counters rather than wall time, so the `>= 5x` floor
/// cannot flake on a loaded box. Wall ns/window is printed for scale.
/// Digest equality against the store-free reference is asserted on every
/// run — incremental checking must be invisible to the verdicts.
fn bench_incremental_check(rows: &mut Vec<BenchRow>, quick: bool) {
    use gecko_check::{war_counter_app, MemoStore};
    use std::sync::Arc;
    use std::time::Instant;

    // Depth 2 with fault windows: EM faults followed by re-failures
    // violate under GECKO, so the warm run has violations to re-prove.
    let cap = if quick { 60 } else { 200 };
    let spec = || {
        CheckSpec::new("bench_incremental")
            .apps([war_counter_app(6)])
            .app_names(&["crc16"])
            .expect("crc16 is bundled")
            .schemes([SchemeKind::Gecko])
            .explore(
                ExploreConfig::default()
                    .with_max_windows(cap)
                    .with_depth(2)
                    .with_fault_windows(true),
            )
            .chunk_windows(32)
    };
    let reference = CheckCampaign::new(spec()).run().expect("reference runs");

    let dir = std::env::temp_dir().join(format!("gecko-bench-incr-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cold_started = Instant::now();
    let cold = CheckCampaign::new(spec())
        .memo(Arc::new(MemoStore::open(&dir).expect("store opens")))
        .run()
        .expect("cold run");
    let cold_wall = cold_started.elapsed();
    let warm_started = Instant::now();
    let warm = CheckCampaign::new(spec())
        .memo(Arc::new(MemoStore::open(&dir).expect("store reopens")))
        .run()
        .expect("warm run");
    let warm_wall = warm_started.elapsed();
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(
        cold.deterministic_digest(),
        reference.deterministic_digest(),
        "attaching a memo store must not change the report"
    );
    assert_eq!(
        warm.deterministic_digest(),
        reference.deterministic_digest(),
        "a warm re-check must certify the identical report"
    );
    assert_eq!(cold.counters.memo_windows, 0, "cold means cold");

    let windows = warm.totals.windows;
    let memo = warm.counters.memo_windows;
    assert!(
        memo * 10 >= windows * 9,
        "warm re-checks must answer >= 90% of windows from the persisted \
         memo (got {memo}/{windows})"
    );
    // Deterministic warm-over-cold work ratio: every window costs an
    // exploration cold; warm only re-explores the non-memoized remainder.
    let ratio = windows as f64 / (windows - memo).max(1) as f64;
    // What the warm run's re-prove pass cost: persisted violations
    // replayed, the drains the per-chunk outcome table could not answer
    // (at most one per replay), and the drains of those that joined an
    // earlier drain at their join point (at most one per drain).
    let (reproved, drains, joins) = (
        warm.counters.reproved,
        warm.counters.reprove_drains,
        warm.counters.reprove_joins,
    );
    assert!(
        reproved > 0 && reproved == cold.totals.violations,
        "the warm run must re-prove every cold violation (re-proved {reproved} of {})",
        cold.totals.violations
    );
    assert!(
        drains <= reproved,
        "re-prove drains ({drains}) exceed the violations re-proven ({reproved})"
    );
    // Deterministic: the floor sits just below the share measured on both
    // grid sizes (60 / 200 windows: 77 of 86 = 0.895 / 251 of 330 = 0.761).
    let share = joins as f64 / drains.max(1) as f64;
    assert!(
        joins > 0 && joins <= drains && share >= 0.75,
        "only {joins} of {drains} re-prove drains joined at their join point"
    );

    print_table(
        &format!(
            "incremental check, warcount+crc16 under GECKO, depth 2 with fault windows, \
             {windows} windows"
        ),
        &[
            "path",
            "explored",
            "memo",
            "reproved",
            "drains",
            "joins",
            "wall",
            "ns/window",
        ],
        &[
            vec![
                "cold".to_string(),
                windows.to_string(),
                "0".to_string(),
                "0".to_string(),
                "0".to_string(),
                "0".to_string(),
                format!("{:.1}ms", cold_wall.as_secs_f64() * 1e3),
                format!("{:.0}", cold_wall.as_nanos() as f64 / windows.max(1) as f64),
            ],
            vec![
                "warm".to_string(),
                (windows - memo).to_string(),
                memo.to_string(),
                reproved.to_string(),
                drains.to_string(),
                joins.to_string(),
                format!("{:.1}ms", warm_wall.as_secs_f64() * 1e3),
                format!("{:.0}", warm_wall.as_nanos() as f64 / windows.max(1) as f64),
            ],
        ],
    );
    rows.push(BenchRow {
        section: "incremental_check".to_string(),
        scheme: "gecko".to_string(),
        app: "warcount+crc16".to_string(),
        steps: windows,
        ff_ticks: memo,
        eh_insts: 0,
        ratio,
        wall_ms: warm_wall.as_secs_f64() * 1e3,
        rate_per_s: windows as f64 / warm_wall.as_secs_f64().max(1e-9),
        ..BenchRow::default()
    });
    assert!(
        ratio >= 5.0,
        "warm re-checks must do >= 5x less exploration work than cold \
         (got {ratio:.1}x: {memo}/{windows} memo-answered)"
    );
    println!("ok: warm re-check does {ratio:.0}x less exploration work than cold");
}

/// Section 8: `gecko-store` compaction — one unlimited
/// `SegmentedLog::compact` call over a campaign journal appended twice
/// over (so half the records are superseded), fsync-and-rename rewrites
/// included. The bound is per *line scanned*,
/// deliberately loose: it guards against gross regressions (accidental
/// per-line fsync, quadratic classify), not cache noise.
fn bench_prune_tick(rows: &mut Vec<BenchRow>, quick: bool) {
    use gecko_store::{LogConfig, SegmentedLog};
    use std::sync::Arc;

    let iters = if quick { 2 } else { 5 };
    let seconds = if quick { 0.01 } else { 0.02 };
    let spec = CampaignSpec::new("bench_prune")
        .apps(["blink"])
        .schemes([SchemeKind::Gecko])
        .seeds([1, 2, 3, 4])
        .workload(Workload::RunFor { seconds });
    let cfg = LogConfig {
        max_segment_bytes: 2048,
    };
    let root = std::env::temp_dir().join(format!("gecko-bench-prune-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    // Journal one campaign; every measured call then compacts a fresh
    // segmented log holding those lines twice.
    let journal =
        Journal::open_segmented(&root.join("seed").join("journal"), cfg).expect("journal opens");
    Campaign::new(spec)
        .workers(workers_from_env())
        .journal(Arc::new(journal))
        .run()
        .expect("campaign runs");
    let lines =
        Journal::open_segmented(&root.join("seed").join("journal"), cfg).expect("journal reopens");
    let lines = lines.lines();
    let total_lines = (lines.len() * 2) as u64;

    let mut round = 0u32;
    let wall = time_best_of(iters, || {
        round += 1;
        let dir = root.join(format!("tick-{round}"));
        let log = SegmentedLog::open(&dir.join("journal"), cfg).expect("log opens");
        for line in lines.iter().chain(lines.iter()) {
            log.append(line);
        }
        log.seal().expect("seal");
        let report = log
            .compact(gecko_fleet::classify_campaign_lines, 0)
            .expect("compact");
        assert!(report.done, "an unlimited call must finish");
        assert!(report.pruned > 0, "duplicated journal must compact");
    });
    let _ = std::fs::remove_dir_all(&root);

    let ns_per_line = wall.as_nanos() as f64 / total_lines.max(1) as f64;
    let rate = total_lines as f64 / wall.as_secs_f64();
    print_table(
        &format!("store compaction, {total_lines} journal lines (best of {iters})"),
        &["lines", "wall", "ns/line", "lines/s"],
        &[vec![
            total_lines.to_string(),
            format!("{:.1}ms", wall.as_secs_f64() * 1e3),
            format!("{ns_per_line:.0}"),
            format!("{rate:.0}/s"),
        ]],
    );
    rows.push(BenchRow {
        section: "prune_tick".to_string(),
        scheme: "campaign".to_string(),
        app: "journal".to_string(),
        steps: total_lines,
        ff_ticks: 0,
        eh_insts: 0,
        ratio: 1.0,
        wall_ms: wall.as_secs_f64() * 1e3,
        rate_per_s: rate,
        ..BenchRow::default()
    });
    const MAX_NS_PER_LINE: f64 = 2_000_000.0; // 2 ms/line, fsyncs included
    assert!(
        ns_per_line < MAX_NS_PER_LINE,
        "compaction cost {ns_per_line:.0} ns/line, bound is {MAX_NS_PER_LINE:.0}"
    );
}

fn main() {
    let quick = std::env::var_os("GECKO_QUICK").is_some();
    let mut rows = Vec::new();
    bench_fast_forward(&mut rows, quick);
    bench_event_horizon(&mut rows, quick);
    bench_batch_step(&mut rows, quick);
    bench_fault_path(&mut rows, quick);
    bench_dispatch(&mut rows, quick);
    bench_campaign(&mut rows, quick);
    bench_campaign_resume(&mut rows, quick);
    bench_serve_submit(&mut rows, quick);
    bench_prune_tick(&mut rows, quick);
    bench_checker(&mut rows, quick);
    bench_incremental_check(&mut rows, quick);
    save_rows("BENCH_sim", &rows);
    let summary: Vec<SummaryRow> = rows
        .iter()
        .map(|r| SummaryRow {
            name: format!("{}/{}/{}", r.section, r.scheme, r.app),
            ns_per_op: r.wall_ms * 1e6 / r.steps.max(1) as f64,
            ratio: r.ratio,
        })
        .collect();
    save_json_summary("BENCH_sim", &summary);
}
