//! The instruction-stepped device simulator: MCU + capacitor + harvester +
//! voltage monitor + recovery-scheme runtime.
//!
//! ## Power model
//!
//! Executing is only possible while the capacitor's *real* voltage is above
//! `V_off`. Every instruction draws its energy; harvested power integrates
//! continuously. When the device sleeps it draws only leakage, and wakes
//! according to the scheme: JIT-protocol schemes trust the (EMI-exposed)
//! voltage monitor for both the checkpoint trigger (`reading < V_backup`)
//! and the wake-up (`reading ≥ V_on`); GECKO in rollback mode uses only the
//! MCU-internal power-on reset (the paper found internal components immune
//! to remote EMI), booting at the *real* `V_on`.
//!
//! ## Scheme runtimes
//!
//! * **NVP** — CTPL: monitor-triggered word-by-word JIT checkpoint into a
//!   single-buffered area; restore on wake; cold-restart on corruption.
//! * **Ratchet** — no register clusters; at every region boundary the
//!   runtime saves all sixteen registers into the inactive buffer and
//!   commits atomically; monitor-triggered sleeps; rollback on wake.
//! * **GECKO** — JIT protocol while trusted; compiler clusters persist into
//!   the 3-slot checkpoint array at every boundary; reactive detection at
//!   boot (ACK toggle + region-repeat), rollback recovery through the
//!   recovery table (slot restores + recovery-block slices in a scratch
//!   context), and probation-based JIT re-enablement (Section VI-F).

use std::cell::Cell;

use gecko_apps::App;
use gecko_compiler::{
    compile, compile_ratchet, CompileError, CompileOptions, RecoveryTable, RegionTable,
    RestoreAction,
};
use gecko_ctpl::JitArea;
use gecko_emi::{
    AdcMonitor, AttackSchedule, ComparatorMonitor, DeviceModel, FaultModel, FaultSchedule,
    FilteredAdcMonitor, MonitorKind,
};
use gecko_energy::{segment, Capacitor, ConstantPower, PowerSource, VoltageThresholds};
use gecko_isa::fnv::{fnv_lane, FNV_OFFSET};
use gecko_isa::{CostModel, EnergyModel, Program, Reg, RegionId};
use gecko_mcu::{FaultEffect, Machine, Nvm, Pc, Peripherals, PredecodedProgram, StepEvent};

use crate::areas::{GeckoArea, GeckoMode, RatchetArea};
use crate::metrics::Metrics;
use crate::scheme::SchemeKind;

/// Boot-sequence latency (bootloader, clock and peripheral bring-up) in
/// cycles — FRAM-board CTPL wake paths cost on the order of a millisecond.
pub const REBOOT_CYCLES: u64 = 24_000;
/// Application restart bookkeeping cycles (excluding the data reload).
pub const RESTART_CYCLES: u64 = 500;
/// Sleep-phase simulation tick.
pub const SLEEP_TICK_S: f64 = 2.5e-4;
/// Consecutive positive wake samples the CTPL wake path requires before
/// booting (debounce). Under a resonant attack the oscillating monitor
/// rarely produces a stable run, which is what stretches the spoofed
/// sleep phases and collapses forward progress to the few percent of
/// Table I.
pub const WAKE_STABLE_SAMPLES: u32 = 6;
/// Words of SRAM + peripheral state the CTPL checkpoint saves besides the
/// register file (the library checkpoints the whole volatile footprint).
pub const CTPL_STATE_WORDS: u32 = 4096;
/// RTC fallback: if the supply has genuinely been above `V_on` this long
/// but the monitor never produced a stable wake signal, the LPM timer wakes
/// the device anyway (CTPL arms an RTC alongside the comparator/ADC wake
/// sources). Without it, an attacker could suppress wake-ups indefinitely
/// and starve even the reactive detector of boots.
pub const WAKE_FALLBACK_S: f64 = 0.1;
/// The minimum power-on period (cycles) GECKO's WCET analysis guarantees a
/// charge cycle provides (Section VI-A): a *monitor-reported* outage that
/// arrives sooner is physically impossible for a healthy capacitor and is
/// treated as attack evidence.
pub const MIN_ON_PERIOD_CYCLES: u64 = 100_000;
/// NVM words of main memory.
pub const NVM_WORDS: u32 = 1 << 16;

/// Lowest NVM address of any scheme's checkpoint-runtime area (the
/// Ratchet buffers at `NVM_WORDS - 256`; the GECKO and JIT areas sit
/// above it, so all of them share the last NVM page). A store at or above
/// this fence can flip runtime state the event-horizon coalescer assumed
/// constant (e.g. the GECKO mode word), so batched spans end before
/// executing one — applications never store there, making the fence free
/// in practice. Applications never load there either; the NVM counts the
/// loads that do ([`gecko_mcu::Nvm::fenced_load_count`]), since a
/// register an EM fault corrupted can point anywhere.
const RUNTIME_AREA_FENCE: u32 = NVM_WORDS - 256;

/// Smallest closed-form active horizon (in instructions) worth entering a
/// batched span for; below this the exact per-step path runs. Shared by
/// the in-device coalescer ([`Simulator::advance_to_horizon`]) and the
/// multi-device planner ([`crate::batch::DeviceBatch`]), which must agree
/// on the threshold for their trajectories to stay bit-identical.
pub const MIN_ACTIVE_SPAN: u64 = 8;

/// Everything needed to instantiate a simulated device.
#[derive(Debug)]
pub struct SimConfig {
    /// The recovery scheme under test.
    pub scheme: SchemeKind,
    /// The board's EMI susceptibility model.
    pub device: DeviceModel,
    /// Which voltage monitor drives the JIT protocol.
    pub monitor: MonitorKind,
    /// The voltage-threshold ladder.
    pub thresholds: VoltageThresholds,
    /// Energy-buffer capacitance (farads).
    pub capacitance_f: f64,
    /// Initial capacitor voltage; `None` = fully charged (`v_max`).
    pub initial_voltage_v: Option<f64>,
    /// The harvested-power source.
    pub harvester: Box<dyn PowerSource>,
    /// The attack schedule (possibly empty).
    pub attack: AttackSchedule,
    /// The EM instruction-fault schedule (possibly empty).
    pub fault: FaultSchedule,
    /// Compiler options for the instrumented schemes.
    pub compile: CompileOptions,
    /// Peripheral sensor seed.
    pub seed: u64,
    /// Optional median filter in front of the ADC monitor (the hardware
    /// countermeasure studied in Section V-A1); `Some(taps)` enables it.
    pub adc_filter_taps: Option<usize>,
}

impl SimConfig {
    /// A lab bench configuration: MSP430FR5994 model, ADC monitor, 1 mF
    /// capacitor, generous DC supply, no attack.
    pub fn bench_supply(scheme: SchemeKind) -> SimConfig {
        SimConfig {
            scheme,
            device: gecko_emi::devices::msp430fr5994(),
            monitor: MonitorKind::Adc,
            thresholds: VoltageThresholds::default(),
            capacitance_f: 1e-3,
            initial_voltage_v: None,
            harvester: Box::new(ConstantPower::bench_supply()),
            attack: AttackSchedule::none(),
            fault: FaultSchedule::none(),
            compile: CompileOptions::default(),
            seed: 7,
            adc_filter_taps: None,
        }
    }

    /// The paper's energy-harvesting environment: a weak RF harvester whose
    /// average power (~1.2 mW) is well below the ~3 mW active draw, so the
    /// device naturally duty-cycles: it drains the capacitor to `V_backup`,
    /// checkpoints, hibernates while recharging to `V_on`, and resumes —
    /// the periodic-outage regime of Section VII-B3.
    pub fn harvesting(scheme: SchemeKind) -> SimConfig {
        SimConfig {
            harvester: Box::new(ConstantPower::new(1.2e-3)),
            ..SimConfig::bench_supply(scheme)
        }
    }

    /// Replaces the attack schedule (builder style).
    pub fn with_attack(mut self, attack: AttackSchedule) -> SimConfig {
        self.attack = attack;
        self
    }

    /// Replaces the instruction-fault schedule (builder style).
    pub fn with_fault(mut self, fault: FaultSchedule) -> SimConfig {
        self.fault = fault;
        self
    }

    /// Replaces the board model (builder style).
    pub fn with_device(mut self, device: DeviceModel, monitor: MonitorKind) -> SimConfig {
        self.device = device;
        self.monitor = monitor;
        self
    }

    /// Replaces the energy buffer: capacitance and initial charge
    /// (builder style). Thresholds are left as configured.
    pub fn with_capacitor(mut self, capacitance_f: f64, initial_voltage_v: f64) -> SimConfig {
        self.capacitance_f = capacitance_f;
        self.initial_voltage_v = Some(initial_voltage_v);
        self
    }

    /// Like [`SimConfig::with_capacitor`] but rescales the thresholds so
    /// the buffered energy matches the 1 mF reference, per the paper's
    /// Section VII-D methodology (only meaningful for larger capacitors).
    pub fn with_rescaled_capacitor(
        mut self,
        capacitance_f: f64,
        initial_voltage_v: f64,
    ) -> SimConfig {
        self.thresholds = self.thresholds.rescale_for_capacitor(1e-3, capacitance_f);
        self.capacitance_f = capacitance_f;
        self.initial_voltage_v = Some(initial_voltage_v);
        self
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PowerState {
    On,
    Sleeping,
}

/// How the simulator steps: through its fast paths, or along the
/// step-exact reference they are checked against.
///
/// Both modes are *observationally identical* — same registers, memory,
/// events, metrics, timing and energy, bit for bit — and the differential
/// test suite holds them to it. [`ExecMode::Predecoded`] is the default and
/// is strictly faster; [`ExecMode::Interpreted`] is the independently-simple
/// reference the fast paths are checked against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Dispatch on the dense predecoded array built at compile time
    /// ([`gecko_mcu::PredecodedProgram`]), with both coalescers on:
    /// hibernation fast-forward and event-horizon active spans.
    #[default]
    Predecoded,
    /// The whole step-exact reference: re-interpret `gecko_isa`
    /// instructions one at a time and step every sleep tick, with no span
    /// coalesced.
    Interpreted,
}

/// Cumulative instrumentation of the simulator's stepping machinery: how
/// many simulation steps ran, and how many of them the two coalescers
/// (hibernation fast-forward, event-horizon active stepping) batched past
/// the full per-step dispatch. `steps == dispatches + ff_ticks + eh_insts`
/// always holds, and every event-horizon span ends for exactly one
/// reason: `eh_spans == eh_end_energy + eh_end_time + eh_end_attack_edge +
/// eh_end_fault_edge + eh_end_budget + eh_end_program`.
///
/// These counters are *diagnostics*, not simulation state: they are
/// excluded from [`Simulator::snapshot`], [`Simulator::state_hash`] and
/// [`crate::Metrics`], and keep accumulating across
/// [`Simulator::restore`] rewinds. They are deterministic for a given
/// configuration and run, which is what lets the `fast_path` bench assert
/// its coalescing ratios without wall-clock flakiness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FastPathStats {
    /// Total simulation steps (instructions + sleep ticks), however
    /// executed.
    pub steps: u64,
    /// Steps that went through the full [`Simulator::step_one`] dispatch
    /// (one instruction or one exact sleep tick).
    pub dispatches: u64,
    /// Sleep ticks coalesced by the hibernation fast-forward.
    pub ff_ticks: u64,
    /// Fast-forwarded spans (maximal runs of coalesced ticks).
    pub ff_spans: u64,
    /// ON-state instructions coalesced by event-horizon stepping.
    pub eh_insts: u64,
    /// Event-horizon spans (maximal runs of batched instructions).
    pub eh_spans: u64,
    /// Compiler-inserted runtime ops (region boundaries, checkpoint
    /// stores) retired inside event-horizon spans; counted in `eh_insts`.
    pub eh_runtime_ops: u64,
    /// Spans ended by the worst-case energy guard (the next instruction
    /// could have dipped below the monitor or brown-out threshold).
    pub eh_end_energy: u64,
    /// Spans ended by the caller's `t_end` or a harvester segment edge.
    pub eh_end_time: u64,
    /// Spans ended in front of an attack-window edge, where the
    /// disturbance amplitude the guards assumed changes.
    pub eh_end_attack_edge: u64,
    /// Spans ended in front of an armed fault-window edge.
    pub eh_end_fault_edge: u64,
    /// Spans that retired their whole step budget: the closed-form
    /// energy horizon or the caller's step cap.
    pub eh_end_budget: u64,
    /// Spans ended by a program op: `Halt`, a store into the runtime NVM
    /// area, or a runtime op while GECKO rollback probation is pending.
    pub eh_end_program: u64,
    /// ON-state steps where no span could start (a guard bailed —
    /// including the [`ExecMode::Interpreted`] reference — the
    /// closed-form horizon was below [`MIN_ACTIVE_SPAN`], or the first
    /// instruction was not admitted), so the exact path ran instead.
    /// Always the sum of the eight `eh_refused_*` reasons below.
    pub eh_refused: u64,
    /// Refusals because the simulator runs the [`ExecMode::Interpreted`]
    /// reference.
    pub eh_refused_interpreted: u64,
    /// Refusals inside an armed fault window or with a fault pending.
    pub eh_refused_fault: u64,
    /// Refusals because the armed ADC is median-filtered.
    pub eh_refused_filtered_adc: u64,
    /// Refusals because the ADC holds a reading below `V_backup`.
    pub eh_refused_held_below_backup: u64,
    /// Refusals because the armed comparator is latched below `V_backup`.
    pub eh_refused_latched_comparator: u64,
    /// Refusals because the harvester is not constant right now.
    pub eh_refused_harvester: u64,
    /// Refusals because the closed-form energy horizon was below
    /// [`MIN_ACTIVE_SPAN`].
    pub eh_refused_short_horizon: u64,
    /// Refusals because the first instruction was not admitted (a time
    /// horizon already reached, the energy guard, a runtime op under
    /// probation, or a program op that ends every span).
    pub eh_refused_not_admitted: u64,
}

/// The per-device inputs of the event-horizon span solver, sampled at the
/// device's *current* state: how much energy the capacitor holds, the
/// energy floor the span must provably stay above, and the worst-case
/// per-instruction loss. Feeding these three numbers to
/// [`segment::safe_steps`] reproduces exactly the horizon
/// [`Simulator::advance_to_horizon`] would compute internally — which is
/// what lets [`crate::batch::DeviceBatch`] size every device's span in one
/// structure-of-arrays pass without perturbing any trajectory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanProfile {
    /// Energy stored in the capacitor right now (J).
    pub energy_j: f64,
    /// The guard floor (J): the worst-case-per-step energy the span must
    /// never dip below — `V_backup + margin + |amp|` while the monitor
    /// polls under a disturbance of amplitude `amp`, `V_off + margin`
    /// otherwise.
    pub e_guard_j: f64,
    /// Worst-case energy one instruction can cost (J): the program's
    /// costliest entry, with harvest floored at zero.
    pub worst_loss_j: f64,
}

/// The full guard set `try_advance_active` derives before entering a span.
/// Private: the public planning subset is [`SpanProfile`].
struct ActiveGuards {
    /// Whether an armed unfiltered ADC must be replayed per instruction.
    adc_polls: bool,
    /// The pinned harvester power for the span (W).
    power: f64,
    /// The disturbance amplitude (V) every in-span poll sees: constant
    /// up to the next attack-window edge, 0 outside any window.
    amp_v: f64,
    /// Simulated time the span must end strictly before (constant-power,
    /// attack-edge and fault-edge horizons, minus slack).
    t_guard: f64,
    /// Which of those horizons set `t_guard`: the reason a span reports
    /// when it stops there.
    guard_end: SpanEnd,
    /// See [`SpanProfile::e_guard_j`].
    e_guard_j: f64,
    /// See [`SpanProfile::worst_loss_j`].
    worst_loss_j: f64,
    /// Worst-case energy (J) a runtime op's scheme effect draws on top of
    /// its own step before the next monitor poll: Ratchet's register-save
    /// sequence; 0 for schemes whose runtime ops are single steps.
    commit_loss_j: f64,
    /// Simulated time (s) that same sequence adds.
    commit_s: f64,
}

/// Why no event-horizon span could start (the [`FastPathStats`]
/// `eh_refused_*` counters).
#[derive(Debug, Clone, Copy)]
enum Refusal {
    Interpreted,
    Fault,
    FilteredAdc,
    HeldBelowBackup,
    LatchedComparator,
    Harvester,
    ShortHorizon,
    NotAdmitted,
}

/// Why an event-horizon span ended (the [`FastPathStats`] `eh_end_*`
/// counters).
#[derive(Debug, Clone, Copy)]
enum SpanEnd {
    Energy,
    Time,
    AttackEdge,
    FaultEdge,
    Budget,
    Program,
}

/// The local copies an event-horizon span replays the per-step energy,
/// time and monitor bookkeeping on; they commit back to the simulator in
/// one shot when the span ends. A local of `try_advance_active`, whose
/// span kernel is inlined whole, so its scalars can stay in registers.
struct SpanMeter {
    cap: Capacitor,
    adc: AdcMonitor,
    t: f64,
    energy_nj: f64,
    forward_cycles: u64,
    overhead_cycles: u64,
    /// The harvester power the span's guards pinned.
    power: f64,
    /// Whether an armed unfiltered ADC is polled after every step.
    adc_polls: bool,
    /// The disturbance amplitude the span's guards pinned.
    amp_v: f64,
    v_max: f64,
    v_backup: f64,
    v_off: f64,
}

impl SpanMeter {
    /// [`Simulator::consume`]'s float operations, in its order, on the
    /// locals, with its `dt` and `e_nj` precomputed bit-identically
    /// ([`gecko_mcu::PEntry::dt_s`], [`gecko_mcu::PEntry::step_nj`]). The
    /// span's admission guard rules out brown-out.
    #[inline(always)]
    fn consume(&mut self, cycles: u64, dt: f64, e_nj: f64, forward: bool) {
        self.cap.charge(self.power, dt, self.v_max);
        self.energy_nj += e_nj;
        if forward {
            self.forward_cycles += cycles;
        } else {
            self.overhead_cycles += cycles;
        }
        self.t += dt;
        let alive = self.cap.discharge_j(e_nj * 1e-9);
        debug_assert!(
            alive && self.cap.voltage_v() >= self.v_off,
            "the energy guard must preclude in-span brown-out"
        );
    }

    /// Replays the per-step checkpoint poll when an ADC is armed, with the
    /// span's pinned disturbance amplitude. Held polls return the vetted
    /// held reading; fresh conversions see a voltage at least `amp + lsb`
    /// above `V_backup`, so even the tone's trough cannot quantize below
    /// it.
    #[inline]
    fn poll(&mut self) {
        if self.adc_polls {
            let cap = &self.cap;
            let r = self.adc.read_with(|| cap.voltage_v(), self.amp_v, self.t);
            debug_assert!(
                r >= self.v_backup,
                "in-span polls must not assert the checkpoint signal"
            );
        }
    }
}

/// A full capture of a [`Simulator`]'s mutable state: volatile machine
/// state, NVM, peripherals, capacitor, monitor latches and accumulated
/// metrics. Everything else a simulator holds (program, tables, cost and
/// board models, harvester, attack schedule, area base addresses) is
/// immutable after construction and therefore not captured.
///
/// [`Simulator::restore`] rewinds the *same* simulator to the captured
/// point; together with [`Simulator::snapshot`] this gives the
/// crash-consistency checker its snapshot-fork exploration primitive:
/// walk the golden trace once, fork at every step, and rewind — amortized
/// O(n) instead of O(n²) cold re-execution.
#[derive(Debug, Clone)]
pub struct SimSnapshot {
    machine: Machine,
    nvm: Nvm,
    periph: Peripherals,
    cap: Capacitor,
    adc: AdcMonitor,
    adc_filter: Option<FilteredAdcMonitor>,
    comp_backup: ComparatorMonitor,
    comp_wake: ComparatorMonitor,
    state: PowerState,
    t_s: f64,
    probe: Option<bool>,
    wake_stable: u32,
    suppressed_s: f64,
    cycles_since_boot: u64,
    pending_fault: Option<FaultEffect>,
    metrics: Metrics,
}

/// A scheme-instrumented program artifact: everything `Simulator` needs
/// that depends only on `(app, scheme, compile options)` and not on the
/// physical configuration. Compiling is the expensive part of standing up
/// a simulator, so campaign engines build one `CompiledApp` per cell and
/// share it read-only across worker threads (it is `Send + Sync` — plain
/// data, no interior mutability).
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledApp {
    /// The source application (with its data image and golden checksum).
    pub app: App,
    /// The scheme the program was instrumented for.
    pub scheme: SchemeKind,
    /// The (possibly instrumented) program the device runs.
    pub program: Program,
    /// Region table (empty for NVP).
    pub regions: RegionTable,
    /// Recovery table (empty for NVP/Ratchet).
    pub recovery: RecoveryTable,
    /// One flag per block of `program`: whether it is a loop header
    /// ([`Program::rpo_loop_headers`]). The crash-consistency checker
    /// joins drains of an artifact without regions at these blocks.
    pub loop_headers: Vec<bool>,
    /// Static compiler statistics.
    pub stats: gecko_compiler::CompileStats,
    /// The program predecoded for fast dispatch (see
    /// [`gecko_mcu::PredecodedProgram`]). Built once here, under the
    /// simulator's default cost/energy models, so every simulator forked
    /// from this artifact shares the predecoding work.
    pub pre: PredecodedProgram,
}

impl CompiledApp {
    /// Compiles `app` as `scheme` requires. `options` only affects the
    /// GECKO schemes (NVP runs the program uninstrumented, Ratchet has no
    /// tunables).
    ///
    /// # Errors
    ///
    /// Propagates compiler errors for the instrumented schemes.
    pub fn build(
        app: &App,
        scheme: SchemeKind,
        options: &CompileOptions,
    ) -> Result<CompiledApp, CompileError> {
        let (program, regions, recovery, stats) = match scheme {
            SchemeKind::Nvp => (
                app.program.clone(),
                RegionTable::default(),
                RecoveryTable::new(),
                gecko_compiler::CompileStats::default(),
            ),
            SchemeKind::Ratchet => {
                let out = compile_ratchet(&app.program)?;
                (out.program, out.regions, out.recovery, out.stats)
            }
            SchemeKind::Gecko => {
                let out = compile(&app.program, options)?;
                (out.program, out.regions, out.recovery, out.stats)
            }
            SchemeKind::GeckoNoPrune => {
                let out = compile(&app.program, &options.without_pruning())?;
                (out.program, out.regions, out.recovery, out.stats)
            }
        };
        let pre =
            PredecodedProgram::build(&program, &CostModel::default(), &EnergyModel::default());
        Ok(CompiledApp {
            app: app.clone(),
            scheme,
            loop_headers: program.rpo_loop_headers(),
            program,
            regions,
            recovery,
            stats,
            pre,
        })
    }
}

/// The simulator's view of a [`FaultSchedule`]: the armed subset of its
/// windows plus a memoized constancy interval.
///
/// [`FaultSchedule::active_at`] / [`FaultSchedule::next_edge`] re-derive
/// each window's path gain (dBm and coupling-distance math) on every
/// query, which the per-instruction fault seam cannot afford — an armed
/// but far-off window would tax every fault-free run. Arming is a pure
/// per-window property and the active model is constant between
/// consecutive armed edges, so the physics runs once per window at
/// construction and each refresh pins the answers over
/// `[from_s, until_s)`: the steady-state query is two float compares.
/// A query at any instant outside the memoized interval — including time
/// rewound by [`Simulator::restore`] — recomputes, so every answer is
/// bit-identical to the uncached schedule's.
#[derive(Debug)]
struct FaultCache {
    /// Armed `(start_s, end_s, model)` windows, in schedule order.
    armed: Vec<(f64, f64, FaultModel)>,
    /// Memoized interval start (inclusive).
    from_s: Cell<f64>,
    /// First armed edge strictly after `from_s` (exclusive memo end).
    until_s: Cell<f64>,
    /// The model active over the memoized interval.
    active: Cell<Option<FaultModel>>,
}

impl FaultCache {
    fn new(schedule: &FaultSchedule) -> FaultCache {
        FaultCache {
            armed: schedule
                .windows()
                .iter()
                .filter(|f| f.is_armed())
                .map(|f| (f.start_s, f.end_s, f.model))
                .collect(),
            // Empty interval: the first query refreshes.
            from_s: Cell::new(f64::INFINITY),
            until_s: Cell::new(f64::NEG_INFINITY),
            active: Cell::new(None),
        }
    }

    /// Recomputes the memo for the armed-edge interval containing `t_s`.
    fn refresh(&self, t_s: f64) {
        let mut active = None;
        let mut until = f64::INFINITY;
        for &(start, end, model) in &self.armed {
            if active.is_none() && t_s >= start && t_s < end {
                active = Some(model);
            }
            if start > t_s && start < until {
                until = start;
            }
            if end > t_s && end < until {
                until = end;
            }
        }
        self.from_s.set(t_s);
        self.until_s.set(until);
        self.active.set(active);
    }

    /// The armed model covering `t_s` (first armed window wins),
    /// mirroring [`FaultSchedule::active_at`].
    fn active_at(&self, t_s: f64) -> Option<FaultModel> {
        if !(t_s >= self.from_s.get() && t_s < self.until_s.get()) {
            self.refresh(t_s);
        }
        self.active.get()
    }

    /// The next armed edge strictly after `t_s`, mirroring
    /// [`FaultSchedule::next_edge`].
    fn next_edge(&self, t_s: f64) -> f64 {
        if !(t_s >= self.from_s.get() && t_s < self.until_s.get()) {
            self.refresh(t_s);
        }
        self.until_s.get()
    }
}

/// A running simulated device.
#[derive(Debug)]
pub struct Simulator {
    program: Program,
    pre: PredecodedProgram,
    regions: RegionTable,
    recovery: RecoveryTable,
    scheme: SchemeKind,

    machine: Machine,
    nvm: Nvm,
    periph: Peripherals,
    cap: Capacitor,
    thresholds: VoltageThresholds,

    device: DeviceModel,
    monitor_kind: MonitorKind,
    adc: AdcMonitor,
    adc_filter: Option<FilteredAdcMonitor>,
    comp_backup: ComparatorMonitor,
    comp_wake: ComparatorMonitor,
    attack: AttackSchedule,
    fault: FaultCache,
    harvester: Box<dyn PowerSource>,

    jit: JitArea,
    gecko: GeckoArea,
    ratchet: RatchetArea,

    cost: CostModel,
    energy: EnergyModel,

    exec_mode: ExecMode,
    fast: FastPathStats,

    app: App,
    state: PowerState,
    t_s: f64,
    /// Gecko probation: Some(signal_seen) while probing after a rollback
    /// boot, cleared at the first boundary.
    probe: Option<bool>,
    /// Consecutive positive wake samples seen while sleeping.
    wake_stable: u32,
    /// Time spent sleeping while the real supply was above `V_on` (the RTC
    /// fallback's clock).
    suppressed_s: f64,
    /// Active cycles since the last boot (volatile).
    cycles_since_boot: u64,
    /// A one-shot fault armed by the checker's point injection: consumed
    /// by the next retired instruction, ahead of any scheduled window, or
    /// dropped if the device stops executing first.
    pending_fault: Option<FaultEffect>,
    /// The compiler's static statistics (for experiment reporting).
    pub compile_stats: gecko_compiler::CompileStats,
    /// Accumulated metrics.
    pub metrics: Metrics,
}

impl Simulator {
    /// Builds a device running `app` under `config`. Compiles the app as
    /// the scheme requires; use [`Simulator::from_compiled`] to share one
    /// compilation across many simulators.
    ///
    /// # Errors
    ///
    /// Propagates compiler errors for the instrumented schemes.
    pub fn new(app: &App, config: SimConfig) -> Result<Simulator, CompileError> {
        let compiled = CompiledApp::build(app, config.scheme, &config.compile)?;
        Ok(Simulator::from_compiled(&compiled, config))
    }

    /// Builds a device from a pre-compiled artifact. Infallible: all
    /// compilation already happened in [`CompiledApp::build`].
    ///
    /// # Panics
    ///
    /// Panics if `config.scheme` disagrees with the scheme `compiled` was
    /// built for (the artifact would not match the runtime).
    pub fn from_compiled(compiled: &CompiledApp, config: SimConfig) -> Simulator {
        assert_eq!(
            config.scheme, compiled.scheme,
            "config/compiled scheme mismatch"
        );
        let app = &compiled.app;
        let (program, regions, recovery, stats) = (
            compiled.program.clone(),
            compiled.regions.clone(),
            compiled.recovery.clone(),
            compiled.stats,
        );
        let pre = compiled.pre.clone();

        let mut nvm = Nvm::new(NVM_WORDS);
        // A correct program never loads from the runtime areas; the NVM
        // counts the loads that do, which only a fault-corrupted register
        // can aim there (DESIGN.md §10).
        nvm.set_load_fence(RUNTIME_AREA_FENCE);
        for (base, words) in &app.image {
            nvm.write_image(*base, words);
        }
        let machine = Machine::new(program.entry());
        let sim = Simulator {
            machine,
            nvm,
            periph: Peripherals::new(config.seed),
            cap: Capacitor::new(
                config.capacitance_f,
                config.initial_voltage_v.unwrap_or(config.thresholds.v_max),
            ),
            thresholds: config.thresholds,
            device: config.device,
            monitor_kind: config.monitor,
            adc: AdcMonitor::default(),
            adc_filter: config
                .adc_filter_taps
                .map(|taps| FilteredAdcMonitor::new(AdcMonitor::default(), taps)),
            comp_backup: ComparatorMonitor::default(),
            comp_wake: ComparatorMonitor::default(),
            attack: config.attack,
            fault: FaultCache::new(&config.fault),
            harvester: config.harvester,
            jit: JitArea::new(NVM_WORDS - 64),
            gecko: GeckoArea::new(NVM_WORDS - 160),
            ratchet: RatchetArea::new(NVM_WORDS - 256),
            cost: CostModel::default(),
            energy: EnergyModel::default(),
            exec_mode: ExecMode::Predecoded,
            fast: FastPathStats::default(),
            app: app.clone(),
            scheme: config.scheme,
            program,
            pre,
            regions,
            recovery,
            state: PowerState::On,
            t_s: 0.0,
            probe: None,
            wake_stable: 0,
            suppressed_s: 0.0,
            cycles_since_boot: 0,
            pending_fault: None,
            compile_stats: stats,
            metrics: Metrics::default(),
        };
        let mut sim = sim;
        if sim.cap.voltage_v() >= sim.thresholds.v_on {
            sim.first_boot();
        } else {
            sim.state = PowerState::Sleeping;
            // Provisioning still happens (mode words are factory-set).
            if matches!(config.scheme, SchemeKind::Gecko | SchemeKind::GeckoNoPrune) {
                sim.gecko.set_mode(&mut sim.nvm, GeckoMode::Jit);
                let _ = sim.jit.boot_check_and_record(&mut sim.nvm);
                let _ = sim.gecko.boot_check_and_record(&mut sim.nvm);
            }
        }
        sim
    }

    /// The instrumented program the device runs.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Selects how the simulator steps. The default is
    /// [`ExecMode::Predecoded`]; both modes are bit-identical, and
    /// [`ExecMode::Interpreted`] is the step-exact reference the
    /// differential tests compare against.
    pub fn set_exec_mode(&mut self, mode: ExecMode) {
        self.exec_mode = mode;
    }

    /// Cumulative fast-path instrumentation (diagnostics only; not part of
    /// the simulation state).
    pub fn fast_path_stats(&self) -> FastPathStats {
        self.fast
    }

    /// The cycle-cost model this simulator meters with. Always the one its
    /// [`CompiledApp::pre`] was predecoded under, so the entries'
    /// precomputed step costs equal what `consume` derives.
    pub fn cost_model(&self) -> CostModel {
        self.cost
    }

    /// The energy model this simulator meters with (see
    /// [`Simulator::cost_model`]).
    pub fn energy_model(&self) -> EnergyModel {
        self.energy
    }

    /// Present simulated time (s).
    pub fn time_s(&self) -> f64 {
        self.t_s
    }

    /// Present real capacitor voltage (V).
    pub fn voltage_v(&self) -> f64 {
        self.cap.voltage_v()
    }

    /// Read-only access to main memory (for output inspection in tests).
    pub fn nvm(&self) -> &Nvm {
        &self.nvm
    }

    /// Executes exactly `n` simulation steps (instructions while on, sleep
    /// ticks while off). Fault-injection harnesses use this for precise
    /// positioning before [`Simulator::inject_power_failure`] — the
    /// landing state is bit-identical to `n` [`Simulator::step_one`]
    /// calls even when spans in between were coalesced.
    pub fn run_steps(&mut self, n: u64) -> Metrics {
        self.advance(n);
        self.metrics.sim_time_s = self.t_s;
        self.metrics
    }

    /// Advances the device by exactly one simulation step: one instruction
    /// while on, one sleep tick while hibernating. This is the single
    /// stepping primitive every run loop (and the crash-consistency
    /// checker) shares, so pacing paths cannot drift.
    pub fn step_one(&mut self) {
        self.fast.steps += 1;
        self.fast.dispatches += 1;
        match self.state {
            PowerState::On => self.on_instruction(),
            PowerState::Sleeping => self.sleep_tick(),
        }
        // Keep the reported simulated time exact at *every* step, so a
        // snapshot taken mid-run (or mid-hibernation) carries the same
        // `sim_time_s` a run-loop exit would have written.
        self.metrics.sim_time_s = self.t_s;
    }

    /// Fault injection: an instantaneous total power failure right now —
    /// volatile state is lost and the capacitor is drained to zero, exactly
    /// as if the harvester had been disconnected. Used by the
    /// crash-consistency test suite to exercise arbitrary failure points.
    pub fn inject_power_failure(&mut self) {
        self.cap.set_voltage(0.0);
        if self.state == PowerState::On {
            self.power_failure();
        }
    }

    /// Whether the device is currently executing (not hibernating).
    pub fn is_on(&self) -> bool {
        self.state == PowerState::On
    }

    /// The persisted GECKO runtime mode, for the GECKO schemes (`None`
    /// for NVP/Ratchet).
    pub fn gecko_mode(&self) -> Option<crate::areas::GeckoMode> {
        match self.scheme {
            SchemeKind::Gecko | SchemeKind::GeckoNoPrune => Some(self.gecko.mode(&self.nvm)),
            _ => None,
        }
    }

    /// Runs until `n` application completions have accumulated or
    /// `max_seconds` of device time elapse, whichever comes first.
    /// Hibernation spans are fast-forwarded when provably equivalent,
    /// unless [`ExecMode::Interpreted`] selects the step-exact reference.
    pub fn run_until_completions(&mut self, n: u64, max_seconds: f64) -> Metrics {
        let t_end = self.t_s + max_seconds;
        while self.t_s < t_end && self.metrics.completions < n {
            self.advance_to_horizon(u64::MAX, t_end);
        }
        self.metrics.sim_time_s = self.t_s;
        self.metrics
    }

    /// Runs the simulation for `seconds` of device time; returns the
    /// metrics accumulated so far (cumulative across calls). Hibernation
    /// and active-execution spans are coalesced when provably equivalent,
    /// unless [`ExecMode::Interpreted`] selects the step-exact reference.
    pub fn run_for(&mut self, seconds: f64) -> Metrics {
        let t_end = self.t_s + seconds;
        while self.t_s < t_end {
            self.advance_to_horizon(u64::MAX, t_end);
        }
        self.metrics.sim_time_s = self.t_s;
        self.metrics
    }

    /// The budget-sliceable run primitive: advances until `t_end` seconds
    /// of device time, `target_completions` completions, or `max_steps`
    /// simulation steps — whichever comes first — and returns the steps
    /// taken. Chaining calls with the same `t_end`/`target_completions`
    /// reproduces [`Simulator::run_for`] / [`Simulator::run_until_completions`]
    /// bit for bit (capping `max_steps` can only split a coalesced span —
    /// hibernation fast-forward or event-horizon batch — which is
    /// observably identical to the uncapped walk), which is what lets
    /// `gecko-fleet`'s supervisor interleave step-budget and deadline
    /// checks without perturbing results.
    pub fn run_capped(&mut self, t_end: f64, target_completions: u64, max_steps: u64) -> u64 {
        let mut done = 0u64;
        while done < max_steps && self.t_s < t_end && self.metrics.completions < target_completions
        {
            done += self.advance_to_horizon(max_steps - done, t_end);
        }
        self.metrics.sim_time_s = self.t_s;
        done
    }

    /// Advances the device by exactly `max_steps` simulation steps,
    /// observably identical to calling [`Simulator::step_one`] that many
    /// times, but coalescing spans through the fast paths when provably
    /// equivalent. Returns the number of steps taken (always `max_steps`).
    pub fn advance(&mut self, max_steps: u64) -> u64 {
        let mut done = 0u64;
        while done < max_steps {
            done += self.advance_to_horizon(max_steps - done, f64::INFINITY);
        }
        done
    }

    /// Advances the device by up to `max_steps` steps *while it stays
    /// hibernating*, stopping early the moment it wakes (without executing
    /// any ON-state instruction). Observably identical to
    /// `while !sim.is_on() && done < max_steps { sim.step_one(); done += 1 }`.
    /// This is the settle primitive the crash-consistency checker's
    /// budgeted wake loops use. Returns the number of steps taken.
    pub fn advance_sleep(&mut self, max_steps: u64) -> u64 {
        let mut done = 0u64;
        while done < max_steps && self.state == PowerState::Sleeping {
            done += self.advance_to_horizon(max_steps - done, f64::INFINITY);
        }
        done
    }

    /// The single span-stepping primitive every run loop drains through:
    /// advances by at most `max_steps` simulation steps — one coalesced
    /// span (a hibernation fast-forward or an event-horizon active batch)
    /// when a fast path can prove equivalence right now, otherwise exactly
    /// one [`Simulator::step_one`] — and returns the number of steps
    /// taken (at least 1 unless `max_steps == 0`).
    ///
    /// `t_end` bounds coalesced spans: no span runs at or past that
    /// simulated time. The single-step fallback ignores it, exactly like
    /// the loop bodies this primitive replaced — callers gate on
    /// [`Simulator::time_s`] before calling.
    pub fn advance_to_horizon(&mut self, max_steps: u64, t_end: f64) -> u64 {
        if max_steps == 0 {
            return 0;
        }
        let n = match self.state {
            PowerState::Sleeping => self.try_fast_forward(max_steps, t_end),
            PowerState::On => match self.try_advance_active(max_steps, t_end) {
                Ok(n) => n,
                Err(why) => {
                    self.count_refusal(why);
                    0
                }
            },
        };
        if n > 0 {
            return n;
        }
        self.step_one();
        1
    }

    // ----- snapshot / fork ----------------------------------------------

    /// Captures the complete mutable state of the device. Resuming after a
    /// later [`Simulator::restore`] of this snapshot is bit-identical to
    /// never having diverged (see the round-trip property test in
    /// `tests/snapshot.rs`).
    pub fn snapshot(&self) -> SimSnapshot {
        SimSnapshot {
            machine: self.machine.clone(),
            nvm: self.nvm.clone(),
            periph: self.periph.clone(),
            cap: self.cap.clone(),
            adc: self.adc.clone(),
            adc_filter: self.adc_filter.clone(),
            comp_backup: self.comp_backup.clone(),
            comp_wake: self.comp_wake.clone(),
            state: self.state,
            t_s: self.t_s,
            probe: self.probe,
            wake_stable: self.wake_stable,
            suppressed_s: self.suppressed_s,
            cycles_since_boot: self.cycles_since_boot,
            pending_fault: self.pending_fault,
            metrics: self.metrics,
        }
    }

    /// [`Simulator::snapshot`] into an existing buffer, reusing its
    /// allocations: the NVM copy costs O(pages touched by either state),
    /// so a caller that forks repeatedly keeps one buffer per fork level
    /// instead of allocating a snapshot per fork.
    pub fn snapshot_into(&self, snap: &mut SimSnapshot) {
        snap.machine.clone_from(&self.machine);
        snap.nvm.clone_from(&self.nvm);
        snap.periph.clone_from(&self.periph);
        snap.cap.clone_from(&self.cap);
        snap.adc.clone_from(&self.adc);
        snap.adc_filter.clone_from(&self.adc_filter);
        snap.comp_backup.clone_from(&self.comp_backup);
        snap.comp_wake.clone_from(&self.comp_wake);
        snap.state = self.state;
        snap.t_s = self.t_s;
        snap.probe = self.probe;
        snap.wake_stable = self.wake_stable;
        snap.suppressed_s = self.suppressed_s;
        snap.cycles_since_boot = self.cycles_since_boot;
        snap.pending_fault = self.pending_fault;
        snap.metrics = self.metrics;
    }

    /// Rewinds the device to a state previously captured by
    /// [`Simulator::snapshot`]. The snapshot must come from this simulator
    /// (or one built from the same `CompiledApp` and configuration);
    /// snapshots carry no program or configuration, only mutable state.
    pub fn restore(&mut self, snap: &SimSnapshot) {
        self.machine.clone_from(&snap.machine);
        self.nvm.clone_from(&snap.nvm);
        self.periph.clone_from(&snap.periph);
        self.cap.clone_from(&snap.cap);
        self.adc.clone_from(&snap.adc);
        self.adc_filter.clone_from(&snap.adc_filter);
        self.comp_backup.clone_from(&snap.comp_backup);
        self.comp_wake.clone_from(&snap.comp_wake);
        self.state = snap.state;
        self.t_s = snap.t_s;
        self.probe = snap.probe;
        self.wake_stable = snap.wake_stable;
        self.suppressed_s = snap.suppressed_s;
        self.cycles_since_boot = snap.cycles_since_boot;
        self.pending_fault = snap.pending_fault;
        self.metrics = snap.metrics;
    }

    /// FNV-1a hash of the device's *logical* state: registers, PC, halt
    /// flag, power state, probation flag, the full NVM image and the
    /// peripheral stream position. Two devices with equal hashes execute
    /// identically from here on under an undisturbed supply (the physical
    /// trajectory — capacitor voltage, elapsed time — affects only energy
    /// and timing metrics, never the memory outcome; see DESIGN.md §10 for
    /// the soundness argument). The checker memoizes explorations on this
    /// hash to dedupe forks that re-converge onto an already-checked
    /// resume state.
    pub fn state_hash(&self) -> u64 {
        // The fault counters fold in so fault-visible histories stay
        // distinguishable in digests built over this hash.
        let h = fnv_lane(self.volatile_hash(), self.metrics.fault_skips);
        let h = fnv_lane(h, self.metrics.fault_corruptions);
        // The NVM image, two words per lane. Only the touched pages are
        // read; each untouched (all-zero) page folds in as one multiply,
        // so the hash equals a scan of every word at a cost of O(touched
        // pages), which is what lets the checker hash at every fork.
        self.nvm.fold_fnv(h)
    }

    /// [`Simulator::state_hash`] restricted to the state the rest of a run
    /// can read if it does not boot again: the same fold, except that the
    /// runtime areas' boot-only words (the areas' `boot_only` ranges: the
    /// GECKO crossings stamp, boot record, `ON_CYCLES` and slots, the
    /// whole JIT area and Ratchet's buffers) read as zero and the
    /// write-only fault counters are left out. Writes nothing. Two states
    /// with equal drain hashes run identically up to the first boot or
    /// program load from the runtime areas; the checker joins drains on it
    /// at region commits (DESIGN.md §10). The
    /// runtime areas all live in the last NVM page, so only that page's
    /// fold differs from `state_hash`'s.
    pub fn drain_hash(&self) -> u64 {
        let [stamp, boot_record, slots] = self.gecko.boot_only();
        let boot_only = [
            stamp,
            boot_record,
            slots,
            self.jit.boot_only(),
            self.ratchet.boot_only(),
        ];
        self.nvm.fold_fnv_zeroed(self.volatile_hash(), &boot_only)
    }

    /// The FNV-1a fold of the volatile logical state both hashes start
    /// from, one 64-bit [`fnv_lane`] per field.
    fn volatile_hash(&self) -> u64 {
        let mut h = FNV_OFFSET;
        let mut eat = |word: u64| h = fnv_lane(h, word);
        for v in self.machine.regs().snapshot() {
            eat(v as u64);
        }
        let (b, i) = self.machine.pc().encode();
        eat(b as u64);
        eat(i as u64);
        eat(self.machine.is_halted() as u64);
        eat(match self.state {
            PowerState::On => 1,
            PowerState::Sleeping => 2,
        });
        eat(match self.probe {
            None => 0,
            Some(false) => 1,
            Some(true) => 2,
        });
        eat(self.periph.sense_count());
        eat(self.periph.blink_count());
        eat(self.periph.sent().len() as u64);
        // An armed one-shot fault changes what the next instruction does,
        // so two states differing only in it must not share a memo entry.
        eat(match self.pending_fault {
            None => 0,
            Some(FaultEffect::Skip) => 1,
            Some(FaultEffect::OpcodeCorrupt) => 2,
            Some(FaultEffect::OperandBitflip { bit }) => 3 + (u64::from(bit) << 2),
        });
        h
    }

    // ----- fault / EMI injection ----------------------------------------

    /// Fault injection: a spoofed *checkpoint* signal — the device reacts
    /// exactly as if its voltage monitor had (falsely) reported the supply
    /// collapsing below `V_backup` right now, which is precisely what a
    /// resonant EMI burst induces (Section V). While the JIT protocol is
    /// active the scheme checkpoints (or, for Ratchet, shuts down cleanly)
    /// and hibernates; in GECKO rollback-mode probation the spurious signal
    /// is recorded as attack evidence; otherwise (already sleeping, or
    /// rollback mode outside probation) it is ignored, as on hardware.
    pub fn inject_spoofed_checkpoint(&mut self) {
        if self.state != PowerState::On {
            return;
        }
        if self.jit_protocol_active() {
            match self.scheme {
                SchemeKind::Ratchet => self.shut_down(),
                _ => self.jit_checkpoint_and_sleep(),
            }
        } else if let Some(seen) = self.probe {
            if !seen {
                self.probe = Some(true);
            }
        }
    }

    /// Fault injection: a spoofed *wake-up* signal — the monitor (falsely)
    /// reports the supply stable above `V_on`, so a sleeping device boots
    /// immediately, bypassing the debounce. A no-op while already on.
    /// Schemes that ignore the monitor for wake (GECKO rollback mode
    /// trusts only the internal POR) are immune and also treat this as a
    /// no-op.
    pub fn inject_spoofed_wakeup(&mut self) {
        if self.state != PowerState::Sleeping || !self.uses_monitor_for_wake() {
            return;
        }
        self.wake_stable = 0;
        self.suppressed_s = 0.0;
        self.boot();
    }

    /// Fault injection: arms a one-shot EM instruction fault that the
    /// *next* retired instruction suffers ([`gecko_mcu::FaultEffect`]),
    /// taking precedence over any scheduled fault window. A no-op while
    /// hibernating — a pulse with no instruction in flight corrupts
    /// nothing — and dropped if the device shuts down (a power failure, or
    /// a checkpoint and hibernation) before its next instruction retires.
    /// This is the crash-consistency checker's point-injection
    /// primitive for the Moro-style fault kinds.
    pub fn inject_instruction_fault(&mut self, fault: FaultEffect) {
        if self.state != PowerState::On || self.machine.is_halted() {
            return;
        }
        self.pending_fault = Some(fault);
    }

    // ----- state inspection (blame reporting) ---------------------------

    /// The machine's current program counter.
    pub fn pc(&self) -> Pc {
        self.machine.pc()
    }

    /// The committed region a rollback recovery would resume from right
    /// now (`None` for NVP, which has no regions, and for Ratchet before
    /// its first boundary commit).
    pub fn committed_region(&self) -> Option<RegionId> {
        match self.scheme {
            SchemeKind::Nvp => None,
            SchemeKind::Ratchet => self.ratchet.committed(&self.nvm).map(|(region, _)| region),
            SchemeKind::Gecko | SchemeKind::GeckoNoPrune => {
                Some(self.gecko.committed_region(&self.nvm))
            }
        }
    }

    /// The PC a *valid* JIT checkpoint would restore to, if one exists.
    /// Read-only: inspects the CTPL area without consuming energy. This is
    /// how the checker names the checkpoint it blames for an NVP
    /// double-execution counterexample.
    pub fn jit_checkpoint_pc(&self) -> Option<Pc> {
        self.jit.try_restore(&self.nvm).map(|(_, pc)| pc)
    }

    // ----- power / time plumbing ---------------------------------------

    fn disturbance_amp(&self) -> f64 {
        match self.attack.active_at(self.t_s) {
            Some(a) => self
                .device
                .induced_amplitude_v(self.monitor_kind, &a.signal, a.injection),
            None => 0.0,
        }
    }

    /// Advances time by `cycles`, integrating harvest and drawing
    /// `extra_nj` on top of the per-cycle energy. Returns `false` when the
    /// capacitor hit brown-out during the interval.
    fn consume(&mut self, cycles: u64, extra_nj: f64, forward: bool) -> bool {
        let dt = self.cost.cycles_to_seconds(cycles);
        let power = self.harvester.power_w(self.t_s);
        self.cap.charge(power, dt, self.thresholds.v_max);
        let e_nj = self.energy.cycles_energy_nj(cycles) + extra_nj;
        self.metrics.energy_nj += e_nj;
        if forward {
            self.metrics.forward_cycles += cycles;
        } else {
            self.metrics.overhead_cycles += cycles;
        }
        self.cycles_since_boot += cycles;
        self.t_s += dt;
        let alive = self.cap.discharge_j(e_nj * 1e-9);
        alive && self.cap.voltage_v() >= self.thresholds.v_off
    }

    /// One ADC-path read, through the median filter when configured.
    fn adc_read(&mut self, amp: f64) -> f64 {
        let (v, t) = (self.cap.voltage_v(), self.t_s);
        match &mut self.adc_filter {
            Some(f) => f.read(v, amp, t),
            None => self.adc.read(v, amp, t),
        }
    }

    /// Whether the monitor asserts the checkpoint (power-loss) signal.
    fn monitor_says_checkpoint(&mut self) -> bool {
        let amp = self.disturbance_amp();
        match self.monitor_kind {
            MonitorKind::Adc => {
                let r = self.adc_read(amp);
                r < self.thresholds.v_backup
            }
            MonitorKind::Comparator => {
                let v = self.cap.voltage_v();
                self.comp_backup
                    .is_below(v, amp, self.thresholds.v_backup, self.t_s)
            }
        }
    }

    /// Whether the monitor asserts the wake-up signal.
    fn monitor_says_wake(&mut self) -> bool {
        let amp = self.disturbance_amp();
        match self.monitor_kind {
            MonitorKind::Adc => {
                // The sample-and-hold pipeline is load-bearing here: a
                // disturbed conversion *held* across polls is what lets an
                // attacker accumulate consecutive spoofed wake samples, so
                // the wake poll must go through the stateful `read` (the
                // fast-forward replays the identical call per skipped tick).
                let r = self.adc_read(amp);
                r >= self.thresholds.v_on
            }
            MonitorKind::Comparator => {
                let v = self.cap.voltage_v();
                !self
                    .comp_wake
                    .is_below(v, amp, self.thresholds.v_on, self.t_s)
            }
        }
    }

    // ----- sleep & boot --------------------------------------------------

    fn sleep_tick(&mut self) {
        let dt = SLEEP_TICK_S;
        let power = self.harvester.power_w(self.t_s);
        self.cap.charge(power, dt, self.thresholds.v_max);
        self.cap.discharge_j(self.energy.sleep_nw * 1e-9 * dt);
        self.t_s += dt;

        let really_charged = self.cap.voltage_v() >= self.thresholds.v_on;
        let wake_sample = if self.uses_monitor_for_wake() {
            self.monitor_says_wake()
        } else {
            really_charged
        };
        // RTC fallback clock: counts only while a wake is genuinely due.
        if really_charged {
            self.suppressed_s += dt;
        } else {
            self.suppressed_s = 0.0;
        }
        if wake_sample {
            self.wake_stable += 1;
            if self.wake_stable >= WAKE_STABLE_SAMPLES {
                self.wake_stable = 0;
                self.suppressed_s = 0.0;
                self.boot();
            }
        } else {
            self.wake_stable = 0;
            if self.suppressed_s > WAKE_FALLBACK_S {
                // LPM timer expires: wake regardless of the monitor.
                self.suppressed_s = 0.0;
                self.wake_stable = 0;
                self.boot();
            }
        }
    }

    /// Coalesces up to `max_steps` hibernation ticks, stopping before
    /// `t_end`, and returns how many ticks it committed (0 when the fast
    /// path cannot prove equivalence right now). Callers fall back to the
    /// exact per-tick `sleep_tick` on a 0 return.
    ///
    /// ## Equivalence argument
    ///
    /// A committed (non-waking) `sleep_tick` has exactly this net effect:
    /// the capacitor integrates one tick of harvest and sleep draw, time
    /// advances by one tick, and `suppressed_s`/`wake_stable` are both
    /// reset to zero — *independent of their values at entry* — because a
    /// tick that ends below `V_on` sees `really_charged == false` and a
    /// negative wake sample. So skipping a tick is sound precisely when we
    /// can prove the tick could not have woken or changed monitor state:
    ///
    /// * **Constant power** — [`PowerSource::constant_until`] guarantees
    ///   the harvester returns the exact same `power_w` for every tick
    ///   start in the span, so the replayed `charge` calls are
    ///   bit-identical to the per-tick ones.
    /// * **Sub-`V_on` span** — each candidate tick is trialled on a clone
    ///   of the capacitor; the span stops *before* any tick that would end
    ///   at or above `V_on − margin`, where `margin` covers the ADC's
    ///   worst-case round-up (`lsb + ε`; the comparator's hysteresis band
    ///   is far wider). Below that voltage a *fresh* monitor conversion
    ///   cannot read `≥ V_on`, the POR cannot fire, and the RTC-fallback
    ///   clock stays at zero.
    /// * **Monitor state replayed or untouched** — the unfiltered ADC's
    ///   sample-and-hold pipeline is stateful (and a reading held from
    ///   *before* the span can still sit at or above `V_on`), so the fast
    ///   path issues the identical `read` per skipped tick and replicates
    ///   the wake debounce on its result. The comparator is only skipped
    ///   while already latched below with no disturbance, which keeps its
    ///   latch untouched without evaluating it. A *filtered* ADC shifts
    ///   its whole median window per poll, so the fast path refuses to
    ///   engage and the exact ticks run.
    /// * **No attack** — when the monitor is consulted for wake, a
    ///   disturbance could spoof a reading *upward* across `V_on`, so the
    ///   span must end before the next attack window
    ///   ([`AttackSchedule::quiet_horizon`]). GECKO rollback-mode wake
    ///   ignores the monitor entirely and needs no quiet guard.
    ///
    /// Two ticks of slack are kept against both horizons: power is sampled
    /// at tick *start* and the monitor at tick *end*, and the slack absorbs
    /// any floating-point blur in the horizon boundaries.
    fn try_fast_forward(&mut self, max_steps: u64, t_end: f64) -> u64 {
        if self.exec_mode != ExecMode::Predecoded || self.state != PowerState::Sleeping {
            return 0;
        }
        let monitor_wake = self.uses_monitor_for_wake();
        let adc_wake = if monitor_wake {
            match self.monitor_kind {
                MonitorKind::Adc => {
                    if self.adc_filter.is_some() {
                        return 0;
                    }
                    true
                }
                MonitorKind::Comparator => {
                    if !self.comp_wake.is_latched_below() {
                        return 0;
                    }
                    false
                }
            }
        } else {
            false
        };
        let (power, power_until) = match self.harvester.constant_until(self.t_s) {
            Some(x) => x,
            None => return 0,
        };
        let quiet_until = if monitor_wake {
            match self.attack.quiet_horizon(self.t_s) {
                Some(q) => q,
                None => return 0,
            }
        } else {
            f64::INFINITY
        };

        let dt = SLEEP_TICK_S;
        let draw_j = self.energy.sleep_nw * 1e-9 * dt;
        let margin_v = self.adc.lsb_v() + 1e-9;
        let v_stop = self.thresholds.v_on - margin_v;
        if v_stop <= 0.0 {
            return 0;
        }
        let e_stop = 0.5 * self.cap.capacitance_f() * v_stop * v_stop;
        let slack = 2.0 * dt;

        // The span runs entirely on locals so the hot loop keeps its state
        // in registers instead of reloading `self` fields around the ADC
        // call; everything commits back in one shot when the span ends.
        // The locals replay the *same* operations in the *same* order a
        // per-tick walk would, so the committed trajectory is bit-identical.
        let mut cap = self.cap.clone();
        let mut t = self.t_s;
        let mut adc = self.adc.clone();
        let mut wake_stable = self.wake_stable;
        let mut woke = false;
        let mut done = 0u64;
        // Hoisted loop bound. Folding the slack into the horizons ahead of
        // time can shift each guard by at most one ulp relative to the
        // per-tick form — noise against the two-tick slack, and the guard
        // only needs to be conservative: a span that ends a tick early just
        // hands back to the exact fallback sooner.
        let t_stop = t_end.min(power_until - slack).min(quiet_until - dt - slack);
        while done < max_steps && t < t_stop {
            // Trial the tick on a copy; commit by assignment only if it
            // provably stays asleep.
            let mut trial = cap.clone();
            trial.charge(power, dt, self.thresholds.v_max);
            trial.discharge_j(draw_j);
            if trial.energy_j() >= e_stop {
                break;
            }
            cap = trial;
            t += dt;
            done += 1;
            if adc_wake {
                // Replay the exact wake poll: the conversion pipeline holds
                // readings between sample instants, and a held reading from
                // before the span can still be >= V_on, so the debounce
                // must run on the real pipeline output.
                let r = adc.read_with(|| cap.voltage_v(), 0.0, t);
                if r >= self.thresholds.v_on {
                    wake_stable += 1;
                    if wake_stable >= WAKE_STABLE_SAMPLES {
                        wake_stable = 0;
                        woke = true;
                        break;
                    }
                } else {
                    wake_stable = 0;
                }
            } else {
                // POR wake sees `really_charged == false`; the latched
                // comparator stays below without being evaluated.
                wake_stable = 0;
            }
        }
        if done > 0 {
            self.cap = cap;
            self.t_s = t;
            self.adc = adc;
            self.wake_stable = wake_stable;
            // `really_charged` was false on every committed tick, so the
            // RTC-fallback clock reset each time.
            self.suppressed_s = 0.0;
            self.fast.ff_spans += 1;
            self.fast.ff_ticks += done;
            self.fast.steps += done;
            self.metrics.sim_time_s = self.t_s;
            if woke {
                self.boot();
            }
        }
        done
    }

    /// Derives the guard set an event-horizon span would run under right
    /// now, or the [`Refusal`] of the first bail condition of the exact
    /// path that holds:
    /// the [`ExecMode::Interpreted`] reference, hibernating or halted, an
    /// armed fault window or pending fault, a filtered ADC, a held reading
    /// already below `V_backup`, a latched comparator, or a non-constant
    /// harvester. An active attack window is no bail: its amplitude raises
    /// the polled guard floor instead, so only a disturbance strong enough
    /// to reach the monitor threshold shrinks the span below
    /// [`MIN_ACTIVE_SPAN`]. This *is* `try_advance_active`'s prologue —
    /// factored out so the batch planner and the in-device coalescer
    /// cannot drift.
    fn active_span_guards(&self) -> Result<ActiveGuards, Refusal> {
        if self.exec_mode != ExecMode::Predecoded {
            return Err(Refusal::Interpreted);
        }
        if self.state != PowerState::On || self.machine.is_halted() {
            return Err(Refusal::NotAdmitted);
        }
        // Inside an armed fault window (or with a one-shot fault pending)
        // every retired instruction mutates differently than the batched
        // replay assumes: only the exact path injects.
        if self.pending_fault.is_some() || self.fault.active_at(self.t_s).is_some() {
            return Err(Refusal::Fault);
        }
        let polls = self.jit_protocol_active() || self.probe == Some(false);
        let adc_polls = if polls {
            match self.monitor_kind {
                MonitorKind::Adc => {
                    if self.adc_filter.is_some() {
                        return Err(Refusal::FilteredAdc);
                    }
                    // A reading held from before the span can already sit
                    // below V_backup; the next poll would assert the
                    // checkpoint signal, which only the exact path handles.
                    if self
                        .adc
                        .held_at(self.t_s)
                        .is_some_and(|r| r < self.thresholds.v_backup)
                    {
                        return Err(Refusal::HeldBelowBackup);
                    }
                    true
                }
                MonitorKind::Comparator => {
                    if self.comp_backup.is_latched_below() {
                        return Err(Refusal::LatchedComparator);
                    }
                    false
                }
            }
        } else {
            false
        };
        let (power, power_until) = self
            .harvester
            .constant_until(self.t_s)
            .ok_or(Refusal::Harvester)?;
        // The disturbance amplitude is constant up to the next attack-window
        // edge; the span ends before it, so every in-span poll sees `amp_v`.
        let (amp_v, attack_until) = if polls {
            (self.disturbance_amp(), self.attack.next_edge(self.t_s))
        } else {
            (0.0, f64::INFINITY)
        };

        // Worst-case per-instruction loss: the program's costliest entry
        // (harvest is floored at zero — charging only helps).
        let (worst_cycles, worst_energy_nj) = self.pre.worst_step();
        let max_dt = self.cost.cycles_to_seconds(worst_cycles);
        let worst_loss_j = worst_energy_nj * 1e-9;
        // A Ratchet boundary's register-save sequence runs between the
        // boundary step and the next poll; bound it the same way.
        let (commit_loss_j, commit_s) = match self.scheme {
            SchemeKind::Ratchet => {
                let (save, commit) = self.ratchet_commit_costs();
                let loss_j = |(cycles, extra_nj): (u64, f64)| {
                    (self.energy.cycles_energy_nj(cycles) + extra_nj) * 1e-9
                };
                (
                    Reg::COUNT as f64 * loss_j(save) + loss_j(commit),
                    self.cost
                        .cycles_to_seconds(Reg::COUNT as u64 * save.0 + commit.0),
                )
            }
            _ => (0.0, 0.0),
        };

        let margin_v = self.adc.lsb_v() + 1e-9;
        let v_guard = if polls {
            // A conversion reads at least `v - amp - lsb/2` and the
            // comparator's trough is `v - amp`: above this floor no in-span
            // poll can assert the checkpoint signal.
            self.thresholds.v_backup + margin_v + amp_v.abs()
        } else {
            self.thresholds.v_off + margin_v
        };
        let e_guard_j = 0.5 * self.cap.capacitance_f() * v_guard * v_guard;
        let slack = 2.0 * max_dt;
        // A span must end before the next armed fault-window edge: faults
        // strike executing instructions regardless of whether the monitor
        // polls, so this horizon applies even when `attack_until` does not.
        let fault_until = self.fault.next_edge(self.t_s);
        let (mut t_guard, mut guard_end) = (power_until - slack, SpanEnd::Time);
        for (until, end) in [
            (attack_until, SpanEnd::AttackEdge),
            (fault_until, SpanEnd::FaultEdge),
        ] {
            if until - slack < t_guard {
                (t_guard, guard_end) = (until - slack, end);
            }
        }
        Ok(ActiveGuards {
            adc_polls,
            power,
            amp_v,
            t_guard,
            guard_end,
            e_guard_j,
            worst_loss_j,
            commit_loss_j,
            commit_s,
        })
    }

    /// The event-horizon planner's view of this device right now: `None`
    /// when the next [`Simulator::advance_to_horizon`] call would take the
    /// exact scalar path (sleeping devices, bail conditions), otherwise
    /// the exact `(energy, floor, worst-loss)` triple whose
    /// [`segment::safe_steps`] solution equals the span the device would
    /// size for itself. [`crate::batch::DeviceBatch`] gathers one profile
    /// per device into contiguous arrays and solves them in a single pass.
    pub fn span_profile(&self) -> Option<SpanProfile> {
        self.active_span_guards().ok().map(|g| SpanProfile {
            energy_j: self.cap.energy_j(),
            e_guard_j: g.e_guard_j,
            worst_loss_j: g.worst_loss_j,
        })
    }

    /// Energy stored in the capacitor right now (J).
    pub fn energy_j(&self) -> f64 {
        self.cap.energy_j()
    }

    /// Coalesces up to `max_steps` ON-state instructions into one batched
    /// span ending strictly before `t_end`, and returns how many it
    /// committed (at least 1), or why the fast path cannot prove
    /// equivalence right now. Callers fall back to the exact
    /// per-instruction `on_instruction` on a refusal.
    ///
    /// ## Equivalence argument (DESIGN.md §13 has the full proof sketch)
    ///
    /// A per-step ON instruction does three things: execute the machine
    /// step, run `consume` (charge → account energy/cycles → advance time
    /// → discharge → brown-out check), then react to events and poll the
    /// voltage monitor when the JIT protocol (or probation) is armed. The
    /// batch is sound when every per-step reaction is provably a no-op:
    ///
    /// * **Runtime ops in-span** — an admitted `Boundary`/`Checkpoint` is
    ///   metered as overhead, executes, and [`Machine::retire_span`] hands
    ///   its event back. The span meters Ratchet's register-save sequence
    ///   on its locals (16 saves, then the commit, as the per-step path
    ///   does), applies the scheme effect through `apply_runtime_op` (the
    ///   per-step path's own checkpoint-slot write or region commit),
    ///   replays one poll, and re-enters with the same guards. None of
    ///   those effects changes the scheme state the guards assumed
    ///   (`jit_protocol_active`, probation), and the admit guards cover
    ///   the op's whole effect: Ratchet's sequence loss (`commit_loss_j`)
    ///   and time (`commit_s`) are added to the step's own worst case.
    ///   `Io` events stay in-span: the device loop ignores them.
    /// * **Span enders** — `retire_span` stops *before* executing `Halt`
    ///   and any store into the runtime NVM area ([`RUNTIME_AREA_FENCE`]);
    ///   while GECKO rollback probation is pending, every runtime op ends
    ///   the span too (the probation boundary can re-enable the JIT
    ///   protocol). All of these run on the exact path.
    /// * **No brown-out, no checkpoint signal** — the closed-form sizing
    ///   ([`segment::safe_steps`]) under the worst-case per-instruction
    ///   loss ([`PredecodedProgram::worst_step`]) bounds how many
    ///   instructions provably keep the capacitor above
    ///   `V_backup + margin + |amp|` (or `V_off + margin` when no monitor
    ///   polls), where `margin` covers the ADC's worst-case round-up
    ///   (`lsb + ε`) and drowns f64 drift, and `amp` is the pinned
    ///   disturbance (below). The admit closure re-checks the same
    ///   worst-case guard against the *live* local capacitor before
    ///   every instruction, so the closed form only sizes the span —
    ///   admission is exact.
    /// * **Monitor state replayed or untouched** — an armed unfiltered
    ///   ADC is replayed per instruction on a local clone (conversions
    ///   are rare thanks to the sample-and-hold pipeline; held readings
    ///   below `V_backup` bail at entry, and in-span conversions replay
    ///   the pinned disturbance on a voltage above the guard, hence
    ///   provably `>= V_backup`). An armed comparator whose trough
    ///   `v - |amp|` stays above `V_backup + margin` can neither latch
    ///   nor release, so skipping its evaluation leaves identical state;
    ///   a latched one bails. A filtered ADC always bails (each poll
    ///   shifts its median window).
    /// * **Constant disturbance** — when the monitor polls, the span ends
    ///   two worst-case steps before the next attack-window edge
    ///   ([`AttackSchedule::next_edge`]), so every replayed poll sees the
    ///   amplitude `amp` pinned at entry (0 outside any window), and the
    ///   guard floor is raised by `|amp|`: `V_backup + margin + |amp|`.
    ///   A conversion then reads at least `v - |amp| - lsb/2 > V_backup`,
    ///   and the comparator's trough stays above its threshold. A
    ///   resonant disturbance lifts the floor above the capacitor, the
    ///   closed-form horizon drops below [`MIN_ACTIVE_SPAN`], and the
    ///   exact path runs.
    /// * **Constant harvest** — [`PowerSource::constant_until`] pins the
    ///   harvester power for the whole span (minus the same slack), so
    ///   each replayed `charge` is bit-identical to the per-step one.
    ///
    /// The span runs `consume`'s float operations in the same order on
    /// local copies and commits in one shot, so the committed trajectory
    /// is bit-identical to per-step execution — there is no "closed-form
    /// energy jump" to reconcile. Each step's `dt` and drawn energy come
    /// precomputed from its [`gecko_mcu::PEntry`] (bit-equal to what `consume`
    /// derives); [`Machine::retire_span`] is inlined here, so the meter,
    /// the guard scalars and the PC stay in registers for the whole span.
    fn try_advance_active(&mut self, max_steps: u64, t_end: f64) -> Result<u64, Refusal> {
        let ActiveGuards {
            adc_polls,
            power,
            amp_v,
            t_guard,
            guard_end,
            e_guard_j: e_guard,
            worst_loss_j,
            commit_loss_j,
            commit_s,
        } = self.active_span_guards()?;
        let horizon = segment::safe_steps(self.cap.energy_j(), e_guard, worst_loss_j);
        if horizon < MIN_ACTIVE_SPAN {
            return Err(Refusal::ShortHorizon);
        }
        // The admit closure's own first checks, hoisted: the first
        // instruction could not be admitted.
        if !(self.t_s < t_end && self.t_s < t_guard) {
            return Err(Refusal::NotAdmitted);
        }

        let budget = horizon.min(max_steps);
        // Probation resolves at the first boundary and may re-enable the
        // JIT protocol, changing whether the monitor polls: while it is
        // pending, runtime ops end the span and run on the exact path.
        let probation = self.probe.is_some();
        // Ratchet's save and commit steps as `(cycles, dt, e_nj)`.
        let (save, commit) = {
            let (save, commit) = self.ratchet_commit_costs();
            let step = |(cycles, extra_nj): (u64, f64)| {
                (
                    cycles,
                    self.cost.cycles_to_seconds(cycles),
                    self.energy.cycles_energy_nj(cycles) + extra_nj,
                )
            };
            (step(save), step(commit))
        };
        let mut meter = SpanMeter {
            cap: self.cap.clone(),
            adc: self.adc.clone(),
            t: self.t_s,
            energy_nj: self.metrics.energy_nj,
            forward_cycles: 0,
            overhead_cycles: 0,
            power,
            adc_polls,
            amp_v,
            v_max: self.thresholds.v_max,
            v_backup: self.thresholds.v_backup,
            v_off: self.thresholds.v_off,
        };
        let mut done = 0u64;
        let end = loop {
            let mut refused = None;
            let (n, op) = self.machine.retire_span(
                &self.pre,
                &mut self.nvm,
                &mut self.periph,
                budget - done,
                RUNTIME_AREA_FENCE,
                |entry, overhead| {
                    // The reference loop-head conditions, checked before
                    // the instruction executes: the time horizons and the
                    // exact worst-case energy guard on the live local
                    // capacitor. A runtime op's whole effect must fit:
                    // Ratchet's register-save sequence runs before the
                    // next poll.
                    if meter.t >= t_end {
                        refused = Some(SpanEnd::Time);
                        return false;
                    }
                    if meter.t >= t_guard {
                        refused = Some(guard_end);
                        return false;
                    }
                    let mut loss_j = worst_loss_j;
                    if overhead {
                        if probation {
                            refused = Some(SpanEnd::Program);
                            return false;
                        }
                        if meter.t + commit_s >= t_guard {
                            refused = Some(guard_end);
                            return false;
                        }
                        loss_j += commit_loss_j;
                    }
                    if meter.cap.energy_j() - loss_j < e_guard {
                        refused = Some(SpanEnd::Energy);
                        return false;
                    }
                    meter.consume(entry.cycles, entry.dt_s, entry.step_nj, !overhead);
                    // A runtime op polls after its scheme effect, below.
                    if !overhead {
                        meter.poll();
                    }
                    true
                },
            );
            done += n;
            let Some(event) = op else {
                break refused.unwrap_or(if done == budget {
                    SpanEnd::Budget
                } else {
                    SpanEnd::Program
                });
            };
            // The op executed: apply its scheme effect exactly as the
            // per-step path does, metering Ratchet's register-save
            // sequence on the locals, then poll once.
            self.fast.eh_runtime_ops += 1;
            if let (SchemeKind::Ratchet, StepEvent::Boundary(_)) = (self.scheme, event) {
                for _ in 0..Reg::COUNT {
                    meter.consume(save.0, save.1, save.2, false);
                }
                meter.consume(commit.0, commit.1, commit.2, false);
            }
            self.apply_runtime_op(event, false);
            meter.poll();
            if done == budget {
                break SpanEnd::Budget;
            }
        };
        if done == 0 {
            return Err(Refusal::NotAdmitted);
        }
        self.cap = meter.cap;
        self.adc = meter.adc;
        self.t_s = meter.t;
        self.metrics.energy_nj = meter.energy_nj;
        self.metrics.forward_cycles += meter.forward_cycles;
        self.metrics.overhead_cycles += meter.overhead_cycles;
        self.cycles_since_boot += meter.forward_cycles + meter.overhead_cycles;
        self.metrics.sim_time_s = self.t_s;
        self.fast.steps += done;
        self.fast.eh_insts += done;
        self.fast.eh_spans += 1;
        match end {
            SpanEnd::Energy => self.fast.eh_end_energy += 1,
            SpanEnd::Time => self.fast.eh_end_time += 1,
            SpanEnd::AttackEdge => self.fast.eh_end_attack_edge += 1,
            SpanEnd::FaultEdge => self.fast.eh_end_fault_edge += 1,
            SpanEnd::Budget => self.fast.eh_end_budget += 1,
            SpanEnd::Program => self.fast.eh_end_program += 1,
        }
        Ok(done)
    }

    /// Counts one ON-state step that no event-horizon span could take.
    fn count_refusal(&mut self, why: Refusal) {
        let f = &mut self.fast;
        f.eh_refused += 1;
        *match why {
            Refusal::Interpreted => &mut f.eh_refused_interpreted,
            Refusal::Fault => &mut f.eh_refused_fault,
            Refusal::FilteredAdc => &mut f.eh_refused_filtered_adc,
            Refusal::HeldBelowBackup => &mut f.eh_refused_held_below_backup,
            Refusal::LatchedComparator => &mut f.eh_refused_latched_comparator,
            Refusal::Harvester => &mut f.eh_refused_harvester,
            Refusal::ShortHorizon => &mut f.eh_refused_short_horizon,
            Refusal::NotAdmitted => &mut f.eh_refused_not_admitted,
        } += 1;
    }

    /// The per-instruction Ratchet boundary costs as `(cycles, extra_nj)`
    /// consumes: one register save into the inactive buffer (paid
    /// `Reg::COUNT` times), then the index load + flip + packed commit
    /// store. The per-step path and event-horizon spans both meter from
    /// here, and the span guards bound from here, so all three agree.
    fn ratchet_commit_costs(&self) -> ((u64, f64), (u64, f64)) {
        let extra_nj = self.energy.nvm_write_extra_nj;
        (
            (self.cost.checkpoint, extra_nj),
            (
                self.cost.load + self.cost.alu + self.cost.boundary,
                extra_nj,
            ),
        )
    }

    fn uses_monitor_for_wake(&self) -> bool {
        match self.scheme {
            SchemeKind::Nvp | SchemeKind::Ratchet => true,
            SchemeKind::Gecko | SchemeKind::GeckoNoPrune => {
                // Rollback mode trusts only the internal POR.
                self.gecko.mode(&self.nvm) != GeckoMode::Rollback
            }
        }
    }

    fn first_boot(&mut self) {
        // Fresh device: initialize runtime areas without counting a reboot.
        match self.scheme {
            SchemeKind::Nvp => {}
            SchemeKind::Ratchet => {}
            SchemeKind::Gecko | SchemeKind::GeckoNoPrune => {
                self.gecko.set_mode(&mut self.nvm, GeckoMode::Jit);
                let _ = self.jit.boot_check_and_record(&mut self.nvm);
                let _ = self.gecko.boot_check_and_record(&mut self.nvm);
            }
        }
        self.state = PowerState::On;
    }

    fn boot(&mut self) {
        self.metrics.reboots += 1;
        self.cycles_since_boot = 0;
        self.adc.reset();
        if let Some(f) = &mut self.adc_filter {
            f.reset();
        }
        self.comp_backup.reset();
        self.comp_wake.reset();
        if !self.consume(REBOOT_CYCLES, 0.0, false) {
            self.state = PowerState::Sleeping;
            return;
        }
        // Unfinished application-restart reload?
        if self.gecko.reload_pending(&self.nvm) {
            self.do_reload();
            self.gecko.set_reload_pending(&mut self.nvm, false);
        }
        match self.scheme {
            SchemeKind::Nvp => self.boot_nvp(),
            SchemeKind::Ratchet => self.boot_ratchet(),
            SchemeKind::Gecko | SchemeKind::GeckoNoPrune => self.boot_gecko(),
        }
        self.state = PowerState::On;
    }

    fn boot_nvp(&mut self) {
        if let Some((regs, pc)) = self.jit.try_restore(&self.nvm) {
            self.machine.regs_mut().restore(regs);
            self.machine.set_pc(pc);
            let restore =
                JitArea::restore_cycles(&self.cost) + CTPL_STATE_WORDS as u64 * self.cost.load;
            let _ = self.consume(restore, 0.0, false);
        } else {
            // Corrupted or absent checkpoint: cold restart of the program
            // (the device has no way to reconstruct its progress).
            self.machine = Machine::new(self.program.entry());
        }
    }

    fn boot_ratchet(&mut self) {
        match self.ratchet.committed(&self.nvm) {
            Some((region, buf)) => {
                let regs = self.ratchet.read_regs(&self.nvm, buf);
                self.machine.regs_mut().restore(regs);
                self.rollback_to(region);
                let _ = self.consume(
                    gecko_compiler::ratchet::ratchet_restore_cycles(&self.cost),
                    0.0,
                    false,
                );
            }
            None => self.machine = Machine::new(self.program.entry()),
        }
    }

    fn boot_gecko(&mut self) {
        let repeat = self.gecko.boot_check_and_record(&mut self.nvm);
        let _ = self.consume(30, 0.0, false);
        match self.gecko.mode(&self.nvm) {
            GeckoMode::Fresh => {
                self.gecko.set_mode(&mut self.nvm, GeckoMode::Jit);
                let _ = self.jit.boot_check_and_record(&mut self.nvm);
                self.machine = Machine::new(self.program.entry());
            }
            GeckoMode::Jit => {
                let ack_alarm = self.jit.boot_check_and_record(&mut self.nvm);
                // Minimum-power-on-period check (Section VI-A): the WCET
                // analysis sized regions against the guaranteed power-on
                // period; a monitor-reported outage arriving far sooner
                // can only be spoofed.
                let too_soon = self
                    .gecko
                    .take_on_cycles(&mut self.nvm)
                    .is_some_and(|c| c < MIN_ON_PERIOD_CYCLES);
                if ack_alarm || repeat || too_soon {
                    // Attack detected: close the surface and roll back.
                    self.metrics.attack_detections += 1;
                    self.gecko.set_mode(&mut self.nvm, GeckoMode::Rollback);
                    self.jit.invalidate(&mut self.nvm);
                    self.gecko_rollback_restore();
                    self.probe = None;
                } else if let Some((regs, pc)) = self.jit.try_restore(&self.nvm) {
                    self.machine.regs_mut().restore(regs);
                    self.machine.set_pc(pc);
                    let restore = JitArea::restore_cycles(&self.cost)
                        + CTPL_STATE_WORDS as u64 * self.cost.load;
                    let _ = self.consume(restore, 0.0, false);
                } else {
                    self.gecko_rollback_restore();
                }
            }
            GeckoMode::Rollback => {
                self.gecko_rollback_restore();
                // Probation: watch the monitor during the first region.
                self.probe = Some(false);
            }
        }
    }

    fn gecko_rollback_restore(&mut self) {
        let region = self.gecko.committed_region(&self.nvm);
        let lookup = self.recovery.lookup_cost_insts() as u64;
        let _ = self.consume(lookup * self.cost.alu, 0.0, false);
        let actions: Vec<RestoreAction> = self.recovery.actions(region).to_vec();
        let mut slices = 0u64;
        for action in &actions {
            match action {
                RestoreAction::FromSlot { reg, slot } => {
                    let v = self.gecko.read_slot(&self.nvm, *reg, *slot);
                    self.machine.regs_mut().set(*reg, v);
                    let _ = self.consume(self.cost.load, 0.0, false);
                }
                RestoreAction::Recompute { reg, slice } => {
                    slices += 1;
                    // Scratch context seeded with the restored-so-far file.
                    let mut scratch = *self.machine.regs();
                    for inst in slice {
                        let cycles = self.cost.inst_cycles(inst);
                        let _ = self.consume(cycles, 0.0, false);
                        exec_slice_inst(inst, &mut scratch, &mut self.nvm);
                    }
                    let v = scratch.get(*reg);
                    self.machine.regs_mut().set(*reg, v);
                }
            }
        }
        self.metrics.recovery_slices += slices;
        self.metrics.rollbacks += 1;
        self.rollback_to(region);
    }

    fn rollback_to(&mut self, region: RegionId) {
        let (block, index) = match self.regions.get(region) {
            Some(info) => info.resume_point(),
            None => (self.program.entry(), 0),
        };
        self.machine.set_pc(Pc { block, index });
    }

    // ----- ON-state execution -------------------------------------------

    /// The fault the instruction about to retire suffers, if any: a
    /// checker-armed one-shot first, then the scheduled windows.
    fn fault_in_flight(&mut self) -> Option<FaultEffect> {
        if let Some(f) = self.pending_fault.take() {
            return Some(f);
        }
        self.fault.active_at(self.t_s).map(|m| match m {
            FaultModel::Skip => FaultEffect::Skip,
            FaultModel::OpcodeCorrupt => FaultEffect::OpcodeCorrupt,
            FaultModel::OperandBitflip { bit } => FaultEffect::OperandBitflip { bit },
        })
    }

    fn on_instruction(&mut self) {
        let out = match self.fault_in_flight() {
            Some(fault) => {
                match fault {
                    FaultEffect::Skip => self.metrics.fault_skips += 1,
                    FaultEffect::OpcodeCorrupt | FaultEffect::OperandBitflip { .. } => {
                        self.metrics.fault_corruptions += 1
                    }
                }
                // Both dispatch modes inject through the one predecoded
                // fault seam: predecoding is a pure re-encoding with
                // identical per-entry costs, so the two modes stay
                // bit-identical under faults too.
                self.machine
                    .step_faulted(&self.pre, &mut self.nvm, &mut self.periph, fault)
            }
            None => match self.exec_mode {
                ExecMode::Predecoded => {
                    self.machine
                        .step_predecoded(&self.pre, &mut self.nvm, &mut self.periph)
                }
                ExecMode::Interpreted => self.machine.step(
                    &self.program,
                    &self.cost,
                    &self.energy,
                    &mut self.nvm,
                    &mut self.periph,
                ),
            },
        };
        debug_assert!(
            self.nvm.fenced_load_count() == 0
                || self.metrics.fault_skips + self.metrics.fault_corruptions > 0,
            "a program load reached the runtime areas with no EM fault in the run"
        );
        let is_overhead = matches!(
            out.event,
            Some(StepEvent::Boundary(_)) | Some(StepEvent::Checkpoint { .. })
        );
        let extra = out.energy_nj - self.energy.cycles_energy_nj(out.cycles);
        if !self.consume(out.cycles, extra.max(0.0), !is_overhead) {
            self.power_failure();
            return;
        }

        match out.event {
            Some(StepEvent::Halted) => {
                self.complete_run();
                return;
            }
            Some(event) => self.apply_runtime_op(event, true),
            None => {}
        }
        if self.state != PowerState::On {
            return;
        }

        // Monitor-driven JIT / sleep logic.
        if self.jit_protocol_active() {
            if self.monitor_says_checkpoint() {
                match self.scheme {
                    SchemeKind::Nvp => self.jit_checkpoint_and_sleep(),
                    // Clean shutdown: boundary state is already durable.
                    SchemeKind::Ratchet => self.shut_down(),
                    SchemeKind::Gecko | SchemeKind::GeckoNoPrune => self.jit_checkpoint_and_sleep(),
                }
            }
        } else if let Some(seen) = self.probe {
            // Rollback-mode probation: a checkpoint signal right after boot
            // (capacitor full) can only be spoofed.
            if !seen && self.monitor_says_checkpoint() {
                self.probe = Some(true);
            }
        }
    }

    fn jit_protocol_active(&self) -> bool {
        match self.scheme {
            SchemeKind::Nvp | SchemeKind::Ratchet => true,
            SchemeKind::Gecko | SchemeKind::GeckoNoPrune => {
                self.gecko.mode(&self.nvm) == GeckoMode::Jit
            }
        }
    }

    /// Applies a runtime op's scheme effect: a checkpoint-slot write, or a
    /// region commit (with Ratchet's register save and GECKO's probation
    /// resolution). The per-step path and event-horizon spans both apply
    /// runtime ops through here.
    ///
    /// `meter` says whether to meter Ratchet's register-save sequence
    /// here. The per-step path does, save by save, so a brown-out
    /// mid-sequence leaves exactly the partial buffer the hardware would.
    /// A span has already replayed the same consumes
    /// ([`Simulator::ratchet_commit_costs`]) on its locals, and its
    /// admission proved they cannot brown out.
    fn apply_runtime_op(&mut self, event: StepEvent, meter: bool) {
        let region = match event {
            StepEvent::Boundary(region) => region,
            StepEvent::Checkpoint { reg, value, slot } => {
                self.metrics.checkpoint_stores += 1;
                self.gecko.write_slot(&mut self.nvm, reg, slot, value);
                return;
            }
            StepEvent::Io(_) | StepEvent::Halted => return,
        };
        self.metrics.boundary_commits += 1;
        match self.scheme {
            SchemeKind::Nvp => {}
            SchemeKind::Ratchet => {
                // Centralized checkpoint: 16 registers into the inactive
                // buffer, then the atomic commit word.
                let ((save_cycles, save_nj), (commit_cycles, commit_nj)) =
                    self.ratchet_commit_costs();
                let buf = self.ratchet.write_buffer(&self.nvm);
                let snapshot = self.machine.regs().snapshot();
                for r in Reg::all() {
                    if meter && !self.consume(save_cycles, save_nj, false) {
                        self.power_failure();
                        return;
                    }
                    self.ratchet
                        .write_reg(&mut self.nvm, buf, r, snapshot[r.index()]);
                }
                // Index load + flip + packed commit store.
                if meter && !self.consume(commit_cycles, commit_nj, false) {
                    self.power_failure();
                    return;
                }
                self.ratchet.commit(&mut self.nvm, region, buf);
            }
            SchemeKind::Gecko | SchemeKind::GeckoNoPrune => {
                self.gecko.commit_region(&mut self.nvm, region);
                // Probation resolves at the first boundary after boot.
                if let Some(signal_seen) = self.probe.take() {
                    if !signal_seen {
                        self.gecko.set_mode(&mut self.nvm, GeckoMode::Jit);
                        let _ = self.jit.boot_check_and_record(&mut self.nvm);
                        self.metrics.jit_reenables += 1;
                    }
                }
            }
        }
    }

    fn jit_checkpoint_and_sleep(&mut self) {
        self.metrics.jit_checkpoints += 1;
        // CTPL saves the full volatile footprint (SRAM + peripheral state)
        // before the register file; metered in chunks so the capacitor can
        // run dry mid-way — the checkpoint-failure pathology.
        let chunk = 64u64;
        let mut remaining = CTPL_STATE_WORDS as u64;
        while remaining > 0 {
            let n = remaining.min(chunk);
            if !self.consume(
                self.cost.store * n,
                self.energy.nvm_write_extra_nj * n as f64,
                false,
            ) {
                self.metrics.jit_checkpoint_failures += 1;
                self.power_failure();
                return;
            }
            remaining -= n;
        }
        if matches!(self.scheme, SchemeKind::Gecko | SchemeKind::GeckoNoPrune) {
            // One extra payload word: how long this power-on period lasted
            // (the minimum-on-period detector's evidence).
            self.gecko
                .record_on_cycles(&mut self.nvm, self.cycles_since_boot);
        }
        let regs = self.machine.regs().snapshot();
        let pc = self.machine.pc();
        let mut writer = self.jit.begin_checkpoint(regs, pc, &mut self.nvm);
        while !writer.is_done() {
            if !self.consume(self.cost.store, self.energy.nvm_write_extra_nj, false) {
                // Energy exhausted mid-checkpoint: checkpoint failure.
                self.metrics.jit_checkpoint_failures += 1;
                self.power_failure();
                return;
            }
            writer.write_next(&mut self.nvm);
        }
        self.shut_down();
    }

    fn power_failure(&mut self) {
        self.metrics.dirty_deaths += 1;
        self.shut_down();
        self.probe = None;
        self.suppressed_s = 0.0;
    }

    /// Stops executing: volatile state is lost and the device hibernates.
    /// A one-shot fault the checker armed dies with the instruction it was
    /// aimed at; it must not land on the first instruction after reboot.
    fn shut_down(&mut self) {
        self.machine.power_fail(self.program.entry());
        self.pending_fault = None;
        self.wake_stable = 0;
        self.state = PowerState::Sleeping;
    }

    fn complete_run(&mut self) {
        // Order matters for crash consistency of the restart protocol —
        // see the module docs of `areas`.
        match self.scheme {
            SchemeKind::Nvp => self.jit.invalidate(&mut self.nvm),
            SchemeKind::Ratchet => self.ratchet.invalidate(&mut self.nvm),
            SchemeKind::Gecko | SchemeKind::GeckoNoPrune => {
                self.gecko.commit_region(&mut self.nvm, RegionId::new(0));
            }
        }
        self.gecko.set_reload_pending(&mut self.nvm, true);
        if !self.consume(RESTART_CYCLES, 2.0 * self.energy.nvm_write_extra_nj, false) {
            self.power_failure();
            return;
        }
        // Read the output before the reload clobbers anything.
        let got = self.nvm.read(self.app.checksum_addr);
        self.metrics.completions += 1;
        if got != self.app.expected_checksum {
            self.metrics.checksum_errors += 1;
        }
        if !self.do_reload() {
            return;
        }
        self.gecko.set_reload_pending(&mut self.nvm, false);
        self.machine = Machine::new(self.program.entry());
    }

    /// Rewrites the application's data image (the restart prologue).
    /// Returns `false` if power failed mid-reload.
    fn do_reload(&mut self) -> bool {
        let image = self.app.image.clone();
        for (base, words) in &image {
            let cycles = self.cost.store * words.len() as u64;
            let extra = self.energy.nvm_write_extra_nj * words.len() as f64;
            self.nvm.write_image(*base, words);
            if !self.consume(cycles, extra, false) {
                self.power_failure();
                return false;
            }
        }
        true
    }
}

/// Executes one recovery-block instruction against a scratch register file.
/// Recovery slices contain only moves, ALU ops and read-only loads.
fn exec_slice_inst(inst: &gecko_isa::Inst, regs: &mut gecko_mcu::RegFile, nvm: &mut Nvm) {
    use gecko_isa::{Inst, Operand};
    match *inst {
        Inst::Mov { dst, src } => {
            let v = match src {
                Operand::Reg(r) => regs.get(r),
                Operand::Imm(v) => v,
            };
            regs.set(dst, v);
        }
        Inst::Bin { op, dst, lhs, rhs } => {
            let l = regs.get(lhs);
            let r = match rhs {
                Operand::Reg(r) => regs.get(r),
                Operand::Imm(v) => v,
            };
            regs.set(dst, op.eval(l, r));
        }
        Inst::Load { dst, base, off } => {
            let addr = (regs.get(base).wrapping_add(off)) as u32;
            let v = nvm.load(addr);
            regs.set(dst, v);
        }
        ref other => unreachable!("recovery slices never contain {other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gecko_emi::{AttackSchedule, EmiSignal, Injection};

    fn app() -> gecko_apps::App {
        gecko_apps::app_by_name("blink").expect("bundled app")
    }

    #[test]
    fn bench_supply_keeps_the_rail_up() {
        let mut sim = Simulator::new(&app(), SimConfig::bench_supply(SchemeKind::Nvp)).unwrap();
        let m = sim.run_for(0.05);
        assert!(sim.voltage_v() > 3.2, "{}", sim.voltage_v());
        assert_eq!(m.dirty_deaths, 0);
        assert!(m.completions > 0);
    }

    #[test]
    fn weak_harvester_duty_cycles() {
        let mut sim = Simulator::new(&app(), SimConfig::harvesting(SchemeKind::Nvp)).unwrap();
        let m = sim.run_for(6.0);
        assert!(m.jit_checkpoints >= 1, "{m:?}");
        assert!(m.reboots >= 1, "{m:?}");
        assert_eq!(m.jit_checkpoint_failures, 0, "{m:?}");
    }

    #[test]
    fn empty_capacitor_boots_only_after_charging() {
        let cfg = SimConfig::harvesting(SchemeKind::Gecko).with_capacitor(1e-3, 0.0);
        let mut sim = Simulator::new(&app(), cfg).unwrap();
        assert!(!sim.is_on(), "starts hibernating");
        // ~4.5 mJ to V_on at 1.2 mW needs seconds.
        let m = sim.run_for(1.0);
        assert_eq!(m.completions, 0, "still charging: {m:?}");
        let m = sim.run_for(6.0);
        assert!(m.completions > 0, "eventually boots and runs: {m:?}");
    }

    #[test]
    fn injected_failure_wipes_volatile_state_and_recovers() {
        let mut sim = Simulator::new(&app(), SimConfig::bench_supply(SchemeKind::Gecko)).unwrap();
        let before = sim.run_steps(500);
        sim.inject_power_failure();
        assert!(!sim.is_on());
        let m = sim.run_until_completions(before.completions + 2, 10.0);
        assert!(m.completions >= before.completions + 2, "{m:?}");
        assert_eq!(m.checksum_errors, 0, "{m:?}");
        assert!(m.reboots > 0, "{m:?}");
        assert!(m.rollbacks > 0, "{m:?}");
    }

    #[test]
    fn gecko_mode_survives_in_nvm_across_failures() {
        let attack = AttackSchedule::continuous(
            EmiSignal::new(27e6, 35.0),
            Injection::Remote { distance_m: 5.0 },
        );
        let cfg = SimConfig::bench_supply(SchemeKind::Gecko).with_attack(attack);
        let mut sim = Simulator::new(&app(), cfg).unwrap();
        let m = sim.run_for(0.3);
        assert!(m.attack_detections >= 1, "{m:?}");
        // The mode word lives in NVM: wipe volatile state, the device must
        // come back still distrusting the monitor (no fresh detection storm
        // of checkpoints).
        sim.inject_power_failure();
        let before = sim.metrics.jit_checkpoints;
        let m = sim.run_for(0.2);
        assert!(
            m.jit_checkpoints <= before + 2,
            "rollback mode persisted across the failure: {m:?}"
        );
    }

    #[test]
    fn adc_filter_slows_spoofed_checkpoint_storms() {
        let attack = AttackSchedule::continuous(
            EmiSignal::new(29.5e6, 35.0), // detuned: partial disturbance
            Injection::Remote { distance_m: 5.0 },
        );
        let mut raw_cfg = SimConfig::bench_supply(SchemeKind::Nvp).with_attack(attack.clone());
        raw_cfg.adc_filter_taps = None;
        let mut filt_cfg = SimConfig::bench_supply(SchemeKind::Nvp).with_attack(attack);
        filt_cfg.adc_filter_taps = Some(7);
        let mut raw = Simulator::new(&app(), raw_cfg).unwrap();
        let mut filt = Simulator::new(&app(), filt_cfg).unwrap();
        let mr = raw.run_for(0.15);
        let mf = filt.run_for(0.15);
        assert!(
            mf.forward_cycles > mr.forward_cycles,
            "the filter wins back forward progress against a detuned tone: \
             filtered {} vs raw {}",
            mf.forward_cycles,
            mr.forward_cycles
        );
    }

    #[test]
    fn run_for_is_equivalent_to_run_steps_pacing() {
        let mut a = Simulator::new(&app(), SimConfig::bench_supply(SchemeKind::Gecko)).unwrap();
        let mut b = Simulator::new(&app(), SimConfig::bench_supply(SchemeKind::Gecko)).unwrap();
        let ma = a.run_for(0.02);
        // Step b until it reaches (at least) the same sim time, one step at
        // a time so the two trajectories align exactly.
        while b.time_s() < a.time_s() {
            b.run_steps(1);
        }
        let mb = b.run_steps(0);
        assert_eq!(ma.completions, mb.completions);
        assert_eq!(ma.forward_cycles, mb.forward_cycles);
        assert_eq!(ma.checksum_errors, 0);
        assert_eq!(mb.checksum_errors, 0);
    }

    /// A load/add/store loop on one NVM counter with no I/O and no
    /// multiply or divide: Ratchet puts a boundary in every iteration, and
    /// the program's worst-case step (a store) costs far less than one
    /// boundary's register-save sequence.
    fn war_loop_app() -> App {
        use gecko_isa::{BinOp, Cond, ProgramBuilder};
        const ITERATIONS: i32 = 100_000;
        let mut b = ProgramBuilder::new("warloop");
        let out = b.segment("out", 2, true);
        let (i, acc, base) = (Reg::R1, Reg::R2, Reg::R3);
        b.mov(base, out as i32);
        b.mov(i, 0);
        b.store(i, base, 1);
        let head = b.new_label("head");
        let body = b.new_label("body");
        let exit = b.new_label("exit");
        b.bind(head);
        b.set_loop_bound(ITERATIONS as u32);
        b.branch(Cond::Lt, i, ITERATIONS, body, exit);
        b.bind(body);
        b.load(acc, base, 1);
        b.bin(BinOp::Add, acc, acc, 1);
        b.store(acc, base, 1);
        b.bin(BinOp::Add, i, i, 1);
        b.jump(head);
        b.bind(exit);
        b.load(acc, base, 1);
        b.store(acc, base, 0);
        b.halt();
        App {
            name: "warloop",
            program: b.finish().expect("warloop builds"),
            image: vec![],
            checksum_addr: out,
            expected_checksum: ITERATIONS,
        }
    }

    fn next_op(sim: &Simulator) -> gecko_mcu::POp {
        let pc = sim.machine.pc();
        sim.pre.entry(pc.block, pc.index).op
    }

    #[test]
    fn ratchet_boundary_beyond_the_sequence_guard_is_declined_then_exact() {
        // Reach a Ratchet boundary with energy covering one worst-case
        // step above the guard but not the register-save sequence on top:
        // the span must retire the plain steps before it, decline the
        // boundary, and leave it to the exact path.
        const LEAD: u64 = 3;
        let app = war_loop_app();
        let build = || {
            // No harvest: energy only falls, by exactly what each step
            // draws.
            let mut cfg = SimConfig::harvesting(SchemeKind::Ratchet);
            cfg.harvester = Box::new(ConstantPower::new(0.0));
            cfg
        };
        let exact_sim = || {
            let mut sim = Simulator::new(&app, build()).unwrap();
            sim.set_exec_mode(ExecMode::Interpreted);
            sim
        };

        // Locate a boundary past start-up, LEAD plain steps after another
        // instruction, and measure the energy those steps draw.
        let mut walk = exact_sim();
        walk.run_steps(500);
        while !matches!(next_op(&walk), gecko_mcu::POp::Boundary { .. }) {
            walk.step_one();
        }
        let at_boundary = walk.fast_path_stats().steps;
        let mut probe = exact_sim();
        probe.run_steps(at_boundary - LEAD);
        let lead_j = probe.energy_j();
        probe.run_steps(LEAD);
        let lead_j = lead_j - probe.energy_j();

        let mut fast = exact_sim();
        fast.run_steps(at_boundary - LEAD);
        fast.set_exec_mode(ExecMode::Predecoded);
        let g = fast
            .active_span_guards()
            .expect("a quiet, constant-power span");
        assert!(
            g.commit_loss_j > 8.0 * g.worst_loss_j,
            "the sequence must outweigh the span's entry threshold"
        );
        // At the boundary: one worst step plus most of the sequence above
        // the guard, so a plain step would be admitted but the boundary not.
        let at_boundary_j = g.e_guard_j + g.worst_loss_j + 0.9 * g.commit_loss_j;
        let c = fast.cap.capacitance_f();
        fast.cap = Capacitor::new(c, (2.0 * (at_boundary_j + lead_j) / c).sqrt());
        let mut exact = exact_sim();
        exact.run_steps(at_boundary - LEAD);
        exact.cap = fast.cap.clone();

        let before = fast.fast_path_stats();
        assert_eq!(fast.advance_to_horizon(u64::MAX, f64::INFINITY), LEAD);
        let s = fast.fast_path_stats();
        assert_eq!(s.eh_end_energy - before.eh_end_energy, 1, "{s:?}");
        assert_eq!(s.eh_runtime_ops, before.eh_runtime_ops);
        assert!(matches!(next_op(&fast), gecko_mcu::POp::Boundary { .. }));

        // The next span declines the boundary at once; the exact path runs it.
        let commits = fast.metrics.boundary_commits;
        assert_eq!(fast.advance_to_horizon(u64::MAX, f64::INFINITY), 1);
        let s2 = fast.fast_path_stats();
        assert_eq!(s2.dispatches - s.dispatches, 1);
        assert_eq!(s2.eh_refused - s.eh_refused, 1);
        assert_eq!(fast.metrics.boundary_commits, commits + 1);

        exact.run_steps(LEAD + 1);
        assert_eq!(fast.metrics, exact.metrics);
        assert_eq!(fast.state_hash(), exact.state_hash());
        assert_eq!(fast.time_s().to_bits(), exact.time_s().to_bits());
        assert_eq!(fast.voltage_v().to_bits(), exact.voltage_v().to_bits());
    }

    #[test]
    fn registers_flipped_between_zero_and_minus_two_do_not_cancel() {
        // Two states told apart only by r3 = r6 = -2 against r3 = r6 = 0
        // (an EM fault that complements a 1 leaves -2). Sign-extended, -2
        // is the lane `0 ^ !1`; with even lanes around them the plain
        // lane fold negated the hash at r3 and undid it at r6.
        let mut a = Simulator::new(&app(), SimConfig::bench_supply(SchemeKind::Nvp)).unwrap();
        a.machine.regs_mut().restore([0; Reg::COUNT]);
        let mut b = Simulator::new(&app(), SimConfig::bench_supply(SchemeKind::Nvp)).unwrap();
        b.machine.regs_mut().restore([0; Reg::COUNT]);
        b.machine.regs_mut().set(Reg::R3, -2);
        b.machine.regs_mut().set(Reg::R6, -2);
        let plain = |sim: &Simulator| {
            sim.machine
                .regs()
                .snapshot()
                .iter()
                .fold(FNV_OFFSET, |h, &v| {
                    (h ^ v as u64).wrapping_mul(gecko_isa::fnv::FNV_PRIME)
                })
        };
        assert_eq!(plain(&a), plain(&b), "the plain fold collides");
        assert_ne!(a.state_hash(), b.state_hash());
        assert_ne!(a.drain_hash(), b.drain_hash());
    }
}
