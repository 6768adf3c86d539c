//! The campaign engine: a declarative grid of simulations, a worker pool,
//! and deterministic aggregation.
//!
//! A [`CampaignSpec`] is the cartesian product
//! `apps × schemes × devices × attacks × faults × seeds`;
//! [`CampaignSpec::expand`]
//! flattens it into an ordered list of [`WorkItem`]s. [`Campaign::run`]
//! executes the items on `workers` std threads pulling from a shared
//! atomic cursor (a lock-free work queue over the fixed item list), with
//! every `(app, scheme, options)` compilation going through the shared
//! [`ProgramCache`].
//!
//! **Determinism.** Each item's simulation depends only on its `SimConfig`
//! — never on scheduling — and results are merged back **in item order**
//! after the pool joins. A campaign therefore produces bit-identical
//! [`CampaignReport::deterministic_digest`] values for any worker count;
//! only wall-clock fields differ.
//!
//! **Supervision.** Every run executes under the supervision layer
//! ([`crate::supervisor`]): panics are quarantined into structured
//! [`RunFailure`]s, step/wall budgets flag pathological cells instead of
//! hanging on them, each run executes exactly once (the simulation is
//! deterministic, so a second try would replay the same outcome), and an
//! optional [`Journal`] checkpoints completed runs so a killed campaign
//! resumes bit-exactly ([`Campaign::journal`]).

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use gecko_apps::App;
use gecko_compiler::{CompileError, CompileOptions, CompileStats};
use gecko_emi::{AttackSchedule, DeviceModel, FaultSchedule, MonitorKind};
use gecko_energy::{ConstantPower, StarvedHarvester};
use gecko_isa::fnv::{fnv_str, fnv_u64, FNV_OFFSET};
use gecko_sim::report::Value;
use gecko_sim::{Metrics, SchemeKind, SimConfig, Simulator};

use crate::cache::ProgramCache;
use crate::journal::{self, Journal};
use crate::supervisor::{
    account_dropped, run_supervised, AttemptFail, ChaosSpec, ItemOutcome, PoolConfig, RunBudget,
    RunFailure, SupervisorSpec,
};
use crate::telemetry::{Event, FleetCounters, Histogram, NullSink, TelemetrySink};

/// Steps per cooperative budget check: small enough that step budgets and
/// wall deadlines fire promptly, large enough to stay invisible next to
/// the fast path's dispatch loop.
const BUDGET_SLICE_STEPS: u64 = 1 << 16;

/// The power environment every item runs in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Supply {
    /// Generous DC bench supply (`SimConfig::bench_supply`).
    Bench,
    /// Constant harvested power of `power_w` watts
    /// (`SimConfig::harvesting` uses 1.2 mW).
    Harvesting {
        /// Average harvested power (W).
        power_w: f64,
    },
    /// Constant harvested power squeezed through a
    /// [`StarvedHarvester`]: an adversary attenuates the incoming RF for
    /// `starve_s` out of every `period_s` (Singhal et al.'s
    /// energy-starvation attack).
    Starved {
        /// Legitimate harvested power outside the attack window (W).
        power_w: f64,
        /// Attack period (s).
        period_s: f64,
        /// Starvation window at the start of each period (s).
        starve_s: f64,
        /// Power multiplier inside the window, in `[0, 1]`.
        attenuation: f64,
    },
}

/// Energy-buffer override.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CapacitorSpec {
    /// Capacitance (F).
    pub capacitance_f: f64,
    /// Initial voltage (V).
    pub initial_voltage_v: f64,
    /// Rescale the threshold ladder to match the 1 mF reference energy
    /// (the paper's Section VII-D methodology).
    pub rescale_thresholds: bool,
}

/// What each item simulates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Workload {
    /// `run_for(seconds)`.
    RunFor {
        /// Device time to simulate (s).
        seconds: f64,
    },
    /// `run_until_completions(n, max_seconds)`.
    UntilCompletions {
        /// Completions to reach.
        n: u64,
        /// Give-up horizon (s).
        max_seconds: f64,
    },
    /// `run_for(bucket_s)` repeated over `horizon_s`, recording the
    /// cumulative metrics at each bucket edge (timeline experiments like
    /// Figure 13).
    Buckets {
        /// Total device time (s).
        horizon_s: f64,
        /// Bucket length (s).
        bucket_s: f64,
    },
}

/// A labeled attack schedule (one point on the attack axis).
#[derive(Debug, Clone, PartialEq)]
pub struct AttackCase {
    /// Label used in reports ("none", "27MHz@35dBm", scenario "d", ...).
    pub label: String,
    /// The schedule (empty = unattacked).
    pub schedule: AttackSchedule,
}

impl AttackCase {
    /// The unattacked case.
    pub fn none() -> AttackCase {
        AttackCase {
            label: "none".to_string(),
            schedule: AttackSchedule::none(),
        }
    }

    /// A labeled case.
    pub fn new(label: impl Into<String>, schedule: AttackSchedule) -> AttackCase {
        AttackCase {
            label: label.into(),
            schedule,
        }
    }
}

/// A labeled EM instruction-fault schedule (one point on the fault axis).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultCase {
    /// Label used in reports ("none", "skip@2ms", ...).
    pub label: String,
    /// The schedule (no armed windows = fault-free).
    pub schedule: FaultSchedule,
}

impl FaultCase {
    /// The fault-free case.
    pub fn none() -> FaultCase {
        FaultCase {
            label: "none".to_string(),
            schedule: FaultSchedule::none(),
        }
    }

    /// A labeled case.
    pub fn new(label: impl Into<String>, schedule: FaultSchedule) -> FaultCase {
        FaultCase {
            label: label.into(),
            schedule,
        }
    }
}

/// A board model + the monitor driving its JIT protocol (one point on the
/// device axis).
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceCase {
    /// The board's susceptibility model.
    pub device: DeviceModel,
    /// The voltage monitor in use.
    pub monitor: MonitorKind,
}

impl DeviceCase {
    /// Builds a case.
    pub fn new(device: DeviceModel, monitor: MonitorKind) -> DeviceCase {
        DeviceCase { device, monitor }
    }

    /// The default lab board: MSP430FR5994 through its ADC.
    pub fn default_board() -> DeviceCase {
        DeviceCase::new(gecko_emi::devices::msp430fr5994(), MonitorKind::Adc)
    }
}

/// A declarative Monte-Carlo campaign over the evaluation grid.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Campaign name (reports, telemetry).
    pub name: String,
    /// App names (resolved via `gecko_apps::app_by_name`).
    pub apps: Vec<String>,
    /// Scheme axis.
    pub schemes: Vec<SchemeKind>,
    /// Device axis.
    pub devices: Vec<DeviceCase>,
    /// Attack axis.
    pub attacks: Vec<AttackCase>,
    /// EM instruction-fault axis.
    pub faults: Vec<FaultCase>,
    /// Peripheral-seed axis (Monte-Carlo dimension).
    pub seeds: Vec<u64>,
    /// Power environment.
    pub supply: Supply,
    /// Optional energy-buffer override.
    pub capacitor: Option<CapacitorSpec>,
    /// Optional ADC median filter (taps).
    pub adc_filter_taps: Option<usize>,
    /// Compiler options for the instrumented schemes.
    pub compile: CompileOptions,
    /// What each item runs.
    pub workload: Workload,
}

impl CampaignSpec {
    /// A campaign with the default single-point axes: the lab board, no
    /// attack, seed 7 (matching `SimConfig::bench_supply`).
    pub fn new(name: impl Into<String>) -> CampaignSpec {
        CampaignSpec {
            name: name.into(),
            apps: Vec::new(),
            schemes: vec![SchemeKind::Gecko],
            devices: vec![DeviceCase::default_board()],
            attacks: vec![AttackCase::none()],
            faults: vec![FaultCase::none()],
            seeds: vec![7],
            supply: Supply::Bench,
            capacitor: None,
            adc_filter_taps: None,
            compile: CompileOptions::default(),
            workload: Workload::RunFor { seconds: 0.05 },
        }
    }

    /// Replaces the app axis (builder style).
    pub fn apps<I: IntoIterator<Item = S>, S: Into<String>>(mut self, apps: I) -> CampaignSpec {
        self.apps = apps.into_iter().map(Into::into).collect();
        self
    }

    /// Replaces the scheme axis (builder style).
    pub fn schemes(mut self, schemes: impl IntoIterator<Item = SchemeKind>) -> CampaignSpec {
        self.schemes = schemes.into_iter().collect();
        self
    }

    /// Replaces the device axis (builder style).
    pub fn devices(mut self, devices: impl IntoIterator<Item = DeviceCase>) -> CampaignSpec {
        self.devices = devices.into_iter().collect();
        self
    }

    /// Replaces the attack axis (builder style).
    pub fn attacks(mut self, attacks: impl IntoIterator<Item = AttackCase>) -> CampaignSpec {
        self.attacks = attacks.into_iter().collect();
        self
    }

    /// Replaces the EM instruction-fault axis (builder style).
    pub fn faults(mut self, faults: impl IntoIterator<Item = FaultCase>) -> CampaignSpec {
        self.faults = faults.into_iter().collect();
        self
    }

    /// Replaces the seed axis (builder style).
    pub fn seeds(mut self, seeds: impl IntoIterator<Item = u64>) -> CampaignSpec {
        self.seeds = seeds.into_iter().collect();
        self
    }

    /// Sets the power environment (builder style).
    pub fn supply(mut self, supply: Supply) -> CampaignSpec {
        self.supply = supply;
        self
    }

    /// Sets the energy buffer (builder style).
    pub fn capacitor(mut self, cap: CapacitorSpec) -> CampaignSpec {
        self.capacitor = Some(cap);
        self
    }

    /// Sets the workload (builder style).
    pub fn workload(mut self, workload: Workload) -> CampaignSpec {
        self.workload = workload;
        self
    }

    /// Flattens the grid into ordered work items:
    /// `for app { for scheme { for device { for attack { for fault { for seed }}}}}`.
    pub fn expand(&self) -> Vec<WorkItem> {
        let mut items = Vec::with_capacity(
            self.apps.len()
                * self.schemes.len()
                * self.devices.len()
                * self.attacks.len()
                * self.faults.len()
                * self.seeds.len(),
        );
        for (app_idx, _) in self.apps.iter().enumerate() {
            for (scheme_idx, _) in self.schemes.iter().enumerate() {
                for (device_idx, _) in self.devices.iter().enumerate() {
                    for (attack_idx, _) in self.attacks.iter().enumerate() {
                        for (fault_idx, _) in self.faults.iter().enumerate() {
                            for (seed_idx, _) in self.seeds.iter().enumerate() {
                                items.push(WorkItem {
                                    index: items.len(),
                                    app_idx,
                                    scheme_idx,
                                    device_idx,
                                    attack_idx,
                                    fault_idx,
                                    seed_idx,
                                });
                            }
                        }
                    }
                }
            }
        }
        items
    }

    /// Builds the `SimConfig` for one item — the *only* place physical
    /// configuration is derived, so the parallel and sequential paths
    /// cannot drift apart.
    pub fn config_for(&self, item: &WorkItem) -> SimConfig {
        let scheme = self.schemes[item.scheme_idx];
        let mut cfg = match self.supply {
            Supply::Bench => SimConfig::bench_supply(scheme),
            Supply::Harvesting { power_w } => {
                let mut cfg = SimConfig::harvesting(scheme);
                cfg.harvester = Box::new(ConstantPower::new(power_w));
                cfg
            }
            Supply::Starved {
                power_w,
                period_s,
                starve_s,
                attenuation,
            } => {
                let mut cfg = SimConfig::harvesting(scheme);
                cfg.harvester = Box::new(StarvedHarvester::new(
                    Box::new(ConstantPower::new(power_w)),
                    period_s,
                    starve_s,
                    attenuation,
                ));
                cfg
            }
        };
        let device = &self.devices[item.device_idx];
        cfg = cfg.with_device(device.device.clone(), device.monitor);
        let attack = &self.attacks[item.attack_idx];
        if !attack.schedule.is_empty() {
            cfg = cfg.with_attack(attack.schedule.clone());
        }
        let fault = &self.faults[item.fault_idx];
        if !fault.schedule.is_empty() {
            cfg = cfg.with_fault(fault.schedule.clone());
        }
        if let Some(cap) = self.capacitor {
            cfg = if cap.rescale_thresholds {
                cfg.with_rescaled_capacitor(cap.capacitance_f, cap.initial_voltage_v)
            } else {
                cfg.with_capacitor(cap.capacitance_f, cap.initial_voltage_v)
            };
        }
        cfg.adc_filter_taps = self.adc_filter_taps;
        cfg.compile = self.compile;
        cfg.seed = self.seeds[item.seed_idx];
        cfg
    }

    /// Stable identity of one run: an FNV-1a hash of the cell's app name,
    /// scheme name, device index, attack label, fault label, and
    /// peripheral seed. Run keys identify completed runs in a resume
    /// [`Journal`] and seed the per-run chaos streams, so they
    /// must not depend on scheduling — and they don't: they are pure
    /// functions of the spec.
    pub fn run_key(&self, item: &WorkItem) -> u64 {
        let mut h = FNV_OFFSET;
        h = fnv_str(h, &self.apps[item.app_idx]);
        h = fnv_str(h, self.schemes[item.scheme_idx].name());
        h = fnv_u64(h, item.device_idx as u64);
        h = fnv_str(h, &self.attacks[item.attack_idx].label);
        h = fnv_str(h, &self.faults[item.fault_idx].label);
        h = fnv_u64(h, self.seeds[item.seed_idx]);
        h
    }

    /// A fingerprint of everything that determines the grid's results:
    /// the name, every run key (in item order), the power environment,
    /// capacitor, ADC filter, the cache-relevant compile options, and the
    /// workload. A journal carrying a different fingerprint is refused at
    /// resume time — merging results from a different campaign would
    /// silently corrupt the report.
    pub fn fingerprint(&self) -> u64 {
        let mut h = FNV_OFFSET;
        h = fnv_str(h, &self.name);
        let items = self.expand();
        h = fnv_u64(h, items.len() as u64);
        for item in &items {
            h = fnv_u64(h, self.run_key(item));
        }
        match self.supply {
            Supply::Bench => h = fnv_u64(h, 0),
            Supply::Harvesting { power_w } => {
                h = fnv_u64(h, 1);
                h = fnv_u64(h, power_w.to_bits());
            }
            Supply::Starved {
                power_w,
                period_s,
                starve_s,
                attenuation,
            } => {
                h = fnv_u64(h, 2);
                h = fnv_u64(h, power_w.to_bits());
                h = fnv_u64(h, period_s.to_bits());
                h = fnv_u64(h, starve_s.to_bits());
                h = fnv_u64(h, attenuation.to_bits());
            }
        }
        match self.capacitor {
            None => h = fnv_u64(h, 0),
            Some(cap) => {
                h = fnv_u64(h, 1);
                h = fnv_u64(h, cap.capacitance_f.to_bits());
                h = fnv_u64(h, cap.initial_voltage_v.to_bits());
                h = fnv_u64(h, cap.rescale_thresholds as u64);
            }
        }
        h = fnv_u64(h, self.adc_filter_taps.map_or(u64::MAX, |t| t as u64));
        h = fnv_u64(h, self.compile.wcet_budget_cycles.map_or(u64::MAX, |c| c));
        h = fnv_u64(h, self.compile.prune as u64);
        h = fnv_u64(h, self.compile.max_slice_insts as u64);
        match self.workload {
            Workload::RunFor { seconds } => {
                h = fnv_u64(h, 0);
                h = fnv_u64(h, seconds.to_bits());
            }
            Workload::UntilCompletions { n, max_seconds } => {
                h = fnv_u64(h, 1);
                h = fnv_u64(h, n);
                h = fnv_u64(h, max_seconds.to_bits());
            }
            Workload::Buckets {
                horizon_s,
                bucket_s,
            } => {
                h = fnv_u64(h, 2);
                h = fnv_u64(h, horizon_s.to_bits());
                h = fnv_u64(h, bucket_s.to_bits());
            }
        }
        h
    }

    /// The simulated seconds one run covers — what step budgets derive
    /// from.
    pub fn workload_seconds(&self) -> f64 {
        match self.workload {
            Workload::RunFor { seconds } => seconds,
            Workload::UntilCompletions { max_seconds, .. } => max_seconds,
            Workload::Buckets { horizon_s, .. } => horizon_s,
        }
    }
}

/// One cell of the expanded grid (axis indices into the spec).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkItem {
    /// Position in the expanded list (aggregation order).
    pub index: usize,
    /// Index into `spec.apps`.
    pub app_idx: usize,
    /// Index into `spec.schemes`.
    pub scheme_idx: usize,
    /// Index into `spec.devices`.
    pub device_idx: usize,
    /// Index into `spec.attacks`.
    pub attack_idx: usize,
    /// Index into `spec.faults`.
    pub fault_idx: usize,
    /// Index into `spec.seeds`.
    pub seed_idx: usize,
}

/// One finished item.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// The grid cell.
    pub item: WorkItem,
    /// Final cumulative metrics.
    pub metrics: Metrics,
    /// Cumulative metrics at each bucket edge (empty unless the workload
    /// is [`Workload::Buckets`]).
    pub buckets: Vec<Metrics>,
    /// Static compiler statistics of the (shared) artifact.
    pub compile_stats: CompileStats,
    /// Whether the artifact came from the cache (vs. compiled here).
    pub cache_hit: bool,
    /// Wall-clock nanoseconds this item took (non-deterministic; excluded
    /// from the digest).
    pub wall_ns: u64,
}

/// Campaign failure.
#[derive(Debug, Clone, PartialEq)]
pub enum CampaignError {
    /// An app name did not resolve.
    UnknownApp(String),
    /// The grid is empty (some axis has no points).
    EmptyGrid,
    /// A cell failed to compile.
    Compile {
        /// App name.
        app: String,
        /// Scheme.
        scheme: SchemeKind,
        /// The compiler's error.
        error: CompileError,
    },
    /// The resume journal does not belong to this campaign (fingerprint
    /// mismatch) or is otherwise unusable.
    Journal(String),
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::UnknownApp(name) => write!(f, "unknown app {name:?}"),
            CampaignError::EmptyGrid => write!(f, "campaign grid is empty"),
            CampaignError::Compile { app, scheme, error } => {
                write!(f, "compiling {app} for {scheme}: {error:?}")
            }
            CampaignError::Journal(msg) => write!(f, "resume journal rejected: {msg}"),
        }
    }
}

impl std::error::Error for CampaignError {}

/// A configured, runnable campaign.
pub struct Campaign {
    spec: CampaignSpec,
    workers: usize,
    sink: Arc<dyn TelemetrySink>,
    sup: SupervisorSpec,
    journal: Option<Arc<Journal>>,
    halt_after: Option<u64>,
    kill_switch: Option<Arc<std::sync::atomic::AtomicBool>>,
}

impl Campaign {
    /// Wraps a spec with 1 worker, no telemetry sink, and the default
    /// supervision policy.
    pub fn new(spec: CampaignSpec) -> Campaign {
        Campaign {
            spec,
            workers: 1,
            sink: Arc::new(NullSink),
            sup: SupervisorSpec::default(),
            journal: None,
            halt_after: None,
            kill_switch: None,
        }
    }

    /// Sets the worker-pool size (builder style; clamped to ≥ 1).
    pub fn workers(mut self, workers: usize) -> Campaign {
        self.workers = workers.max(1);
        self
    }

    /// No-op: the lock-step batched path measured slower and was retired (DESIGN.md §16).
    #[deprecated(note = "no-op; every campaign runs per item (DESIGN.md §16)")]
    pub fn batch_size(self, _n: usize) -> Campaign {
        self
    }

    /// Attaches a telemetry sink (builder style).
    pub fn sink(mut self, sink: Arc<dyn TelemetrySink>) -> Campaign {
        self.sink = sink;
        self
    }

    /// Overrides the supervision policy (builder style): budgets and
    /// chaos.
    pub fn supervisor(mut self, sup: SupervisorSpec) -> Campaign {
        self.sup = sup;
        self
    }

    /// Enables chaos injection (builder style) without touching the rest
    /// of the supervision policy.
    pub fn chaos(mut self, chaos: ChaosSpec) -> Campaign {
        self.sup.chaos = chaos;
        self
    }

    /// Attaches a journal (builder style): completed runs are appended as
    /// they finish, and runs already present are skipped. Attaching a
    /// journal from a previous (killed) session of the *same* spec is how
    /// a campaign resumes; a journal whose fingerprint belongs to a
    /// different spec is refused with [`CampaignError::Journal`].
    pub fn journal(mut self, journal: Arc<Journal>) -> Campaign {
        self.journal = Some(journal);
        self
    }

    /// Stops claiming new runs once `n` runs have been accounted this
    /// session (builder style) — the deterministic "kill at a completed-run
    /// boundary" hook the kill/resume tests are built on. The report's
    /// `halted` flag records that runs were left unclaimed; a quota that
    /// covers every remaining run is no halt.
    pub fn halt_after(mut self, n: u64) -> Campaign {
        self.halt_after = Some(n);
        self
    }

    /// Attaches a cooperative kill switch (builder style): when another
    /// thread flips the flag, workers finish (and journal) the run they
    /// are on, stop claiming new ones, and the report comes back with
    /// `halted` set. Combined with [`Campaign::journal`], this is the
    /// graceful-shutdown seam — a daemon drains in-flight work to a clean
    /// checkpoint instead of abandoning it, and a later run with the same
    /// journal continues bit-exactly.
    pub fn kill_switch(mut self, stop: Arc<std::sync::atomic::AtomicBool>) -> Campaign {
        self.kill_switch = Some(stop);
        self
    }

    /// The spec this campaign will run.
    pub fn spec(&self) -> &CampaignSpec {
        &self.spec
    }

    /// Executes the campaign: expand, restore journaled runs, fan out
    /// under supervision, merge deterministically.
    ///
    /// # Errors
    ///
    /// Returns the first (in item order) resolution or compile error, or
    /// [`CampaignError::Journal`] when a resume journal belongs to a
    /// different spec. Panics and budget overruns are *not* errors — they
    /// land in [`CampaignReport::failures`].
    pub fn run(&self) -> Result<CampaignReport, CampaignError> {
        let spec = &self.spec;
        let apps: Vec<App> = spec
            .apps
            .iter()
            .map(|name| {
                gecko_apps::app_by_name(name).ok_or_else(|| CampaignError::UnknownApp(name.clone()))
            })
            .collect::<Result<_, _>>()?;
        let items = spec.expand();
        if items.is_empty() {
            return Err(CampaignError::EmptyGrid);
        }
        let workers = self.workers.min(items.len());
        let cache = ProgramCache::new();

        let sink = self.sup.chaos.wrap_sink(&self.sink);

        let run_keys: Vec<u64> = items.iter().map(|item| spec.run_key(item)).collect();

        // Bind the journal to this spec (stamping a fresh one), then
        // restore its completed runs.
        let runs = match &self.journal {
            Some(journal) => {
                let lines = journal.lines();
                journal
                    .bind(&lines, &spec.name, spec.fingerprint())
                    .map_err(CampaignError::Journal)?;
                journal::decode_campaign(&lines).0
            }
            None => HashMap::new(),
        };
        let restored: Vec<Option<Result<RunResult, CampaignError>>> = run_keys
            .iter()
            .enumerate()
            .map(|(i, key)| {
                let run = runs.get(key).filter(|run| run.item == i)?;
                Some(Ok(RunResult {
                    item: items[i],
                    metrics: run.metrics,
                    buckets: run.buckets.clone(),
                    compile_stats: run.compile_stats,
                    cache_hit: run.cache_hit,
                    wall_ns: run.wall_ns,
                }))
            })
            .collect();
        let resumed = restored.iter().flatten().count() as u64;

        sink.emit(Event::new(
            "campaign_started",
            vec![
                ("campaign", Value::Str(spec.name.clone())),
                ("items", Value::U64(items.len() as u64)),
                ("workers", Value::U64(workers as u64)),
                ("resumed", Value::U64(resumed)),
            ],
        ));

        let started = Instant::now();
        let budget = self.sup.resolve_budget(spec.workload_seconds());
        let cfg = PoolConfig {
            workers,
            run_keys: &run_keys,
            sup: &self.sup,
            budget,
            halt_after: self.halt_after,
            stop: self.kill_switch.as_deref(),
            sink: &sink,
        };
        let journal = self.journal.as_deref();
        let pool = run_supervised(&cfg, restored, |i, budget, run_started| {
            let item = items[i];
            sink.emit(Event::new(
                "item_started",
                vec![
                    ("item", Value::U64(i as u64)),
                    ("app", Value::Str(spec.apps[item.app_idx].clone())),
                    (
                        "scheme",
                        Value::Str(spec.schemes[item.scheme_idx].name().to_string()),
                    ),
                    (
                        "attack",
                        Value::Str(spec.attacks[item.attack_idx].label.clone()),
                    ),
                ],
            ));
            let result = match run_item_budgeted(
                spec,
                &apps[item.app_idx],
                item,
                &cache,
                budget,
                run_started,
            )? {
                Ok(r) => r,
                Err(e) => return Ok(Err(e)),
            };
            if let Some(journal) = journal {
                for line in journal::encode_run(run_keys[i], &result) {
                    journal.append(&line);
                }
            }
            sink.emit(Event::new(
                "item_finished",
                vec![
                    ("item", Value::U64(i as u64)),
                    ("completions", Value::U64(result.metrics.completions)),
                    ("forward_cycles", Value::U64(result.metrics.forward_cycles)),
                    (
                        "checksum_errors",
                        Value::U64(result.metrics.checksum_errors),
                    ),
                    ("wall_ns", Value::U64(result.wall_ns)),
                    ("cache_hit", Value::Bool(result.cache_hit)),
                ],
            ));
            Ok(Ok(result))
        });

        // Checkpoint boundary: every run journaled by the pool is forced
        // to stable storage before the report claims it happened (sync
        // failures degrade to the drop counter like any other journal
        // I/O). Per-run appends stay fsync-free to keep the clean path
        // cheap.
        if let Some(journal) = journal {
            journal.sync();
        }
        let wall_s = started.elapsed().as_secs_f64();

        // Deterministic merge: walk slots in item order (journaled runs
        // come back as `Done`; unclaimed slots only follow a halt).
        let mut results = Vec::with_capacity(items.len());
        let mut failures = Vec::new();
        for slot in pool.outcomes.into_iter().flatten() {
            match slot {
                ItemOutcome::Done(Ok(r)) => results.push(r),
                ItemOutcome::Done(Err(e)) => return Err(e),
                ItemOutcome::Failed(f) => failures.push(f),
            }
        }
        let failed_runs = failures.len() as u64;
        let dropped_records = account_dropped(
            &*sink,
            self.journal.as_deref().map_or(0, Journal::dropped),
            &mut failures,
        );

        let mut totals = Metrics::default();
        let mut item_wall = Histogram::new();
        for r in &results {
            totals.absorb(&r.metrics);
            item_wall.record(r.wall_ns);
        }
        let counters = FleetCounters {
            items: results.len() as u64,
            compile_misses: cache.misses(),
            compile_hits: cache.hits(),
            failures: failed_runs,
            resumed,
            dropped_records,
            ..FleetCounters::default()
        };

        sink.emit(Event::new(
            "campaign_finished",
            vec![
                ("campaign", Value::Str(spec.name.clone())),
                ("items", Value::U64(counters.items)),
                ("completions", Value::U64(totals.completions)),
                ("wall_s", Value::F64(wall_s)),
                ("compile_misses", Value::U64(counters.compile_misses)),
                ("compile_hits", Value::U64(counters.compile_hits)),
                ("failures", Value::U64(counters.failures)),
                ("resumed", Value::U64(counters.resumed)),
                ("halted", Value::Bool(pool.halted)),
            ],
        ));
        sink.flush();

        Ok(CampaignReport {
            spec: spec.clone(),
            workers,
            results,
            failures,
            totals,
            counters,
            item_wall,
            wall_s,
            halted: pool.halted,
        })
    }
}

/// The one supervised run of one item. The outer `Result` is the
/// supervisor's vocabulary (budget overruns); the inner
/// one carries hard campaign errors (compile failures are properties of
/// the *spec*, not of one run, so they abort the campaign as before).
fn run_item_budgeted(
    spec: &CampaignSpec,
    app: &App,
    item: WorkItem,
    cache: &ProgramCache,
    budget: &RunBudget,
    run_started: Instant,
) -> Result<Result<RunResult, CampaignError>, AttemptFail> {
    let scheme = spec.schemes[item.scheme_idx];
    let t0 = Instant::now();
    let (compiled, cache_hit) = match cache.get_or_compile(app, scheme, &spec.compile) {
        Ok(found) => found,
        Err(error) => {
            return Ok(Err(CampaignError::Compile {
                app: app.name.to_string(),
                scheme,
                error,
            }))
        }
    };
    let mut sim = Simulator::from_compiled(&compiled, spec.config_for(&item));
    let (metrics, buckets) = run_workload_budgeted(&mut sim, spec.workload, budget, run_started)?;
    Ok(Ok(RunResult {
        item,
        metrics,
        buckets,
        compile_stats: compiled.stats,
        cache_hit,
        wall_ns: t0.elapsed().as_nanos() as u64,
    }))
}

/// Runs one workload in `BUDGET_SLICE_STEPS`-sized `run_capped` slices,
/// checking the step budget (deterministic: the abort point is an exact
/// step count) and the wall deadline (inherently wall-clock) between
/// slices. Slicing is bit-exact vs. the plain run loops — see
/// `Simulator::run_capped` and the `fast_path` regression test.
fn run_workload_budgeted(
    sim: &mut Simulator,
    workload: Workload,
    budget: &RunBudget,
    run_started: Instant,
) -> Result<(Metrics, Vec<Metrics>), AttemptFail> {
    let mut taken = 0u64;
    match workload {
        Workload::RunFor { seconds } => {
            let t_end = sim.time_s() + seconds;
            run_span_budgeted(sim, t_end, u64::MAX, budget, run_started, &mut taken)?;
            Ok((sim.metrics, Vec::new()))
        }
        Workload::UntilCompletions { n, max_seconds } => {
            let t_end = sim.time_s() + max_seconds;
            run_span_budgeted(sim, t_end, n, budget, run_started, &mut taken)?;
            Ok((sim.metrics, Vec::new()))
        }
        Workload::Buckets {
            horizon_s,
            bucket_s,
        } => {
            assert!(bucket_s > 0.0 && horizon_s > 0.0, "positive timeline");
            let n = (horizon_s / bucket_s).round().max(1.0) as usize;
            let mut buckets = Vec::with_capacity(n);
            for _ in 0..n {
                let t_end = sim.time_s() + bucket_s;
                run_span_budgeted(sim, t_end, u64::MAX, budget, run_started, &mut taken)?;
                buckets.push(sim.metrics);
            }
            Ok((*buckets.last().expect("n >= 1"), buckets))
        }
    }
}

fn run_span_budgeted(
    sim: &mut Simulator,
    t_end: f64,
    target_completions: u64,
    budget: &RunBudget,
    run_started: Instant,
    taken: &mut u64,
) -> Result<(), AttemptFail> {
    loop {
        if sim.time_s() >= t_end || sim.metrics.completions >= target_completions {
            return Ok(());
        }
        if *taken >= budget.max_steps {
            return Err(AttemptFail {
                steps: *taken,
                wall_ms: run_started.elapsed().as_secs_f64() * 1e3,
                partial: Some(Box::new(sim.metrics)),
            });
        }
        let slice = BUDGET_SLICE_STEPS.min(budget.max_steps - *taken);
        *taken += sim.run_capped(t_end, target_completions, slice);
        let wall = run_started.elapsed();
        if wall > budget.deadline {
            return Err(AttemptFail {
                steps: *taken,
                wall_ms: wall.as_secs_f64() * 1e3,
                partial: Some(Box::new(sim.metrics)),
            });
        }
    }
}

/// The merged outcome of a campaign.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// The spec that ran.
    pub spec: CampaignSpec,
    /// Worker threads actually used.
    pub workers: usize,
    /// Per-item results (successful runs only), in item order.
    pub results: Vec<RunResult>,
    /// Quarantined failures, in item order, with any campaign-scoped
    /// `SinkDropped` entry last. A failed run is *absent* from `results`;
    /// it is here instead.
    pub failures: Vec<RunFailure>,
    /// All item metrics folded in item order.
    pub totals: Metrics,
    /// Fleet-level counters.
    pub counters: FleetCounters,
    /// Histogram of per-item wall times (ns).
    pub item_wall: Histogram,
    /// Campaign wall time (s).
    pub wall_s: f64,
    /// Whether `Campaign::halt_after` or the kill switch stopped the
    /// campaign with runs left unclaimed. Unclaimed runs are in neither
    /// `results` nor `failures`.
    pub halted: bool,
}

impl CampaignReport {
    /// The result for a grid cell, by axis indices, on the first fault
    /// point (fault-free unless the spec replaced the fault axis) — the
    /// pre-fault-axis signature most sweeps use.
    ///
    /// # Panics
    ///
    /// Panics when that cell has no successful result (it failed and
    /// lives in [`CampaignReport::failures`], or a halted campaign never
    /// ran it) — check `failures`/`halted` first when supervision is in
    /// play.
    pub fn result_for(
        &self,
        app_idx: usize,
        scheme_idx: usize,
        device_idx: usize,
        attack_idx: usize,
        seed_idx: usize,
    ) -> &RunResult {
        self.result_for_faulted(app_idx, scheme_idx, device_idx, attack_idx, 0, seed_idx)
    }

    /// The result for a grid cell, by axis indices including the fault
    /// axis.
    ///
    /// # Panics
    ///
    /// Panics when that cell has no successful result (see
    /// [`CampaignReport::result_for`]).
    pub fn result_for_faulted(
        &self,
        app_idx: usize,
        scheme_idx: usize,
        device_idx: usize,
        attack_idx: usize,
        fault_idx: usize,
        seed_idx: usize,
    ) -> &RunResult {
        let s = &self.spec;
        let index = ((((app_idx * s.schemes.len() + scheme_idx) * s.devices.len() + device_idx)
            * s.attacks.len()
            + attack_idx)
            * s.faults.len()
            + fault_idx)
            * s.seeds.len()
            + seed_idx;
        // `results` is sorted by item index but may have holes (failed or
        // unclaimed cells), so row-major indexing no longer applies.
        match self.results.binary_search_by_key(&index, |r| r.item.index) {
            Ok(pos) => &self.results[pos],
            Err(_) => panic!(
                "grid cell (item {index}) has no successful result: \
                 it failed or was never executed"
            ),
        }
    }

    /// Sum of per-item wall times (s) — what a 1-worker pool would
    /// roughly take; `work_s / wall_s` estimates the parallel speedup.
    pub fn work_s(&self) -> f64 {
        self.results.iter().map(|r| r.wall_ns as f64 * 1e-9).sum()
    }

    /// FNV-1a digest over the deterministic payload (item order, axis
    /// indices, all metric fields, bucket edges, then the failure
    /// identities). Identical for any worker count — and across
    /// kill-and-resume sessions — because every folded field is a pure
    /// function of the spec. Wall-clock fields and timeout partials are
    /// excluded; a clean campaign's digest is unchanged from the
    /// pre-supervision encoding (an empty failure list folds nothing).
    pub fn deterministic_digest(&self) -> u64 {
        let mut h = FNV_OFFSET;
        let mut eat = |v: u64| h = fnv_u64(h, v);
        for r in &self.results {
            eat(r.item.index as u64);
            eat(r.item.app_idx as u64);
            eat(r.item.scheme_idx as u64);
            eat(r.item.device_idx as u64);
            eat(r.item.attack_idx as u64);
            eat(r.item.fault_idx as u64);
            eat(r.item.seed_idx as u64);
            for m in std::iter::once(&r.metrics).chain(r.buckets.iter()) {
                eat(m.sim_time_s.to_bits());
                eat(m.forward_cycles);
                eat(m.overhead_cycles);
                eat(m.completions);
                eat(m.checksum_errors);
                eat(m.jit_checkpoints);
                eat(m.jit_checkpoint_failures);
                eat(m.reboots);
                eat(m.dirty_deaths);
                eat(m.rollbacks);
                eat(m.recovery_slices);
                eat(m.attack_detections);
                eat(m.jit_reenables);
                eat(m.checkpoint_stores);
                eat(m.boundary_commits);
                eat(m.fault_skips);
                eat(m.fault_corruptions);
                eat(m.energy_nj.to_bits());
            }
        }
        for f in &self.failures {
            f.digest_into(&mut eat);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> CampaignSpec {
        CampaignSpec::new("tiny")
            .apps(["blink", "crc16"])
            .schemes([SchemeKind::Nvp, SchemeKind::Gecko])
            .workload(Workload::RunFor { seconds: 0.01 })
    }

    #[test]
    fn expansion_order_is_row_major() {
        let spec = tiny_spec().seeds([1, 2]);
        let items = spec.expand();
        assert_eq!(items.len(), 2 * 2 * 2);
        assert_eq!(items[0].app_idx, 0);
        assert_eq!(items[0].seed_idx, 0);
        assert_eq!(items[1].seed_idx, 1, "seed is the innermost axis");
        assert_eq!(items[2].scheme_idx, 1);
        assert_eq!(items[2].app_idx, 0);
        assert_eq!(items[4].app_idx, 1, "app is the outermost axis");
        assert_eq!(items[4].scheme_idx, 0);
        assert_eq!(items[7].app_idx, 1);
        assert_eq!(items[7].scheme_idx, 1);
        for (i, item) in items.iter().enumerate() {
            assert_eq!(item.index, i);
        }
    }

    #[test]
    fn unknown_app_is_reported() {
        let spec = CampaignSpec::new("bad").apps(["doom"]);
        match Campaign::new(spec).run() {
            Err(CampaignError::UnknownApp(name)) => assert_eq!(name, "doom"),
            other => panic!("expected UnknownApp, got {other:?}"),
        }
    }

    #[test]
    fn empty_grid_is_reported() {
        let spec = CampaignSpec::new("empty");
        assert!(matches!(
            Campaign::new(spec).run(),
            Err(CampaignError::EmptyGrid)
        ));
    }

    /// One configuration axis of the figure sweeps: a campaign over it,
    /// and the `(app, config)` a person would hand-build for each of its
    /// cells, in item order.
    struct DirectAxis {
        axis: &'static str,
        spec: CampaignSpec,
        cells: Vec<(&'static str, SimConfig)>,
    }

    fn direct_axes() -> Vec<DirectAxis> {
        use gecko_emi::attack::DpiPoint;
        use gecko_emi::{EmiSignal, Injection};
        use SchemeKind::{Gecko, GeckoNoPrune, Nvp};

        let remote = |freq_hz: f64, power_dbm: f64, distance_m: f64| {
            AttackSchedule::continuous(
                EmiSignal::new(freq_hz, power_dbm),
                Injection::Remote { distance_m },
            )
        };
        let dpi =
            |point| AttackSchedule::continuous(EmiSignal::new(27e6, 20.0), Injection::Dpi(point));
        let bursts = AttackSchedule::bursts(
            EmiSignal::new(27e6, 35.0),
            Injection::Remote { distance_m: 5.0 },
            &[0.05],
            0.05,
        );
        let fr2311 = || gecko_emi::devices::msp430fr2311();
        let fr6989 = || gecko_emi::devices::msp430fr6989();
        let victim = |name: &str| {
            CampaignSpec::new(name)
                .apps(["bitcnt"])
                .schemes([Nvp])
                .workload(Workload::RunFor { seconds: 0.01 })
        };
        let bench = SimConfig::bench_supply;

        vec![
            DirectAxis {
                axis: "bench supply on the default board",
                spec: tiny_spec(),
                cells: vec![
                    ("blink", bench(Nvp)),
                    ("blink", bench(Gecko)),
                    ("crc16", bench(Nvp)),
                    ("crc16", bench(Gecko)),
                ],
            },
            DirectAxis {
                axis: "DPI P1/P2 on a non-default board",
                spec: victim("dpi")
                    .devices([DeviceCase::new(fr2311(), MonitorKind::Adc)])
                    .attacks([
                        AttackCase::none(),
                        AttackCase::new("P1", dpi(DpiPoint::P1)),
                        AttackCase::new("P2", dpi(DpiPoint::P2)),
                    ]),
                cells: vec![
                    ("bitcnt", bench(Nvp).with_device(fr2311(), MonitorKind::Adc)),
                    (
                        "bitcnt",
                        bench(Nvp)
                            .with_device(fr2311(), MonitorKind::Adc)
                            .with_attack(dpi(DpiPoint::P1)),
                    ),
                    (
                        "bitcnt",
                        bench(Nvp)
                            .with_device(fr2311(), MonitorKind::Adc)
                            .with_attack(dpi(DpiPoint::P2)),
                    ),
                ],
            },
            DirectAxis {
                axis: "remote injection at a given power and distance",
                spec: victim("remote").attacks([
                    AttackCase::none(),
                    AttackCase::new("2m@25dBm", remote(27e6, 25.0, 2.0)),
                ]),
                cells: vec![
                    ("bitcnt", bench(Nvp)),
                    ("bitcnt", bench(Nvp).with_attack(remote(27e6, 25.0, 2.0))),
                ],
            },
            DirectAxis {
                axis: "comparator monitor on a comparator board",
                spec: victim("comparator")
                    .devices([DeviceCase::new(fr6989(), MonitorKind::Comparator)])
                    .attacks([
                        AttackCase::none(),
                        AttackCase::new("27MHz", remote(27e6, 35.0, 5.0)),
                    ]),
                cells: vec![
                    (
                        "bitcnt",
                        bench(Nvp).with_device(fr6989(), MonitorKind::Comparator),
                    ),
                    (
                        "bitcnt",
                        bench(Nvp)
                            .with_device(fr6989(), MonitorKind::Comparator)
                            .with_attack(remote(27e6, 35.0, 5.0)),
                    ),
                ],
            },
            DirectAxis {
                axis: "UntilCompletions under GECKO w/o pruning",
                spec: CampaignSpec::new("completions")
                    .apps(["crc16"])
                    .schemes([Nvp, GeckoNoPrune])
                    .workload(Workload::UntilCompletions {
                        n: 3,
                        max_seconds: 30.0,
                    }),
                cells: vec![("crc16", bench(Nvp)), ("crc16", bench(GeckoNoPrune))],
            },
            DirectAxis {
                axis: "harvesting supply, 100 uF capacitor and bursts under Buckets",
                spec: victim("timeline")
                    .schemes([Nvp, Gecko])
                    .attacks([AttackCase::new("burst", bursts.clone())])
                    .supply(Supply::Harvesting { power_w: 1.2e-3 })
                    .capacitor(CapacitorSpec {
                        capacitance_f: 100e-6,
                        initial_voltage_v: 3.3,
                        rescale_thresholds: false,
                    })
                    .workload(Workload::Buckets {
                        horizon_s: 0.2,
                        bucket_s: 0.05,
                    }),
                cells: [Nvp, Gecko]
                    .map(|scheme| {
                        let cfg = SimConfig::harvesting(scheme)
                            .with_capacitor(100e-6, 3.3)
                            .with_attack(bursts.clone());
                        ("bitcnt", cfg)
                    })
                    .into(),
            },
        ]
    }

    /// The engine's cells equal hand-built `Simulator` runs, one table row
    /// per configuration axis the figure sweeps use: budgeted slicing,
    /// the program cache and `config_for` change no metric.
    #[test]
    fn campaign_matches_direct_simulation() {
        for DirectAxis { axis, spec, cells } in direct_axes() {
            let report = Campaign::new(spec.clone()).workers(2).run().unwrap();
            assert_eq!(report.results.len(), cells.len(), "{axis}");
            let mut totals = Metrics::default();
            for (cell, (app, cfg)) in report.results.iter().zip(cells) {
                let app = gecko_apps::app_by_name(app).unwrap();
                let mut sim = Simulator::new(&app, cfg).unwrap();
                let (metrics, buckets) = match spec.workload {
                    Workload::RunFor { seconds } => (sim.run_for(seconds), Vec::new()),
                    Workload::UntilCompletions { n, max_seconds } => {
                        (sim.run_until_completions(n, max_seconds), Vec::new())
                    }
                    Workload::Buckets {
                        horizon_s,
                        bucket_s,
                    } => {
                        let n = (horizon_s / bucket_s).round() as usize;
                        let buckets: Vec<Metrics> = (0..n).map(|_| sim.run_for(bucket_s)).collect();
                        (*buckets.last().unwrap(), buckets)
                    }
                };
                let at = format!("{axis}: item {}", cell.item.index);
                assert_eq!(cell.metrics, metrics, "{at}");
                assert_eq!(cell.buckets, buckets, "{at}");
                totals.absorb(&metrics);
            }
            assert_eq!(report.totals, totals, "{axis}");
            // The program cache compiled each (app, scheme) exactly once.
            let pairs = (spec.apps.len() * spec.schemes.len()) as u64;
            assert_eq!(report.counters.compile_misses, pairs, "{axis}");
            assert_eq!(
                report.counters.compile_hits,
                report.results.len() as u64 - pairs,
                "{axis}"
            );
        }
    }

    #[test]
    fn seeds_share_the_compiled_artifact() {
        let spec = CampaignSpec::new("seeded")
            .apps(["blink"])
            .schemes([SchemeKind::Gecko])
            .seeds([1, 2, 3, 4, 5])
            .workload(Workload::RunFor { seconds: 0.005 });
        let report = Campaign::new(spec).workers(3).run().unwrap();
        assert_eq!(report.counters.compile_misses, 1);
        assert_eq!(report.counters.compile_hits, 4);
        assert_eq!(report.results.iter().filter(|r| r.cache_hit).count(), 4);
    }

    #[test]
    fn buckets_record_cumulative_edges() {
        let spec = CampaignSpec::new("timeline")
            .apps(["blink"])
            .schemes([SchemeKind::Nvp])
            .workload(Workload::Buckets {
                horizon_s: 0.02,
                bucket_s: 0.005,
            });
        let report = Campaign::new(spec).run().unwrap();
        let r = &report.results[0];
        assert_eq!(r.buckets.len(), 4);
        assert!(r
            .buckets
            .windows(2)
            .all(|w| w[0].completions <= w[1].completions));
        assert_eq!(*r.buckets.last().unwrap(), r.metrics);
    }
}
