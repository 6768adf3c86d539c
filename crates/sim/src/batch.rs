//! Structure-of-arrays lock-step batching of many [`Simulator`] devices
//! over one shared workload.
//!
//! Every figure sweep in the paper is embarrassingly parallel across
//! *devices*: the same compiled program runs on thousands of independent
//! (capacitor, monitor, attack-phase, seed) tuples. Running them as N cold
//! scalar loops re-derives the event-horizon span solver state per device
//! per span; [`DeviceBatch`] instead gathers every device's planner inputs
//! — current stored energy, guard floor, worst-case per-instruction loss —
//! into contiguous arrays once per round and sizes **all** ON-state spans
//! in a single [`segment::safe_steps`] pass, then retires each planned
//! span with one `retire_span`-backed drain.
//!
//! ## Bit-identity by construction
//!
//! The authoritative per-device state stays inside each [`Simulator`]; the
//! arrays are a *planning view*, refilled from
//! [`Simulator::span_profile`] every round. Because the profile is
//! computed by the very same code (`active_span_guards`) the in-device
//! coalescer runs, the batch's externally-computed horizon equals the
//! horizon the device would size for itself, and
//! `advance_to_horizon(plan, t_end)` commits the identical span
//! `advance_to_horizon(u64::MAX, t_end)` would. Devices the planner cannot
//! cover this round — an armed fault window, filtered ADC, latched
//! comparator, a held reading below `V_backup`, or simply hibernating —
//! fall back to the exact scalar path *inside the same
//! `advance_to_horizon` call* and rejoin the planner at the next round.
//! Per device, the sequence of `advance_to_horizon` calls is exactly the
//! scalar run-loop's sequence, so metrics, `state_hash`, and every
//! intermediate snapshot are bit-identical to N scalar runs (see
//! `tests/batch.rs`).

use crate::device::{Simulator, MIN_ACTIVE_SPAN};
use crate::metrics::Metrics;
use gecko_energy::segment;

/// Cumulative instrumentation for one [`DeviceBatch`] (diagnostics only —
/// never part of simulation state, snapshots, or campaign digests).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Gather → plan → drain sweeps executed.
    pub rounds: u64,
    /// Live device-slots summed over all rounds (the denominator of
    /// [`BatchStats::occupancy_permille`]).
    pub device_rounds: u64,
    /// Device-rounds the single-pass planner covered with a batched
    /// ON-state span (`plan >= MIN_ACTIVE_SPAN`).
    pub planned: u64,
    /// Coalesced spans committed (event-horizon active spans plus
    /// hibernation fast-forwards).
    pub spans: u64,
    /// Steps retired inside coalesced spans.
    pub coalesced_steps: u64,
    /// Steps that took the exact one-at-a-time dispatch.
    pub scalar_steps: u64,
    /// Device-rounds where an ON device fell off the planner and took the
    /// scalar path (it rejoins at the next round).
    pub fallback_rounds: u64,
}

impl BatchStats {
    /// Planner coverage: fraction of live device-rounds the batched
    /// horizon plan covered, in permille (0..=1000). `0` for an empty
    /// batch.
    pub fn occupancy_permille(&self) -> u64 {
        (self.planned * 1000)
            .checked_div(self.device_rounds)
            .unwrap_or(0)
    }

    /// Folds another batch's counters into this one (used by the fleet
    /// merge; addition is order-independent, so the aggregate is
    /// worker-count- and batch-size-deterministic given the same work).
    pub fn absorb(&mut self, other: &BatchStats) {
        self.rounds += other.rounds;
        self.device_rounds += other.device_rounds;
        self.planned += other.planned;
        self.spans += other.spans;
        self.coalesced_steps += other.coalesced_steps;
        self.scalar_steps += other.scalar_steps;
        self.fallback_rounds += other.fallback_rounds;
    }
}

/// Plan sentinel: the device is hibernating (or otherwise outside the
/// planner); let `advance_to_horizon` pick its own span.
const PLAN_UNBOUNDED: u64 = u64::MAX;

/// A set of independent devices stepped lock-step, with all ON-state
/// horizons sized in one structure-of-arrays pass per round.
///
/// ```
/// use gecko_sim::{DeviceBatch, SchemeKind, SimConfig, Simulator};
///
/// let app = gecko_apps::app_by_name("crc16").unwrap();
/// let sims = (0..4)
///     .map(|seed| {
///         let mut config = SimConfig::bench_supply(SchemeKind::Gecko);
///         config.seed = seed;
///         Simulator::new(&app, config).unwrap()
///     })
///     .collect();
/// let mut batch = DeviceBatch::new(sims);
/// for m in batch.run_until_completions(2, 5.0) {
///     assert!(m.completions >= 2);
/// }
/// ```
#[derive(Debug)]
pub struct DeviceBatch {
    /// Authoritative device state (the arrays below are a planning view).
    sims: Vec<Simulator>,
    /// SoA planner columns, refilled per round for planner-covered
    /// devices: stored energy (J), guard floor (J), worst-case
    /// per-instruction loss (J).
    energy_j: Vec<f64>,
    e_guard_j: Vec<f64>,
    worst_loss_j: Vec<f64>,
    /// Per-device span budget for this round's drain (`PLAN_UNBOUNDED`
    /// when the device plans itself, `0` for scalar fallback).
    plan: Vec<u64>,
    /// Which devices the planner columns cover this round.
    covered: Vec<bool>,
    /// Per-device workload bounds, set by `begin_*`.
    t_end: Vec<f64>,
    target: Vec<u64>,
    /// Devices still short of their workload bound.
    live: Vec<bool>,
    stats: BatchStats,
}

impl DeviceBatch {
    /// Wraps a set of devices. They may differ in scheme, app, attack,
    /// and seed — independence is what makes batching invisible — though
    /// sharing one compiled program is what amortizes the predecode.
    pub fn new(sims: Vec<Simulator>) -> DeviceBatch {
        let n = sims.len();
        DeviceBatch {
            sims,
            energy_j: vec![0.0; n],
            e_guard_j: vec![0.0; n],
            worst_loss_j: vec![0.0; n],
            plan: vec![0; n],
            covered: vec![false; n],
            t_end: vec![f64::NEG_INFINITY; n],
            target: vec![0; n],
            live: vec![false; n],
            stats: BatchStats::default(),
        }
    }

    /// Number of devices in the batch (live or retired).
    pub fn len(&self) -> usize {
        self.sims.len()
    }

    /// Whether the batch holds no devices at all.
    pub fn is_empty(&self) -> bool {
        self.sims.is_empty()
    }

    /// Read access to device `i`.
    pub fn device(&self, i: usize) -> &Simulator {
        &self.sims[i]
    }

    /// Read access to every device, in insertion order.
    pub fn devices(&self) -> &[Simulator] {
        &self.sims
    }

    /// Consumes the batch, handing the devices back.
    pub fn into_devices(self) -> Vec<Simulator> {
        self.sims
    }

    /// Each device's metrics so far, in insertion order.
    pub fn metrics(&self) -> Vec<Metrics> {
        self.sims.iter().map(|s| s.metrics).collect()
    }

    /// Cumulative batch instrumentation.
    pub fn stats(&self) -> BatchStats {
        self.stats
    }

    /// Arms every device with a [`Simulator::run_for`]-equivalent bound:
    /// `seconds` of device time from its current clock.
    pub fn begin_run_for(&mut self, seconds: f64) {
        for i in 0..self.sims.len() {
            self.t_end[i] = self.sims[i].time_s() + seconds;
            self.target[i] = u64::MAX;
        }
        self.refresh_live();
    }

    /// Arms every device with a
    /// [`Simulator::run_until_completions`]-equivalent bound: run until
    /// `n` total application completions or `max_seconds` more device
    /// time, whichever first.
    pub fn begin_until_completions(&mut self, n: u64, max_seconds: f64) {
        for i in 0..self.sims.len() {
            self.t_end[i] = self.sims[i].time_s() + max_seconds;
            self.target[i] = n;
        }
        self.refresh_live();
    }

    /// Whether every device has reached its workload bound (vacuously
    /// true before any `begin_*` call).
    pub fn idle(&self) -> bool {
        !self.live.iter().any(|&l| l)
    }

    fn refresh_live(&mut self) {
        for i in 0..self.sims.len() {
            self.live[i] = self.sims[i].time_s() < self.t_end[i]
                && self.sims[i].metrics.completions < self.target[i];
        }
    }

    /// One lock-step round: gather planner inputs for every live device,
    /// size all ON-state spans in a single pass over the SoA columns, and
    /// retire one span (or one exact step) per device — capped at
    /// `max_steps` per device, which can only split spans and is
    /// observationally identical (the `run_capped` argument). Returns the
    /// total steps taken across the batch; `0` means the batch is idle.
    ///
    /// Per device this performs exactly one
    /// [`Simulator::advance_to_horizon`] call with a budget that commits
    /// the same span the device would size for itself, so chaining rounds
    /// reproduces the scalar run loops bit for bit.
    pub fn drain(&mut self, max_steps: u64) -> u64 {
        if max_steps == 0 || self.idle() {
            return 0;
        }
        self.stats.rounds += 1;

        // Gather: one profile read per live device. Hibernating devices
        // plan themselves (hibernation fast-forward has its own exact
        // solver); ON devices outside the planner take the scalar path
        // this round and rejoin at the next gather.
        for i in 0..self.sims.len() {
            self.covered[i] = false;
            if !self.live[i] {
                continue;
            }
            self.stats.device_rounds += 1;
            if !self.sims[i].is_on() {
                self.plan[i] = PLAN_UNBOUNDED;
            } else if let Some(p) = self.sims[i].span_profile() {
                self.energy_j[i] = p.energy_j;
                self.e_guard_j[i] = p.e_guard_j;
                self.worst_loss_j[i] = p.worst_loss_j;
                self.covered[i] = true;
            } else {
                self.plan[i] = 0;
            }
        }

        // Plan: the one pass over the batch that sizes every covered
        // device's span. Tight loop over contiguous arrays — no device
        // state is touched.
        for i in 0..self.sims.len() {
            if self.covered[i] {
                self.plan[i] =
                    segment::safe_steps(self.energy_j[i], self.e_guard_j[i], self.worst_loss_j[i]);
            }
        }

        // Drain: retire each planned span (plans below the entry
        // threshold degrade to the exact path, same as in-device).
        let mut total = 0u64;
        for i in 0..self.sims.len() {
            if !self.live[i] {
                continue;
            }
            let budget = match self.plan[i] {
                p if p >= MIN_ACTIVE_SPAN => {
                    if self.covered[i] {
                        self.stats.planned += 1;
                    }
                    p.min(max_steps)
                }
                _ => max_steps,
            };
            let before = self.sims[i].fast_path_stats();
            total += self.sims[i].advance_to_horizon(budget, self.t_end[i]);
            let after = self.sims[i].fast_path_stats();
            let scalar = after.dispatches - before.dispatches;
            self.stats.scalar_steps += scalar;
            self.stats.coalesced_steps +=
                (after.eh_insts - before.eh_insts) + (after.ff_ticks - before.ff_ticks);
            self.stats.spans +=
                (after.eh_spans - before.eh_spans) + (after.ff_spans - before.ff_spans);
            // An ON device (covered by the planner or bailed out of it)
            // that took exact dispatches this round is a fallback; it
            // rejoins the planner at the next gather. Sleeping devices
            // (`PLAN_UNBOUNDED`) pace themselves and are not fallbacks.
            if scalar > 0 && (self.covered[i] || self.plan[i] == 0) {
                self.stats.fallback_rounds += 1;
            }
            self.live[i] = self.sims[i].time_s() < self.t_end[i]
                && self.sims[i].metrics.completions < self.target[i];
        }
        total
    }

    /// Runs every device for `seconds` of device time
    /// ([`Simulator::run_for`] semantics) and returns the per-device
    /// metrics, bit-identical to running each device alone.
    pub fn run_for(&mut self, seconds: f64) -> Vec<Metrics> {
        self.begin_run_for(seconds);
        while self.drain(u64::MAX) > 0 {}
        self.metrics()
    }

    /// Runs every device until `n` completions or `max_seconds`
    /// ([`Simulator::run_until_completions`] semantics) and returns the
    /// per-device metrics, bit-identical to running each device alone.
    pub fn run_until_completions(&mut self, n: u64, max_seconds: f64) -> Vec<Metrics> {
        self.begin_until_completions(n, max_seconds);
        while self.drain(u64::MAX) > 0 {}
        self.metrics()
    }
}
