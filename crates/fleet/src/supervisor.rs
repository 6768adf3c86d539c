//! The supervision layer: panic quarantine, run budgets, bounded retry
//! with deterministic backoff, and deterministic chaos injection.
//!
//! GECKO's thesis is graceful degradation under hostile conditions, and
//! the campaign engine holds itself to the same discipline: one
//! misbehaving run must never destroy a campaign. Every run executes
//! inside [`quarantine`] (a `catch_unwind` wrapper with a noise-filtering
//! panic hook), under a [`RunBudget`] (step budget + wall-clock deadline),
//! and failures are *classified*, not propagated:
//!
//! * [`RunFailure::Panicked`] — the run panicked; the payload is captured
//!   and the worker keeps draining its queue.
//! * [`RunFailure::TimedOut`] — the run exceeded its step budget or
//!   deadline; partial metrics ride along so a pathological configuration
//!   is *flagged*, not hung on. Step-budget timeouts are deterministic;
//!   deadline timeouts reflect real time.
//! * [`RunFailure::Transient`] — the run signalled a retryable fault
//!   (panic payload prefixed [`TRANSIENT_PREFIX`], or a cooperative
//!   [`AttemptFail::Transient`]) and still failed after the bounded,
//!   splitmix64-jittered retry schedule.
//! * [`RunFailure::SinkDropped`] — telemetry records were dropped
//!   (I/O failure or injected chaos); one structured failure summarizes
//!   the count.
//!
//! [`ChaosSpec`] threads seeded fault injection (panics, transient
//! faults, slow runs, sink write failures) through the same splitmix64
//! discipline as every other stochastic element of the workspace: the
//! fault plan for a run depends only on `(chaos seed, run key, attempt)`,
//! never on scheduling, so supervision is exercised by deterministic,
//! reproducible tests rather than luck.
//!
//! [`run_supervised`] is the generic worker pool shared by
//! `gecko_fleet::Campaign` and `gecko-check`'s `CheckCampaign`: an atomic
//! work cursor, per-item supervision, optional journal-resume skipping and
//! an optional halt-after-N-runs graceful stop.

use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, Once, PoisonError};
use std::time::{Duration, Instant};

use gecko_isa::rng::{SplitMix64, GOLDEN_GAMMA};
use gecko_sim::report::Value;
use gecko_sim::Metrics;

use crate::telemetry::{Event, TelemetrySink};

/// Panic-payload prefix that marks a failure as *transient* (retryable):
/// a run may `panic!("{TRANSIENT_PREFIX}lost the flaky resource")` and the
/// supervisor will re-run it under the bounded backoff schedule instead of
/// recording a hard panic.
pub const TRANSIENT_PREFIX: &str = "transient: ";

/// Default per-run wall-clock deadline (5 minutes) when the campaign does
/// not override it — generous enough that it only fires on genuine hangs.
pub const DEFAULT_WALL_MS: u64 = 300_000;

/// Steps-per-simulated-second cap used to derive a run's step budget from
/// its workload: the 16 MHz reference clock executes at most 16 M
/// instruction steps (and 4 k sleep ticks) per simulated second, so 64 M
/// gives 4× headroom before a run is declared pathological.
pub const DERIVED_STEPS_PER_SIM_SECOND: u64 = 64_000_000;

/// Floor for derived step budgets, so sub-millisecond workloads keep room
/// to breathe.
pub const MIN_DERIVED_STEPS: u64 = 1 << 20;

/// Locks a mutex, recovering from poison: a quarantined panic inside a
/// lock must not poison the rest of the campaign, so shared state
/// (program cache, telemetry sinks, journals) treats poison as "the
/// protected data is still valid, the panicker's *run* was discarded".
pub fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

// ---------------------------------------------------------------------------
// Chaos injection
// ---------------------------------------------------------------------------

/// Deterministic fault-injection policy, threaded through splitmix64: the
/// plan for a run is a pure function of `(seed, run_key, attempt)`.
/// Probabilities are in per-mille (`0` = never, `1000` = always).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChaosSpec {
    /// Chaos stream seed (decorrelated from the simulation seeds).
    pub seed: u64,
    /// Probability (‰) that an attempt panics outright.
    pub panic_per_mille: u32,
    /// Probability (‰) that an attempt fails with a transient
    /// (retryable) fault.
    pub transient_per_mille: u32,
    /// Probability (‰) that an attempt is stalled by [`ChaosSpec::slow_ms`]
    /// before the run starts (exercises the wall-clock deadline).
    pub slow_per_mille: u32,
    /// Stall duration for slow-run injection (ms).
    pub slow_ms: u64,
    /// Probability (‰) that a telemetry record is dropped on write
    /// (exercises the sink-degradation path).
    pub sink_fail_per_mille: u32,
}

impl ChaosSpec {
    /// No chaos (the default).
    pub fn off() -> ChaosSpec {
        ChaosSpec::default()
    }

    /// A chaos policy with the given seed and everything else off.
    pub fn seeded(seed: u64) -> ChaosSpec {
        ChaosSpec {
            seed,
            ..ChaosSpec::default()
        }
    }

    /// Whether every injection probability is zero.
    pub fn is_off(&self) -> bool {
        self.panic_per_mille == 0
            && self.transient_per_mille == 0
            && self.slow_per_mille == 0
            && self.sink_fail_per_mille == 0
    }

    /// The deterministic fault plan for one attempt of one run. Exposed so
    /// tests can predict exactly which runs a chaos campaign will fail.
    pub fn plan_for(&self, run_key: u64, attempt: u32) -> ChaosPlan {
        let mut rng =
            SplitMix64::new(self.seed ^ run_key ^ (attempt as u64).wrapping_mul(GOLDEN_GAMMA));
        let mut roll = |per_mille: u32| per_mille > 0 && rng.next_u64() % 1000 < per_mille as u64;
        ChaosPlan {
            panic: roll(self.panic_per_mille),
            transient: roll(self.transient_per_mille),
            slow: roll(self.slow_per_mille),
        }
    }
}

/// The resolved fault plan for one attempt (see [`ChaosSpec::plan_for`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosPlan {
    /// Panic before the run starts.
    pub panic: bool,
    /// Fail with a transient (retryable) fault.
    pub transient: bool,
    /// Stall for [`ChaosSpec::slow_ms`] before the run starts.
    pub slow: bool,
}

/// A telemetry sink wrapper that deterministically drops records with
/// seeded probability — the chaos hook for the sink-degradation path.
/// Drop decisions are keyed on the record sequence number, so the *count*
/// of drops depends only on the number of records, not on scheduling.
pub struct ChaosSink {
    inner: Arc<dyn TelemetrySink>,
    seed: u64,
    fail_per_mille: u32,
    seq: AtomicU64,
    dropped: AtomicU64,
}

impl ChaosSink {
    /// Wraps `inner`, dropping records with `fail_per_mille` probability.
    pub fn new(inner: Arc<dyn TelemetrySink>, seed: u64, fail_per_mille: u32) -> ChaosSink {
        ChaosSink {
            inner,
            seed,
            fail_per_mille,
            seq: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }
}

impl TelemetrySink for ChaosSink {
    fn emit(&self, event: Event) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let mut rng = SplitMix64::new(self.seed ^ seq.wrapping_mul(GOLDEN_GAMMA));
        if self.fail_per_mille > 0 && rng.next_u64() % 1000 < self.fail_per_mille as u64 {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        self.inner.emit(event);
    }

    fn flush(&self) {
        self.inner.flush();
    }

    fn dropped_records(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed) + self.inner.dropped_records()
    }
}

// ---------------------------------------------------------------------------
// Budgets and the supervision policy
// ---------------------------------------------------------------------------

/// The resolved per-run budget every attempt executes under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunBudget {
    /// Maximum simulation steps one run may take (deterministic bound).
    pub max_steps: u64,
    /// Maximum wall-clock time one attempt may take.
    pub deadline: Duration,
}

/// Supervision policy for a campaign: budgets, the retry schedule, and
/// the chaos policy. `None` budget fields are derived from the spec at
/// run time (see [`SupervisorSpec::resolve_budget`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisorSpec {
    /// Step budget override (`None` = derive from the workload:
    /// `seconds × `[`DERIVED_STEPS_PER_SIM_SECOND`], floored at
    /// [`MIN_DERIVED_STEPS`]).
    pub max_steps: Option<u64>,
    /// Wall-clock deadline override in ms (`None` = [`DEFAULT_WALL_MS`]).
    pub max_wall_ms: Option<u64>,
    /// Attempts per run (≥ 1): transient failures re-run up to this bound.
    pub max_attempts: u32,
    /// Base backoff between retry attempts (ms); attempt `k` sleeps
    /// `base·2^(k-1)` plus splitmix64 jitter in `[0, base]`, capped at 1 s.
    pub backoff_base_ms: u64,
    /// Fault-injection policy.
    pub chaos: ChaosSpec,
}

impl Default for SupervisorSpec {
    fn default() -> SupervisorSpec {
        SupervisorSpec {
            max_steps: None,
            max_wall_ms: None,
            max_attempts: 3,
            backoff_base_ms: 1,
            chaos: ChaosSpec::off(),
        }
    }
}

impl SupervisorSpec {
    /// Resolves the concrete budget for runs whose workload simulates
    /// `workload_seconds` of device time.
    pub fn resolve_budget(&self, workload_seconds: f64) -> RunBudget {
        let derived = (workload_seconds.max(0.0) * DERIVED_STEPS_PER_SIM_SECOND as f64)
            .ceil()
            .min(u64::MAX as f64) as u64;
        RunBudget {
            max_steps: self.max_steps.unwrap_or(derived.max(MIN_DERIVED_STEPS)),
            deadline: Duration::from_millis(self.max_wall_ms.unwrap_or(DEFAULT_WALL_MS)),
        }
    }

    /// The deterministic backoff before retry attempt `next_attempt`
    /// (2, 3, ...) of `run_key`: exponential in the attempt with
    /// splitmix64 jitter, capped at one second.
    pub fn backoff_for(&self, run_key: u64, next_attempt: u32) -> Duration {
        let base = self.backoff_base_ms;
        if base == 0 {
            return Duration::ZERO;
        }
        let mut rng = SplitMix64::new(
            self.chaos.seed ^ run_key ^ (next_attempt as u64).wrapping_mul(0xB0FF_0FF5),
        );
        let exp = base.saturating_mul(1u64 << (next_attempt.saturating_sub(2)).min(10));
        let jitter = rng.range_u64(0, base + 1);
        Duration::from_millis(exp.saturating_add(jitter).min(1_000))
    }
}

// ---------------------------------------------------------------------------
// Failure taxonomy
// ---------------------------------------------------------------------------

/// The failure taxonomy: why a run produced no result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// The run panicked.
    Panicked,
    /// The run exceeded its step budget or wall-clock deadline.
    TimedOut,
    /// The run kept failing transiently through every retry attempt.
    Transient,
    /// Telemetry records were dropped.
    SinkDropped,
}

impl FailureKind {
    /// Stable lowercase name for reports and telemetry.
    pub fn name(self) -> &'static str {
        match self {
            FailureKind::Panicked => "panicked",
            FailureKind::TimedOut => "timed-out",
            FailureKind::Transient => "transient",
            FailureKind::SinkDropped => "sink-dropped",
        }
    }
}

/// One structured failure in a campaign report. Quarantined failures are
/// *results*, not errors: the campaign completes and reports them next to
/// the successful runs.
#[derive(Debug, Clone, PartialEq)]
pub enum RunFailure {
    /// The run panicked; `payload` is the captured panic message.
    Panicked {
        /// Stable identity of the failed run.
        run_key: u64,
        /// Work-item index of the failed run.
        item: usize,
        /// The panic payload (stringified).
        payload: String,
    },
    /// The run exceeded its budget.
    TimedOut {
        /// Stable identity of the failed run.
        run_key: u64,
        /// Work-item index of the failed run.
        item: usize,
        /// Simulation steps taken before the budget fired.
        steps: u64,
        /// Wall-clock ms the attempt had consumed.
        wall_ms: f64,
        /// Metrics accumulated up to the abort point (step-budget
        /// timeouts carry deterministic partials; deadline timeouts may
        /// not have any). Boxed to keep the failure enum small.
        partial: Option<Box<Metrics>>,
    },
    /// The run failed transiently on every one of `attempts` tries.
    Transient {
        /// Stable identity of the failed run.
        run_key: u64,
        /// Work-item index of the failed run.
        item: usize,
        /// The last transient payload.
        payload: String,
        /// Attempts consumed (== the configured `max_attempts`).
        attempts: u32,
    },
    /// `dropped` telemetry/journal records were dropped instead of
    /// panicking the writer.
    SinkDropped {
        /// Records dropped over the whole campaign.
        dropped: u64,
    },
}

impl RunFailure {
    /// This failure's taxonomy bucket.
    pub fn kind(&self) -> FailureKind {
        match self {
            RunFailure::Panicked { .. } => FailureKind::Panicked,
            RunFailure::TimedOut { .. } => FailureKind::TimedOut,
            RunFailure::Transient { .. } => FailureKind::Transient,
            RunFailure::SinkDropped { .. } => FailureKind::SinkDropped,
        }
    }

    /// The failed run's key (`None` for campaign-scoped failures).
    pub fn run_key(&self) -> Option<u64> {
        match self {
            RunFailure::Panicked { run_key, .. }
            | RunFailure::TimedOut { run_key, .. }
            | RunFailure::Transient { run_key, .. } => Some(*run_key),
            RunFailure::SinkDropped { .. } => None,
        }
    }

    /// The failed run's work-item index (`None` for campaign-scoped
    /// failures).
    pub fn item(&self) -> Option<usize> {
        match self {
            RunFailure::Panicked { item, .. }
            | RunFailure::TimedOut { item, .. }
            | RunFailure::Transient { item, .. } => Some(*item),
            RunFailure::SinkDropped { .. } => None,
        }
    }

    /// One-line human description.
    pub fn describe(&self) -> String {
        match self {
            RunFailure::Panicked {
                run_key,
                item,
                payload,
            } => format!("[item {item}] panicked (run {run_key:#018x}): {payload}"),
            RunFailure::TimedOut {
                run_key,
                item,
                steps,
                wall_ms,
                ..
            } => format!(
                "[item {item}] timed out (run {run_key:#018x}) after {steps} steps / {wall_ms:.1} ms"
            ),
            RunFailure::Transient {
                run_key,
                item,
                payload,
                attempts,
            } => format!(
                "[item {item}] transient after {attempts} attempts (run {run_key:#018x}): {payload}"
            ),
            RunFailure::SinkDropped { dropped } => {
                format!("telemetry degraded: {dropped} record(s) dropped")
            }
        }
    }

    /// Folds the deterministic identity of this failure (kind, run key,
    /// item, attempts) into an FNV-style digest closure. Partial metrics
    /// and wall-clock are excluded: deadline timeouts reflect real time.
    pub fn digest_into(&self, eat: &mut dyn FnMut(u64)) {
        match self {
            RunFailure::Panicked { run_key, item, .. } => {
                eat(1);
                eat(*run_key);
                eat(*item as u64);
            }
            RunFailure::TimedOut { run_key, item, .. } => {
                eat(2);
                eat(*run_key);
                eat(*item as u64);
            }
            RunFailure::Transient {
                run_key,
                item,
                attempts,
                ..
            } => {
                eat(3);
                eat(*run_key);
                eat(*item as u64);
                eat(*attempts as u64);
            }
            RunFailure::SinkDropped { dropped } => {
                eat(4);
                eat(*dropped);
            }
        }
    }
}

impl std::fmt::Display for RunFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.describe())
    }
}

/// A cooperative failure an attempt closure can report without panicking.
#[derive(Debug, Clone, PartialEq)]
pub enum AttemptFail {
    /// The run exceeded its budget (the closure checked cooperatively).
    TimedOut {
        /// Steps taken when the budget fired.
        steps: u64,
        /// Wall ms consumed when the budget fired.
        wall_ms: f64,
        /// Metrics accumulated up to the abort point, when available.
        /// Boxed so the `Err` variant stays pointer-sized.
        partial: Option<Box<Metrics>>,
    },
    /// A retryable fault.
    Transient {
        /// What went wrong.
        payload: String,
    },
}

// ---------------------------------------------------------------------------
// Quarantine
// ---------------------------------------------------------------------------

thread_local! {
    static QUARANTINED: Cell<bool> = const { Cell::new(false) };
}

fn install_quiet_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let previous = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !QUARANTINED.with(Cell::get) {
                previous(info);
            }
        }));
    });
}

/// Runs `f` with panics quarantined: a panic is captured and returned as
/// its stringified payload instead of unwinding (and the default
/// panic-hook backtrace noise is suppressed for quarantined panics only).
/// The closure's state is per-run; shared state it touched is guarded by
/// poison-recovering locks (see [`lock_unpoisoned`]).
pub fn quarantine<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    install_quiet_hook();
    QUARANTINED.with(|q| q.set(true));
    let result = panic::catch_unwind(AssertUnwindSafe(f));
    QUARANTINED.with(|q| q.set(false));
    result.map_err(|payload| {
        if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        }
    })
}

// ---------------------------------------------------------------------------
// The supervised worker pool
// ---------------------------------------------------------------------------

/// What the pool recorded for one work item.
#[derive(Debug, Clone, PartialEq)]
pub enum ItemOutcome<T> {
    /// The run completed (possibly after retries).
    Done(T),
    /// The run failed and was quarantined.
    Failed(RunFailure),
}

/// The pool's merged outcome: one slot per item, in item order.
#[derive(Debug)]
pub struct PoolReport<T> {
    /// Per-item outcomes; `None` for items never claimed (skipped by the
    /// caller's resume set, or unclaimed after a halt).
    pub outcomes: Vec<Option<ItemOutcome<T>>>,
    /// Retry attempts performed beyond each run's first try.
    pub retries: u64,
    /// Whether the pool stopped claiming because `halt_after` was reached.
    pub halted: bool,
}

/// Pool configuration for [`run_supervised`].
pub struct PoolConfig<'a> {
    /// Worker-thread count (clamped to ≥ 1 by the caller).
    pub workers: usize,
    /// Stable per-item run keys (chaos/backoff streams key off these).
    pub run_keys: &'a [u64],
    /// Items to skip entirely (already restored from a journal).
    pub skip: &'a [bool],
    /// Supervision policy.
    pub sup: &'a SupervisorSpec,
    /// Resolved per-run budget.
    pub budget: RunBudget,
    /// Stop claiming new items once this many runs have been accounted
    /// (completed or failed; skipped items count) — the graceful-kill
    /// hook. Quota is reserved when a run is claimed, so exactly
    /// `halt_after` runs are accounted at any worker count.
    pub halt_after: Option<u64>,
    /// Cooperative kill switch: when the flag flips true, workers finish
    /// the run they are on (journaling it as usual) and stop claiming new
    /// ones, reporting `halted`. This is the asynchronous sibling of
    /// `halt_after` — a daemon's shutdown/cancel path flips it from
    /// another thread, and a journaled campaign later resumes bit-exactly.
    pub stop: Option<&'a AtomicBool>,
    /// Work-stealing claim frontier. `None` claims items off a shared
    /// atomic cursor (the historical discipline); `Some` routes every
    /// claim through [`Frontier::claim`](crate::Frontier::claim), giving
    /// each worker contiguous index runs with locality-preserving steals.
    /// Either way every index in `0..run_keys.len()` is claimed exactly
    /// once, so outcomes (merged in item order) are identical.
    pub claim: Option<&'a crate::Frontier>,
    /// Telemetry sink for `run_failed` / `run_retried` events.
    pub sink: &'a Arc<dyn TelemetrySink>,
}

/// Executes `attempt` for every non-skipped item on a supervised worker
/// pool: panics are quarantined, budgets enforced (cooperatively by the
/// closure plus a post-hoc deadline check), transient failures retried
/// with deterministic backoff, and chaos injected per the spec. The
/// closure receives `(item index, attempt number (1-based), budget,
/// attempt start)` and returns its result or a cooperative failure.
///
/// Outcomes land in item order; which worker ran what never matters.
pub fn run_supervised<T, F>(cfg: &PoolConfig<'_>, attempt: F) -> PoolReport<T>
where
    T: Send,
    F: Fn(usize, u32, &RunBudget, Instant) -> Result<T, AttemptFail> + Sync,
{
    let n = cfg.run_keys.len();
    assert_eq!(cfg.skip.len(), n, "skip mask must cover every item");
    let cursor = AtomicUsize::new(0);
    let accounted = AtomicU64::new(cfg.skip.iter().filter(|&&s| s).count() as u64);
    let retries = AtomicU64::new(0);
    let halted = AtomicBool::new(false);
    let mut slots: Vec<Option<ItemOutcome<T>>> = Vec::new();
    slots.resize_with(n, || None);
    let workers = cfg.workers.clamp(1, n.max(1));

    let mut worker_crash: Option<String> = None;
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let cursor = &cursor;
            let accounted = &accounted;
            let retries = &retries;
            let halted = &halted;
            let attempt = &attempt;
            handles.push(scope.spawn(move || {
                let mut local: Vec<(usize, ItemOutcome<T>)> = Vec::new();
                loop {
                    if let Some(h) = cfg.halt_after {
                        if accounted.load(Ordering::Relaxed) >= h {
                            halted.store(true, Ordering::Relaxed);
                            break;
                        }
                    }
                    if let Some(stop) = cfg.stop {
                        if stop.load(Ordering::Relaxed) {
                            halted.store(true, Ordering::Relaxed);
                            break;
                        }
                    }
                    let i = match cfg.claim {
                        Some(frontier) => frontier.claim(w).unwrap_or(usize::MAX),
                        None => cursor.fetch_add(1, Ordering::Relaxed),
                    };
                    if i >= n {
                        break;
                    }
                    if cfg.skip[i] {
                        continue;
                    }
                    // Reserve this run's share of the quota at claim time,
                    // so concurrent workers can never account more than
                    // `halt_after` runs between them.
                    let prior = accounted.fetch_add(1, Ordering::Relaxed);
                    if cfg.halt_after.is_some_and(|h| prior >= h) {
                        halted.store(true, Ordering::Relaxed);
                        break;
                    }
                    let (outcome, item_retries) = supervise_item(cfg, cfg.run_keys[i], i, attempt);
                    retries.fetch_add(item_retries, Ordering::Relaxed);
                    local.push((i, outcome));
                }
                local
            }));
        }
        for handle in handles {
            match handle.join() {
                Ok(local) => {
                    for (i, outcome) in local {
                        slots[i] = Some(outcome);
                    }
                }
                Err(payload) => {
                    // The supervisor itself crashed (should be impossible:
                    // runs are quarantined). Items the dead worker claimed
                    // stay `None` and are surfaced by the caller.
                    let msg = payload
                        .downcast_ref::<&str>()
                        .map(|s| (*s).to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "non-string panic payload".to_string());
                    worker_crash = Some(msg);
                }
            }
        }
    });

    // A crashed worker loses the items it had claimed but not returned;
    // without a halt those are exactly the `None` slots.
    if let Some(msg) = worker_crash {
        for (i, slot) in slots.iter_mut().enumerate() {
            if slot.is_none() && !cfg.skip[i] && cfg.halt_after.is_none() && cfg.stop.is_none() {
                *slot = Some(ItemOutcome::Failed(RunFailure::Panicked {
                    run_key: cfg.run_keys[i],
                    item: i,
                    payload: format!("worker crashed: {msg}"),
                }));
            }
        }
    }

    PoolReport {
        outcomes: slots,
        retries: retries.load(Ordering::Relaxed),
        halted: halted.load(Ordering::Relaxed),
    }
}

/// Supervises every attempt of one item: chaos, quarantine, budget
/// classification, bounded retry. Returns the final outcome plus the
/// number of retries consumed.
fn supervise_item<T, F>(
    cfg: &PoolConfig<'_>,
    run_key: u64,
    item: usize,
    attempt: &F,
) -> (ItemOutcome<T>, u64)
where
    F: Fn(usize, u32, &RunBudget, Instant) -> Result<T, AttemptFail> + Sync,
{
    let sup = cfg.sup;
    let mut retries = 0u64;
    let mut attempts = 0u32;
    loop {
        attempts += 1;
        let plan = sup.chaos.plan_for(run_key, attempts);
        if plan.slow {
            std::thread::sleep(Duration::from_millis(sup.chaos.slow_ms));
        }
        let started = Instant::now();
        let caught = quarantine(|| {
            if plan.panic {
                panic!("chaos: injected panic (run {run_key:#018x}, attempt {attempts})");
            }
            if plan.transient {
                panic!("{TRANSIENT_PREFIX}chaos: injected transient fault (run {run_key:#018x}, attempt {attempts})");
            }
            attempt(item, attempts, &cfg.budget, started)
        });
        let transient_payload = match caught {
            Ok(Ok(value)) => {
                let wall = started.elapsed();
                if wall > cfg.budget.deadline {
                    // The run completed, but only by blowing through its
                    // deadline between two cooperative checks: still a
                    // pathological configuration worth flagging.
                    let failure = RunFailure::TimedOut {
                        run_key,
                        item,
                        steps: 0,
                        wall_ms: wall.as_secs_f64() * 1e3,
                        partial: None,
                    };
                    emit_run_failed(cfg, &failure, attempts);
                    return (ItemOutcome::Failed(failure), retries);
                }
                return (ItemOutcome::Done(value), retries);
            }
            Ok(Err(AttemptFail::TimedOut {
                steps,
                wall_ms,
                partial,
            })) => {
                let failure = RunFailure::TimedOut {
                    run_key,
                    item,
                    steps,
                    wall_ms,
                    partial,
                };
                emit_run_failed(cfg, &failure, attempts);
                return (ItemOutcome::Failed(failure), retries);
            }
            Ok(Err(AttemptFail::Transient { payload })) => payload,
            Err(payload) => match payload.strip_prefix(TRANSIENT_PREFIX) {
                Some(rest) => rest.to_string(),
                None => {
                    let failure = RunFailure::Panicked {
                        run_key,
                        item,
                        payload,
                    };
                    emit_run_failed(cfg, &failure, attempts);
                    return (ItemOutcome::Failed(failure), retries);
                }
            },
        };
        if attempts >= sup.max_attempts.max(1) {
            let failure = RunFailure::Transient {
                run_key,
                item,
                payload: transient_payload,
                attempts,
            };
            emit_run_failed(cfg, &failure, attempts);
            return (ItemOutcome::Failed(failure), retries);
        }
        retries += 1;
        cfg.sink.emit(Event::new(
            "run_retried",
            vec![
                ("item", Value::U64(item as u64)),
                ("run_key", Value::U64(run_key)),
                ("attempt", Value::U64(attempts as u64)),
                ("payload", Value::Str(transient_payload)),
            ],
        ));
        std::thread::sleep(sup.backoff_for(run_key, attempts + 1));
    }
}

fn emit_run_failed(cfg: &PoolConfig<'_>, failure: &RunFailure, attempts: u32) {
    cfg.sink.emit(Event::new(
        "run_failed",
        vec![
            ("item", Value::U64(failure.item().unwrap_or(0) as u64)),
            ("run_key", Value::U64(failure.run_key().unwrap_or(0))),
            ("kind", Value::Str(failure.kind().name().to_string())),
            ("attempt", Value::U64(attempts as u64)),
            ("detail", Value::Str(failure.describe())),
        ],
    ));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::{MemorySink, NullSink};

    fn null_sink() -> Arc<dyn TelemetrySink> {
        Arc::new(NullSink)
    }

    #[test]
    fn lock_unpoisoned_recovers_the_data() {
        let m = Mutex::new(41);
        let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let _g = m.lock().unwrap();
            panic!("poison it");
        }));
        assert!(r.is_err());
        assert!(m.lock().is_err(), "the mutex really is poisoned");
        *lock_unpoisoned(&m) += 1;
        assert_eq!(*lock_unpoisoned(&m), 42);
    }

    #[test]
    fn quarantine_captures_payloads() {
        assert_eq!(quarantine(|| 7), Ok(7));
        assert_eq!(
            quarantine(|| -> u32 { panic!("boom") }),
            Err("boom".to_string())
        );
        let msg = format!("{TRANSIENT_PREFIX}flaky");
        assert_eq!(quarantine(|| -> u32 { panic!("{msg}") }), Err(msg));
    }

    #[test]
    fn chaos_plans_are_deterministic_and_seed_sensitive() {
        let chaos = ChaosSpec {
            seed: 9,
            panic_per_mille: 500,
            transient_per_mille: 500,
            slow_per_mille: 500,
            ..ChaosSpec::default()
        };
        for key in [1u64, 2, 0xdead_beef] {
            assert_eq!(chaos.plan_for(key, 1), chaos.plan_for(key, 1));
            assert_eq!(chaos.plan_for(key, 2), chaos.plan_for(key, 2));
        }
        let plans_a: Vec<ChaosPlan> = (0..64).map(|k| chaos.plan_for(k, 1)).collect();
        let other = ChaosSpec { seed: 10, ..chaos };
        let plans_b: Vec<ChaosPlan> = (0..64).map(|k| other.plan_for(k, 1)).collect();
        assert_ne!(plans_a, plans_b, "seed must matter");
        assert!(ChaosSpec::off().is_off());
        assert!(!chaos.is_off());
    }

    #[test]
    fn pool_quarantines_panics_and_drains_the_queue() {
        let keys: Vec<u64> = (0..16).collect();
        let skip = vec![false; 16];
        let sup = SupervisorSpec::default();
        let sink = null_sink();
        let cfg = PoolConfig {
            workers: 4,
            run_keys: &keys,
            skip: &skip,
            sup: &sup,
            budget: sup.resolve_budget(0.01),
            halt_after: None,
            stop: None,
            claim: None,
            sink: &sink,
        };
        let report = run_supervised(&cfg, |i, _, _, _| {
            if i % 5 == 0 {
                panic!("run {i} exploded");
            }
            Ok(i * 10)
        });
        assert!(!report.halted);
        for (i, outcome) in report.outcomes.iter().enumerate() {
            match outcome.as_ref().expect("claimed") {
                ItemOutcome::Done(v) => {
                    assert_ne!(i % 5, 0);
                    assert_eq!(*v, i * 10);
                }
                ItemOutcome::Failed(RunFailure::Panicked { item, payload, .. }) => {
                    assert_eq!(i % 5, 0);
                    assert_eq!(*item, i);
                    assert!(payload.contains("exploded"), "{payload}");
                }
                other => panic!("unexpected outcome {other:?}"),
            }
        }
    }

    #[test]
    fn transient_failures_retry_with_bounded_attempts() {
        let keys = [77u64];
        let skip = [false];
        let sup = SupervisorSpec {
            max_attempts: 3,
            backoff_base_ms: 0,
            ..SupervisorSpec::default()
        };
        let sink: Arc<dyn TelemetrySink> = Arc::new(MemorySink::new());
        let cfg = PoolConfig {
            workers: 1,
            run_keys: &keys,
            skip: &skip,
            sup: &sup,
            budget: sup.resolve_budget(0.01),
            halt_after: None,
            stop: None,
            claim: None,
            sink: &sink,
        };
        // Succeeds on the third attempt.
        let report = run_supervised(&cfg, |_, attempt, _, _| {
            if attempt < 3 {
                Err(AttemptFail::Transient {
                    payload: format!("flaky #{attempt}"),
                })
            } else {
                Ok(attempt)
            }
        });
        assert_eq!(report.retries, 2);
        assert!(matches!(report.outcomes[0], Some(ItemOutcome::Done(3))));

        // Never succeeds: classified Transient with the attempt count.
        let report = run_supervised(&cfg, |_, attempt, _, _| -> Result<u32, AttemptFail> {
            Err(AttemptFail::Transient {
                payload: format!("flaky #{attempt}"),
            })
        });
        assert_eq!(report.retries, 2);
        match report.outcomes[0].as_ref().unwrap() {
            ItemOutcome::Failed(RunFailure::Transient {
                attempts, payload, ..
            }) => {
                assert_eq!(*attempts, 3);
                assert_eq!(payload, "flaky #3");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn transient_panics_are_retried_too() {
        let keys = [5u64];
        let skip = [false];
        let sup = SupervisorSpec {
            max_attempts: 2,
            backoff_base_ms: 0,
            ..SupervisorSpec::default()
        };
        let sink = null_sink();
        let cfg = PoolConfig {
            workers: 1,
            run_keys: &keys,
            skip: &skip,
            sup: &sup,
            budget: sup.resolve_budget(0.01),
            halt_after: None,
            stop: None,
            claim: None,
            sink: &sink,
        };
        let report = run_supervised(&cfg, |_, attempt, _, _| {
            if attempt == 1 {
                panic!("{TRANSIENT_PREFIX}lost the resource");
            }
            Ok("recovered")
        });
        assert_eq!(report.retries, 1);
        assert!(matches!(
            report.outcomes[0],
            Some(ItemOutcome::Done("recovered"))
        ));
    }

    #[test]
    fn halt_after_stops_claiming() {
        let keys: Vec<u64> = (0..32).collect();
        let skip = vec![false; 32];
        let sup = SupervisorSpec::default();
        let sink = null_sink();
        for workers in [1, 2, 8] {
            let cfg = PoolConfig {
                workers,
                run_keys: &keys,
                skip: &skip,
                sup: &sup,
                budget: sup.resolve_budget(0.01),
                halt_after: Some(10),
                stop: None,
                claim: None,
                sink: &sink,
            };
            // The first attempt of every worker waits at a barrier, so all
            // of them are mid-run at once and every worker reaches the
            // quota check with runs still in flight — where an overshoot
            // shows.
            let barrier = std::sync::Barrier::new(workers);
            let started = AtomicUsize::new(0);
            let report = run_supervised(&cfg, |i, _, _, _| {
                if started.fetch_add(1, Ordering::SeqCst) < workers {
                    barrier.wait();
                }
                Ok(i)
            });
            assert!(report.halted);
            let done = report.outcomes.iter().flatten().count();
            assert_eq!(
                done, 10,
                "exactly halt_after runs were accounted (workers={workers})"
            );
        }
    }

    #[test]
    fn budgets_derive_from_the_workload() {
        let sup = SupervisorSpec::default();
        let b = sup.resolve_budget(2.0);
        assert_eq!(b.max_steps, 2 * DERIVED_STEPS_PER_SIM_SECOND);
        assert_eq!(b.deadline, Duration::from_millis(DEFAULT_WALL_MS));
        let b = sup.resolve_budget(1e-6);
        assert_eq!(b.max_steps, MIN_DERIVED_STEPS, "floored");
        let sup = SupervisorSpec {
            max_steps: Some(123),
            max_wall_ms: Some(456),
            ..SupervisorSpec::default()
        };
        let b = sup.resolve_budget(10.0);
        assert_eq!(b.max_steps, 123);
        assert_eq!(b.deadline, Duration::from_millis(456));
    }

    #[test]
    fn backoff_is_deterministic_and_bounded() {
        let sup = SupervisorSpec {
            backoff_base_ms: 4,
            ..SupervisorSpec::default()
        };
        for attempt in 2..6 {
            let a = sup.backoff_for(99, attempt);
            assert_eq!(a, sup.backoff_for(99, attempt), "deterministic");
            assert!(a <= Duration::from_millis(1_000), "capped");
        }
        let quiet = SupervisorSpec {
            backoff_base_ms: 0,
            ..SupervisorSpec::default()
        };
        assert_eq!(quiet.backoff_for(1, 2), Duration::ZERO);
    }

    #[test]
    fn chaos_sink_drops_deterministically() {
        let inner = Arc::new(MemorySink::new());
        let chaos = ChaosSink::new(inner.clone(), 3, 500);
        for i in 0..100u64 {
            chaos.emit(Event::new("e", vec![("i", Value::U64(i))]));
        }
        let dropped = chaos.dropped_records();
        assert!(dropped > 10 && dropped < 90, "~half dropped: {dropped}");
        assert_eq!(inner.events().len() as u64 + dropped, 100);
        // Same seed, same record count => same drop count.
        let again = ChaosSink::new(Arc::new(MemorySink::new()), 3, 500);
        for i in 0..100u64 {
            again.emit(Event::new("e", vec![("i", Value::U64(i))]));
        }
        assert_eq!(again.dropped_records(), dropped);
    }
}
