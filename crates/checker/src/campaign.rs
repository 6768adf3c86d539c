//! Sharded checker campaigns: the (app × scheme × window-chunk) grid fans
//! out across a fleet-style worker pool with deterministic,
//! worker-count-invariant results.
//!
//! Determinism is structural, mirroring `gecko_fleet::campaign`:
//!
//! * Work items are **fixed-size window chunks** derived only from the
//!   spec (never from the worker count), claimed from an atomic cursor.
//! * Each chunk carries its **own memo table**, so memo-hit counters do
//!   not depend on which worker explored a neighboring chunk.
//! * Per-chunk results are merged **in item order** after the pool joins;
//!   shrinking runs after the merge, on the first violation per pair.
//!
//! The pool itself is `gecko_fleet`'s supervised pool: a chunk that
//! panics is quarantined into a structured [`RunFailure`] instead of
//! killing the campaign, and budgets apply per chunk; each claimed chunk
//! is checked exactly once.
//! An attached [`MemoStore`] is the one durable record of completed
//! chunks: a killed campaign resumes bit-exactly by attaching the same
//! store again. A persisted violation stores only its schedule and
//! outcome — the [`Blame`](crate::verdict::Blame) context is rebuilt on
//! restore by deterministic replay, one [`Replayer`] per chunk, with
//! chunks fanned out over the campaign's workers.

use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use gecko_apps::App;
use gecko_compiler::{fingerprint_program, CompileError, CompileOptions, ProgramFingerprints};
use gecko_fleet::{
    account_dropped, quarantine, run_supervised, AttemptFail, ChaosSpec, Event, FleetCounters,
    ItemOutcome, NullSink, PoolConfig, ProgramCache, RunFailure, SupervisorSpec, TelemetrySink,
};
use gecko_isa::fnv::{fnv_str, fnv_u64, FNV_OFFSET};
use gecko_sim::device::CompiledApp;
use gecko_sim::report::Value;
use gecko_sim::SchemeKind;

use crate::explore::{check_windows, golden_steps, ExploreConfig, GoldenError, Joins};
use crate::memostore::MemoStore;
use crate::shrink::{shrink_schedule, Replayer};
use crate::verdict::{CheckStats, InjectionKind, PairReport, PlannedInjection, Violation};
use crate::Outcome;

/// What to check: the (apps × schemes) grid plus exploration policy.
#[derive(Debug, Clone)]
pub struct CheckSpec {
    /// Campaign name (telemetry label).
    pub name: String,
    /// Applications to check. Owned `App` values, not names, so custom
    /// programs (regression counterexamples, WAR probes) check the same
    /// way as the bundled benchmarks; see [`CheckSpec::app_names`].
    pub apps: Vec<App>,
    /// Schemes to check each app under.
    pub schemes: Vec<SchemeKind>,
    /// Compiler options for the instrumented schemes.
    pub compile: CompileOptions,
    /// Exploration policy.
    pub explore: ExploreConfig,
    /// Windows per work item. Fixed-size chunks keep results independent
    /// of the worker count.
    pub chunk_windows: u64,
    /// Shrink the first violation of each failing pair.
    pub shrink: bool,
    /// Replay budget for the shrinker, per pair.
    pub shrink_budget: u64,
}

impl CheckSpec {
    /// A spec with the default exploration policy and no grid.
    pub fn new(name: impl Into<String>) -> CheckSpec {
        CheckSpec {
            name: name.into(),
            apps: Vec::new(),
            schemes: Vec::new(),
            compile: CompileOptions::default(),
            explore: ExploreConfig::default(),
            chunk_windows: 512,
            shrink: true,
            shrink_budget: 200,
        }
    }

    /// Builder: adds apps.
    pub fn apps(mut self, apps: impl IntoIterator<Item = App>) -> CheckSpec {
        self.apps.extend(apps);
        self
    }

    /// Builder: adds bundled apps by name.
    ///
    /// # Errors
    ///
    /// [`CheckError::UnknownApp`] for a name `gecko_apps` does not know.
    pub fn app_names(mut self, names: &[&str]) -> Result<CheckSpec, CheckError> {
        for name in names {
            let app = gecko_apps::app_by_name(name)
                .ok_or_else(|| CheckError::UnknownApp(name.to_string()))?;
            self.apps.push(app);
        }
        Ok(self)
    }

    /// Builder: adds schemes.
    pub fn schemes(mut self, schemes: impl IntoIterator<Item = SchemeKind>) -> CheckSpec {
        self.schemes.extend(schemes);
        self
    }

    /// Builder: replaces the exploration policy.
    pub fn explore(mut self, explore: ExploreConfig) -> CheckSpec {
        self.explore = explore;
        self
    }

    /// Builder: replaces the chunk size (clamped to ≥ 1).
    pub fn chunk_windows(mut self, windows: u64) -> CheckSpec {
        self.chunk_windows = windows.max(1);
        self
    }

    /// FNV-1a fingerprint of everything a memo store's verdicts must agree
    /// on: the grid (via the chunk run keys), the exploration policy, the
    /// compile options, and the shrink policy.
    fn fingerprint(&self, run_keys: &[u64]) -> u64 {
        let e = &self.explore;
        let mut h = FNV_OFFSET;
        h = fnv_str(h, &self.name);
        h = fnv_u64(h, run_keys.len() as u64);
        for &key in run_keys {
            h = fnv_u64(h, key);
        }
        h = fnv_u64(h, e.depth as u64);
        h = fnv_u64(h, e.power_failure_windows as u64);
        h = fnv_u64(h, e.emi_windows as u64);
        h = fnv_u64(h, e.fault_windows as u64);
        h = fnv_u64(h, e.refail_horizon);
        h = fnv_u64(h, e.memoize as u64);
        h = fnv_u64(h, e.max_windows.unwrap_or(u64::MAX));
        h = fnv_u64(h, e.seed);
        h = fnv_u64(h, e.fast_forward as u64);
        h = fnv_u64(h, self.compile.wcet_budget_cycles.unwrap_or(u64::MAX));
        h = fnv_u64(h, self.compile.prune as u64);
        h = fnv_u64(h, self.compile.max_slice_insts as u64);
        // Fingerprint the *effective* chunk size: the run loop clamps a
        // raw 0 (possible via the pub field) to 1, so two specs that
        // differ only in 0-vs-1 chunk the grid identically and must hash
        // identically — otherwise a memo store written by one would be
        // spuriously cleared by the other.
        h = fnv_u64(h, self.chunk_windows.max(1));
        h = fnv_u64(h, self.shrink as u64);
        h = fnv_u64(h, self.shrink_budget);
        h
    }
}

/// Why a check could not run.
#[derive(Debug)]
pub enum CheckError {
    /// An app name `gecko_apps` does not know.
    UnknownApp(String),
    /// No (app, scheme) pairs to check.
    EmptyGrid,
    /// A cell failed to compile.
    Compile {
        /// Application name.
        app: String,
        /// Scheme of the failing cell.
        scheme: SchemeKind,
        /// The compiler's error.
        error: CompileError,
    },
    /// A cell's failure-free golden run failed, so there is no reference
    /// to check against.
    Golden {
        /// Application name.
        app: String,
        /// Scheme of the failing cell.
        scheme: SchemeKind,
        /// What went wrong.
        error: GoldenError,
    },
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckError::UnknownApp(name) => write!(f, "unknown app {name:?}"),
            CheckError::EmptyGrid => write!(f, "empty check grid (no apps or no schemes)"),
            CheckError::Compile { app, scheme, error } => {
                write!(f, "compiling {app}/{}: {error}", scheme.name())
            }
            CheckError::Golden { app, scheme, error } => {
                write!(f, "golden run of {app}/{}: {error}", scheme.name())
            }
        }
    }
}

impl std::error::Error for CheckError {}

/// Checks a single pre-compiled artifact, sequentially. This is the
/// single-pair core the campaign shards; it is also the entry point for
/// checking artifacts that never came from the stock pipeline (e.g. a
/// deliberately miscompiled program in a regression test).
///
/// # Errors
///
/// [`CheckError::Golden`] when the failure-free run fails, leaving
/// nothing to check against.
pub fn check_compiled(
    compiled: &CompiledApp,
    explore: &ExploreConfig,
) -> Result<PairReport, CheckError> {
    let golden = golden_steps(compiled, explore.seed).map_err(|error| CheckError::Golden {
        app: compiled.app.name.to_string(),
        scheme: compiled.scheme,
        error,
    })?;
    let windows = explore.max_windows.map_or(golden, |m| m.min(golden));
    let outcome = check_windows(compiled, explore, 0, windows, golden);
    let mut report = PairReport {
        app: compiled.app.name.to_string(),
        scheme: compiled.scheme,
        golden_steps: golden,
        depth: explore.depth,
        stats: outcome.stats,
        violations: outcome.violations,
        counterexample: None,
    };
    if let Some(first) = report.violations.first() {
        report.counterexample = Some(shrink_schedule(
            compiled,
            explore,
            &first.schedule,
            golden,
            200,
        ));
    }
    Ok(report)
}

/// Compiles and checks one (app, scheme) pair, sequentially.
///
/// # Errors
///
/// [`CheckError::Compile`] or [`CheckError::Golden`] for a broken cell.
pub fn check_app(
    app: &App,
    scheme: SchemeKind,
    options: &CompileOptions,
    explore: &ExploreConfig,
) -> Result<PairReport, CheckError> {
    let compiled =
        CompiledApp::build(app, scheme, options).map_err(|error| CheckError::Compile {
            app: app.name.to_string(),
            scheme,
            error,
        })?;
    check_compiled(&compiled, explore)
}

// ---------------------------------------------------------------------------
// Chunk identity + record codec
// ---------------------------------------------------------------------------

/// Stable identity of one chunk: content-addressed by (app, scheme,
/// window range), so it survives spec reordering-neutral edits and keys
/// the chaos streams and the memo store's records.
fn chunk_run_key(app: &str, scheme: SchemeKind, start: u64, end: u64) -> u64 {
    let mut h = FNV_OFFSET;
    h = fnv_str(h, app);
    h = fnv_str(h, scheme.name());
    h = fnv_u64(h, start);
    h = fnv_u64(h, end);
    h
}

/// A violation as persisted: schedule + outcome only. `Blame` is derived
/// state and is rebuilt by a deterministic [`replay`] on restore.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct JournaledViolation {
    pub(crate) window: u64,
    pub(crate) schedule: Vec<PlannedInjection>,
    pub(crate) outcome: Outcome,
}

impl From<&Violation> for JournaledViolation {
    fn from(v: &Violation) -> JournaledViolation {
        JournaledViolation {
            window: v.window,
            schedule: v.schedule.clone(),
            outcome: v.outcome,
        }
    }
}

/// Why one memo-store line of this crate's vocabulary could not be
/// decoded. Split so the decoder can tell dead weight (pruned) from
/// forward-compatible records (kept and diagnosed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum ChunkLineError {
    /// Structurally broken (half-written, wrong field types): invisible
    /// to every decoder, safe to prune.
    Malformed {
        /// Dotted path of the offending field.
        path: String,
    },
    /// Well-formed but using a vocabulary this binary does not know —
    /// e.g. an injection tag introduced by a newer release. Kept on
    /// prune (a newer binary could still resume from it) and surfaced as
    /// a resume-time diagnostic instead of being silently dropped.
    UnknownTag {
        /// Dotted path of the offending field.
        path: String,
        /// The unrecognized tag text.
        tag: String,
    },
}

/// A diagnostic from decoding a [`MemoStore`]'s log: which line failed,
/// where in the record, and why. Returned by [`MemoStore::diagnostics`]
/// and emitted as `journal_line_undecodable` telemetry by every campaign
/// the store is attached to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalDiagnostic {
    /// 0-based line number in the log.
    pub line: usize,
    /// Dotted path of the offending field (`viols[2].schedule[1]`).
    pub path: String,
    /// Human-readable description of the failure.
    pub message: String,
}

impl fmt::Display for JournalDiagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "journal line {}: {} at {}",
            self.line, self.message, self.path
        )
    }
}

impl JournalDiagnostic {
    pub(crate) fn from_error(line: usize, error: &ChunkLineError) -> JournalDiagnostic {
        match error {
            ChunkLineError::Malformed { path } => JournalDiagnostic {
                line,
                path: path.clone(),
                message: "malformed memo record".to_string(),
            },
            ChunkLineError::UnknownTag { path, tag } => JournalDiagnostic {
                line,
                path: path.clone(),
                message: format!("unknown tag {tag:?} (newer vocabulary?)"),
            },
        }
    }
}

/// `"12p,3c"` — offset plus a one-letter injection kind per element.
fn encode_schedule(schedule: &[PlannedInjection]) -> String {
    let parts: Vec<String> = schedule
        .iter()
        .map(|inj| {
            let k = match inj.kind {
                InjectionKind::PowerFailure => 'p',
                InjectionKind::SpoofedCheckpoint => 'c',
                InjectionKind::SpoofedWakeup => 'w',
                InjectionKind::InstructionSkip => 'k',
                InjectionKind::InstructionCorrupt => 'x',
            };
            format!("{}{}", inj.after_steps, k)
        })
        .collect();
    parts.join(",")
}

fn decode_schedule(text: &str, path: &str) -> Result<Vec<PlannedInjection>, ChunkLineError> {
    if text.is_empty() {
        return Ok(Vec::new());
    }
    text.split(',')
        .enumerate()
        .map(|(i, part)| {
            let malformed = || ChunkLineError::Malformed {
                path: format!("{path}[{i}]"),
            };
            // Split before the final *character* (not byte): an unknown
            // multi-byte tag must decode into a diagnostic, not a panic.
            let (num, kind) = match part.char_indices().last() {
                Some((at, _)) => part.split_at(at),
                None => return Err(malformed()),
            };
            let kind = match kind {
                "p" => InjectionKind::PowerFailure,
                "c" => InjectionKind::SpoofedCheckpoint,
                "w" => InjectionKind::SpoofedWakeup,
                "k" => InjectionKind::InstructionSkip,
                "x" => InjectionKind::InstructionCorrupt,
                other => {
                    return Err(ChunkLineError::UnknownTag {
                        path: format!("{path}[{i}]"),
                        tag: other.to_string(),
                    })
                }
            };
            Ok(PlannedInjection {
                after_steps: num.parse().map_err(|_| malformed())?,
                kind,
            })
        })
        .collect()
}

pub(crate) fn encode_outcome(outcome: Outcome) -> String {
    match outcome {
        Outcome::Clean => "clean".to_string(),
        // `Word` is i32; store the bit pattern so parsing stays unsigned.
        Outcome::Corrupt { got } => format!("corrupt.{}", got as u32),
        Outcome::Stuck => "stuck".to_string(),
    }
}

pub(crate) fn decode_outcome(text: &str, path: &str) -> Result<Outcome, ChunkLineError> {
    match text {
        "clean" => Ok(Outcome::Clean),
        "stuck" => Ok(Outcome::Stuck),
        _ => match text.strip_prefix("corrupt.") {
            Some(bits) => {
                let bits: u32 = bits.parse().map_err(|_| ChunkLineError::Malformed {
                    path: path.to_string(),
                })?;
                Ok(Outcome::Corrupt { got: bits as i32 })
            }
            None => Err(ChunkLineError::UnknownTag {
                path: path.to_string(),
                tag: text.to_string(),
            }),
        },
    }
}

/// `"7|12p,3c|corrupt.4294967291;9|5k|stuck"` — window, schedule and
/// outcome per violation, as `memo_slab` records store it.
pub(crate) fn encode_viols(violations: &[JournaledViolation]) -> String {
    let parts: Vec<String> = violations
        .iter()
        .map(|v| {
            format!(
                "{}|{}|{}",
                v.window,
                encode_schedule(&v.schedule),
                encode_outcome(v.outcome)
            )
        })
        .collect();
    parts.join(";")
}

pub(crate) fn decode_viols(text: &str) -> Result<Vec<JournaledViolation>, ChunkLineError> {
    if text.is_empty() {
        return Ok(Vec::new());
    }
    text.split(';')
        .enumerate()
        .map(|(vi, part)| {
            let mut cols = part.splitn(3, '|');
            let mut col = |name: &str| {
                cols.next().ok_or_else(|| ChunkLineError::Malformed {
                    path: format!("viols[{vi}].{name}"),
                })
            };
            let window = col("window")?
                .parse()
                .map_err(|_| ChunkLineError::Malformed {
                    path: format!("viols[{vi}].window"),
                })?;
            let schedule = decode_schedule(col("schedule")?, &format!("viols[{vi}].schedule"))?;
            let outcome = decode_outcome(col("outcome")?, &format!("viols[{vi}].outcome"))?;
            Ok(JournaledViolation {
                window,
                schedule,
                outcome,
            })
        })
        .collect()
}

/// The six [`CheckStats`] counters as record fields, in their on-disk
/// order.
pub(crate) fn stats_fields(stats: &CheckStats) -> [(&'static str, Value); 6] {
    [
        ("windows", Value::U64(stats.windows)),
        ("forks", Value::U64(stats.forks)),
        ("explored", Value::U64(stats.explored)),
        ("memo_hits", Value::U64(stats.memo_hits)),
        ("steps", Value::U64(stats.steps)),
        ("violations", Value::U64(stats.violations)),
    ]
}

/// Reads the six [`CheckStats`] counters through `u`, a record's
/// required-`u64` field accessor.
pub(crate) fn decode_stats(
    u: impl Fn(&str) -> Result<u64, ChunkLineError>,
) -> Result<CheckStats, ChunkLineError> {
    Ok(CheckStats {
        windows: u("windows")?,
        forks: u("forks")?,
        explored: u("explored")?,
        memo_hits: u("memo_hits")?,
        steps: u("steps")?,
        violations: u("violations")?,
    })
}

/// One claimable unit of checker work: a window chunk of one pair.
#[derive(Debug, Clone, Copy)]
struct WorkItem {
    pair: usize,
    start: u64,
    end: u64,
}

/// One (app, scheme) pair of a campaign: the shared artifact, its golden
/// trace length, and the windows checked.
struct Pair {
    compiled: Arc<CompiledApp>,
    golden: u64,
    windows: u64,
}

/// A chunk's persisted verdict awaiting re-proof, as the memo store
/// restores it: its counters and blame-free violations.
type Persisted = (CheckStats, Vec<JournaledViolation>);

/// What the re-prove pass restored: per item, the persisted counters and
/// the violations with blame rebuilt; plus the persisted violations
/// replayed, the drains those replays ran and the drains that joined.
struct Reproof {
    restored: Vec<Option<(CheckStats, Vec<Violation>)>>,
    replays: u64,
    drains: u64,
    joins: u64,
}

/// Runs `job` on every index of `todo` and returns the results in `todo`
/// order: `workers` scoped threads claim indices off an atomic cursor
/// (one worker runs inline), so the results never depend on scheduling
/// as long as each job's does not.
fn fan_out<T: Send>(workers: usize, todo: &[usize], job: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let cursor = AtomicUsize::new(0);
    let work = || {
        let mut out = Vec::new();
        loop {
            let at = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(&i) = todo.get(at) else {
                return out;
            };
            out.push((at, job(i)));
        }
    };
    let threads = workers.min(todo.len());
    let mut done = if threads <= 1 {
        work()
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads).map(|_| scope.spawn(work)).collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                .collect()
        })
    };
    done.sort_unstable_by_key(|&(at, _)| at);
    done.into_iter().map(|(_, result)| result).collect()
}

/// Re-proves the persisted verdict of every item by replaying each
/// violation's schedule (persisted violations carry no blame). An item
/// whose every replay agrees with its persisted outcome is restored; a
/// disagreement re-explores the item instead of trusting it. Each item
/// replays on its own [`Replayer`] through [`fan_out`], and results merge
/// in item order.
fn reprove(
    workers: usize,
    explore: &ExploreConfig,
    pairs: &[Pair],
    items: &[WorkItem],
    persisted: &[Option<Persisted>],
) -> Reproof {
    let prove = |i: usize| {
        let p = &pairs[items[i].pair];
        let mut replayer = Replayer::new(&p.compiled, explore, p.golden);
        let restored = persisted[i].as_ref().and_then(|(stats, violations)| {
            let violations: Option<Vec<Violation>> = violations
                .iter()
                .map(|jv| {
                    let (outcome, blame) = replayer.replay(&jv.schedule);
                    (outcome == jv.outcome).then(|| Violation {
                        window: jv.window,
                        schedule: jv.schedule.clone(),
                        outcome,
                        blame,
                    })
                })
                .collect();
            Some((*stats, violations?))
        });
        (
            restored,
            replayer.replays(),
            replayer.drains(),
            replayer.joins(),
        )
    };
    let todo: Vec<usize> = (0..items.len())
        .filter(|&i| persisted[i].is_some())
        .collect();
    let done = fan_out(workers, &todo, prove);
    let mut reproof = Reproof {
        restored: vec![None; items.len()],
        replays: 0,
        drains: 0,
        joins: 0,
    };
    for (&i, (restored, replays, drains, joins)) in todo.iter().zip(done) {
        reproof.restored[i] = restored;
        reproof.replays += replays;
        reproof.drains += drains;
        reproof.joins += joins;
    }
    reproof
}

/// A runnable checker campaign: spec + workers + telemetry sink +
/// supervision policy.
pub struct CheckCampaign {
    spec: CheckSpec,
    workers: usize,
    sink: Arc<dyn TelemetrySink>,
    sup: SupervisorSpec,
    memo: Option<Arc<MemoStore>>,
    halt_after: Option<u64>,
    kill_switch: Option<Arc<std::sync::atomic::AtomicBool>>,
}

impl CheckCampaign {
    /// A campaign over `spec` with one worker and no telemetry.
    pub fn new(spec: CheckSpec) -> CheckCampaign {
        CheckCampaign {
            spec,
            workers: 1,
            sink: Arc::new(NullSink),
            sup: SupervisorSpec::default(),
            memo: None,
            halt_after: None,
            kill_switch: None,
        }
    }

    /// Sets the worker-thread count (builder style; clamped to ≥ 1).
    /// Results are bit-identical for any value.
    pub fn workers(mut self, workers: usize) -> CheckCampaign {
        self.workers = workers.max(1);
        self
    }

    /// Attaches a telemetry sink (builder style).
    pub fn sink(mut self, sink: Arc<dyn TelemetrySink>) -> CheckCampaign {
        self.sink = sink;
        self
    }

    /// Replaces the supervision policy (builder style). Note that the
    /// checker enforces the *step* budget post hoc — an exploration is
    /// not sliceable the way a metrics run is — so `max_steps` flags
    /// runaway chunks after the fact rather than interrupting them; by
    /// default chunks have no step cap (exploration work is structurally
    /// bounded per fork by the explore budget).
    pub fn supervisor(mut self, sup: SupervisorSpec) -> CheckCampaign {
        self.sup = sup;
        self
    }

    /// Sets the chaos-injection policy (builder style), keeping the rest
    /// of the supervision policy.
    pub fn chaos(mut self, chaos: ChaosSpec) -> CheckCampaign {
        self.sup.chaos = chaos;
        self
    }

    /// Attaches a durable memo store (builder style): every checked
    /// chunk's counters, violations and blamed regions persist through
    /// [`MemoStore`] as one record, written as the chunk finishes (after
    /// its step-budget check). A later campaign over the same spec —
    /// a warm re-check, or the resume of a killed run — answers those
    /// chunks from disk and re-explores the rest: chunks never finished,
    /// quarantined, or whose blamed compiled regions changed (DESIGN.md
    /// §18). Results are bit-identical with and without a store, cold,
    /// warm or resumed.
    pub fn memo(mut self, memo: Arc<MemoStore>) -> CheckCampaign {
        self.memo = Some(memo);
        self
    }

    /// Stops claiming new chunks once `n` have been accounted this
    /// session (builder style) — the deterministic kill switch the
    /// resume tests use.
    pub fn halt_after(mut self, n: u64) -> CheckCampaign {
        self.halt_after = Some(n);
        self
    }

    /// Attaches a cooperative kill switch (builder style), mirroring
    /// `gecko_fleet::Campaign::kill_switch`: when the flag flips true,
    /// workers finish the window chunk they are exploring, record it,
    /// and stop claiming new chunks (`halted` in the report). A campaign
    /// with a memo store then resumes bit-exactly from that store.
    pub fn kill_switch(mut self, stop: Arc<std::sync::atomic::AtomicBool>) -> CheckCampaign {
        self.kill_switch = Some(stop);
        self
    }

    /// The spec this campaign will run.
    pub fn spec(&self) -> &CheckSpec {
        &self.spec
    }

    /// Executes the campaign: compile and measure golden traces (in pair
    /// order), fan window chunks out across the supervised pool, merge in
    /// item order, then shrink each failing pair's first violation on the
    /// same workers.
    ///
    /// A chunk that panics (or blows its budget) is quarantined into
    /// [`CheckReport::failures`]; every other chunk's result — including
    /// violations found by sibling chunks, which still shrink — is
    /// unaffected.
    ///
    /// # Errors
    ///
    /// The first (in pair order) compile or golden-run error.
    pub fn run(&self) -> Result<CheckReport, CheckError> {
        let spec = &self.spec;
        if spec.apps.is_empty() || spec.schemes.is_empty() {
            return Err(CheckError::EmptyGrid);
        }
        let started = Instant::now();
        let cache = ProgramCache::new();

        // Phase 1 (sequential, pair order): compile + golden trace.
        let mut pairs = Vec::with_capacity(spec.apps.len() * spec.schemes.len());
        for app in &spec.apps {
            for &scheme in &spec.schemes {
                let (compiled, _) =
                    cache
                        .get_or_compile(app, scheme, &spec.compile)
                        .map_err(|error| CheckError::Compile {
                            app: app.name.to_string(),
                            scheme,
                            error,
                        })?;
                let golden = golden_steps(&compiled, spec.explore.seed).map_err(|error| {
                    CheckError::Golden {
                        app: app.name.to_string(),
                        scheme,
                        error,
                    }
                })?;
                let windows = spec.explore.max_windows.map_or(golden, |m| m.min(golden));
                pairs.push(Pair {
                    compiled,
                    golden,
                    windows,
                });
            }
        }

        // Fixed-size chunks, in pair order: the item list depends only on
        // the spec, never on the worker count.
        let mut items = Vec::new();
        // Clamp the raw field like the builder does: a 0 set through the
        // pub field must chunk (and fingerprint) exactly like 1, not
        // loop forever.
        let chunk_windows = spec.chunk_windows.max(1);
        for (pair, p) in pairs.iter().enumerate() {
            let mut start = 0;
            while start < p.windows {
                let end = (start + chunk_windows).min(p.windows);
                items.push(WorkItem { pair, start, end });
                start = end;
            }
            if p.windows == 0 {
                // Degenerate (empty) trace: still emit one no-op item so
                // the pair appears in the report.
                items.push(WorkItem {
                    pair,
                    start: 0,
                    end: 0,
                });
            }
        }

        let workers = self.workers.min(items.len()).max(1);
        let sink = self.sup.chaos.wrap_sink(&self.sink);

        let run_keys: Vec<u64> = items
            .iter()
            .map(|item| {
                let p = &pairs[item.pair];
                chunk_run_key(p.compiled.app.name, p.compiled.scheme, item.start, item.end)
            })
            .collect();
        let fingerprint = spec.fingerprint(&run_keys);

        // Region fingerprints, one per pair, when a memo store is
        // attached: the identity change-driven invalidation keys on (a
        // persisted slab stays valid if the whole program is unchanged,
        // or if every region its exploration blamed is unchanged).
        let memo = self.memo.as_deref();
        let fps: Vec<ProgramFingerprints> = if memo.is_some() {
            pairs
                .iter()
                .map(|p| fingerprint_program(&p.compiled.program, &p.compiled.recovery))
                .collect()
        } else {
            Vec::new()
        };

        // Drops the store counts from here on are this run's: a shared
        // store outlives the runs it serves, and a warm re-check must not
        // inherit an earlier run's write failures.
        let memo_drops_before = memo.map_or(0, MemoStore::dropped);
        let memo_generation = memo.map(|m| m.begin(&spec.name, fingerprint));
        // Surface the store's undecodable lines instead of silently
        // re-exploring their chunks: an unknown tag means the store was
        // written by a different (likely newer) vocabulary.
        let diagnostics = memo.map_or(&[][..], MemoStore::diagnostics);
        for d in diagnostics {
            sink.emit(Event::new(
                "journal_line_undecodable",
                vec![
                    ("line", Value::U64(d.line as u64)),
                    ("path", Value::Str(d.path.clone())),
                    ("message", Value::Str(d.message.clone())),
                ],
            ));
        }
        // The store's slab per item, if it has a sound one. Nothing is
        // trusted yet — every persisted violation is re-proven below, and
        // a chunk whose replays disagree is re-explored.
        let persisted: Vec<Option<Persisted>> = run_keys
            .iter()
            .zip(&items)
            .map(|(&key, item)| {
                let pair = item.pair;
                memo?.restore(key, pairs[pair].golden, &fps[pair])
            })
            .collect();
        let reproof = reprove(workers, &spec.explore, &pairs, &items, &persisted);
        // Pool items: a chunk's counters, violations and joins (a restored
        // chunk explored nothing).
        let mut memo_windows = 0u64;
        let restored: Vec<Option<(CheckStats, Vec<Violation>, Joins)>> = reproof
            .restored
            .into_iter()
            .zip(&items)
            .map(|(slot, item)| {
                let (stats, violations) = slot?;
                memo_windows += item.end - item.start;
                Some((stats, violations, Joins::default()))
            })
            .collect();
        let resumed = restored.iter().flatten().count() as u64;

        sink.emit(Event::new(
            "check_started",
            vec![
                ("campaign", Value::Str(spec.name.clone())),
                ("pairs", Value::U64(pairs.len() as u64)),
                ("items", Value::U64(items.len() as u64)),
                ("workers", Value::U64(workers as u64)),
                ("resumed", Value::U64(resumed)),
                ("reproved", Value::U64(reproof.replays)),
                ("reprove_drains", Value::U64(reproof.drains)),
                ("reprove_joins", Value::U64(reproof.joins)),
            ],
        ));

        // The step budget is enforced post hoc (see
        // [`CheckCampaign::supervisor`]); unset means uncapped, not the
        // fleet's workload-derived default.
        let mut budget = self.sup.resolve_budget(0.0);
        budget.max_steps = self.sup.max_steps.unwrap_or(u64::MAX);

        let cfg = PoolConfig {
            workers,
            run_keys: &run_keys,
            sup: &self.sup,
            budget,
            halt_after: self.halt_after,
            stop: self.kill_switch.as_deref(),
            sink: &sink,
        };
        let pool = run_supervised(&cfg, restored, |i, budget, run_started| {
            let item = items[i];
            let p = &pairs[item.pair];
            let outcome = check_windows(&p.compiled, &spec.explore, item.start, item.end, p.golden);
            let (stats, joins) = (outcome.stats, outcome.joins);
            if stats.steps > budget.max_steps {
                return Err(AttemptFail {
                    steps: stats.steps,
                    wall_ms: run_started.elapsed().as_secs_f64() * 1e3,
                    partial: None,
                });
            }
            // One durable record per checked chunk, past the budget
            // check: a quarantined chunk leaves none behind.
            if let Some(memo) = memo {
                let fps = &fps[item.pair];
                memo.record(run_keys[i], fps, item.start, item.end, p.golden, &outcome);
            }
            let violations = outcome.violations;
            sink.emit(Event::new(
                "check_item_finished",
                vec![
                    ("item", Value::U64(i as u64)),
                    ("app", Value::Str(p.compiled.app.name.to_string())),
                    ("scheme", Value::Str(p.compiled.scheme.name().to_string())),
                    ("windows", Value::U64(stats.windows)),
                    ("violations", Value::U64(stats.violations)),
                ],
            ));
            Ok((stats, violations, joins))
        });
        // Checkpoint boundary: every chunk the pool recorded is forced to
        // stable storage before the report (or a compaction) can see it.
        // Per-chunk appends stay fsync-free to keep the hot path cheap.
        if let Some(memo) = memo {
            memo.sync();
        }
        let memo_drops = memo.map_or(0, |m| m.dropped() - memo_drops_before);

        // Deterministic merge, in item order (chunks of a pair are in
        // window order, so each pair's violations come out sorted).
        // Quarantined chunks land in `failures` instead of their pair.
        let mut results: Vec<PairReport> = pairs
            .iter()
            .map(|p| PairReport {
                app: p.compiled.app.name.to_string(),
                scheme: p.compiled.scheme,
                golden_steps: p.golden,
                depth: spec.explore.depth,
                stats: CheckStats::default(),
                violations: Vec::new(),
                counterexample: None,
            })
            .collect();
        let mut failures = Vec::new();
        let (mut drain_joins, mut sweep_joins) = (0u64, 0u64);
        for (item, slot) in items.iter().zip(pool.outcomes) {
            match slot {
                Some(ItemOutcome::Done((stats, violations, joins))) => {
                    results[item.pair].stats.absorb(&stats);
                    results[item.pair].violations.extend(violations);
                    drain_joins += joins.drains;
                    sweep_joins += joins.sweeps;
                }
                Some(ItemOutcome::Failed(f)) => failures.push(f),
                None => {} // left unclaimed by a halt
            }
        }

        // Shrink each failing pair's first violation on the job's workers
        // (every pair on its own replayer, so each counterexample is
        // deterministic), quarantined so a shrinker bug cannot take down
        // the campaign or the sibling pairs' counterexamples; merged in
        // pair order.
        if spec.shrink {
            let failing: Vec<usize> = (0..results.len())
                .filter(|&pair| !results[pair].violations.is_empty())
                .collect();
            let shrunk = fan_out(workers, &failing, |pair| {
                quarantine(|| {
                    shrink_schedule(
                        &pairs[pair].compiled,
                        &spec.explore,
                        &results[pair].violations[0].schedule,
                        pairs[pair].golden,
                        spec.shrink_budget,
                    )
                })
            });
            for (pair, shrunk) in failing.into_iter().zip(shrunk) {
                let report = &mut results[pair];
                match shrunk {
                    Ok(counterexample) => report.counterexample = Some(counterexample),
                    Err(payload) => failures.push(RunFailure::Panicked {
                        run_key: chunk_run_key(&report.app, report.scheme, u64::MAX, u64::MAX),
                        item: pair,
                        payload: format!("shrink panicked: {payload}"),
                    }),
                }
            }
        }

        let failed_runs = failures.len() as u64;
        let dropped_records = account_dropped(&*sink, memo_drops, &mut failures);

        let mut totals = CheckStats::default();
        for r in &results {
            totals.absorb(&r.stats);
        }
        let counters = FleetCounters {
            items: items.len() as u64,
            compile_misses: cache.misses(),
            compile_hits: cache.hits(),
            forks: totals.forks,
            states_explored: totals.explored,
            memo_hits: totals.memo_hits,
            violations: totals.violations,
            failures: failed_runs,
            resumed,
            dropped_records,
            journal_diagnostics: diagnostics.len() as u64,
            memo_windows,
            reproved: reproof.replays,
            reprove_drains: reproof.drains,
            reprove_joins: reproof.joins,
            drain_joins,
            sweep_joins,
        };
        let wall_s = started.elapsed().as_secs_f64();

        sink.emit(Event::new(
            "check_finished",
            vec![
                ("campaign", Value::Str(spec.name.clone())),
                ("pairs", Value::U64(results.len() as u64)),
                ("forks", Value::U64(counters.forks)),
                ("states_explored", Value::U64(counters.states_explored)),
                ("memo_hits", Value::U64(counters.memo_hits)),
                ("drain_joins", Value::U64(counters.drain_joins)),
                ("sweep_joins", Value::U64(counters.sweep_joins)),
                ("violations", Value::U64(counters.violations)),
                ("failures", Value::U64(counters.failures)),
                ("resumed", Value::U64(resumed)),
                ("halted", Value::Bool(pool.halted)),
                ("wall_s", Value::F64(wall_s)),
            ],
        ));
        sink.flush();

        Ok(CheckReport {
            name: spec.name.clone(),
            workers,
            results,
            totals,
            counters,
            failures,
            halted: pool.halted,
            memo_generation,
            wall_s,
        })
    }
}

/// The merged outcome of a checker campaign.
#[derive(Debug, Clone)]
pub struct CheckReport {
    /// Campaign name.
    pub name: String,
    /// Worker threads actually used.
    pub workers: usize,
    /// Per-pair reports, in (app × scheme) row-major order.
    pub results: Vec<PairReport>,
    /// All pair stats folded together.
    pub totals: CheckStats,
    /// Fleet-level counters (compile cache + exploration + supervision).
    pub counters: FleetCounters,
    /// Quarantined chunk/shrink failures, in item order (the trailing
    /// `SinkDropped` entry, if any, summarizes telemetry degradation).
    pub failures: Vec<RunFailure>,
    /// Whether `halt_after` or the kill switch stopped the campaign with
    /// chunks left unclaimed (a quota that covers every remaining chunk
    /// is no halt).
    pub halted: bool,
    /// The memo-store generation this run's verdicts belong to, when a
    /// store was attached — a proof-of-clean digest can name it to say
    /// *which* persisted evidence backs the claim. Not part of
    /// [`deterministic_digest`](CheckReport::deterministic_digest):
    /// cold and warm runs must certify identically.
    pub memo_generation: Option<u64>,
    /// Campaign wall time (s).
    pub wall_s: f64,
}

impl CheckReport {
    /// Whether every pair passed exhaustively. A report with quarantined
    /// failures is never clean: the failed chunks' windows were not
    /// checked, so no exhaustiveness claim holds.
    pub fn is_clean(&self) -> bool {
        self.results.iter().all(PairReport::is_clean) && self.failures.is_empty()
    }

    /// An FNV-1a digest over everything deterministic in the report
    /// (stats, violations, schedules, outcomes, counterexamples, failure
    /// identities). Equal digests across worker counts certify
    /// bit-identical results.
    pub fn deterministic_digest(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x1000_0000_01b3;
        let mut h = FNV_OFFSET;
        let mut eat = |word: u64| {
            h = (h ^ word).wrapping_mul(FNV_PRIME);
        };
        let eat_schedule = |eat: &mut dyn FnMut(u64), schedule: &[crate::PlannedInjection]| {
            eat(schedule.len() as u64);
            for inj in schedule {
                eat(inj.after_steps);
                eat(match inj.kind {
                    crate::InjectionKind::PowerFailure => 1,
                    crate::InjectionKind::SpoofedCheckpoint => 2,
                    crate::InjectionKind::SpoofedWakeup => 3,
                    crate::InjectionKind::InstructionSkip => 4,
                    crate::InjectionKind::InstructionCorrupt => 5,
                });
            }
        };
        let eat_outcome = |eat: &mut dyn FnMut(u64), outcome: crate::Outcome| match outcome {
            crate::Outcome::Clean => eat(1),
            crate::Outcome::Corrupt { got } => {
                eat(2);
                eat(got as u32 as u64);
            }
            crate::Outcome::Stuck => eat(3),
        };
        for (i, r) in self.results.iter().enumerate() {
            eat(i as u64);
            eat(r.golden_steps);
            eat(r.stats.windows);
            eat(r.stats.forks);
            eat(r.stats.explored);
            eat(r.stats.memo_hits);
            eat(r.stats.steps);
            eat(r.stats.violations);
            eat(r.violations.len() as u64);
            for v in &r.violations {
                eat(v.window);
                eat_schedule(&mut eat, &v.schedule);
                eat_outcome(&mut eat, v.outcome);
            }
            match &r.counterexample {
                None => eat(0),
                Some(c) => {
                    eat_schedule(&mut eat, &c.schedule);
                    eat_outcome(&mut eat, c.outcome);
                }
            }
        }
        for f in &self.failures {
            f.digest_into(&mut eat);
        }
        h
    }
}

/// Renders a fixed-width verdict table (one row per pair) plus totals —
/// the checker's counterpart to `gecko_fleet::fleet_summary`.
pub fn check_summary(report: &CheckReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "check {:?}: {} pair(s), {} worker(s), {:.2}s\n",
        report.name,
        report.results.len(),
        report.workers,
        report.wall_s
    ));
    out.push_str(&format!(
        "{:<10} {:<12} {:>8} {:>8} {:>9} {:>9} {:>8} {:>10}\n",
        "app", "scheme", "golden", "windows", "forks", "explored", "memo%", "violations"
    ));
    for r in &report.results {
        out.push_str(&format!(
            "{:<10} {:<12} {:>8} {:>8} {:>9} {:>9} {:>7.1}% {:>10}\n",
            r.app,
            r.scheme.name(),
            r.golden_steps,
            r.stats.windows,
            r.stats.forks,
            r.stats.explored,
            100.0 * r.stats.memo_hit_rate(),
            r.stats.violations,
        ));
    }
    out.push_str(&format!(
        "totals: {} forks, {} explored, {} memo hits ({:.1}%), {} violations\n",
        report.totals.forks,
        report.totals.explored,
        report.totals.memo_hits,
        100.0 * report.totals.memo_hit_rate(),
        report.totals.violations,
    ));
    let c = &report.counters;
    if !report.failures.is_empty() || c.resumed > 0 || report.halted {
        out.push_str(&format!(
            "supervision: {} failure(s), {} resumed, {} dropped record(s){}\n",
            c.failures,
            c.resumed,
            c.dropped_records,
            if report.halted { " [halted]" } else { "" },
        ));
        for f in &report.failures {
            out.push_str(&format!("  {} {}\n", f.kind().name(), f.describe()));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gecko_store::{LogConfig, SegmentedLog, Verdict};
    use std::path::{Path, PathBuf};

    use crate::memostore::classify_memo_lines;

    /// A fresh store directory holding exactly `lines`.
    fn store_dir(tag: &str, lines: &[String]) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("gecko-check-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let log = SegmentedLog::open(&dir, LogConfig::default()).unwrap();
        for line in lines {
            log.append(line);
        }
        dir
    }

    fn diagnostics_of(dir: &Path) -> Vec<JournalDiagnostic> {
        let diagnostics = MemoStore::open(dir).unwrap().diagnostics().to_vec();
        let _ = std::fs::remove_dir_all(dir);
        diagnostics
    }

    /// A complete `memo_slab` record of run key `run_key` whose one
    /// violation is `viols`.
    fn slab_with(run_key: u64, viols: &str) -> String {
        format!(
            r#"{{"kind":"memo_slab","run_key":{run_key},"start":0,"end":8,"done":8,"golden":100,"program_fp":1,"rfp":2,"regions":"1","windows":8,"forks":1,"explored":1,"memo_hits":0,"steps":5,"violations":1,"viols":"{viols}"}}"#
        )
    }

    #[test]
    fn fault_kinds_roundtrip_through_the_wire_codec() {
        let schedule = vec![
            PlannedInjection {
                after_steps: 12,
                kind: InjectionKind::InstructionSkip,
            },
            PlannedInjection {
                after_steps: 3,
                kind: InjectionKind::InstructionCorrupt,
            },
            PlannedInjection {
                after_steps: 0,
                kind: InjectionKind::PowerFailure,
            },
        ];
        let text = encode_schedule(&schedule);
        assert_eq!(text, "12k,3x,0p");
        assert_eq!(decode_schedule(&text, "s").unwrap(), schedule);
    }

    #[test]
    fn unknown_tags_are_kept_on_prune_and_surfaced_as_diagnostics() {
        // A record as a future release might write it: same structure,
        // one injection tag ('z') this binary does not know.
        let meta = r#"{"kind":"memo_meta","name":"check","fingerprint":1,"generation":1}"#;
        let lines = vec![
            meta.to_string(),
            slab_with(1, "7|5p|stuck"),
            slab_with(99, "7|5z|clean"),
        ];

        // The classifier must NOT delete it: a newer binary could still
        // restore from it.
        assert_eq!(classify_memo_lines(&lines), vec![Verdict::Keep; 3]);

        // And opening the store surfaces a path-carrying diagnostic
        // instead of silently dropping the record.
        let diags = diagnostics_of(&store_dir("future-tag", &lines));
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].line, 2);
        assert_eq!(diags[0].path, "viols[0].schedule[0]");
        assert!(
            diags[0].message.contains("\"z\""),
            "got {:?}",
            diags[0].message
        );

        // An unknown *outcome* word is likewise diagnosed, not dropped.
        let odd = slab_with(5, "0|1p|detected");
        let diags = diagnostics_of(&store_dir("future-outcome", std::slice::from_ref(&odd)));
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].path, "viols[0].outcome");
        assert_eq!(classify_memo_lines(&[odd]), vec![Verdict::Keep]);
    }

    #[test]
    fn fingerprint_hashes_the_effective_chunk_size() {
        // The run loop clamps a raw 0 (set through the pub field) to 1,
        // so the fingerprint must too: both specs chunk the grid
        // identically and must answer from each other's memo stores.
        let keys = [1u64, 2, 3];
        let mut zero = CheckSpec::new("t");
        zero.chunk_windows = 0;
        let one = CheckSpec::new("t").chunk_windows(1);
        assert_eq!(zero.fingerprint(&keys), one.fingerprint(&keys));
        let two = CheckSpec::new("t").chunk_windows(2);
        assert_ne!(one.fingerprint(&keys), two.fingerprint(&keys));
    }

    #[test]
    fn identity_hashes_are_pinned() {
        // Run journals, memo stores and served memo directories are keyed on
        // these byte-wise FNV-1a values, so they must never drift: a
        // changed value orphans every persisted record written before.
        let fleet = gecko_fleet::CampaignSpec::new("pin")
            .apps(["crc16"])
            .schemes([SchemeKind::Gecko])
            .seeds([1])
            .workload(gecko_fleet::Workload::RunFor { seconds: 0.005 });
        let item = fleet.expand()[0];
        assert_eq!(fleet.run_key(&item), 0xe7a4_6751_9c81_4a86);
        assert_eq!(fleet.fingerprint(), 0x17fb_433b_cb65_6666);

        let key = chunk_run_key("crc16", SchemeKind::Gecko, 0, 512);
        assert_eq!(key, 0x1f65_5ed4_c547_a73d);
        assert_eq!(
            CheckSpec::new("pin").fingerprint(&[key]),
            0x1d76_2b28_fb9a_292f
        );

        let app = gecko_apps::app_by_name("crc16").unwrap();
        let compiled =
            CompiledApp::build(&app, SchemeKind::Gecko, &CompileOptions::default()).unwrap();
        let fps = fingerprint_program(&compiled.program, &compiled.recovery);
        assert_eq!(fps.program, 0x3065_f853_c8b5_0878);
        assert_eq!(
            fps.region_set_digest(fps.regions.keys().copied()),
            Some(0x64c0_9025_621a_a290)
        );
    }

    #[test]
    fn undecodable_journal_lines_are_counted_in_the_report() {
        let spec = CheckSpec::new("diag")
            .apps([crate::testprog::war_counter_app(3)])
            .schemes([SchemeKind::Gecko])
            .explore(ExploreConfig::default().with_max_windows(6));
        let dir = store_dir(
            "undecodable",
            &[r#"{"kind":"memo_slab","run_key":"oops"}"#.to_string()],
        );
        let store = Arc::new(MemoStore::open(&dir).unwrap());
        let report = CheckCampaign::new(spec).memo(store).run().unwrap();
        assert_eq!(report.counters.journal_diagnostics, 1);
        assert!(report.is_clean());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
