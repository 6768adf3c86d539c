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
//! killing the campaign, budgets and bounded retry apply per chunk, and a
//! [`Journal`] of completed chunks lets a killed campaign resume
//! bit-exactly. Checker journal lines use their own vocabulary
//! (`chunk_done`) on top of the fleet's line format; a journaled
//! violation stores only its schedule and outcome — the
//! [`Blame`](crate::verdict::Blame) context is rebuilt on resume by
//! [`crate::shrink::replay`], which is deterministic.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use gecko_apps::App;
use gecko_compiler::{fingerprint_program, CompileError, CompileOptions, ProgramFingerprints};
use gecko_fleet::journal::{decode_header_record, encode_header};
use gecko_fleet::{
    quarantine, run_supervised, AttemptFail, ChaosSink, ChaosSpec, Event, FleetCounters, Frontier,
    Journal, NullSink, PoolConfig, ProgramCache, RunFailure, SupervisorSpec, TelemetrySink,
};
use gecko_sim::device::CompiledApp;
use gecko_sim::report::{json_kv, Json, Value};
use gecko_sim::{SchemeKind, Simulator};
use gecko_store::Verdict;

use crate::explore::{
    check_windows, check_windows_resumed, golden_steps, ExploreConfig, GoldenError, NullObserver,
    SlabPrefix,
};
use crate::memostore::{MemoStore, SlabWriter};
use crate::shrink::{replay, shrink_schedule};
use crate::verdict::{CheckStats, InjectionKind, PairReport, PlannedInjection, Violation};
use crate::Outcome;

thread_local! {
    /// Worker-local simulator carry: `(pair, golden position, simulator)`
    /// left behind by the last chunk this worker completed. When the same
    /// worker claims the adjacent chunk of the same pair — the common case
    /// under the frontier's contiguous leases — the carried simulator is
    /// already positioned on the chunk's first window and the O(start)
    /// re-advance is skipped. Pure wall-clock: the golden-trace state at a
    /// step is unique, so a carried simulator is bit-identical to a fresh
    /// one advanced to the same step, and `CheckStats` never count the
    /// repositioning either way.
    static SIM_CARRY: RefCell<Option<(usize, u64, Simulator)>> = const { RefCell::new(None) };
}

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

    /// FNV-1a fingerprint of everything a resumed journal must agree on:
    /// the grid (via the chunk run keys), the exploration policy, the
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
        // identically — otherwise a resume journal written by one would
        // be spuriously dropped by the other.
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
    /// The resume journal belongs to a different spec.
    Journal(String),
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
            CheckError::Journal(msg) => write!(f, "resume journal rejected: {msg}"),
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
    let (stats, violations) = check_windows(compiled, explore, 0, windows, golden);
    let mut report = PairReport {
        app: compiled.app.name.to_string(),
        scheme: compiled.scheme,
        golden_steps: golden,
        depth: explore.depth,
        stats,
        violations,
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
// Chunk identity + journal codec
// ---------------------------------------------------------------------------

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x1000_0000_01b3;

pub(crate) fn fnv_u64(mut h: u64, v: u64) -> u64 {
    for byte in v.to_le_bytes() {
        h = (h ^ byte as u64).wrapping_mul(FNV_PRIME);
    }
    h
}

pub(crate) fn fnv_str(mut h: u64, s: &str) -> u64 {
    h = fnv_u64(h, s.len() as u64);
    for byte in s.bytes() {
        h = (h ^ byte as u64).wrapping_mul(FNV_PRIME);
    }
    h
}

/// Stable identity of one chunk: content-addressed by (app, scheme,
/// window range), so it survives spec reordering-neutral edits and keys
/// the chaos/backoff/journal streams.
fn chunk_run_key(app: &str, scheme: SchemeKind, start: u64, end: u64) -> u64 {
    let mut h = FNV_OFFSET;
    h = fnv_str(h, app);
    h = fnv_str(h, scheme.name());
    h = fnv_u64(h, start);
    h = fnv_u64(h, end);
    h
}

/// Journal line kind for one completed checker chunk (the checker's
/// `run_done` analogue; the header line is shared with `gecko_fleet`).
const CHUNK_DONE: &str = "chunk_done";

/// A violation as journaled: schedule + outcome only. `Blame` is derived
/// state and is rebuilt by a deterministic [`replay`] on resume.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct JournaledViolation {
    pub(crate) window: u64,
    pub(crate) schedule: Vec<PlannedInjection>,
    pub(crate) outcome: Outcome,
}

#[derive(Debug, PartialEq)]
struct JournaledChunk {
    item: usize,
    stats: CheckStats,
    violations: Vec<JournaledViolation>,
}

/// Why one `chunk_done` journal line could not be decoded. Split so the
/// prune classifier and resume diagnostics can tell dead weight from
/// forward-compatible records.
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

/// A diagnostic from decoding a resume journal: which line failed, where
/// in the record, and why. Returned by [`check_journal_diagnostics`] and
/// emitted as `journal_line_undecodable` telemetry on resume.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalDiagnostic {
    /// 0-based line number in the journal.
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
    fn from_error(line: usize, error: &ChunkLineError) -> JournalDiagnostic {
        match error {
            ChunkLineError::Malformed { path } => JournalDiagnostic {
                line,
                path: path.clone(),
                message: "malformed chunk record".to_string(),
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
pub(crate) fn encode_schedule(schedule: &[PlannedInjection]) -> String {
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

pub(crate) fn decode_schedule(
    text: &str,
    path: &str,
) -> Result<Vec<PlannedInjection>, ChunkLineError> {
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

/// One completed chunk as a single journal line (single-line records are
/// torn-write safe by construction: a half-written line fails to parse
/// and the chunk is simply re-run).
fn encode_chunk(run_key: u64, item: usize, stats: &CheckStats, violations: &[Violation]) -> String {
    let viols: Vec<String> = violations
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
    json_kv(&[
        ("kind", Value::Str(CHUNK_DONE.to_string())),
        ("run_key", Value::U64(run_key)),
        ("item", Value::U64(item as u64)),
        ("windows", Value::U64(stats.windows)),
        ("forks", Value::U64(stats.forks)),
        ("explored", Value::U64(stats.explored)),
        ("memo_hits", Value::U64(stats.memo_hits)),
        ("steps", Value::U64(stats.steps)),
        ("violations", Value::U64(stats.violations)),
        ("viols", Value::Str(viols.join(";"))),
    ])
}

/// Decodes one parsed `chunk_done` line. `None` means the line is not a
/// chunk record at all (foreign vocabulary); `Some(Err(_))` is a chunk
/// record this binary cannot use, with a path-carrying reason. Shared
/// between journal replay and the prune classifier so both agree on what
/// "decodable" means.
fn decode_chunk_line(rec: &Json) -> Option<Result<(u64, JournaledChunk), ChunkLineError>> {
    if rec.get("kind")?.as_str()? != CHUNK_DONE {
        return None;
    }
    Some(decode_chunk_fields(rec))
}

fn decode_chunk_fields(rec: &Json) -> Result<(u64, JournaledChunk), ChunkLineError> {
    let u = |name: &str| {
        rec.get(name)
            .and_then(Json::as_u64)
            .ok_or_else(|| ChunkLineError::Malformed {
                path: name.to_string(),
            })
    };
    let run_key = u("run_key")?;
    let stats = CheckStats {
        windows: u("windows")?,
        forks: u("forks")?,
        explored: u("explored")?,
        memo_hits: u("memo_hits")?,
        steps: u("steps")?,
        violations: u("violations")?,
    };
    let viols_text =
        rec.get("viols")
            .and_then(Json::as_str)
            .ok_or_else(|| ChunkLineError::Malformed {
                path: "viols".to_string(),
            })?;
    let mut violations = Vec::new();
    if !viols_text.is_empty() {
        for (vi, part) in viols_text.split(';').enumerate() {
            let mut cols = part.splitn(3, '|');
            let col = |cols: &mut std::str::SplitN<'_, char>, name: &str| {
                cols.next()
                    .map(str::to_string)
                    .ok_or_else(|| ChunkLineError::Malformed {
                        path: format!("viols[{vi}].{name}"),
                    })
            };
            let window: u64 =
                col(&mut cols, "window")?
                    .parse()
                    .map_err(|_| ChunkLineError::Malformed {
                        path: format!("viols[{vi}].window"),
                    })?;
            let schedule = decode_schedule(
                &col(&mut cols, "schedule")?,
                &format!("viols[{vi}].schedule"),
            )?;
            let outcome =
                decode_outcome(&col(&mut cols, "outcome")?, &format!("viols[{vi}].outcome"))?;
            violations.push(JournaledViolation {
                window,
                schedule,
                outcome,
            });
        }
    }
    Ok((
        run_key,
        JournaledChunk {
            item: u("item")? as usize,
            stats,
            violations,
        },
    ))
}

/// A decoded checker journal: header (if any), completed chunks keyed by
/// run key, and one diagnostic per chunk line that failed to decode.
type DecodedJournal = (
    Option<(String, u64)>,
    HashMap<u64, JournaledChunk>,
    Vec<JournalDiagnostic>,
);

/// Replays a checker journal: header (if any) plus completed chunks keyed
/// by run key, plus one diagnostic per chunk line that failed to decode.
/// Unparseable non-chunk lines are skipped; later duplicates win.
fn decode_chunks(lines: &[String]) -> DecodedJournal {
    let mut header = None;
    let mut chunks = HashMap::new();
    let mut diagnostics = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        let Some(rec) = Json::parse_flat(line) else {
            continue;
        };
        if let Some(h) = decode_header_record(&rec) {
            header.get_or_insert(h);
            continue;
        }
        match decode_chunk_line(&rec) {
            Some(Ok((run_key, chunk))) => {
                chunks.insert(run_key, chunk);
            }
            Some(Err(error)) => diagnostics.push(JournalDiagnostic::from_error(i, &error)),
            None => {}
        }
    }
    (header, chunks, diagnostics)
}

/// Scans a checker journal and returns one diagnostic per `chunk_done`
/// line that could not be decoded, with the dotted path of the offending
/// field. Records using unknown tags — a journal written by a newer
/// vocabulary — are reported here (and re-explored on resume) rather
/// than silently dropped.
pub fn check_journal_diagnostics(lines: &[String]) -> Vec<JournalDiagnostic> {
    decode_chunks(lines).2
}

/// Classifies a checker journal for [`gecko_store::LogCompactor`]: marks
/// [`Verdict::Delete`] on exactly the lines no decoder — present or
/// future — can use: unparseable garbage, duplicate headers,
/// structurally broken `chunk_done` lines, and `chunk_done` lines
/// superseded by a later record with the same run key. Lines in a
/// foreign but parseable vocabulary are kept, and so are `chunk_done`
/// lines carrying *unknown tags* (a newer writer's records): pruning
/// those would destroy data a newer binary could still resume from.
pub fn classify_check_lines(lines: &[String]) -> Vec<Verdict> {
    let mut verdicts = vec![Verdict::Keep; lines.len()];
    let mut saw_header = false;
    // Latest decodable chunk_done line per run key wins; all earlier
    // ones are dead weight the decoder would overwrite anyway.
    let mut last_chunk: HashMap<u64, usize> = HashMap::new();
    for (i, line) in lines.iter().enumerate() {
        let Some(rec) = Json::parse_flat(line) else {
            verdicts[i] = Verdict::Delete; // garbage: decoder skips it
            continue;
        };
        if decode_header_record(&rec).is_some() {
            if saw_header {
                verdicts[i] = Verdict::Delete; // decode keeps the first
            }
            saw_header = true;
            continue;
        }
        match decode_chunk_line(&rec) {
            Some(Ok((run_key, _))) => {
                if let Some(prev) = last_chunk.insert(run_key, i) {
                    verdicts[prev] = Verdict::Delete;
                }
            }
            // Structurally broken: invisible to every decoder.
            Some(Err(ChunkLineError::Malformed { .. })) => verdicts[i] = Verdict::Delete,
            // Unknown vocabulary: forward-compatible data, keep it.
            Some(Err(ChunkLineError::UnknownTag { .. })) => {}
            // Not a chunk record: a foreign writer's line, keep it.
            None => {}
        }
    }
    verdicts
}

/// One claimable unit of checker work: a window chunk of one pair.
#[derive(Debug, Clone, Copy)]
struct WorkItem {
    pair: usize,
    start: u64,
    end: u64,
}

/// A runnable checker campaign: spec + workers + telemetry sink +
/// supervision policy.
pub struct CheckCampaign {
    spec: CheckSpec,
    workers: usize,
    sink: Arc<dyn TelemetrySink>,
    sup: SupervisorSpec,
    journal: Option<Arc<Journal>>,
    memo: Option<Arc<MemoStore>>,
    steal_bias: u64,
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
            journal: None,
            memo: None,
            steal_bias: 500,
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

    /// Attaches a journal (builder style): completed chunks are appended
    /// as they finish, and chunks already present are skipped on [`run`]
    /// (their violations' blame context is rebuilt by deterministic
    /// replay).
    ///
    /// [`run`]: CheckCampaign::run
    pub fn journal(mut self, journal: Arc<Journal>) -> CheckCampaign {
        self.journal = Some(journal);
        self
    }

    /// Alias for [`CheckCampaign::journal`], reading as intent.
    pub fn resume(self, journal: Arc<Journal>) -> CheckCampaign {
        self.journal(journal)
    }

    /// Attaches a durable memo store (builder style): every chunk's
    /// logical-state memo table and completion frontier persist through
    /// [`MemoStore`] as the chunk explores, and a later campaign over the
    /// same spec answers complete chunks from disk, resumes partial ones
    /// mid-chunk, and re-explores only chunks whose blamed compiled
    /// regions changed (DESIGN.md §18). Results are bit-identical with
    /// and without a store, cold or warm.
    pub fn memo(mut self, memo: Arc<MemoStore>) -> CheckCampaign {
        self.memo = Some(memo);
        self
    }

    /// Sets the work-stealing split bias in permille — the fraction of a
    /// stolen lease its victim keeps (builder style; clamped to ≤ 999,
    /// default 500 = halving). Pure scheduling: results are bit-identical
    /// for any value.
    pub fn steal_bias(mut self, permille: u64) -> CheckCampaign {
        self.steal_bias = permille;
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
    /// workers finish the window chunk they are exploring, journal it,
    /// and stop claiming new chunks (`halted` in the report). A journaled
    /// check campaign then resumes bit-exactly.
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
    /// item order, then shrink each failing pair's first violation.
    ///
    /// A chunk that panics (or blows its budget, or keeps failing
    /// transiently) is quarantined into [`CheckReport::failures`]; every
    /// other chunk's result — including violations found by sibling
    /// chunks, which still shrink — is unaffected.
    ///
    /// # Errors
    ///
    /// The first (in pair order) compile or golden-run error, or
    /// [`CheckError::Journal`] when a resume journal's fingerprint does
    /// not match this spec.
    pub fn run(&self) -> Result<CheckReport, CheckError> {
        let spec = &self.spec;
        if spec.apps.is_empty() || spec.schemes.is_empty() {
            return Err(CheckError::EmptyGrid);
        }
        let started = Instant::now();
        let cache = ProgramCache::new();

        // Phase 1 (sequential, pair order): compile + golden trace.
        struct Pair {
            compiled: Arc<CompiledApp>,
            golden: u64,
            windows: u64,
        }
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
        let chaos = self.sup.chaos;
        let sink: Arc<dyn TelemetrySink> = if chaos.sink_fail_per_mille > 0 {
            Arc::new(ChaosSink::new(
                Arc::clone(&self.sink),
                chaos.seed,
                chaos.sink_fail_per_mille,
            ))
        } else {
            Arc::clone(&self.sink)
        };

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
        let fps: Vec<ProgramFingerprints> = if self.memo.is_some() {
            pairs
                .iter()
                .map(|p| fingerprint_program(&p.compiled.program, &p.compiled.recovery))
                .collect()
        } else {
            Vec::new()
        };
        let memo_generation = self.memo.as_ref().map(|m| m.begin(&spec.name, fingerprint));

        // Restore completed chunks from the journal (and stamp the header
        // on a fresh one). A journaled violation carries no blame — that
        // is rebuilt here by replaying its schedule, and the chunk is
        // rejected (re-run) if the replay disagrees with the journal.
        let mut skip = vec![false; items.len()];
        let mut restored: Vec<Option<(CheckStats, Vec<Violation>)>> = Vec::new();
        restored.resize_with(items.len(), || None);
        let mut journal_diagnostics = 0u64;
        if let Some(journal) = &self.journal {
            let (header, chunks, diagnostics) = decode_chunks(&journal.lines());
            journal_diagnostics = diagnostics.len() as u64;
            // Surface undecodable chunk lines instead of silently
            // re-exploring them: an unknown tag means the journal was
            // written by a different (likely newer) vocabulary.
            for d in &diagnostics {
                sink.emit(Event::new(
                    "journal_line_undecodable",
                    vec![
                        ("line", Value::U64(d.line as u64)),
                        ("path", Value::Str(d.path.clone())),
                        ("message", Value::Str(d.message.clone())),
                    ],
                ));
            }
            match header {
                Some((name, fp)) if fp != fingerprint => {
                    return Err(CheckError::Journal(format!(
                        "journal belongs to check {name:?} (fingerprint {fp:#018x}), \
                         not this spec (fingerprint {fingerprint:#018x})"
                    )));
                }
                Some(_) => {}
                None => journal.append(&encode_header(&spec.name, fingerprint)),
            }
            for (i, key) in run_keys.iter().enumerate() {
                let Some(chunk) = chunks.get(key) else {
                    continue;
                };
                if chunk.item != i {
                    continue;
                }
                let p = &pairs[items[i].pair];
                let mut violations = Vec::with_capacity(chunk.violations.len());
                let mut consistent = true;
                for jv in &chunk.violations {
                    let (outcome, blame) =
                        replay(&p.compiled, &spec.explore, &jv.schedule, p.golden);
                    if outcome != jv.outcome {
                        consistent = false;
                        break;
                    }
                    violations.push(Violation {
                        window: jv.window,
                        schedule: jv.schedule.clone(),
                        outcome,
                        blame,
                    });
                }
                if consistent {
                    skip[i] = true;
                    restored[i] = Some((chunk.stats, violations));
                }
            }
        }

        // Memo restore pass (after the journal's — this campaign's own
        // completed chunks win). A complete slab answers the whole chunk
        // from disk; a partial slab becomes a [`SlabPrefix`] and the
        // chunk resumes mid-slab. Violations are replay-validated exactly
        // like journaled ones before anything is trusted.
        let mut prefixes: Vec<Mutex<Option<SlabPrefix>>> = Vec::new();
        prefixes.resize_with(items.len(), Default::default);
        let mut memo_windows = 0u64;
        if let Some(memo) = &self.memo {
            for (i, key) in run_keys.iter().enumerate() {
                if skip[i] {
                    continue;
                }
                let item = items[i];
                let p = &pairs[item.pair];
                let Some(slab) = memo.restore(*key, p.golden, &fps[item.pair]) else {
                    continue;
                };
                let mut violations = Vec::with_capacity(slab.violations.len());
                let mut consistent = true;
                for jv in &slab.violations {
                    let (outcome, blame) =
                        replay(&p.compiled, &spec.explore, &jv.schedule, p.golden);
                    if outcome != jv.outcome {
                        consistent = false;
                        break;
                    }
                    violations.push(Violation {
                        window: jv.window,
                        schedule: jv.schedule.clone(),
                        outcome,
                        blame,
                    });
                }
                if !consistent {
                    continue;
                }
                memo_windows += slab.done;
                if slab.done >= slab.total {
                    skip[i] = true;
                    restored[i] = Some((slab.stats, violations));
                } else {
                    *prefixes[i].lock().unwrap_or_else(|p| p.into_inner()) = Some(SlabPrefix {
                        windows_done: slab.done,
                        stats: slab.stats,
                        violations,
                        regions: slab.regions,
                        memo: slab.memo,
                    });
                }
            }
        }
        let resumed = skip.iter().filter(|&&s| s).count() as u64;

        sink.emit(Event::new(
            "check_started",
            vec![
                ("campaign", Value::Str(spec.name.clone())),
                ("pairs", Value::U64(pairs.len() as u64)),
                ("items", Value::U64(items.len() as u64)),
                ("workers", Value::U64(workers as u64)),
                ("resumed", Value::U64(resumed)),
            ],
        ));

        // The step budget is enforced post hoc (see
        // [`CheckCampaign::supervisor`]); unset means uncapped, not the
        // fleet's workload-derived default.
        let mut budget = self.sup.resolve_budget(0.0);
        budget.max_steps = self.sup.max_steps.unwrap_or(u64::MAX);

        // Work-stealing frontier: one contiguous index range per pair, so
        // a worker's lease is a run of adjacent chunks (the simulator-
        // carry fast path) and it steals across pairs only when its own
        // run dries up. Skipped (restored) indices stay inside the ranges
        // — the pool accounts for them without re-running anything.
        let mut ranges: Vec<(usize, usize)> = Vec::new();
        let mut prev_pair = usize::MAX;
        for (i, item) in items.iter().enumerate() {
            if item.pair == prev_pair {
                ranges.last_mut().expect("non-empty on repeat pair").1 = i + 1;
            } else {
                ranges.push((i, i + 1));
                prev_pair = item.pair;
            }
        }
        let frontier = Frontier::new(&ranges, workers).with_bias(self.steal_bias);

        let pool_cfg = PoolConfig {
            workers,
            run_keys: &run_keys,
            skip: &skip,
            sup: &self.sup,
            budget,
            halt_after: self.halt_after.map(|n| n + resumed),
            stop: self.kill_switch.as_deref(),
            claim: Some(&frontier),
            sink: &sink,
        };
        let journal = self.journal.as_deref();
        let pool = run_supervised(&pool_cfg, |i, attempt, budget, attempt_started| {
            let item = items[i];
            let p = &pairs[item.pair];
            // A restored partial slab is taken (not cloned): a retry after
            // a failed attempt re-explores from scratch, which is the
            // uninterrupted run by definition.
            let prefix = prefixes[i].lock().unwrap_or_else(|e| e.into_inner()).take();
            let prefix_done = prefix.as_ref().map_or(0, |pre| pre.windows_done);
            // Reuse this worker's parked simulator when it is positioned
            // exactly on this chunk's first unchecked window (see
            // `SIM_CARRY`); otherwise a fresh one re-advances.
            let carry = SIM_CARRY.with(|c| match c.borrow_mut().take() {
                Some((pair, pos, sim)) if pair == item.pair && pos == item.start + prefix_done => {
                    Some(sim)
                }
                _ => None,
            });
            let (outcome, end_sim) = if let Some(memo) = &self.memo {
                let mut writer = SlabWriter::new(
                    memo,
                    &fps[item.pair],
                    run_keys[i],
                    item.start,
                    item.end,
                    p.golden,
                    prefix_done,
                );
                let out = check_windows_resumed(
                    &p.compiled,
                    &spec.explore,
                    item.start,
                    item.end,
                    p.golden,
                    carry,
                    prefix,
                    &mut writer,
                );
                writer.finish(&out.0);
                out
            } else {
                check_windows_resumed(
                    &p.compiled,
                    &spec.explore,
                    item.start,
                    item.end,
                    p.golden,
                    carry,
                    prefix,
                    &mut NullObserver,
                )
            };
            let stats = outcome.stats;
            let violations = outcome.violations;
            if stats.steps > budget.max_steps {
                return Err(AttemptFail::TimedOut {
                    steps: stats.steps,
                    wall_ms: attempt_started.elapsed().as_secs_f64() * 1e3,
                    partial: None,
                });
            }
            if let Some(journal) = journal {
                journal.append(&encode_chunk(run_keys[i], i, &stats, &violations));
            }
            // Park the end-positioned simulator for the adjacent chunk.
            SIM_CARRY.with(|c| *c.borrow_mut() = Some((item.pair, item.end, end_sim)));
            sink.emit(Event::new(
                "check_item_finished",
                vec![
                    ("item", Value::U64(i as u64)),
                    ("attempt", Value::U64(attempt as u64)),
                    ("app", Value::Str(p.compiled.app.name.to_string())),
                    ("scheme", Value::Str(p.compiled.scheme.name().to_string())),
                    ("windows", Value::U64(stats.windows)),
                    ("violations", Value::U64(stats.violations)),
                ],
            ));
            Ok((stats, violations))
        });
        // Checkpoint boundary: every chunk journaled by the pool is
        // forced to stable storage before the report claims it happened.
        // Per-chunk appends stay fsync-free to keep the hot path cheap.
        if let Some(journal) = journal {
            journal.sync();
        }
        // Same boundary for the memo store: records appended by the pool
        // are durable before the report (or a pruner) can see them.
        if let Some(memo) = &self.memo {
            memo.sync();
        }

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
        for (i, (item, slot)) in items.iter().zip(pool.outcomes).enumerate() {
            if skip[i] {
                let (stats, violations) = restored[i].take().expect("restored above");
                results[item.pair].stats.absorb(&stats);
                results[item.pair].violations.extend(violations);
                continue;
            }
            match slot {
                None => debug_assert!(pool.halted, "item {i} unclaimed without a halt"),
                Some(gecko_fleet::ItemOutcome::Done((stats, violations))) => {
                    results[item.pair].stats.absorb(&stats);
                    results[item.pair].violations.extend(violations);
                }
                Some(gecko_fleet::ItemOutcome::Failed(f)) => failures.push(f),
            }
        }

        // Shrink (sequential, pair order — itself deterministic, and
        // quarantined so a shrinker bug cannot take down the campaign or
        // the sibling pairs' counterexamples).
        if spec.shrink {
            for (pair, report) in results.iter_mut().enumerate() {
                let Some(first) = report.violations.first() else {
                    continue;
                };
                let schedule = first.schedule.clone();
                let shrunk = quarantine(|| {
                    shrink_schedule(
                        &pairs[pair].compiled,
                        &spec.explore,
                        &schedule,
                        pairs[pair].golden,
                        spec.shrink_budget,
                    )
                });
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

        let dropped_records =
            sink.dropped_records() + self.journal.as_ref().map_or(0, |j| j.dropped());
        if dropped_records > 0 {
            sink.emit(Event::new(
                "sink_dropped",
                vec![("dropped", Value::U64(dropped_records))],
            ));
            failures.push(RunFailure::SinkDropped {
                dropped: dropped_records,
            });
        }

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
            failures: failures
                .iter()
                .filter(|f| !matches!(f, RunFailure::SinkDropped { .. }))
                .count() as u64,
            retries: pool.retries,
            resumed,
            dropped_records,
            journal_diagnostics,
            memo_windows,
            frontier_steals: frontier.steals(),
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
    /// Whether the pool stopped early because `halt_after` was reached.
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
            "supervision: {} failure(s), {} retried attempt(s), {} resumed, \
             {} dropped record(s){}\n",
            c.failures,
            c.retries,
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
mod golden;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verdict::Blame;

    fn sample_chunk(run_key: u64, item: usize, windows: u64) -> String {
        let stats = CheckStats {
            windows,
            forks: 3,
            explored: 9,
            memo_hits: 2,
            steps: 40,
            violations: 1,
        };
        let violations = vec![Violation {
            window: 7,
            schedule: vec![PlannedInjection {
                after_steps: 5,
                kind: InjectionKind::PowerFailure,
            }],
            outcome: Outcome::Stuck,
            blame: Blame {
                region: None,
                block: None,
                boundary_index: None,
                recovery_slots: 0,
                recovery_recomputes: 0,
                checkpoint_pc: None,
                detail: String::new(),
            },
        }];
        encode_chunk(run_key, item, &stats, &violations)
    }

    #[test]
    fn classifier_only_deletes_lines_the_decoder_ignores() {
        let lines = vec![
            encode_header("check", 0xBEEF),
            sample_chunk(11, 0, 512), // superseded by the later key-11 record
            "not json at all".to_string(),
            r#"{"kind":"chunk_done","run_key":"oops"}"#.to_string(), // undecodable
            r#"{"kind":"run_done","run_key":9}"#.to_string(),        // foreign vocabulary
            sample_chunk(11, 0, 640),
            encode_header("check", 0xBEEF), // duplicate header
            sample_chunk(12, 1, 512),
        ];
        let verdicts = classify_check_lines(&lines);
        let pruned: Vec<String> = lines
            .iter()
            .zip(&verdicts)
            .filter(|(_, v)| **v == Verdict::Keep)
            .map(|(l, _)| l.clone())
            .collect();

        // The invariant the compactor relies on: pruning is invisible to
        // the decoder (diagnostics differ — the pruned lines were
        // exactly the diagnosed ones — so compare header + chunks).
        let (h_all, c_all, _) = decode_chunks(&lines);
        let (h_pruned, c_pruned, _) = decode_chunks(&pruned);
        assert_eq!((h_all, c_all), (h_pruned, c_pruned));

        // Exactly the dead lines go: stale chunk, garbage, broken chunk,
        // duplicate header. The foreign run_done line survives.
        assert_eq!(pruned.len(), 4);
        assert!(pruned.iter().any(|l| l.contains("run_done")));
        let (header, chunks, _) = decode_chunks(&pruned);
        assert_eq!(header, Some(("check".to_string(), 0xBEEF)));
        assert_eq!(chunks.len(), 2);
        assert_eq!(chunks[&11].stats.windows, 640);
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
        let future = r#"{"kind": "chunk_done", "run_key": 99, "item": 3, "windows": 8, "forks": 1, "explored": 1, "memo_hits": 0, "steps": 5, "violations": 1, "viols": "7|5z|clean"}"#
            .to_string();
        let lines = vec![encode_header("check", 1), sample_chunk(1, 0, 512), future];

        // The classifier must NOT delete it: a newer binary could still
        // resume from it.
        assert_eq!(classify_check_lines(&lines), vec![Verdict::Keep; 3]);

        // And the decode surfaces a path-carrying diagnostic instead of
        // silently dropping the record.
        let diags = check_journal_diagnostics(&lines);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].line, 2);
        assert_eq!(diags[0].path, "viols[0].schedule[0]");
        assert!(
            diags[0].message.contains("\"z\""),
            "got {:?}",
            diags[0].message
        );

        // An unknown *outcome* word is likewise diagnosed, not dropped.
        let odd = r#"{"kind": "chunk_done", "run_key": 5, "item": 0, "windows": 1, "forks": 1, "explored": 1, "memo_hits": 0, "steps": 1, "violations": 1, "viols": "0|1p|detected"}"#
            .to_string();
        let diags = check_journal_diagnostics(std::slice::from_ref(&odd));
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].path, "viols[0].outcome");
        assert_eq!(classify_check_lines(&[odd]), vec![Verdict::Keep]);
    }

    #[test]
    fn classifier_keeps_everything_in_a_clean_journal() {
        let lines = vec![
            encode_header("check", 1),
            sample_chunk(1, 0, 512),
            sample_chunk(2, 1, 512),
        ];
        assert_eq!(classify_check_lines(&lines), vec![Verdict::Keep; 3]);
    }

    #[test]
    fn fingerprint_hashes_the_effective_chunk_size() {
        // The run loop clamps a raw 0 (set through the pub field) to 1,
        // so the fingerprint must too: both specs chunk the grid
        // identically and must accept each other's resume journals.
        let keys = [1u64, 2, 3];
        let mut zero = CheckSpec::new("t");
        zero.chunk_windows = 0;
        let one = CheckSpec::new("t").chunk_windows(1);
        assert_eq!(zero.fingerprint(&keys), one.fingerprint(&keys));
        let two = CheckSpec::new("t").chunk_windows(2);
        assert_ne!(one.fingerprint(&keys), two.fingerprint(&keys));
    }

    #[test]
    fn undecodable_journal_lines_are_counted_in_the_report() {
        let spec = CheckSpec::new("diag")
            .apps([crate::testprog::war_counter_app(3)])
            .schemes([SchemeKind::Gecko])
            .explore(ExploreConfig::default().with_max_windows(6));
        let journal = Arc::new(Journal::memory());
        journal.append(r#"{"kind":"chunk_done","run_key":"oops"}"#);
        let report = CheckCampaign::new(spec).journal(journal).run().unwrap();
        assert_eq!(report.counters.journal_diagnostics, 1);
        assert!(report.is_clean());
    }
}
