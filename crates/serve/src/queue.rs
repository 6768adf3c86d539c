//! The multi-tenant job queue: submissions become journaled jobs, a small
//! pool of queue workers drains them through the PR-4 supervision stack,
//! and every job's state survives a daemon restart.
//!
//! On-disk layout, one directory per job under the configured journal
//! root, plus one shared memo store per incrementally checked spec:
//!
//! ```text
//! job-<id>/journal/      the job log, one segmented log of typed lines
//!   seg-000000.jsonl ...
//! memo/<key>/            an incremental check's memo store, shared by every job
//!   seg-000000.jsonl ...   of the same spec
//! ```
//!
//! The job log holds, in append order: an `envelope` line (kind, workers,
//! halt_after, incremental, and the spec document as a string); a sweep's
//! run records, or a non-incremental check's memo slabs; the telemetry
//! events; and one terminal line, `result` (the digest plus the full and
//! deterministic documents as strings) or `state` (Cancelled or Failed,
//! with its error). Every line decodes with `Json::parse_flat`, so the
//! run-journal and memo decoders keep the others' lines as foreign
//! vocabulary. A background thread GCs finished `job-<id>/` directories
//! under the configured retention policy (`retain_jobs` / `retain_bytes`
//! / `retain_age_secs`), at most `prune_delete_limit` deletions per tick;
//! the policy is re-derived from the jobs table each tick, so nothing
//! about it is persisted.
//!
//! The restart scan reads each job log: the first envelope line names the
//! job, a last line that decodes in full as a terminal line ends it, and
//! anything else (a torn terminal line included) means the job was
//! interrupted and goes back on the queue — [`Campaign::journal`] skips the
//! journaled runs, a check restores the chunks its memo store recorded,
//! and the merged report is bit-exact against an uninterrupted run. An
//! older daemon's job directory migrates in place (`migrate_legacy`).

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, SystemTime};

use gecko_check::{classify_memo_lines, CheckCampaign, CheckSpec, MemoStore};
use gecko_fleet::fnv::{fnv_bytes, FNV_OFFSET};
use gecko_fleet::json::Json;
use gecko_fleet::spec_io;
use gecko_fleet::supervisor::lock_unpoisoned;
use gecko_fleet::telemetry::{Event, TelemetrySink};
use gecko_fleet::{Campaign, Journal};
use gecko_sim::report::{json_kv, Value};
use gecko_store::{Compaction, LogConfig, SegmentedLog};

use crate::config::ServeConfig;
use crate::wire;

// ---------------------------------------------------------------------------
// Job sink: bounded event ring + the job log, long-poll wakeups
// ---------------------------------------------------------------------------

/// Per-job telemetry sink: keeps the last `cap` events in a seq-numbered
/// ring for the `/events` long-poll endpoint and appends every event to
/// the job log.
///
/// `dropped_records()` is pinned to 0 on purpose: ring *eviction* is not
/// a drop (the log retains everything), and reporting a nonzero count
/// would append a `SinkDropped` failure to the report — which would break
/// the served-vs-in-process digest equality this daemon is built around.
/// Log-write failures are counted by the job log and surfaced in the job
/// status document.
pub struct JobSink {
    cap: usize,
    state: Mutex<SinkState>,
    cond: Condvar,
    log: Arc<SegmentedLog>,
}

#[derive(Default)]
struct SinkState {
    events: VecDeque<(u64, String)>,
    next_seq: u64,
    evicted: u64,
    done_items: u64,
    total_items: Option<u64>,
    resumed: u64,
    // A check's re-prove pass, off its `check_started` event: persisted
    // violations replayed, the drains those replays ran and the drains
    // that joined.
    reproved: u64,
    reprove_drains: u64,
    reprove_joins: u64,
    // A check's explored drains that joined an earlier drain at their
    // join point, and its spoofed-wake-up sweeps ended there, off its
    // `check_finished` event.
    drain_joins: u64,
    sweep_joins: u64,
    closed: bool,
    // `journal_line_undecodable` events, pinned for the job status
    // document (the ring may evict them long before anyone polls): the
    // first few encoded events plus a total count.
    diagnostics: Vec<String>,
    diagnostics_total: u64,
}

/// How many undecodable-journal-line events the status document pins.
const DIAGNOSTIC_PIN_CAP: usize = 32;

/// One `/events` long-poll answer.
#[derive(Debug, Clone)]
pub struct EventBatch {
    /// Encoded event objects, oldest first, each carrying its `seq`.
    pub events: Vec<String>,
    /// The `from` to pass next time.
    pub next: u64,
    /// Events evicted from the ring since the job started (a client that
    /// sees `from < next - events.len() - evicted_gap` lost history; the
    /// full stream is always in the job log).
    pub evicted: u64,
    /// No more events will ever arrive (job reached a stopped state).
    pub closed: bool,
}

impl JobSink {
    /// Creates a sink with a ring of `cap` events, appending to `log`.
    pub fn new(cap: usize, log: Arc<SegmentedLog>) -> JobSink {
        JobSink {
            cap,
            state: Mutex::new(SinkState::default()),
            cond: Condvar::new(),
            log,
        }
    }

    /// Marks the stream finished and wakes every long-poller. No extra
    /// fsync here: the campaign already synced the log at its pool-drain
    /// checkpoint (`flush`), and anything emitted after that is
    /// observability tail the torn-tail repair accounts for.
    pub fn close(&self) {
        let mut s = lock_unpoisoned(&self.state);
        s.closed = true;
        self.cond.notify_all();
    }

    /// Returns events with `seq >= from`, blocking up to `wait` when none
    /// are ready yet (long poll). Returns immediately once the stream is
    /// closed.
    pub fn wait_events(&self, from: u64, wait: Duration) -> EventBatch {
        // Sequence numbers grow, so the newest event tells whether any has
        // `seq >= from`.
        let waiting = |s: &mut SinkState| !s.closed && s.events.back().is_none_or(|e| e.0 < from);
        let s = lock_unpoisoned(&self.state);
        let (s, _) = (self.cond.wait_timeout_while(s, wait, waiting))
            .unwrap_or_else(PoisonError::into_inner);
        EventBatch {
            events: s
                .events
                .iter()
                .filter(|(seq, _)| *seq >= from)
                .map(|(_, line)| line.clone())
                .collect(),
            next: s.next_seq,
            evicted: s.evicted,
            closed: s.closed,
        }
    }
}

impl TelemetrySink for JobSink {
    fn emit(&self, event: Event) {
        let mut s = lock_unpoisoned(&self.state);
        // Progress accounting straight off the event stream — the sink is
        // the one observer guaranteed to see every item exactly once.
        match event.kind {
            "campaign_started" | "check_started" => {
                for (name, value) in &event.fields {
                    if let Value::U64(n) = value {
                        match *name {
                            "items" => s.total_items = Some(*n),
                            "resumed" => {
                                s.resumed = *n;
                                s.done_items = *n;
                            }
                            "reproved" => s.reproved = *n,
                            "reprove_drains" => s.reprove_drains = *n,
                            "reprove_joins" => s.reprove_joins = *n,
                            _ => {}
                        }
                    }
                }
            }
            "item_finished" | "check_item_finished" => s.done_items += 1,
            "check_finished" => {
                for (name, value) in &event.fields {
                    match (*name, value) {
                        ("drain_joins", Value::U64(n)) => s.drain_joins = *n,
                        ("sweep_joins", Value::U64(n)) => s.sweep_joins = *n,
                        _ => {}
                    }
                }
            }
            _ => {}
        }
        let seq = s.next_seq;
        s.next_seq += 1;
        let line = wire::event_value(seq, &event).encode();
        if event.kind == "journal_line_undecodable" {
            s.diagnostics_total += 1;
            if s.diagnostics.len() < DIAGNOSTIC_PIN_CAP {
                s.diagnostics.push(line.clone());
            }
        }
        // Appended under the state lock so the persisted stream stays in
        // seq order across concurrent emitters (the log's own lock is a
        // leaf; no inversion).
        self.log.append(&line);
        s.events.push_back((seq, line));
        if s.events.len() > self.cap {
            s.events.pop_front();
            s.evicted += 1;
        }
        self.cond.notify_all();
    }

    fn flush(&self) {
        // A failed sync is not a lost line; the log keeps its own count.
        let _ = self.log.sync();
    }

    // Deliberately the default 0 — see the type docs.
}

// ---------------------------------------------------------------------------
// Jobs
// ---------------------------------------------------------------------------

/// What a job runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// A metric sweep ([`gecko_fleet::Campaign`]).
    Sweep,
    /// A crash-consistency check ([`gecko_check::CheckCampaign`]).
    Check,
}

impl JobKind {
    /// Wire name.
    pub fn name(self) -> &'static str {
        match self {
            JobKind::Sweep => "sweep",
            JobKind::Check => "check",
        }
    }

    /// Parses a wire name.
    pub fn from_name(name: &str) -> Option<JobKind> {
        match name {
            "sweep" => Some(JobKind::Sweep),
            "check" => Some(JobKind::Check),
            _ => None,
        }
    }
}

/// Job lifecycle. `Interrupted` is the only stopped state that is *not*
/// terminal on disk: an interrupted job re-queues on the next daemon boot
/// and resumes from its journal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Waiting for a queue worker.
    Queued,
    /// Executing.
    Running,
    /// Finished completely; the job log ends on its `result` line.
    Done,
    /// Spec/compile/journal error; the log ends on a `state` line.
    Failed,
    /// Cancelled by the client; the job log ends on a `state` line.
    Cancelled,
    /// Stopped at a clean checkpoint (shutdown drain or `halt_after`);
    /// resumes after restart.
    Interrupted,
}

impl JobState {
    /// Wire name.
    pub fn name(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
            JobState::Interrupted => "interrupted",
        }
    }

    /// Whether no further execution will happen in this daemon session.
    pub fn is_stopped(self) -> bool {
        !matches!(self, JobState::Queued | JobState::Running)
    }
}

struct JobProgress {
    state: JobState,
    error: Option<String>,
    digest: Option<u64>,
}

/// One submitted job: identity, validated spec document, run options,
/// live state, its log and its telemetry sink.
pub struct Job {
    /// Job id (also names the on-disk directory, `job-<id>`).
    pub id: u64,
    /// Sweep or check.
    pub kind: JobKind,
    /// The spec's own name (for listings).
    pub name: String,
    /// The job directory.
    pub dir: PathBuf,
    /// The job log in `dir/journal/` (see the module docs).
    pub log: Arc<SegmentedLog>,
    /// The validated spec document, as submitted.
    pub spec: Json,
    /// Simulation workers for this job.
    pub workers: usize,
    /// Deterministic interruption point, if requested.
    pub halt_after: Option<u64>,
    /// Grid size: expanded items for sweeps, (app × scheme) pairs for
    /// checks.
    pub grid: u64,
    /// Check jobs: run against the daemon's durable memo store for this
    /// spec (DESIGN.md §18). Durable — a resumed job keeps its mode.
    pub incremental: bool,
    /// The telemetry sink (ring + job log).
    pub sink: Arc<JobSink>,
    stop: Arc<AtomicBool>,
    cancel_requested: AtomicBool,
    progress: Mutex<JobProgress>,
    progress_cond: Condvar,
}

impl std::fmt::Debug for Job {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Job #{} ({} {:?}, {})",
            self.id,
            self.kind.name(),
            self.name,
            self.state().name()
        )
    }
}

impl Job {
    fn set_state(&self, state: JobState, error: Option<String>, digest: Option<u64>) {
        let mut p = lock_unpoisoned(&self.progress);
        p.state = state;
        if error.is_some() {
            p.error = error;
        }
        if digest.is_some() {
            p.digest = digest;
        }
        self.progress_cond.notify_all();
    }

    /// Current state.
    pub fn state(&self) -> JobState {
        lock_unpoisoned(&self.progress).state
    }

    /// Blocks up to `wait` for the job to reach a stopped state; returns
    /// the state it ended up in either way.
    pub fn wait_stopped(&self, wait: Duration) -> JobState {
        let p = lock_unpoisoned(&self.progress);
        let running = |p: &mut JobProgress| !p.state.is_stopped();
        let (p, _) = (self.progress_cond.wait_timeout_while(p, wait, running))
            .unwrap_or_else(PoisonError::into_inner);
        p.state
    }

    /// The `/v1/jobs/<id>` status document.
    pub fn status_value(&self) -> Json {
        let p = lock_unpoisoned(&self.progress);
        let s = lock_unpoisoned(&self.sink.state);
        let mut fields = vec![
            ("id".into(), Json::U64(self.id)),
            ("kind".into(), Json::Str(self.kind.name().to_string())),
            ("name".into(), Json::Str(self.name.clone())),
            ("state".into(), Json::Str(p.state.name().to_string())),
            (
                "error".into(),
                p.error.clone().map_or(Json::Null, Json::Str),
            ),
            ("digest".into(), p.digest.map_or(Json::Null, Json::U64)),
            ("workers".into(), Json::U64(self.workers as u64)),
            (
                "halt_after".into(),
                self.halt_after.map_or(Json::Null, Json::U64),
            ),
            ("incremental".into(), Json::Bool(self.incremental)),
            ("grid".into(), Json::U64(self.grid)),
            ("items_done".into(), Json::U64(s.done_items)),
            (
                "items_total".into(),
                s.total_items.map_or(Json::Null, Json::U64),
            ),
            ("items_resumed".into(), Json::U64(s.resumed)),
            ("events_total".into(), Json::U64(s.next_seq)),
            ("events_evicted".into(), Json::U64(s.evicted)),
            ("log_drops".into(), Json::U64(self.log.dropped())),
            (
                "journal_diagnostics".into(),
                Json::Obj(vec![
                    ("total".into(), Json::U64(s.diagnostics_total)),
                    (
                        "events".into(),
                        Json::Arr(
                            s.diagnostics
                                .iter()
                                .map(|l| Json::parse(l).unwrap_or_else(|_| Json::Str(l.clone())))
                                .collect(),
                        ),
                    ),
                ]),
            ),
            (
                "store".into(),
                Json::Obj(vec![
                    (
                        "journal_segments".into(),
                        Json::U64(self.log.segments().len() as u64),
                    ),
                    ("journal_bytes".into(), Json::U64(self.log.total_bytes())),
                ]),
            ),
        ];
        if self.kind == JobKind::Check {
            // Why a check took as long as it did: the persisted violations
            // it re-proved, the drains that cost and the drains of those
            // that joined (off `check_started`), and the explored drains
            // and wake-up sweeps cut short by joining an earlier drain
            // (off `check_finished`).
            fields.push(("reproved".into(), Json::U64(s.reproved)));
            fields.push(("reprove_drains".into(), Json::U64(s.reprove_drains)));
            fields.push(("reprove_joins".into(), Json::U64(s.reprove_joins)));
            fields.push(("drain_joins".into(), Json::U64(s.drain_joins)));
            fields.push(("sweep_joins".into(), Json::U64(s.sweep_joins)));
        }
        Json::Obj(fields)
    }

    /// The full (or, with `deterministic`, the deterministic) report
    /// document of a Done job, byte for byte as the `result` line at the
    /// end of its log holds it.
    pub fn result_doc(&self, deterministic: bool) -> Option<String> {
        // Moves the document out of the parsed line instead of copying it.
        let Json::Obj(fields) = Json::parse_flat(&self.log.last_line()?)? else {
            return None;
        };
        let is_result = fields
            .iter()
            .any(|(k, v)| k == JOB_TAG && v.as_str() == Some(RESULT));
        let key = if deterministic { "det" } else { "full" };
        match fields.into_iter().find(|(k, _)| k == key)? {
            (_, Json::Str(doc)) if is_result => Some(doc),
            _ => None,
        }
    }
}

/// The key that tags the job log's own lines, and its values.
const JOB_TAG: &str = "job";
const ENVELOPE: &str = "envelope";
const RESULT: &str = "result";
const STATE: &str = "state";

/// What a submission persists: the job log's first line.
struct Envelope {
    kind: JobKind,
    workers: u64,
    halt_after: Option<u64>,
    incremental: bool,
    spec: Json,
}

impl Envelope {
    /// The envelope line of job `id`; the spec is embedded as a string so
    /// the line stays flat.
    fn encode(&self, id: u64) -> String {
        json_kv(&[
            (JOB_TAG, Json::Str(ENVELOPE.into())),
            ("id", Json::U64(id)),
            ("kind", Json::Str(self.kind.name().into())),
            ("workers", Json::U64(self.workers)),
            ("halt_after", self.halt_after.map_or(Json::Null, Json::U64)),
            ("incremental", Json::Bool(self.incremental)),
            ("spec", Json::Str(self.spec.encode())),
        ])
    }

    /// Decodes an envelope line (`None` for any other line).
    fn decode(line: &str) -> Option<Envelope> {
        let rec = Json::parse_flat(line)?;
        if rec.get(JOB_TAG)?.as_str()? != ENVELOPE {
            return None;
        }
        let spec = Json::parse(rec.get("spec")?.as_str()?).ok()?;
        Envelope::from_fields(&rec, spec)
    }

    /// The envelope fields of `rec`, with `spec` decoded by the caller.
    /// Envelopes from pre-incremental daemons default `incremental` to
    /// off; a `batch` key from a daemon that still had the lock-step path
    /// is ignored (DESIGN.md §16).
    fn from_fields(rec: &Json, spec: Json) -> Option<Envelope> {
        Some(Envelope {
            kind: JobKind::from_name(rec.get("kind")?.as_str()?)?,
            workers: rec.get("workers")?.as_u64()?,
            halt_after: rec.get("halt_after").and_then(Json::as_u64),
            incremental: rec
                .get("incremental")
                .and_then(Json::as_bool)
                .unwrap_or(false),
            spec,
        })
    }
}

/// The terminal line of a Done job: its digest and both documents.
fn result_line(digest: u64, full: String, det: String) -> String {
    json_kv(&[
        (JOB_TAG, Json::Str(RESULT.into())),
        ("digest", Json::U64(digest)),
        ("full", Json::Str(full)),
        ("det", Json::Str(det)),
    ])
}

/// The terminal line of a Cancelled (`"cancelled"`) or Failed
/// (`"failed"`) job.
fn state_line(state: &str, error: Option<&str>) -> String {
    json_kv(&[
        (JOB_TAG, Json::Str(STATE.into())),
        ("state", Json::Str(state.into())),
        ("error", error.map_or(Json::Null, |e| Json::Str(e.into()))),
    ])
}

/// Decodes a terminal line in full into `(state, error, digest)`; `None`
/// for any other line, or for a missing or mistyped field.
fn decode_terminal(line: &str) -> Option<(JobState, Option<String>, Option<u64>)> {
    let rec = Json::parse_flat(line)?;
    match rec.get(JOB_TAG)?.as_str()? {
        RESULT => {
            rec.get("full")?.as_str()?;
            rec.get("det")?.as_str()?;
            Some((JobState::Done, None, Some(rec.get("digest")?.as_u64()?)))
        }
        STATE => {
            let state = match rec.get("state")?.as_str()? {
                "cancelled" => JobState::Cancelled,
                "failed" => JobState::Failed,
                _ => return None,
            };
            let error = match rec.get("error")? {
                Json::Null => None,
                error => Some(error.as_str()?.to_string()),
            };
            Some((state, error, None))
        }
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Queue
// ---------------------------------------------------------------------------

/// Errors a submission can fail with (mapped to HTTP 400/409/500/503 by
/// the server).
#[derive(Debug)]
pub enum SubmitError {
    /// The spec document did not decode.
    BadSpec(String),
    /// A daemon limit was exceeded.
    Limit(String),
    /// The job directory or its log could not be created; nothing of it
    /// is left behind.
    Io(String),
    /// The queue is shutting down.
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::BadSpec(m) | SubmitError::Limit(m) | SubmitError::Io(m) => {
                write!(f, "{m}")
            }
            SubmitError::ShuttingDown => write!(f, "daemon is shutting down"),
        }
    }
}

struct QueueInner {
    cfg: ServeConfig,
    jobs: Mutex<Vec<Arc<Job>>>,
    pending: Mutex<VecDeque<Arc<Job>>>,
    pending_cond: Condvar,
    shutting_down: AtomicBool,
    next_id: AtomicU64,
    // Job-directory GC totals since boot. The background tick thread and
    // `Queue::prune_now` hold the lock for a whole pass, so passes never
    // race over the same directory.
    gc: Mutex<GcTotals>,
    prune_gate: Mutex<()>,
    prune_cond: Condvar,
}

/// The daemon's job queue: owns every job, the worker pool that executes
/// them, and the on-disk layout that makes them survive restarts.
pub struct Queue {
    inner: Arc<QueueInner>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Queue {
    /// Boots a queue over `cfg.journal_root`: scans existing job
    /// directories (re-queueing interrupted jobs), then spawns
    /// `cfg.queue_workers` executor threads.
    ///
    /// # Errors
    ///
    /// Propagates journal-root creation failures.
    pub fn start(cfg: ServeConfig) -> std::io::Result<Queue> {
        std::fs::create_dir_all(&cfg.journal_root)?;
        let inner = Arc::new(QueueInner {
            cfg,
            jobs: Mutex::new(Vec::new()),
            pending: Mutex::new(VecDeque::new()),
            pending_cond: Condvar::new(),
            shutting_down: AtomicBool::new(false),
            next_id: AtomicU64::new(1),
            gc: Mutex::new(GcTotals::default()),
            prune_gate: Mutex::new(()),
            prune_cond: Condvar::new(),
        });
        let queue = Queue {
            inner: Arc::clone(&inner),
            workers: Mutex::new(Vec::new()),
        };
        queue.scan_existing();
        let mut workers = lock_unpoisoned(&queue.workers);
        for w in 0..inner.cfg.queue_workers.max(1) {
            let inner = Arc::clone(&inner);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("gecko-serve-q{w}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn queue worker"),
            );
        }
        if inner.cfg.prune_interval_secs > 0 {
            let inner = Arc::clone(&inner);
            workers.push(
                std::thread::Builder::new()
                    .name("gecko-serve-prune".to_string())
                    .spawn(move || prune_loop(&inner))
                    .expect("spawn job-directory GC"),
            );
        }
        drop(workers);
        Ok(queue)
    }

    /// The config this queue was booted with.
    pub fn config(&self) -> &ServeConfig {
        &self.inner.cfg
    }

    /// The `/v1/config` document: the effective config plus live store
    /// stats (job-directory GC totals since boot).
    pub fn config_value(&self) -> Json {
        let mut doc = self.inner.cfg.to_value();
        if let Json::Obj(fields) = &mut doc {
            fields.push(("store".into(), self.store_stats()));
        }
        doc
    }

    /// Live store stats, all counted since boot: GC ticks run, the
    /// per-tick budget, job directories removed and the bytes they held.
    pub fn store_stats(&self) -> Json {
        let gc = *lock_unpoisoned(&self.inner.gc);
        Json::Obj(vec![
            ("ticks".into(), Json::U64(gc.ticks)),
            (
                "delete_limit".into(),
                Json::U64(self.inner.cfg.prune_delete_limit as u64),
            ),
            ("pruned_entries".into(), Json::U64(gc.pruned_entries)),
            ("reclaimed_bytes".into(), Json::U64(gc.reclaimed_bytes)),
        ])
    }

    /// Runs one job-directory GC tick synchronously (what the background
    /// thread does every `prune_interval_secs`). Tests drive retention
    /// through this for determinism.
    ///
    /// # Errors
    ///
    /// The first directory that fails to delete; the directories removed
    /// before it stay counted.
    pub fn prune_now(&self) -> std::io::Result<Compaction> {
        gc_tick(&self.inner)
    }

    /// Submits a job. The spec document is fully decoded (and therefore
    /// validated) before anything is persisted, so a bad submission never
    /// leaves a job directory behind.
    ///
    /// # Errors
    ///
    /// [`SubmitError::BadSpec`] for undecodable specs,
    /// [`SubmitError::Limit`] for limit violations,
    /// [`SubmitError::Io`] when the job directory or its envelope line
    /// cannot be written, [`SubmitError::ShuttingDown`] during drain.
    pub fn submit(&self, kind: JobKind, sub: wire::Submission) -> Result<Arc<Job>, SubmitError> {
        let inner = &self.inner;
        if inner.shutting_down.load(Ordering::SeqCst) {
            return Err(SubmitError::ShuttingDown);
        }
        let (name, grid) = validate_spec(kind, &sub.spec).map_err(SubmitError::BadSpec)?;
        if grid == 0 {
            return Err(SubmitError::BadSpec(
                "spec expands to an empty grid (no apps, schemes, or seeds)".to_string(),
            ));
        }
        if grid > inner.cfg.max_items_per_job as u64 {
            return Err(SubmitError::Limit(format!(
                "spec expands to {grid} items, above the per-job limit of {}",
                inner.cfg.max_items_per_job
            )));
        }
        {
            let jobs = lock_unpoisoned(&inner.jobs);
            if jobs.len() >= inner.cfg.max_jobs {
                return Err(SubmitError::Limit(format!(
                    "job table is full ({} jobs)",
                    inner.cfg.max_jobs
                )));
            }
        }
        let workers = sub
            .workers
            .unwrap_or(inner.cfg.job_workers)
            .clamp(1, inner.cfg.max_job_workers);
        let id = inner.next_id.fetch_add(1, Ordering::SeqCst);
        let dir = inner.cfg.journal_root.join(format!("job-{id}"));
        let envelope = Envelope {
            kind,
            workers: workers as u64,
            halt_after: sub.halt_after,
            incremental: sub.incremental,
            spec: sub.spec,
        };
        let log = create_job_log(&dir, &envelope.encode(id))
            .map_err(|e| SubmitError::Io(format!("creating {}: {e}", dir.display())))?;
        let job = Job::new(inner, id, dir, log, envelope, name, grid);
        lock_unpoisoned(&inner.jobs).push(Arc::clone(&job));
        lock_unpoisoned(&inner.pending).push_back(Arc::clone(&job));
        inner.pending_cond.notify_one();
        Ok(job)
    }

    /// Looks a job up by id.
    pub fn job(&self, id: u64) -> Option<Arc<Job>> {
        lock_unpoisoned(&self.inner.jobs)
            .iter()
            .find(|j| j.id == id)
            .cloned()
    }

    /// Every job, in submission order.
    pub fn jobs(&self) -> Vec<Arc<Job>> {
        lock_unpoisoned(&self.inner.jobs).clone()
    }

    /// Requests cancellation. A queued job is cancelled on the spot; a
    /// running one gets its kill switch flipped and drains to a journaled
    /// checkpoint before the state lands on `Cancelled`. Stopped jobs are
    /// left as they are (cancel is idempotent).
    pub fn cancel(&self, job: &Arc<Job>) {
        job.cancel_requested.store(true, Ordering::SeqCst);
        job.stop.store(true, Ordering::SeqCst);
        let mut p = lock_unpoisoned(&job.progress);
        if p.state == JobState::Queued {
            p.state = JobState::Cancelled;
            drop(p);
            job.log.append(&state_line("cancelled", None));
            job.sink.close();
            job.progress_cond.notify_all();
        }
    }

    /// Graceful shutdown: stop claiming queued jobs, flip every running
    /// job's kill switch, and join the workers once in-flight runs have
    /// been journaled. Queued and interrupted jobs resume on the next
    /// boot.
    pub fn shutdown(&self) {
        self.inner.shutting_down.store(true, Ordering::SeqCst);
        for job in self.jobs() {
            if !job.state().is_stopped() {
                job.stop.store(true, Ordering::SeqCst);
            }
        }
        self.inner.pending_cond.notify_all();
        self.inner.prune_cond.notify_all();
        let mut workers = lock_unpoisoned(&self.workers);
        for handle in workers.drain(..) {
            let _ = handle.join();
        }
    }

    /// Restores jobs from the journal root. Terminal jobs come back with
    /// their digest; anything interrupted re-queues for resume.
    fn scan_existing(&self) {
        let inner = &self.inner;
        let Ok(entries) = std::fs::read_dir(&inner.cfg.journal_root) else {
            return;
        };
        let mut found: Vec<(u64, PathBuf)> = entries
            .flatten()
            .filter_map(|e| {
                let name = e.file_name().into_string().ok()?;
                let id: u64 = name.strip_prefix("job-")?.parse().ok()?;
                Some((id, e.path()))
            })
            .collect();
        found.sort_by_key(|(id, _)| *id);
        for (id, dir) in found {
            // A directory we cannot make sense of is left alone on disk but
            // not served; the id is still reserved so a fresh submission
            // cannot collide with it.
            if let Some(job) = restore_job(inner, id, &dir) {
                lock_unpoisoned(&inner.jobs).push(Arc::clone(&job));
                if job.state() == JobState::Queued {
                    lock_unpoisoned(&inner.pending).push_back(job);
                }
            }
            let floor = id + 1;
            inner.next_id.fetch_max(floor, Ordering::SeqCst);
        }
    }
}

/// Restores a job from its log (migrating an older daemon's directory
/// first): the first envelope line names it, and a terminal last line
/// that decodes in full stops it; anything else re-queues it.
fn restore_job(inner: &QueueInner, id: u64, dir: &Path) -> Option<Arc<Job>> {
    let log = open_job_log(id, dir).ok()?;
    let lines = log.lines();
    let mut envelope = lines.iter().find_map(|line| Envelope::decode(line))?;
    // Clamped like a submission: an older or hand-edited envelope must not
    // spawn more pool threads than this daemon admits.
    envelope.workers = envelope.workers.clamp(1, inner.cfg.max_job_workers as u64);
    // `halt_after` is a one-shot interruption hook: it already fired in
    // the session that journaled the halt, so a restored job resumes to
    // completion instead of halting again every session. The envelope
    // keeps the submitted value for provenance only.
    envelope.halt_after = None;
    let (name, grid) = validate_spec(envelope.kind, &envelope.spec).ok()?;
    let job = Job::new(inner, id, dir.to_path_buf(), log, envelope, name, grid);
    // No decodable terminal line: the previous session was interrupted
    // (or never started the job), so it stays Queued; resume skips the
    // journaled runs.
    if let Some((state, error, digest)) = lines.last().and_then(|line| decode_terminal(line)) {
        job.set_state(state, error, digest);
        job.sink.close();
    }
    Some(job)
}

impl Job {
    fn new(
        inner: &QueueInner,
        id: u64,
        dir: PathBuf,
        log: Arc<SegmentedLog>,
        envelope: Envelope,
        name: String,
        grid: u64,
    ) -> Arc<Job> {
        Arc::new(Job {
            id,
            kind: envelope.kind,
            name,
            dir,
            sink: Arc::new(JobSink::new(inner.cfg.event_buffer, Arc::clone(&log))),
            log,
            spec: envelope.spec,
            workers: envelope.workers as usize,
            halt_after: envelope.halt_after,
            grid,
            incremental: envelope.incremental,
            stop: Arc::new(AtomicBool::new(false)),
            cancel_requested: AtomicBool::new(false),
            progress: Mutex::new(JobProgress {
                state: JobState::Queued,
                error: None,
                digest: None,
            }),
            progress_cond: Condvar::new(),
        })
    }
}

/// Creates a new job's directory and its log holding `envelope`. Fails if
/// the directory exists, or if the envelope line is lost (the job could
/// not be restored); a directory created by a failed call is removed.
fn create_job_log(dir: &Path, envelope: &str) -> std::io::Result<Arc<SegmentedLog>> {
    std::fs::create_dir(dir)?;
    let log = SegmentedLog::open(&dir.join("journal"), LogConfig::default()).and_then(|log| {
        log.append(envelope);
        match log.dropped() {
            0 => Ok(Arc::new(log)),
            _ => Err(std::io::Error::other("the envelope line was not written")),
        }
    });
    if log.is_err() {
        let _ = std::fs::remove_dir_all(dir);
    }
    log
}

/// Opens the log of job `id` in `dir`, first moving an older daemon's flat
/// `journal.jsonl` in as its first segment (if `journal/` is empty), then
/// running [`migrate_legacy`].
fn open_job_log(id: u64, dir: &Path) -> std::io::Result<Arc<SegmentedLog>> {
    let journal = dir.join("journal");
    let flat = dir.join("journal.jsonl");
    if flat.exists() && std::fs::read_dir(&journal).map_or(true, |mut d| d.next().is_none()) {
        std::fs::create_dir_all(&journal)?;
        std::fs::rename(&flat, journal.join("seg-000000.jsonl"))?;
    }
    let log = Arc::new(SegmentedLog::open(&journal, LogConfig::default())?);
    migrate_legacy(id, dir, &log)?;
    Ok(log)
}

/// Moves an older daemon's job files, if `dir` has a `job.json`, into the
/// job log: the envelope from `job.json`, and a terminal line from
/// `result.json` + `result.det.json` (if the digest decodes; a torn
/// document re-queues the job) or from `state.json`, each unless the log
/// has one. Then it syncs the log and deletes the old files, `job.json`
/// last, so a kill repeats the migration.
fn migrate_legacy(id: u64, dir: &Path, log: &SegmentedLog) -> std::io::Result<()> {
    let read = |name: &str| std::fs::read_to_string(dir.join(name)).ok();
    let Some(job_json) = read("job.json") else {
        return Ok(());
    };
    let lines = log.lines();
    if !lines.iter().any(|line| Envelope::decode(line).is_some()) {
        let envelope = Json::parse(&job_json)
            .ok()
            .and_then(|doc| Envelope::from_fields(&doc, doc.get("spec")?.clone()))
            .ok_or_else(|| std::io::Error::other("job.json does not decode"))?;
        log.append(&envelope.encode(id));
    }
    if lines.last().and_then(|l| decode_terminal(l)).is_none() {
        let done = read("result.json")
            .zip(read("result.det.json"))
            .and_then(|(full, det)| {
                let digest = Json::parse(&full).ok()?.get("digest")?.as_u64()?;
                Some(result_line(digest, full, det))
            });
        let stopped = || {
            let doc = Json::parse(&read("state.json")?).ok()?;
            let error = doc.get("error").and_then(Json::as_str);
            Some(state_line(doc.get("state")?.as_str()?, error))
        };
        if let Some(line) = done.or_else(stopped) {
            log.append(&line);
        }
    }
    log.sync()?;
    if log.dropped() > 0 {
        return Err(std::io::Error::other("migrated lines were not written"));
    }
    // Everything they held is in the synced log now, so a file that fails
    // to go is only left-over bytes.
    for old in ["result.json", "result.det.json", "state.json"] {
        let _ = std::fs::remove_file(dir.join(old));
    }
    let _ = std::fs::remove_dir_all(dir.join("telemetry"));
    std::fs::remove_file(dir.join("job.json"))
}

/// Validates a spec document for `kind` and returns `(name, grid size)`.
fn validate_spec(kind: JobKind, spec: &Json) -> Result<(String, u64), String> {
    match kind {
        JobKind::Sweep => {
            let decoded = spec_io::spec_from_value(spec, "")
                .map_err(|e| format!("invalid campaign spec: {e}"))?;
            let grid = decoded.expand().len() as u64;
            Ok((decoded.name, grid))
        }
        JobKind::Check => {
            let decoded = wire::check_spec_from_value(spec, "")
                .map_err(|e| format!("invalid check spec: {e}"))?;
            let grid = (decoded.apps.len() * decoded.schemes.len()) as u64;
            Ok((decoded.name, grid))
        }
    }
}

/// Job-directory GC totals since boot.
#[derive(Clone, Copy, Default)]
struct GcTotals {
    ticks: u64,
    pruned_entries: u64,
    reclaimed_bytes: u64,
}

/// One GC tick: [`collect_job_dirs`] under the configured budget, with
/// the totals updated for what it removed (even when it stopped on an
/// error).
fn gc_tick(inner: &QueueInner) -> std::io::Result<Compaction> {
    let mut totals = lock_unpoisoned(&inner.gc);
    totals.ticks += 1;
    let mut report = Compaction::default();
    let result = collect_job_dirs(inner, inner.cfg.prune_delete_limit, &mut report);
    totals.pruned_entries += report.pruned as u64;
    totals.reclaimed_bytes += report.reclaimed_bytes;
    result.map(|()| report)
}

/// GCs finished `job-<id>/` directories under the retention policy,
/// removing at most `delete_limit` of them (0 means no limit) and
/// recording each removal in `out`.
///
/// Candidates are the terminal (done/failed/cancelled) jobs, oldest id
/// first, re-derived from the live jobs table on every call; a removed
/// job leaves the disk and the table. Interrupted jobs are never
/// candidates — they resume on the next boot.
fn collect_job_dirs(
    inner: &QueueInner,
    delete_limit: usize,
    out: &mut Compaction,
) -> std::io::Result<()> {
    let cfg = &inner.cfg;
    let mut terminal: Vec<Arc<Job>> = lock_unpoisoned(&inner.jobs)
        .iter()
        .filter(|j| {
            matches!(
                j.state(),
                JobState::Done | JobState::Failed | JobState::Cancelled
            )
        })
        .cloned()
        .collect();
    terminal.sort_by_key(|j| j.id);
    // A job directory holds only its log.
    let sizes: Vec<u64> = terminal.iter().map(|j| j.log.total_bytes()).collect();
    let ages: Vec<u64> = terminal.iter().map(|j| log_age_secs(&j.log)).collect();
    let mut total: u64 = sizes.iter().sum();

    // Oldest-first victim count: delete while any retention limit is
    // violated. Count and bytes limits shrink as victims accrue; the
    // age limit applies per directory.
    let mut victims = 0;
    while victims < terminal.len() {
        let count_over = cfg.retain_jobs != 0 && terminal.len() - victims > cfg.retain_jobs;
        let bytes_over = cfg.retain_bytes != 0 && total > cfg.retain_bytes;
        let age_over = cfg.retain_age_secs != 0 && ages[victims] > cfg.retain_age_secs;
        if !(count_over || bytes_over || age_over) {
            break;
        }
        total -= sizes[victims];
        victims += 1;
    }

    let budget = if delete_limit == 0 {
        usize::MAX
    } else {
        delete_limit
    };
    out.done = victims <= budget;
    for (job, &bytes) in terminal.iter().zip(&sizes).take(victims.min(budget)) {
        std::fs::remove_dir_all(&job.dir)?;
        lock_unpoisoned(&inner.jobs).retain(|j| j.id != job.id);
        out.pruned += 1;
        out.reclaimed_bytes += bytes;
    }
    Ok(())
}

/// Seconds since the job log was last written: the age of its newest
/// segment's mtime (0 if unknown — an unreadable mtime never makes a job
/// "old enough" to GC).
fn log_age_secs(log: &SegmentedLog) -> u64 {
    std::fs::read_dir(log.dir())
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|entry| entry.metadata().ok()?.modified().ok())
        .max()
        .and_then(|t| SystemTime::now().duration_since(t).ok())
        .map_or(0, |d| d.as_secs())
}

/// Background retention thread: one GC tick per interval, waking early
/// (and exiting) on shutdown.
fn prune_loop(inner: &Arc<QueueInner>) {
    let interval = Duration::from_secs(inner.cfg.prune_interval_secs.max(1));
    loop {
        if inner.shutting_down.load(Ordering::SeqCst) {
            return;
        }
        let _ = gc_tick(inner);
        let gate = lock_unpoisoned(&inner.prune_gate);
        let _unused = inner
            .prune_cond
            .wait_timeout(gate, interval)
            .unwrap_or_else(std::sync::PoisonError::into_inner);
    }
}

fn worker_loop(inner: &Arc<QueueInner>) {
    loop {
        let shutting_down = || inner.shutting_down.load(Ordering::SeqCst);
        let pending = lock_unpoisoned(&inner.pending);
        let idle = |p: &mut VecDeque<Arc<Job>>| p.is_empty() && !shutting_down();
        let mut pending =
            (inner.pending_cond.wait_while(pending, idle)).unwrap_or_else(PoisonError::into_inner);
        let job = match pending.pop_front() {
            Some(job) if !shutting_down() => job,
            _ => return,
        };
        drop(pending);
        // Cancelled while queued: nothing to do.
        if job.state() != JobState::Queued {
            continue;
        }
        execute(&inner.cfg, &job);
    }
}

/// FNV-1a over the canonical spec document: names the memo directory an
/// incremental check job shares with every other submission of the same
/// spec.
fn memo_key(text: &str) -> u64 {
    fnv_bytes(FNV_OFFSET, text.as_bytes())
}

/// The memo store a check job records its chunks in and resumes from.
/// Incremental jobs use the daemon's shared store for the spec,
/// `<root>/memo/<key>/` (DESIGN.md §18); when that store fails to open
/// they fall back to a job-local one, so the run is cold but can still
/// resume. A job-local store keeps its slabs in the job log.
fn open_check_store(job: &Job, spec: &CheckSpec) -> Arc<MemoStore> {
    if job.incremental {
        if let Some(root) = job.dir.parent() {
            let key = memo_key(&wire::check_spec_value(spec).encode());
            let dir = root.join("memo").join(format!("{key:016x}"));
            if let Ok(store) = MemoStore::open(&dir) {
                return Arc::new(store);
            }
        }
    }
    Arc::new(MemoStore::from_log(Arc::clone(&job.log)))
}

/// Runs one job to a stopped state, ending its log on a terminal line
/// unless the job was interrupted.
fn execute(cfg: &ServeConfig, job: &Arc<Job>) {
    job.set_state(JobState::Running, None, None);
    let sink: Arc<dyn TelemetrySink> = job.sink.clone();

    // Outcome of the run, normalized across sweep/check:
    // Ok((complete, digest, full_doc, det_doc)) or Err(message).
    let outcome: Result<(bool, u64, String, String), String> = match job.kind {
        JobKind::Sweep => spec_io::spec_from_value(&job.spec, "")
            .map_err(|e| format!("invalid campaign spec: {e}"))
            .and_then(|spec| {
                let journal = Journal::segmented(Arc::clone(&job.log));
                let mut campaign = Campaign::new(spec)
                    .workers(job.workers)
                    .sink(sink)
                    .journal(Arc::new(journal))
                    .kill_switch(Arc::clone(&job.stop));
                if let Some(n) = job.halt_after {
                    campaign = campaign.halt_after(n);
                }
                let report = campaign.run().map_err(|e| format!("{e:?}"))?;
                Ok((
                    !report.halted,
                    report.deterministic_digest(),
                    spec_io::report_to_json(&report),
                    spec_io::report_deterministic_json(&report),
                ))
            }),
        JobKind::Check => wire::check_spec_from_value(&job.spec, "")
            .map_err(|e| format!("invalid check spec: {e}"))
            .and_then(|spec| {
                let store = open_check_store(job, &spec);
                let mut campaign = CheckCampaign::new(spec)
                    .workers(job.workers)
                    .sink(sink)
                    .memo(Arc::clone(&store))
                    .kill_switch(Arc::clone(&job.stop));
                if let Some(n) = job.halt_after {
                    campaign = campaign.halt_after(n);
                }
                let report = campaign.run().map_err(|e| format!("{e:?}"))?;
                // Budgeted compaction of the memo log, after the run so
                // the sealed segments it rewrites already hold this run's
                // flushed records.
                let _ = store
                    .log()
                    .compact(classify_memo_lines, cfg.prune_delete_limit);
                Ok((
                    !report.halted,
                    report.deterministic_digest(),
                    wire::check_report_to_json(&report),
                    wire::check_report_deterministic_json(&report),
                ))
            }),
    };

    // Close the event stream before publishing the terminal state: a
    // client woken by the state change must observe `closed` on its next
    // events poll.
    job.sink.close();

    let (state, error) = match outcome {
        Ok((true, digest, full, det)) => {
            let drops = job.log.dropped();
            job.log.append(&result_line(digest, full, det));
            if job.log.dropped() == drops {
                return job.set_state(JobState::Done, None, Some(digest));
            }
            // The next boot finds no terminal line and resumes the job.
            let msg = "persisting result: the job log dropped the result line";
            return job.set_state(JobState::Failed, Some(msg.to_string()), None);
        }
        // Stopped at a clean checkpoint: kill switch (cancel or daemon
        // drain) or halt_after. The log has everything completed so far;
        // no terminal line means the next boot resumes it — except an
        // explicit cancel, which is terminal.
        Ok((false, ..)) if !job.cancel_requested.load(Ordering::SeqCst) => {
            return job.set_state(JobState::Interrupted, None, None);
        }
        Ok((false, ..)) => (JobState::Cancelled, None),
        Err(msg) => (JobState::Failed, Some(msg)),
    };
    job.log.append(&state_line(state.name(), error.as_deref()));
    job.set_state(state, error, None);
}

#[cfg(test)]
mod tests {
    use super::*;
    use gecko_isa::rng::SplitMix64;

    #[test]
    fn memo_key_is_pinned() {
        // The memo directory name of every served incremental check is
        // persisted, so its value must never drift.
        assert_eq!(memo_key(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(memo_key("a"), 0xaf74_d84c_8601_ec8c);
        assert_eq!(memo_key("foobar"), 0xf8ac_2471_f739_67e8);
    }

    fn test_config(tag: &str) -> ServeConfig {
        let cfg = ServeConfig {
            journal_root: std::env::temp_dir()
                .join(format!("gecko-serve-queue-{}-{tag}", std::process::id())),
            queue_workers: 2,
            job_workers: 2,
            ..ServeConfig::default()
        };
        let _ = std::fs::remove_dir_all(&cfg.journal_root);
        cfg
    }

    fn tiny_sweep_spec() -> Json {
        Json::parse(
            r#"{"name":"queue-tiny","apps":["blink"],"schemes":["gecko"],
                "seeds":[1,2],"workload":{"kind":"run_for","seconds":0.002}}"#,
        )
        .unwrap()
    }

    fn submission(spec: Json, halt_after: Option<u64>) -> wire::Submission {
        wire::Submission {
            spec,
            workers: Some(1),
            halt_after,
            incremental: false,
        }
    }

    /// The names in a directory, sorted.
    fn entries(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        names
    }

    /// The only segment of a finished tiny job's log.
    fn only_segment(job: &Job) -> PathBuf {
        let segments = entries(job.log.dir());
        assert_eq!(segments, ["seg-000000.jsonl"]);
        job.log.dir().join(&segments[0])
    }

    #[test]
    fn sweep_job_runs_to_done_with_digest() {
        let cfg = test_config("done");
        let root = cfg.journal_root.clone();
        let queue = Queue::start(cfg).unwrap();
        let job = queue
            .submit(JobKind::Sweep, submission(tiny_sweep_spec(), None))
            .unwrap();
        let state = job.wait_stopped(Duration::from_secs(120));
        assert_eq!(state, JobState::Done);
        // One log per job: it opens on the envelope and ends on the result.
        assert_eq!(entries(&job.dir), ["journal"]);
        let lines = job.log.lines();
        assert!(Envelope::decode(&lines[0]).is_some(), "{}", lines[0]);
        let last = decode_terminal(lines.last().unwrap());
        assert_eq!(last.map(|t| t.0), Some(JobState::Done));
        assert!(job.result_doc(true).is_some() && job.result_doc(false).is_some());
        let status = job.status_value();
        assert_eq!(status.get("state").and_then(Json::as_str), Some("done"));
        assert!(status.get("digest").and_then(Json::as_u64).is_some());
        assert_eq!(status.get("items_done").and_then(Json::as_u64), Some(2));
        queue.shutdown();
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn bad_specs_and_limits_are_rejected_before_any_disk_state() {
        let mut cfg = test_config("reject");
        cfg.max_items_per_job = 1;
        let root = cfg.journal_root.clone();
        let queue = Queue::start(cfg).unwrap();
        let bad = Json::parse(r#"{"name":"x","schemes":["geko"]}"#).unwrap();
        match queue.submit(JobKind::Sweep, submission(bad, None)) {
            Err(SubmitError::BadSpec(m)) => assert!(m.contains("geko"), "{m}"),
            other => panic!("expected BadSpec, got {other:?}"),
        }
        match queue.submit(JobKind::Sweep, submission(tiny_sweep_spec(), None)) {
            Err(SubmitError::Limit(m)) => assert!(m.contains("limit"), "{m}"),
            other => panic!("expected Limit, got {other:?}"),
        }
        // No job directories were created for rejected submissions.
        let dirs = std::fs::read_dir(&root).unwrap().count();
        assert_eq!(dirs, 0);
        queue.shutdown();
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn halt_after_interrupts_and_restart_resumes_to_same_digest() {
        let cfg = test_config("resume");
        let root = cfg.journal_root.clone();

        // Reference digest from an uninterrupted in-process run.
        let reference = {
            let spec = spec_io::spec_from_value(&tiny_sweep_spec(), "").unwrap();
            Campaign::new(spec).run().unwrap().deterministic_digest()
        };

        let queue = Queue::start(cfg.clone()).unwrap();
        let job = queue
            .submit(JobKind::Sweep, submission(tiny_sweep_spec(), Some(1)))
            .unwrap();
        assert_eq!(
            job.wait_stopped(Duration::from_secs(120)),
            JobState::Interrupted
        );
        let id = job.id;
        queue.shutdown();
        drop(queue);

        // "Restart": a fresh queue over the same root resumes the job.
        let queue = Queue::start(cfg).unwrap();
        let job = queue.job(id).expect("job restored");
        assert_eq!(job.wait_stopped(Duration::from_secs(120)), JobState::Done);
        let status = job.status_value();
        assert_eq!(status.get("digest").and_then(Json::as_u64), Some(reference));
        assert_eq!(status.get("items_resumed").and_then(Json::as_u64), Some(1));
        queue.shutdown();
        let _ = std::fs::remove_dir_all(&root);
    }

    /// Hostile copy `kind` (0..5) of job log line `line`: cut short at a
    /// seeded point, or with one field replaced by a mistyped, unknown or
    /// nested value.
    fn mutate_line(rng: &mut SplitMix64, kind: u64, line: &str, terminal: bool) -> String {
        let Some(Json::Obj(mut fields)) = Json::parse_flat(line) else {
            unreachable!("job lines are flat: {line}");
        };
        let mut set = |key: &str, value: Json| {
            fields.iter_mut().find(|(k, _)| k == key).unwrap().1 = value;
        };
        match kind {
            0 => return line[..rng.range_u64(1, line.len() as u64) as usize].to_string(),
            1 if terminal => set("digest", Json::Str("7".into())),
            1 => set("workers", Json::I64(-1)),
            2 if terminal => set("full", Json::U64(7)),
            2 => set("kind", Json::Str("sweeps".into())),
            3 => set(JOB_TAG, Json::Str("resultx".into())),
            _ if terminal => set("det", Json::Obj(vec![("a".into(), Json::U64(1))])),
            _ => set("spec", Json::Obj(vec![("a".into(), Json::U64(1))])),
        }
        Json::Obj(fields).encode()
    }

    #[test]
    fn torn_result_file_is_rebuilt_from_the_journal_on_restart() {
        let cfg = test_config("torn-result");
        let root = cfg.journal_root.clone();
        let queue = Queue::start(cfg.clone()).unwrap();
        let job = queue
            .submit(JobKind::Sweep, submission(tiny_sweep_spec(), None))
            .unwrap();
        assert_eq!(job.wait_stopped(Duration::from_secs(120)), JobState::Done);
        let digest = job.status_value().get("digest").and_then(Json::as_u64);
        assert!(digest.is_some());
        let (id, det) = (job.id, job.result_doc(true).unwrap());
        let segment = only_segment(&job);
        queue.shutdown();
        drop((queue, job));
        let original = std::fs::read_to_string(&segment).unwrap();
        let lines: Vec<&str> = original.lines().collect();

        // Seeded hostile copies of the envelope (first) and the terminal
        // (last) line. None may panic; a job whose terminal line no longer
        // decodes in full must re-queue and resume to the same digest, and
        // a job whose envelope no longer decodes is left alone on disk.
        let mut rng = SplitMix64::new(0x70B_1095);
        for trial in 0..16 {
            let terminal = trial % 2 == 0;
            let at = if terminal { lines.len() - 1 } else { 0 };
            let mut hostile: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
            let kind = trial / 2 % 5;
            hostile[at] = mutate_line(&mut rng, kind, lines[at], terminal);
            let mut text = hostile.join("\n");
            // A cut last line is torn (no newline) half of the time.
            if !(terminal && kind == 0 && rng.range_u64(0, 2) == 0) {
                text.push('\n');
            }
            std::fs::write(&segment, &text).unwrap();

            let queue = Queue::start(cfg.clone()).unwrap();
            let Some(job) = queue.job(id) else {
                assert!(!terminal, "trial {trial}: {}", hostile[at]);
                queue.shutdown();
                continue;
            };
            assert!(terminal, "trial {trial}: {}", hostile[at]);
            assert_eq!(job.wait_stopped(Duration::from_secs(120)), JobState::Done);
            let status = job.status_value();
            assert_eq!(status.get("digest").and_then(Json::as_u64), digest);
            assert_eq!(
                status.get("items_resumed").and_then(Json::as_u64),
                Some(2),
                "trial {trial}: the job re-queued and resumed: {}",
                hostile[at]
            );
            assert_eq!(job.result_doc(true).as_deref(), Some(det.as_str()));
            queue.shutdown();
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn old_job_json_with_batch_knob_resumes_to_the_uninterrupted_digest() {
        let cfg = test_config("legacy-batch");
        let root = cfg.journal_root.clone();
        let spec = spec_io::spec_from_value(&tiny_sweep_spec(), "").unwrap();
        let reference = Campaign::new(spec.clone())
            .run()
            .unwrap()
            .deterministic_digest();

        // A job directory as a daemon with the lock-step path left it:
        // job.json still carries `"batch": 64`, and the journal holds one
        // of the two runs followed by a torn, half-written line.
        let dir = root.join("job-5");
        let journal = Journal::open_segmented(&dir.join("journal"), LogConfig::default()).unwrap();
        let partial = Campaign::new(spec)
            .journal(Arc::new(journal))
            .halt_after(1)
            .run()
            .unwrap();
        assert!(partial.halted);
        let tail = std::fs::read_dir(dir.join("journal"))
            .unwrap()
            .flatten()
            .map(|e| e.path())
            .max()
            .unwrap();
        let mut torn = std::fs::OpenOptions::new().append(true).open(tail).unwrap();
        std::io::Write::write_all(&mut torn, br#"{"kind":"run","key":"#).unwrap();
        drop(torn);
        let envelope = format!(
            r#"{{"id":5,"kind":"sweep","workers":1,"halt_after":1,"batch":64,"incremental":false,"spec":{}}}"#,
            tiny_sweep_spec().encode()
        );
        std::fs::write(dir.join("job.json"), envelope).unwrap();

        let queue = Queue::start(cfg).unwrap();
        let job = queue.job(5).expect("old job restored");
        assert_eq!(job.wait_stopped(Duration::from_secs(120)), JobState::Done);
        let status = job.status_value();
        assert_eq!(status.get("digest").and_then(Json::as_u64), Some(reference));
        assert_eq!(status.get("items_resumed").and_then(Json::as_u64), Some(1));
        // Migrated: the envelope moved into the log and job.json is gone.
        assert_eq!(entries(&dir), ["journal"]);
        let envelope = job.log.lines().iter().find_map(|l| Envelope::decode(l));
        assert_eq!(envelope.map(|e| e.workers), Some(1));
        queue.shutdown();
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn legacy_flat_journal_with_a_torn_tail_resumes_to_the_uninterrupted_digest() {
        let cfg = test_config("legacy-flat");
        let root = cfg.journal_root.clone();
        let spec = spec_io::spec_from_value(&tiny_sweep_spec(), "").unwrap();
        let reference = Campaign::new(spec.clone())
            .run()
            .unwrap()
            .deterministic_digest();

        // A job directory as a daemon with the single-file journal left
        // it: a flat `journal.jsonl` holding one of the two runs, then a
        // torn, half-written line.
        let journal = Arc::new(Journal::memory());
        let partial = Campaign::new(spec)
            .journal(Arc::clone(&journal))
            .halt_after(1)
            .run()
            .unwrap();
        assert!(partial.halted);
        let dir = root.join("job-6");
        std::fs::create_dir_all(&dir).unwrap();
        let mut flat = journal.lines().join("\n");
        flat.push_str("\n{\"kind\":\"run\",\"key\":");
        std::fs::write(dir.join("journal.jsonl"), flat).unwrap();
        let envelope = format!(
            r#"{{"id":6,"kind":"sweep","workers":1,"halt_after":null,"incremental":false,"spec":{}}}"#,
            tiny_sweep_spec().encode()
        );
        std::fs::write(dir.join("job.json"), envelope).unwrap();

        let queue = Queue::start(cfg).unwrap();
        let job = queue.job(6).expect("legacy job restored");
        assert_eq!(job.wait_stopped(Duration::from_secs(120)), JobState::Done);
        let status = job.status_value();
        assert_eq!(status.get("digest").and_then(Json::as_u64), Some(reference));
        assert_eq!(status.get("items_resumed").and_then(Json::as_u64), Some(1));
        // The flat file became the job log's first segment, and the
        // envelope moved into the log.
        assert_eq!(entries(&dir), ["journal"]);
        assert!(dir.join("journal").join("seg-000000.jsonl").exists());
        queue.shutdown();
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn restored_job_workers_are_clamped_like_a_submission() {
        let cfg = test_config("clamp-workers");
        let root = cfg.journal_root.clone();
        // Cancelled jobs never execute, so nothing runs with these counts.
        for (id, workers) in [(7, 100_000u64), (8, 0)] {
            let log = SegmentedLog::open(
                &root.join(format!("job-{id}")).join("journal"),
                LogConfig::default(),
            )
            .unwrap();
            let envelope = Envelope {
                kind: JobKind::Sweep,
                workers,
                halt_after: None,
                incremental: false,
                spec: tiny_sweep_spec(),
            };
            log.append(&envelope.encode(id));
            log.append(&state_line("cancelled", None));
        }
        let queue = Queue::start(cfg.clone()).unwrap();
        let hostile = queue.job(7).expect("cancelled job restored");
        assert_eq!(hostile.state(), JobState::Cancelled);
        assert_eq!(hostile.workers, cfg.max_job_workers);
        assert_eq!(queue.job(8).expect("cancelled job restored").workers, 1);
        queue.shutdown();
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn retention_gc_removes_oldest_finished_jobs_one_per_tick() {
        let mut cfg = test_config("retention");
        cfg.retain_jobs = 1;
        cfg.prune_interval_secs = 0; // ticks driven by hand
        cfg.prune_delete_limit = 1; // one directory per tick
        let root = cfg.journal_root.clone();
        let queue = Queue::start(cfg.clone()).unwrap();
        let mut ids = Vec::new();
        for _ in 0..3 {
            let job = queue
                .submit(JobKind::Sweep, submission(tiny_sweep_spec(), None))
                .unwrap();
            assert_eq!(job.wait_stopped(Duration::from_secs(120)), JobState::Done);
            ids.push(job.id);
        }
        let survivor_log = std::fs::read(only_segment(&queue.job(ids[2]).unwrap())).unwrap();

        // 3 terminal jobs, retain 1 → two victims; the budget admits one
        // deletion per tick, so the first tick reports unfinished work.
        let r1 = queue.prune_now().unwrap();
        assert_eq!((r1.pruned, r1.done), (1, false));
        let r2 = queue.prune_now().unwrap();
        assert_eq!((r2.pruned, r2.done), (1, true));
        let r3 = queue.prune_now().unwrap();
        assert_eq!((r3.pruned, r3.done), (0, true));

        // Oldest two gone from disk and the jobs table; the newest and
        // its served result are untouched.
        assert!(queue.job(ids[0]).is_none());
        assert!(queue.job(ids[1]).is_none());
        assert!(!root.join(format!("job-{}", ids[0])).exists());
        let survivor = queue.job(ids[2]).unwrap();
        let after = std::fs::read(only_segment(&survivor)).unwrap();
        assert_eq!(survivor_log, after, "GC must not touch kept results");

        // The /v1/config document carries the GC totals since boot.
        let stats = queue.store_stats();
        let total = |key: &str| stats.get(key).and_then(Json::as_u64);
        assert_eq!(total("ticks"), Some(3));
        assert_eq!(total("pruned_entries"), Some(2));
        assert_eq!(
            total("reclaimed_bytes"),
            Some(r1.reclaimed_bytes + r2.reclaimed_bytes)
        );
        assert!(r1.reclaimed_bytes > 0);
        queue.shutdown();
        drop(queue);

        // Restart: GC'd jobs stay gone, the survivor restores as Done,
        // and nothing about the GC was persisted — a leftover `prune.json`
        // from an older daemon is never read.
        std::fs::write(root.join("prune.json"), "not json").unwrap();
        let queue = Queue::start(cfg).unwrap();
        assert!(queue.job(ids[0]).is_none());
        assert_eq!(queue.job(ids[2]).unwrap().state(), JobState::Done);
        let stats = queue.store_stats();
        assert_eq!(stats.get("pruned_entries").and_then(Json::as_u64), Some(0));
        let r = queue.prune_now().unwrap();
        assert_eq!((r.pruned, r.done), (0, true));
        assert!(root.join(format!("job-{}", ids[2])).exists());
        queue.shutdown();
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn long_campaign_stays_under_the_byte_cap() {
        const CAP: u64 = 100 * 1024;
        let mut cfg = test_config("bytecap");
        cfg.retain_bytes = CAP;
        cfg.prune_interval_secs = 0;
        let root = cfg.journal_root.clone();
        let queue = Queue::start(cfg).unwrap();
        let mut last = None;
        for _ in 0..6 {
            let job = queue
                .submit(JobKind::Sweep, submission(tiny_sweep_spec(), None))
                .unwrap();
            assert_eq!(job.wait_stopped(Duration::from_secs(120)), JobState::Done);
            // Simulate a heavy job: pad its log so a handful of finished
            // jobs overflows the cap deterministically; the log still
            // ends on the result line.
            let result = job.log.last_line().unwrap();
            job.log
                .append(&format!(r#"{{"pad":"{}"}}"#, "x".repeat(40 * 1024)));
            job.log.append(&result);
            last = Some(job);
            let report = queue.prune_now().unwrap();
            assert!(report.done, "default budget clears the backlog per tick");
        }
        // Finished-job bytes are under the cap (the newest job always
        // survives, so the floor is one job's footprint) — and the cap
        // actually bit: older dirs were GCed along the way.
        let terminal_bytes: u64 = queue
            .jobs()
            .iter()
            .filter(|j| j.state().is_stopped())
            .map(|j| j.log.total_bytes())
            .sum();
        assert!(
            terminal_bytes <= CAP,
            "terminal job dirs hold {terminal_bytes} bytes, cap is {CAP}"
        );
        let pruned = queue
            .store_stats()
            .get("pruned_entries")
            .and_then(Json::as_u64)
            .unwrap_or(0);
        assert!(pruned >= 1, "the byte cap never triggered a GC");
        // The survivor still serves its full result and status document.
        let job = last.unwrap();
        let job = queue.job(job.id).expect("newest job kept");
        assert!(job.result_doc(false).is_some());
        let store = job.status_value();
        let store = store.get("store").expect("status carries store stats");
        assert!(store.get("journal_segments").and_then(Json::as_u64) >= Some(1));
        assert_eq!(
            store.get("journal_bytes").and_then(Json::as_u64),
            Some(job.log.total_bytes())
        );
        queue.shutdown();
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn incremental_check_reuses_the_memo_store_across_jobs() {
        let cfg = test_config("incremental");
        let root = cfg.journal_root.clone();
        let queue = Queue::start(cfg).unwrap();
        let spec = Json::parse(
            r#"{"name":"inc-check","apps":["blink"],"schemes":["gecko"],
                "explore":{"max_windows":64}}"#,
        )
        .unwrap();
        let sub = |spec: Json| wire::Submission {
            spec,
            workers: Some(1),
            halt_after: None,
            incremental: true,
        };
        let cold = queue.submit(JobKind::Check, sub(spec.clone())).unwrap();
        assert_eq!(cold.wait_stopped(Duration::from_secs(120)), JobState::Done);
        let warm = queue.submit(JobKind::Check, sub(spec)).unwrap();
        assert_eq!(warm.wait_stopped(Duration::from_secs(120)), JobState::Done);

        // Byte-identical deterministic documents, cold and warm.
        assert_eq!(cold.result_doc(true), warm.result_doc(true));

        // The warm run answered (essentially all of) its windows from the
        // shared store and names the memo generation backing the verdict.
        let full = Json::parse(&warm.result_doc(false).unwrap()).unwrap();
        let memo_windows = full
            .get("counters")
            .and_then(|c| c.get("memo_windows"))
            .and_then(Json::as_u64)
            .unwrap();
        let windows = full
            .get("totals")
            .and_then(|t| t.get("windows"))
            .and_then(Json::as_u64)
            .unwrap();
        assert!(
            memo_windows * 10 >= windows * 9,
            "memo answered {memo_windows} of {windows} windows"
        );
        assert!(full.get("memo_generation").and_then(Json::as_u64).is_some());
        assert!(root.join("memo").exists(), "shared memo dir on disk");

        // The status document surfaces the diagnostics channel (empty on
        // a clean journal) and the durable incremental flag.
        let status = warm.status_value();
        assert_eq!(
            status
                .get("journal_diagnostics")
                .and_then(|d| d.get("total"))
                .and_then(Json::as_u64),
            Some(0)
        );
        assert_eq!(
            status.get("incremental").and_then(Json::as_bool),
            Some(true)
        );
        queue.shutdown();
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn check_status_reports_the_reprove_pass() {
        let cfg = test_config("reprove");
        let root = cfg.journal_root.clone();
        let queue = Queue::start(cfg).unwrap();
        // EM faults followed by re-failures violate under GECKO, so the
        // warm job has persisted violations to re-prove.
        let spec = Json::parse(
            r#"{"name":"reprove-check","apps":["crc16"],"schemes":["gecko"],
                "explore":{"depth":2,"fault_windows":true,"max_windows":10,"seed":1}}"#,
        )
        .unwrap();
        let sub = |spec: Json| wire::Submission {
            spec,
            workers: Some(2),
            halt_after: None,
            incremental: true,
        };
        let reprove = |job: &Job| {
            let full = Json::parse(&job.result_doc(false).unwrap()).unwrap();
            let status = job.status_value();
            let counter = |name: &str| {
                let reported = full
                    .get("counters")
                    .and_then(|c| c.get(name))
                    .and_then(Json::as_u64);
                assert_eq!(status.get(name).and_then(Json::as_u64), reported, "{name}");
                reported.unwrap()
            };
            (
                counter("reproved"),
                counter("reprove_drains"),
                counter("reprove_joins"),
                counter("drain_joins"),
                counter("sweep_joins"),
            )
        };
        let cold = queue.submit(JobKind::Check, sub(spec.clone())).unwrap();
        assert_eq!(cold.wait_stopped(Duration::from_secs(120)), JobState::Done);
        let (reproved, drains, reprove_joins, joins, sweeps) = reprove(&cold);
        assert_eq!(
            (reproved, drains, reprove_joins),
            (0, 0, 0),
            "a cold store has nothing to re-prove"
        );
        assert!(joins > 0, "cold drains join at region commits");
        assert!(sweeps > 0, "cold wake-up sweeps end at region commits");
        let warm = queue.submit(JobKind::Check, sub(spec)).unwrap();
        assert_eq!(warm.wait_stopped(Duration::from_secs(120)), JobState::Done);
        let (reproved, drains, reprove_joins, joins, sweeps) = reprove(&warm);
        assert!(reproved > 0, "the warm job re-proves persisted violations");
        assert!(drains <= reproved);
        assert!(
            reprove_joins > 0 && reprove_joins <= drains,
            "re-prove drains join at their join points ({reprove_joins} of {drains})"
        );
        assert_eq!((joins, sweeps), (0, 0), "a warm job explores nothing");
        // No counter reaches the deterministic document.
        let det = warm.result_doc(true).unwrap();
        assert!(
            !det.contains(r#""reproved""#)
                && !det.contains("reprove_drains")
                && !det.contains("reprove_joins")
                && !det.contains("drain_joins")
                && !det.contains("sweep_joins"),
            "{det}"
        );
        assert_eq!(Some(det), cold.result_doc(true));
        queue.shutdown();
        let _ = std::fs::remove_dir_all(&root);
    }

    /// A violating check spec of three 4-window chunks, and the
    /// deterministic document of its uninterrupted in-process run.
    fn chunked_check_spec() -> (Json, String) {
        let spec = Json::parse(
            r#"{"name":"resume-check","apps":["crc16"],"schemes":["gecko"],
                "explore":{"depth":2,"fault_windows":true,"max_windows":12,"seed":1},
                "chunk_windows":4}"#,
        )
        .unwrap();
        let report = CheckCampaign::new(wire::check_spec_from_value(&spec, "").unwrap())
            .run()
            .unwrap();
        assert!(!report.is_clean(), "violations exercise the re-proof");
        (spec, wire::check_report_deterministic_json(&report))
    }

    #[test]
    fn halted_check_jobs_resume_after_restart_to_the_uninterrupted_document() {
        let (spec, reference) = chunked_check_spec();
        for incremental in [false, true] {
            let cfg = test_config(&format!("check-resume-{incremental}"));
            let root = cfg.journal_root.clone();
            let queue = Queue::start(cfg.clone()).unwrap();
            let sub = wire::Submission {
                spec: spec.clone(),
                workers: Some(2),
                halt_after: Some(1),
                incremental,
            };
            let job = queue.submit(JobKind::Check, sub).unwrap();
            assert_eq!(
                job.wait_stopped(Duration::from_secs(120)),
                JobState::Interrupted
            );
            let id = job.id;
            queue.shutdown();
            drop(queue);

            // "Restart": the job resumes from its memo store alone.
            let queue = Queue::start(cfg).unwrap();
            let job = queue.job(id).expect("job restored");
            assert_eq!(job.wait_stopped(Duration::from_secs(120)), JobState::Done);
            let status = job.status_value();
            assert_eq!(
                status.get("items_resumed").and_then(Json::as_u64),
                Some(1),
                "incremental={incremental}"
            );
            assert_eq!(
                job.result_doc(true).as_deref(),
                Some(reference.as_str()),
                "incremental={incremental}"
            );
            // Incremental jobs record memo slabs into the shared store
            // only; every job keeps its own log.
            let slabs = job
                .log
                .lines()
                .iter()
                .filter(|l| l.contains("memo_slab"))
                .count();
            assert_eq!(slabs > 0, !incremental, "incremental={incremental}");
            assert_eq!(root.join("memo").exists(), incremental);
            assert_eq!(entries(&job.dir), ["journal"]);
            queue.shutdown();
            let _ = std::fs::remove_dir_all(&root);
        }
    }

    #[test]
    fn an_old_chunk_done_journal_is_ignored_and_the_job_re_explores() {
        let cfg = test_config("chunk-done");
        let root = cfg.journal_root.clone();
        let (spec, reference) = chunked_check_spec();

        // The chunks' real run keys, read off a memo store's slab lines.
        let keys_dir = root.join("keys");
        let store = Arc::new(MemoStore::open(&keys_dir).unwrap());
        CheckCampaign::new(wire::check_spec_from_value(&spec, "").unwrap())
            .memo(Arc::clone(&store))
            .run()
            .unwrap();
        let keys: Vec<u64> = store
            .log()
            .lines()
            .iter()
            .filter_map(|line| {
                let rec = Json::parse(line).ok()?;
                let slab = rec.get("kind")?.as_str()? == "memo_slab";
                slab.then(|| rec.get("run_key")?.as_u64())?
            })
            .collect();
        assert_eq!(keys.len(), 3);
        drop(store);
        let _ = std::fs::remove_dir_all(&keys_dir);

        // A job directory as a daemon with the checker journal left it,
        // halted after two chunks: a header and two `chunk_done` lines
        // under the real run keys, with counters that would corrupt the
        // report if anything still trusted them.
        let dir = root.join("job-7");
        let log = SegmentedLog::open(&dir.join("journal"), LogConfig::default()).unwrap();
        log.append(&gecko_fleet::journal::encode_header("resume-check", 0x5EED));
        for (item, key) in keys.iter().take(2).enumerate() {
            log.append(&format!(
                r#"{{"kind":"chunk_done","run_key":{key},"item":{item},"windows":999,"forks":1,"explored":1,"memo_hits":0,"steps":1,"violations":0,"viols":""}}"#
            ));
        }
        drop(log);
        let envelope = format!(
            r#"{{"id":7,"kind":"check","workers":1,"halt_after":2,"incremental":false,"spec":{}}}"#,
            spec.encode()
        );
        std::fs::write(dir.join("job.json"), envelope).unwrap();

        let queue = Queue::start(cfg).unwrap();
        let job = queue.job(7).expect("old check job restored");
        assert_eq!(job.wait_stopped(Duration::from_secs(120)), JobState::Done);
        let status = job.status_value();
        assert_eq!(status.get("items_resumed").and_then(Json::as_u64), Some(0));
        assert_eq!(job.result_doc(true).as_deref(), Some(reference.as_str()));
        queue.shutdown();
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn cancelling_a_queued_job_is_terminal_across_restart() {
        let mut cfg = test_config("cancel");
        // No workers would race us to the job, but use a long-running
        // blocker instead: submit with 0 queue workers is impossible
        // (min 1), so cancel before the worker picks it up by flooding.
        cfg.queue_workers = 1;
        let root = cfg.journal_root.clone();
        let queue = Queue::start(cfg.clone()).unwrap();
        // Occupy the single worker with a job heavy enough that the
        // victim is still queued when we cancel it.
        let blocker_spec = Json::parse(
            r#"{"name":"queue-blocker","apps":["blink","crc16"],"schemes":["gecko","nvp"],
                "seeds":[1,2,3,4],"workload":{"kind":"run_for","seconds":0.01}}"#,
        )
        .unwrap();
        let blocker = queue
            .submit(JobKind::Sweep, submission(blocker_spec, None))
            .unwrap();
        // ...then cancel one that is still queued behind it.
        let victim = queue
            .submit(JobKind::Sweep, submission(tiny_sweep_spec(), None))
            .unwrap();
        queue.cancel(&victim);
        assert_eq!(victim.state(), JobState::Cancelled);
        let last = victim.log.last_line().and_then(|l| decode_terminal(&l));
        assert_eq!(last, Some((JobState::Cancelled, None, None)));
        blocker.wait_stopped(Duration::from_secs(120));
        queue.shutdown();
        drop(queue);

        let queue = Queue::start(cfg).unwrap();
        let restored = queue.job(victim.id).expect("cancelled job restored");
        assert_eq!(restored.state(), JobState::Cancelled);
        queue.shutdown();
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn a_legacy_done_directory_migrates_in_place_and_a_killed_migration_repeats() {
        let cfg = test_config("migrate");
        let root = cfg.journal_root.clone();
        let spec = spec_io::spec_from_value(&tiny_sweep_spec(), "").unwrap();

        // A Done job directory as an older daemon left it: job.json, the
        // run journal, the telemetry log and both result documents.
        let dir = root.join("job-9");
        let journal = Journal::open_segmented(&dir.join("journal"), LogConfig::default()).unwrap();
        let report = Campaign::new(spec)
            .journal(Arc::new(journal))
            .run()
            .unwrap();
        let (full, det) = (
            spec_io::report_to_json(&report),
            spec_io::report_deterministic_json(&report),
        );
        let legacy = [
            (
                "job.json",
                format!(
                    r#"{{"id":9,"kind":"sweep","workers":1,"halt_after":null,"incremental":false,"spec":{}}}"#,
                    tiny_sweep_spec().encode()
                ),
            ),
            ("result.json", full.clone()),
            ("result.det.json", det.clone()),
        ];
        for (name, text) in &legacy {
            std::fs::write(dir.join(name), text).unwrap();
        }
        let telemetry = SegmentedLog::open(&dir.join("telemetry"), LogConfig::default()).unwrap();
        telemetry.append(r#"{"seq":0,"event":"campaign_started"}"#);
        drop(telemetry);

        let boot = |expect_lines: usize| {
            let queue = Queue::start(cfg.clone()).unwrap();
            let job = queue.job(9).expect("legacy job restored");
            assert_eq!(job.state(), JobState::Done);
            let digest = job.status_value().get("digest").and_then(Json::as_u64);
            assert_eq!(digest, Some(report.deterministic_digest()));
            // Both views are served byte for byte from the terminal line.
            assert_eq!(job.result_doc(false).as_deref(), Some(full.as_str()));
            assert_eq!(job.result_doc(true).as_deref(), Some(det.as_str()));
            assert_eq!(entries(&dir), ["journal"]);
            assert_eq!(job.log.lines().len(), expect_lines);
            queue.shutdown();
        };
        let journaled = Journal::open_segmented(&dir.join("journal"), LogConfig::default())
            .unwrap()
            .lines()
            .len();
        // The journal, plus the envelope and the result line.
        boot(journaled + 2);

        // A kill mid-migration: result.json is already deleted, the rest
        // of the old files are still there. The next boot finishes the
        // migration without appending anything twice.
        for (name, text) in &legacy[..] {
            if *name != "result.json" {
                std::fs::write(dir.join(name), text).unwrap();
            }
        }
        boot(journaled + 2);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn age_retention_measures_from_the_last_write_to_the_job_log() {
        let mut cfg = test_config("retain-age");
        cfg.retain_age_secs = 600;
        cfg.prune_interval_secs = 0;
        let root = cfg.journal_root.clone();
        let queue = Queue::start(cfg).unwrap();
        let jobs: Vec<Arc<Job>> = (0..2)
            .map(|_| {
                let job = queue
                    .submit(JobKind::Sweep, submission(tiny_sweep_spec(), None))
                    .unwrap();
                assert_eq!(job.wait_stopped(Duration::from_secs(120)), JobState::Done);
                job
            })
            .collect();
        // Both finished just now: nothing is old enough.
        assert_eq!(queue.prune_now().unwrap().pruned, 0);

        // The first job's log was last written an hour ago.
        let an_hour_ago = SystemTime::now() - Duration::from_secs(3600);
        std::fs::File::options()
            .write(true)
            .open(only_segment(&jobs[0]))
            .unwrap()
            .set_modified(an_hour_ago)
            .unwrap();
        assert_eq!(queue.prune_now().unwrap().pruned, 1);
        assert!(queue.job(jobs[0].id).is_none() && !jobs[0].dir.exists());
        assert!(queue.job(jobs[1].id).is_some() && jobs[1].dir.exists());
        queue.shutdown();
        let _ = std::fs::remove_dir_all(&root);
    }
}
