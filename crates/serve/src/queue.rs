//! The multi-tenant job queue: submissions become journaled jobs, a small
//! pool of queue workers drains them through the PR-4 supervision stack,
//! and every job's state survives a daemon restart.
//!
//! On-disk layout, one directory per job under the configured journal
//! root:
//!
//! ```text
//! job-<id>/
//!   job.json         submission envelope (kind, workers, halt_after, incremental, spec)
//!   journal/         segmented fleet run journal — the resume checkpoint
//!     seg-000000.jsonl ...
//!   telemetry/       segmented event log, append-only across sessions
//!     seg-000000.jsonl ...
//!   result.json      full report document (written only when Done)
//!   result.det.json  deterministic report document (written only when Done)
//!   state.json       terminal non-Done marker (Cancelled / Failed)
//! ```
//!
//! Journal and telemetry are [`gecko_store::SegmentedLog`]s: sealed
//! segments are fsynced, a torn active tail is repaired (and counted) on
//! open, and a legacy flat `journal.jsonl` from an older daemon still
//! resumes. A background pruner GCs finished `job-<id>/` directories
//! under the configured retention policy (`retain_jobs` /
//! `retain_bytes` / `retain_age_secs`), a bounded number of deletions
//! per tick, with its [`gecko_store::PruneCheckpoint`]s persisted in
//! `prune.json` under the journal root.
//!
//! The restart scan derives state from those files alone: `result.json`
//! means Done, `state.json` means Cancelled/Failed, anything else means
//! the job was interrupted (daemon killed, graceful shutdown, or
//! `halt_after`) and goes back on the queue — [`Campaign::resume`] skips
//! the journaled runs and the merged report is bit-exact against an
//! uninterrupted run.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use gecko_check::{classify_memo_lines, CheckCampaign, MemoStore};
use gecko_fleet::json::Json;
use gecko_fleet::spec_io;
use gecko_fleet::supervisor::lock_unpoisoned;
use gecko_fleet::telemetry::{Event, TelemetrySink};
use gecko_fleet::{Campaign, Journal};
use gecko_sim::report::Value;
use gecko_store::{
    LogCompactor, LogConfig, PruneInput, PruneOutput, Pruner, Segment, SegmentedLog, StoreError,
    TickReport,
};

use crate::config::ServeConfig;
use crate::wire;

// ---------------------------------------------------------------------------
// Job sink: bounded event ring + append-only file, long-poll wakeups
// ---------------------------------------------------------------------------

/// Per-job telemetry sink: keeps the last `cap` events in a seq-numbered
/// ring for the `/events` long-poll endpoint and appends every event to
/// the job's segmented `telemetry/` log.
///
/// `dropped_records()` is pinned to 0 on purpose: ring *eviction* is not
/// a drop (the log retains everything), and reporting a nonzero count
/// would append a `SinkDropped` failure to the report — which would break
/// the served-vs-in-process digest equality this daemon is built around.
/// Log-write failures are surfaced separately through
/// [`JobSink::file_drops`] and the job status document.
pub struct JobSink {
    cap: usize,
    state: Mutex<SinkState>,
    cond: Condvar,
    log: Option<Arc<SegmentedLog>>,
    // Events emitted while the log itself failed to open; write failures
    // on an open log are counted by the log.
    open_drops: AtomicU64,
}

struct SinkState {
    events: VecDeque<(u64, String)>,
    next_seq: u64,
    evicted: u64,
    done_items: u64,
    total_items: Option<u64>,
    resumed: u64,
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
    /// full stream is always in the `telemetry/` log).
    pub evicted: u64,
    /// No more events will ever arrive (job reached a stopped state).
    pub closed: bool,
}

impl JobSink {
    /// Creates a sink with a ring of `cap` events, appending to the
    /// segmented log in `dir`.
    pub fn new(cap: usize, dir: &Path) -> JobSink {
        let log = SegmentedLog::open(dir, LogConfig::default())
            .ok()
            .map(Arc::new);
        JobSink {
            cap: cap.max(16),
            state: Mutex::new(SinkState {
                events: VecDeque::new(),
                next_seq: 0,
                evicted: 0,
                done_items: 0,
                total_items: None,
                resumed: 0,
                closed: false,
                diagnostics: Vec::new(),
                diagnostics_total: 0,
            }),
            cond: Condvar::new(),
            log,
            open_drops: AtomicU64::new(0),
        }
    }

    /// The segmented telemetry log (absent when its directory failed to
    /// open).
    pub fn log(&self) -> Option<&Arc<SegmentedLog>> {
        self.log.as_ref()
    }

    /// Progress so far: `(done, total, resumed)`. `total` is known once
    /// the campaign emits its `*_started` event.
    pub fn progress(&self) -> (u64, Option<u64>, u64) {
        let s = lock_unpoisoned(&self.state);
        (s.done_items, s.total_items, s.resumed)
    }

    /// Events that failed to reach the on-disk telemetry log: append
    /// failures counted by the log, plus everything emitted while the
    /// log's directory could not be opened at all.
    pub fn file_drops(&self) -> u64 {
        let log_drops = self.log.as_ref().map_or(0, |l| l.dropped());
        self.open_drops.load(Ordering::Relaxed) + log_drops
    }

    /// Events evicted from the ring (still on disk, gone from the poll
    /// window).
    pub fn evicted(&self) -> u64 {
        lock_unpoisoned(&self.state).evicted
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
        let deadline = Instant::now() + wait;
        let mut s = lock_unpoisoned(&self.state);
        loop {
            let has_new = s.events.back().is_some_and(|(seq, _)| *seq >= from);
            if has_new || s.closed {
                let events: Vec<String> = s
                    .events
                    .iter()
                    .filter(|(seq, _)| *seq >= from)
                    .map(|(_, line)| line.clone())
                    .collect();
                return EventBatch {
                    events,
                    next: s.next_seq,
                    evicted: s.evicted,
                    closed: s.closed,
                };
            }
            let now = Instant::now();
            if now >= deadline {
                return EventBatch {
                    events: Vec::new(),
                    next: s.next_seq,
                    evicted: s.evicted,
                    closed: s.closed,
                };
            }
            let (guard, _) = self
                .cond
                .wait_timeout(s, deadline - now)
                .unwrap_or_else(|p| {
                    let (g, t) = p.into_inner();
                    (g, t)
                });
            s = guard;
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
                            _ => {}
                        }
                    }
                }
            }
            "item_finished" | "check_item_finished" => s.done_items += 1,
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
        match &self.log {
            Some(log) => log.append(&line),
            None => {
                self.open_drops.fetch_add(1, Ordering::Relaxed);
            }
        }
        s.events.push_back((seq, line));
        if s.events.len() > self.cap {
            s.events.pop_front();
            s.evicted += 1;
        }
        self.cond.notify_all();
    }

    fn flush(&self) {
        // A failed sync is not a lost line; the log keeps its own count.
        if let Some(log) = &self.log {
            let _ = log.sync();
        }
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
    /// Finished completely; `result.json` + `result.det.json` exist.
    Done,
    /// Spec/compile/journal error; `state.json` has the message.
    Failed,
    /// Cancelled by the client; `state.json` marks it.
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
/// live state, and its telemetry sink.
pub struct Job {
    /// Job id (also names the on-disk directory, `job-<id>`).
    pub id: u64,
    /// Sweep or check.
    pub kind: JobKind,
    /// The spec's own name (for listings).
    pub name: String,
    /// The job directory.
    pub dir: PathBuf,
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
    /// The telemetry sink (ring + file).
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
        let deadline = Instant::now() + wait;
        let mut p = lock_unpoisoned(&self.progress);
        loop {
            if p.state.is_stopped() {
                return p.state;
            }
            let now = Instant::now();
            if now >= deadline {
                return p.state;
            }
            let (guard, _) = self
                .progress_cond
                .wait_timeout(p, deadline - now)
                .unwrap_or_else(|e| {
                    let (g, t) = e.into_inner();
                    (g, t)
                });
            p = guard;
        }
    }

    /// The `/v1/jobs/<id>` status document.
    pub fn status_value(&self) -> Json {
        let p = lock_unpoisoned(&self.progress);
        let (done, total, resumed) = self.sink.progress();
        Json::Obj(vec![
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
            ("items_done".into(), Json::U64(done)),
            ("items_total".into(), total.map_or(Json::Null, Json::U64)),
            ("items_resumed".into(), Json::U64(resumed)),
            ("events_total".into(), {
                let s = lock_unpoisoned(&self.sink.state);
                Json::U64(s.next_seq)
            }),
            ("events_evicted".into(), Json::U64(self.sink.evicted())),
            (
                "telemetry_file_drops".into(),
                Json::U64(self.sink.file_drops()),
            ),
            ("journal_diagnostics".into(), {
                let s = lock_unpoisoned(&self.sink.state);
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
                ])
            }),
            ("store".into(), self.store_value()),
        ])
    }

    /// Per-job store stats: segment counts and on-disk bytes for the
    /// job's journal and telemetry logs.
    fn store_value(&self) -> Json {
        let (tel_segments, tel_bytes) = self
            .sink
            .log()
            .map_or((0, 0), |l| (l.segments().len() as u64, l.total_bytes()));
        // The journal log is owned by the executing campaign, not the
        // job, so its stats come from the directory itself (the legacy
        // flat file counts as one segment).
        let (jnl_segments, jnl_bytes) = log_dir_stats(&self.dir.join("journal"));
        let (jnl_segments, jnl_bytes) = match std::fs::metadata(self.dir.join("journal.jsonl")) {
            Ok(m) => (jnl_segments + 1, jnl_bytes + m.len()),
            Err(_) => (jnl_segments, jnl_bytes),
        };
        Json::Obj(vec![
            ("journal_segments".into(), Json::U64(jnl_segments)),
            ("journal_bytes".into(), Json::U64(jnl_bytes)),
            ("telemetry_segments".into(), Json::U64(tel_segments)),
            ("telemetry_bytes".into(), Json::U64(tel_bytes)),
        ])
    }
}

/// Counts `seg-*.jsonl` segments and their bytes in a log directory.
fn log_dir_stats(dir: &Path) -> (u64, u64) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return (0, 0);
    };
    let mut segments = 0;
    let mut bytes = 0;
    for entry in entries.flatten() {
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with("seg-") && name.ends_with(".jsonl") {
            segments += 1;
            bytes += entry.metadata().map_or(0, |m| m.len());
        }
    }
    (segments, bytes)
}

// ---------------------------------------------------------------------------
// Queue
// ---------------------------------------------------------------------------

/// Errors a submission can fail with (mapped to HTTP 400/409/503 by the
/// server).
#[derive(Debug)]
pub enum SubmitError {
    /// The spec document did not decode.
    BadSpec(String),
    /// A daemon limit was exceeded.
    Limit(String),
    /// The queue is shutting down.
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::BadSpec(m) => write!(f, "{m}"),
            SubmitError::Limit(m) => write!(f, "{m}"),
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
    // Retention pruner (None when prune.json could not be opened). The
    // background tick thread and `Queue::prune_now` share it.
    pruner: Mutex<Option<Pruner>>,
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
            pruner: Mutex::new(None),
            prune_gate: Mutex::new(()),
            prune_cond: Condvar::new(),
        });
        // The segment holds a Weak so the pruner inside QueueInner does
        // not keep QueueInner alive through itself.
        if let Ok(mut pruner) = Pruner::open(
            &inner.cfg.journal_root.join("prune.json"),
            inner.cfg.prune_delete_limit,
        ) {
            pruner.add(JobDirsSegment {
                inner: Arc::downgrade(&inner),
            });
            *lock_unpoisoned(&inner.pruner) = Some(pruner);
        }
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
                    .expect("spawn pruner"),
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
    /// stats (pruner checkpoints, tick count).
    pub fn config_value(&self) -> Json {
        let mut doc = self.inner.cfg.to_value();
        if let Json::Obj(fields) = &mut doc {
            fields.push(("store".into(), self.store_stats()));
        }
        doc
    }

    /// Live store stats: one [`gecko_store::PruneCheckpoint`] per
    /// registered segment kind plus the tick counter. `null` when the
    /// pruner failed to boot.
    pub fn store_stats(&self) -> Json {
        let guard = lock_unpoisoned(&self.inner.pruner);
        let Some(pruner) = guard.as_ref() else {
            return Json::Null;
        };
        let checkpoints: Vec<(String, Json)> = pruner
            .checkpoints()
            .all()
            .map(|(kind, cp)| {
                (
                    kind.to_string(),
                    Json::Obj(vec![
                        ("next_segment".into(), Json::U64(cp.next_segment)),
                        ("pruned_entries".into(), Json::U64(cp.pruned_entries)),
                        ("reclaimed_bytes".into(), Json::U64(cp.reclaimed_bytes)),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("ticks".into(), Json::U64(pruner.ticks())),
            (
                "delete_limit".into(),
                Json::U64(self.inner.cfg.prune_delete_limit as u64),
            ),
            ("checkpoints".into(), Json::Obj(checkpoints)),
        ])
    }

    /// Runs one pruner tick synchronously (what the background thread
    /// does every `prune_interval_secs`). Tests drive retention through
    /// this for determinism.
    pub fn prune_now(&self) -> Option<TickReport> {
        let mut guard = lock_unpoisoned(&self.inner.pruner);
        guard.as_mut().and_then(|p| p.tick().ok())
    }

    /// Submits a job. The spec document is fully decoded (and therefore
    /// validated) before anything is persisted, so a bad submission never
    /// leaves a job directory behind.
    ///
    /// # Errors
    ///
    /// [`SubmitError::BadSpec`] for undecodable specs,
    /// [`SubmitError::Limit`] for limit violations,
    /// [`SubmitError::ShuttingDown`] during drain.
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
        std::fs::create_dir_all(&dir)
            .map_err(|e| SubmitError::Limit(format!("creating {}: {e}", dir.display())))?;
        let envelope = Json::Obj(vec![
            ("id".into(), Json::U64(id)),
            ("kind".into(), Json::Str(kind.name().to_string())),
            ("workers".into(), Json::U64(workers as u64)),
            (
                "halt_after".into(),
                sub.halt_after.map_or(Json::Null, Json::U64),
            ),
            ("incremental".into(), Json::Bool(sub.incremental)),
            ("spec".into(), sub.spec.clone()),
        ]);
        std::fs::write(dir.join("job.json"), envelope.encode())
            .map_err(|e| SubmitError::Limit(format!("persisting job.json: {e}")))?;
        let job = Arc::new(Job {
            id,
            kind,
            name,
            sink: Arc::new(JobSink::new(inner.cfg.event_buffer, &dir.join("telemetry"))),
            dir,
            spec: sub.spec,
            workers,
            halt_after: sub.halt_after,
            grid,
            incremental: sub.incremental,
            stop: Arc::new(AtomicBool::new(false)),
            cancel_requested: AtomicBool::new(false),
            progress: Mutex::new(JobProgress {
                state: JobState::Queued,
                error: None,
                digest: None,
            }),
            progress_cond: Condvar::new(),
        });
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
            write_state_file(&job.dir, "cancelled", None);
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
            match restore_job(inner, id, &dir) {
                Some(job) => {
                    let queued = job.state() == JobState::Queued;
                    lock_unpoisoned(&inner.jobs).push(Arc::clone(&job));
                    if queued {
                        lock_unpoisoned(&inner.pending).push_back(job);
                    }
                }
                None => {
                    // A directory we cannot make sense of is left alone on
                    // disk but not served; the id is still reserved so a
                    // fresh submission cannot collide with it.
                }
            }
            let floor = id + 1;
            inner.next_id.fetch_max(floor, Ordering::SeqCst);
        }
    }
}

/// Decodes `job.json` + terminal markers back into a [`Job`].
fn restore_job(inner: &QueueInner, id: u64, dir: &Path) -> Option<Arc<Job>> {
    let envelope = Json::parse(&std::fs::read_to_string(dir.join("job.json")).ok()?).ok()?;
    let kind = JobKind::from_name(envelope.get("kind")?.as_str()?)?;
    let spec = envelope.get("spec")?.clone();
    let workers = envelope.get("workers")?.as_u64()? as usize;
    // `halt_after` is a one-shot interruption hook: it already fired in
    // the session that journaled the halt, so a restored job resumes to
    // completion instead of halting again every session. job.json keeps
    // the submitted value for provenance only. A `batch` key from a daemon
    // that still had the lock-step path is ignored (DESIGN.md §16).
    let halt_after = None;
    // Envelopes from pre-incremental daemons default to off.
    let incremental = envelope
        .get("incremental")
        .and_then(Json::as_bool)
        .unwrap_or(false);
    let (name, grid) = validate_spec(kind, &spec).ok()?;

    // Terminal-state detection from the directory contents alone.
    let (state, error, digest) = if let Ok(text) = std::fs::read_to_string(dir.join("result.json"))
    {
        let digest = Json::parse(&text)
            .ok()
            .and_then(|doc| doc.get("digest")?.as_u64());
        (JobState::Done, None, digest)
    } else if let Ok(text) = std::fs::read_to_string(dir.join("state.json")) {
        let doc = Json::parse(&text).ok()?;
        let state = match doc.get("state")?.as_str()? {
            "cancelled" => JobState::Cancelled,
            "failed" => JobState::Failed,
            _ => return None,
        };
        let error = doc.get("error").and_then(Json::as_str).map(str::to_string);
        (state, error, None)
    } else {
        // No terminal marker: the previous session was interrupted (or
        // never started the job). Re-queue; resume skips journaled runs.
        (JobState::Queued, None, None)
    };

    let sink = Arc::new(JobSink::new(inner.cfg.event_buffer, &dir.join("telemetry")));
    if state.is_stopped() {
        sink.close();
    }
    Some(Arc::new(Job {
        id,
        kind,
        name,
        dir: dir.to_path_buf(),
        spec,
        workers,
        halt_after,
        grid,
        incremental,
        sink,
        stop: Arc::new(AtomicBool::new(false)),
        cancel_requested: AtomicBool::new(false),
        progress: Mutex::new(JobProgress {
            state,
            error,
            digest,
        }),
        progress_cond: Condvar::new(),
    }))
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

fn write_state_file(dir: &Path, state: &str, error: Option<&str>) {
    let doc = Json::Obj(vec![
        ("state".into(), Json::Str(state.to_string())),
        (
            "error".into(),
            error.map_or(Json::Null, |e| Json::Str(e.to_string())),
        ),
    ]);
    let _ = std::fs::write(dir.join("state.json"), doc.encode());
}

/// GCs finished `job-<id>/` directories under the retention policy.
///
/// The "entries" of this segment are whole job directories: one pruned
/// entry = one terminal (done/failed/cancelled) job removed from disk and
/// from the jobs table, oldest id first. Interrupted jobs are never
/// candidates — they resume on the next boot. The checkpoint's
/// `next_segment` records the highest removed id + 1 for observability
/// only; candidates are always re-derived from the live jobs table, so a
/// job that *becomes* terminal later is still eligible below that
/// frontier.
struct JobDirsSegment {
    inner: std::sync::Weak<QueueInner>,
}

impl Segment for JobDirsSegment {
    fn kind(&self) -> &str {
        "job_dirs"
    }

    fn prune(&self, input: PruneInput) -> Result<PruneOutput, StoreError> {
        let mut cp = input.checkpoint.unwrap_or_default();
        let Some(inner) = self.inner.upgrade() else {
            return Ok(PruneOutput {
                pruned: 0,
                reclaimed_bytes: 0,
                done: true,
                checkpoint: cp,
            });
        };
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
        let sizes: Vec<u64> = terminal.iter().map(|j| dir_size(&j.dir)).collect();
        let ages: Vec<u64> = terminal.iter().map(|j| dir_age_secs(&j.dir)).collect();
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

        let mut pruned = 0;
        let mut reclaimed_bytes = 0;
        let mut done = true;
        for (job, &bytes) in terminal.iter().zip(&sizes).take(victims) {
            if pruned >= input.delete_limit {
                done = false;
                break;
            }
            if let Err(e) = std::fs::remove_dir_all(&job.dir) {
                return Err(StoreError::Io(e));
            }
            lock_unpoisoned(&inner.jobs).retain(|j| j.id != job.id);
            pruned += 1;
            reclaimed_bytes += bytes;
            cp.next_segment = cp.next_segment.max(job.id + 1);
            cp.pruned_entries += 1;
            cp.reclaimed_bytes += bytes;
        }
        Ok(PruneOutput {
            pruned,
            reclaimed_bytes,
            done,
            checkpoint: cp,
        })
    }
}

/// Recursive directory size in bytes (0 for anything unreadable).
fn dir_size(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_size(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Seconds since the directory was last modified (0 if unknown — an
/// unreadable mtime never makes a job "old enough" to GC).
fn dir_age_secs(dir: &Path) -> u64 {
    std::fs::metadata(dir)
        .and_then(|m| m.modified())
        .ok()
        .and_then(|t| std::time::SystemTime::now().duration_since(t).ok())
        .map_or(0, |d| d.as_secs())
}

/// Background retention thread: one pruner tick per interval, waking
/// early (and exiting) on shutdown.
fn prune_loop(inner: &Arc<QueueInner>) {
    let interval = Duration::from_secs(inner.cfg.prune_interval_secs.max(1));
    loop {
        if inner.shutting_down.load(Ordering::SeqCst) {
            return;
        }
        if let Some(pruner) = lock_unpoisoned(&inner.pruner).as_mut() {
            let _ = pruner.tick();
        }
        let gate = lock_unpoisoned(&inner.prune_gate);
        let _unused = inner
            .prune_cond
            .wait_timeout(gate, interval)
            .unwrap_or_else(std::sync::PoisonError::into_inner);
    }
}

fn worker_loop(inner: &Arc<QueueInner>) {
    loop {
        let job = {
            let mut pending = lock_unpoisoned(&inner.pending);
            loop {
                if inner.shutting_down.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(job) = pending.pop_front() {
                    break job;
                }
                pending = inner
                    .pending_cond
                    .wait(pending)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
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
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in text.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Runs one job to a stopped state, writing its terminal files.
fn execute(cfg: &ServeConfig, job: &Arc<Job>) {
    job.set_state(JobState::Running, None, None);
    // Segmented journal; a flat `journal.jsonl` written by an older
    // daemon still resumes through the legacy single-file backend.
    let legacy = job.dir.join("journal.jsonl");
    let journal = if legacy.exists() {
        Journal::open(&legacy)
    } else {
        Journal::open_segmented(&job.dir.join("journal"), LogConfig::default())
    };
    let journal = match journal {
        Ok(j) => Arc::new(j),
        Err(e) => {
            let msg = format!("opening journal: {e}");
            write_state_file(&job.dir, "failed", Some(&msg));
            job.set_state(JobState::Failed, Some(msg), None);
            job.sink.close();
            return;
        }
    };
    let sink: Arc<dyn TelemetrySink> = job.sink.clone();

    // Outcome of the run, normalized across sweep/check:
    // Ok((complete, digest, full_doc, det_doc)) or Err(message).
    let outcome: Result<(bool, u64, String, String), String> = match job.kind {
        JobKind::Sweep => spec_io::spec_from_value(&job.spec, "")
            .map_err(|e| format!("invalid campaign spec: {e}"))
            .and_then(|spec| {
                let total = spec.expand().len() as u64;
                let mut campaign = Campaign::new(spec)
                    .workers(job.workers)
                    .sink(sink)
                    .resume(journal)
                    .kill_switch(Arc::clone(&job.stop));
                if let Some(n) = job.halt_after {
                    campaign = campaign.halt_after(n);
                }
                let report = campaign.run().map_err(|e| format!("{e:?}"))?;
                // A halted sweep can still be complete: every grid slot is
                // accounted as a result or an item-level failure.
                let accounted = report.results.len() as u64
                    + report
                        .failures
                        .iter()
                        .filter(|f| f.item().is_some())
                        .count() as u64;
                let complete = !report.halted || accounted == total;
                Ok((
                    complete,
                    report.deterministic_digest(),
                    spec_io::report_to_json(&report),
                    spec_io::report_deterministic_json(&report),
                ))
            }),
        JobKind::Check => wire::check_spec_from_value(&job.spec, "")
            .map_err(|e| format!("invalid check spec: {e}"))
            .and_then(|spec| {
                // Incremental mode: a durable memo store keyed by the
                // canonical spec document, shared across every job (and
                // daemon session) checking the same spec. Opened
                // best-effort — a store that fails to open just means a
                // cold run.
                let memo: Option<(PathBuf, Arc<MemoStore>)> = if job.incremental {
                    job.dir.parent().and_then(|root| {
                        let key = memo_key(&wire::check_spec_value(&spec).encode());
                        let dir = root.join("memo").join(format!("{key:016x}"));
                        let store = MemoStore::open(&dir).ok()?;
                        Some((dir, Arc::new(store)))
                    })
                } else {
                    None
                };
                let mut campaign = CheckCampaign::new(spec)
                    .workers(job.workers)
                    .sink(sink)
                    .resume(journal)
                    .kill_switch(Arc::clone(&job.stop));
                if let Some((_, store)) = &memo {
                    campaign = campaign.memo(Arc::clone(store));
                }
                if let Some(n) = job.halt_after {
                    campaign = campaign.halt_after(n);
                }
                let report = campaign.run().map_err(|e| format!("{e:?}"))?;
                // Budgeted compaction of the memo log, after the run so
                // the sealed segments it rewrites already hold this run's
                // flushed records. Its checkpoint lives beside the log.
                if let Some((dir, store)) = memo {
                    if let Ok(mut pruner) =
                        Pruner::open(&dir.join("prune.json"), cfg.prune_delete_limit)
                    {
                        pruner.add(LogCompactor::new(
                            "check-memo",
                            store.log(),
                            classify_memo_lines,
                        ));
                        let _ = pruner.tick();
                    }
                }
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

    match outcome {
        Ok((true, digest, full, det)) => {
            let write = std::fs::write(job.dir.join("result.det.json"), det)
                .and_then(|()| std::fs::write(job.dir.join("result.json"), full));
            match write {
                Ok(()) => job.set_state(JobState::Done, None, Some(digest)),
                Err(e) => {
                    let msg = format!("persisting result: {e}");
                    write_state_file(&job.dir, "failed", Some(&msg));
                    job.set_state(JobState::Failed, Some(msg), None);
                }
            }
        }
        Ok((false, ..)) => {
            // Stopped at a clean checkpoint: kill switch (cancel or daemon
            // drain) or halt_after. Journal has everything completed so
            // far; no terminal file means the next boot resumes it —
            // except an explicit cancel, which is terminal.
            if job.cancel_requested.load(Ordering::SeqCst) {
                write_state_file(&job.dir, "cancelled", None);
                job.set_state(JobState::Cancelled, None, None);
            } else {
                job.set_state(JobState::Interrupted, None, None);
            }
        }
        Err(msg) => {
            write_state_file(&job.dir, "failed", Some(&msg));
            job.set_state(JobState::Failed, Some(msg), None);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert!(job.dir.join("result.json").exists());
        assert!(job.dir.join("result.det.json").exists());
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
        let survivor_result =
            std::fs::read(root.join(format!("job-{}/result.json", ids[2]))).unwrap();

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
        assert!(queue.job(ids[2]).is_some());
        let after = std::fs::read(root.join(format!("job-{}/result.json", ids[2]))).unwrap();
        assert_eq!(survivor_result, after, "GC must not touch kept results");

        // The /v1/config document carries the pruner's checkpoint.
        let stats = queue.store_stats();
        let pruned = stats
            .get("checkpoints")
            .and_then(|c| c.get("job_dirs"))
            .and_then(|c| c.get("pruned_entries"))
            .and_then(Json::as_u64);
        assert_eq!(pruned, Some(2));
        queue.shutdown();
        drop(queue);

        // Restart: GC'd jobs stay gone, the survivor restores as Done,
        // and the persisted checkpoint is still there.
        let queue = Queue::start(cfg).unwrap();
        assert!(queue.job(ids[0]).is_none());
        assert_eq!(queue.job(ids[2]).unwrap().state(), JobState::Done);
        let stats = queue.store_stats();
        let pruned = stats
            .get("checkpoints")
            .and_then(|c| c.get("job_dirs"))
            .and_then(|c| c.get("pruned_entries"))
            .and_then(Json::as_u64);
        assert_eq!(pruned, Some(2), "checkpoint survives restart");
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
            // Simulate a heavy job: pad the dir so a handful of finished
            // jobs overflows the cap deterministically.
            std::fs::write(job.dir.join("pad.bin"), vec![0u8; 40 * 1024]).unwrap();
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
            .map(|j| dir_size(&j.dir))
            .sum();
        assert!(
            terminal_bytes <= CAP,
            "terminal job dirs hold {terminal_bytes} bytes, cap is {CAP}"
        );
        let pruned = queue
            .store_stats()
            .get("checkpoints")
            .and_then(|c| c.get("job_dirs"))
            .and_then(|c| c.get("pruned_entries"))
            .and_then(Json::as_u64)
            .unwrap_or(0);
        assert!(pruned >= 1, "the byte cap never triggered a GC");
        // The survivor still serves its full result and status document.
        let job = last.unwrap();
        let job = queue.job(job.id).expect("newest job kept");
        assert!(job.dir.join("result.json").exists());
        let store = job.status_value();
        let store = store.get("store").expect("status carries store stats");
        assert!(store.get("telemetry_segments").and_then(Json::as_u64) >= Some(1));
        assert!(store.get("journal_segments").and_then(Json::as_u64) >= Some(1));
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
        let cold_det = std::fs::read(cold.dir.join("result.det.json")).unwrap();
        let warm_det = std::fs::read(warm.dir.join("result.det.json")).unwrap();
        assert_eq!(cold_det, warm_det);

        // The warm run answered (essentially all of) its windows from the
        // shared store and names the memo generation backing the verdict.
        let full =
            Json::parse(&std::fs::read_to_string(warm.dir.join("result.json")).unwrap()).unwrap();
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
        assert!(victim.dir.join("state.json").exists());
        blocker.wait_stopped(Duration::from_secs(120));
        queue.shutdown();
        drop(queue);

        let queue = Queue::start(cfg).unwrap();
        let restored = queue.job(victim.id).expect("cancelled job restored");
        assert_eq!(restored.state(), JobState::Cancelled);
        queue.shutdown();
        let _ = std::fs::remove_dir_all(&root);
    }
}
