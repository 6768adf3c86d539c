//! Append-only JSON-lines run journals — the "checkpoint" behind
//! [`Campaign::resume`](crate::Campaign::resume).
//!
//! A journal records, one JSON object per line, every run a campaign has
//! completed: a header that fingerprints the spec, the full per-run
//! result (all 16 [`Metrics`] fields, compile statistics, bucket edges),
//! and nothing else. On resume the campaign re-reads the journal, skips
//! every journaled run, and merges journaled results with freshly
//! executed ones **in item order** — so a killed-and-resumed campaign is
//! bit-exact against an uninterrupted one at any worker count (the same
//! invariant the worker pool already guarantees).
//!
//! Design notes:
//!
//! * Lines are written and read through the workspace's one JSON codec
//!   ([`gecko_sim::report::Json`]): written as flat objects and read back
//!   with [`Json::parse_flat`], which rejects torn and nested lines. f64
//!   fields round-trip exactly because the writer emits Rust's shortest
//!   round-trip formatting (integral floats keep a `.0`). The golden-line
//!   fixtures in this module's tests pin the on-disk bytes.
//! * A run's `bucket` lines are appended *before* its `run_done` line, so
//!   a torn write (kill mid-append) at worst loses the final line — a run
//!   without its `run_done` marker is simply re-executed.
//! * Journal I/O never panics a worker: failed appends degrade to a drop
//!   counter, surfaced like any other degraded sink.
//! * Malformed or foreign lines are skipped, not fatal; the spec
//!   fingerprint in the header is what guards against resuming the wrong
//!   campaign.
//! * Durability is checkpoint-shaped, not per-line: [`Journal::sync`] is
//!   called by the campaign once the pool drains (and segment seals fsync
//!   on their own), so the clean path stays cheap while a power cut can
//!   only cost lines since the last checkpoint — which resume re-executes.
//! * A file torn mid-append is repaired on [`Journal::open`] (the partial
//!   final line is truncated away and counted in
//!   [`Journal::torn_tails`]), so resume never sees a glued-together
//!   hybrid of an old tail and a new append.
//! * For long-running services, [`Journal::segmented`] stores the lines
//!   in a [`gecko_store::SegmentedLog`] — sealed segments the store's
//!   pruner can compact (under [`classify_campaign_lines`]) without
//!   disturbing the bit-exact resume guarantee.

use std::collections::HashMap;
use std::io::{Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use gecko_compiler::CompileStats;
use gecko_sim::report::{json_kv, Json, Record as _, Value};
use gecko_sim::Metrics;
use gecko_store::{SegmentedLog, Verdict};

use crate::campaign::RunResult;
use crate::supervisor::lock_unpoisoned;

/// The storage behind a journal: an in-memory line buffer (tests,
/// kill/resume property tests), an append-only file, or a segmented log
/// managed by `gecko-store` (prunable, retention-aware).
enum Backend {
    Memory(Vec<String>),
    File {
        path: PathBuf,
        writer: std::io::BufWriter<std::fs::File>,
    },
    Segmented(Arc<SegmentedLog>),
}

/// An append-only JSON-lines journal. Cheap to share behind an `Arc`;
/// appends are serialized by an internal (poison-recovering) lock and
/// flushed line-by-line so a kill loses at most the line being written.
pub struct Journal {
    backend: Mutex<Backend>,
    dropped: AtomicU64,
    torn_tails: AtomicU64,
}

impl Journal {
    /// An in-memory journal (nothing touches disk).
    pub fn memory() -> Journal {
        Journal {
            backend: Mutex::new(Backend::Memory(Vec::new())),
            dropped: AtomicU64::new(0),
            torn_tails: AtomicU64::new(0),
        }
    }

    /// Opens (creating if needed) an append-only file journal. Existing
    /// lines are preserved — that is the whole point. A final line torn
    /// by a kill mid-append is truncated away (and counted in
    /// [`Journal::torn_tails`]) rather than poisoning the next append.
    ///
    /// # Errors
    ///
    /// Propagates file-open and tail-repair errors.
    pub fn open(path: &Path) -> std::io::Result<Journal> {
        let torn = path.exists() && gecko_store::repair_torn_tail(path)?;
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        Ok(Journal {
            backend: Mutex::new(Backend::File {
                path: path.to_path_buf(),
                writer: std::io::BufWriter::new(file),
            }),
            dropped: AtomicU64::new(0),
            torn_tails: AtomicU64::new(u64::from(torn)),
        })
    }

    /// Wraps a [`SegmentedLog`] as a journal. The log stays shared: the
    /// campaign appends through this journal while the store's pruner
    /// compacts sealed segments of the same log concurrently.
    pub fn segmented(log: Arc<SegmentedLog>) -> Journal {
        Journal {
            backend: Mutex::new(Backend::Segmented(log)),
            dropped: AtomicU64::new(0),
            torn_tails: AtomicU64::new(0),
        }
    }

    /// Opens (creating if needed) a segmented journal in directory `dir`.
    ///
    /// # Errors
    ///
    /// Propagates [`SegmentedLog::open`] errors.
    pub fn open_segmented(dir: &Path, cfg: gecko_store::LogConfig) -> std::io::Result<Journal> {
        Ok(Journal::segmented(Arc::new(SegmentedLog::open(dir, cfg)?)))
    }

    /// The underlying segmented log, when this journal has one (for
    /// pruner registration and stats).
    pub fn segment_log(&self) -> Option<Arc<SegmentedLog>> {
        match &*lock_unpoisoned(&self.backend) {
            Backend::Segmented(log) => Some(Arc::clone(log)),
            _ => None,
        }
    }

    /// Appends one line (the terminating newline is added here). Never
    /// panics: on I/O failure the line is dropped and counted.
    pub fn append(&self, line: &str) {
        let mut backend = lock_unpoisoned(&self.backend);
        match &mut *backend {
            Backend::Memory(lines) => lines.push(line.to_string()),
            Backend::File { writer, .. } => {
                let ok = writeln!(writer, "{line}").is_ok() && writer.flush().is_ok();
                if !ok {
                    self.dropped.fetch_add(1, Ordering::Relaxed);
                }
            }
            Backend::Segmented(log) => log.append(line),
        }
    }

    /// Forces everything appended so far onto stable storage (`fsync`) —
    /// the checkpoint-boundary durability hook. The campaign calls this
    /// once the pool drains rather than per line, so the clean path stays
    /// cheap; failures are counted as drops (the lines may not survive a
    /// power cut) instead of panicking.
    pub fn sync(&self) {
        let mut backend = lock_unpoisoned(&self.backend);
        let result = match &mut *backend {
            Backend::Memory(_) => Ok(()),
            Backend::File { writer, .. } => {
                writer.flush().and_then(|()| writer.get_ref().sync_all())
            }
            Backend::Segmented(log) => log.sync(),
        };
        if result.is_err() {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Every line currently in the journal, in append order (for a file
    /// journal this re-reads the file, so it also sees lines written by
    /// a previous process).
    pub fn lines(&self) -> Vec<String> {
        let mut backend = lock_unpoisoned(&self.backend);
        match &mut *backend {
            Backend::Memory(lines) => lines.clone(),
            Backend::File { path, writer } => {
                let _ = writer.flush();
                let mut text = String::new();
                match std::fs::File::open(&*path) {
                    Ok(mut f) => {
                        let _ = f.read_to_string(&mut text);
                    }
                    Err(_) => return Vec::new(),
                }
                text.lines().map(str::to_string).collect()
            }
            Backend::Segmented(log) => log.lines(),
        }
    }

    /// Lines dropped because of I/O failures (including failed
    /// [`Journal::sync`] checkpoints).
    pub fn dropped(&self) -> u64 {
        let backend_drops = match &*lock_unpoisoned(&self.backend) {
            Backend::Segmented(log) => log.dropped(),
            _ => 0,
        };
        self.dropped.load(Ordering::Relaxed) + backend_drops
    }

    /// Torn final lines truncated away when the journal was opened.
    pub fn torn_tails(&self) -> u64 {
        let backend_torn = match &*lock_unpoisoned(&self.backend) {
            Backend::Segmented(log) => log.torn_tails(),
            _ => 0,
        };
        self.torn_tails.load(Ordering::Relaxed) + backend_torn
    }
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let backend = lock_unpoisoned(&self.backend);
        match &*backend {
            Backend::Memory(lines) => write!(f, "Journal::memory({} lines)", lines.len()),
            Backend::File { path, .. } => write!(f, "Journal::open({})", path.display()),
            Backend::Segmented(log) => write!(f, "Journal::segmented({log:?})"),
        }
    }
}

// ---------------------------------------------------------------------------
// Campaign journal lines
// ---------------------------------------------------------------------------

/// Journal line kinds for metric campaigns (`gecko-fleet`). The checker
/// defines its own vocabulary on top of the same [`Journal`] and
/// [`Json::parse_flat`].
pub mod lines {
    /// Header: campaign identity + spec fingerprint.
    pub const HEADER: &str = "campaign";
    /// One bucket edge of a `Workload::Buckets` run (precedes `run_done`).
    pub const BUCKET: &str = "bucket";
    /// A completed run with its full result payload.
    pub const RUN_DONE: &str = "run_done";
}

/// Encodes the journal header for a campaign.
pub fn encode_header(name: &str, fingerprint: u64) -> String {
    json_kv(&[
        ("journal", Value::Str(lines::HEADER.to_string())),
        ("name", Value::Str(name.to_string())),
        ("fingerprint", Value::U64(fingerprint)),
    ])
}

/// Decodes a journal header line (`None` if this is not a header).
pub fn decode_header(line: &str) -> Option<(String, u64)> {
    decode_header_record(&Json::parse_flat(line)?)
}

/// [`decode_header`] on a line already read with [`Json::parse_flat`].
pub fn decode_header_record(rec: &Json) -> Option<(String, u64)> {
    if rec.get("journal")?.as_str()? != lines::HEADER {
        return None;
    }
    Some((
        rec.get("name")?.as_str()?.to_string(),
        rec.get("fingerprint")?.as_u64()?,
    ))
}

/// Encodes one completed run as its journal lines: the `bucket` lines
/// first, the `run_done` marker last (torn-write safety).
pub(crate) fn encode_run(run_key: u64, result: &RunResult) -> Vec<String> {
    let mut out = Vec::with_capacity(result.buckets.len() + 1);
    for (i, bucket) in result.buckets.iter().enumerate() {
        let mut fields = vec![
            ("kind", Value::Str(lines::BUCKET.to_string())),
            ("run_key", Value::U64(run_key)),
            ("bucket", Value::U64(i as u64)),
        ];
        fields.extend(bucket.fields());
        out.push(json_kv(&fields));
    }
    let s = &result.compile_stats;
    let mut fields = vec![
        ("kind", Value::Str(lines::RUN_DONE.to_string())),
        ("run_key", Value::U64(run_key)),
        ("item", Value::U64(result.item.index as u64)),
        ("buckets", Value::U64(result.buckets.len() as u64)),
        ("cache_hit", Value::Bool(result.cache_hit)),
        ("wall_ns", Value::U64(result.wall_ns)),
        ("cs_regions", Value::U64(s.regions as u64)),
        ("cs_regions_split", Value::U64(s.regions_split as u64)),
        (
            "cs_checkpoints_before",
            Value::U64(s.checkpoints_before as u64),
        ),
        (
            "cs_checkpoints_after",
            Value::U64(s.checkpoints_after as u64),
        ),
        (
            "cs_checkpoints_pruned",
            Value::U64(s.checkpoints_pruned as u64),
        ),
        ("cs_recovery_blocks", Value::U64(s.recovery_blocks as u64)),
        ("cs_recovery_insts", Value::U64(s.recovery_insts as u64)),
        ("cs_coloring_fixups", Value::U64(s.coloring_fixups as u64)),
        (
            "cs_boundaries_hoisted",
            Value::U64(s.boundaries_hoisted as u64),
        ),
    ];
    fields.extend(result.metrics.fields());
    out.push(json_kv(&fields));
    out
}

/// A run restored from the journal (everything but the `WorkItem`, which
/// the resuming campaign re-derives from the item index).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct JournaledRun {
    pub item: usize,
    pub metrics: Metrics,
    pub buckets: Vec<Metrics>,
    pub compile_stats: CompileStats,
    pub cache_hit: bool,
    pub wall_ns: u64,
}

fn metrics_from(rec: &Json) -> Option<Metrics> {
    let u = |name: &str| rec.get(name)?.as_u64();
    let f = |name: &str| rec.get(name)?.as_f64();
    Some(Metrics {
        sim_time_s: f("sim_time_s")?,
        forward_cycles: u("forward_cycles")?,
        overhead_cycles: u("overhead_cycles")?,
        completions: u("completions")?,
        checksum_errors: u("checksum_errors")?,
        jit_checkpoints: u("jit_checkpoints")?,
        jit_checkpoint_failures: u("jit_checkpoint_failures")?,
        reboots: u("reboots")?,
        dirty_deaths: u("dirty_deaths")?,
        rollbacks: u("rollbacks")?,
        recovery_slices: u("recovery_slices")?,
        attack_detections: u("attack_detections")?,
        jit_reenables: u("jit_reenables")?,
        checkpoint_stores: u("checkpoint_stores")?,
        boundary_commits: u("boundary_commits")?,
        fault_skips: u("fault_skips")?,
        fault_corruptions: u("fault_corruptions")?,
        energy_nj: f("energy_nj")?,
    })
}

fn compile_stats_from(rec: &Json) -> Option<CompileStats> {
    let u = |name: &str| Some(rec.get(name)?.as_u64()? as usize);
    Some(CompileStats {
        regions: u("cs_regions")?,
        regions_split: u("cs_regions_split")?,
        checkpoints_before: u("cs_checkpoints_before")?,
        checkpoints_after: u("cs_checkpoints_after")?,
        checkpoints_pruned: u("cs_checkpoints_pruned")?,
        recovery_blocks: u("cs_recovery_blocks")?,
        recovery_insts: u("cs_recovery_insts")?,
        coloring_fixups: u("cs_coloring_fixups")?,
        boundaries_hoisted: u("cs_boundaries_hoisted")?,
    })
}

/// Replays a campaign journal: the header (if any) plus every completed
/// run keyed by run key. Runs whose `run_done` line is missing or torn —
/// or whose bucket lines are incomplete — are silently absent (they will
/// simply be re-executed). Later duplicates win, so a journal appended by
/// two overlapping sessions still resolves deterministically.
pub(crate) fn decode_campaign(
    journal_lines: &[String],
) -> (Option<(String, u64)>, HashMap<u64, JournaledRun>) {
    let mut header = None;
    let mut buckets: HashMap<u64, Vec<(u64, Metrics)>> = HashMap::new();
    let mut runs = HashMap::new();
    for line in journal_lines {
        let Some(rec) = Json::parse_flat(line) else {
            continue;
        };
        if let Some(h) = decode_header_record(&rec) {
            header.get_or_insert(h);
            continue;
        }
        let Some(kind) = rec.get("kind").and_then(Json::as_str) else {
            continue;
        };
        let Some(run_key) = rec.get("run_key").and_then(Json::as_u64) else {
            continue;
        };
        match kind {
            k if k == lines::BUCKET => {
                let (Some(index), Some(metrics)) =
                    (rec.get("bucket").and_then(Json::as_u64), metrics_from(&rec))
                else {
                    continue;
                };
                buckets.entry(run_key).or_default().push((index, metrics));
            }
            k if k == lines::RUN_DONE => {
                let decoded = (|| {
                    let item = rec.get("item")?.as_u64()? as usize;
                    let n_buckets = rec.get("buckets")?.as_u64()?;
                    let mut edges = buckets.remove(&run_key).unwrap_or_default();
                    edges.sort_by_key(|(i, _)| *i);
                    let complete = edges.len() as u64 == n_buckets
                        && edges.iter().enumerate().all(|(i, (j, _))| i as u64 == *j);
                    if !complete {
                        return None;
                    }
                    Some(JournaledRun {
                        item,
                        metrics: metrics_from(&rec)?,
                        buckets: edges.into_iter().map(|(_, m)| m).collect(),
                        compile_stats: compile_stats_from(&rec)?,
                        cache_hit: rec.get("cache_hit")?.as_bool()?,
                        wall_ns: rec.get("wall_ns")?.as_u64()?,
                    })
                })();
                if let Some(run) = decoded {
                    runs.insert(run_key, run);
                }
            }
            _ => {}
        }
    }
    (header, runs)
}

/// Classifies every line of a campaign journal for the store's
/// compactor: one [`Verdict`] per line, where `Delete` marks lines
/// the resume decoder either skips (torn/garbage, incomplete run groups,
/// duplicate headers) or resolves against a later duplicate (superseded
/// runs). The invariant pruning rests on: deleting every `Delete` line
/// leaves `decode_campaign` output unchanged — so a resumed campaign
/// merges bit-exactly whether or not the journal was pruned in between.
///
/// A run's lines are classified as a *group* (its `bucket` edges plus the
/// `run_done` marker), mirroring how the decoder consumes them: a
/// superseded run's whole group dies together, and an incomplete group
/// (torn `run_done`, missing edges) is dead because the decoder restores
/// nothing from it. Trailing `bucket` lines with no `run_done` yet are
/// kept — the campaign may still be appending their run. Parseable lines
/// in a foreign vocabulary are kept untouched.
pub fn classify_campaign_lines(journal_lines: &[String]) -> Vec<Verdict> {
    let mut verdicts = vec![Verdict::Keep; journal_lines.len()];
    let mut seen_header = false;
    // Per key: bucket-line indices of the group currently being appended.
    let mut pending: HashMap<u64, Vec<usize>> = HashMap::new();
    // Per key: the line indices of the last *complete* group (the one the
    // decoder will restore).
    let mut last_group: HashMap<u64, Vec<usize>> = HashMap::new();
    for (i, line) in journal_lines.iter().enumerate() {
        let Some(rec) = Json::parse_flat(line) else {
            verdicts[i] = Verdict::Delete; // torn/garbage: invisible to the decoder
            continue;
        };
        if decode_header_record(&rec).is_some() {
            if seen_header {
                verdicts[i] = Verdict::Delete; // the decoder keeps the first header
            }
            seen_header = true;
            continue;
        }
        let kind = rec.get("kind").and_then(Json::as_str);
        let run_key = rec.get("run_key").and_then(Json::as_u64);
        match (kind, run_key) {
            (Some(k), Some(run_key)) if k == lines::BUCKET => {
                // The decoder only accumulates a bucket edge that carries
                // an index and full metrics; anything less is invisible.
                let usable = rec.get("bucket").and_then(Json::as_u64).is_some()
                    && metrics_from(&rec).is_some();
                if usable {
                    pending.entry(run_key).or_default().push(i);
                } else {
                    verdicts[i] = Verdict::Delete;
                }
            }
            (Some(k), Some(run_key)) if k == lines::RUN_DONE => {
                let mut group = pending.remove(&run_key).unwrap_or_default();
                group.push(i);
                // Mirror the decoder's completeness test exactly: edges
                // sort to a contiguous 0..n matching the declared count,
                // and the run_done payload fully decodes.
                let complete = (|| {
                    let n_buckets = rec.get("buckets")?.as_u64()?;
                    let mut edges: Vec<u64> = Vec::with_capacity(group.len() - 1);
                    for &gi in &group[..group.len() - 1] {
                        let edge = Json::parse_flat(&journal_lines[gi])?;
                        edges.push(edge.get("bucket")?.as_u64()?);
                    }
                    edges.sort_unstable();
                    let contiguous = edges.len() as u64 == n_buckets
                        && edges.iter().enumerate().all(|(j, e)| j as u64 == *e);
                    if !contiguous {
                        return None;
                    }
                    rec.get("item")?.as_u64()?;
                    metrics_from(&rec)?;
                    compile_stats_from(&rec)?;
                    rec.get("cache_hit")?.as_bool()?;
                    rec.get("wall_ns")?.as_u64()?;
                    Some(())
                })()
                .is_some();
                if complete {
                    if let Some(superseded) = last_group.insert(run_key, group) {
                        for idx in superseded {
                            verdicts[idx] = Verdict::Delete;
                        }
                    }
                } else {
                    // The decoder consumes the edges and restores nothing:
                    // the whole group is dead.
                    for idx in group {
                        verdicts[idx] = Verdict::Delete;
                    }
                }
            }
            _ => {} // foreign vocabulary: not ours to prune
        }
    }
    verdicts
}

#[cfg(test)]
mod golden;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::WorkItem;

    #[test]
    fn parser_round_trips_encoder_output() {
        let line = json_kv(&[
            ("s", Value::Str("a\"b\\c\nd".to_string())),
            ("u", Value::U64(u64::MAX)),
            ("i", Value::I64(-42)),
            ("f", Value::F64(0.1 + 0.2)),
            ("g", Value::F64(2.0)),
            ("tiny", Value::F64(3.1e-7)),
            ("b", Value::Bool(true)),
            ("z", Value::Null),
        ]);
        let rec = Json::parse_flat(&line).expect("parses");
        assert_eq!(rec.get("s").unwrap().as_str(), Some("a\"b\\c\nd"));
        assert_eq!(rec.get("u").unwrap().as_u64(), Some(u64::MAX));
        assert_eq!(rec.get("i"), Some(&Json::I64(-42)));
        // Bit-exact f64 round-trips — the property resume correctness
        // rests on.
        assert_eq!(
            rec.get("f").unwrap().as_f64().unwrap().to_bits(),
            (0.1f64 + 0.2).to_bits()
        );
        assert_eq!(rec.get("g").unwrap().as_f64(), Some(2.0));
        assert_eq!(
            rec.get("tiny").unwrap().as_f64().unwrap().to_bits(),
            3.1e-7f64.to_bits()
        );
        assert_eq!(rec.get("b").unwrap().as_bool(), Some(true));
        assert_eq!(rec.get("z"), Some(&Json::Null));
    }

    #[test]
    fn parser_rejects_torn_and_nested_lines() {
        assert!(Json::parse_flat("").is_none());
        assert!(Json::parse_flat("{\"a\":1").is_none(), "torn line");
        assert!(Json::parse_flat("{\"a\":{\"b\":1}}").is_none(), "nested");
        assert!(Json::parse_flat("{\"a\":[1]}").is_none(), "array");
        assert!(Json::parse_flat("{\"a\":1} trailing").is_none());
        assert_eq!(Json::parse_flat("{}"), Some(Json::Obj(Vec::new())));
    }

    fn sample_result(index: usize, buckets: usize) -> RunResult {
        let item = WorkItem {
            index,
            app_idx: 0,
            scheme_idx: 0,
            device_idx: 0,
            attack_idx: 0,
            fault_idx: 0,
            seed_idx: index,
        };
        let mut metrics = Metrics {
            sim_time_s: 0.1 + index as f64 * 0.37,
            forward_cycles: 1_000 + index as u64,
            completions: 3,
            energy_nj: 17.25e3 + index as f64,
            ..Metrics::default()
        };
        let buckets: Vec<Metrics> = (0..buckets)
            .map(|b| {
                let mut m = metrics;
                m.forward_cycles = 100 * (b as u64 + 1);
                m
            })
            .collect();
        if let Some(last) = buckets.last() {
            metrics = *last;
        }
        RunResult {
            item,
            metrics,
            buckets,
            compile_stats: CompileStats {
                regions: 5,
                checkpoints_after: 2,
                ..CompileStats::default()
            },
            cache_hit: index > 0,
            wall_ns: 123_456 + index as u64,
        }
    }

    #[test]
    fn run_lines_round_trip_bit_exactly() {
        let journal = Journal::memory();
        journal.append(&encode_header("rt", 0xFEED));
        let a = sample_result(0, 0);
        let b = sample_result(4, 3);
        for line in encode_run(11, &a).iter().chain(encode_run(22, &b).iter()) {
            journal.append(line);
        }
        let (header, runs) = decode_campaign(&journal.lines());
        assert_eq!(header, Some(("rt".to_string(), 0xFEED)));
        assert_eq!(runs.len(), 2);
        let ra = &runs[&11];
        assert_eq!(ra.item, 0);
        assert_eq!(ra.metrics, a.metrics);
        assert_eq!(ra.compile_stats, a.compile_stats);
        assert_eq!(ra.cache_hit, a.cache_hit);
        assert_eq!(ra.wall_ns, a.wall_ns);
        let rb = &runs[&22];
        assert_eq!(rb.buckets, b.buckets);
        assert_eq!(rb.metrics, b.metrics);
    }

    #[test]
    fn torn_tail_loses_only_the_unfinished_run() {
        let journal = Journal::memory();
        journal.append(&encode_header("torn", 1));
        for line in encode_run(1, &sample_result(0, 2)) {
            journal.append(&line);
        }
        // A second run whose run_done line never made it out...
        let partial = encode_run(2, &sample_result(1, 2));
        journal.append(&partial[0]);
        // ...and a torn half-line from the kill itself.
        journal.append("{\"kind\":\"run_done\",\"run_key\":2,\"it");
        let (_, runs) = decode_campaign(&journal.lines());
        assert!(runs.contains_key(&1), "completed run survives");
        assert!(!runs.contains_key(&2), "unfinished run is re-executed");
    }

    #[test]
    fn classifier_only_deletes_lines_the_decoder_ignores() {
        let journal = Journal::memory();
        journal.append(&encode_header("cls", 9));
        journal.append(&encode_header("cls", 9)); // duplicate header: dead
                                                  // Run 1 journaled twice (overlapping sessions): first group dies.
        for line in encode_run(1, &sample_result(0, 2)) {
            journal.append(&line);
        }
        journal.append("{\"kind\":\"run_done\",\"run_key\":7,\"it"); // torn: dead
        for line in encode_run(1, &sample_result(0, 2)) {
            journal.append(&line);
        }
        // Run 2: complete, must survive untouched.
        for line in encode_run(2, &sample_result(1, 1)) {
            journal.append(&line);
        }
        // Run 3: bucket edges with no run_done yet — still in flight.
        let partial = encode_run(3, &sample_result(2, 2));
        journal.append(&partial[0]);
        journal.append(&partial[1]);
        // A foreign-vocabulary line is not ours to prune.
        journal.append("{\"kind\":\"chunk_done\",\"run_key\":4,\"windows\":3}");

        let all = journal.lines();
        let verdicts = classify_campaign_lines(&all);
        let pruned: Vec<String> = all
            .iter()
            .zip(&verdicts)
            .filter(|(_, v)| **v == Verdict::Keep)
            .map(|(l, _)| l.clone())
            .collect();
        assert!(pruned.len() < all.len(), "something was prunable");
        assert_eq!(
            decode_campaign(&all),
            decode_campaign(&pruned),
            "pruning must be invisible to the decoder"
        );
        assert!(
            pruned.iter().any(|l| l.contains("chunk_done")),
            "foreign lines survive"
        );
        let in_flight = pruned
            .iter()
            .filter(|l| l.contains("\"run_key\":3"))
            .count();
        assert_eq!(in_flight, 2, "in-flight bucket edges survive");
        assert_eq!(
            pruned.iter().filter(|l| decode_header(l).is_some()).count(),
            1,
            "exactly one header survives"
        );
    }

    #[test]
    fn open_repairs_a_torn_tail_and_counts_it() {
        let path =
            std::env::temp_dir().join(format!("gecko-journal-torn-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        {
            let journal = Journal::open(&path).unwrap();
            journal.append(&encode_header("torn", 3));
            for line in encode_run(5, &sample_result(0, 0)) {
                journal.append(&line);
            }
        }
        // Kill mid-append: chop the file mid-byte of its last record.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.truncate(bytes.len() - 7);
        std::fs::write(&path, &bytes).unwrap();

        let journal = Journal::open(&path).unwrap();
        assert_eq!(journal.torn_tails(), 1, "repair is counted");
        let (header, runs) = decode_campaign(&journal.lines());
        assert_eq!(header, Some(("torn".to_string(), 3)));
        assert!(!runs.contains_key(&5), "the torn run is re-executed");
        // Appends after the repair start on a fresh line — journal the
        // run again and it decodes.
        for line in encode_run(5, &sample_result(0, 0)) {
            journal.append(&line);
        }
        journal.sync();
        let (_, runs) = decode_campaign(&journal.lines());
        assert!(runs.contains_key(&5));
        assert_eq!(journal.dropped(), 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn segmented_journal_round_trips_and_exposes_its_log() {
        let dir = std::env::temp_dir().join(format!("gecko-journal-seg-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let journal = Journal::open_segmented(
            &dir,
            gecko_store::LogConfig {
                max_segment_bytes: 256,
            },
        )
        .unwrap();
        journal.append(&encode_header("seg", 11));
        for key in 0..6 {
            for line in encode_run(key, &sample_result(key as usize, 1)) {
                journal.append(&line);
            }
        }
        journal.sync();
        let log = journal.segment_log().expect("segmented backend");
        assert!(log.segments().len() > 1, "small segments rotate");
        let (header, runs) = decode_campaign(&journal.lines());
        assert_eq!(header, Some(("seg".to_string(), 11)));
        assert_eq!(runs.len(), 6);

        // Reopen reads the same lines back.
        drop(journal);
        let reopened = Journal::open_segmented(
            &dir,
            gecko_store::LogConfig {
                max_segment_bytes: 256,
            },
        )
        .unwrap();
        let (_, runs) = decode_campaign(&reopened.lines());
        assert_eq!(runs.len(), 6);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_journal_persists_across_reopen() {
        let path =
            std::env::temp_dir().join(format!("gecko-journal-test-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        {
            let journal = Journal::open(&path).unwrap();
            journal.append(&encode_header("file", 7));
            for line in encode_run(9, &sample_result(0, 0)) {
                journal.append(&line);
            }
            assert_eq!(journal.dropped(), 0);
        }
        let reopened = Journal::open(&path).unwrap();
        let (header, runs) = decode_campaign(&reopened.lines());
        assert_eq!(header, Some(("file".to_string(), 7)));
        assert!(runs.contains_key(&9));
        let _ = std::fs::remove_file(&path);
    }
}
