//! Append-only JSON-lines run journals — the "checkpoint" behind
//! [`Campaign::journal`](crate::Campaign::journal).
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
//!   fingerprint in the header, checked by [`Journal::bind`], is what
//!   guards against resuming the wrong campaign.
//! * Durability is checkpoint-shaped, not per-line: [`Journal::sync`] is
//!   called by the campaign once the pool drains (and segment seals fsync
//!   on their own), so the clean path stays cheap while a power cut can
//!   only cost lines since the last checkpoint — which resume re-executes.
//! * On disk, [`Journal::open_segmented`] stores the lines in a
//!   [`gecko_store::SegmentedLog`] — sealed segments
//!   [`SegmentedLog::compact`] can rewrite without disturbing the
//!   bit-exact resume guarantee. Its verdicts ([`classify_campaign_lines`]) are the resume
//!   decoder's own: one decoder pass yields both the restored runs and
//!   one verdict per line, so the lines compaction deletes are exactly
//!   the ones resume threw away. A tail torn mid-append is repaired
//!   when the log opens (the partial final line is truncated away and
//!   counted in [`Journal::torn_tails`]), so resume never sees a
//!   glued-together hybrid of an old tail and a new append.

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use gecko_compiler::CompileStats;
use gecko_sim::report::{json_kv, Json, Record as _, Value};
use gecko_sim::Metrics;
use gecko_store::{SegmentedLog, Verdict};

use crate::campaign::RunResult;
use crate::supervisor::lock_unpoisoned;

/// The storage behind a journal: an in-memory line buffer (tests,
/// kill/resume property tests) or a segmented log managed by
/// `gecko-store` (prunable, retention-aware).
enum Backend {
    Memory(Vec<String>),
    Segmented(Arc<SegmentedLog>),
}

/// An append-only JSON-lines journal. Cheap to share behind an `Arc`;
/// appends are serialized by an internal (poison-recovering) lock and
/// flushed line-by-line so a kill loses at most the line being written.
pub struct Journal {
    backend: Mutex<Backend>,
    dropped: AtomicU64,
}

impl Journal {
    /// An in-memory journal (nothing touches disk).
    pub fn memory() -> Journal {
        Journal {
            backend: Mutex::new(Backend::Memory(Vec::new())),
            dropped: AtomicU64::new(0),
        }
    }

    /// Wraps a [`SegmentedLog`] as a journal. The log stays shared: the
    /// campaign appends through this journal while
    /// [`SegmentedLog::compact`] rewrites sealed segments of the same log
    /// concurrently.
    pub fn segmented(log: Arc<SegmentedLog>) -> Journal {
        Journal {
            backend: Mutex::new(Backend::Segmented(log)),
            dropped: AtomicU64::new(0),
        }
    }

    /// Opens (creating if needed) a segmented journal in directory `dir`.
    /// Existing lines are preserved — that is the whole point — and a
    /// final line torn by a kill mid-append is truncated away (and
    /// counted in [`Journal::torn_tails`]) rather than poisoning the next
    /// append.
    ///
    /// # Errors
    ///
    /// Propagates [`SegmentedLog::open`] errors.
    pub fn open_segmented(dir: &Path, cfg: gecko_store::LogConfig) -> std::io::Result<Journal> {
        Ok(Journal::segmented(Arc::new(SegmentedLog::open(dir, cfg)?)))
    }

    /// Appends one line (the terminating newline is added here). Never
    /// panics: on I/O failure the line is dropped and counted.
    pub fn append(&self, line: &str) {
        let mut backend = lock_unpoisoned(&self.backend);
        match &mut *backend {
            Backend::Memory(lines) => lines.push(line.to_string()),
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
            Backend::Segmented(log) => log.sync(),
        };
        if result.is_err() {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Every line currently in the journal, in append order (an on-disk
    /// journal re-reads its segments, so it also sees lines written by a
    /// previous process).
    pub fn lines(&self) -> Vec<String> {
        match &*lock_unpoisoned(&self.backend) {
            Backend::Memory(lines) => lines.clone(),
            Backend::Segmented(log) => log.lines(),
        }
    }

    /// Lines dropped because of I/O failures (including failed
    /// [`Journal::sync`] checkpoints).
    pub fn dropped(&self) -> u64 {
        let backend_drops = match &*lock_unpoisoned(&self.backend) {
            Backend::Segmented(log) => log.dropped(),
            Backend::Memory(_) => 0,
        };
        self.dropped.load(Ordering::Relaxed) + backend_drops
    }

    /// Torn final lines truncated away when the journal was opened.
    pub fn torn_tails(&self) -> u64 {
        match &*lock_unpoisoned(&self.backend) {
            Backend::Segmented(log) => log.torn_tails(),
            Backend::Memory(_) => 0,
        }
    }

    /// Binds this journal to the campaign `name` whose spec hashes to
    /// `fingerprint`, given the journal's current `lines`: the first
    /// header in them must carry `fingerprint`, and a journal with no
    /// header yet is stamped with one. Call it before trusting anything
    /// the journal restores.
    ///
    /// # Errors
    ///
    /// A message naming both fingerprints when the journal belongs to a
    /// different spec; nothing is appended then.
    pub fn bind(&self, lines: &[String], name: &str, fingerprint: u64) -> Result<(), String> {
        match lines.iter().find_map(|line| decode_header(line)) {
            Some((_, fp)) if fp == fingerprint => Ok(()),
            Some((owner, fp)) => Err(format!(
                "journal belongs to campaign {owner:?} (fingerprint {fp:#018x}), \
                 not this spec (fingerprint {fingerprint:#018x})"
            )),
            None => {
                self.append(&encode_header(name, fingerprint));
                Ok(())
            }
        }
    }
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let backend = lock_unpoisoned(&self.backend);
        match &*backend {
            Backend::Memory(lines) => write!(f, "Journal::memory({} lines)", lines.len()),
            Backend::Segmented(log) => write!(f, "Journal::segmented({log:?})"),
        }
    }
}

// ---------------------------------------------------------------------------
// Campaign journal lines
// ---------------------------------------------------------------------------

/// Journal line kinds for metric campaigns (`gecko-fleet`). The checker
/// persists its chunks through its own memo store instead, in a
/// vocabulary of its own read with the same [`Json::parse_flat`].
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

/// One pass of the run-journal decoder ([`decode_campaign`]) and what it
/// did with every line. Its [`Verdict`]s are what the store's compactor
/// prunes by, so resume and compaction read a journal through the same
/// code and cannot disagree.
///
/// Every line starts as [`Verdict::Keep`]. [`Replay::walk`] marks garbage
/// and every header after the first `Delete`; the decoder marks what it
/// throws away ([`Replay::discard`]) and files each restored record with
/// the lines it was built from ([`Replay::restore`]).
struct Replay<T> {
    verdicts: Vec<Verdict>,
    restored: HashMap<u64, (T, Vec<usize>)>,
}

impl<T> Replay<T> {
    /// Walks `lines` in order, handing every parseable non-header record
    /// to `visit` with its line index. The first header is kept (it is
    /// [`Journal::bind`]'s); a header is never a record, whatever else it
    /// carries.
    fn walk(lines: &[String], mut visit: impl FnMut(&mut Replay<T>, usize, &Json)) -> Replay<T> {
        let mut replay = Replay {
            verdicts: vec![Verdict::Keep; lines.len()],
            restored: HashMap::new(),
        };
        let mut seen_header = false;
        for (i, line) in lines.iter().enumerate() {
            match Json::parse_flat(line) {
                None => replay.verdicts[i] = Verdict::Delete,
                Some(rec) if decode_header_record(&rec).is_some() => {
                    if std::mem::replace(&mut seen_header, true) {
                        replay.verdicts[i] = Verdict::Delete;
                    }
                }
                Some(rec) => visit(&mut replay, i, &rec),
            }
        }
        replay
    }

    /// Marks `lines` as thrown away by the decoder.
    fn discard(&mut self, lines: impl IntoIterator<Item = usize>) {
        for i in lines {
            self.verdicts[i] = Verdict::Delete;
        }
    }

    /// Restores `record` under `key` from `lines`, superseding (and
    /// discarding the lines of) any earlier record for `key`.
    fn restore(&mut self, key: u64, record: T, lines: Vec<usize>) {
        if let Some((_, superseded)) = self.restored.insert(key, (record, lines)) {
            self.discard(superseded);
        }
    }

    /// The restored records by key, and one verdict per line.
    fn finish(self) -> (HashMap<u64, T>, Vec<Verdict>) {
        let records = self
            .restored
            .into_iter()
            .map(|(k, (r, _))| (k, r))
            .collect();
        (records, self.verdicts)
    }
}

/// A usable `bucket` edge awaiting its run's `run_done`: (line, bucket
/// index, metrics).
type Edge = (usize, u64, Metrics);

/// Replays a campaign journal: every completed run keyed by run key (the
/// header is [`Journal::bind`]'s business), plus one [`Verdict`] per
/// line. A `run_done` line consumes every edge its key accumulated since
/// the previous one, whether or not it decodes; the group restores a run
/// only when the marker decodes and edges `0..buckets` are all there
/// (the last edge journaled for an index wins). `Delete` marks what the
/// pass threw away: garbage, repeated headers, unusable edges, groups
/// that restored nothing or that a later run for the same key
/// superseded, and edges a restored run did not use. A run whose
/// `run_done` is missing or torn is re-executed; its trailing edges stay
/// `Keep` (the campaign may still be appending them), as do lines in a
/// foreign vocabulary.
///
/// Losing edges can make a group incomplete but never complete, so
/// deleting any prefix of the `Delete` lines — a budgeted compaction that
/// stops partway — leaves the runs unchanged.
pub(crate) fn decode_campaign(
    journal_lines: &[String],
) -> (HashMap<u64, JournaledRun>, Vec<Verdict>) {
    let mut pending: HashMap<u64, Vec<Edge>> = HashMap::new();
    Replay::walk(journal_lines, |replay, i, rec| {
        let (Some(kind), Some(run_key)) = (
            rec.get("kind").and_then(Json::as_str),
            rec.get("run_key").and_then(Json::as_u64),
        ) else {
            return;
        };
        match kind {
            lines::BUCKET => match (rec.get("bucket").and_then(Json::as_u64), metrics_from(rec)) {
                (Some(index), Some(metrics)) => {
                    pending
                        .entry(run_key)
                        .or_default()
                        .push((i, index, metrics));
                }
                _ => replay.discard([i]),
            },
            lines::RUN_DONE => {
                let edges = pending.remove(&run_key).unwrap_or_default();
                let group: Vec<usize> = edges.iter().map(|e| e.0).chain([i]).collect();
                match decode_run(rec, edges) {
                    Some((run, mut used)) => {
                        used.push(i);
                        replay.discard(group.into_iter().filter(|l| !used.contains(l)));
                        replay.restore(run_key, run, used);
                    }
                    None => replay.discard(group),
                }
            }
            _ => {}
        }
    })
    .finish()
}

/// Builds a run from its `run_done` record and the edges its group
/// consumed, with the edge lines it used; `None` when the marker does
/// not decode or an edge in `0..buckets` is missing.
fn decode_run(rec: &Json, edges: Vec<Edge>) -> Option<(JournaledRun, Vec<usize>)> {
    let n_buckets = rec.get("buckets")?.as_u64()?;
    let by_index: HashMap<u64, (usize, Metrics)> = edges
        .into_iter()
        .map(|(line, b, m)| (b, (line, m)))
        .collect();
    let (used, buckets) = (0..n_buckets)
        .map(|b| by_index.get(&b).copied())
        .collect::<Option<(Vec<usize>, Vec<Metrics>)>>()?;
    let run = JournaledRun {
        item: rec.get("item")?.as_u64()? as usize,
        metrics: metrics_from(rec)?,
        buckets,
        compile_stats: compile_stats_from(rec)?,
        cache_hit: rec.get("cache_hit")?.as_bool()?,
        wall_ns: rec.get("wall_ns")?.as_u64()?,
    };
    Some((run, used))
}

/// Classifies every line of a campaign journal for the store's
/// compactor: the [`Verdict`]s of the very pass resume decodes the
/// journal with.
pub fn classify_campaign_lines(journal_lines: &[String]) -> Vec<Verdict> {
    decode_campaign(journal_lines).1
}

#[cfg(test)]
mod golden;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::WorkItem;
    use gecko_isa::rng::SplitMix64;

    fn first_header(lines: &[String]) -> Option<(String, u64)> {
        lines.iter().find_map(|line| decode_header(line))
    }

    #[test]
    fn bind_checks_the_first_header_and_stamps_a_fresh_journal() {
        let journal = Journal::memory();
        assert_eq!(journal.bind(&journal.lines(), "b", 0xB1), Ok(()));
        assert_eq!(journal.lines(), vec![encode_header("b", 0xB1)], "stamped");
        assert_eq!(journal.bind(&journal.lines(), "b", 0xB1), Ok(()));
        assert_eq!(journal.lines().len(), 1, "a bound journal is not restamped");

        // Only the first header counts, and a refusal appends nothing.
        journal.append(&encode_header("other", 0xB2));
        assert_eq!(journal.bind(&journal.lines(), "other", 0xB1), Ok(()));
        let err = journal
            .bind(&journal.lines(), "other", 0xB2)
            .expect_err("first header carries 0xB1");
        assert!(err.contains("0x00000000000000b1"), "{err}");
        assert!(err.contains("0x00000000000000b2"), "{err}");
        assert!(err.contains("\"b\""), "{err}");
        assert_eq!(journal.lines().len(), 2);
    }

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
        let (runs, _) = decode_campaign(&journal.lines());
        assert_eq!(
            first_header(&journal.lines()),
            Some(("rt".to_string(), 0xFEED))
        );
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
        let (runs, _) = decode_campaign(&journal.lines());
        assert!(runs.contains_key(&1), "completed run survives");
        assert!(!runs.contains_key(&2), "unfinished run is re-executed");
    }

    /// The lines of `lines` whose index `gone` does not select.
    fn without(lines: &[String], gone: impl Fn(usize) -> bool) -> Vec<String> {
        (0..lines.len())
            .filter(|&i| !gone(i))
            .map(|i| lines[i].clone())
            .collect()
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

        // A run_done without "item" consumes its group and restores
        // nothing — so a later group for the key stands alone, and one
        // with no edges of its own stays incomplete.
        let run = encode_run(5, &sample_result(0, 1));
        let itemless = run[1].replacen("\"item\":0,", "", 1);
        assert_ne!(itemless, run[1]);
        let header = encode_header("cls", 9);
        let drift = [
            vec![
                header.clone(),
                run[0].clone(),
                itemless.clone(),
                run[1].clone(),
            ],
            vec![
                header,
                run[0].clone(),
                itemless,
                run[0].clone(),
                run[1].clone(),
            ],
        ];

        for (n, all) in [journal.lines()].into_iter().chain(drift).enumerate() {
            let verdicts = classify_campaign_lines(&all);
            let pruned = without(&all, |i| verdicts[i] == Verdict::Delete);
            assert!(
                pruned.len() < all.len(),
                "input {n}: something was prunable"
            );
            assert_eq!(
                decode_campaign(&all).0,
                decode_campaign(&pruned).0,
                "input {n}: pruning must be invisible to the decoder"
            );
            assert_eq!(first_header(&all), first_header(&pruned), "input {n}");
        }

        let all = journal.lines();
        let verdicts = classify_campaign_lines(&all);
        let pruned = without(&all, |i| verdicts[i] == Verdict::Delete);
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

    /// Rewrites `lines` the ways a hostile or crashing writer could:
    /// duplicated lines, swapped neighbours, a field deleted, a torn
    /// prefix, and a line from `foreign` inserted.
    fn mutate(rng: &mut SplitMix64, lines: &mut Vec<String>, foreign: &[&str]) {
        for _ in 0..rng.range_u64(0, 6) {
            let i = rng.range_u64(0, lines.len() as u64) as usize;
            match rng.range_u64(0, 5) {
                0 => {
                    let at = rng.range_u64(0, lines.len() as u64 + 1) as usize;
                    lines.insert(at, lines[i].clone());
                }
                1 if i + 1 < lines.len() => lines.swap(i, i + 1),
                2 => {
                    if let Some(Json::Obj(mut fields)) = Json::parse_flat(&lines[i]) {
                        if !fields.is_empty() {
                            fields.remove(rng.range_u64(0, fields.len() as u64) as usize);
                            lines[i] = Json::Obj(fields).encode();
                        }
                    }
                }
                3 => {
                    let cut = rng.range_u64(0, lines[i].len() as u64) as usize;
                    lines[i].truncate(cut);
                }
                _ => {
                    let pick = rng.range_u64(0, foreign.len() as u64) as usize;
                    lines.insert(i, foreign[pick].to_string());
                }
            }
        }
    }

    const FOREIGN: [&str; 4] = [
        "{\"kind\":\"chunk_done\",\"run_key\":2,\"windows\":3}",
        "{\"kind\":\"mystery\",\"run_key\":1}",
        "{\"kind\":\"bucket\",\"bucket\":0}",
        "{\"run_key\":3,\"item\":2}",
    ];

    /// A seeded hostile run journal: a header, a few runs (a key always
    /// journals the same run — resume is deterministic, so a re-run
    /// rewrites identical lines), maybe a missing last `run_done`, then
    /// [`mutate`]'s rewrites.
    fn hostile_journal(rng: &mut SplitMix64) -> Vec<String> {
        let mut lines = vec![encode_header("hostile", 4)];
        for _ in 0..rng.range_u64(1, 5) {
            let key = rng.range_u64(0, 3);
            lines.extend(encode_run(key, &sample_result(key as usize, key as usize)));
        }
        if rng.range_u64(0, 2) == 0 {
            lines.pop(); // killed before the last run_done
        }
        mutate(rng, &mut lines, &FOREIGN);
        lines
    }

    #[test]
    fn deleting_any_prefix_of_the_delete_lines_keeps_resume_unchanged() {
        let mut rng = SplitMix64::new(0x5EED_0004);
        for _ in 0..150 {
            let lines = hostile_journal(&mut rng);
            let (runs, verdicts) = decode_campaign(&lines);
            let deletes: Vec<usize> = (0..lines.len())
                .filter(|&i| verdicts[i] == Verdict::Delete)
                .collect();
            for j in 0..=deletes.len() {
                let pruned = without(&lines, |i| deletes[..j].contains(&i));
                assert_eq!(
                    decode_campaign(&pruned).0,
                    runs,
                    "{lines:#?} without lines {:?}",
                    &deletes[..j]
                );
                assert_eq!(first_header(&pruned), first_header(&lines));
            }
        }
    }

    /// Appends `lines` to a fresh [`SegmentedLog`] in `dir` under a seeded
    /// schedule — a random segment size and `delete_limit`, budgeted
    /// [`SegmentedLog::compact`] calls between appends, the log sometimes
    /// reopened from disk first — and checks after every call, and after
    /// a final seal-and-drain, that `decode` reads the compacted log
    /// exactly as it reads the lines appended so far.
    fn assert_compaction_is_invisible<T: PartialEq + std::fmt::Debug>(
        rng: &mut SplitMix64,
        dir: &Path,
        lines: &[String],
        classify: fn(&[String]) -> Vec<Verdict>,
        decode: impl Fn(&[String]) -> T,
    ) {
        let _ = std::fs::remove_dir_all(dir);
        let cfg = gecko_store::LogConfig {
            max_segment_bytes: 96 * rng.range_u64(1, 9),
        };
        let delete_limit = rng.range_u64(0, 4) as usize;
        let mut log = SegmentedLog::open(dir, cfg).unwrap();
        let check = |log: &SegmentedLog, appended: usize| {
            assert_eq!(
                decode(&log.lines()),
                decode(&lines[..appended]),
                "{cfg:?}, delete_limit {delete_limit}, after {appended} of {lines:#?}"
            );
        };
        for n in 1..=lines.len() {
            log.append(&lines[n - 1]);
            if rng.range_u64(0, 3) == 0 {
                if rng.range_u64(0, 2) == 0 {
                    drop(log);
                    log = SegmentedLog::open(dir, cfg).unwrap();
                }
                log.compact(classify, delete_limit).unwrap();
                check(&log, n);
            }
        }
        log.seal().unwrap();
        while !log.compact(classify, delete_limit).unwrap().done {}
        check(&log, lines.len());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn compaction_under_any_schedule_is_invisible_to_resume() {
        let dir = scratch_dir("schedule");
        let mut rng = SplitMix64::new(0x5EED_0007);
        for _ in 0..120 {
            let lines = hostile_journal(&mut rng);
            assert_compaction_is_invisible(
                &mut rng,
                &dir,
                &lines,
                classify_campaign_lines,
                |lines| (decode_campaign(lines).0, first_header(lines)),
            );
        }
    }

    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("gecko-journal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A group whose edge sits in a segment compacted before the group's
    /// `run_done` lines arrived: a budgeted compaction must delete the
    /// stranded edge before the marker that consumed it, or the edge
    /// joins the key's next group and restores a run the full journal
    /// does not. Run twice: with 64-byte segments (every line sealed)
    /// and with explicit seals that leave the intact marker in the tail.
    #[test]
    fn compacting_a_straddling_group_keeps_resume_unchanged() {
        let run = encode_run(5, &sample_result(0, 1));
        let itemless = run[1].replacen("\"item\":0,", "", 1);
        assert_ne!(itemless, run[1]);
        for marker_in_tail in [false, true] {
            let dir = scratch_dir(&format!("straddle-{marker_in_tail}"));
            let cfg = gecko_store::LogConfig {
                max_segment_bytes: if marker_in_tail { 1 << 20 } else { 64 },
            };
            let log = SegmentedLog::open(&dir, cfg).unwrap();
            log.append(&encode_header("straddle", 5));
            log.append(&run[0]);
            log.seal().unwrap();
            // The edge is in flight: nothing to delete yet.
            let first = log.compact(classify_campaign_lines, 1).unwrap();
            assert_eq!((first.pruned, first.done), (0, true));
            log.append(&itemless);
            log.seal().unwrap();
            log.append(&run[1]);
            let tail = log.segment_lines().pop().unwrap().lines;
            assert_eq!(tail.len(), usize::from(marker_in_tail));
            assert!(decode_campaign(&log.lines()).0.is_empty());
            drop(log);

            // Compaction keeps no state: each call reopens the log from disk.
            let mut calls = 0;
            loop {
                let log = SegmentedLog::open(&dir, cfg).unwrap();
                let c = log.compact(classify_campaign_lines, 1).unwrap();
                calls += 1;
                assert!(
                    decode_campaign(&log.lines()).0.is_empty(),
                    "call {calls} restored a run: {:#?}",
                    log.lines()
                );
                if c.done {
                    break;
                }
                assert!(calls < 10, "budgeted compaction must converge");
            }
            assert!(calls > 1, "a budget of 1 splits the compaction");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn open_repairs_a_torn_tail_and_counts_it() {
        let dir = std::env::temp_dir().join(format!("gecko-journal-torn-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let journal = Journal::open_segmented(&dir, gecko_store::LogConfig::default()).unwrap();
            journal.append(&encode_header("torn", 3));
            for line in encode_run(5, &sample_result(0, 0)) {
                journal.append(&line);
            }
        }
        // Kill mid-append: chop the active tail mid-byte of its last record.
        let tail = dir.join("seg-000000.jsonl");
        let mut bytes = std::fs::read(&tail).unwrap();
        bytes.truncate(bytes.len() - 7);
        std::fs::write(&tail, &bytes).unwrap();

        let journal = Journal::open_segmented(&dir, gecko_store::LogConfig::default()).unwrap();
        assert_eq!(journal.torn_tails(), 1, "repair is counted");
        let (runs, _) = decode_campaign(&journal.lines());
        assert_eq!(
            first_header(&journal.lines()),
            Some(("torn".to_string(), 3))
        );
        assert!(!runs.contains_key(&5), "the torn run is re-executed");
        // Appends after the repair start on a fresh line — journal the
        // run again and it decodes.
        for line in encode_run(5, &sample_result(0, 0)) {
            journal.append(&line);
        }
        journal.sync();
        let (runs, _) = decode_campaign(&journal.lines());
        assert!(runs.contains_key(&5));
        assert_eq!(journal.dropped(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn segmented_journal_round_trips_and_exposes_its_log() {
        let dir = std::env::temp_dir().join(format!("gecko-journal-seg-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let log = Arc::new(
            SegmentedLog::open(
                &dir,
                gecko_store::LogConfig {
                    max_segment_bytes: 256,
                },
            )
            .unwrap(),
        );
        let journal = Journal::segmented(Arc::clone(&log));
        journal.append(&encode_header("seg", 11));
        for key in 0..6 {
            for line in encode_run(key, &sample_result(key as usize, 1)) {
                journal.append(&line);
            }
        }
        journal.sync();
        assert!(log.segments().len() > 1, "small segments rotate");
        let (runs, _) = decode_campaign(&journal.lines());
        assert_eq!(
            first_header(&journal.lines()),
            Some(("seg".to_string(), 11))
        );
        assert_eq!(runs.len(), 6);

        // Reopen reads the same lines back.
        drop((journal, log));
        let reopened = Journal::open_segmented(
            &dir,
            gecko_store::LogConfig {
                max_segment_bytes: 256,
            },
        )
        .unwrap();
        let (runs, _) = decode_campaign(&reopened.lines());
        assert_eq!(runs.len(), 6);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn on_disk_journal_persists_across_reopen() {
        let dir = std::env::temp_dir().join(format!("gecko-journal-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let journal = Journal::open_segmented(&dir, gecko_store::LogConfig::default()).unwrap();
            journal.append(&encode_header("file", 7));
            for line in encode_run(9, &sample_result(0, 0)) {
                journal.append(&line);
            }
            assert_eq!(journal.dropped(), 0);
        }
        let reopened = Journal::open_segmented(&dir, gecko_store::LogConfig::default()).unwrap();
        let (runs, _) = decode_campaign(&reopened.lines());
        assert_eq!(
            first_header(&reopened.lines()),
            Some(("file".to_string(), 7))
        );
        assert!(runs.contains_key(&9));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
