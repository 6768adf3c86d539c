//! The durable memo store: checker verdicts that survive the process, on
//! `gecko-store`'s segmented log.
//!
//! A checker campaign shards each (app, scheme) pair into window slabs —
//! its work-item chunks. This store persists one **slab record** per
//! checked chunk, keyed by the chunk run key: the chunk's [`CheckStats`],
//! its violations (schedule + outcome; blame is rebuilt by deterministic
//! replay on restore), the blamed-region set, and the program/region
//! fingerprints the verdicts were proven against. The campaign writes it
//! once, after the chunk's step-budget check, so a quarantined or killed
//! chunk leaves no record and is re-explored from scratch. The store is
//! a check campaign's only persisted chunk record: warm re-checks and
//! the resume of a killed campaign both restore from it.
//!
//! Soundness of reuse is change-driven (DESIGN.md §18): a slab restores
//! iff the whole-program fingerprint matches, **or** every region its
//! forks ever blamed fingerprints identically in the current artifact
//! ([`ProgramFingerprints::region_set_digest`]). Recompiling one region
//! therefore invalidates only the slabs blamed on it.
//!
//! Record vocabulary (single-line JSON, torn-write safe by construction):
//! `memo_meta` (store fingerprint + generation; a meta with a new
//! fingerprint clears everything) and `memo_slab` (later wins per run
//! key). Older binaries also wrote mid-slab progress: `memo_state` lines,
//! `memo_drop` tombstones and partial `memo_slab` records (`done` below
//! the slab's window count). Those logs still open; the retired records
//! have no effect on restore. The log compacts through
//! [`SegmentedLog::compact`] with [`classify_memo_lines`], which only
//! ever deletes lines whose removal — one by one or all at once — is
//! invisible to `MemoStore::restore`.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use gecko_compiler::ProgramFingerprints;
use gecko_fleet::lock_unpoisoned;
use gecko_sim::report::{json_kv, Json, Value};
use gecko_store::{LogConfig, SegmentedLog, Verdict};

use crate::campaign::{
    decode_stats, decode_viols, encode_viols, stats_fields, ChunkLineError, JournalDiagnostic,
    JournaledViolation,
};
use crate::explore::SlabOutcome;
use crate::verdict::CheckStats;

const MEMO_META: &str = "memo_meta";
const MEMO_SLAB: &str = "memo_slab";
/// Kinds only older binaries wrote (mid-slab resume); read as retired.
const MEMO_STATE: &str = "memo_state";
const MEMO_DROP: &str = "memo_drop";

// ---------------------------------------------------------------------------
// Records
// ---------------------------------------------------------------------------

/// One slab's persisted verdict state.
#[derive(Debug, Clone, PartialEq)]
struct SlabRecord {
    start: u64,
    end: u64,
    /// Windows checked: `end - start` in every record this binary writes.
    done: u64,
    golden: u64,
    program_fp: u64,
    rfp: u64,
    regions: BTreeSet<u32>,
    stats: CheckStats,
    violations: Vec<JournaledViolation>,
}

/// One decoded live line of the store's vocabulary.
#[derive(Debug, Clone, PartialEq)]
enum MemoLine {
    Meta {
        name: String,
        fingerprint: u64,
        generation: u64,
    },
    Slab {
        run_key: u64,
        rec: SlabRecord,
    },
}

fn encode_regions(regions: &BTreeSet<u32>) -> String {
    let parts: Vec<String> = regions.iter().map(u32::to_string).collect();
    parts.join(",")
}

fn decode_regions(text: &str) -> Result<BTreeSet<u32>, ChunkLineError> {
    if text.is_empty() {
        return Ok(BTreeSet::new());
    }
    text.split(',')
        .map(|part| {
            part.parse().map_err(|_| ChunkLineError::Malformed {
                path: "regions".to_string(),
            })
        })
        .collect()
}

fn encode_memo_line(line: &MemoLine) -> String {
    match line {
        MemoLine::Meta {
            name,
            fingerprint,
            generation,
        } => json_kv(&[
            ("kind", Value::Str(MEMO_META.to_string())),
            ("name", Value::Str(name.clone())),
            ("fingerprint", Value::U64(*fingerprint)),
            ("generation", Value::U64(*generation)),
        ]),
        MemoLine::Slab { run_key, rec } => {
            let mut fields = vec![
                ("kind", Value::Str(MEMO_SLAB.to_string())),
                ("run_key", Value::U64(*run_key)),
                ("start", Value::U64(rec.start)),
                ("end", Value::U64(rec.end)),
                ("done", Value::U64(rec.done)),
                ("golden", Value::U64(rec.golden)),
                ("program_fp", Value::U64(rec.program_fp)),
                ("rfp", Value::U64(rec.rfp)),
                ("regions", Value::Str(encode_regions(&rec.regions))),
            ];
            fields.extend(stats_fields(&rec.stats));
            fields.push(("viols", Value::Str(encode_viols(&rec.violations))));
            json_kv(&fields)
        }
    }
}

/// Decodes one parsed line. `None` means the line is not in this store's
/// vocabulary at all; `Some(Err(_))` is one of our kinds this binary
/// cannot use; `Some(Ok(None))` is a retired record (a `memo_state`, a
/// `memo_drop` or a partial `memo_slab`), which restore ignores.
fn decode_memo_line(rec: &Json) -> Option<Result<Option<MemoLine>, ChunkLineError>> {
    let kind = rec.get("kind")?.as_str()?;
    match kind {
        MEMO_META | MEMO_SLAB => {}
        MEMO_STATE | MEMO_DROP => return Some(Ok(None)),
        _ => return None,
    }
    let u = |name: &str| {
        rec.get(name)
            .and_then(Json::as_u64)
            .ok_or_else(|| ChunkLineError::Malformed {
                path: name.to_string(),
            })
    };
    let s = |name: &str| {
        rec.get(name)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| ChunkLineError::Malformed {
                path: name.to_string(),
            })
    };
    Some((|| {
        if kind == MEMO_META {
            return Ok(Some(MemoLine::Meta {
                name: s("name")?,
                fingerprint: u("fingerprint")?,
                generation: u("generation")?,
            }));
        }
        let (run_key, start, end, done) = (u("run_key")?, u("start")?, u("end")?, u("done")?);
        if done < end.saturating_sub(start) {
            return Ok(None);
        }
        Ok(Some(MemoLine::Slab {
            run_key,
            rec: SlabRecord {
                start,
                end,
                done,
                golden: u("golden")?,
                program_fp: u("program_fp")?,
                rfp: u("rfp")?,
                regions: decode_regions(&s("regions")?)?,
                stats: decode_stats(u)?,
                violations: decode_viols(&s("viols")?)?,
            },
        }))
    })())
}

// ---------------------------------------------------------------------------
// The store
// ---------------------------------------------------------------------------

#[derive(Default)]
struct StoreState {
    saw_meta: bool,
    fingerprint: Option<u64>,
    generation: u64,
    slabs: HashMap<u64, SlabRecord>,
}

impl StoreState {
    fn apply(&mut self, line: &MemoLine) {
        match line {
            MemoLine::Meta {
                fingerprint,
                generation,
                ..
            } => {
                // The first meta — and any meta announcing a different
                // spec fingerprint — clears the store: nothing recorded
                // under another spec (or before any spec was declared) is
                // safe to answer from.
                if !self.saw_meta || self.fingerprint != Some(*fingerprint) {
                    self.slabs.clear();
                }
                self.saw_meta = true;
                self.fingerprint = Some(*fingerprint);
                self.generation = *generation;
            }
            MemoLine::Slab { run_key, rec } => {
                self.slabs.insert(*run_key, rec.clone());
            }
        }
    }
}

/// The durable memo store: decoded state of a [`SegmentedLog`] of memo
/// records, kept consistent with the log under one lock. Open one per
/// spec fingerprint (the serve layer keys the directory on it); a `begin`
/// with a different fingerprint clears the store and bumps the
/// generation.
pub struct MemoStore {
    log: Arc<SegmentedLog>,
    state: Mutex<StoreState>,
    diagnostics: Vec<JournalDiagnostic>,
    sync_failures: AtomicU64,
}

impl MemoStore {
    /// Opens (or creates) the store in `dir`: [`MemoStore::from_log`] on
    /// a fresh [`SegmentedLog`] there.
    ///
    /// # Errors
    ///
    /// Propagates the underlying [`SegmentedLog::open`] I/O error.
    pub fn open(dir: &Path) -> std::io::Result<MemoStore> {
        let log = SegmentedLog::open(dir, LogConfig::default())?;
        Ok(MemoStore::from_log(Arc::new(log)))
    }

    /// The store over an open `log`, replaying every decodable record and
    /// keeping one [`JournalDiagnostic`] per line of the store's
    /// vocabulary it cannot decode. Lines in a foreign vocabulary (say,
    /// an older binary's checker journal, or the lines a served job's log
    /// shares with its memo records) and torn garbage are skipped
    /// silently.
    pub fn from_log(log: Arc<SegmentedLog>) -> MemoStore {
        let mut state = StoreState::default();
        let mut diagnostics = Vec::new();
        for (i, line) in log.lines().iter().enumerate() {
            let Some(rec) = Json::parse_flat(line) else {
                continue;
            };
            match decode_memo_line(&rec) {
                Some(Ok(Some(memo_line))) => state.apply(&memo_line),
                Some(Err(error)) => diagnostics.push(JournalDiagnostic::from_error(i, &error)),
                Some(Ok(None)) | None => {}
            }
        }
        MemoStore {
            log,
            state: Mutex::new(state),
            diagnostics,
            sync_failures: AtomicU64::new(0),
        }
    }

    /// One diagnostic per line of the store's vocabulary that
    /// [`MemoStore::from_log`] could not decode (malformed, or carrying a tag
    /// this binary does not know); their chunks re-explore.
    pub fn diagnostics(&self) -> &[JournalDiagnostic] {
        &self.diagnostics
    }

    /// The underlying log (compacted with
    /// `log.compact(classify_memo_lines, delete_limit)`).
    pub fn log(&self) -> Arc<SegmentedLog> {
        Arc::clone(&self.log)
    }

    /// Forces all appended records to stable storage. A failure counts as
    /// a drop (the records may not survive a power cut) instead of
    /// panicking.
    pub fn sync(&self) {
        if self.log.sync().is_err() {
            self.sync_failures.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records dropped because of I/O failures since this store was
    /// opened, failed [`MemoStore::sync`] checkpoints included. A
    /// campaign reports the growth of this count over its own run.
    pub(crate) fn dropped(&self) -> u64 {
        self.log.dropped() + self.sync_failures.load(Ordering::Relaxed)
    }

    /// The current memo generation: bumped whenever `begin` sees a new
    /// spec fingerprint (or a virgin store). A proof-of-clean digest names
    /// the generation it was proven against.
    pub fn generation(&self) -> u64 {
        lock_unpoisoned(&self.state).generation
    }

    /// Declares the spec this run checks. Same fingerprint as the last
    /// `begin` → the stored verdicts remain answerable and the generation
    /// is reused; different fingerprint (or a virgin store) → the store
    /// clears (fingerprint change only) and a new generation starts.
    /// Returns the generation this run's verdicts belong to.
    pub(crate) fn begin(&self, name: &str, fingerprint: u64) -> u64 {
        let mut s = lock_unpoisoned(&self.state);
        if s.fingerprint != Some(fingerprint) || !s.saw_meta {
            let line = MemoLine::Meta {
                name: name.to_string(),
                fingerprint,
                generation: s.generation + 1,
            };
            self.log.append(&encode_memo_line(&line));
            s.apply(&line);
        }
        s.generation
    }

    /// Validates and returns the stored counters and (blame-free)
    /// violations for `run_key`, or `None` when nothing stored is sound
    /// to reuse: the golden trace length changed, or the program
    /// fingerprint changed *and* some blamed region's fingerprint changed
    /// with it (change-driven invalidation — a slab whose blamed regions
    /// all survive a recompile untouched stays valid).
    pub(crate) fn restore(
        &self,
        run_key: u64,
        golden: u64,
        fps: &ProgramFingerprints,
    ) -> Option<(CheckStats, Vec<JournaledViolation>)> {
        let s = lock_unpoisoned(&self.state);
        let rec = s.slabs.get(&run_key)?;
        if rec.golden != golden {
            return None;
        }
        let valid = rec.program_fp == fps.program
            || (!rec.regions.is_empty()
                && fps.region_set_digest(rec.regions.iter().copied()) == Some(rec.rfp));
        valid.then(|| (rec.stats, rec.violations.clone()))
    }

    /// Appends the record of the checked slab `start..end` of the pair
    /// fingerprinted by `fps`; it supersedes any earlier record for
    /// `run_key`. The campaign calls this once per checked chunk, after
    /// the chunk's step-budget check.
    pub(crate) fn record(
        &self,
        run_key: u64,
        fps: &ProgramFingerprints,
        start: u64,
        end: u64,
        golden: u64,
        outcome: &SlabOutcome,
    ) {
        let rec = SlabRecord {
            start,
            end,
            done: end.saturating_sub(start),
            golden,
            program_fp: fps.program,
            // An unknown-region fallback only makes restore *refuse*,
            // which is the conservative direction.
            rfp: fps
                .region_set_digest(outcome.regions.iter().copied())
                .unwrap_or(0),
            regions: outcome.regions.clone(),
            stats: outcome.stats,
            violations: outcome
                .violations
                .iter()
                .map(JournaledViolation::from)
                .collect(),
        };
        let line = MemoLine::Slab { run_key, rec };
        let mut s = lock_unpoisoned(&self.state);
        self.log.append(&encode_memo_line(&line));
        s.apply(&line);
    }
}

// ---------------------------------------------------------------------------
// Compaction classifier
// ---------------------------------------------------------------------------

/// Classifies a memo log for [`SegmentedLog::compact`], marking
/// [`Verdict::Delete`] only on lines whose removal is invisible to
/// `MemoStore::restore` — and stays invisible if *any subset* of the
/// marked lines is removed, and whatever lines are appended afterwards
/// (compaction rewrites sealed segments only, so marked lines in the
/// active tail survive every call, and the log keeps growing):
///
/// * unparseable garbage and structurally broken records of our
///   vocabulary (no decoder sees them);
/// * retired records — `memo_state`, `memo_drop` and partial `memo_slab`
///   lines from older binaries (restore ignores them);
/// * slab records wiped by a later meta announcing a different
///   fingerprint (metas themselves are always kept — they *are* the
///   clearing structure — so the wipe happens with or without the wiped
///   lines), or superseded by a later slab record of the same run key.
///
/// Lines in a foreign vocabulary — and our-kind records carrying unknown
/// tags (a newer writer's data) — are kept.
pub fn classify_memo_lines(lines: &[String]) -> Vec<Verdict> {
    // `Err` carries the verdict of a line decided on its own.
    let parsed: Vec<Result<MemoLine, Verdict>> = lines
        .iter()
        .map(|line| {
            let Some(rec) = Json::parse_flat(line) else {
                return Err(Verdict::Delete);
            };
            match decode_memo_line(&rec) {
                Some(Ok(Some(memo_line))) => Ok(memo_line),
                Some(Ok(None)) | Some(Err(ChunkLineError::Malformed { .. })) => {
                    Err(Verdict::Delete)
                }
                None | Some(Err(ChunkLineError::UnknownTag { .. })) => Err(Verdict::Keep),
            }
        })
        .collect();

    // The slab each run key restores from, replayed exactly like
    // `StoreState::apply`: later wins, a clearing meta forgets them all.
    let mut live: HashMap<u64, usize> = HashMap::new();
    let (mut saw_meta, mut fp) = (false, None);
    for (i, p) in parsed.iter().enumerate() {
        match p {
            Ok(MemoLine::Meta { fingerprint, .. }) => {
                if !saw_meta || fp != Some(*fingerprint) {
                    live.clear();
                }
                saw_meta = true;
                fp = Some(*fingerprint);
            }
            Ok(MemoLine::Slab { run_key, .. }) => {
                live.insert(*run_key, i);
            }
            Err(_) => {}
        }
    }
    let live: HashSet<usize> = live.into_values().collect();
    parsed
        .iter()
        .enumerate()
        .map(|(i, p)| match p {
            Ok(MemoLine::Meta { .. }) => Verdict::Keep,
            Ok(MemoLine::Slab { .. }) if live.contains(&i) => Verdict::Keep,
            Ok(MemoLine::Slab { .. }) => Verdict::Delete,
            Err(verdict) => *verdict,
        })
        .collect()
}

/// Decodes one raw line of the store's vocabulary (test access to the
/// parse + decode pair [`MemoStore::open`] runs per line).
#[cfg(test)]
fn decode_memo_text(line: &str) -> Option<Result<Option<MemoLine>, ChunkLineError>> {
    decode_memo_line(&Json::parse_flat(line)?)
}

#[cfg(test)]
mod golden;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{CheckCampaign, CheckSpec};
    use crate::explore::ExploreConfig;
    use crate::testprog::war_counter_app;
    use crate::verdict::{InjectionKind, PlannedInjection};
    use crate::Outcome;
    use gecko_isa::rng::SplitMix64;
    use gecko_sim::SchemeKind;
    use std::path::PathBuf;

    fn scratch(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("gecko-memostore-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn store_from_lines(dir: &Path, lines: &[String]) -> MemoStore {
        let _ = std::fs::remove_dir_all(dir);
        {
            let log = SegmentedLog::open(dir, LogConfig::default()).unwrap();
            for line in lines {
                log.append(line);
            }
        }
        MemoStore::open(dir).unwrap()
    }

    fn fake_fps() -> ProgramFingerprints {
        ProgramFingerprints {
            program: 0x1111,
            regions: [(1, 0xA), (4, 0xB)].into_iter().collect(),
        }
    }

    fn sample_stats(windows: u64) -> CheckStats {
        CheckStats {
            windows,
            forks: 2 * windows,
            explored: windows,
            memo_hits: windows,
            steps: 10 * windows,
            violations: 0,
        }
    }

    /// A slab record of windows `0..total` with `done` of them checked
    /// (`done < total` is a retired partial slab).
    fn slab_line(fps: &ProgramFingerprints, run_key: u64, done: u64, total: u64) -> String {
        let regions: BTreeSet<u32> = [1u32].into_iter().collect();
        encode_memo_line(&MemoLine::Slab {
            run_key,
            rec: SlabRecord {
                start: 0,
                end: total,
                done,
                golden: 100,
                program_fp: fps.program,
                rfp: fps.region_set_digest(regions.iter().copied()).unwrap(),
                regions,
                stats: sample_stats(done),
                violations: vec![JournaledViolation {
                    window: 3,
                    schedule: vec![PlannedInjection {
                        after_steps: 3,
                        kind: InjectionKind::PowerFailure,
                    }],
                    outcome: Outcome::Stuck,
                }],
            },
        })
    }

    /// A retired `memo_state` line, as older binaries wrote it.
    fn state_line(run_key: u64, upto: u64, state: u64) -> String {
        format!(
            r#"{{"kind":"memo_state","run_key":{run_key},"upto":{upto},"state":{state},"outcome":"clean"}}"#
        )
    }

    /// A retired `memo_drop` tombstone, as older binaries wrote it.
    fn drop_line(run_key: u64) -> String {
        format!(r#"{{"kind":"memo_drop","run_key":{run_key}}}"#)
    }

    fn meta_line(fingerprint: u64, generation: u64) -> String {
        encode_memo_line(&MemoLine::Meta {
            name: "t".to_string(),
            fingerprint,
            generation,
        })
    }

    #[test]
    fn slabs_roundtrip_through_disk_and_validate_fingerprints() {
        let dir = scratch("roundtrip");
        let fps = fake_fps();
        let store = store_from_lines(&dir, &[meta_line(7, 1), slab_line(&fps, 42, 64, 64)]);
        assert_eq!(store.generation(), 1);
        let (stats, violations) = store.restore(42, 100, &fps).expect("valid slab");
        assert_eq!(stats, sample_stats(64));
        assert_eq!(violations.len(), 1);

        // Wrong golden trace length: nothing to reuse.
        assert!(store.restore(42, 101, &fps).is_none());
        // Blamed region 1 recompiled: invalidated.
        let mut changed = fake_fps();
        changed.program = 0x2222;
        changed.regions.insert(1, 0xAA);
        assert!(store.restore(42, 100, &changed).is_none());
        // Only the *unblamed* region 4 changed: still sound to reuse.
        let mut unrelated = fake_fps();
        unrelated.program = 0x2222;
        unrelated.regions.insert(4, 0xBB);
        assert!(store.restore(42, 100, &unrelated).is_some());
    }

    #[test]
    fn begin_reuses_generation_for_same_fingerprint_and_clears_on_change() {
        let dir = scratch("begin");
        let store = store_from_lines(&dir, &[]);
        assert_eq!(store.begin("t", 7), 1);
        assert_eq!(store.begin("t", 7), 1, "same spec reuses the generation");

        let fps = fake_fps();
        let outcome = SlabOutcome {
            stats: sample_stats(4),
            violations: Vec::new(),
            regions: BTreeSet::new(),
            joins: Default::default(),
        };
        store.record(9, &fps, 0, 4, 100, &outcome);
        assert_eq!(
            store.restore(9, 100, &fps),
            Some((sample_stats(4), Vec::new()))
        );

        assert_eq!(store.begin("t", 8), 2, "new spec bumps the generation");
        assert!(
            store.restore(9, 100, &fps).is_none(),
            "and clears the store"
        );

        // Reopen: generation and emptiness survive the process.
        drop(store);
        let store = MemoStore::open(&dir).unwrap();
        assert_eq!(store.generation(), 2);
        assert!(store.restore(9, 100, &fps).is_none());
    }

    #[test]
    fn retired_records_have_no_effect_and_compact_away() {
        let fps = fake_fps();
        let lines = vec![
            meta_line(7, 1),
            slab_line(&fps, 5, 64, 64),
            state_line(5, 16, 0xAAAA),
            slab_line(&fps, 5, 16, 64), // a later partial slab of the key
            drop_line(5),
            state_line(6, 16, 0xBBBB),
            slab_line(&fps, 6, 32, 64), // a key with only partial progress
        ];
        let dir = scratch("retired");
        let store = store_from_lines(&dir, &lines);
        let (stats, violations) = store.restore(5, 100, &fps).expect("the complete slab");
        assert_eq!((stats, violations.len()), (sample_stats(64), 1));
        assert!(
            store.restore(6, 100, &fps).is_none(),
            "partial slabs never restore"
        );
        let verdicts = classify_memo_lines(&lines);
        assert_eq!(verdicts[..2], [Verdict::Keep, Verdict::Keep]);
        assert!(
            verdicts[2..].iter().all(|v| *v == Verdict::Delete),
            "{verdicts:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The restore-observable face of a store: what every run key answers,
    /// plus the generation. Pruning must preserve this exactly.
    fn observable(store: &MemoStore, fps: &ProgramFingerprints, keys: &[u64]) -> Vec<String> {
        let mut out = vec![format!("generation={}", store.generation())];
        for &key in keys {
            out.push(format!("{key}: {:?}", store.restore(key, 100, fps)));
        }
        out
    }

    #[test]
    fn classifier_deletions_are_subset_safe() {
        let fps = fake_fps();
        // Key 3's slab carries an outcome tag this binary does not know: a
        // newer writer's data, kept.
        let forward = slab_line(&fps, 3, 64, 64).replace("|stuck", "|vaporized");
        let lines = vec![
            slab_line(&fps, 1, 64, 64), // pre-meta: wiped by the first meta
            meta_line(7, 1),
            slab_line(&fps, 1, 64, 64), // superseded below
            state_line(1, 8, 0x2),      // retired
            "garbage, not json".to_string(),
            r#"{"kind":"memo_slab","run_key":"oops"}"#.to_string(), // malformed
            forward,
            r#"{"kind":"other_store","run_key":1}"#.to_string(), // foreign
            slab_line(&fps, 1, 32, 64),                          // retired partial
            slab_line(&fps, 1, 64, 64),
            slab_line(&fps, 2, 64, 64), // wiped below
            drop_line(99),              // retired
            meta_line(8, 2),            // different fp: wipes every slab above
            slab_line(&fps, 4, 64, 64), // superseded below
            drop_line(4),               // retired
            slab_line(&fps, 4, 64, 64),
            state_line(4, 24, 0x7), // retired
        ];
        let verdicts = classify_memo_lines(&lines);
        let deleted: Vec<usize> = (0..lines.len())
            .filter(|&i| verdicts[i] == Verdict::Delete)
            .collect();
        assert_eq!(deleted.len(), 12, "the fixture exercises deletions");
        // Metas and forward-compatible records are never deleted.
        for (i, line) in lines.iter().enumerate() {
            if line.contains("memo_meta") || line.contains("vaporized") {
                assert_eq!(verdicts[i], Verdict::Keep, "line {i}");
            }
        }
        // Removing each marked line alone — and all of them at once —
        // leaves the restore-observable state bit-identical.
        let mut subsets: Vec<Vec<usize>> = deleted.iter().map(|&i| vec![i]).collect();
        subsets.push(deleted);
        assert_subsets_are_invisible(&lines, &subsets);

        // Seeded random streams of every line kind, under random subsets
        // of their deletions.
        let mut rng = SplitMix64::new(0x5EED_0006);
        for _ in 0..150 {
            let lines = random_memo_lines(&mut rng);
            let verdicts = classify_memo_lines(&lines);
            let deleted: Vec<usize> = (0..lines.len())
                .filter(|&i| verdicts[i] == Verdict::Delete)
                .collect();
            let mut subsets: Vec<Vec<usize>> = (0..4)
                .map(|_| {
                    let mut pick = deleted.clone();
                    pick.retain(|_| rng.range_u64(0, 2) == 0);
                    pick
                })
                .collect();
            subsets.push(deleted);
            assert_subsets_are_invisible(&lines, &subsets);
        }
    }

    /// A seeded stream of every memo line kind — metas, complete and
    /// partial slabs, retired states and drops, forward-compatible records
    /// and torn slab prefixes — over run keys 1..=3.
    fn random_memo_lines(rng: &mut SplitMix64) -> Vec<String> {
        let fps = fake_fps();
        (0..rng.range_u64(4, 18))
            .map(|_| {
                let key = rng.range_u64(1, 4);
                let step = 8 * rng.range_u64(1, 9);
                match rng.range_u64(0, 8) {
                    0 => meta_line(7 + rng.range_u64(0, 2), rng.range_u64(1, 4)),
                    1 | 2 => slab_line(&fps, key, step, 64),
                    3 | 4 => state_line(key, step, rng.next_u64()),
                    5 => drop_line(key),
                    6 => format!(
                        r#"{{"kind":"memo_state","run_key":{key},"upto":{step},"state":9,"outcome":"vaporized"}}"#
                    ),
                    _ => {
                        let line = slab_line(&fps, key, step, 64);
                        line[..rng.range_u64(0, line.len() as u64) as usize].to_string()
                    }
                }
            })
            .collect()
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
        decode: impl Fn(&[String]) -> T,
    ) {
        let _ = std::fs::remove_dir_all(dir);
        let cfg = LogConfig {
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
                log.compact(classify_memo_lines, delete_limit).unwrap();
                check(&log, n);
            }
        }
        log.seal().unwrap();
        while !log.compact(classify_memo_lines, delete_limit).unwrap().done {}
        check(&log, lines.len());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn compaction_under_any_schedule_is_invisible_to_restore() {
        let fps = fake_fps();
        let keys = [1u64, 2, 3, 4, 99];
        let (dir, decoded) = (scratch("schedule"), scratch("schedule-decoded"));
        let mut rng = SplitMix64::new(0x5EED_0009);
        for _ in 0..120 {
            let lines = random_memo_lines(&mut rng);
            assert_compaction_is_invisible(&mut rng, &dir, &lines, |lines| {
                observable(&store_from_lines(&decoded, lines), &fps, &keys)
            });
        }
        let _ = std::fs::remove_dir_all(&decoded);
    }

    /// Removing the lines of any one of `subsets` from `lines` leaves
    /// what the store restores, and its generation, unchanged.
    fn assert_subsets_are_invisible(lines: &[String], subsets: &[Vec<usize>]) {
        let fps = fake_fps();
        let keys = [1u64, 2, 3, 4, 99];
        let dir = scratch("subsets");
        let baseline = observable(&store_from_lines(&dir, lines), &fps, &keys);
        for subset in subsets {
            let kept: Vec<String> = lines
                .iter()
                .enumerate()
                .filter(|(i, _)| !subset.contains(i))
                .map(|(_, l)| l.clone())
                .collect();
            let pruned = observable(&store_from_lines(&dir, &kept), &fps, &keys);
            assert_eq!(
                baseline, pruned,
                "removing lines {subset:?} of {lines:#?} changed decode"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A memo log as a binary with mid-slab resume left it, built from the
    /// golden fixtures: after each real complete slab, a later partial
    /// slab of the same key (one that would validate if it were read), a
    /// state line and a drop. Resume answers every chunk from the
    /// complete slabs alone, bit-exactly, raw and after compaction.
    #[test]
    fn legacy_logs_resume_from_their_complete_slabs_only() {
        let spec = || {
            CheckSpec::new("legacy")
                .apps([war_counter_app(6)])
                .schemes([SchemeKind::Nvp])
                .explore(ExploreConfig {
                    depth: 2,
                    power_failure_windows: false,
                    refail_horizon: 8,
                    max_windows: Some(24),
                    ..ExploreConfig::default()
                })
                .chunk_windows(8)
        };
        let reference = CheckCampaign::new(spec()).run().unwrap();
        assert!(!reference.is_clean(), "violations exercise the replay path");
        let cold_dir = scratch("legacy-cold");
        let cold = {
            let store = Arc::new(MemoStore::open(&cold_dir).unwrap());
            CheckCampaign::new(spec())
                .memo(Arc::clone(&store))
                .run()
                .unwrap();
            store.log().lines()
        };

        let golden_key = golden::RUN_KEY.to_string();
        let mut legacy = Vec::new();
        for line in &cold {
            legacy.push(line.clone());
            let rec = Json::parse_flat(line).unwrap();
            if rec.get("kind").and_then(Json::as_str) != Some(MEMO_SLAB) {
                continue;
            }
            let field = |name: &str| rec.get(name).and_then(Json::as_u64).unwrap();
            let key = field("run_key").to_string();
            let partial = golden::SLAB
                .replace(&golden_key, &key)
                .replace(r#""done":96"#, r#""done":1"#)
                .replace(
                    r#""golden":4096"#,
                    &format!(r#""golden":{}"#, field("golden")),
                )
                .replace(
                    r#""program_fp":1229782938247303441"#,
                    &format!(r#""program_fp":{}"#, field("program_fp")),
                );
            legacy.push(partial);
            legacy.push(golden::STATE.replace(&golden_key, &key));
            legacy.push(golden::DROP.replace(&golden_key, &key));
        }
        assert_eq!(legacy.len(), 1 + 4 * (cold.len() - 1));

        let compacted = scratch("legacy-compacted");
        {
            let log = SegmentedLog::open(
                &compacted,
                LogConfig {
                    max_segment_bytes: 256,
                },
            )
            .unwrap();
            for line in &legacy {
                log.append(line);
            }
            log.seal().unwrap();
            while !log.compact(classify_memo_lines, 0).unwrap().done {}
            assert_eq!(log.lines(), cold, "compaction leaves the complete slabs");
        }
        let raw = scratch("legacy-raw");
        drop(store_from_lines(&raw, &legacy));
        for dir in [&raw, &compacted] {
            let store = Arc::new(MemoStore::open(dir).unwrap());
            let resumed = CheckCampaign::new(spec()).memo(store).run().unwrap();
            assert_eq!(
                resumed.deterministic_digest(),
                reference.deterministic_digest(),
                "{dir:?}"
            );
            assert_eq!(resumed.results, reference.results, "{dir:?}");
            assert_eq!(
                resumed.counters.memo_windows, resumed.totals.windows,
                "{dir:?}: every chunk answers from its complete slab"
            );
        }
        for dir in [cold_dir, raw, compacted] {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}
