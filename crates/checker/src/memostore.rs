//! The durable memo/frontier store: checker verdicts that survive the
//! process, on `gecko-store`'s segmented log.
//!
//! A checker campaign shards each (app, scheme) pair into window slabs.
//! This store persists, per slab (keyed by the chunk run key):
//!
//! * a **slab record** — how many windows are done, the cumulative
//!   [`CheckStats`], the violations (schedule + outcome; blame is rebuilt
//!   by deterministic replay on restore), the blamed-region set, and the
//!   program/region fingerprints the verdicts were proven against;
//! * **memo-state entries** — the in-slab memo table's fresh inserts
//!   (post-recovery state hash → outcome), each stamped with the window
//!   boundary (`upto`) it was flushed at, so a killed run resumes
//!   *mid-slab* with exactly the memo table an uninterrupted run would
//!   have had at that boundary.
//!
//! Soundness of reuse is change-driven (DESIGN.md §18): a slab restores
//! iff the whole-program fingerprint matches, **or** every region its
//! forks ever blamed fingerprints identically in the current artifact
//! ([`ProgramFingerprints::region_set_digest`]). Recompiling one region
//! therefore invalidates only the slabs blamed on it.
//!
//! Record vocabulary (single-line JSON, torn-write safe by construction):
//! `memo_meta` (store fingerprint + generation; a meta with a new
//! fingerprint clears everything), `memo_slab` (later wins per run key),
//! `memo_state` (append-only), `memo_drop` (clears one run key). The log
//! prunes under the standard [`gecko_store::Pruner`] budget via
//! [`classify_memo_lines`], which only ever deletes lines whose removal —
//! one by one or all at once — is invisible to `MemoStore::restore`.

use std::collections::{BTreeSet, HashMap};
use std::path::Path;
use std::sync::{Arc, Mutex};

use gecko_compiler::ProgramFingerprints;
use gecko_fleet::lock_unpoisoned;
use gecko_sim::report::{json_kv, Json, Value};
use gecko_store::{LogConfig, SegmentedLog, Verdict};

use crate::campaign::{
    decode_outcome, decode_schedule, encode_outcome, encode_schedule, ChunkLineError,
    JournaledViolation,
};
use crate::explore::{ExploreObserver, SlabOutcome, SlabProgress};
use crate::verdict::{CheckStats, Outcome, Violation};

const MEMO_META: &str = "memo_meta";
const MEMO_SLAB: &str = "memo_slab";
const MEMO_STATE: &str = "memo_state";
const MEMO_DROP: &str = "memo_drop";

/// Windows between [`SlabWriter`] flushes: small enough that a killed run
/// loses little work, large enough that the store never dominates the
/// exploration it is caching.
const FLUSH_WINDOWS: u64 = 32;

// ---------------------------------------------------------------------------
// Records
// ---------------------------------------------------------------------------

/// One slab's persisted verdict state.
#[derive(Debug, Clone, PartialEq)]
struct SlabRecord {
    start: u64,
    end: u64,
    done: u64,
    golden: u64,
    program_fp: u64,
    rfp: u64,
    regions: BTreeSet<u32>,
    stats: CheckStats,
    violations: Vec<JournaledViolation>,
}

/// One decoded line of the store's vocabulary.
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
    State {
        run_key: u64,
        upto: u64,
        state: u64,
        outcome: Outcome,
    },
    Drop {
        run_key: u64,
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

fn encode_viols(violations: &[JournaledViolation]) -> String {
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

fn decode_viols(text: &str) -> Result<Vec<JournaledViolation>, ChunkLineError> {
    let mut out = Vec::new();
    if text.is_empty() {
        return Ok(out);
    }
    for (vi, part) in text.split(';').enumerate() {
        let mut cols = part.splitn(3, '|');
        let mut col = |name: &str| {
            cols.next()
                .map(str::to_string)
                .ok_or_else(|| ChunkLineError::Malformed {
                    path: format!("viols[{vi}].{name}"),
                })
        };
        let window: u64 = col("window")?
            .parse()
            .map_err(|_| ChunkLineError::Malformed {
                path: format!("viols[{vi}].window"),
            })?;
        let schedule = decode_schedule(&col("schedule")?, &format!("viols[{vi}].schedule"))?;
        let outcome = decode_outcome(&col("outcome")?, &format!("viols[{vi}].outcome"))?;
        out.push(JournaledViolation {
            window,
            schedule,
            outcome,
        });
    }
    Ok(out)
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
        MemoLine::Slab { run_key, rec } => json_kv(&[
            ("kind", Value::Str(MEMO_SLAB.to_string())),
            ("run_key", Value::U64(*run_key)),
            ("start", Value::U64(rec.start)),
            ("end", Value::U64(rec.end)),
            ("done", Value::U64(rec.done)),
            ("golden", Value::U64(rec.golden)),
            ("program_fp", Value::U64(rec.program_fp)),
            ("rfp", Value::U64(rec.rfp)),
            ("regions", Value::Str(encode_regions(&rec.regions))),
            ("windows", Value::U64(rec.stats.windows)),
            ("forks", Value::U64(rec.stats.forks)),
            ("explored", Value::U64(rec.stats.explored)),
            ("memo_hits", Value::U64(rec.stats.memo_hits)),
            ("steps", Value::U64(rec.stats.steps)),
            ("violations", Value::U64(rec.stats.violations)),
            ("viols", Value::Str(encode_viols(&rec.violations))),
        ]),
        MemoLine::State {
            run_key,
            upto,
            state,
            outcome,
        } => json_kv(&[
            ("kind", Value::Str(MEMO_STATE.to_string())),
            ("run_key", Value::U64(*run_key)),
            ("upto", Value::U64(*upto)),
            ("state", Value::U64(*state)),
            ("outcome", Value::Str(encode_outcome(*outcome))),
        ]),
        MemoLine::Drop { run_key } => json_kv(&[
            ("kind", Value::Str(MEMO_DROP.to_string())),
            ("run_key", Value::U64(*run_key)),
        ]),
    }
}

/// Decodes one parsed line. `None` means the line is not in this store's
/// vocabulary at all; `Some(Err(_))` is one of our kinds this binary
/// cannot use.
fn decode_memo_line(rec: &Json) -> Option<Result<MemoLine, ChunkLineError>> {
    let kind = rec.get("kind")?.as_str()?;
    if !matches!(kind, MEMO_META | MEMO_SLAB | MEMO_STATE | MEMO_DROP) {
        return None;
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
    Some((|| match kind {
        MEMO_META => Ok(MemoLine::Meta {
            name: s("name")?,
            fingerprint: u("fingerprint")?,
            generation: u("generation")?,
        }),
        MEMO_SLAB => Ok(MemoLine::Slab {
            run_key: u("run_key")?,
            rec: SlabRecord {
                start: u("start")?,
                end: u("end")?,
                done: u("done")?,
                golden: u("golden")?,
                program_fp: u("program_fp")?,
                rfp: u("rfp")?,
                regions: decode_regions(&s("regions")?)?,
                stats: CheckStats {
                    windows: u("windows")?,
                    forks: u("forks")?,
                    explored: u("explored")?,
                    memo_hits: u("memo_hits")?,
                    steps: u("steps")?,
                    violations: u("violations")?,
                },
                violations: decode_viols(&s("viols")?)?,
            },
        }),
        MEMO_STATE => Ok(MemoLine::State {
            run_key: u("run_key")?,
            upto: u("upto")?,
            state: u("state")?,
            outcome: decode_outcome(&s("outcome")?, "outcome")?,
        }),
        _ => Ok(MemoLine::Drop {
            run_key: u("run_key")?,
        }),
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
    states: HashMap<u64, Vec<(u64, u64, Outcome)>>,
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
                    self.states.clear();
                }
                self.saw_meta = true;
                self.fingerprint = Some(*fingerprint);
                self.generation = *generation;
            }
            MemoLine::Slab { run_key, rec } => {
                self.slabs.insert(*run_key, rec.clone());
            }
            MemoLine::State {
                run_key,
                upto,
                state,
                outcome,
            } => self
                .states
                .entry(*run_key)
                .or_default()
                .push((*upto, *state, *outcome)),
            MemoLine::Drop { run_key } => {
                self.slabs.remove(run_key);
                self.states.remove(run_key);
            }
        }
    }
}

/// A restored slab: everything [`MemoStore::restore`] could validate
/// against the current artifact.
#[derive(Debug, Clone)]
pub(crate) struct RestoredSlab {
    /// Windows of the slab already checked (`done >= total` means the
    /// slab is complete and needs no re-exploration at all).
    pub done: u64,
    /// Total windows of the slab (`end - start`).
    pub total: u64,
    /// Cumulative counters over the done windows.
    pub stats: CheckStats,
    /// Violations found in the done windows (blame-free; rebuilt by
    /// replay).
    pub violations: Vec<JournaledViolation>,
    /// Regions blamed so far.
    pub regions: BTreeSet<u32>,
    /// Memo preload for a mid-slab resume (empty for complete slabs).
    pub memo: Vec<(u64, Outcome)>,
}

/// The durable memo/frontier store: decoded state of a
/// [`SegmentedLog`] of memo records, kept consistent with the log under
/// one lock. Open one per spec fingerprint (the serve layer keys the
/// directory on it); a `begin` with a different fingerprint clears the
/// store and bumps the generation.
pub struct MemoStore {
    log: Arc<SegmentedLog>,
    state: Mutex<StoreState>,
}

impl MemoStore {
    /// Opens (or creates) the store in `dir`, replaying every decodable
    /// record.
    ///
    /// # Errors
    ///
    /// Propagates the underlying [`SegmentedLog::open`] I/O error.
    pub fn open(dir: &Path) -> std::io::Result<MemoStore> {
        let log = Arc::new(SegmentedLog::open(dir, LogConfig::default())?);
        let mut state = StoreState::default();
        for line in log.lines() {
            let Some(rec) = Json::parse_flat(&line) else {
                continue;
            };
            if let Some(Ok(memo_line)) = decode_memo_line(&rec) {
                state.apply(&memo_line);
            }
        }
        Ok(MemoStore {
            log,
            state: Mutex::new(state),
        })
    }

    /// The underlying log (for wiring into a [`gecko_store::Pruner`] via
    /// [`gecko_store::LogCompactor`] with [`classify_memo_lines`]).
    pub fn log(&self) -> Arc<SegmentedLog> {
        Arc::clone(&self.log)
    }

    /// Forces all appended records to stable storage.
    pub fn sync(&self) {
        let _ = self.log.sync();
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

    /// Validates and returns the stored slab for `run_key`, or `None`
    /// when nothing stored is sound to reuse: the golden trace length
    /// changed, or the program fingerprint changed *and* some blamed
    /// region's fingerprint changed with it (change-driven invalidation —
    /// a slab whose blamed regions all survive a recompile untouched
    /// stays valid). Memo entries are returned only for partial slabs,
    /// filtered to the flush boundary (`upto <= done`), so a torn write
    /// of trailing state lines is invisible.
    pub(crate) fn restore(
        &self,
        run_key: u64,
        golden: u64,
        fps: &ProgramFingerprints,
    ) -> Option<RestoredSlab> {
        let s = lock_unpoisoned(&self.state);
        let rec = s.slabs.get(&run_key)?;
        if rec.golden != golden {
            return None;
        }
        let valid = rec.program_fp == fps.program
            || (!rec.regions.is_empty()
                && fps.region_set_digest(rec.regions.iter().copied()) == Some(rec.rfp));
        if !valid {
            return None;
        }
        let total = rec.end.saturating_sub(rec.start);
        let memo = if rec.done < total {
            s.states
                .get(&run_key)
                .map(|entries| {
                    entries
                        .iter()
                        .filter(|(upto, _, _)| *upto <= rec.done)
                        .map(|&(_, state, outcome)| (state, outcome))
                        .collect()
                })
                .unwrap_or_default()
        } else {
            Vec::new()
        };
        Some(RestoredSlab {
            done: rec.done,
            total,
            stats: rec.stats,
            violations: rec.violations.clone(),
            regions: rec.regions.clone(),
            memo,
        })
    }

    fn has_records(&self, run_key: u64) -> bool {
        let s = lock_unpoisoned(&self.state);
        s.slabs.contains_key(&run_key) || s.states.contains_key(&run_key)
    }

    fn append_applied(&self, line: &MemoLine) {
        let mut s = lock_unpoisoned(&self.state);
        self.log.append(&encode_memo_line(line));
        s.apply(line);
    }
}

// ---------------------------------------------------------------------------
// The writer
// ---------------------------------------------------------------------------

/// Persists one slab's progress as it explores: an [`ExploreObserver`]
/// that flushes memo-state lines plus a cumulative slab record every
/// [`FLUSH_WINDOWS`] windows (entries first, then the slab record whose
/// `done` covers them — so a kill between the two leaves only orphaned
/// entries with `upto` past the last `done`, which restore filters out).
pub(crate) struct SlabWriter<'a> {
    store: &'a MemoStore,
    fps: &'a ProgramFingerprints,
    run_key: u64,
    start: u64,
    end: u64,
    golden: u64,
    /// Index into `fresh_memo` of the first unflushed entry.
    flushed: usize,
    /// `windows_done` at the last flush.
    last_flush: u64,
}

impl<'a> SlabWriter<'a> {
    /// A writer for the slab `start..end` of the pair fingerprinted by
    /// `fps`. `resumed_done` is the restored prefix length (0 for a
    /// from-scratch run); starting from scratch while the store still
    /// holds records for this key — an invalidated restore, or a retry
    /// after a partial flush — first drops them, so stale entries can
    /// never mix with the fresh run's.
    pub(crate) fn new(
        store: &'a MemoStore,
        fps: &'a ProgramFingerprints,
        run_key: u64,
        start: u64,
        end: u64,
        golden: u64,
        resumed_done: u64,
    ) -> SlabWriter<'a> {
        if resumed_done == 0 && store.has_records(run_key) {
            store.append_applied(&MemoLine::Drop { run_key });
        }
        SlabWriter {
            store,
            fps,
            run_key,
            start,
            end,
            golden,
            flushed: 0,
            last_flush: resumed_done,
        }
    }

    fn flush(
        &mut self,
        done: u64,
        stats: &CheckStats,
        violations: &[Violation],
        regions: &BTreeSet<u32>,
        fresh_memo: &[(u64, Outcome)],
    ) {
        // `finish` passes an empty slice with `flushed` still at the last
        // mid-slab boundary; saturate instead of indexing past the end.
        for &(state, outcome) in fresh_memo.get(self.flushed..).unwrap_or_default() {
            self.store.append_applied(&MemoLine::State {
                run_key: self.run_key,
                upto: done,
                state,
                outcome,
            });
        }
        let rec = SlabRecord {
            start: self.start,
            end: self.end,
            done,
            golden: self.golden,
            program_fp: self.fps.program,
            // 0 is never a valid digest output's guarantee — but an
            // unknown-region fallback only makes restore *refuse*, which
            // is the conservative direction.
            rfp: self
                .fps
                .region_set_digest(regions.iter().copied())
                .unwrap_or(0),
            regions: regions.clone(),
            stats: *stats,
            violations: violations
                .iter()
                .map(|v| JournaledViolation {
                    window: v.window,
                    schedule: v.schedule.clone(),
                    outcome: v.outcome,
                })
                .collect(),
        };
        self.store.append_applied(&MemoLine::Slab {
            run_key: self.run_key,
            rec,
        });
        self.flushed = fresh_memo.len();
        self.last_flush = done;
    }

    /// Seals the slab: writes the final record with `done = total`. State
    /// lines are not flushed here — a complete slab never preloads memo
    /// entries, so its trailing entries would be dead weight.
    pub(crate) fn finish(&mut self, outcome: &SlabOutcome) {
        let total = self.end.saturating_sub(self.start);
        self.flush(
            total,
            &outcome.stats,
            &outcome.violations,
            &outcome.regions,
            &[],
        );
    }
}

impl ExploreObserver for SlabWriter<'_> {
    fn window_done(&mut self, p: SlabProgress<'_>) {
        if p.windows_done >= self.last_flush + FLUSH_WINDOWS {
            self.flush(
                p.windows_done,
                p.stats,
                p.violations,
                p.regions,
                p.fresh_memo,
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Prune classifier
// ---------------------------------------------------------------------------

/// Classifies a memo log for [`gecko_store::LogCompactor`], marking
/// [`Verdict::Delete`] only on lines whose removal is invisible to
/// `MemoStore::restore` — and stays invisible if *any subset* of the
/// marked lines is removed (the compactor rewrites sealed segments only,
/// so marked lines in the active tail survive every prune):
///
/// * unparseable garbage and structurally broken records of our
///   vocabulary (no decoder sees them);
/// * records wiped by a later meta announcing a different fingerprint
///   (metas themselves are always kept — they *are* the clearing
///   structure — so the wipe happens with or without the wiped lines);
/// * slab records superseded by a later decodable record for the same
///   run key, and records killed by a later `memo_drop` of their key;
/// * state entries that can never be preloaded: their key's effective
///   slab is absent or complete, or their `upto` outruns its `done`
///   (orphans of a torn flush);
/// * drops with nothing before them to drop, and drops whose effect a
///   later meta-wipe reproduces.
///
/// Lines in a foreign vocabulary — and our-kind records carrying unknown
/// tags (a newer writer's data) — are kept.
pub fn classify_memo_lines(lines: &[String]) -> Vec<Verdict> {
    enum Parsed {
        Garbage,
        Foreign,
        Malformed,
        /// Our kind, unknown tags: forward-compatible data. The run key
        /// still parses on slab/state lines and blocks drop deletion.
        ForwardCompat {
            run_key: Option<u64>,
        },
        Line(MemoLine),
    }
    let parsed: Vec<Parsed> = lines
        .iter()
        .map(|line| {
            let Some(rec) = Json::parse_flat(line) else {
                return Parsed::Garbage;
            };
            match decode_memo_line(&rec) {
                None => Parsed::Foreign,
                Some(Ok(memo_line)) => Parsed::Line(memo_line),
                Some(Err(ChunkLineError::Malformed { .. })) => Parsed::Malformed,
                Some(Err(ChunkLineError::UnknownTag { .. })) => Parsed::ForwardCompat {
                    run_key: rec.get("run_key").and_then(Json::as_u64),
                },
            }
        })
        .collect();

    // The wipe structure: metas are never deleted, so which meta clears
    // is fixed — everything before the last clearing meta is dead.
    let mut last_wipe: Option<usize> = None;
    {
        let mut saw_meta = false;
        let mut fp = None;
        for (i, p) in parsed.iter().enumerate() {
            if let Parsed::Line(MemoLine::Meta { fingerprint, .. }) = p {
                if !saw_meta || fp != Some(*fingerprint) {
                    last_wipe = Some(i);
                }
                saw_meta = true;
                fp = Some(*fingerprint);
            }
        }
    }
    let wiped = |i: usize| last_wipe.is_some_and(|w| i < w);

    // Last drop position per key, and whether any slab/state line (ours
    // or forward-compatible) precedes each drop.
    let mut last_drop: HashMap<u64, usize> = HashMap::new();
    for (i, p) in parsed.iter().enumerate() {
        if let Parsed::Line(MemoLine::Drop { run_key }) = p {
            last_drop.insert(*run_key, i);
        }
    }
    let dropped = |key: u64, i: usize| last_drop.get(&key).is_some_and(|&d| i < d);

    // Effective slab per key: the last decodable, un-wiped, un-dropped
    // record.
    let mut effective_slab: HashMap<u64, (usize, u64, u64)> = HashMap::new(); // key → (idx, done, total)
    for (i, p) in parsed.iter().enumerate() {
        if let Parsed::Line(MemoLine::Slab { run_key, rec }) = p {
            if !wiped(i) && !dropped(*run_key, i) {
                effective_slab.insert(*run_key, (i, rec.done, rec.end.saturating_sub(rec.start)));
            }
        }
    }

    let mut verdicts = vec![Verdict::Keep; lines.len()];
    let mut seen_keys: BTreeSet<u64> = BTreeSet::new();
    for (i, p) in parsed.iter().enumerate() {
        match p {
            Parsed::Garbage | Parsed::Malformed => verdicts[i] = Verdict::Delete,
            Parsed::Foreign => {}
            Parsed::ForwardCompat { run_key } => {
                if let Some(key) = run_key {
                    seen_keys.insert(*key);
                }
            }
            Parsed::Line(MemoLine::Meta { .. }) => {}
            Parsed::Line(MemoLine::Slab { run_key, .. }) => {
                seen_keys.insert(*run_key);
                let is_effective = effective_slab
                    .get(run_key)
                    .is_some_and(|&(at, _, _)| at == i);
                if !is_effective {
                    verdicts[i] = Verdict::Delete;
                }
            }
            Parsed::Line(MemoLine::State { run_key, upto, .. }) => {
                seen_keys.insert(*run_key);
                let dead = wiped(i)
                    || dropped(*run_key, i)
                    || match effective_slab.get(run_key) {
                        None => true,
                        Some(&(_, done, total)) => done >= total || *upto > done,
                    };
                if dead {
                    verdicts[i] = Verdict::Delete;
                }
            }
            Parsed::Line(MemoLine::Drop { run_key }) => {
                if !seen_keys.contains(run_key) || wiped(i) {
                    verdicts[i] = Verdict::Delete;
                }
            }
        }
    }
    verdicts
}

/// Decodes one raw line of the store's vocabulary (test access to the
/// parse + decode pair [`MemoStore::open`] runs per line).
#[cfg(test)]
fn decode_memo_text(line: &str) -> Option<Result<MemoLine, ChunkLineError>> {
    decode_memo_line(&Json::parse_flat(line)?)
}

#[cfg(test)]
mod golden;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verdict::{InjectionKind, PlannedInjection};
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

    fn state_line(run_key: u64, upto: u64, state: u64) -> String {
        encode_memo_line(&MemoLine::State {
            run_key,
            upto,
            state,
            outcome: Outcome::Clean,
        })
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
        let store = store_from_lines(
            &dir,
            &[
                meta_line(7, 1),
                state_line(42, 16, 0xDEAD),
                state_line(42, 48, 0xBEEF), // orphan: past the slab's done
                slab_line(&fps, 42, 32, 64),
            ],
        );
        assert_eq!(store.generation(), 1);
        let restored = store.restore(42, 100, &fps).expect("valid slab");
        assert_eq!((restored.done, restored.total), (32, 64));
        assert_eq!(restored.stats, sample_stats(32));
        assert_eq!(restored.violations.len(), 1);
        assert_eq!(restored.memo, vec![(0xDEAD, Outcome::Clean)]);

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
        let mut writer = SlabWriter::new(&store, &fps, 9, 0, 4, 100, 0);
        writer.finish(&SlabOutcome {
            stats: sample_stats(4),
            violations: Vec::new(),
            regions: BTreeSet::new(),
        });
        assert!(store.restore(9, 100, &fps).is_some());

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
    fn from_scratch_writer_drops_stale_records() {
        let dir = scratch("drop");
        let fps = fake_fps();
        let store = store_from_lines(
            &dir,
            &[
                meta_line(7, 1),
                state_line(5, 16, 0xAAAA),
                slab_line(&fps, 5, 16, 64),
            ],
        );
        assert!(store.restore(5, 100, &fps).is_some());
        // A retry (or invalidated restore) starts from scratch: the stale
        // partial records must not survive alongside the fresh run's.
        let writer = SlabWriter::new(&store, &fps, 5, 0, 64, 100, 0);
        assert!(store.restore(5, 100, &fps).is_none());
        let _ = writer;
        // And the drop is durable.
        drop(store);
        let store = MemoStore::open(&dir).unwrap();
        assert!(store.restore(5, 100, &fps).is_none());
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
        let lines = vec![
            state_line(1, 8, 0x1), // pre-meta: wiped by the first meta
            meta_line(7, 1),
            slab_line(&fps, 1, 8, 64), // superseded below
            state_line(1, 8, 0x2),
            "garbage, not json".to_string(),
            r#"{"kind":"memo_slab","run_key":"oops"}"#.to_string(), // malformed
            r#"{"kind":"memo_state","run_key":3,"upto":1,"state":9,"outcome":"vaporized"}"#
                .to_string(), // unknown tag: forward-compatible, keep
            r#"{"kind":"other_store","run_key":1}"#.to_string(),    // foreign
            slab_line(&fps, 1, 32, 64),
            state_line(1, 32, 0x3),
            state_line(1, 48, 0x4),     // orphan: upto > done
            slab_line(&fps, 2, 64, 64), // complete
            state_line(2, 32, 0x5),     // dead: its slab is complete
            encode_memo_line(&MemoLine::Drop { run_key: 99 }), // nothing to drop
            meta_line(8, 2),            // different fp: wipes everything above
            slab_line(&fps, 4, 16, 64),
            state_line(4, 16, 0x6),
            encode_memo_line(&MemoLine::Drop { run_key: 4 }),
            slab_line(&fps, 4, 24, 64),
            state_line(4, 24, 0x7),
        ];
        let verdicts = classify_memo_lines(&lines);
        let keys = [1u64, 2, 3, 4, 99];
        let dir_a = scratch("subset-a");
        let baseline = observable(&store_from_lines(&dir_a, &lines), &fps, &keys);

        let deleted: Vec<usize> = (0..lines.len())
            .filter(|&i| verdicts[i] == Verdict::Delete)
            .collect();
        assert!(deleted.len() >= 8, "the fixture exercises deletions");
        // Metas and forward-compatible records are never deleted.
        for (i, line) in lines.iter().enumerate() {
            if line.contains("memo_meta") || line.contains("vaporized") {
                assert_eq!(verdicts[i], Verdict::Keep, "line {i}");
            }
        }

        // Removing each marked line alone — and all of them at once —
        // leaves the restore-observable state bit-identical.
        let mut subsets: Vec<Vec<usize>> = deleted.iter().map(|&i| vec![i]).collect();
        subsets.push(deleted.clone());
        for (si, subset) in subsets.iter().enumerate() {
            let kept: Vec<String> = lines
                .iter()
                .enumerate()
                .filter(|(i, _)| !subset.contains(i))
                .map(|(_, l)| l.clone())
                .collect();
            let dir = scratch(&format!("subset-{si}"));
            let pruned = observable(&store_from_lines(&dir, &kept), &fps, &keys);
            assert_eq!(baseline, pruned, "removing lines {subset:?} changed decode");
        }
    }

    #[test]
    fn mid_slab_flushes_restore_the_exact_boundary() {
        let dir = scratch("flush");
        let fps = fake_fps();
        let store = store_from_lines(&dir, &[meta_line(7, 1)]);
        let mut writer = SlabWriter::new(&store, &fps, 77, 100, 200, 500, 0);
        let stats = sample_stats(40);
        let violations: Vec<Violation> = Vec::new();
        let regions: BTreeSet<u32> = [1].into_iter().collect();
        let fresh: Vec<(u64, Outcome)> = (0..10u64).map(|i| (i, Outcome::Clean)).collect();
        // Below the flush threshold: nothing persisted yet.
        writer.window_done(SlabProgress {
            windows_done: 31,
            stats: &stats,
            violations: &violations,
            regions: &regions,
            fresh_memo: &fresh[..4],
        });
        assert!(store.restore(77, 500, &fps).is_none());
        // Crossing it: entries + slab record land, in that order.
        writer.window_done(SlabProgress {
            windows_done: 32,
            stats: &stats,
            violations: &violations,
            regions: &regions,
            fresh_memo: &fresh[..6],
        });
        let restored = store.restore(77, 500, &fps).expect("flushed");
        assert_eq!((restored.done, restored.total), (32, 100));
        assert_eq!(restored.memo.len(), 6);
        // Finish seals with done = total and no further state lines.
        writer.finish(&SlabOutcome {
            stats: sample_stats(100),
            violations: Vec::new(),
            regions: regions.clone(),
        });
        let full = store.restore(77, 500, &fps).expect("complete");
        assert_eq!((full.done, full.total), (100, 100));
        assert!(full.memo.is_empty(), "complete slabs preload nothing");
    }
}
