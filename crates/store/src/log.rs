//! [`SegmentedLog`]: an append-only JSON-lines log split into sealed
//! segments plus one active tail, with crash-safe sealing and rewrite.
//!
//! On-disk layout, inside the log's directory:
//!
//! ```text
//! seg-000000.jsonl   sealed (full) segment — only rewritten atomically
//! seg-000001.jsonl   sealed segment
//! seg-000002.jsonl   active tail — append-only, torn tail repaired on open
//! ```
//!
//! Durability rules, in order of appearance in a segment's life:
//!
//! * Appends go to the active tail, `flush`ed per line (a kill loses at
//!   most the line being written — the classic torn tail).
//! * When the tail crosses [`LogConfig::max_segment_bytes`] it is
//!   *sealed*: flushed, `sync_all`ed, and a fresh tail is opened. From
//!   then on the segment's bytes are stable on disk.
//! * On open, a non-`\n`-terminated active tail is truncated back to the
//!   last complete line and the repair is counted in
//!   [`SegmentedLog::torn_tails`] — a half-written record never reaches a
//!   reader.
//! * Sealed segments are only ever rewritten by
//!   [`SegmentedLog::compact`]: write `.tmp`, `sync_all`, atomic rename
//!   over the original (plus a best-effort directory sync).
//!   Stale `.tmp` files from a kill mid-rewrite are removed on open.

use std::io::{Read as _, Seek as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::compact::{Compaction, StoreError, Verdict};

/// Tuning for a [`SegmentedLog`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogConfig {
    /// Seal the active tail once it reaches this many bytes. Small values
    /// make pruning finer-grained (and tests fast); the default favors
    /// few files.
    pub max_segment_bytes: u64,
}

impl Default for LogConfig {
    fn default() -> LogConfig {
        LogConfig {
            max_segment_bytes: 256 * 1024,
        }
    }
}

/// One segment as seen by [`SegmentedLog::segments`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentInfo {
    /// Monotone sequence number (names the file, `seg-<seq>.jsonl`).
    pub seq: u64,
    /// Current size in bytes.
    pub bytes: u64,
    /// Sealed segments are immutable except through
    /// [`SegmentedLog::compact`]; the unsealed tail takes appends.
    pub sealed: bool,
}

/// The lines of one segment, for classifiers and compaction.
#[derive(Debug, Clone)]
pub struct SegmentLines {
    /// Sequence number.
    pub seq: u64,
    /// Whether the segment is sealed (only sealed segments may be
    /// rewritten).
    pub sealed: bool,
    /// The segment's complete lines, in append order.
    pub lines: Vec<String>,
}

struct LogState {
    sealed: Vec<(u64, u64)>, // (seq, bytes), ascending by seq
    active_seq: u64,
    active_bytes: u64,
    writer: std::io::BufWriter<std::fs::File>,
}

/// A segmented append-only line log. Cheap to share behind an `Arc`;
/// appends and rewrites are serialized by an internal lock, and appends
/// never panic — I/O failures degrade to a drop counter, like every other
/// sink in the workspace.
pub struct SegmentedLog {
    dir: PathBuf,
    cfg: LogConfig,
    state: Mutex<LogState>,
    dropped: AtomicU64,
    torn_tails: AtomicU64,
}

fn seg_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("seg-{seq:06}.jsonl"))
}

fn open_tail(path: &Path) -> std::io::Result<(std::io::BufWriter<std::fs::File>, u64)> {
    let file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    let bytes = file.metadata()?.len();
    Ok((std::io::BufWriter::new(file), bytes))
}

/// Truncates `path` back to its last `\n` (or to empty), so a line torn
/// by a kill mid-append never reaches a reader. Returns `true` if a torn
/// tail was actually repaired.
fn repair_torn_tail(path: &Path) -> std::io::Result<bool> {
    let mut file = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .open(path)?;
    let len = file.metadata()?.len();
    if len == 0 {
        return Ok(false);
    }
    // Read backwards in one gulp — segments are bounded by the seal size,
    // so this is at most one segment of I/O, and only on open.
    let mut buf = Vec::with_capacity(len as usize);
    file.read_to_end(&mut buf)?;
    if buf.last() == Some(&b'\n') {
        return Ok(false);
    }
    let keep = buf.iter().rposition(|&b| b == b'\n').map_or(0, |p| p + 1);
    file.set_len(keep as u64)?;
    file.seek(std::io::SeekFrom::End(0))?;
    file.sync_all()?;
    Ok(true)
}

impl SegmentedLog {
    /// Opens (creating if needed) a segmented log in `dir`: removes stale
    /// `.tmp` files from a killed rewrite, repairs the active tail's torn
    /// final line, and resumes appending.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation and file-open errors.
    pub fn open(dir: &Path, cfg: LogConfig) -> std::io::Result<SegmentedLog> {
        std::fs::create_dir_all(dir)?;
        let mut seqs: Vec<(u64, u64)> = Vec::new();
        for entry in std::fs::read_dir(dir)?.flatten() {
            let name = match entry.file_name().into_string() {
                Ok(n) => n,
                Err(_) => continue,
            };
            if name.ends_with(".tmp") {
                // A rewrite died before its rename; the original segment
                // is still intact, so the tmp is garbage.
                let _ = std::fs::remove_file(entry.path());
                continue;
            }
            if let Some(seq) = name
                .strip_prefix("seg-")
                .and_then(|s| s.strip_suffix(".jsonl"))
                .and_then(|s| s.parse::<u64>().ok())
            {
                seqs.push((seq, entry.metadata().map(|m| m.len()).unwrap_or(0)));
            }
        }
        seqs.sort_unstable();
        let active_seq = seqs.last().map_or(0, |(seq, _)| *seq);
        let torn_tails = AtomicU64::new(0);
        let active_path = seg_path(dir, active_seq);
        if active_path.exists() && repair_torn_tail(&active_path)? {
            torn_tails.fetch_add(1, Ordering::Relaxed);
        }
        let (writer, active_bytes) = open_tail(&active_path)?;
        seqs.retain(|(seq, _)| *seq != active_seq);
        Ok(SegmentedLog {
            dir: dir.to_path_buf(),
            cfg,
            state: Mutex::new(LogState {
                sealed: seqs,
                active_seq,
                active_bytes,
                writer,
            }),
            dropped: AtomicU64::new(0),
            torn_tails,
        })
    }

    /// The log's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, LogState> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Appends one line (the newline is added here), sealing the active
    /// tail if it crosses the configured size. Never panics: I/O failures
    /// drop the line and count it.
    pub fn append(&self, line: &str) {
        let mut s = self.lock();
        let ok = writeln!(s.writer, "{line}").is_ok() && s.writer.flush().is_ok();
        if !ok {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        s.active_bytes += line.len() as u64 + 1;
        if s.active_bytes >= self.cfg.max_segment_bytes && self.seal_locked(&mut s).is_err() {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Seals the active tail now (flush + `sync_all` + fresh tail), even
    /// if it is below the size threshold. A no-op on an empty tail.
    ///
    /// # Errors
    ///
    /// Propagates flush/sync/open errors (the log stays usable).
    pub fn seal(&self) -> std::io::Result<()> {
        let mut s = self.lock();
        if s.active_bytes == 0 {
            return Ok(());
        }
        self.seal_locked(&mut s)
    }

    fn seal_locked(&self, s: &mut LogState) -> std::io::Result<()> {
        s.writer.flush()?;
        s.writer.get_ref().sync_all()?;
        let sealed_entry = (s.active_seq, s.active_bytes);
        let next = s.active_seq + 1;
        let (writer, bytes) = open_tail(&seg_path(&self.dir, next))?;
        s.sealed.push(sealed_entry);
        s.active_seq = next;
        s.active_bytes = bytes;
        s.writer = writer;
        Ok(())
    }

    /// Flushes and `sync_all`s the active tail — the checkpoint-boundary
    /// durability hook (sealed segments are already synced).
    ///
    /// # Errors
    ///
    /// Propagates flush/sync errors.
    pub fn sync(&self) -> std::io::Result<()> {
        let mut s = self.lock();
        s.writer.flush()?;
        s.writer.get_ref().sync_all()
    }

    /// Every line in the log, across all segments, in append order.
    pub fn lines(&self) -> Vec<String> {
        self.segment_lines()
            .into_iter()
            .flat_map(|s| s.lines)
            .collect()
    }

    /// Every segment's lines, ascending by sequence number (the active
    /// tail last). Unreadable files read as empty rather than failing —
    /// the reader's contract is "whatever is durable".
    pub fn segment_lines(&self) -> Vec<SegmentLines> {
        let mut s = self.lock();
        self.read_locked(&mut s)
    }

    fn read_locked(&self, s: &mut LogState) -> Vec<SegmentLines> {
        let _ = s.writer.flush();
        let read = |seq: u64, sealed: bool| SegmentLines {
            seq,
            sealed,
            lines: std::fs::read_to_string(seg_path(&self.dir, seq))
                .map(|text| text.lines().map(str::to_string).collect())
                .unwrap_or_default(),
        };
        let mut out: Vec<SegmentLines> = s.sealed.iter().map(|(seq, _)| read(*seq, true)).collect();
        out.push(read(s.active_seq, false));
        out
    }

    /// The log's last line, read from one segment: the active tail, or
    /// the newest sealed segment when the tail is empty (sealed segments
    /// never are). `None` for an empty log or an unreadable segment.
    pub fn last_line(&self) -> Option<String> {
        let mut s = self.lock();
        let _ = s.writer.flush();
        let seq = match s.active_bytes {
            0 => s.sealed.last()?.0,
            _ => s.active_seq,
        };
        let mut text = std::fs::read_to_string(seg_path(&self.dir, seq)).ok()?;
        text.truncate(text.trim_end_matches('\n').len());
        text.drain(..text.rfind('\n').map_or(0, |i| i + 1));
        (!text.is_empty()).then_some(text)
    }

    /// Current segments, ascending by sequence number (active tail last).
    pub fn segments(&self) -> Vec<SegmentInfo> {
        let s = self.lock();
        let mut out: Vec<SegmentInfo> = s
            .sealed
            .iter()
            .map(|(seq, bytes)| SegmentInfo {
                seq: *seq,
                bytes: *bytes,
                sealed: true,
            })
            .collect();
        out.push(SegmentInfo {
            seq: s.active_seq,
            bytes: s.active_bytes,
            sealed: false,
        });
        out
    }

    /// Total bytes across all segments.
    pub fn total_bytes(&self) -> u64 {
        self.segments().iter().map(|s| s.bytes).sum()
    }

    /// Compacts the log in one stateless call: `classify` sees every
    /// line in append order and returns one [`Verdict`] per line, and the
    /// first `delete_limit` `Delete` lines of the *sealed* segments, in log
    /// order, are removed (`delete_limit` 0 means no limit). The active
    /// tail is never touched. Each segment that loses lines is rewritten
    /// through a tmp file, `sync_all` and an atomic rename, in log order,
    /// so a kill at any point leaves a prefix of the `Delete` lines
    /// removed; a segment left empty is unlinked.
    ///
    /// The log's lock is held throughout, so appends wait and the lines
    /// rewritten are exactly the lines classified; `classify` must not
    /// call back into this log.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] when `classify` returns a verdict count
    /// other than the line count (nothing is rewritten then);
    /// [`StoreError::Io`] from a rewrite, with every segment before it
    /// already compacted and it and every later one intact.
    pub fn compact(
        &self,
        classify: impl FnOnce(&[String]) -> Vec<Verdict>,
        delete_limit: usize,
    ) -> Result<Compaction, StoreError> {
        let mut s = self.lock();
        let segments = self.read_locked(&mut s);
        let all: Vec<String> = segments.iter().flat_map(|seg| seg.lines.clone()).collect();
        let verdicts = classify(&all);
        if verdicts.len() != all.len() {
            return Err(StoreError::Corrupt(format!(
                "classifier returned {} verdicts for {} lines",
                verdicts.len(),
                all.len()
            )));
        }
        let mut budget = if delete_limit == 0 {
            usize::MAX
        } else {
            delete_limit
        };
        let mut out = Compaction {
            done: true,
            ..Compaction::default()
        };
        let mut verdicts = verdicts.into_iter();
        for seg in segments.into_iter().filter(|seg| seg.sealed) {
            let before = seg.lines.len();
            let mut kept = Vec::with_capacity(before);
            for (line, verdict) in seg.lines.into_iter().zip(verdicts.by_ref()) {
                if verdict == Verdict::Delete {
                    if budget > 0 {
                        budget -= 1;
                        out.reclaimed_bytes += line.len() as u64 + 1;
                        continue;
                    }
                    out.done = false;
                }
                kept.push(line);
            }
            if kept.len() < before {
                self.rewrite_locked(&mut s, seg.seq, &kept)?;
                out.pruned += before - kept.len();
            }
        }
        Ok(out)
    }

    /// Atomically replaces sealed segment `seq` with `lines` (tmp file,
    /// `sync_all`, rename; empty `lines` removes the segment file). On
    /// any error the original segment is intact.
    fn rewrite_locked(&self, s: &mut LogState, seq: u64, lines: &[String]) -> std::io::Result<()> {
        let slot = s
            .sealed
            .iter()
            .position(|(q, _)| *q == seq)
            .expect("only sealed segments are rewritten");
        let path = seg_path(&self.dir, seq);
        if lines.is_empty() {
            std::fs::remove_file(&path)?;
            s.sealed.remove(slot);
        } else {
            let tmp = path.with_extension("jsonl.tmp");
            let mut file = std::fs::File::create(&tmp)?;
            let mut bytes = 0u64;
            for line in lines {
                writeln!(file, "{line}")?;
                bytes += line.len() as u64 + 1;
            }
            file.sync_all()?;
            std::fs::rename(&tmp, &path)?;
            s.sealed[slot].1 = bytes;
        }
        // Make the rename/unlink itself durable. Best-effort: some
        // platforms refuse to open a directory for writing.
        if let Ok(d) = std::fs::File::open(&self.dir) {
            let _ = d.sync_all();
        }
        Ok(())
    }

    /// Lines dropped because of I/O failures.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Torn final lines truncated away on open (a kill mid-append).
    pub fn torn_tails(&self) -> u64 {
        self.torn_tails.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for SegmentedLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.lock();
        write!(
            f,
            "SegmentedLog({}, {} sealed + tail seg-{:06})",
            self.dir.display(),
            s.sealed.len(),
            s.active_seq
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("gecko-store-log-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn appends_roll_over_into_sealed_segments_and_survive_reopen() {
        let dir = scratch("roll");
        let cfg = LogConfig {
            max_segment_bytes: 32,
        };
        let log = SegmentedLog::open(&dir, cfg).unwrap();
        for i in 0..10 {
            log.append(&format!("{{\"i\":{i}}}"));
        }
        let segs = log.segments();
        assert!(segs.len() > 1, "{segs:?}");
        assert!(segs[..segs.len() - 1].iter().all(|s| s.sealed));
        assert!(!segs.last().unwrap().sealed);
        assert_eq!(log.lines().len(), 10);
        drop(log);

        let reopened = SegmentedLog::open(&dir, cfg).unwrap();
        assert_eq!(reopened.lines().len(), 10, "reopen sees every line");
        assert_eq!(reopened.torn_tails(), 0);
        reopened.append("{\"i\":10}");
        assert_eq!(reopened.lines().len(), 11);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_and_counted_on_open() {
        let dir = scratch("torn");
        let cfg = LogConfig::default();
        let log = SegmentedLog::open(&dir, cfg).unwrap();
        log.append("{\"whole\":1}");
        log.append("{\"whole\":2}");
        let tail = seg_path(&dir, 0);
        drop(log);
        // Kill mid-append: the last line lost its newline and half its
        // bytes.
        let mut bytes = std::fs::read(&tail).unwrap();
        bytes.truncate(bytes.len() - 5);
        std::fs::write(&tail, &bytes).unwrap();

        let log = SegmentedLog::open(&dir, cfg).unwrap();
        assert_eq!(log.torn_tails(), 1);
        assert_eq!(log.lines(), vec!["{\"whole\":1}".to_string()]);
        // And appending after the repair produces clean lines, not a
        // glued-together hybrid.
        log.append("{\"whole\":3}");
        assert_eq!(log.lines().len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rewrites_are_atomic_and_stale_tmps_are_cleaned() {
        let dir = scratch("replace");
        let cfg = LogConfig {
            max_segment_bytes: 24,
        };
        let log = SegmentedLog::open(&dir, cfg).unwrap();
        for i in 0..8 {
            log.append(&format!("{{\"i\":{i}}}"));
        }
        let first_sealed = log.segments()[0].seq;
        let kept = vec!["{\"kept\":true}".to_string()];
        log.rewrite_locked(&mut log.lock(), first_sealed, &kept)
            .unwrap();
        assert!(log.lines().contains(&kept[0]));
        assert_eq!(log.segments()[0].bytes, kept[0].len() as u64 + 1);

        // A stale tmp from a killed rewrite disappears on reopen and the
        // original segment content still reads back.
        let before = log.lines();
        let tmp = seg_path(&dir, first_sealed).with_extension("jsonl.tmp");
        std::fs::write(&tmp, "junk").unwrap();
        drop(log);
        let log = SegmentedLog::open(&dir, cfg).unwrap();
        assert_eq!(log.lines(), before);
        assert!(!tmp.exists());

        // Rewriting to nothing drops the segment's lines and its file.
        log.rewrite_locked(&mut log.lock(), first_sealed, &[])
            .unwrap();
        assert!(!log.lines().contains(&kept[0]));
        assert!(!seg_path(&dir, first_sealed).exists());
        assert_ne!(log.segments()[0].seq, first_sealed);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn seal_and_sync_are_explicit_durability_hooks() {
        let dir = scratch("seal");
        let log = SegmentedLog::open(&dir, LogConfig::default()).unwrap();
        log.seal().unwrap(); // empty tail: no-op
        assert_eq!(log.segments().len(), 1);
        log.append("{\"a\":1}");
        log.sync().unwrap();
        log.seal().unwrap();
        let segs = log.segments();
        assert_eq!(segs.len(), 2);
        assert!(segs[0].sealed);
        assert_eq!(log.total_bytes(), segs[0].bytes);
        // An empty tail reads the last line from the newest sealed segment.
        assert_eq!(log.last_line().as_deref(), Some("{\"a\":1}"));
        log.append("{\"b\":2}");
        assert_eq!(log.last_line().as_deref(), Some("{\"b\":2}"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
