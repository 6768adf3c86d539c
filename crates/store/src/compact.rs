//! The vocabulary of [`SegmentedLog::compact`]: a classifier's
//! [`Verdict`] per line in, a [`Compaction`] report (or a
//! [`StoreError`]) out.
//!
//! The classifier sees the *whole* log (every segment, append order) and
//! returns one [`Verdict`] per line — that is where vocabulary-specific
//! rules live. For the run and chunk journals the classifier *is* the
//! resume decoder: its pass reports which lines it threw away (a torn
//! line it skipped, a record a later duplicate superseded, the bucket
//! lines of a run that restored nothing), so compaction deletes exactly
//! what resume ignores. The log contributes the mechanics:
//!
//! * Only **sealed** segments are rewritten; the active tail (and any
//!   concurrent appends landing in it) is never touched.
//! * Deletion is budgeted and stateless: one call deletes the first
//!   `delete_limit` `Delete` lines of the sealed segments in log order,
//!   so what it removes is always a prefix of every `Delete` line the
//!   classifier reported. Repeating calls with a `delete_limit` of 1
//!   therefore converges to the layout one unlimited call produces.
//! * Rewrites go through tmp + `sync_all` + atomic rename, segment by
//!   segment in log order, so a kill at any byte leaves each segment
//!   either old or new — and the lines removed so far are still a prefix
//!   of the `Delete` lines, which the next call simply continues.

#[cfg(doc)]
use crate::log::SegmentedLog;

/// A classifier's decision for one log line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The line is live: a decoder may need it. Never deleted.
    Keep,
    /// The line is dead: superseded, malformed, or otherwise invisible to
    /// the owning decoder. Eligible for deletion.
    Delete,
}

/// What one [`SegmentedLog::compact`] call did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Compaction {
    /// Lines (or, for the daemon's job-directory GC, directories)
    /// deleted.
    pub pruned: usize,
    /// Bytes reclaimed.
    pub reclaimed_bytes: u64,
    /// `true` when nothing deletable is left *right now*: the call ran
    /// out of candidates, not out of budget.
    pub done: bool,
}

/// Errors compaction can surface.
#[derive(Debug)]
pub enum StoreError {
    /// An underlying filesystem operation failed.
    Io(std::io::Error),
    /// The classifier returned the wrong number of verdicts.
    Corrupt(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store I/O: {e}"),
            StoreError::Corrupt(m) => write!(f, "store corrupt: {m}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> StoreError {
        StoreError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::{LogConfig, SegmentedLog};

    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("gecko-store-compact-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    const CFG: LogConfig = LogConfig {
        max_segment_bytes: 24,
    };

    /// Toy vocabulary: lines are `key=value`; the last line per key wins,
    /// lines starting with `!` are garbage.
    fn classify_toy(lines: &[String]) -> Vec<Verdict> {
        lines
            .iter()
            .enumerate()
            .map(|(i, line)| {
                if line.starts_with('!') {
                    return Verdict::Delete;
                }
                let key = line.split('=').next().unwrap_or(line);
                let superseded = lines[i + 1..]
                    .iter()
                    .any(|later| later.split('=').next() == Some(key));
                if superseded {
                    Verdict::Delete
                } else {
                    Verdict::Keep
                }
            })
            .collect()
    }

    fn fill(log: &SegmentedLog) {
        for round in 0..6 {
            for key in 0..4 {
                log.append(&format!("k{key}={round}"));
            }
            log.append(&format!("!garbage-{round}"));
        }
    }

    /// The decoded view: the last value per key.
    fn decode(lines: &[String]) -> std::collections::BTreeMap<String, String> {
        lines
            .iter()
            .filter(|line| !line.starts_with('!'))
            .map(|line| {
                let (k, v) = line.split_once('=').unwrap();
                (k.to_string(), v.to_string())
            })
            .collect()
    }

    fn layout(log: &SegmentedLog) -> Vec<(u64, bool, Vec<String>)> {
        log.segment_lines()
            .into_iter()
            .map(|s| (s.seq, s.sealed, s.lines))
            .collect()
    }

    #[test]
    fn compaction_preserves_the_decoded_view() {
        let dir = scratch("decode");
        let log = SegmentedLog::open(&dir, CFG).unwrap();
        fill(&log);
        let before = decode(&log.lines());
        let bytes_before = log.total_bytes();
        let tail_before = layout(&log).pop().unwrap();

        let c = log.compact(classify_toy, 0).unwrap();
        assert!(c.done);
        assert!(c.pruned > 0);
        assert_eq!(decode(&log.lines()), before, "compaction must be invisible");
        assert!(log.total_bytes() < bytes_before);
        assert_eq!(c.reclaimed_bytes, bytes_before - log.total_bytes());
        assert_eq!(layout(&log).pop().unwrap(), tail_before, "tail untouched");

        // Idempotent: everything still deletable sits in the tail, which
        // compaction never touches.
        let again = log.compact(classify_toy, 0).unwrap();
        assert_eq!(
            again,
            Compaction {
                pruned: 0,
                reclaimed_bytes: 0,
                done: true
            }
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn delete_limit_one_converges_to_the_unlimited_layout() {
        let dir_a = scratch("limit1");
        let dir_b = scratch("limitmax");
        let drip = SegmentedLog::open(&dir_a, CFG).unwrap();
        let flood = SegmentedLog::open(&dir_b, CFG).unwrap();
        fill(&drip);
        fill(&flood);

        let mut calls = 0;
        loop {
            let c = drip.compact(classify_toy, 1).unwrap();
            assert!(c.pruned <= 1);
            if c.done {
                break;
            }
            calls += 1;
            assert!(calls < 10_000, "budgeted compaction must converge");
        }
        assert!(calls > 1, "the fixture needs several budgeted calls");
        assert!(flood.compact(classify_toy, 0).unwrap().done);
        assert_eq!(layout(&drip), layout(&flood));
        std::fs::remove_dir_all(&dir_a).unwrap();
        std::fs::remove_dir_all(&dir_b).unwrap();
    }

    #[test]
    fn an_interrupted_compaction_reruns_from_the_disk_alone() {
        let dir = scratch("kill");
        let reference = scratch("kill-ref");
        let log = SegmentedLog::open(&dir, CFG).unwrap();
        fill(&log);
        fill(&SegmentedLog::open(&reference, CFG).unwrap());
        let before = decode(&log.lines());

        // A budget of 3 stops partway — the state a kill between two
        // segment rewrites leaves — and a rewrite killed before its
        // rename leaves a stale tmp beside the segment it was replacing.
        assert!(!log.compact(classify_toy, 3).unwrap().done);
        let victim = log.segments()[0].seq;
        std::fs::write(dir.join(format!("seg-{victim:06}.jsonl.tmp")), "junk").unwrap();
        drop(log);

        // Nothing but the segment files carries over to the rerun.
        let log = SegmentedLog::open(&dir, CFG).unwrap();
        assert_eq!(
            decode(&log.lines()),
            before,
            "partial compaction is invisible"
        );
        assert!(log.compact(classify_toy, 0).unwrap().done);
        assert_eq!(
            decode(&log.lines()),
            before,
            "rerun compaction is invisible"
        );
        let unlimited = SegmentedLog::open(&reference, CFG).unwrap();
        assert!(unlimited.compact(classify_toy, 0).unwrap().done);
        assert_eq!(
            layout(&log),
            layout(&unlimited),
            "rerun lands on one layout"
        );
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&reference).unwrap();
    }

    #[test]
    fn a_wrong_verdict_count_is_an_error_and_changes_nothing() {
        let dir = scratch("count");
        let log = SegmentedLog::open(&dir, CFG).unwrap();
        fill(&log);
        let before = layout(&log);
        match log.compact(|lines| vec![Verdict::Delete; lines.len() - 1], 0) {
            Err(StoreError::Corrupt(m)) => assert!(m.contains("verdicts"), "{m}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        assert_eq!(layout(&log), before);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
