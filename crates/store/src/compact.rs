//! [`LogCompactor`]: the generic [`Segment`] that rewrites a
//! [`SegmentedLog`]'s sealed segments, keeping only the lines a
//! caller-supplied classifier marks live.
//!
//! The classifier sees the *whole* log (every segment, append order) and
//! returns one [`Verdict`] per line — that is where vocabulary-specific
//! rules live. For the run and chunk journals the classifier *is* the
//! resume decoder: its pass reports which lines it threw away (a torn
//! line it skipped, a record a later duplicate superseded, the bucket
//! lines of a run that restored nothing), so compaction deletes exactly
//! what resume ignores. The compactor contributes the mechanics:
//!
//! * Only **sealed** segments are rewritten; the active tail (and any
//!   concurrent appends landing in it) is never touched.
//! * Deletion is budgeted: at most `delete_limit` lines per call, and the
//!   checkpoint does not advance past a segment until it is fully clean —
//!   which is why a `delete_limit` of 1 converges to the same final
//!   layout as an unlimited prune.
//! * The checkpoint is monotone: once `next_segment` passes a segment,
//!   that segment is never revisited. A record superseded *after* its
//!   segment was compacted therefore survives on disk; decoders already
//!   resolve duplicates (later wins), so this costs bytes, not
//!   correctness.
//! * Rewrites go through [`SegmentedLog::replace_segment`] (tmp +
//!   `sync_all` + atomic rename), so a kill at any byte leaves either the
//!   old or the new segment — and re-running the same prune afterwards is
//!   a no-op-or-equivalent either way.

use std::sync::Arc;

use crate::log::SegmentedLog;
use crate::pruner::{PruneInput, PruneOutput, Segment, StoreError};

/// A classifier's decision for one log line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The line is live: a decoder may need it. Never deleted.
    Keep,
    /// The line is dead: superseded, malformed, or otherwise invisible to
    /// the owning decoder. Eligible for deletion.
    Delete,
}

/// A whole-log classifier: every line in append order in, one [`Verdict`]
/// per line out.
pub type Classifier = Box<dyn Fn(&[String]) -> Vec<Verdict> + Send + Sync>;

/// A [`Segment`] that compacts one [`SegmentedLog`] under a classifier.
pub struct LogCompactor {
    kind: String,
    log: Arc<SegmentedLog>,
    classify: Classifier,
}

impl LogCompactor {
    /// Builds a compactor for `log`. `classify` receives every line of
    /// the log in append order and must return exactly one verdict per
    /// line; it is called afresh each prune (the log may have grown).
    pub fn new(
        kind: impl Into<String>,
        log: Arc<SegmentedLog>,
        classify: impl Fn(&[String]) -> Vec<Verdict> + Send + Sync + 'static,
    ) -> LogCompactor {
        LogCompactor {
            kind: kind.into(),
            log,
            classify: Box::new(classify),
        }
    }
}

impl Segment for LogCompactor {
    fn kind(&self) -> &str {
        &self.kind
    }

    fn prune(&self, input: PruneInput) -> Result<PruneOutput, StoreError> {
        let mut cp = input.checkpoint.unwrap_or_default();
        let mut budget = input.delete_limit;
        let by_segment = self.log.segment_lines();
        let all: Vec<String> = by_segment
            .iter()
            .flat_map(|s| s.lines.iter().cloned())
            .collect();
        let verdicts = (self.classify)(&all);
        if verdicts.len() != all.len() {
            return Err(StoreError::Corrupt(format!(
                "classifier for {:?} returned {} verdicts for {} lines",
                self.kind,
                verdicts.len(),
                all.len()
            )));
        }

        let mut pruned = 0usize;
        let mut reclaimed = 0u64;
        let mut done = true;
        let mut offset = 0usize;
        for seg in &by_segment {
            let seg_verdicts = &verdicts[offset..offset + seg.lines.len()];
            offset += seg.lines.len();
            if !seg.sealed || seg.seq < cp.next_segment {
                continue;
            }
            let deletable = seg_verdicts
                .iter()
                .filter(|v| **v == Verdict::Delete)
                .count();
            if deletable == 0 {
                cp.next_segment = seg.seq + 1;
                continue;
            }
            if budget == 0 {
                done = false;
                break;
            }
            // Delete the first `budget` dead lines; keep the rest (alive
            // *and* dead-but-over-budget — the checkpoint stays on this
            // segment until it is fully clean).
            let take = deletable.min(budget);
            let mut killed = 0usize;
            let mut kept = Vec::with_capacity(seg.lines.len() - take);
            for (line, verdict) in seg.lines.iter().zip(seg_verdicts) {
                if *verdict == Verdict::Delete && killed < take {
                    killed += 1;
                    reclaimed += line.len() as u64 + 1;
                } else {
                    kept.push(line.clone());
                }
            }
            self.log.replace_segment(seg.seq, &kept)?;
            pruned += take;
            budget -= take;
            if take == deletable {
                cp.next_segment = seg.seq + 1;
            } else {
                done = false;
                break;
            }
        }
        cp.pruned_entries += pruned as u64;
        cp.reclaimed_bytes += reclaimed;
        Ok(PruneOutput {
            pruned,
            reclaimed_bytes: reclaimed,
            done,
            checkpoint: cp,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::LogConfig;
    use crate::pruner::Pruner;

    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("gecko-store-compact-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

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

    /// The decoded view: last value per key, in the order keys appear.
    fn decode(lines: &[String]) -> Vec<(String, String)> {
        let mut out: Vec<(String, String)> = Vec::new();
        for line in lines {
            if line.starts_with('!') {
                continue;
            }
            let (k, v) = line.split_once('=').unwrap();
            match out.iter_mut().find(|(key, _)| key == k) {
                Some((_, value)) => *value = v.to_string(),
                None => out.push((k.to_string(), v.to_string())),
            }
        }
        out
    }

    #[test]
    fn compaction_preserves_the_decoded_view() {
        let dir = scratch("decode");
        let log = Arc::new(
            SegmentedLog::open(
                &dir.join("log"),
                LogConfig {
                    max_segment_bytes: 24,
                },
            )
            .unwrap(),
        );
        fill(&log);
        let before = decode(&log.lines());
        let bytes_before = log.total_bytes();

        let mut pruner = Pruner::open(&dir.join("prune.json"), 0).unwrap();
        pruner.add(LogCompactor::new("toy", Arc::clone(&log), classify_toy));
        let t = pruner.tick().unwrap();
        assert!(t.done);
        assert!(t.pruned > 0);
        assert_eq!(decode(&log.lines()), before, "pruning must be invisible");
        assert!(log.total_bytes() < bytes_before);
        assert_eq!(t.reclaimed_bytes, bytes_before - log.total_bytes());

        // Idempotent: everything still-prunable sits in the tail, which
        // the compactor never touches.
        let again = pruner.tick().unwrap();
        assert_eq!(again.pruned, 0);
        assert!(again.done);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn delete_limit_one_converges_to_the_unlimited_layout() {
        let dir_a = scratch("limit1");
        let dir_b = scratch("limitmax");
        let cfg = LogConfig {
            max_segment_bytes: 24,
        };
        let log_a = Arc::new(SegmentedLog::open(&dir_a.join("log"), cfg).unwrap());
        let log_b = Arc::new(SegmentedLog::open(&dir_b.join("log"), cfg).unwrap());
        fill(&log_a);
        fill(&log_b);

        let mut drip = Pruner::open(&dir_a.join("prune.json"), 1).unwrap();
        drip.add(LogCompactor::new("toy", Arc::clone(&log_a), classify_toy));
        let mut ticks = 0;
        while !drip.tick().unwrap().done {
            ticks += 1;
            assert!(ticks < 10_000, "budgeted pruning must converge");
        }

        let mut flood = Pruner::open(&dir_b.join("prune.json"), 0).unwrap();
        flood.add(LogCompactor::new("toy", Arc::clone(&log_b), classify_toy));
        assert!(flood.tick().unwrap().done);

        let layout = |log: &SegmentedLog| -> Vec<(u64, Vec<String>)> {
            log.segment_lines()
                .into_iter()
                .map(|s| (s.seq, s.lines))
                .collect()
        };
        assert_eq!(layout(&log_a), layout(&log_b));
        std::fs::remove_dir_all(&dir_a).unwrap();
        std::fs::remove_dir_all(&dir_b).unwrap();
    }

    #[test]
    fn kill_between_rewrite_and_checkpoint_is_harmless() {
        let dir = scratch("kill");
        let cfg = LogConfig {
            max_segment_bytes: 24,
        };
        let log = Arc::new(SegmentedLog::open(&dir.join("log"), cfg).unwrap());
        fill(&log);
        let before = decode(&log.lines());

        // Prune with budget 3, but "crash" before the checkpoint save by
        // simply discarding the pruner (its checkpoint file never saw the
        // last update because we clone a stale copy first).
        let mut p1 = Pruner::open(&dir.join("prune.json"), 3).unwrap();
        p1.add(LogCompactor::new("toy", Arc::clone(&log), classify_toy));
        let _ = p1.tick().unwrap();
        // Roll the checkpoint file back to "nothing saved": the segment
        // rewrites are on disk but the cursor is gone — the exact state a
        // kill between rename and save leaves behind.
        std::fs::remove_file(dir.join("prune.json")).unwrap();

        let mut p2 = Pruner::open(&dir.join("prune.json"), 0).unwrap();
        p2.add(LogCompactor::new("toy", Arc::clone(&log), classify_toy));
        let t = p2.tick().unwrap();
        assert!(t.done);
        assert_eq!(decode(&log.lines()), before, "replayed prune is invisible");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
