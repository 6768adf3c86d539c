//! The reth-shaped pruning machinery: a [`Segment`] per prunable data
//! kind, driven by a [`Pruner`] that hands each segment a `delete_limit`
//! work budget per tick and persists the returned [`PruneCheckpoint`]s.
//!
//! The lifecycle, per tick and per segment, mirrors the reth pruner:
//!
//! 1. Load the segment's checkpoint — if one exists, prune from the next
//!    entry after the highest pruned one; otherwise prune from the start.
//! 2. Call [`Segment::prune`] with the remaining budget.
//! 3. Persist the returned checkpoint (atomically) if it moved, then
//!    subtract the entries pruned from the next segment's budget.
//!
//! Structural mutations happen *inside* `prune` (tmp + `sync_all` +
//! rename) and the checkpoint is saved *after*, so a kill between the two
//! re-runs an idempotent prune rather than losing data.

use crate::checkpoint::{CheckpointStore, PruneCheckpoint};
use std::path::Path;

/// Errors the pruning machinery can surface.
#[derive(Debug)]
pub enum StoreError {
    /// An underlying filesystem operation failed.
    Io(std::io::Error),
    /// A segment reported an internal inconsistency (e.g. a classifier
    /// returned the wrong number of verdicts).
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

/// What a [`Segment`] is handed for one prune call.
#[derive(Debug, Clone, Copy)]
pub struct PruneInput {
    /// Maximum entries this call may delete. Never zero.
    pub delete_limit: usize,
    /// Where the previous call left off (`None` on the first ever call:
    /// prune from the start).
    pub checkpoint: Option<PruneCheckpoint>,
}

/// What a [`Segment::prune`] call reports back.
#[derive(Debug, Clone, Copy)]
pub struct PruneOutput {
    /// Entries actually deleted (charged against the tick's budget).
    pub pruned: usize,
    /// Bytes reclaimed by this call.
    pub reclaimed_bytes: u64,
    /// `true` when nothing prunable remains *right now* — the segment ran
    /// to its end rather than out of budget.
    pub done: bool,
    /// The checkpoint to persist for the next call.
    pub checkpoint: PruneCheckpoint,
}

/// One prunable data kind (run records, chunk records, telemetry events,
/// finished job directories...). Implementations must be idempotent: a
/// kill after the mutation but before the checkpoint save re-runs the
/// same prune, which must be a no-op-or-equivalent.
pub trait Segment {
    /// Stable identifier — keys the persisted checkpoint.
    fn kind(&self) -> &str;

    /// Prunes up to `input.delete_limit` entries starting from
    /// `input.checkpoint`.
    ///
    /// # Errors
    ///
    /// I/O or consistency errors; the pruner surfaces them and retries on
    /// a later tick.
    fn prune(&self, input: PruneInput) -> Result<PruneOutput, StoreError>;
}

/// What one [`Pruner::tick`] accomplished.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TickReport {
    /// Entries deleted across all segments this tick.
    pub pruned: u64,
    /// Bytes reclaimed across all segments this tick.
    pub reclaimed_bytes: u64,
    /// Every segment reported `done` and the budget was never exhausted —
    /// the store is fully pruned until new data arrives.
    pub done: bool,
}

/// Drives a set of [`Segment`]s under a per-tick `delete_limit` budget,
/// persisting one [`PruneCheckpoint`] per segment kind.
pub struct Pruner {
    segments: Vec<Box<dyn Segment + Send>>,
    checkpoints: CheckpointStore,
    delete_limit: usize,
    ticks: u64,
}

impl Pruner {
    /// Opens a pruner whose checkpoints persist at `checkpoint_path`.
    /// `delete_limit` is the per-tick entry budget (0 means unlimited).
    ///
    /// # Errors
    ///
    /// Propagates checkpoint-file read errors.
    pub fn open(checkpoint_path: &Path, delete_limit: usize) -> std::io::Result<Pruner> {
        Ok(Pruner {
            segments: Vec::new(),
            checkpoints: CheckpointStore::open(checkpoint_path)?,
            delete_limit: if delete_limit == 0 {
                usize::MAX
            } else {
                delete_limit
            },
            ticks: 0,
        })
    }

    /// Registers a segment. Segments are pruned in registration order
    /// each tick, earlier ones getting first claim on the budget.
    pub fn add<S: Segment + Send + 'static>(&mut self, segment: S) {
        self.segments.push(Box::new(segment));
    }

    /// The persisted checkpoints (for stats surfacing).
    pub fn checkpoints(&self) -> &CheckpointStore {
        &self.checkpoints
    }

    /// Ticks run so far on this pruner instance.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Runs one budgeted prune pass over every segment.
    ///
    /// # Errors
    ///
    /// The first segment error aborts the tick (already-persisted
    /// checkpoints stand; the next tick resumes from them).
    pub fn tick(&mut self) -> Result<TickReport, StoreError> {
        self.ticks += 1;
        let mut report = TickReport {
            done: true,
            ..TickReport::default()
        };
        let mut budget = self.delete_limit;
        for segment in &self.segments {
            if budget == 0 {
                report.done = false;
                break;
            }
            let input = PruneInput {
                delete_limit: budget,
                checkpoint: self.checkpoints.get(segment.kind()),
            };
            let out = segment.prune(input)?;
            // An unchanged checkpoint is not rewritten, so an idle tick
            // leaves the disk untouched (no `prune.json` in an empty root).
            if out.checkpoint != input.checkpoint.unwrap_or_default() {
                self.checkpoints.save(segment.kind(), out.checkpoint)?;
            }
            budget = budget.saturating_sub(out.pruned);
            report.pruned += out.pruned as u64;
            report.reclaimed_bytes += out.reclaimed_bytes;
            if !out.done {
                report.done = false;
            }
        }
        Ok(report)
    }
}

impl std::fmt::Debug for Pruner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Pruner({} segments, delete_limit {}, {} ticks)",
            self.segments.len(),
            self.delete_limit,
            self.ticks
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// A fake segment with `total` prunable entries; each prune call
    /// deletes up to the budget and checkpoints its progress.
    struct Counted {
        kind: &'static str,
        total: u64,
        calls: Arc<AtomicUsize>,
    }

    impl Segment for Counted {
        fn kind(&self) -> &str {
            self.kind
        }

        fn prune(&self, input: PruneInput) -> Result<PruneOutput, StoreError> {
            self.calls.fetch_add(1, Ordering::Relaxed);
            let mut cp = input.checkpoint.unwrap_or_default();
            let left = self.total - cp.next_segment;
            let take = (input.delete_limit as u64).min(left);
            cp.next_segment += take;
            cp.pruned_entries += take;
            Ok(PruneOutput {
                pruned: take as usize,
                reclaimed_bytes: take * 10,
                done: cp.next_segment == self.total,
                checkpoint: cp,
            })
        }
    }

    #[test]
    fn budget_is_shared_across_segments_and_progress_persists() {
        let dir = std::env::temp_dir().join(format!("gecko-store-pruner-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("prune.json");
        let calls = Arc::new(AtomicUsize::new(0));

        let mut pruner = Pruner::open(&path, 8).unwrap();
        pruner.add(Counted {
            kind: "a",
            total: 5,
            calls: Arc::clone(&calls),
        });
        pruner.add(Counted {
            kind: "b",
            total: 9,
            calls: Arc::clone(&calls),
        });

        // Tick 1: a takes 5, b takes the remaining 3.
        let t = pruner.tick().unwrap();
        assert_eq!(t.pruned, 8);
        assert!(!t.done);
        assert_eq!(pruner.checkpoints().get("b").unwrap().next_segment, 3);

        // "Kill" the pruner; a fresh one resumes from the persisted
        // checkpoints and finishes b.
        drop(pruner);
        let mut pruner = Pruner::open(&path, 8).unwrap();
        pruner.add(Counted {
            kind: "a",
            total: 5,
            calls: Arc::clone(&calls),
        });
        pruner.add(Counted {
            kind: "b",
            total: 9,
            calls: Arc::clone(&calls),
        });
        let t = pruner.tick().unwrap();
        assert_eq!(t.pruned, 6);
        assert!(t.done);
        assert_eq!(pruner.checkpoints().get("a").unwrap().pruned_entries, 5);
        assert_eq!(pruner.checkpoints().get("b").unwrap().pruned_entries, 9);
        assert_eq!(pruner.ticks(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn idle_ticks_write_nothing() {
        let dir = std::env::temp_dir().join(format!("gecko-store-idle-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("prune.json");
        let mut pruner = Pruner::open(&path, 4).unwrap();
        pruner.add(Counted {
            kind: "empty",
            total: 0,
            calls: Arc::new(AtomicUsize::new(0)),
        });
        assert!(pruner.tick().unwrap().done);
        assert!(
            !path.exists(),
            "a tick that pruned nothing wrote a checkpoint"
        );
        assert!(pruner.checkpoints().get("empty").is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn zero_delete_limit_means_unlimited() {
        let dir = std::env::temp_dir().join(format!("gecko-store-pruner0-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut pruner = Pruner::open(&dir.join("prune.json"), 0).unwrap();
        pruner.add(Counted {
            kind: "big",
            total: 1_000_000,
            calls: Arc::new(AtomicUsize::new(0)),
        });
        let t = pruner.tick().unwrap();
        assert_eq!(t.pruned, 1_000_000);
        assert!(t.done);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
