//! # gecko-store — segmented on-disk store with budgeted, resumable pruning
//!
//! PR 4's run journal and PR 6's per-job telemetry files are append-only:
//! a long-running daemon grows them without bound. This crate is the
//! retention layer underneath them, practicing the same crash-consistency
//! discipline the simulator models — every structural change to the store
//! is *interruption-safe at any byte*, and pruning never touches the data
//! a fingerprinted bit-exact resume depends on.
//!
//! Three layers:
//!
//! * [`log`] — [`SegmentedLog`]: an append-only JSON-lines log split into
//!   sealed `seg-<n>.jsonl` segments plus one active tail. Sealing
//!   `sync_all`s the segment; the active tail's torn final line (a
//!   power-cut mid-append) is truncated away and counted on reopen;
//!   sealed segments are only ever rewritten via tmp + `sync_all` +
//!   atomic rename.
//! * [`pruner`] — the reth-shaped pruning machinery: a [`Segment`] trait
//!   per data kind, each pruned under a `delete_limit` work budget per
//!   [`Pruner::tick`], with a [`PruneCheckpoint`] persisted per segment
//!   (in [`checkpoint::CheckpointStore`]) so pruning is incremental,
//!   resumable, and safe to kill between any two syscalls.
//! * [`compact`] / [`retention`] — the two generic [`Segment`]
//!   implementations: [`LogCompactor`] rewrites sealed segments keeping
//!   only the lines a caller-supplied classifier marks live (run-record
//!   supersession, garbage lines), and [`LogRetention`] drops the oldest
//!   lines of a log once it exceeds a byte cap (telemetry streams, where
//!   old events age out wholesale).
//!
//! The contract the whole crate is built around: for any interleaving of
//! appends, prune ticks, and kills, `log.lines()` decoded by the owning
//! vocabulary is identical to the unpruned decode — pruning only ever
//! removes lines the decoder already ignored or superseded. The fleet and
//! checker crates supply the vocabulary-aware classifiers; this crate
//! supplies the budget, checkpoint, and crash-safety mechanics.
//!
//! ```
//! use std::sync::Arc;
//! use gecko_store::{LogConfig, Pruner, SegmentedLog, Verdict};
//!
//! let dir = std::env::temp_dir().join(format!("store-doc-{}", std::process::id()));
//! let _ = std::fs::remove_dir_all(&dir);
//! let log = Arc::new(
//!     SegmentedLog::open(&dir.join("log"), LogConfig { max_segment_bytes: 64 }).unwrap(),
//! );
//! for i in 0..24 {
//!     log.append(&format!("{{\"k\":{}}}", i % 4)); // later duplicates win
//! }
//! let mut pruner = Pruner::open(&dir.join("prune.json"), 8).unwrap();
//! pruner.add(gecko_store::LogCompactor::new("doc", Arc::clone(&log), |lines| {
//!     // keep only the last line per key
//!     let key = |l: &str| l.bytes().rev().nth(1).unwrap();
//!     lines
//!         .iter()
//!         .enumerate()
//!         .map(|(i, l)| {
//!             if lines[i + 1..].iter().any(|m| key(m) == key(l)) {
//!                 Verdict::Delete
//!             } else {
//!                 Verdict::Keep
//!             }
//!         })
//!         .collect()
//! }));
//! while !pruner.tick().unwrap().done {} // budgeted, resumable ticks
//! assert!(log.lines().len() < 24);
//! std::fs::remove_dir_all(&dir).unwrap();
//! ```

#![deny(missing_docs)]

pub mod checkpoint;
pub mod compact;
pub mod log;
pub mod pruner;
pub mod retention;

pub use checkpoint::{CheckpointStore, PruneCheckpoint};
pub use compact::{Classifier, LogCompactor, Verdict};
pub use log::{LogConfig, SegmentInfo, SegmentLines, SegmentedLog};
pub use pruner::{PruneInput, PruneOutput, Pruner, Segment, StoreError, TickReport};
pub use retention::LogRetention;
