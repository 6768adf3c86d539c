//! # gecko-store — segmented on-disk store with stateless, budgeted compaction
//!
//! PR 4's run journal and PR 6's per-job telemetry files are append-only:
//! a long-running daemon grows them without bound. This crate is the
//! storage layer underneath them, practicing the same crash-consistency
//! discipline the simulator models — every structural change to the store
//! is *interruption-safe at any byte*, and compaction never touches the
//! data a fingerprinted bit-exact resume depends on.
//!
//! Two modules:
//!
//! * [`log`] — [`SegmentedLog`]: an append-only JSON-lines log split into
//!   sealed `seg-<n>.jsonl` segments plus one active tail. Sealing
//!   `sync_all`s the segment; the active tail's torn final line (a
//!   power-cut mid-append) is truncated away and counted on reopen;
//!   sealed segments are only ever rewritten via tmp + `sync_all` +
//!   atomic rename.
//! * [`compact`] — what [`SegmentedLog::compact`] speaks: a caller's
//!   classifier returns one [`Verdict`] per line of the whole log, and
//!   one call deletes the first `delete_limit` `Delete` lines of the
//!   sealed segments in log order, reporting a [`Compaction`].
//!
//! Compaction keeps no state between calls: every call classifies the
//! whole log afresh, so whatever a call deletes — however small its
//! budget, and wherever a kill cut it short — is a prefix of *all* the
//! `Delete` lines of the log it read. That is exactly the property the
//! fleet and checker decoders prove safe: for any interleaving of
//! appends, compactions and kills, `log.lines()` decoded by the owning
//! vocabulary is identical to the uncompacted decode. The fleet and
//! checker crates supply the vocabulary-aware classifiers; this crate
//! supplies the budget and crash-safety mechanics.
//!
//! ```
//! use gecko_store::{LogConfig, SegmentedLog, Verdict};
//!
//! let dir = std::env::temp_dir().join(format!("store-doc-{}", std::process::id()));
//! let _ = std::fs::remove_dir_all(&dir);
//! let log = SegmentedLog::open(&dir, LogConfig { max_segment_bytes: 64 }).unwrap();
//! for i in 0..24 {
//!     log.append(&format!("{{\"k\":{}}}", i % 4)); // later duplicates win
//! }
//! // Keep only the last line per key.
//! let last_per_key = |lines: &[String]| -> Vec<Verdict> {
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
//! };
//! while !log.compact(last_per_key, 8).unwrap().done {} // budgeted calls
//! assert!(log.lines().len() < 24);
//! std::fs::remove_dir_all(&dir).unwrap();
//! ```

#![deny(missing_docs)]

pub mod compact;
pub mod log;

pub use compact::{Compaction, StoreError, Verdict};
pub use log::{LogConfig, SegmentInfo, SegmentLines, SegmentedLog};
