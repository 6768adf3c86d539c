//! Per-segment prune checkpoints and their crash-safe persistence.
//!
//! Mirrors the reth pruner's checkpoint discipline: after a segment is
//! pruned, its [`PruneCheckpoint`] records where the next tick should
//! resume ("prune from the next entry after the highest pruned one") plus
//! cumulative accounting. Checkpoints for every segment kind live in one
//! JSON-lines file rewritten atomically (tmp + `sync_all` + rename) on
//! every save — a kill at any byte leaves either the old or the new
//! checkpoint set, both of which are safe starting points because pruning
//! itself is idempotent.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Where a segment's pruning left off, plus lifetime accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PruneCheckpoint {
    /// The first log segment (or, for non-log segments, the first id)
    /// the next tick should look at. Everything below has been pruned
    /// clean and is never revisited.
    pub next_segment: u64,
    /// Entries pruned over the checkpoint's lifetime.
    pub pruned_entries: u64,
    /// Bytes reclaimed over the checkpoint's lifetime.
    pub reclaimed_bytes: u64,
}

/// The persisted map of segment kind → [`PruneCheckpoint`].
#[derive(Debug)]
pub struct CheckpointStore {
    path: PathBuf,
    map: BTreeMap<String, PruneCheckpoint>,
}

impl CheckpointStore {
    /// Opens the checkpoint file at `path`, tolerating a missing file
    /// (fresh store) and skipping corrupt lines (a kill can only tear the
    /// file if it predates the atomic-rename discipline; tolerance costs
    /// nothing and re-pruning is idempotent).
    ///
    /// # Errors
    ///
    /// Propagates read errors other than "not found".
    pub fn open(path: &Path) -> std::io::Result<CheckpointStore> {
        let mut map = BTreeMap::new();
        match std::fs::read_to_string(path) {
            Ok(text) => {
                for line in text.lines() {
                    if let Some((kind, cp)) = decode_line(line) {
                        map.insert(kind, cp);
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        Ok(CheckpointStore {
            path: path.to_path_buf(),
            map,
        })
    }

    /// The checkpoint for `kind`, if one was ever saved.
    pub fn get(&self, kind: &str) -> Option<PruneCheckpoint> {
        self.map.get(kind).copied()
    }

    /// Every saved checkpoint, ordered by kind.
    pub fn all(&self) -> impl Iterator<Item = (&str, PruneCheckpoint)> {
        self.map.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Records `kind`'s checkpoint and persists the whole set atomically
    /// (tmp + `sync_all` + rename).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; the in-memory checkpoint is updated either
    /// way (the next save retries the write).
    pub fn save(&mut self, kind: &str, cp: PruneCheckpoint) -> std::io::Result<()> {
        self.map.insert(kind.to_string(), cp);
        let tmp = self.path.with_extension("json.tmp");
        let mut file = std::fs::File::create(&tmp)?;
        for (kind, cp) in &self.map {
            writeln!(file, "{}", encode_line(kind, *cp))?;
        }
        file.sync_all()?;
        std::fs::rename(&tmp, &self.path)?;
        if let Some(dir) = self.path.parent() {
            if let Ok(d) = std::fs::File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok(())
    }
}

fn encode_line(kind: &str, cp: PruneCheckpoint) -> String {
    // Kinds are static identifiers (no quoting needed beyond the obvious).
    let escaped: String = kind
        .chars()
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            c => vec![c],
        })
        .collect();
    format!(
        "{{\"kind\":\"{escaped}\",\"next_segment\":{},\"pruned_entries\":{},\"reclaimed_bytes\":{}}}",
        cp.next_segment, cp.pruned_entries, cp.reclaimed_bytes
    )
}

/// A deliberately tiny flat-JSON reader: `{"kind":"...", "k":u64, ...}`.
/// The workspace's JSON codec lives in `gecko_sim::report`, but the store
/// is std-only and depends on no workspace crate: borrowing the codec
/// would add a `gecko-store → gecko-sim` edge to the dependency graph and
/// change the lockfile of every package built on the store, the served
/// benchmark's included. `prune.json` lines are flat and fixed-shape, so
/// this reader stays small.
fn decode_line(line: &str) -> Option<(String, PruneCheckpoint)> {
    let mut rest = line.trim().strip_prefix('{')?.strip_suffix('}')?;
    let mut kind = None;
    let mut cp = PruneCheckpoint::default();
    while !rest.is_empty() {
        rest = rest.trim_start_matches([',', ' ']);
        let (key, after) = read_string(rest)?;
        rest = after.trim_start().strip_prefix(':')?.trim_start();
        match key.as_str() {
            "kind" => {
                let (value, after) = read_string(rest)?;
                kind = Some(value);
                rest = after;
            }
            _ => {
                let end = rest.find([',', '}']).unwrap_or(rest.len());
                let value: u64 = rest[..end].trim().parse().ok()?;
                match key.as_str() {
                    "next_segment" => cp.next_segment = value,
                    "pruned_entries" => cp.pruned_entries = value,
                    "reclaimed_bytes" => cp.reclaimed_bytes = value,
                    _ => {}
                }
                rest = &rest[end..];
            }
        }
    }
    Some((kind?, cp))
}

fn read_string(s: &str) -> Option<(String, &str)> {
    let mut chars = s.strip_prefix('"')?.char_indices();
    let mut out = String::new();
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => return Some((out, &s[1 + i + 1..])),
            '\\' => out.push(chars.next()?.1),
            c => out.push(c),
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkpoints_round_trip_across_reopen() {
        let dir = std::env::temp_dir().join(format!("gecko-store-cp-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("prune.json");
        let mut store = CheckpointStore::open(&path).unwrap();
        assert!(store.get("journal").is_none());
        store
            .save(
                "journal",
                PruneCheckpoint {
                    next_segment: 3,
                    pruned_entries: 120,
                    reclaimed_bytes: 4096,
                },
            )
            .unwrap();
        store.save("telemetry", PruneCheckpoint::default()).unwrap();

        let store = CheckpointStore::open(&path).unwrap();
        assert_eq!(
            store.get("journal"),
            Some(PruneCheckpoint {
                next_segment: 3,
                pruned_entries: 120,
                reclaimed_bytes: 4096,
            })
        );
        assert_eq!(store.get("telemetry"), Some(PruneCheckpoint::default()));
        assert_eq!(store.all().count(), 2);
        assert!(
            !path.with_extension("json.tmp").exists(),
            "save leaves no tmp behind"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_lines_are_skipped_not_fatal() {
        let dir = std::env::temp_dir().join(format!("gecko-store-cp-bad-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("prune.json");
        std::fs::write(
            &path,
            "not json\n{\"kind\":\"ok\",\"next_segment\":7,\"pruned_entries\":1,\"reclaimed_bytes\":2}\n{\"kind\":\"torn",
        )
        .unwrap();
        let store = CheckpointStore::open(&path).unwrap();
        assert_eq!(store.all().count(), 1);
        assert_eq!(store.get("ok").map(|c| c.next_segment), Some(7));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
