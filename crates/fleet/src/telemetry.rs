//! Structured telemetry: counters, log-scale histograms, span-style events
//! and pluggable sinks.
//!
//! The campaign engine separates two kinds of observability data:
//!
//! * **Deterministic aggregates** ([`FleetCounters`], the per-item
//!   [`gecko_sim::Metrics`]) are merged in work-item order after the pool
//!   joins, so they are bit-identical regardless of worker count.
//! * **Events** ([`Event`]) stream to a [`TelemetrySink`] *while* workers
//!   run. Their interleaving reflects real scheduling and is inherently
//!   non-deterministic across worker counts; use them for progress
//!   monitoring and post-hoc analysis, not for reproducibility checks.
//!
//! Sinks: [`NullSink`] (default), [`MemorySink`] (tests), and — behind the
//! `json` feature — [`JsonlSink`], which writes one JSON object per line
//! using the dependency-free encoder in [`gecko_sim::report`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use gecko_sim::report::{Record, Value};

use crate::supervisor::lock_unpoisoned;

/// A span-style telemetry event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Event kind, e.g. `"campaign_started"`, `"item_finished"`.
    pub kind: &'static str,
    /// Ordered payload fields.
    pub fields: Vec<(&'static str, Value)>,
}

impl Event {
    /// Creates an event.
    pub fn new(kind: &'static str, fields: Vec<(&'static str, Value)>) -> Event {
        Event { kind, fields }
    }

    /// Looks up a field by name.
    pub fn field(&self, name: &str) -> Option<&Value> {
        self.fields.iter().find(|(n, _)| *n == name).map(|(_, v)| v)
    }
}

impl Record for Event {
    fn fields(&self) -> Vec<(&'static str, Value)> {
        let mut out = Vec::with_capacity(self.fields.len() + 1);
        out.push(("event", Value::Str(self.kind.to_string())));
        out.extend(self.fields.iter().cloned());
        out
    }
}

/// Where telemetry events go. Implementations must be callable from many
/// worker threads at once.
pub trait TelemetrySink: Send + Sync {
    /// Consumes one event.
    fn emit(&self, event: Event);

    /// Flushes buffered output (no-op by default).
    fn flush(&self) {}

    /// Number of records this sink has *dropped* instead of delivering
    /// (I/O failures, injected chaos). Sinks must degrade to dropping —
    /// never panic the emitting worker; the campaign surfaces the count
    /// as a [`crate::RunFailure::SinkDropped`] entry. Default: 0.
    fn dropped_records(&self) -> u64 {
        0
    }
}

/// Discards everything.
#[derive(Debug, Default)]
pub struct NullSink;

impl TelemetrySink for NullSink {
    fn emit(&self, _event: Event) {}
}

/// Buffers events in memory — the test sink.
#[derive(Debug, Default)]
pub struct MemorySink {
    events: Mutex<Vec<Event>>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> MemorySink {
        MemorySink::default()
    }

    /// Snapshot of everything emitted so far, in arrival order.
    pub fn events(&self) -> Vec<Event> {
        lock_unpoisoned(&self.events).clone()
    }

    /// Number of events with the given kind.
    pub fn count(&self, kind: &str) -> usize {
        lock_unpoisoned(&self.events)
            .iter()
            .filter(|e| e.kind == kind)
            .count()
    }
}

impl TelemetrySink for MemorySink {
    fn emit(&self, event: Event) {
        lock_unpoisoned(&self.events).push(event);
    }
}

/// A JSON-lines sink over any writer (usually a file): one event object
/// per line, in arrival order.
///
/// Write failures never panic the emitting worker: the record is dropped,
/// the drop is counted, and the campaign surfaces the total as a
/// `SinkDropped` failure — telemetry degrades, the science continues.
#[cfg(feature = "json")]
pub struct JsonlSink<W: std::io::Write + Send> {
    writer: Mutex<W>,
    dropped: AtomicU64,
}

#[cfg(feature = "json")]
impl JsonlSink<std::io::BufWriter<std::fs::File>> {
    /// Creates (truncating) a JSON-lines file sink.
    ///
    /// # Errors
    ///
    /// Propagates file-creation errors.
    pub fn create(path: &std::path::Path) -> std::io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Ok(JsonlSink::from_writer(std::io::BufWriter::new(file)))
    }
}

#[cfg(feature = "json")]
impl<W: std::io::Write + Send> JsonlSink<W> {
    /// Wraps an arbitrary writer.
    pub fn from_writer(writer: W) -> Self {
        JsonlSink {
            writer: Mutex::new(writer),
            dropped: AtomicU64::new(0),
        }
    }

    /// Unwraps the writer (flushing is the caller's business).
    pub fn into_inner(self) -> W {
        self.writer
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

#[cfg(feature = "json")]
impl<W: std::io::Write + Send> TelemetrySink for JsonlSink<W> {
    fn emit(&self, event: Event) {
        let line = event.to_json();
        let mut w = lock_unpoisoned(&self.writer);
        if writeln!(w, "{line}").is_err() {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn flush(&self) {
        if lock_unpoisoned(&self.writer).flush().is_err() {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn dropped_records(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

/// A telemetry sink writing one event object per line into a
/// [`gecko_store::SegmentedLog`] — the retention-aware sibling of
/// [`JsonlSink`]. Old segments can be aged out by the store's pruner
/// (`LogRetention`) while the campaign keeps appending to the tail; drop
/// accounting and degradation semantics come from the log itself.
pub struct SegmentedSink {
    log: std::sync::Arc<gecko_store::SegmentedLog>,
}

impl SegmentedSink {
    /// Wraps a shared segmented log as a sink.
    pub fn new(log: std::sync::Arc<gecko_store::SegmentedLog>) -> SegmentedSink {
        SegmentedSink { log }
    }

    /// The underlying log (for pruner registration and stats).
    pub fn log(&self) -> std::sync::Arc<gecko_store::SegmentedLog> {
        std::sync::Arc::clone(&self.log)
    }
}

impl TelemetrySink for SegmentedSink {
    fn emit(&self, event: Event) {
        self.log.append(&event.to_json());
    }

    fn flush(&self) {
        // A failed sync is not a lost line (the append already landed in
        // the OS cache); the log's drop counter covers real losses.
        let _ = self.log.sync();
    }

    fn dropped_records(&self) -> u64 {
        self.log.dropped()
    }
}

/// Persists a slice of records as `<dir>/<name>.jsonl`, one object per
/// line — the single JSON pipeline every experiment dump goes through.
///
/// # Errors
///
/// Propagates I/O errors.
#[cfg(feature = "json")]
pub fn persist_records<R: Record>(
    dir: &std::path::Path,
    name: &str,
    rows: &[R],
) -> std::io::Result<std::path::PathBuf> {
    use std::io::Write as _;
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.jsonl"));
    let mut w = std::io::BufWriter::new(std::fs::File::create(&path)?);
    for r in rows {
        writeln!(w, "{}", r.to_json())?;
    }
    w.flush()?;
    Ok(path)
}

/// Deterministic fleet-level counters, merged in work-item order.
///
/// The exploration counters (`forks` onward) stay zero for metric sweeps;
/// checker campaigns (`gecko-check`) fill them in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FleetCounters {
    /// Work items executed.
    pub items: u64,
    /// Compiled-program cache misses (actual compilations).
    pub compile_misses: u64,
    /// Compiled-program cache hits (shared artifacts).
    pub compile_hits: u64,
    /// Exploration forks taken (snapshots of the golden trace).
    pub forks: u64,
    /// Post-recovery states actually explored to completion.
    pub states_explored: u64,
    /// Explorations answered from the state-hash memo table.
    pub memo_hits: u64,
    /// Crash-consistency violations found.
    pub violations: u64,
    /// Runs that ended in a quarantined failure (any taxonomy bucket
    /// except `SinkDropped`, which is record-scoped).
    pub failures: u64,
    /// Retry attempts performed beyond each run's first try.
    pub retries: u64,
    /// Runs restored from a resume journal instead of re-executed.
    pub resumed: u64,
    /// Telemetry/journal records dropped by degraded sinks.
    pub dropped_records: u64,
    /// Malformed or unknown-tag journal lines surfaced as diagnostics
    /// during a resume (each costs a re-run of the affected item).
    pub journal_diagnostics: u64,
    /// Check windows answered from a persisted memo store instead of
    /// re-explored (`gecko-check` incremental runs only).
    pub memo_windows: u64,
    /// Work-stealing frontier steals performed by the claim layer (zero
    /// under the static-cursor discipline). Scheduling diagnostic — not
    /// part of any deterministic digest.
    pub frontier_steals: u64,
}

/// A log₂-bucketed histogram of `u64` samples (wall-times, cycle counts).
/// Bucket `i` holds samples whose value needs `i` significant bits, so the
/// range 1 ns .. 10 min of nanoseconds fits in 64 buckets with ~2×
/// resolution — plenty for scheduling telemetry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; 64],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: [0; 64],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Adds one sample.
    pub fn record(&mut self, value: u64) {
        let bucket = (64 - value.leading_zeros()).saturating_sub(1) as usize;
        self.buckets[bucket] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean sample (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest sample (`None` when empty).
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample (`None` when empty).
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Approximate quantile `q` in `[0, 1]`: the lower edge of the bucket
    /// containing that rank (2× resolution by construction).
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((self.count as f64 * q.clamp(0.0, 1.0)).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Some(if i == 0 { 0 } else { 1u64 << i });
            }
        }
        Some(self.max)
    }
}

/// A monotonically increasing sequence source for event ordering.
#[derive(Debug, Default)]
pub struct Sequencer(AtomicU64);

impl Sequencer {
    /// Next sequence number (starts at 0).
    pub fn next(&self) -> u64 {
        self.0.fetch_add(1, Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_sink_buffers_in_order() {
        let sink = MemorySink::new();
        sink.emit(Event::new("a", vec![("n", Value::U64(1))]));
        sink.emit(Event::new("b", vec![]));
        let ev = sink.events();
        assert_eq!(ev.len(), 2);
        assert_eq!(ev[0].kind, "a");
        assert_eq!(ev[0].field("n"), Some(&Value::U64(1)));
        assert_eq!(sink.count("b"), 1);
    }

    #[test]
    fn event_json_includes_kind_first() {
        let e = Event::new("item_finished", vec![("item", Value::U64(3))]);
        assert_eq!(e.to_json(), r#"{"event":"item_finished","item":3}"#);
    }

    #[test]
    fn histogram_buckets_merge_and_quantile() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in [1u64, 2, 3, 4] {
            a.record(v);
        }
        for v in [100u64, 200, 400, 800] {
            b.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), 8);
        assert_eq!(a.min(), Some(1));
        assert_eq!(a.max(), Some(800));
        assert!(a.mean() > 100.0);
        let q50 = a.quantile(0.5).unwrap();
        assert!(q50 <= 100, "lower half is the small values: {q50}");
        assert!(a.quantile(1.0).unwrap() >= 512);
    }

    #[cfg(feature = "json")]
    #[test]
    fn jsonl_sink_degrades_to_drop_counting_on_io_error() {
        struct Broken;
        impl std::io::Write for Broken {
            fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk full"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Err(std::io::Error::other("disk full"))
            }
        }
        let sink = JsonlSink::from_writer(Broken);
        assert_eq!(sink.dropped_records(), 0);
        sink.emit(Event::new("x", vec![]));
        sink.emit(Event::new("y", vec![]));
        assert_eq!(sink.dropped_records(), 2, "every failed write counted");
        sink.flush();
        assert_eq!(sink.dropped_records(), 3, "failed flush counted too");
    }

    #[cfg(feature = "json")]
    #[test]
    fn jsonl_sink_writes_one_line_per_event() {
        let sink = JsonlSink::from_writer(Vec::new());
        sink.emit(Event::new("x", vec![("v", Value::F64(1.5))]));
        sink.emit(Event::new("y", vec![]));
        let bytes = sink.into_inner();
        let text = String::from_utf8(bytes).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.starts_with(r#"{"event":"x","v":1.5}"#));
    }
}
