//! # gecko-fleet — parallel Monte-Carlo campaign engine
//!
//! The paper's evaluation is a grid: applications × recovery schemes ×
//! board models × attack schedules × peripheral seeds. Running that grid
//! one `Simulator` at a time recompiles the same programs over and over
//! and leaves every core but one idle. This crate turns the grid into a
//! declarative [`CampaignSpec`], executes it on a `std::thread` worker
//! pool with a shared compiled-program cache, and merges the results
//! deterministically — the same campaign produces bit-identical numbers
//! (and [`CampaignReport::deterministic_digest`] values) on 1 worker or
//! 16.
//!
//! Three layers:
//!
//! * [`campaign`] — the spec, the work queue, the pool, the deterministic
//!   merge, and [`fleet_summary`]-style reporting.
//! * [`cache`] — the compile-once [`ProgramCache`] keyed on
//!   `(app, scheme, compile options)`, sharing `Arc<CompiledApp>`
//!   artifacts across workers.
//! * [`telemetry`] — counters, log-scale histograms, span-style
//!   [`Event`]s and pluggable [`TelemetrySink`]s (in-memory for tests,
//!   JSON-lines behind the `json` feature for experiments).
//!
//! Two more layers make campaigns *survivable* (GECKO's own resilience
//! discipline, applied to the harness):
//!
//! * [`supervisor`] — panic quarantine, step/wall run budgets, and
//!   seeded [`ChaosSpec`] fault injection; each run executes once and a
//!   failure becomes a structured [`RunFailure`] in the report instead of
//!   killing workers.
//! * [`journal`] — an append-only JSON-lines [`Journal`] of completed
//!   runs; [`Campaign::journal`] skips journaled runs and merges
//!   bit-exactly against an uninterrupted campaign at any worker count.
//!
//! The paper's heavyweight sweeps (Figures 4, 5, 7, 8, 11 and 13) live in
//! [`figures`] as campaigns; a one-worker run is their sequential
//! reference.
//!
//! ```
//! use gecko_fleet::{Campaign, CampaignSpec, SchemeKind, Workload};
//!
//! let spec = CampaignSpec::new("quickstart")
//!     .apps(["blink", "crc16"])
//!     .schemes([SchemeKind::Nvp, SchemeKind::Gecko])
//!     .seeds([1, 2, 3])
//!     .workload(Workload::RunFor { seconds: 0.005 });
//! let report = Campaign::new(spec).workers(4).run().unwrap();
//! assert_eq!(report.results.len(), 12);
//! assert_eq!(report.counters.compile_misses, 4); // one per (app, scheme)
//! println!("{}", gecko_fleet::fleet_summary(&report));
//! ```

#![deny(missing_docs)]

pub mod cache;
pub mod campaign;
pub mod figures;
pub mod journal;
pub mod json;
pub mod spec_io;
pub mod supervisor;
pub mod telemetry;

pub use cache::{CacheKey, ProgramCache};
pub use campaign::{
    AttackCase, Campaign, CampaignError, CampaignReport, CampaignSpec, CapacitorSpec, DeviceCase,
    FaultCase, RunResult, Supply, WorkItem, Workload,
};
pub use journal::{classify_campaign_lines, Journal};
pub use json::{Json, ParseError};
pub use spec_io::{
    report_deterministic_json, report_to_json, spec_from_json, spec_to_json, DecodeError, SpecError,
};
pub use supervisor::{
    account_dropped, lock_unpoisoned, quarantine, run_supervised, AttemptFail, ChaosSink,
    ChaosSpec, FailureKind, ItemOutcome, PoolConfig, PoolReport, RunBudget, RunFailure,
    SupervisorSpec,
};
pub use telemetry::{Event, FleetCounters, Histogram, MemorySink, NullSink, TelemetrySink};

#[cfg(feature = "json")]
pub use telemetry::persist_records;

// Re-exports so campaign code needs only this crate.
/// The byte-wise FNV-1a every persisted identity folds through, for
/// crates that key on it without depending on `gecko-isa` themselves.
pub use gecko_isa::fnv;
pub use gecko_sim::experiments::Fidelity;
pub use gecko_sim::{Metrics, SchemeKind};

/// Renders a campaign report as a fixed-width summary table: one line per
/// work item plus totals, wall-clock, estimated speedup, and cache stats.
pub fn fleet_summary(report: &CampaignReport) -> String {
    use std::fmt::Write as _;
    let spec = &report.spec;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "campaign {:<18} {} items on {} worker(s)",
        spec.name,
        report.results.len(),
        report.workers
    );
    let _ = writeln!(
        out,
        "{:<10} {:<18} {:<8} {:>6} {:>12} {:>12} {:>8}",
        "app", "scheme", "attack", "seed", "fwd cycles", "completions", "wall ms"
    );
    for r in &report.results {
        let _ = writeln!(
            out,
            "{:<10} {:<18} {:<8} {:>6} {:>12} {:>12} {:>8.1}",
            spec.apps[r.item.app_idx],
            spec.schemes[r.item.scheme_idx].name(),
            spec.attacks[r.item.attack_idx].label,
            spec.seeds[r.item.seed_idx],
            r.metrics.forward_cycles,
            r.metrics.completions,
            r.wall_ns as f64 / 1e6,
        );
    }
    let c = &report.counters;
    let _ = writeln!(
        out,
        "totals: {} completions, {} forward cycles, {} checksum errors",
        report.totals.completions, report.totals.forward_cycles, report.totals.checksum_errors
    );
    if !report.failures.is_empty() || c.resumed > 0 || report.halted || c.dropped_records > 0 {
        let _ = writeln!(
            out,
            "supervision: {} failure(s), {} resumed, {} dropped record(s){}",
            c.failures,
            c.resumed,
            c.dropped_records,
            if report.halted { " [halted]" } else { "" },
        );
        for f in &report.failures {
            let _ = writeln!(out, "  {} {}", f.kind().name(), f.describe());
        }
    }
    let _ = writeln!(
        out,
        "cache: {} compiles, {} hits | wall {:.2}s, work {:.2}s, speedup {:.2}x",
        c.compile_misses,
        c.compile_hits,
        report.wall_s,
        report.work_s(),
        report.work_s() / report.wall_s.max(1e-9),
    );
    let _ = writeln!(out, "digest: {:016x}", report.deterministic_digest());
    out
}

// The pool shares apps and compiled artifacts across threads; these
// assertions fail to compile if a refactor ever makes them thread-unsafe.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<gecko_apps::App>();
    assert_send_sync::<gecko_sim::device::CompiledApp>();
    assert_send_sync::<gecko_emi::DeviceModel>();
    assert_send_sync::<gecko_emi::AttackSchedule>();
    assert_send_sync::<CampaignSpec>();
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_summary_mentions_everything() {
        let spec = CampaignSpec::new("summary")
            .apps(["blink"])
            .schemes([SchemeKind::Nvp])
            .workload(Workload::RunFor { seconds: 0.002 });
        let report = Campaign::new(spec).run().unwrap();
        let text = fleet_summary(&report);
        assert!(text.contains("campaign summary"));
        assert!(text.contains("blink"));
        assert!(text.contains("NVP"));
        assert!(text.contains("digest:"));
        assert!(text.contains("speedup"));
    }
}
