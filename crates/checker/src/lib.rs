//! **gecko-check** — the exhaustive crash-consistency model checker.
//!
//! The suite's flagship property is *crash-anywhere consistency*: a run
//! interrupted at any instruction boundary, under any EMI schedule, must
//! still complete with the golden checksum. The Monte-Carlo torture tests
//! sample that space; this crate enumerates it:
//!
//! * **Window enumeration** — every step of the failure-free golden trace
//!   is a failure window. At each window the checker injects a plain
//!   power failure and (for the EMI fault model) a spoofed checkpoint
//!   signal; at depth 2 it additionally re-injects a nested fault —
//!   power failure, spoofed checkpoint or spoofed wake-up — at every
//!   offset of the recovery that follows. With
//!   [`ExploreConfig::fault_windows`] it also injects EM instruction
//!   faults (skip / corrupt), judged against the faulted-continuous
//!   reference rather than the golden checksum (DESIGN.md §17).
//! * **Snapshot-fork exploration** — the golden trace is walked once;
//!   each window forks via [`gecko_sim::Simulator::snapshot_into`] /
//!   [`gecko_sim::Simulator::restore`] instead of re-executing the prefix
//!   from cold, turning the naive O(n²) sweep into amortized O(n) (the
//!   `checker_fork` bench in `crates/bench` measures the ratio). A slab
//!   refills three snapshot buffers in place, and a refill or restore
//!   copies only the NVM pages either state touched.
//! * **Memoization** — explorations are deduped on an FNV hash of the
//!   post-recovery *logical* state
//!   ([`gecko_sim::Simulator::state_hash`], which reads only touched NVM
//!   pages yet equals a scan of every word); re-converged recoveries are
//!   answered from the memo table, and a drain that reaches, at its join
//!   point (its first region commit, or NVP's first loop-header entry), a
//!   state an earlier drain passed through joins that drain's outcome; a
//!   spoofed-wake-up sweep that joins there ends early (soundness
//!   argument in DESIGN.md §10).
//! * **Counterexample shrinking** — a violating injection schedule is
//!   minimized by replay (drop injections, lower offsets) and blamed in
//!   `gecko-compiler` vocabulary: the committed region, its boundary and
//!   recovery actions, or the JIT checkpoint a double-execution resumed
//!   from.
//! * **Sharded campaigns** — the (app × scheme × window-chunk) grid fans
//!   out across a fleet-style worker pool; reports are deterministic and
//!   worker-count-invariant, certified by a digest.
//!
//! ```no_run
//! use gecko_check::{check_app, ExploreConfig};
//! use gecko_compiler::CompileOptions;
//! use gecko_sim::SchemeKind;
//!
//! let app = gecko_apps::app_by_name("blink").unwrap();
//! let report = check_app(
//!     &app,
//!     SchemeKind::Gecko,
//!     &CompileOptions::default(),
//!     &ExploreConfig::default(),
//! )
//! .unwrap();
//! assert!(report.is_clean());
//! ```

#![deny(missing_docs)]

pub mod campaign;
pub mod explore;
pub mod memostore;
pub mod shrink;
pub mod testprog;
pub mod verdict;

pub use campaign::{
    check_app, check_compiled, check_summary, CheckCampaign, CheckError, CheckReport, CheckSpec,
    JournalDiagnostic,
};
pub use explore::{golden_steps, ExploreConfig, GoldenError};
pub use memostore::{classify_memo_lines, MemoStore};
pub use shrink::{replay, shrink_schedule, Replayer};
pub use testprog::war_counter_app;
pub use verdict::{
    blame_dot, schedule_to_string, Blame, CheckStats, Counterexample, InjectionKind, Outcome,
    PairReport, PlannedInjection, VerdictRow, Violation,
};

#[cfg(test)]
mod tests {
    use super::*;
    use gecko_compiler::CompileOptions;
    use gecko_sim::SchemeKind;

    fn quick() -> bool {
        std::env::var_os("GECKO_QUICK").is_some()
    }

    #[test]
    fn blink_is_clean_under_gecko_at_depth_one() {
        let app = gecko_apps::app_by_name("blink").unwrap();
        let report = check_app(
            &app,
            SchemeKind::Gecko,
            &CompileOptions::default(),
            &ExploreConfig::default(),
        )
        .unwrap();
        assert!(report.is_clean(), "violations: {:?}", report.violations);
        assert_eq!(report.stats.windows, report.golden_steps);
        assert!(report.stats.forks >= 2 * report.golden_steps);
        assert!(
            report.stats.memo_hits > 0,
            "re-converged recoveries should memo-hit: {:?}",
            report.stats
        );
    }

    #[test]
    fn memoization_does_not_change_the_verdict() {
        let app = war_counter_app(6);
        let cfg = ExploreConfig {
            depth: 2,
            refail_horizon: 10,
            ..ExploreConfig::default()
        };
        let no_memo = ExploreConfig {
            memoize: false,
            ..cfg
        };
        let with = check_app(&app, SchemeKind::Nvp, &CompileOptions::default(), &cfg).unwrap();
        let without =
            check_app(&app, SchemeKind::Nvp, &CompileOptions::default(), &no_memo).unwrap();
        assert_eq!(with.violations, without.violations);
        assert_eq!(without.stats.memo_hits, 0);
        assert!(with.stats.explored < without.stats.explored);
    }

    #[test]
    fn war_counter_passes_rollback_schemes_at_depth_two() {
        if quick() {
            return;
        }
        let app = war_counter_app(6);
        let cfg = ExploreConfig {
            depth: 2,
            refail_horizon: 12,
            ..ExploreConfig::default()
        };
        for scheme in [SchemeKind::Ratchet, SchemeKind::Gecko] {
            let report = check_app(&app, scheme, &CompileOptions::default(), &cfg).unwrap();
            assert!(
                report.is_clean(),
                "{}: {:?}",
                scheme.name(),
                report.violations.first()
            );
        }
    }

    #[test]
    fn gecko_cuts_the_wars_a_wcet_split_exposes() {
        // Past the WCET budget the loop is split at its header, and that
        // boundary turns the body's counter load, WARAW-exempt behind the
        // entry's reset, into an anti-dependence the pipeline must cut.
        for n in [1_000, 16_000] {
            let app = war_counter_app(n);
            for scheme in [SchemeKind::Gecko, SchemeKind::GeckoNoPrune] {
                let compiled =
                    gecko_sim::device::CompiledApp::build(&app, scheme, &CompileOptions::default())
                        .unwrap();
                assert!(compiled.stats.regions_split > 0, "{n}/{}", scheme.name());
                assert!(
                    gecko_compiler::regions::anti_dependences_are_cut(&compiled.program),
                    "{n}/{}",
                    scheme.name()
                );
            }
        }
        let report = check_app(
            &war_counter_app(1_000),
            SchemeKind::Gecko,
            &CompileOptions::default(),
            &ExploreConfig::default(),
        )
        .unwrap();
        assert!(report.is_clean(), "{:?}", report.violations.first());
    }

    #[test]
    fn a_split_war_counter_counts_right_through_harvesting_outages() {
        // The same shape on a 4.7 uF harvesting supply: real outages land
        // inside the split loop and roll back across the re-cut WAR (with
        // the WAR uncut, GECKO completed with 16,003 and 16,004).
        for scheme in [SchemeKind::Gecko, SchemeKind::GeckoNoPrune] {
            let compiled = gecko_sim::device::CompiledApp::build(
                &war_counter_app(16_000),
                scheme,
                &CompileOptions::default(),
            )
            .unwrap();
            let mut config = gecko_sim::SimConfig::harvesting(scheme);
            config.capacitance_f = 4.7e-6;
            let mut sim = gecko_sim::Simulator::from_compiled(&compiled, config);
            let m = sim.run_until_completions(1, 600.0);
            assert!(m.reboots > 0, "{}: {m:?}", scheme.name());
            assert_eq!(
                (m.completions, sim.nvm().read(compiled.app.checksum_addr)),
                (1, 16_000),
                "{}",
                scheme.name()
            );
        }
    }

    #[test]
    fn shrinker_minimizes_to_the_essential_schedule() {
        // Hand a deliberately padded schedule to the shrinker: the
        // power failure alone breaks nothing (cold restart re-runs the
        // counter reset), so a spoofed checkpoint + re-failure pair must
        // survive, and nothing else.
        let app = war_counter_app(6);
        let compiled = gecko_sim::device::CompiledApp::build(
            &app,
            SchemeKind::Nvp,
            &CompileOptions::default(),
        )
        .unwrap();
        let cfg = ExploreConfig::default();
        let golden = golden_steps(&compiled, cfg.seed).unwrap();
        // Find a real violation first.
        let report = check_compiled(
            &compiled,
            &ExploreConfig {
                depth: 2,
                power_failure_windows: false,
                refail_horizon: 12,
                ..ExploreConfig::default()
            },
        )
        .unwrap();
        let violation = report.violations.first().expect("NVP WAR violation");
        let shrunk = shrink_schedule(&compiled, &cfg, &violation.schedule, golden, 300);
        assert!(shrunk.outcome.is_violation());
        assert_eq!(
            shrunk.schedule.len(),
            2,
            "double-execution needs checkpoint + re-failure: {}",
            schedule_to_string(&shrunk.schedule)
        );
        assert_eq!(shrunk.schedule[0].kind, InjectionKind::SpoofedCheckpoint);
        assert!(shrunk.schedule.len() <= violation.schedule.len());
        let (confirm, _) = replay(&compiled, &cfg, &shrunk.schedule, golden);
        assert_eq!(confirm, shrunk.outcome, "shrunk schedule replays");
    }

    #[test]
    fn blame_dot_renders_the_faulting_block() {
        let app = gecko_apps::app_by_name("blink").unwrap();
        let compiled = gecko_sim::device::CompiledApp::build(
            &app,
            SchemeKind::Gecko,
            &CompileOptions::default(),
        )
        .unwrap();
        let sim = explore::checker_sim(&compiled, 7, true);
        let blame = Blame::capture(&sim, &compiled);
        let dot = blame_dot(&compiled.program, &blame).expect("gecko blame names a block");
        assert!(dot.starts_with("digraph blame"));
        assert!(dot.contains("color=red"));
    }

    #[test]
    fn fast_forward_does_not_change_the_report() {
        // The simulator's fast paths must be invisible to the checker: not
        // just the verdict but the *entire* report — windows, forks,
        // explored count, memo hits and even the exact number of
        // simulation steps — must match the step-exact reference
        // (`fast_forward: false` selects `ExecMode::Interpreted`).
        let app = war_counter_app(5);
        let windows = if quick() { 150 } else { 600 };
        let cfg = ExploreConfig {
            depth: 2,
            refail_horizon: 8,
            ..ExploreConfig::default()
        }
        .with_max_windows(windows);
        let no_ff = ExploreConfig {
            fast_forward: false,
            ..cfg
        };
        let fast = check_app(&app, SchemeKind::Gecko, &CompileOptions::default(), &cfg).unwrap();
        let exact = check_app(&app, SchemeKind::Gecko, &CompileOptions::default(), &no_ff).unwrap();
        assert_eq!(fast.violations, exact.violations);
        assert_eq!(fast.stats, exact.stats, "step-exact: same CheckStats");
        assert_eq!(fast.golden_steps, exact.golden_steps);
    }

    #[test]
    fn unknown_app_and_empty_grid_error() {
        assert!(matches!(
            CheckSpec::new("t").app_names(&["no-such-app"]),
            Err(CheckError::UnknownApp(_))
        ));
        let err = CheckCampaign::new(CheckSpec::new("t")).run().unwrap_err();
        assert!(matches!(err, CheckError::EmptyGrid));
    }
}
