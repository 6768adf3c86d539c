//! Supervision inherited from `gecko_fleet`: checker chunks that panic
//! are quarantined (sibling chunks' violations survive bit-exactly and
//! still shrink), and a killed checker campaign resumes from its memo
//! store bit-exactly — blame context included, rebuilt by deterministic
//! replay.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use gecko_check::{war_counter_app, CheckCampaign, CheckSpec, ExploreConfig, MemoStore};
use gecko_fleet::{ChaosSpec, RunFailure};
use gecko_sim::SchemeKind;

/// A fresh, empty memo-store directory for one test case.
fn store_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "gecko-check-supervision-{}-{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Opens (or reopens) the memo store in `dir`, as a restarted process
/// would.
fn store(dir: &Path) -> Arc<MemoStore> {
    Arc::new(MemoStore::open(dir).unwrap())
}

/// One violating pair (NVP, items 0..6) and one clean pair (GECKO,
/// items 6..12), six 8-window chunks each.
fn spec() -> CheckSpec {
    CheckSpec::new("supervised-check")
        .apps([war_counter_app(6)])
        .schemes([SchemeKind::Nvp, SchemeKind::Gecko])
        .explore(ExploreConfig {
            depth: 2,
            power_failure_windows: false, // EMI windows only: fast + violating
            refail_horizon: 12,
            max_windows: Some(48),
            ..ExploreConfig::default()
        })
        .chunk_windows(8) // several chunks per pair: real interleaving
}

#[test]
fn chunk_panics_quarantine_and_sibling_violations_still_shrink() {
    let clean = CheckCampaign::new(spec()).workers(2).run().unwrap();
    assert_eq!(clean.counters.items, 12);
    assert!(!clean.results[0].violations.is_empty(), "NVP must violate");
    assert!(clean.results[1].is_clean(), "GECKO must stay clean");
    assert!(clean.failures.is_empty(), "no chaos: no failures");

    // Chaos seed 9 deterministically panics exactly the NVP chunks for
    // windows 24..32 (item 3) and 40..48 (item 5); the chunk run keys
    // are content-addressed, so this only shifts if the spec does.
    let chaos = ChaosSpec {
        seed: 9,
        panic_per_mille: 200,
        ..ChaosSpec::off()
    };
    let report = CheckCampaign::new(spec())
        .chaos(chaos)
        .workers(2)
        .run()
        .unwrap();

    // Each injected panic appears exactly once, as a structured failure.
    assert_eq!(report.failures.len(), 2);
    for (failure, expected_item) in report.failures.iter().zip([3usize, 5]) {
        match failure {
            RunFailure::Panicked { item, payload, .. } => {
                assert_eq!(*item, expected_item);
                assert!(payload.contains("chaos: injected panic"), "{payload}");
            }
            other => panic!("expected a quarantined panic, got {other:?}"),
        }
    }
    assert_eq!(report.counters.failures, 2);
    assert!(
        !report.is_clean(),
        "quarantined chunks void the exhaustiveness claim"
    );

    // Sibling chunks' violations survive bit-exactly: exactly the two
    // quarantined windows ranges are missing, nothing else moved.
    let expected: Vec<_> = clean.results[0]
        .violations
        .iter()
        .filter(|v| !((24..32).contains(&v.window) || (40..48).contains(&v.window)))
        .cloned()
        .collect();
    assert!(expected.len() < clean.results[0].violations.len());
    assert!(!expected.is_empty());
    assert_eq!(report.results[0].violations, expected);

    // The first violation lives in an unaffected chunk, so the
    // counterexample still shrinks — to the same minimal schedule.
    assert_eq!(
        report.results[0].counterexample, clean.results[0].counterexample,
        "counterexamples from sibling chunks still shrink"
    );

    // The clean pair ran entirely outside the blast radius.
    assert_eq!(report.results[1], clean.results[1]);

    // Chaos is keyed on (seed, chunk run key): the whole report,
    // failures included, is worker-count-invariant.
    let solo = CheckCampaign::new(spec())
        .chaos(chaos)
        .workers(1)
        .run()
        .unwrap();
    assert_eq!(solo.failures, report.failures);
    assert_eq!(solo.results, report.results);
    assert_eq!(solo.deterministic_digest(), report.deterministic_digest());
}

#[test]
fn killed_check_campaigns_resume_bit_exactly() {
    let reference = CheckCampaign::new(spec()).workers(2).run().unwrap();

    for workers in [1usize, 4] {
        let dir = store_dir(&format!("killed-{workers}"));
        let partial = CheckCampaign::new(spec())
            .workers(workers)
            .memo(store(&dir))
            .halt_after(4)
            .run()
            .unwrap();
        assert!(partial.halted, "the kill switch must fire");

        // Resume by attaching the same store again, reopened from disk.
        let resumed = CheckCampaign::new(spec())
            .workers(workers)
            .memo(store(&dir))
            .run()
            .unwrap();
        assert!(!resumed.halted);
        assert!(resumed.counters.resumed >= 4);
        // Bit-exact merge, including the replay-rebuilt blame context on
        // every restored violation.
        assert_eq!(resumed.results, reference.results);
        assert_eq!(resumed.totals, reference.totals);
        assert_eq!(resumed.counters.violations, reference.counters.violations);
        assert_eq!(
            resumed.deterministic_digest(),
            reference.deterministic_digest(),
            "workers={workers}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn a_quota_that_covers_every_chunk_is_not_a_halt() {
    let reference = CheckCampaign::new(spec()).workers(2).run().unwrap();
    for workers in [1usize, 4] {
        // The quota trips only after the last chunk is accounted: no
        // work was left undone, so the run is complete, not halted.
        let whole = CheckCampaign::new(spec())
            .workers(workers)
            .halt_after(12)
            .run()
            .unwrap();
        assert!(!whole.halted, "workers={workers}: nothing left undone");
        assert_eq!(
            whole.deterministic_digest(),
            reference.deterministic_digest()
        );

        // The same holds for a resumed session whose quota covers exactly
        // the 8 chunks its store lacks.
        let dir = store_dir(&format!("quota-{workers}"));
        let partial = CheckCampaign::new(spec())
            .workers(workers)
            .memo(store(&dir))
            .halt_after(4)
            .run()
            .unwrap();
        assert!(partial.halted);
        let rest = CheckCampaign::new(spec())
            .workers(workers)
            .memo(store(&dir))
            .halt_after(8)
            .run()
            .unwrap();
        assert!(
            !rest.halted,
            "workers={workers}: the resumed quota covers the rest"
        );
        assert_eq!(
            rest.deterministic_digest(),
            reference.deterministic_digest()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn check_stores_from_a_different_spec_restore_nothing() {
    // Half a campaign of slabs under `spec()`.
    let dir = store_dir("other-spec");
    let memo = store(&dir);
    CheckCampaign::new(spec())
        .memo(Arc::clone(&memo))
        .halt_after(6)
        .run()
        .unwrap();
    let generation = memo.generation();

    // A spec that differs only in its shrink budget: the same chunks
    // under the same run keys, so only the spec fingerprint keeps the
    // earlier slabs from answering.
    let other = || {
        let mut other = spec();
        other.shrink_budget = 50;
        other
    };
    let cold = CheckCampaign::new(other()).run().unwrap();
    let run = CheckCampaign::new(other()).memo(memo).run().unwrap();
    assert_eq!(run.counters.resumed, 0, "nothing restores across specs");
    assert_eq!(run.counters.memo_windows, 0);
    assert_eq!(run.memo_generation, Some(generation + 1));
    assert_eq!(run.deterministic_digest(), cold.deterministic_digest());
    let _ = std::fs::remove_dir_all(&dir);
}
