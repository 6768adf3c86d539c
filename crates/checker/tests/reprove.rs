//! The re-prove oracle: a [`Replayer`] shared across a chunk's schedules
//! must judge every schedule exactly as a fresh [`replay`] does, blame
//! included, byte for byte.
//!
//! * Over the benchmark grid (crc16, blink and bitcnt under every scheme,
//!   depth 2, fault windows, 30 windows, seed 1) every violation of a cold
//!   check replays identically on one replayer per chunk, and a warm
//!   re-check reports the pinned re-prove counters: 1,092 violations
//!   re-proven by 634 drains.
//! * Under a tight step budget, two schedules that recover into the same
//!   state after settles of different lengths are each judged as the
//!   reference judges them, in either order: a memoized drain never
//!   answers past the remaining budget.

use std::sync::Arc;

use gecko_check::{
    golden_steps, replay, war_counter_app, CheckCampaign, CheckSpec, ExploreConfig, InjectionKind,
    MemoStore, Outcome, PlannedInjection, Replayer,
};
use gecko_compiler::CompileOptions;
use gecko_sim::device::CompiledApp;
use gecko_sim::SchemeKind;

/// The benchmark grid of the `check_incremental` workload at seed 1. With
/// 30 windows and the default 512-window chunks, each pair is one chunk.
fn bench_grid() -> CheckSpec {
    CheckSpec::new("reprove-oracle")
        .app_names(&["crc16", "blink", "bitcnt"])
        .unwrap()
        .schemes(SchemeKind::all().to_vec())
        .explore(
            ExploreConfig {
                seed: 1,
                ..ExploreConfig::default()
            }
            .with_depth(2)
            .with_fault_windows(true)
            .with_max_windows(30),
        )
}

#[test]
fn a_shared_replayer_matches_fresh_replays_over_the_bench_grid() {
    let spec = bench_grid();
    let cold = CheckCampaign::new(bench_grid()).workers(2).run().unwrap();
    assert_eq!(cold.totals.windows, 360);
    assert_eq!(cold.totals.forks, 79_448);
    assert_eq!(cold.totals.violations, 1_092);

    let (mut replays, mut drains) = (0u64, 0u64);
    let pairs = spec
        .apps
        .iter()
        .flat_map(|app| spec.schemes.iter().map(move |&scheme| (app, scheme)));
    for ((app, scheme), pair) in pairs.zip(&cold.results) {
        assert_eq!((app.name, scheme), (pair.app.as_str(), pair.scheme));
        let compiled = CompiledApp::build(app, scheme, &CompileOptions::default()).unwrap();
        let golden = golden_steps(&compiled, spec.explore.seed).unwrap();
        let mut shared = Replayer::new(&compiled, &spec.explore, golden);
        for v in &pair.violations {
            let (outcome, blame) = shared.replay(&v.schedule);
            let (fresh_outcome, fresh_blame) =
                replay(&compiled, &spec.explore, &v.schedule, golden);
            assert_eq!(
                (outcome, format!("{blame:?}")),
                (fresh_outcome, format!("{fresh_blame:?}")),
                "{}/{}: {:?}",
                pair.app,
                scheme.name(),
                v.schedule
            );
            assert_eq!(outcome, v.outcome, "the replay re-proves the violation");
        }
        replays += shared.replays();
        drains += shared.drains();
    }
    assert_eq!((replays, drains), (1_092, 634));

    // A warm re-check runs the same pass and reports the same counts.
    let dir = std::env::temp_dir().join(format!("gecko-reprove-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let run = || {
        let store = Arc::new(MemoStore::open(&dir).unwrap());
        CheckCampaign::new(bench_grid())
            .workers(2)
            .memo(store)
            .run()
            .unwrap()
    };
    let stored = run();
    assert_eq!(
        (stored.counters.reproved, stored.counters.reprove_drains),
        (0, 0),
        "a cold store has nothing to re-prove"
    );
    let warm = run();
    assert_eq!(warm.deterministic_digest(), cold.deterministic_digest());
    assert_eq!(warm.counters.memo_windows, 360);
    assert_eq!(
        (warm.counters.reproved, warm.counters.reprove_drains),
        (1_092, 634)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The smallest `golden` whose budget lets the reference replay of
/// `schedule` finish (budgets grow with `golden`, so `Stuck` is monotone).
fn threshold(compiled: &CompiledApp, cfg: &ExploreConfig, schedule: &[PlannedInjection]) -> u64 {
    let stuck = |golden| replay(compiled, cfg, schedule, golden).0 == Outcome::Stuck;
    let (mut lo, mut hi) = (0u64, golden_steps(compiled, cfg.seed).unwrap());
    assert!(
        stuck(lo) && !stuck(hi),
        "the run must outgrow the minimum budget"
    );
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if stuck(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    hi
}

#[test]
fn a_memoized_drain_never_answers_past_the_remaining_budget() {
    // A WAR counter long enough that one drain outlasts the minimum step
    // budget. Under Ratchet a spoofed checkpoint and a power failure at
    // the same window roll back to the same committed boundary, but the
    // spoof wakes after a short debounce while the failure recharges.
    let compiled = CompiledApp::build(
        &war_counter_app(16_000),
        SchemeKind::Ratchet,
        &CompileOptions::default(),
    )
    .unwrap();
    let cfg = ExploreConfig::default();
    let at = |kind| {
        vec![PlannedInjection {
            after_steps: 40,
            kind,
        }]
    };
    let (spoof, failure) = (
        at(InjectionKind::SpoofedCheckpoint),
        at(InjectionKind::PowerFailure),
    );
    let (fits_spoof, fits_failure) = (
        threshold(&compiled, &cfg, &spoof),
        threshold(&compiled, &cfg, &failure),
    );
    assert!(
        fits_spoof < fits_failure,
        "the failure's longer settle needs the larger budget"
    );

    // Both fit: the second replay is answered from the first one's drain,
    // so the two schedules do recover into the same state.
    let mut shared = Replayer::new(&compiled, &cfg, fits_failure);
    assert_eq!(shared.replay(&spoof).0, Outcome::Clean);
    assert_eq!(shared.replay(&failure).0, Outcome::Clean);
    assert_eq!(shared.drains(), 1, "same post-recovery state");

    // Only the spoof fits: in either order each schedule is judged as
    // the reference judges it.
    let golden = fits_spoof;
    let reference = |s: &[PlannedInjection]| replay(&compiled, &cfg, s, golden);
    assert_eq!(reference(&spoof).0, Outcome::Clean);
    assert_eq!(reference(&failure).0, Outcome::Stuck);
    for order in [[&spoof, &failure], [&failure, &spoof]] {
        let mut shared = Replayer::new(&compiled, &cfg, golden);
        for schedule in order {
            let (outcome, blame) = shared.replay(schedule);
            let (want, want_blame) = reference(schedule);
            assert_eq!(
                (outcome, format!("{blame:?}")),
                (want, format!("{want_blame:?}")),
                "{schedule:?}"
            );
        }
        assert_eq!(shared.drains(), 2, "neither replay may reuse the other");
    }
}
