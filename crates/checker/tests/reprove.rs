//! The re-prove oracle: a [`Replayer`] shared across a chunk's schedules
//! must judge every schedule exactly as a fresh [`replay`] does, blame
//! included, byte for byte.
//!
//! * Over the benchmark grid (crc16, blink and bitcnt under every scheme,
//!   depth 2, fault windows, 30 windows, seed 1) the cold check is pinned
//!   pair by pair (counters, steps included, and the report digest), every
//!   violation replays identically on one replayer per chunk, and a warm
//!   re-check reports the pinned re-prove counters: 1,092 violations
//!   re-proven by 634 drains, of which 534 join at their join points on
//!   the shared replayers and on the warm re-check alike. Cold
//!   counterexamples, shrunk on the job's workers, are identical at 1, 2
//!   and 4 workers.
//! * Under a tight step budget, two schedules that recover into the same
//!   state after settles of different lengths, and two that recover into
//!   different states and reach one join point after walks of different
//!   lengths, are each judged as the reference judges them, in either
//!   order: neither a memoized drain nor a commit-table entry answers
//!   past the remaining budget. A replayer without memoization joins
//!   nothing.

use std::sync::Arc;

use gecko_check::{
    golden_steps, replay, war_counter_app, CheckCampaign, CheckReport, CheckSpec, CheckStats,
    ExploreConfig, InjectionKind, MemoStore, Outcome, PlannedInjection, Replayer,
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

/// Per pair of the benchmark grid, in report order: `(forks, explored,
/// memo_hits, steps, violations)` of the cold check (30 windows each).
const COLD_PAIRS: [(&str, &str, [u64; 5]); 12] = [
    ("crc16", "NVP", [6_700, 1_012, 5_688, 5_477_208, 0]),
    ("crc16", "Ratchet", [6_708, 183, 6_525, 2_116_457, 0]),
    ("crc16", "GECKO", [6_712, 2_098, 4_614, 12_109_532, 154]),
    (
        "crc16",
        "GECKO w/o pruning",
        [6_712, 2_589, 4_123, 16_051_561, 556],
    ),
    ("blink", "NVP", [6_148, 1_080, 5_068, 673_318, 0]),
    ("blink", "Ratchet", [6_476, 426, 6_050, 692_744, 0]),
    ("blink", "GECKO", [6_564, 2_637, 3_927, 832_131, 0]),
    (
        "blink",
        "GECKO w/o pruning",
        [6_564, 2_421, 4_143, 858_910, 0],
    ),
    ("bitcnt", "NVP", [6_708, 888, 5_820, 4_032_939, 0]),
    ("bitcnt", "Ratchet", [6_716, 224, 6_492, 1_972_877, 0]),
    ("bitcnt", "GECKO", [6_720, 1_864, 4_856, 8_138_026, 106]),
    (
        "bitcnt",
        "GECKO w/o pruning",
        [6_720, 2_073, 4_647, 9_219_294, 276],
    ),
];

/// The cold check's report digest on the benchmark grid. Joins at region
/// commits never moved it. Counterexamples are digested, so it moved
/// (from `0xa16c_33b3_31fc_7e30`) when a crash began to disarm a pending
/// one-shot fault: the shrunk crc16 GECKO counterexamples stopped blaming
/// the first instruction after the reboot.
const COLD_DIGEST: u64 = 0xcecd_65d8_9231_8cd0;

/// Pins a cold check of the benchmark grid: every pair's counters, the
/// totals and the digest.
fn assert_pinned(cold: &CheckReport) {
    let pairs: Vec<(&str, &str, CheckStats)> = cold
        .results
        .iter()
        .map(|p| (p.app.as_str(), p.scheme.name(), p.stats))
        .collect();
    let want: Vec<(&str, &str, CheckStats)> = COLD_PAIRS
        .iter()
        .map(
            |&(app, scheme, [forks, explored, memo_hits, steps, violations])| {
                let stats = CheckStats {
                    windows: 30,
                    forks,
                    explored,
                    memo_hits,
                    steps,
                    violations,
                };
                (app, scheme, stats)
            },
        )
        .collect();
    assert_eq!(pairs, want);
    let t = cold.totals;
    assert_eq!(
        (t.windows, t.forks, t.explored, t.memo_hits),
        (360, 79_448, 17_495, 61_953)
    );
    assert_eq!((t.steps, t.violations), (62_174_997, 1_092));
    assert_eq!(cold.deterministic_digest(), COLD_DIGEST);
}

#[test]
fn a_shared_replayer_matches_fresh_replays_over_the_bench_grid() {
    let spec = bench_grid();
    let cold = CheckCampaign::new(bench_grid()).workers(2).run().unwrap();
    assert_pinned(&cold);
    // Keyed on the drain-readable state, most drains join: 15,935 of the
    // 17,495 explored, NVP's loop-header joins included (13,602 with
    // region commits alone, 7,081 when the commit table keyed on the full
    // state).
    let joins = cold.counters.drain_joins;
    assert!(
        joins >= 15_500,
        "only {joins} cold drains joined at their join points"
    );

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

/// The re-prove drains of the benchmark grid that join at their join
/// points, on one replayer per pair and on a warm re-check alike.
const REPROVE_JOINS: u64 = 534;

#[test]
fn the_bench_grids_reprove_joins_are_pinned() {
    let spec = bench_grid();
    let dir = std::env::temp_dir().join(format!("gecko-reprove-joins-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let run = || {
        let store = Arc::new(MemoStore::open(&dir).unwrap());
        CheckCampaign::new(bench_grid())
            .workers(2)
            .memo(store)
            .run()
            .unwrap()
    };
    let cold = run();
    assert_eq!(cold.deterministic_digest(), COLD_DIGEST);
    assert_eq!(cold.counters.reprove_joins, 0, "nothing to re-prove cold");

    let (mut drains, mut joins) = (0u64, 0u64);
    let pairs = spec
        .apps
        .iter()
        .flat_map(|app| spec.schemes.iter().map(move |&scheme| (app, scheme)));
    for ((app, scheme), pair) in pairs.zip(&cold.results) {
        let compiled = CompiledApp::build(app, scheme, &CompileOptions::default()).unwrap();
        let golden = golden_steps(&compiled, spec.explore.seed).unwrap();
        let mut shared = Replayer::new(&compiled, &spec.explore, golden);
        for v in &pair.violations {
            assert_eq!(shared.replay(&v.schedule).0, v.outcome);
        }
        drains += shared.drains();
        joins += shared.joins();
    }
    assert_eq!((drains, joins), (634, REPROVE_JOINS));

    let warm = run();
    assert_eq!(warm.deterministic_digest(), COLD_DIGEST);
    assert_eq!(
        (warm.counters.reprove_drains, warm.counters.reprove_joins),
        (634, REPROVE_JOINS)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cold_counterexamples_are_identical_at_any_worker_count() {
    let run = |workers| {
        CheckCampaign::new(bench_grid())
            .workers(workers)
            .run()
            .unwrap()
    };
    let reference = run(1);
    assert_pinned(&reference);
    let shrunk = |report: &CheckReport| -> Vec<String> {
        report
            .results
            .iter()
            .map(|p| format!("{:?}", p.counterexample))
            .collect()
    };
    assert_eq!(
        reference
            .results
            .iter()
            .filter(|p| p.counterexample.is_some())
            .count(),
        4,
        "every failing pair shrinks"
    );
    for workers in [2, 4] {
        let report = run(workers);
        assert_eq!(shrunk(&report), shrunk(&reference), "{workers} workers");
        assert_eq!(report.counters.drain_joins, reference.counters.drain_joins);
        assert_eq!(report.deterministic_digest(), COLD_DIGEST);
    }
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

/// A WAR counter under GECKO, and two schedules that recover into
/// different states and reach one join point: a power failure rolls back
/// to the start of its region and re-executes it, while a spoofed
/// checkpoint a step later saves the registers just in time and resumes
/// where it stopped. Both walk on to the region's commit.
fn one_join_point() -> (CompiledApp, [Vec<PlannedInjection>; 2]) {
    let compiled = CompiledApp::build(
        &war_counter_app(16_000),
        SchemeKind::Gecko,
        &CompileOptions::default(),
    )
    .unwrap();
    let at = |after_steps, kind| vec![PlannedInjection { after_steps, kind }];
    let failure = at(30, InjectionKind::PowerFailure);
    let spoof = at(31, InjectionKind::SpoofedCheckpoint);
    (compiled, [failure, spoof])
}

#[test]
fn a_commit_table_entry_never_answers_past_the_remaining_budget() {
    let (compiled, [failure, spoof]) = one_join_point();
    let cfg = ExploreConfig::default();
    let (fits_spoof, fits_failure) = (
        threshold(&compiled, &cfg, &spoof),
        threshold(&compiled, &cfg, &failure),
    );
    assert!(
        fits_spoof < fits_failure,
        "the failure's longer recovery needs the larger budget"
    );

    // Both fit: in either order the second drain joins the first at the
    // commit, with no wake-state hit between them.
    for order in [[&spoof, &failure], [&failure, &spoof]] {
        let mut shared = Replayer::new(&compiled, &cfg, fits_failure);
        for schedule in order {
            assert_eq!(shared.replay(schedule).0, Outcome::Clean);
        }
        assert_eq!((shared.drains(), shared.joins()), (2, 1));
    }

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
        assert_eq!(shared.joins(), 0, "neither replay may join the other");
    }
}

#[test]
fn a_replayer_without_memoization_joins_nothing() {
    let (compiled, [failure, spoof]) = one_join_point();
    let on = ExploreConfig::default();
    let off = ExploreConfig {
        memoize: false,
        ..on
    };
    let golden = golden_steps(&compiled, on.seed).unwrap();
    let counts = |cfg: &ExploreConfig| {
        let mut replayer = Replayer::new(&compiled, cfg, golden);
        for schedule in [&failure, &spoof, &failure] {
            assert_eq!(replayer.replay(schedule).0, Outcome::Clean);
        }
        (replayer.drains(), replayer.joins())
    };
    assert_eq!(counts(&on), (2, 1));
    assert_eq!(counts(&off), (3, 0));
}
