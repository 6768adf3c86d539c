//! Incremental persistent checking (DESIGN.md §18): a campaign with a
//! [`MemoStore`] attached persists every slab's verdicts and memo table,
//! and later campaigns answer from disk — bit-identically.
//!
//! The properties under test:
//!
//! * warm re-runs over the fig-4 scheme grid (EMI + instruction-fault
//!   primaries included) produce byte-identical reports, with ≥ 90% of
//!   windows answered from the persisted memo;
//! * digests are invariant across worker counts and kill-and-resume
//!   boundaries;
//! * a cold check writes one record per chunk, once, and a chunk
//!   quarantined for its step budget leaves none, so a warm re-check
//!   reproduces the cold report;
//! * a kill mid-chunk (simulated by cutting the memo log inside the
//!   chunk's record) re-explores that chunk whole and resumes
//!   bit-exactly, before and after a [`classify_memo_lines`] prune;
//! * recompiling one region invalidates only the slabs blamed on it;
//! * warm re-checks re-prove persisted violations identically at any
//!   worker count, and a slab whose persisted outcome was tampered with
//!   is re-explored, alone, to the cold report.

use std::path::PathBuf;
use std::sync::Arc;

use gecko_apps::App;
use gecko_check::{
    classify_memo_lines, war_counter_app, CheckCampaign, CheckReport, CheckSpec, ExploreConfig,
    MemoStore,
};
use gecko_compiler::{fingerprint_program, CompileOptions};
use gecko_fleet::{RunFailure, SupervisorSpec};
use gecko_isa::{BinOp, Cond, ProgramBuilder, Reg, Word};
use gecko_sim::device::CompiledApp;
use gecko_sim::report::Json;
use gecko_sim::SchemeKind;
use gecko_store::{LogConfig, SegmentedLog, Verdict};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gecko-incr-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The fig-4 scheme grid over the WAR counter, EMI + instruction-fault
/// primaries at depth 2 (plain power failures off: they are clean under
/// every scheme here and only add wall time). NVP violates; Ratchet and
/// GECKO stay clean.
fn grid_spec() -> CheckSpec {
    CheckSpec::new("incremental-grid")
        .apps([war_counter_app(6)])
        .schemes([SchemeKind::Nvp, SchemeKind::Ratchet, SchemeKind::Gecko])
        .explore(ExploreConfig {
            depth: 2,
            power_failure_windows: false,
            fault_windows: true,
            refail_horizon: 10,
            max_windows: Some(24),
            ..ExploreConfig::default()
        })
        .chunk_windows(8)
}

#[test]
fn warm_reruns_are_byte_identical_and_memo_backed() {
    // The no-store run is the ground truth everything must match.
    let reference = CheckCampaign::new(grid_spec()).workers(2).run().unwrap();
    assert!(
        !reference.results[0].violations.is_empty(),
        "NVP must violate under EMI"
    );
    assert!(reference.results[2].is_clean(), "GECKO must stay clean");

    let dir = scratch("grid");
    let cold = {
        let store = Arc::new(MemoStore::open(&dir).unwrap());
        CheckCampaign::new(grid_spec())
            .workers(2)
            .memo(store)
            .run()
            .unwrap()
    };
    assert_eq!(
        cold.deterministic_digest(),
        reference.deterministic_digest(),
        "attaching a store must not change the report"
    );
    assert_eq!(
        cold.counters.memo_windows, 0,
        "a cold store answers nothing"
    );
    assert!(cold.memo_generation.is_some());

    // Warm: a *reopened* store (fresh process, same directory) answers
    // the whole campaign from disk.
    let warm = {
        let store = Arc::new(MemoStore::open(&dir).unwrap());
        CheckCampaign::new(grid_spec())
            .workers(2)
            .memo(store)
            .run()
            .unwrap()
    };
    assert_eq!(
        warm.deterministic_digest(),
        reference.deterministic_digest()
    );
    assert_eq!(
        warm.results, reference.results,
        "per-pair stats + violations"
    );
    assert_eq!(warm.totals, reference.totals);
    assert!(
        warm.counters.memo_windows * 10 >= warm.totals.windows * 9,
        "only {} of {} windows memo-answered",
        warm.counters.memo_windows,
        warm.totals.windows
    );
    assert_eq!(
        warm.memo_generation, cold.memo_generation,
        "same spec, same generation: the proof-of-clean names stable evidence"
    );
}

#[test]
fn warm_reproofs_are_invariant_across_workers() {
    let dir = scratch("reprove-workers");
    let run = |workers: usize| {
        let store = Arc::new(MemoStore::open(&dir).unwrap());
        CheckCampaign::new(grid_spec())
            .workers(workers)
            .memo(store)
            .run()
            .unwrap()
    };
    let cold = run(2);
    assert!(
        cold.totals.violations > 0,
        "violations exercise the re-prove"
    );
    for workers in [1usize, 2, 4] {
        let warm = run(workers);
        assert_eq!(
            warm.deterministic_digest(),
            cold.deterministic_digest(),
            "workers={workers}"
        );
        assert_eq!(warm.results, cold.results, "workers={workers}");
        assert_eq!(
            warm.counters.memo_windows, warm.totals.windows,
            "workers={workers}: every slab answers"
        );
        assert_eq!(
            warm.counters.reproved, cold.totals.violations,
            "workers={workers}: every persisted violation is re-proven"
        );
        assert!(warm.counters.reprove_drains <= warm.counters.reproved);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Rewrites the outcome of the first violation in a `memo_slab` line to a
/// different one, or returns `None` for a slab without violations.
fn tamper_first_outcome(line: &str) -> Option<String> {
    let viols = line.find(r#""viols":""#)? + r#""viols":""#.len();
    let rest = &line[viols..];
    let first = &rest[..rest.find([';', '"'])?];
    let outcome_at = viols + first.rfind('|')? + 1;
    let outcome = &line[outcome_at..viols + first.len()];
    let forged = match outcome.strip_prefix("corrupt.") {
        Some(got) => format!("corrupt.{}", got.parse::<u32>().ok()?.wrapping_add(1)),
        None if outcome == "clean" => "stuck".to_string(),
        None => "clean".to_string(),
    };
    Some(format!(
        "{}{forged}{}",
        &line[..outcome_at],
        &line[viols + first.len()..]
    ))
}

#[test]
fn a_tampered_persisted_outcome_re_explores_only_its_chunk() {
    let dir = scratch("tamper-cold");
    let (cold, lines) = {
        let store = Arc::new(MemoStore::open(&dir).unwrap());
        let cold = CheckCampaign::new(grid_spec())
            .workers(2)
            .memo(Arc::clone(&store))
            .run()
            .unwrap();
        (cold, store.log().lines())
    };
    let mut tampered = lines.clone();
    let (at, forged) = tampered
        .iter()
        .enumerate()
        .filter(|(_, l)| kind_of(l).as_deref() == Some("memo_slab"))
        .find_map(|(i, l)| Some((i, tamper_first_outcome(l)?)))
        .expect("some slab persists a violation");
    let rec = Json::parse_flat(&forged).expect("the forged slab still parses");
    let field = |name: &str| rec.get(name).and_then(Json::as_u64).unwrap();
    let forged_windows = field("end") - field("start");
    tampered[at] = forged;

    let rdir = scratch("tamper-warm");
    {
        let log = SegmentedLog::open(&rdir, LogConfig::default()).unwrap();
        for line in &tampered {
            log.append(line);
        }
        let _ = log.sync();
    }
    let warm = {
        let store = Arc::new(MemoStore::open(&rdir).unwrap());
        CheckCampaign::new(grid_spec())
            .workers(2)
            .memo(store)
            .run()
            .unwrap()
    };
    assert_eq!(warm.deterministic_digest(), cold.deterministic_digest());
    assert_eq!(warm.results, cold.results);
    assert!(warm.failures.is_empty(), "{:?}", warm.failures);
    assert_eq!(
        warm.counters.memo_windows,
        warm.totals.windows - forged_windows,
        "only the tampered chunk re-explores"
    );
    for d in [dir, rdir] {
        let _ = std::fs::remove_dir_all(d);
    }
}

/// One violating pair (NVP) and one clean pair (GECKO), six chunks each —
/// enough items that 2 and 8 workers genuinely interleave.
fn duo_spec() -> CheckSpec {
    CheckSpec::new("worker-invariance")
        .apps([war_counter_app(6)])
        .schemes([SchemeKind::Nvp, SchemeKind::Gecko])
        .explore(ExploreConfig {
            depth: 2,
            power_failure_windows: false,
            refail_horizon: 12,
            max_windows: Some(48),
            ..ExploreConfig::default()
        })
        .chunk_windows(8)
}

#[test]
fn kill_and_resume_digests_are_invariant_across_workers() {
    let reference = CheckCampaign::new(duo_spec()).workers(1).run().unwrap();

    for workers in [1usize, 2, 8] {
        let dir = scratch(&format!("workers-{workers}"));
        let partial = {
            let store = Arc::new(MemoStore::open(&dir).unwrap());
            CheckCampaign::new(duo_spec())
                .workers(workers)
                .memo(store)
                .halt_after(5)
                .run()
                .unwrap()
        };
        assert!(partial.halted, "workers={workers}: must halt");
        assert_eq!(
            partial.counters.memo_windows, 0,
            "the killed run started cold"
        );

        // Resume from the reopened store alone — no journal.
        let resumed = {
            let store = Arc::new(MemoStore::open(&dir).unwrap());
            CheckCampaign::new(duo_spec())
                .workers(workers)
                .memo(store)
                .run()
                .unwrap()
        };
        assert!(!resumed.halted);
        assert!(
            resumed.counters.memo_windows > 0,
            "workers={workers}: the killed run's slabs must answer"
        );
        assert_eq!(
            resumed.deterministic_digest(),
            reference.deterministic_digest(),
            "workers={workers}"
        );
        assert_eq!(resumed.results, reference.results);
    }
}

/// The (app, scheme, window) quarantine fingerprint of a report: every
/// failure must be a step-budget timeout.
fn timeouts(report: &CheckReport) -> Vec<(u64, usize, u64)> {
    report
        .failures
        .iter()
        .map(|f| match f {
            RunFailure::TimedOut {
                run_key,
                item,
                steps,
                ..
            } => (*run_key, *item, *steps),
            other => panic!("unexpected failure {other:?}"),
        })
        .collect()
}

#[test]
fn over_budget_chunks_stay_quarantined_on_warm_rechecks() {
    // crc16 and blink under NVP and GECKO, 30 windows each: one chunk per
    // pair. A step cap just under the costliest chunk quarantines it.
    let spec = || {
        CheckSpec::new("budget-leak")
            .app_names(&["crc16", "blink"])
            .unwrap()
            .schemes([SchemeKind::Nvp, SchemeKind::Gecko])
            .explore(ExploreConfig {
                seed: 1,
                ..ExploreConfig::default().with_depth(2).with_max_windows(30)
            })
    };
    let uncapped = CheckCampaign::new(spec()).workers(2).run().unwrap();
    let max_steps = uncapped
        .results
        .iter()
        .map(|r| r.stats.steps)
        .max()
        .unwrap()
        - 1;
    let capped = || {
        CheckCampaign::new(spec())
            .workers(2)
            .supervisor(SupervisorSpec {
                max_steps: Some(max_steps),
                ..SupervisorSpec::default()
            })
    };
    let storeless = capped().run().unwrap();
    assert!(
        !storeless.failures.is_empty(),
        "the cap must quarantine a chunk"
    );

    let dir = scratch("budget-leak");
    let run = || {
        let store = Arc::new(MemoStore::open(&dir).unwrap());
        capped().memo(store).run().unwrap()
    };
    let cold = run();
    let warm = run();
    for (tag, report) in [("cold", &cold), ("warm", &warm)] {
        assert_eq!(timeouts(report), timeouts(&storeless), "{tag}: failures");
        assert_eq!(report.results, storeless.results, "{tag}: results");
        assert_eq!(
            report.deterministic_digest(),
            storeless.deterministic_digest(),
            "{tag}: digest"
        );
    }
    assert!(warm.counters.memo_windows > 0, "the passing chunks answer");
    let _ = std::fs::remove_dir_all(&dir);
}

/// One pair (NVP over the WAR counter) in two chunks of over 32 windows.
fn long_chunks_spec() -> CheckSpec {
    CheckSpec::new("long-chunks")
        .apps([war_counter_app(10)])
        .schemes([SchemeKind::Nvp])
        .explore(ExploreConfig {
            depth: 2,
            power_failure_windows: false,
            refail_horizon: 10,
            max_windows: Some(68),
            ..ExploreConfig::default()
        })
        .chunk_windows(34)
}

fn kind_of(line: &str) -> Option<String> {
    Some(Json::parse_flat(line)?.get("kind")?.as_str()?.to_string())
}

#[test]
fn a_cold_check_writes_one_record_per_chunk() {
    let dir = scratch("write-once");
    let store = Arc::new(MemoStore::open(&dir).unwrap());
    let cold = CheckCampaign::new(long_chunks_spec())
        .memo(Arc::clone(&store))
        .run()
        .unwrap();
    assert_eq!(cold.totals.windows, 68, "two full 34-window chunks");
    let kinds: Vec<Option<String>> = store.log().lines().iter().map(|l| kind_of(l)).collect();
    let expect = |kind: &str| Some(kind.to_string());
    assert_eq!(
        kinds,
        [
            expect("memo_meta"),
            expect("memo_slab"),
            expect("memo_slab")
        ],
        "one meta, then one slab per chunk"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mid_chunk_kills_resume_bit_exactly_even_after_a_prune() {
    let reference = CheckCampaign::new(long_chunks_spec()).run().unwrap();

    let dir = scratch("midchunk-full");
    let lines = {
        let store = Arc::new(MemoStore::open(&dir).unwrap());
        let full = CheckCampaign::new(long_chunks_spec())
            .memo(Arc::clone(&store))
            .run()
            .unwrap();
        assert_eq!(
            full.deterministic_digest(),
            reference.deterministic_digest()
        );
        store.log().lines()
    };

    // A kill while the second chunk's record was being appended: the log
    // ends in a torn prefix of it.
    let (last, kept) = lines.split_last().unwrap();
    assert_eq!(kind_of(last).as_deref(), Some("memo_slab"));
    let mut killed = kept.to_vec();
    killed.push(last[..last.len() / 2].to_string());

    // The pruned variant: a compactor pass over the killed log. The torn
    // record is exactly what it deletes.
    let verdicts = classify_memo_lines(&killed);
    let pruned: Vec<String> = killed
        .iter()
        .zip(&verdicts)
        .filter(|(_, v)| **v == Verdict::Keep)
        .map(|(l, _)| l.clone())
        .collect();
    assert_eq!(pruned, kept);

    for (tag, log_lines) in [("raw", &killed), ("pruned", &pruned)] {
        let rdir = scratch(&format!("midchunk-{tag}"));
        {
            let log = SegmentedLog::open(&rdir, LogConfig::default()).unwrap();
            for line in log_lines.iter() {
                log.append(line);
            }
            let _ = log.sync();
        }
        let store = Arc::new(MemoStore::open(&rdir).unwrap());
        let resumed = CheckCampaign::new(long_chunks_spec())
            .memo(store)
            .run()
            .unwrap();
        assert_eq!(
            resumed.counters.memo_windows, 34,
            "{tag}: the first chunk answers, the killed one re-explores whole"
        );
        assert_eq!(
            resumed.deterministic_digest(),
            reference.deterministic_digest(),
            "{tag}: resume must be bit-exact"
        );
        assert_eq!(resumed.results, reference.results, "{tag}");
    }
}

/// The WAR counter with the two entry-block `mov`s swappable: both orders
/// compute the identical golden trace (same length, same checksum), but
/// the entry block — region 0's boundary block — renders differently, so
/// only region 0's fingerprint changes across the "recompile".
fn warvar_app(reordered: bool) -> App {
    let iterations: Word = 6;
    let mut b = ProgramBuilder::new("warvar");
    let out = b.segment("out", 2, true);
    let (i, acc, base) = (Reg::R1, Reg::R2, Reg::R3);
    if reordered {
        b.mov(i, 0);
        b.mov(base, out as i32);
    } else {
        b.mov(base, out as i32);
        b.mov(i, 0);
    }
    b.store(i, base, 1);
    let head = b.new_label("head");
    let body = b.new_label("body");
    let exit = b.new_label("exit");
    b.bind(head);
    b.set_loop_bound(iterations as u32);
    b.branch(Cond::Lt, i, iterations, body, exit);
    b.bind(body);
    b.load(acc, base, 1);
    b.bin(BinOp::Add, acc, acc, 1);
    b.store(acc, base, 1);
    b.bin(BinOp::Add, i, i, 1);
    b.jump(head);
    b.bind(exit);
    b.load(acc, base, 1);
    b.store(acc, base, 0);
    b.halt();
    App {
        name: "warvar",
        program: b.finish().expect("warvar builds"),
        image: vec![],
        checksum_addr: out,
        expected_checksum: iterations,
    }
}

fn changed_spec(app: App) -> CheckSpec {
    CheckSpec::new("change-driven")
        .apps([app])
        .schemes([SchemeKind::Ratchet])
        .explore(ExploreConfig {
            max_windows: Some(40),
            ..ExploreConfig::default()
        })
        .chunk_windows(8)
}

#[test]
fn recompiling_one_region_invalidates_only_the_slabs_blamed_on_it() {
    let (v1, v2) = (warvar_app(false), warvar_app(true));

    // Premise: the variants compile to different programs with the same
    // region structure, and the edit lands in *some but not all* region
    // fingerprints — the shape change-driven invalidation keys on.
    let opts = CompileOptions::default();
    let c1 = CompiledApp::build(&v1, SchemeKind::Ratchet, &opts).unwrap();
    let c2 = CompiledApp::build(&v2, SchemeKind::Ratchet, &opts).unwrap();
    let f1 = fingerprint_program(&c1.program, &c1.recovery);
    let f2 = fingerprint_program(&c2.program, &c2.recovery);
    assert_ne!(f1.program, f2.program, "the reorder changes the program");
    let keys: Vec<u32> = f1.regions.keys().copied().collect();
    assert_eq!(
        keys,
        f2.regions.keys().copied().collect::<Vec<u32>>(),
        "the reorder keeps the region structure"
    );
    let changed: Vec<u32> = keys
        .iter()
        .copied()
        .filter(|k| f1.regions[k] != f2.regions[k])
        .collect();
    assert!(!changed.is_empty(), "the entry region's code changed");
    assert!(
        changed.len() < keys.len(),
        "the loop regions are untouched: changed {changed:?} of {keys:?}"
    );

    let reference_v2 = CheckCampaign::new(changed_spec(v2.clone())).run().unwrap();

    let dir = scratch("changed");
    {
        let store = Arc::new(MemoStore::open(&dir).unwrap());
        let cold = CheckCampaign::new(changed_spec(v1.clone()))
            .memo(store)
            .run()
            .unwrap();
        assert_eq!(cold.counters.memo_windows, 0);
    }
    {
        // v1 warm: nothing changed, every slab answers from disk.
        let store = Arc::new(MemoStore::open(&dir).unwrap());
        let warm = CheckCampaign::new(changed_spec(v1))
            .memo(store)
            .run()
            .unwrap();
        assert_eq!(
            warm.counters.memo_windows, warm.totals.windows,
            "an unchanged program reuses every slab"
        );
    }
    {
        // v2 warm over v1's store: both specs fingerprint identically
        // (same name, same grid), so the store is *not* cleared — but the
        // slabs blamed on the edited entry region fail revalidation and
        // re-explore, while the loop-region slabs keep answering.
        let store = Arc::new(MemoStore::open(&dir).unwrap());
        let warm = CheckCampaign::new(changed_spec(v2))
            .memo(store)
            .run()
            .unwrap();
        assert_eq!(
            warm.deterministic_digest(),
            reference_v2.deterministic_digest(),
            "selective reuse must still be bit-exact"
        );
        assert_eq!(warm.results, reference_v2.results);
        let (mw, w) = (warm.counters.memo_windows, warm.totals.windows);
        assert!(mw > 0, "unblamed slabs must survive the recompile");
        assert!(mw < w, "the changed region's slabs must re-explore");
        assert!(
            mw + 16 >= w,
            "invalidation is selective — at most the chunks touching the \
             changed region re-explore: {mw}/{w}"
        );
    }
}
