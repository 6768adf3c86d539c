//! Incremental persistent checking (DESIGN.md §18): a campaign with a
//! [`MemoStore`] attached persists every slab's verdicts and memo table,
//! and later campaigns answer from disk — bit-identically.
//!
//! The properties under test:
//!
//! * warm re-runs over the fig-4 scheme grid (EMI + instruction-fault
//!   primaries included) produce byte-identical reports, with ≥ 90% of
//!   windows answered from the persisted memo;
//! * digests are invariant across worker counts, steal schedules and
//!   kill-and-resume boundaries — the frontier is pure scheduling;
//! * a kill *between* mid-slab flushes (simulated by truncating the memo
//!   log at a mid-slab record) resumes bit-exactly, before and after a
//!   [`classify_memo_lines`] prune of the truncated log;
//! * recompiling one region invalidates only the slabs blamed on it.

use std::path::PathBuf;
use std::sync::Arc;

use gecko_apps::App;
use gecko_check::{
    classify_memo_lines, war_counter_app, CheckCampaign, CheckSpec, ExploreConfig, MemoStore,
};
use gecko_compiler::{fingerprint_program, CompileOptions};
use gecko_isa::{BinOp, Cond, ProgramBuilder, Reg, Word};
use gecko_sim::device::CompiledApp;
use gecko_sim::report::Json;
use gecko_sim::SchemeKind;
use gecko_store::{LogConfig, SegmentedLog, Verdict};

fn quick() -> bool {
    std::env::var_os("GECKO_QUICK").is_some()
}

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

/// One violating pair (NVP) and one clean pair (GECKO), six chunks each —
/// enough items that 2 and 8 workers genuinely interleave and steal.
fn duo_spec() -> CheckSpec {
    CheckSpec::new("steal-invariance")
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
fn kill_and_resume_digests_are_invariant_across_workers_and_steal_schedules() {
    let reference = CheckCampaign::new(duo_spec()).workers(1).run().unwrap();

    for workers in [1usize, 2, 8] {
        // Bias 1 and 999 force maximally uneven steal splits (the victim
        // keeps 0.1% / 99.9% of its lease); pure scheduling, so every
        // combination must certify the same digest. Workers = 1 never
        // steals, so the bias sweep is redundant there.
        let biases: &[u64] = if workers == 1 {
            &[500]
        } else if quick() {
            &[999]
        } else {
            &[1, 999]
        };
        for &bias in biases {
            let dir = scratch(&format!("steal-{workers}-{bias}"));
            let partial = {
                let store = Arc::new(MemoStore::open(&dir).unwrap());
                CheckCampaign::new(duo_spec())
                    .workers(workers)
                    .steal_bias(bias)
                    .memo(store)
                    .halt_after(5)
                    .run()
                    .unwrap()
            };
            assert!(partial.halted, "workers={workers} bias={bias}: must halt");
            assert_eq!(
                partial.counters.memo_windows, 0,
                "the killed run started cold"
            );

            // Resume from the reopened store alone — no journal.
            let resumed = {
                let store = Arc::new(MemoStore::open(&dir).unwrap());
                CheckCampaign::new(duo_spec())
                    .workers(workers)
                    .steal_bias(bias)
                    .memo(store)
                    .run()
                    .unwrap()
            };
            assert!(!resumed.halted);
            assert!(
                resumed.counters.memo_windows > 0,
                "workers={workers} bias={bias}: the killed run's slabs must answer"
            );
            assert_eq!(
                resumed.deterministic_digest(),
                reference.deterministic_digest(),
                "workers={workers} bias={bias}"
            );
            assert_eq!(resumed.results, reference.results);
        }
    }
}

#[test]
fn mid_chunk_kills_resume_bit_exactly_even_after_a_prune() {
    // One pair, one chunk, > 32 windows: the slab writer flushes mid-slab
    // at the 32-window boundary, which is exactly the on-disk state a
    // kill between flushes leaves behind.
    let spec = || {
        CheckSpec::new("midchunk")
            .apps([war_counter_app(10)])
            .schemes([SchemeKind::Nvp])
            .explore(ExploreConfig {
                depth: 2,
                power_failure_windows: false,
                refail_horizon: 10,
                max_windows: Some(64),
                ..ExploreConfig::default()
            })
            .chunk_windows(64)
    };
    let reference = CheckCampaign::new(spec()).run().unwrap();
    assert!(
        reference.totals.windows > 40,
        "needs a mid-slab flush: got {} windows",
        reference.totals.windows
    );

    let dir = scratch("midchunk-full");
    let lines = {
        let store = Arc::new(MemoStore::open(&dir).unwrap());
        let full = CheckCampaign::new(spec())
            .memo(Arc::clone(&store))
            .run()
            .unwrap();
        assert_eq!(
            full.deterministic_digest(),
            reference.deterministic_digest()
        );
        store.log().lines()
    };

    // Cut right after the first mid-slab record (done < total), then keep
    // any state lines that follow it: those belong to the *next* flush,
    // so they are exactly the orphans a torn final write leaves.
    let cut = lines
        .iter()
        .position(|line| {
            let Some(rec) = Json::parse_flat(line) else {
                return false;
            };
            if rec.get("kind").and_then(Json::as_str) != Some("memo_slab") {
                return false;
            }
            let u = |n: &str| rec.get(n).and_then(Json::as_u64);
            match (u("done"), u("start"), u("end")) {
                (Some(done), Some(start), Some(end)) => done < end - start,
                _ => false,
            }
        })
        .expect("a mid-slab flush record");
    let mut killed: Vec<String> = lines[..=cut].to_vec();
    for line in &lines[cut + 1..] {
        let is_state = Json::parse_flat(line)
            .is_some_and(|rec| rec.get("kind").and_then(Json::as_str) == Some("memo_state"));
        if !is_state {
            break;
        }
        killed.push(line.clone());
    }

    // The pruned variant: a compactor pass over the killed log. Orphaned
    // trailing state lines are exactly what it deletes.
    let verdicts = classify_memo_lines(&killed);
    let pruned: Vec<String> = killed
        .iter()
        .zip(&verdicts)
        .filter(|(_, v)| **v == Verdict::Keep)
        .map(|(l, _)| l.clone())
        .collect();

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
        let resumed = CheckCampaign::new(spec()).memo(store).run().unwrap();
        let (mw, w) = (resumed.counters.memo_windows, resumed.totals.windows);
        assert!(
            mw > 0 && mw < w,
            "{tag}: a mid-chunk kill resumes partially, got {mw}/{w}"
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
