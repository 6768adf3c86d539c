//! Kill-mid-prune resilience: compacting a segmented campaign journal
//! under a work budget — with the log reopened from disk before every
//! call, as if the process was killed between them — must be invisible
//! to a bit-exact resume at any worker count.
//!
//! These are the integration-level proofs for the gecko-store contract;
//! the unit tests in `gecko_store::compact` cover the same invariants on
//! a toy vocabulary.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use gecko_fleet::{classify_campaign_lines, Campaign, CampaignSpec, Journal, SchemeKind, Workload};
use gecko_isa::SplitMix64;
use gecko_store::{LogConfig, SegmentedLog};

fn spec() -> CampaignSpec {
    CampaignSpec::new("prune")
        .apps(["blink", "crc16"])
        .schemes([SchemeKind::Nvp, SchemeKind::Gecko])
        .seeds([1, 2, 3])
        .workload(Workload::RunFor { seconds: 0.002 })
}

const ITEMS: u64 = 2 * 2 * 3;

/// Tiny segments so even this small campaign rolls several of them —
/// otherwise every line sits in the unsealed (never pruned) tail.
fn tiny_cfg() -> LogConfig {
    LogConfig {
        max_segment_bytes: 512,
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gecko-fleet-prune-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One budgeted compaction with the log opened fresh from disk — every
/// call is a separate "process", so a kill between calls is the norm
/// here, not the exception. Returns whether the backlog is clear.
fn prune_tick(dir: &Path, delete_limit: usize) -> bool {
    let log = SegmentedLog::open(&dir.join("journal"), tiny_cfg()).unwrap();
    log.compact(classify_campaign_lines, delete_limit)
        .unwrap()
        .done
}

/// Byte-copies the segment files of one journal dir into another.
fn copy_journal(from: &Path, to: &Path) {
    std::fs::create_dir_all(to.join("journal")).unwrap();
    for entry in std::fs::read_dir(from.join("journal")).unwrap().flatten() {
        std::fs::copy(entry.path(), to.join("journal").join(entry.file_name())).unwrap();
    }
}

#[test]
fn kill_mid_prune_resume_is_bit_exact_at_1_2_8_workers() {
    let reference = Campaign::new(spec()).run().unwrap().deterministic_digest();
    for workers in [1usize, 2, 8] {
        let dir = temp_dir(&format!("kill-w{workers}"));

        // Run partway into a segmented journal, halting deterministically.
        let journal = Arc::new(Journal::open_segmented(&dir.join("journal"), tiny_cfg()).unwrap());
        let halted = Campaign::new(spec())
            .workers(workers)
            .journal(Arc::clone(&journal))
            .halt_after(5)
            .run()
            .unwrap();
        assert!(halted.halted, "workers={workers}");
        drop(journal);

        // Budgeted compactions with the log reopened from disk between
        // each one.
        for _ in 0..4 {
            prune_tick(&dir, 3);
        }

        // Resume from the pruned journal: same digest as uninterrupted.
        let journal = Arc::new(Journal::open_segmented(&dir.join("journal"), tiny_cfg()).unwrap());
        let resumed = Campaign::new(spec())
            .workers(workers)
            .journal(journal)
            .run()
            .unwrap();
        assert!(resumed.counters.resumed >= 5, "workers={workers}");
        assert_eq!(
            resumed.deterministic_digest(),
            reference,
            "pruning must be invisible to resume (workers={workers})"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn prune_and_resume_commute_and_budget_one_converges() {
    let reference = Campaign::new(spec()).run().unwrap().deterministic_digest();
    let mut rng = SplitMix64::new(0x5EED_F00D);
    for round in 0..3u32 {
        let halt = 2 + rng.next_u64() % 6;
        let budget = 1 + (rng.next_u64() % 3) as usize;
        let a = temp_dir(&format!("commute-a{round}"));
        let b = temp_dir(&format!("commute-b{round}"));

        // One halted run, then byte-identical copies for both paths.
        let journal = Arc::new(Journal::open_segmented(&a.join("journal"), tiny_cfg()).unwrap());
        Campaign::new(spec())
            .workers(2)
            .journal(Arc::clone(&journal))
            .halt_after(halt)
            .run()
            .unwrap();
        drop(journal);
        copy_journal(&a, &b);

        // Path 1: prune to a clear backlog, then resume.
        while !prune_tick(&a, budget) {}
        let journal = Arc::new(Journal::open_segmented(&a.join("journal"), tiny_cfg()).unwrap());
        let pruned_first = Campaign::new(spec())
            .workers(2)
            .journal(journal)
            .run()
            .unwrap();
        assert_eq!(pruned_first.deterministic_digest(), reference, "{round}");

        // Path 2: resume first, then prune the completed journal. A
        // second resume must then find every run journaled — pruning
        // after the fact deleted nothing the decoder needed.
        let journal = Arc::new(Journal::open_segmented(&b.join("journal"), tiny_cfg()).unwrap());
        let resumed_first = Campaign::new(spec())
            .workers(2)
            .journal(journal)
            .run()
            .unwrap();
        assert_eq!(resumed_first.deterministic_digest(), reference, "{round}");
        let (c, d) = (
            temp_dir(&format!("commute-c{round}")),
            temp_dir(&format!("commute-d{round}")),
        );
        copy_journal(&b, &c);
        copy_journal(&b, &d);
        while !prune_tick(&b, budget) {}
        let journal = Arc::new(Journal::open_segmented(&b.join("journal"), tiny_cfg()).unwrap());
        let replayed = Campaign::new(spec())
            .workers(2)
            .journal(journal)
            .run()
            .unwrap();
        assert_eq!(replayed.counters.resumed, ITEMS, "round {round}");
        assert_eq!(replayed.deterministic_digest(), reference, "{round}");

        // Convergence: delete_limit=1 drip-pruning of the resumed,
        // uncompacted journal lands on the exact segment layout one
        // unlimited call produces.
        while !prune_tick(&d, 1) {}
        assert!(prune_tick(&c, 0), "an unlimited call clears the backlog");
        let drip = SegmentedLog::open(&d.join("journal"), tiny_cfg()).unwrap();
        let bulk = SegmentedLog::open(&c.join("journal"), tiny_cfg()).unwrap();
        let layout = |log: &SegmentedLog| -> Vec<(u64, bool, Vec<String>)> {
            log.segment_lines()
                .into_iter()
                .map(|s| (s.seq, s.sealed, s.lines))
                .collect()
        };
        assert_eq!(
            layout(&drip),
            layout(&bulk),
            "budget-1 pruning must converge to the unlimited layout (round {round})"
        );

        for dir in [&a, &b, &c, &d] {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}
