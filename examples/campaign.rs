//! Campaign quickstart: the Figure-11-style grid (apps × schemes) run
//! through the `gecko-fleet` engine, once on a single worker and once on a
//! pool, demonstrating that parallelism changes wall-clock but not one bit
//! of the results.
//!
//! Output: the fleet summary table (per-item metrics rolled up), the two
//! wall-clock times, and two deterministic digests that must be equal.
//!
//! Four flags exercise the supervision layer:
//!
//! * `--chaos` — rerun the grid with seeded fault injection (panics +
//!   transients). Injected panics are quarantined into structured
//!   failures, retries are bounded, and the failure set is bit-identical
//!   on 1 worker and on the pool.
//! * `--resume` — journal the campaign, kill it partway with the
//!   deterministic halt switch, then resume from the journal and show the
//!   merged report is bit-exact against the uninterrupted run.
//! * `--drain` — graceful shutdown: flip the kill switch from another
//!   thread mid-campaign (the signal a daemon sends its workers). Workers
//!   finish the run they are on and journal it — a clean checkpoint, not
//!   an abandoned pool — and a resume completes to the same digest.
//! * `--prune` — journal to a segmented on-disk store, kill partway,
//!   compact the journal under a work budget with `gecko-store`'s pruner
//!   (rebuilt from its persisted checkpoint between ticks, as if killed
//!   mid-prune too), then resume and show pruning was invisible.
//!
//! ```sh
//! cargo run --release --example campaign
//! GECKO_WORKERS=8 cargo run --release --example campaign
//! cargo run --release --example campaign -- --chaos --resume --drain --prune
//! ```

use std::sync::Arc;

use gecko_suite::fleet::{
    fleet_summary, Campaign, CampaignSpec, ChaosSpec, Journal, SchemeKind, Workload,
};

fn spec() -> CampaignSpec {
    CampaignSpec::new("fig11-style")
        .apps(
            gecko_suite::apps::all_apps()
                .iter()
                .map(|a| a.name.to_string()),
        )
        .schemes(SchemeKind::all())
        .workload(Workload::UntilCompletions {
            n: 3,
            max_seconds: 30.0,
        })
}

/// `--chaos`: seeded fault injection, quarantined deterministically.
fn chaos_demo(workers: usize) {
    let chaos = ChaosSpec {
        seed: 0xC4A05,
        panic_per_mille: 150,
        transient_per_mille: 200,
        ..ChaosSpec::off()
    };
    println!("\n--chaos: injecting seeded panics (15%) and transients (20%)...");
    let solo = Campaign::new(spec())
        .workers(1)
        .chaos(chaos)
        .run()
        .expect("campaign");
    let fleet = Campaign::new(spec())
        .workers(workers)
        .chaos(chaos)
        .run()
        .expect("campaign");
    println!(
        "quarantined {} failure(s), {} retried attempt(s); workers kept draining the queue",
        fleet.counters.failures, fleet.counters.retries
    );
    for f in &fleet.failures {
        println!("  {} {}", f.kind().name(), f.describe());
    }
    assert_eq!(
        solo.failures, fleet.failures,
        "chaos is keyed on (seed, run key, attempt), not on scheduling"
    );
    assert_eq!(solo.deterministic_digest(), fleet.deterministic_digest());
    println!("failure sets and digests agree on 1 worker and {workers} workers");
}

/// `--resume`: journal, kill partway, resume, compare bit-exactly.
fn resume_demo(workers: usize, reference: &gecko_suite::fleet::CampaignReport) {
    let items = spec().expand().len() as u64;
    let kill_at = items / 2;
    let journal = Arc::new(Journal::memory());
    println!("\n--resume: journaling the campaign and killing it after {kill_at}/{items} runs...");
    let partial = Campaign::new(spec())
        .workers(workers)
        .journal(Arc::clone(&journal))
        .halt_after(kill_at)
        .run()
        .expect("campaign");
    assert!(partial.halted);
    let resumed = Campaign::new(spec())
        .workers(workers)
        .resume(Arc::clone(&journal))
        .run()
        .expect("campaign");
    println!(
        "resumed {} journaled run(s), re-executed {}, wall {:.2}s",
        resumed.counters.resumed,
        items - resumed.counters.resumed,
        resumed.wall_s,
    );
    assert_eq!(
        resumed.deterministic_digest(),
        reference.deterministic_digest(),
        "a killed-and-resumed campaign must merge bit-exactly"
    );
    println!(
        "digest {:016x} matches the uninterrupted run bit-for-bit",
        resumed.deterministic_digest()
    );
}

/// `--drain`: graceful shutdown via the kill switch, then resume.
fn drain_demo(workers: usize, reference: &gecko_suite::fleet::CampaignReport) {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    /// Flips the campaign's kill switch after `after` finished items —
    /// the same signal `gecko-serve` sends its running jobs on shutdown.
    struct DrainAfter {
        after: u64,
        seen: AtomicU64,
        stop: Arc<AtomicBool>,
    }
    impl gecko_suite::fleet::TelemetrySink for DrainAfter {
        fn emit(&self, event: gecko_suite::fleet::Event) {
            if event.kind == "item_finished"
                && self.seen.fetch_add(1, Ordering::SeqCst) + 1 >= self.after
            {
                self.stop.store(true, Ordering::SeqCst);
            }
        }
    }

    let items = spec().expand().len() as u64;
    let stop = Arc::new(AtomicBool::new(false));
    let journal = Arc::new(Journal::memory());
    println!(
        "\n--drain: requesting shutdown after ~{}/{items} runs...",
        items / 2
    );
    let drained = Campaign::new(spec())
        .workers(workers)
        .sink(Arc::new(DrainAfter {
            after: items / 2,
            seen: AtomicU64::new(0),
            stop: Arc::clone(&stop),
        }))
        .journal(Arc::clone(&journal))
        .kill_switch(stop)
        .run()
        .expect("campaign");
    let journaled = drained.results.len() as u64;
    println!(
        "workers drained: {journaled}/{items} runs journaled as a clean checkpoint \
         (none abandoned mid-run)"
    );
    let resumed = Campaign::new(spec())
        .workers(workers)
        .resume(journal)
        .run()
        .expect("campaign");
    assert_eq!(resumed.counters.resumed, journaled);
    assert_eq!(
        resumed.deterministic_digest(),
        reference.deterministic_digest(),
        "drain + resume must merge bit-exactly"
    );
    println!(
        "resumed past the checkpoint to digest {:016x} — equal to the uninterrupted run",
        resumed.deterministic_digest()
    );
}

/// `--prune`: segmented on-disk journal, budgeted compaction, resume.
fn prune_demo(workers: usize, reference: &gecko_suite::fleet::CampaignReport) {
    use gecko_suite::fleet::classify_campaign_lines;
    use gecko_suite::store::{LogCompactor, LogConfig, Pruner, SegmentedLog};

    let dir = std::env::temp_dir().join(format!("gecko-campaign-prune-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = LogConfig {
        max_segment_bytes: 4096,
    };

    let items = spec().expand().len() as u64;
    let kill_at = items / 2;
    println!(
        "\n--prune: segmented journal in {}, killing after {kill_at}/{items} runs...",
        dir.display()
    );
    let journal = Arc::new(Journal::open_segmented(&dir.join("journal"), cfg).expect("journal"));
    let partial = Campaign::new(spec())
        .workers(workers)
        .resume(Arc::clone(&journal))
        .halt_after(kill_at)
        .run()
        .expect("campaign");
    assert!(partial.halted);
    drop(journal);

    // Budgeted prune ticks; the pruner is reopened from its persisted
    // checkpoint each time, so a kill between ticks loses nothing.
    let mut ticks = 0u32;
    loop {
        let log = Arc::new(SegmentedLog::open(&dir.join("journal"), cfg).expect("log"));
        let mut pruner = Pruner::open(&dir.join("prune.json"), 8).expect("pruner");
        pruner.add(LogCompactor::new("campaign", log, classify_campaign_lines));
        ticks += 1;
        if pruner.tick().expect("tick").done {
            break;
        }
    }
    println!("backlog clear after {ticks} budgeted prune tick(s) (delete_limit=8)");

    let journal = Arc::new(Journal::open_segmented(&dir.join("journal"), cfg).expect("journal"));
    let resumed = Campaign::new(spec())
        .workers(workers)
        .resume(journal)
        .run()
        .expect("campaign");
    println!(
        "resumed {} run(s) from the pruned journal, re-executed {}",
        resumed.counters.resumed,
        items - resumed.counters.resumed,
    );
    assert_eq!(
        resumed.deterministic_digest(),
        reference.deterministic_digest(),
        "pruning must be invisible to resume"
    );
    println!(
        "digest {:016x} matches the uninterrupted run bit-for-bit",
        resumed.deterministic_digest()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let chaos = args.iter().any(|a| a == "--chaos");
    let resume = args.iter().any(|a| a == "--resume");
    let drain = args.iter().any(|a| a == "--drain");
    let prune = args.iter().any(|a| a == "--prune");
    let workers = std::env::var("GECKO_WORKERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        });

    let spec = spec();
    println!("running {} on 1 worker...", spec.name);
    let solo = Campaign::new(spec.clone())
        .workers(1)
        .run()
        .expect("campaign");
    println!("running {} on {} workers...", spec.name, workers);
    let fleet = Campaign::new(spec)
        .workers(workers)
        .run()
        .expect("campaign");

    println!("\n{}", fleet_summary(&fleet));
    println!(
        "1 worker: {:.2}s wall | {} workers: {:.2}s wall ({:.2}x)",
        solo.wall_s,
        fleet.workers,
        fleet.wall_s,
        solo.wall_s / fleet.wall_s.max(1e-9),
    );
    assert_eq!(
        solo.deterministic_digest(),
        fleet.deterministic_digest(),
        "parallelism must not change results"
    );
    println!(
        "digests agree: {:016x} — results are bit-identical across worker counts",
        solo.deterministic_digest()
    );

    if chaos {
        chaos_demo(workers);
    }
    if resume {
        resume_demo(workers, &fleet);
    }
    if drain {
        drain_demo(workers, &fleet);
    }
    if prune {
        prune_demo(workers, &fleet);
    }
}
