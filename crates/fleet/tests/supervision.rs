//! The supervised-campaign guarantees: chaos-injected panics quarantine
//! without losing sibling results, step and wall budgets flag runs
//! deterministically, every claimed run executes exactly once, and a
//! campaign killed at any completed-run boundary resumes from its journal
//! bit-exactly — at any worker count.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use gecko_fleet::{
    run_supervised, Campaign, CampaignError, CampaignReport, CampaignSpec, ChaosSpec, ItemOutcome,
    Journal, MemorySink, NullSink, PoolConfig, RunFailure, SchemeKind, SupervisorSpec,
    TelemetrySink, Workload,
};
use gecko_isa::rng::SplitMix64;

fn small_spec() -> CampaignSpec {
    CampaignSpec::new("supervised")
        .apps(["blink", "crc16"])
        .schemes([SchemeKind::Nvp, SchemeKind::Gecko])
        .seeds([1, 2, 3])
        .workload(Workload::RunFor { seconds: 0.002 })
}

/// The items whose chaos plan panics, derived purely from the plan
/// stream — the test's independent model of `supervise_item`.
fn predicted_panics(spec: &CampaignSpec, sup: &SupervisorSpec) -> Vec<usize> {
    spec.expand()
        .iter()
        .enumerate()
        .filter(|(_, item)| sup.chaos.plan_for(spec.run_key(item)).panic)
        .map(|(i, _)| i)
        .collect()
}

/// Picks a chaos seed whose plan stream actually exercises the scenario
/// (some failures AND some successes) — self-validating, no magic seeds.
fn seed_with_mixed_outcomes(sup_template: SupervisorSpec) -> SupervisorSpec {
    let spec = small_spec();
    let items = spec.expand().len();
    for seed in 0..256 {
        let mut sup = sup_template;
        sup.chaos.seed = seed;
        let failures = predicted_panics(&spec, &sup).len();
        if failures > 0 && failures < items {
            return sup;
        }
    }
    panic!("no chaos seed in 0..256 produced a mixed outcome");
}

#[test]
fn injected_panics_quarantine_once_and_siblings_stay_bit_exact() {
    let sup = seed_with_mixed_outcomes(SupervisorSpec {
        chaos: ChaosSpec {
            panic_per_mille: 250,
            ..ChaosSpec::off()
        },
        ..SupervisorSpec::default()
    });
    let clean = Campaign::new(small_spec()).workers(3).run().unwrap();
    let chaotic = Campaign::new(small_spec())
        .supervisor(sup)
        .workers(3)
        .run()
        .unwrap();

    // Every predicted panic appears exactly once in `failures`...
    let panicked = predicted_panics(&small_spec(), &sup);
    assert!(!panicked.is_empty(), "scenario must inject at least once");
    assert_eq!(chaotic.failures.len(), panicked.len());
    for (failure, &item) in chaotic.failures.iter().zip(&panicked) {
        match failure {
            RunFailure::Panicked {
                item: failed_item,
                payload,
                ..
            } => {
                assert_eq!(*failed_item, item);
                assert!(
                    payload.contains("chaos: injected panic"),
                    "unexpected payload: {payload}"
                );
            }
            other => panic!("expected a quarantined panic, got {other:?}"),
        }
    }
    assert_eq!(chaotic.counters.failures, panicked.len() as u64);

    // ...and every sibling result is bit-exact against the chaos-free run.
    assert_eq!(
        chaotic.results.len(),
        clean.results.len() - panicked.len(),
        "exactly the panicked runs are missing"
    );
    for r in &chaotic.results {
        let reference = &clean.results[r.item.index]; // clean has no holes
        assert_eq!(r.metrics, reference.metrics);
        assert_eq!(r.buckets, reference.buckets);
        assert_eq!(r.compile_stats, reference.compile_stats);
    }

    // Chaos is keyed on (seed, run key), so the whole report —
    // including the failure list — is worker-count-invariant.
    let solo = Campaign::new(small_spec())
        .supervisor(sup)
        .workers(1)
        .run()
        .unwrap();
    assert_eq!(solo.failures, chaotic.failures);
    assert_eq!(solo.deterministic_digest(), chaotic.deterministic_digest());
}

#[test]
fn step_budget_timeouts_are_deterministic_and_carry_partials() {
    let sup = SupervisorSpec {
        max_steps: Some(1),
        ..SupervisorSpec::default()
    };
    let run = |workers| {
        Campaign::new(small_spec())
            .supervisor(sup)
            .workers(workers)
            .run()
            .unwrap()
    };
    let a = run(1);
    let b = run(4);
    let items = small_spec().expand().len();
    assert!(a.results.is_empty(), "every run must blow a 1-step budget");
    assert_eq!(a.failures.len(), items);
    for (i, failure) in a.failures.iter().enumerate() {
        match failure {
            RunFailure::TimedOut {
                item,
                steps,
                partial,
                ..
            } => {
                assert_eq!(*item, i, "failures arrive in item order");
                assert_eq!(*steps, 1, "aborts exactly at the budget");
                assert!(partial.is_some(), "step-budget timeouts carry partials");
            }
            other => panic!("expected a timeout, got {other:?}"),
        }
    }
    // The abort point is a step count, not a clock: partials and digests
    // agree across worker counts (wall_ms is excluded from the digest).
    for (fa, fb) in a.failures.iter().zip(&b.failures) {
        let (
            RunFailure::TimedOut {
                steps: sa,
                partial: pa,
                ..
            },
            RunFailure::TimedOut {
                steps: sb,
                partial: pb,
                ..
            },
        ) = (fa, fb)
        else {
            panic!("both runs must time out identically");
        };
        assert_eq!(sa, sb);
        assert_eq!(pa, pb);
    }
    assert_eq!(a.deterministic_digest(), b.deterministic_digest());
}

#[test]
fn wall_deadline_timeouts_flag_every_run_at_any_worker_count() {
    // A zero deadline is blown by the first budget slice of every run, so
    // the cooperative check in the run loop flags each one; the failure
    // set (kind, run key, item) does not depend on the clock.
    let sup = SupervisorSpec {
        max_wall_ms: Some(0),
        ..SupervisorSpec::default()
    };
    let run = |workers| {
        Campaign::new(small_spec())
            .supervisor(sup)
            .workers(workers)
            .run()
            .unwrap()
    };
    let a = run(1);
    let b = run(4);
    let items = small_spec().expand();
    assert!(a.results.is_empty(), "every run must blow a 0 ms deadline");
    assert_eq!(a.failures.len(), items.len());
    for (i, failure) in a.failures.iter().enumerate() {
        match failure {
            RunFailure::TimedOut { item, run_key, .. } => {
                assert_eq!(*item, i, "failures arrive in item order");
                assert_eq!(*run_key, small_spec().run_key(&items[i]));
            }
            other => panic!("expected a timeout, got {other:?}"),
        }
    }
    assert_eq!(a.counters.failures, items.len() as u64);
    let identity = |r: &CampaignReport| -> Vec<_> {
        r.failures
            .iter()
            .map(|f| (f.kind(), f.run_key(), f.item()))
            .collect()
    };
    assert_eq!(identity(&a), identity(&b));
    assert_eq!(a.deterministic_digest(), b.deterministic_digest());
}

#[test]
fn a_run_that_finishes_past_its_deadline_is_flagged() {
    // The post-hoc check: a run that never checks its budget itself but
    // returns after the deadline still becomes a timeout.
    let keys = [11u64, 12];
    let sup = SupervisorSpec {
        max_wall_ms: Some(0),
        ..SupervisorSpec::default()
    };
    let sink: Arc<dyn TelemetrySink> = Arc::new(NullSink);
    let cfg = PoolConfig {
        workers: 2,
        run_keys: &keys,
        sup: &sup,
        budget: sup.resolve_budget(0.01),
        halt_after: None,
        stop: None,
        sink: &sink,
    };
    let report = run_supervised(&cfg, vec![None, None], |i, _, _| {
        std::thread::sleep(std::time::Duration::from_millis(1));
        Ok(i)
    });
    for (i, outcome) in report.outcomes.iter().enumerate() {
        match outcome {
            Some(ItemOutcome::Failed(RunFailure::TimedOut {
                run_key,
                item,
                steps,
                partial,
                ..
            })) => {
                assert_eq!((*run_key, *item), (keys[i], i));
                assert_eq!(*steps, 0, "the run reported no steps");
                assert!(partial.is_none());
            }
            other => panic!("expected a post-hoc timeout, got {other:?}"),
        }
    }
}

#[test]
fn a_transient_looking_panic_is_one_quarantined_panic() {
    // Every claimed run executes exactly once: a panic payload that looks
    // retryable is an ordinary panic, not a reason to run again.
    let keys = [5u64];
    let sup = SupervisorSpec::default();
    let events = Arc::new(MemorySink::new());
    let sink: Arc<dyn TelemetrySink> = events.clone();
    let cfg = PoolConfig {
        workers: 1,
        run_keys: &keys,
        sup: &sup,
        budget: sup.resolve_budget(0.01),
        halt_after: None,
        stop: None,
        sink: &sink,
    };
    let calls = AtomicU32::new(0);
    let report = run_supervised(&cfg, vec![None], |_, _, _| {
        if calls.fetch_add(1, Ordering::SeqCst) == 0 {
            panic!("transient: lost the resource");
        }
        Ok("recovered")
    });
    assert_eq!(calls.load(Ordering::SeqCst), 1, "one run, no retry");
    match &report.outcomes[0] {
        Some(ItemOutcome::Failed(RunFailure::Panicked {
            run_key,
            item,
            payload,
        })) => {
            assert_eq!((*run_key, *item), (5, 0));
            assert_eq!(payload, "transient: lost the resource");
        }
        other => panic!("expected one quarantined panic, got {other:?}"),
    }
    let kinds: Vec<&str> = events.events().iter().map(|e| e.kind).collect();
    assert_eq!(kinds, ["run_failed"]);
}

/// Runs `spec` to completion in `sessions` journaled sessions (each
/// killed at a deterministic completed-run boundary) and returns the
/// final report.
fn run_in_sessions(
    spec_for: impl Fn() -> CampaignSpec,
    workers: usize,
    kill_points: &[u64],
) -> CampaignReport {
    let journal = Arc::new(Journal::memory());
    for &k in kill_points {
        let partial = Campaign::new(spec_for())
            .workers(workers)
            .journal(Arc::clone(&journal))
            .halt_after(k)
            .run()
            .unwrap();
        assert!(partial.halted, "kill point {k} must actually halt");
    }
    Campaign::new(spec_for())
        .workers(workers)
        .journal(Arc::clone(&journal))
        .run()
        .unwrap()
}

#[test]
fn killed_campaigns_resume_bit_exactly_at_any_worker_count() {
    let reference = Campaign::new(small_spec()).workers(4).run().unwrap();
    let items = reference.results.len() as u64;
    let mut rng = SplitMix64::new(0xD1E0F5E55);
    for workers in [1usize, 2, 8] {
        // Kill twice at random completed-run boundaries, then finish.
        let k1 = rng.range_u64(1, items - 1);
        let k2 = rng.range_u64(1, items - k1);
        let resumed = run_in_sessions(small_spec, workers, &[k1, k2]);

        assert!(!resumed.halted);
        assert!(
            resumed.counters.resumed >= k1,
            "the first session journaled at least its halt quota"
        );
        assert_eq!(resumed.results.len(), reference.results.len());
        for (r, reference) in resumed.results.iter().zip(&reference.results) {
            assert_eq!(r.item, reference.item);
            assert_eq!(r.metrics, reference.metrics);
            assert_eq!(r.buckets, reference.buckets);
            assert_eq!(r.compile_stats, reference.compile_stats);
        }
        assert_eq!(resumed.totals, reference.totals);
        assert_eq!(
            resumed.deterministic_digest(),
            reference.deterministic_digest(),
            "workers={workers}, kills at {k1}+{k2}"
        );
    }
}

#[test]
fn resuming_a_finished_campaign_re_executes_nothing() {
    let journal = Arc::new(Journal::memory());
    let first = Campaign::new(small_spec())
        .journal(Arc::clone(&journal))
        .run()
        .unwrap();
    let again = Campaign::new(small_spec())
        .journal(Arc::clone(&journal))
        .run()
        .unwrap();
    assert_eq!(again.counters.resumed, first.results.len() as u64);
    assert_eq!(again.counters.compile_misses, 0, "nothing re-ran");
    assert_eq!(again.deterministic_digest(), first.deterministic_digest());
}

#[test]
fn journals_from_a_different_spec_are_rejected() {
    let journal = Arc::new(Journal::memory());
    Campaign::new(small_spec())
        .journal(Arc::clone(&journal))
        .run()
        .unwrap();
    let different = small_spec().seeds([99]); // a different grid
    let err = Campaign::new(different).journal(journal).run().unwrap_err();
    match err {
        CampaignError::Journal(msg) => {
            assert!(msg.contains("fingerprint"), "unhelpful message: {msg}")
        }
        other => panic!("expected a journal rejection, got {other}"),
    }
}

#[test]
fn sink_write_failures_degrade_to_one_counted_failure() {
    let chaos = ChaosSpec {
        seed: 7,
        sink_fail_per_mille: 400,
        ..ChaosSpec::off()
    };
    let run = |workers| {
        Campaign::new(small_spec())
            .chaos(chaos)
            .workers(workers)
            .sink(Arc::new(MemorySink::new()))
            .run()
            .unwrap()
    };
    let a = run(1);
    let b = run(4);
    assert!(a.counters.dropped_records > 0, "chaos must drop something");
    let sink_failures: Vec<_> = a
        .failures
        .iter()
        .filter(|f| matches!(f, RunFailure::SinkDropped { .. }))
        .collect();
    assert_eq!(sink_failures.len(), 1, "one summary failure, not a flood");
    // Drops are keyed on the record sequence number, so the count (and
    // with it the digest) is worker-count-invariant.
    assert_eq!(a.counters.dropped_records, b.counters.dropped_records);
    assert_eq!(a.deterministic_digest(), b.deterministic_digest());
    // No metric run was harmed: results match an undegraded campaign.
    let clean = Campaign::new(small_spec()).run().unwrap();
    assert_eq!(a.results.len(), clean.results.len());
    for (r, c) in a.results.iter().zip(&clean.results) {
        assert_eq!(r.metrics, c.metrics);
    }
}
