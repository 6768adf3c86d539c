//! The campaign engine's core guarantee: worker count changes wall-clock,
//! never results. A 1-worker and an N-worker run of the same spec must
//! agree on every deterministic byte.

use std::sync::Arc;

use gecko_fleet::{AttackCase, Campaign, CampaignSpec, Fidelity, MemorySink, SchemeKind, Workload};
use gecko_sim::experiments::fig11::{self, Fig11Row};
use gecko_sim::experiments::VICTIM_APP;

fn mixed_spec() -> CampaignSpec {
    // Apps × schemes × attacks × seeds with wildly different item costs, so
    // N-worker scheduling genuinely interleaves completions out of order.
    CampaignSpec::new("determinism")
        .apps(["blink", "crc16", VICTIM_APP])
        .schemes([SchemeKind::Nvp, SchemeKind::Gecko])
        .attacks([
            AttackCase::none(),
            AttackCase::new(
                "27MHz@35dBm",
                gecko_emi::AttackSchedule::continuous(
                    gecko_emi::EmiSignal::new(27e6, 35.0),
                    gecko_emi::Injection::Remote { distance_m: 5.0 },
                ),
            ),
        ])
        .seeds([1, 99])
        .workload(Workload::RunFor { seconds: 0.01 })
}

#[test]
fn worker_count_does_not_change_results() {
    let solo = Campaign::new(mixed_spec()).workers(1).run().unwrap();
    let fleet = Campaign::new(mixed_spec()).workers(7).run().unwrap();

    assert_eq!(solo.results.len(), 3 * 2 * 2 * 2);
    assert_eq!(solo.results.len(), fleet.results.len());
    // Byte-identical deterministic payloads: same items, same metrics, in
    // the same order.
    for (a, b) in solo.results.iter().zip(&fleet.results) {
        assert_eq!(a.item, b.item);
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.buckets, b.buckets);
        assert_eq!(a.compile_stats, b.compile_stats);
    }
    assert_eq!(solo.totals, fleet.totals);
    assert_eq!(solo.counters, fleet.counters);
    assert_eq!(
        solo.deterministic_digest(),
        fleet.deterministic_digest(),
        "digest must be invariant under worker count"
    );
}

#[test]
fn repeated_runs_are_bit_identical() {
    let a = Campaign::new(mixed_spec()).workers(4).run().unwrap();
    let b = Campaign::new(mixed_spec()).workers(4).run().unwrap();
    assert_eq!(a.deterministic_digest(), b.deterministic_digest());
}

#[test]
fn telemetry_counts_are_deterministic_even_if_order_is_not() {
    let sink = Arc::new(MemorySink::new());
    let report = Campaign::new(mixed_spec())
        .workers(5)
        .sink(sink.clone())
        .run()
        .unwrap();
    let n = report.results.len();
    assert_eq!(sink.count("campaign_started"), 1);
    assert_eq!(sink.count("campaign_finished"), 1);
    assert_eq!(sink.count("item_started"), n);
    assert_eq!(sink.count("item_finished"), n);
    // Each (app, scheme) compiles exactly once; everything else hits.
    assert_eq!(report.counters.compile_misses, 3 * 2);
    assert_eq!(report.counters.compile_hits, n as u64 - 3 * 2);
}

#[test]
fn fig11_style_campaign_agrees_across_worker_counts() {
    // The acceptance scenario: the full 11-app × 4-scheme grid, quick
    // fidelity, one worker vs. four — identical per-app numbers.
    let solo = gecko_fleet::figures::fig11(Fidelity::Quick, 1).unwrap();
    let fleet = gecko_fleet::figures::fig11(Fidelity::Quick, 4).unwrap();
    assert_eq!(solo.len(), 11 * 4);
    assert_eq!(solo, fleet);

    // Figure 11's ordering, on a 3-app subset of the rows.
    let subset: Vec<Fig11Row> = solo
        .into_iter()
        .filter(|r| ["crc16", "fir", "blink"].contains(&r.app.as_str()))
        .collect();
    assert_eq!(subset.len(), 3 * 4);
    let s = fig11::summary(&subset);
    let get = |n: &str| s.iter().find(|(k, _)| k == n).unwrap().1;
    let (nvp, ratchet, gecko, unpruned) = (
        get("NVP"),
        get("Ratchet"),
        get("GECKO"),
        get("GECKO w/o pruning"),
    );
    assert!((nvp - 1.0).abs() < 1e-9);
    assert!(ratchet > 1.4, "Ratchet {ratchet}");
    assert!(gecko < 1.2, "GECKO {gecko}");
    assert!(gecko <= unpruned + 1e-9, "{gecko} vs {unpruned}");
    assert!(unpruned < ratchet, "{unpruned} vs {ratchet}");
}
