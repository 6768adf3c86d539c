//! Differential proof that [`DeviceBatch`] lock-step batching is
//! *observationally invisible*: a batch of N devices must land every
//! device on the bit-identical trajectory of N independent scalar runs —
//! same [`gecko_sim::Metrics`], same logical state hash, same simulated
//! time and capacitor voltage down to the last bit — across the scheme
//! grid, under attack and no-attack schedules, for both workload shapes,
//! and under deliberately awkward `drain` slice caps. Companion to
//! `tests/event_horizon.rs`, which proves the same property for the
//! in-device span coalescer the batch planner shares its solver with.

use gecko_emi::attack::DpiPoint;
use gecko_emi::{AttackSchedule, EmiSignal, Injection};
use gecko_sim::{DeviceBatch, ExecMode, SchemeKind, SimConfig, Simulator};

fn quick() -> bool {
    std::env::var_os("GECKO_QUICK").is_some()
}

fn window_s() -> f64 {
    if quick() {
        0.02
    } else {
        0.05
    }
}

fn attacks() -> Vec<(&'static str, AttackSchedule)> {
    let sig = EmiSignal::new(27e6, 20.0);
    let inj = Injection::Dpi(DpiPoint::P2);
    vec![
        ("clean", AttackSchedule::none()),
        ("continuous", AttackSchedule::continuous(sig, inj)),
        (
            "bursts",
            AttackSchedule::bursts(sig, inj, &[0.004, 0.017, 0.031], 0.003),
        ),
    ]
}

fn build(scheme: SchemeKind, attack: AttackSchedule, seed: u64) -> SimConfig {
    let mut cfg = SimConfig::bench_supply(scheme).with_attack(attack);
    cfg.seed = seed;
    cfg
}

fn assert_same_trajectory(batched: &Simulator, scalar: &Simulator, label: &str) {
    assert_eq!(
        batched.metrics, scalar.metrics,
        "{label}: metrics diverged (batched vs scalar)"
    );
    assert_eq!(
        batched.state_hash(),
        scalar.state_hash(),
        "{label}: logical state hash diverged"
    );
    assert_eq!(
        batched.time_s().to_bits(),
        scalar.time_s().to_bits(),
        "{label}: simulated time diverged: {} vs {}",
        batched.time_s(),
        scalar.time_s()
    );
    assert_eq!(
        batched.voltage_v().to_bits(),
        scalar.voltage_v().to_bits(),
        "{label}: capacitor voltage diverged"
    );
}

#[test]
fn heterogeneous_batch_matches_scalar_runs_bit_for_bit() {
    // One batch holding the full scheme × attack grid (12 devices, all
    // seeds distinct) vs. 12 independent scalar runs of the same cells.
    let app = gecko_apps::app_by_name("bitcnt").unwrap();
    let mut cells = Vec::new();
    let mut seed = 1u64;
    for scheme in SchemeKind::all() {
        for (label, attack) in attacks() {
            cells.push((scheme, label, attack, seed));
            seed += 1;
        }
    }
    let sims = cells
        .iter()
        .map(|(scheme, _, attack, seed)| {
            Simulator::new(&app, build(*scheme, attack.clone(), *seed)).unwrap()
        })
        .collect();
    let mut batch = DeviceBatch::new(sims);
    batch.run_for(window_s());

    for (i, (scheme, label, attack, seed)) in cells.iter().enumerate() {
        let mut scalar = Simulator::new(&app, build(*scheme, attack.clone(), *seed)).unwrap();
        scalar.run_for(window_s());
        let tag = format!("batch[{i}]/{}/{label}", scheme.name());
        assert_same_trajectory(batch.device(i), &scalar, &tag);
    }

    let stats = batch.stats();
    assert!(
        stats.planned > 0 && stats.coalesced_steps > 0,
        "the planner must cover bench-supply spans: {stats:?}"
    );
    assert_eq!(
        stats.coalesced_steps + stats.scalar_steps,
        batch
            .devices()
            .iter()
            .map(|s| s.fast_path_stats().steps)
            .sum::<u64>(),
        "batch step accounting must partition into coalesced + scalar: {stats:?}"
    );
}

#[test]
fn batch_until_completions_matches_scalar_runs() {
    let app = gecko_apps::app_by_name("crc16").unwrap();
    let n = 3u64;
    let horizon = if quick() { 5.0 } else { 15.0 };
    for scheme in [SchemeKind::Nvp, SchemeKind::Gecko] {
        let sims = (0..4)
            .map(|seed| Simulator::new(&app, build(scheme, AttackSchedule::none(), seed)).unwrap())
            .collect();
        let mut batch = DeviceBatch::new(sims);
        let batched = batch.run_until_completions(n, horizon);
        for (i, m) in batched.iter().enumerate() {
            let mut scalar =
                Simulator::new(&app, build(scheme, AttackSchedule::none(), i as u64)).unwrap();
            let sm = scalar.run_until_completions(n, horizon);
            assert_eq!(m, &sm, "{}/dev{i}: metrics", scheme.name());
            assert_same_trajectory(
                batch.device(i),
                &scalar,
                &format!("completions/{}/dev{i}", scheme.name()),
            );
            assert!(m.completions >= n, "bench supply must complete: {m:?}");
        }
    }
}

#[test]
fn awkward_drain_slices_match_unsliced_batch() {
    // Slice caps landing strictly inside planned spans may only split
    // them — the sliced batch must stay bit-identical to the unsliced
    // one (and hence to scalar).
    let app = gecko_apps::app_by_name("bitcnt").unwrap();
    let make = || {
        let sims = (0..3)
            .map(|seed| {
                Simulator::new(&app, build(SchemeKind::Gecko, AttackSchedule::none(), seed))
                    .unwrap()
            })
            .collect();
        DeviceBatch::new(sims)
    };
    let mut whole = make();
    whole.run_for(window_s());

    let mut sliced = make();
    sliced.begin_run_for(window_s());
    let mut cap = 1u64;
    while sliced.drain(cap) > 0 {
        cap = (cap * 7 + 3) % 997 + 1; // awkward, deterministic
    }
    for i in 0..whole.len() {
        assert_same_trajectory(whole.device(i), sliced.device(i), &format!("sliced/dev{i}"));
    }
}

#[test]
fn occupancy_reflects_planner_coverage() {
    // Clean bench supply: almost every live round is planner-covered.
    // On the interpreted reference the planner never covers anything and
    // every ON round is a scalar fallback.
    let app = gecko_apps::app_by_name("bitcnt").unwrap();
    let covered = {
        let sims = (0..2)
            .map(|seed| {
                Simulator::new(&app, build(SchemeKind::Gecko, AttackSchedule::none(), seed))
                    .unwrap()
            })
            .collect();
        let mut batch = DeviceBatch::new(sims);
        batch.run_for(0.01);
        batch.stats()
    };
    assert!(
        covered.occupancy_permille() > 500,
        "clean supply should mostly ride the planner: {covered:?}"
    );

    let uncovered = {
        let sims = (0..2)
            .map(|seed| {
                let mut sim =
                    Simulator::new(&app, build(SchemeKind::Gecko, AttackSchedule::none(), seed))
                        .unwrap();
                sim.set_exec_mode(ExecMode::Interpreted);
                sim
            })
            .collect();
        let mut batch = DeviceBatch::new(sims);
        batch.run_for(0.01);
        batch.stats()
    };
    assert_eq!(
        uncovered.planned, 0,
        "no planner coverage on the reference: {uncovered:?}"
    );
    assert!(
        uncovered.fallback_rounds > 0 && uncovered.occupancy_permille() == 0,
        "every ON round must be a counted fallback: {uncovered:?}"
    );
}
