//! Snapshot/restore round-trip property: restoring a mid-run snapshot and
//! resuming must be bit-identical — metrics and NVM checksum — to never
//! having diverged. The crash-consistency checker's snapshot-fork
//! exploration is sound only if this holds for arbitrary divergences, so
//! the test perturbs the forked simulator aggressively (extra execution,
//! injected failures, spoofed signals) before rewinding.

use gecko_isa::{SplitMix64, Word};
use gecko_sim::{SchemeKind, SimConfig, SimSnapshot, Simulator};

/// A seeded diversity of physical configurations: scheme, capacitance and
/// harvested power all vary, covering always-on bench runs as well as
/// naturally duty-cycling ones (where snapshots land mid-sleep and
/// mid-recovery).
fn config_for(rng: &mut SplitMix64) -> SimConfig {
    let scheme = SchemeKind::all()[rng.range_u64(0, 4) as usize];
    let duty_cycling = rng.range_u64(0, 2) == 0;
    let seed = rng.next_u64();
    let cap_steps = rng.range_u64(1, 5);
    let mut config = if duty_cycling {
        let mut c = SimConfig::harvesting(scheme);
        c.capacitance_f = 47e-6 * cap_steps as f64;
        c
    } else {
        SimConfig::bench_supply(scheme)
    };
    config.seed = seed;
    config
}

fn nvm_checksum(sim: &Simulator) -> u64 {
    sim.nvm().words().iter().fold(0u64, |h, &w| {
        h.wrapping_mul(31).wrapping_add(w as u32 as u64)
    })
}

#[test]
fn restore_resume_is_bit_identical_to_uninterrupted_run() {
    let quick = std::env::var_os("GECKO_QUICK").is_some();
    let trials = if quick { 6 } else { 24 };
    let app = gecko_apps::app_by_name("crc16").unwrap();
    let mut rng = SplitMix64::new(0xC0FFEE);
    for trial in 0..trials {
        let mut trial_rng = rng.split();
        let prefix = trial_rng.range_u64(100, 20_000);
        let suffix = trial_rng.range_u64(100, 20_000);

        // Identical configurations from a cloned stream.
        let mut reference = Simulator::new(&app, config_for(&mut trial_rng.clone())).unwrap();
        let mut forked = Simulator::new(&app, config_for(&mut trial_rng.clone())).unwrap();

        reference.run_steps(prefix);
        let reference_metrics = reference.run_steps(suffix);

        // Fork: run the prefix, snapshot, diverge hard, rewind, resume.
        forked.run_steps(prefix);
        let snap = forked.snapshot();
        forked.run_steps(trial_rng.range_u64(1, 5_000));
        forked.inject_power_failure();
        forked.run_steps(trial_rng.range_u64(1, 5_000));
        forked.inject_spoofed_checkpoint();
        forked.inject_spoofed_wakeup();
        forked.run_steps(trial_rng.range_u64(1, 2_000));
        forked.restore(&snap);
        let forked_metrics = forked.run_steps(suffix);

        assert_eq!(
            forked_metrics, reference_metrics,
            "trial {trial}: metrics diverged after restore"
        );
        assert_eq!(
            nvm_checksum(&forked),
            nvm_checksum(&reference),
            "trial {trial}: NVM diverged after restore"
        );
        assert_eq!(
            forked.state_hash(),
            reference.state_hash(),
            "trial {trial}: logical state hash diverged after restore"
        );
    }
}

#[test]
fn snapshot_then_immediate_restore_is_a_noop() {
    let app = gecko_apps::app_by_name("blink").unwrap();
    let mut sim = Simulator::new(&app, SimConfig::bench_supply(SchemeKind::Gecko)).unwrap();
    sim.run_steps(50);
    let before_hash = sim.state_hash();
    let before_time = sim.time_s();
    let before_metrics = sim.metrics;
    let snap = sim.snapshot();
    sim.restore(&snap);
    assert_eq!(sim.state_hash(), before_hash);
    assert_eq!(sim.time_s(), before_time);
    assert_eq!(sim.metrics, before_metrics);
}

/// crc16 under `scheme` on the bench supply: `state_hash()` at 0 steps,
/// at 5,000 steps, and after an injected power failure plus the settle
/// back to the on state.
fn pinned_points(scheme: SchemeKind) -> [u64; 3] {
    let app = gecko_apps::app_by_name("crc16").unwrap();
    let mut sim = Simulator::new(&app, SimConfig::bench_supply(scheme)).unwrap();
    let fresh = sim.state_hash();
    sim.run_steps(5_000);
    let mid = sim.state_hash();
    sim.inject_power_failure();
    let mut settle = 0u64;
    while !sim.is_on() {
        assert!(settle < 10_000_000, "{scheme}: never woke after the outage");
        settle += sim.advance_sleep(1_000_000);
    }
    [fresh, mid, sim.state_hash()]
}

/// Memo stores persist `state_hash()` values as keys, with no hash
/// version in the spec fingerprint, so the hash must never move. These
/// literals were captured from the implementation that scanned every NVM
/// word.
#[test]
fn state_hash_matches_pinned_values() {
    const PINNED: [(SchemeKind, [u64; 3]); 4] = [
        (
            SchemeKind::Nvp,
            [0x76aa17de6a0aa07f, 0x79063de444b29e96, 0xd12a55f5f568ed3a],
        ),
        (
            SchemeKind::Ratchet,
            [0x76aa17de6a0aa07f, 0xe9a478fe21926dc2, 0xc730b376fbc072aa],
        ),
        (
            SchemeKind::Gecko,
            [0x3b890744c887a944, 0x4ecf922526db0666, 0x3202fcd939d8429f],
        ),
        (
            SchemeKind::GeckoNoPrune,
            [0x3b890744c887a944, 0xd9542a6f8b122085, 0xad6fdde2e21e14dd],
        ),
    ];
    for (scheme, pinned) in PINNED {
        assert_eq!(pinned_points(scheme), pinned, "{scheme}");
    }
}

const FNV_PRIME: u64 = 0x1000_0000_01b3;

/// One FNV lane: a pair of NVM words, the even word in the low half.
fn lane(pair: &[Word]) -> u64 {
    let lo = pair[0] as u32 as u64;
    let hi = pair.get(1).map_or(0, |&w| w as u32 as u64);
    lo | (hi << 32)
}

/// The NVM tail of `state_hash` as it was first written: one FNV lane
/// per pair of words, over every word.
fn full_scan(mut h: u64, words: &[Word]) -> u64 {
    for pair in words.chunks(2) {
        h = (h ^ lane(pair)).wrapping_mul(FNV_PRIME);
    }
    h
}

/// The inverse of [`full_scan`]: the hash state before `words` was eaten.
fn peel_full_scan(mut h: u64, words: &[Word]) -> u64 {
    // The odd prime is invertible mod 2^64; Newton's iteration doubles the
    // correct low bits each round (3 -> 6 -> ... -> 96).
    let mut inverse = FNV_PRIME;
    for _ in 0..5 {
        inverse = inverse.wrapping_mul(2u64.wrapping_sub(FNV_PRIME.wrapping_mul(inverse)));
    }
    for pair in words.chunks(2).rev() {
        h = h.wrapping_mul(inverse) ^ lane(pair);
    }
    h
}

/// `state_hash()` equals the full scan, and untouched pages are zero.
///
/// `state_hash()` is `nvm().fold_fnv(v)` for the hash `v` of the volatile
/// state. Peeling a full scan of the image off `state_hash()` gives the
/// `v'` with `full_scan(v', words) == state_hash()`, and `fold_fnv(v')`
/// equals that exactly when `v' == v` (each lane step is a bijection),
/// that is, exactly when `state_hash()` equals `full_scan(v, words)`.
fn assert_hash_is_full_scan(sim: &Simulator, what: &str) {
    let nvm = sim.nvm();
    let h = sim.state_hash();
    let volatile = peel_full_scan(h, nvm.words());
    assert_eq!(
        nvm.fold_fnv(volatile),
        full_scan(volatile, nvm.words()),
        "{what}: page fold != full scan"
    );
    let page = nvm.page_words() as usize;
    let mut touched = nvm.touched_pages().peekable();
    for (p, words) in nvm.words().chunks(page).enumerate() {
        if touched.next_if_eq(&(p as u32)).is_none() {
            assert!(
                words.iter().all(|&w| w == 0),
                "{what}: untouched page {p} is not zero"
            );
        }
    }
}

/// What a snapshot buffer was last filled with.
struct Filled {
    hash: u64,
    words: Vec<Word>,
}

/// Random runs, injections, `snapshot_into` and `restore` on crc16, blink
/// and bitcnt under every scheme. Every state must hash like the full
/// scan, and every restore must land on exactly what its buffer was
/// filled with. One buffer starts out filled from a simulator of another
/// app, and both are refilled over divergent states, so `clone_from`
/// keeps meeting touched sets it did not produce.
#[test]
fn snapshot_into_and_restore_keep_the_full_scan_hash() {
    let quick = std::env::var_os("GECKO_QUICK").is_some();
    let ops = if quick { 30 } else { 90 };
    let apps = ["crc16", "blink", "bitcnt"].map(|n| gecko_apps::app_by_name(n).unwrap());
    let mut rng = SplitMix64::new(0x5AA9_F00D);
    for (a, app) in apps.iter().enumerate() {
        for scheme in SchemeKind::all() {
            let harvesting = rng.range_u64(0, 2) == 0;
            let config = || {
                if harvesting {
                    SimConfig::harvesting(scheme)
                } else {
                    SimConfig::bench_supply(scheme)
                }
            };
            let mut sim = Simulator::new(app, config()).unwrap();
            let mut other = Simulator::new(&apps[(a + 1) % 3], config()).unwrap();
            other.run_steps(rng.range_u64(1, 20_000));
            let mut bufs: [SimSnapshot; 2] = [other.snapshot(), sim.snapshot()];
            let mut filled: [Option<Filled>; 2] = [None, None];
            for op in 0..ops {
                let what = format!("{} {scheme} op {op}", app.name);
                let b = rng.range_u64(0, 2) as usize;
                match rng.range_u64(0, 8) {
                    0 | 1 => {
                        sim.run_steps(rng.range_u64(1, 5_000));
                    }
                    2 => sim.inject_power_failure(),
                    3 => {
                        sim.inject_spoofed_checkpoint();
                        sim.inject_spoofed_wakeup();
                    }
                    4 | 5 => {
                        sim.snapshot_into(&mut bufs[b]);
                        filled[b] = Some(Filled {
                            hash: sim.state_hash(),
                            words: sim.nvm().words().to_vec(),
                        });
                    }
                    _ => {
                        if let Some(f) = &filled[b] {
                            sim.restore(&bufs[b]);
                            assert_eq!(sim.state_hash(), f.hash, "{what}: restored hash");
                            assert_eq!(sim.nvm().words(), &f.words[..], "{what}: restored NVM");
                        }
                    }
                }
                assert_hash_is_full_scan(&sim, &what);
            }
        }
    }
}
