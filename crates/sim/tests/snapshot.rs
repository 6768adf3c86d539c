//! Snapshot/restore round-trip property: restoring a mid-run snapshot and
//! resuming must be bit-identical — metrics and NVM checksum — to never
//! having diverged. The crash-consistency checker's snapshot-fork
//! exploration is sound only if this holds for arbitrary divergences, so
//! the test perturbs the forked simulator aggressively (extra execution,
//! injected failures, spoofed signals) before rewinding.

use gecko_isa::{SplitMix64, Word};
use gecko_mcu::FaultEffect;
use gecko_sim::device::NVM_WORDS;
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

/// `state_hash()` keys only in-memory tables (the checker's wake memo and
/// the replayer's outcome table); no store has persisted it since memo
/// stores stopped writing state lines, so a change of the fold moves
/// nothing on disk. These literals pin the fold with its lane mixer, so
/// any further change to it is deliberate.
#[test]
fn state_hash_matches_pinned_values() {
    const PINNED: [(SchemeKind, [u64; 3]); 4] = [
        (
            SchemeKind::Nvp,
            [0x3877e603e7480a4c, 0x2272033b599908c0, 0xc3f8fbb68b269648],
        ),
        (
            SchemeKind::Ratchet,
            [0x3877e603e7480a4c, 0x0cad6a788dc5160f, 0xca5f05dc26680682],
        ),
        (
            SchemeKind::Gecko,
            [0x279505fd93e4d07b, 0xf375a45ad55ddc35, 0x88288487e93cca12],
        ),
        (
            SchemeKind::GeckoNoPrune,
            [0x279505fd93e4d07b, 0x6aaa875c05de9ab4, 0xeac0ede0287a9237],
        ),
    ];
    for (scheme, pinned) in PINNED {
        assert_eq!(pinned_points(scheme), pinned, "{scheme}");
    }
}

const FNV_PRIME: u64 = 0x1000_0000_01b3;

/// The bijective lane mixer every hash lane passes through (the SplitMix64
/// finalizer, which maps 0 to 0), written out independently of the
/// simulator's.
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Eats one lane: `(h ^ mix(lane)) * FNV_PRIME`.
fn eat(h: u64, lane: u64) -> u64 {
    (h ^ mix(lane)).wrapping_mul(FNV_PRIME)
}

/// One FNV lane: a pair of NVM words, the even word in the low half.
fn lane(pair: &[Word]) -> u64 {
    let lo = pair[0] as u32 as u64;
    let hi = pair.get(1).map_or(0, |&w| w as u32 as u64);
    lo | (hi << 32)
}

/// The NVM tail of `state_hash` as a plain loop: one mixed FNV lane per
/// pair of words, over every word.
fn full_scan(mut h: u64, words: &[Word]) -> u64 {
    for pair in words.chunks(2) {
        h = eat(h, lane(pair));
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
        h = h.wrapping_mul(inverse) ^ mix(lane(pair));
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

/// The NVM words `drain_hash()` reads as zero, written out from the
/// runtime-area layouts (GECKO area at `NVM_WORDS - 160`, JIT area at
/// `NVM_WORDS - 64`, Ratchet's at `NVM_WORDS - 256`) rather than taken from
/// the areas' own `boot_only` ranges.
fn boot_only_words() -> Vec<u32> {
    let (gecko, jit, ratchet) = (NVM_WORDS - 160, NVM_WORDS - 64, NVM_WORDS - 256);
    // The crossings stamp, the boot record, then `ON_CYCLES` and the 48
    // checkpoint slots.
    let mut words = vec![gecko + 1, gecko + 3, gecko + 4];
    words.extend((6..55).map(|o| gecko + o));
    // The whole JIT area, and Ratchet's two 16-register buffers.
    words.extend((0..21).map(|o| jit + o));
    words.extend((1..33).map(|o| ratchet + o));
    words
}

/// `drain_hash()` is the full scan of the image with the boot-only words
/// zeroed, continuing the volatile fold `state_hash()` starts from minus
/// its two fault counters, and it writes nothing.
///
/// Peeling the masked scan off `drain_hash()` gives the volatile fold `v`;
/// eating the two fault counters and a full scan of the real image into
/// `v` must give `state_hash()`.
fn assert_drain_hash_is_masked_full_scan(sim: &Simulator, what: &str) {
    let nvm = sim.nvm();
    let before: (Vec<u32>, u64) = (nvm.touched_pages().collect(), nvm.write_count());
    let d = sim.drain_hash();
    assert_eq!(
        (nvm.touched_pages().collect(), nvm.write_count()),
        before,
        "{what}: drain_hash wrote"
    );
    let mut masked = nvm.words().to_vec();
    for w in boot_only_words() {
        masked[w as usize] = 0;
    }
    let volatile = peel_full_scan(d, &masked);
    let counted = eat(
        eat(volatile, sim.metrics.fault_skips),
        sim.metrics.fault_corruptions,
    );
    assert_eq!(
        full_scan(counted, nvm.words()),
        sim.state_hash(),
        "{what}: drain hash != masked full scan"
    );
}

/// What a snapshot buffer was last filled with.
struct Filled {
    hash: u64,
    words: Vec<Word>,
}

/// Random runs, injections, `snapshot_into` and `restore` on crc16, blink
/// and bitcnt under every scheme. Every state must hash like the full
/// scan (the drain hash like the masked one), and every restore must land
/// on exactly what its buffer was filled with. One buffer starts out filled from a simulator of another
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
                match rng.range_u64(0, 9) {
                    0 | 1 => {
                        sim.run_steps(rng.range_u64(1, 5_000));
                    }
                    8 => {
                        // A skip leaves the fault counted but the state
                        // otherwise plain.
                        sim.inject_instruction_fault(FaultEffect::Skip);
                        sim.run_steps(1);
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
                assert_drain_hash_is_masked_full_scan(&sim, &what);
            }
        }
    }
}

/// crc16 under `scheme` on the bench supply with `value` preloaded at
/// NVM word `addr` (through the data image, so it is there from reset).
fn poked(scheme: SchemeKind, poke: Option<(u32, Word)>) -> Simulator {
    let mut app = gecko_apps::app_by_name("crc16").unwrap();
    app.image
        .extend(poke.map(|(addr, value)| (addr, vec![value])));
    Simulator::new(&app, SimConfig::bench_supply(scheme)).unwrap()
}

/// States that differ only in boot-only words share a drain hash, and
/// keep sharing it while they run without booting; a difference anywhere
/// else (the region, mode and reload words, Ratchet's commit word, the
/// words next to the areas, a register) tells them apart.
#[test]
fn drain_hash_ignores_exactly_the_boot_only_words() {
    let quick = std::env::var_os("GECKO_QUICK").is_some();
    let (laps, lap) = if quick { (2, 500) } else { (4, 1_500) };
    for scheme in SchemeKind::all() {
        let mut plain = poked(scheme, None);
        let mut pokes: Vec<Simulator> = boot_only_words()
            .into_iter()
            .map(|addr| poked(scheme, Some((addr, 0x5a5a))))
            .collect();
        for lap_no in 0..=laps {
            for (sim, addr) in pokes.iter().zip(boot_only_words()) {
                let what = format!("{scheme} word {addr:#x} lap {lap_no}");
                assert_eq!(sim.metrics.reboots, 0, "{what}: bench supply");
                assert_eq!(sim.drain_hash(), plain.drain_hash(), "{what}");
                // The reload writes the poked image's extra word, so only
                // the energy and cycle counts may differ.
                let outcome = |s: &Simulator| (s.metrics.completions, s.metrics.checksum_errors);
                assert_eq!(outcome(sim), outcome(&plain), "{what}: the runs agree");
            }
            plain.run_steps(lap);
            for sim in &mut pokes {
                sim.run_steps(lap);
            }
        }
        // Nothing in NVP's boot provisioning rewrites a poked word, so
        // the full state hash sees each poke.
        if scheme == SchemeKind::Nvp {
            let fresh = poked(scheme, None);
            for addr in boot_only_words() {
                let sim = poked(scheme, Some((addr, 0x5a5a)));
                assert_ne!(sim.state_hash(), fresh.state_hash(), "{addr:#x}");
            }
        }
    }

    let (gecko, jit, ratchet) = (NVM_WORDS - 160, NVM_WORDS - 64, NVM_WORDS - 256);
    let fresh = poked(SchemeKind::Nvp, None);
    let kept = [
        gecko,      // committed region
        gecko + 2,  // mode
        gecko + 5,  // reload flag
        gecko + 55, // past the GECKO area
        jit - 1,
        jit + 21,
        ratchet,      // commit word
        ratchet + 33, // past the buffers
        ratchet - 1,
    ];
    for addr in kept {
        let sim = poked(SchemeKind::Nvp, Some((addr, 0x5a5a)));
        assert_ne!(sim.drain_hash(), fresh.drain_hash(), "word {addr:#x}");
    }

    // A corrupted instruction that writes a register and nothing else.
    let mut k = 0;
    loop {
        let (mut a, mut b) = (
            poked(SchemeKind::Gecko, None),
            poked(SchemeKind::Gecko, None),
        );
        a.run_steps(k);
        b.run_steps(k);
        b.inject_instruction_fault(FaultEffect::OpcodeCorrupt);
        a.step_one();
        b.step_one();
        if a.nvm().words() == b.nvm().words() && a.pc() == b.pc() {
            assert_ne!(a.state_hash(), b.state_hash());
            assert_ne!(a.drain_hash(), b.drain_hash(), "a register at step {k}");
            break;
        }
        k += 1;
        assert!(k < 200, "no register-only corruption in 200 steps");
    }
}
