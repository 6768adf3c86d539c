//! Micro-benchmark of the model checker's snapshot-fork exploration
//! against the naive cold-restart sweep it replaces.
//!
//! Both sides enumerate the same failure windows of the same compiled app
//! and inject the same faults (a power failure and a spoofed checkpoint
//! per window). The cold baseline pays the textbook O(n²): a fresh
//! simulator per fork, re-executing the whole prefix before every
//! injection, and re-running every recovery with no memoization. The
//! checker walks the golden trace once, forks each window via
//! `Simulator::snapshot`/`restore`, and memoizes re-converged recoveries.
//!
//! The headline ratio is *deterministic* — simulated device steps, not
//! wall-clock — so the `>= 5x` assertion cannot flake on a loaded CI box;
//! best-of-N wall-clock times are printed alongside for scale. The
//! assertion is pinned to Ratchet, where failures inside a region
//! re-converge to the boundary state and memoization collapses almost the
//! whole sweep; GECKO's pruned checkpoints leave more distinct
//! post-recovery states, so its ratio is honest but smaller.
//!
//! A second deterministic table counts the NVM words each fork moves: the
//! words the memo key hashes plus the words the snapshot refill and the
//! restore copy. A full-image fork moves the whole NVM every time; a
//! page-tracked fork moves only the pages either side touched (see
//! `Nvm::touched_pages`). The `>= 32x` assertion pins that gap.

use std::collections::HashSet;

use gecko_bench::{print_table, time_best_of};
use gecko_check::{check_compiled, ExploreConfig};
use gecko_compiler::CompileOptions;
use gecko_sim::device::CompiledApp;
use gecko_sim::{SchemeKind, SimConfig, Simulator};

/// The cold-restart baseline: per window, a fresh simulator re-executes
/// the prefix from reset, the fault is injected, and the run is driven to
/// its first completion. Returns (simulated steps, violations).
fn cold_restart_sweep(compiled: &CompiledApp, windows: u64, budget: u64) -> (u64, u64) {
    let mut steps = 0u64;
    let mut violations = 0u64;
    for window in 0..windows {
        // Two forks per window, mirroring the checker's primary kinds.
        for spoof in [false, true] {
            let mut sim =
                Simulator::from_compiled(compiled, SimConfig::bench_supply(compiled.scheme));
            for _ in 0..window {
                sim.step_one();
            }
            steps += window;
            if spoof {
                sim.inject_spoofed_checkpoint();
            } else {
                sim.inject_power_failure();
            }
            let mut spent = 0u64;
            while sim.metrics.completions < 1 && spent < budget {
                sim.step_one();
                spent += 1;
            }
            steps += spent;
            let corrupt =
                sim.nvm().read(compiled.app.checksum_addr) != compiled.app.expected_checksum;
            if sim.metrics.completions < 1 || corrupt {
                violations += 1;
            }
        }
    }
    (steps, violations)
}

/// NVM words moved per fork over the first `windows` windows, as
/// (full-image words, page-tracked words, forks). Mirrors the depth-1
/// checker walk: per window a snapshot refill, then per fork (a power
/// failure and a spoofed checkpoint) the settle, the memo-key hash, the
/// drain of a state not seen before, and the restore.
fn fork_nvm_words(compiled: &CompiledApp, windows: u64, budget: u64) -> (u64, u64, u64) {
    let mut sim = Simulator::from_compiled(compiled, SimConfig::bench_supply(compiled.scheme));
    let full = u64::from(sim.nvm().len());
    let page = u64::from(sim.nvm().page_words());
    let pages = |sim: &Simulator| sim.nvm().touched_pages().collect::<HashSet<u32>>();
    let union = |a: &HashSet<u32>, b: &HashSet<u32>| page * a.union(b).count() as u64;
    let mut base = sim.snapshot();
    let mut base_pages = pages(&sim);
    let mut seen = HashSet::new();
    let (mut before, mut after, mut forks) = (0u64, 0u64, 0u64);
    for _ in 0..windows {
        let now = pages(&sim);
        after += union(&base_pages, &now);
        before += full;
        sim.snapshot_into(&mut base);
        base_pages = now;
        for spoof in [false, true] {
            forks += 1;
            if spoof {
                sim.inject_spoofed_checkpoint();
            } else {
                sim.inject_power_failure();
            }
            let mut spent = 0u64;
            while !sim.is_on() && spent < budget {
                spent += sim.advance_sleep(budget - spent);
            }
            after += page * sim.nvm().touched_pages().count() as u64;
            if seen.insert(sim.state_hash()) {
                sim.run_capped(f64::INFINITY, 1, budget);
            }
            after += union(&base_pages, &pages(&sim));
            before += 2 * full;
            sim.restore(&base);
        }
        sim.step_one();
    }
    (before, after, forks)
}

fn main() {
    let quick = std::env::var_os("GECKO_QUICK").is_some();
    let cap = if quick { 150 } else { 600 };
    let iters = if quick { 2 } else { 3 };
    let app = gecko_apps::app_by_name("crc16").unwrap();

    let mut table = Vec::new();
    let mut words_table = Vec::new();
    let mut words_ratios = Vec::new();
    let mut ratchet_ratio = 0.0;
    for scheme in [SchemeKind::Ratchet, SchemeKind::Gecko] {
        let compiled = CompiledApp::build(&app, scheme, &CompileOptions::default()).unwrap();
        let explore = ExploreConfig {
            max_windows: Some(cap),
            ..ExploreConfig::default()
        };

        let report = check_compiled(&compiled, &explore).expect("checker runs");
        assert!(
            report.is_clean(),
            "{}: {:?}",
            scheme,
            report.violations.first()
        );
        // Fork cost: exploration steps plus the single golden-trace walk.
        let fork_steps = report.stats.steps + report.stats.windows;
        let budget = 4 * report.golden_steps + 100_000;

        let (cold_steps, cold_violations) =
            cold_restart_sweep(&compiled, report.stats.windows, budget);
        assert_eq!(cold_violations, 0, "{scheme}: baseline agrees: clean");

        let fork_wall = time_best_of(iters, || check_compiled(&compiled, &explore).unwrap());
        let cold_wall = time_best_of(iters, || {
            cold_restart_sweep(&compiled, report.stats.windows, budget)
        });

        let (full_words, touched_words, forks) =
            fork_nvm_words(&compiled, report.stats.windows, budget);
        let words_ratio = full_words as f64 / touched_words as f64;
        words_ratios.push((scheme, words_ratio));
        words_table.push(vec![
            scheme.name().to_string(),
            forks.to_string(),
            (full_words / forks).to_string(),
            (touched_words / forks).to_string(),
            format!("{words_ratio:.1}x"),
        ]);

        let ratio = cold_steps as f64 / fork_steps as f64;
        if scheme == SchemeKind::Ratchet {
            ratchet_ratio = ratio;
        }
        table.push(vec![
            scheme.name().to_string(),
            report.stats.windows.to_string(),
            fork_steps.to_string(),
            cold_steps.to_string(),
            format!("{ratio:.1}x"),
            format!("{:.1}ms", fork_wall.as_secs_f64() * 1e3),
            format!("{:.1}ms", cold_wall.as_secs_f64() * 1e3),
        ]);
    }
    print_table(
        &format!("snapshot-fork vs cold-restart, crc16, {cap} windows (best of {iters})"),
        &[
            "scheme",
            "windows",
            "fork steps",
            "cold steps",
            "speedup",
            "fork wall",
            "cold wall",
        ],
        &table,
    );
    print_table(
        &format!("NVM words hashed + copied per fork, crc16, {cap} windows"),
        &["scheme", "forks", "full image", "touched pages", "ratio"],
        &words_table,
    );
    for (scheme, ratio) in words_ratios {
        assert!(
            ratio >= 32.0,
            "{scheme}: a fork must move >= 32x fewer NVM words than a full-image fork (got {ratio:.1}x)"
        );
    }
    assert!(
        ratchet_ratio >= 5.0,
        "snapshot-fork must beat cold restart by >= 5x (got {ratchet_ratio:.1}x)"
    );
    println!("ok: snapshot-fork is {ratchet_ratio:.1}x cheaper than cold restart");
}
