//! Snapshot-fork exploration: enumerate every failure window of the
//! golden trace, fork, inject, and check the post-recovery run.
//!
//! The naive check is O(n²): for each of the n windows, re-execute the
//! prefix from cold and then the suffix to completion. The checker instead
//! walks the golden trace *once*; at each window it captures a
//! [`gecko_sim::SimSnapshot`], injects the fault, follows the recovery to
//! completion, and rewinds — amortized O(n) plus the (memoized) recovery
//! suffixes. Explorations whose post-recovery resume state hashes equal to
//! one already checked are answered from the memo table, and a drain that
//! reaches, at its join point (its first region commit, or for an artifact
//! without regions its first loop-header entry), a state an earlier drain
//! passed through joins that drain's outcome; a spoofed-wake-up sweep that
//! joins there ends, since that drain never slept again (see DESIGN.md §10
//! for why the logical-state hash is a sound key for the first, and the
//! drain-readable state hash for the others, under an undisturbed bench
//! supply).

use std::collections::{BTreeSet, HashMap};

use gecko_isa::RegionId;
use gecko_sim::device::CompiledApp;
use gecko_sim::{ExecMode, SimConfig, Simulator};

use crate::verdict::{Blame, CheckStats, InjectionKind, Outcome, PlannedInjection, Violation};

/// Exploration policy for one check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExploreConfig {
    /// Injection depth: 1 checks every single-fault schedule, 2 addition-
    /// ally re-injects a nested fault at every offset within
    /// `refail_horizon` of each primary injection's recovery.
    pub depth: u32,
    /// Enumerate plain power-failure windows.
    pub power_failure_windows: bool,
    /// Enumerate EMI windows (spoofed checkpoint signals; at depth ≥ 2
    /// also spoofed wake-ups during recovery sleeps).
    pub emi_windows: bool,
    /// Enumerate EM instruction-fault windows (skip and corrupt, primary
    /// only). Off by default: fault checking is opt-in, and judged
    /// against the faulted-continuous reference — a fault alone rewrites
    /// what a correct execution computes, so only divergence *between*
    /// the crashed and uncrashed faulted runs (or a livelock) counts as a
    /// violation. See DESIGN.md §17.
    pub fault_windows: bool,
    /// How many qualifying steps past a primary injection nested faults
    /// are attempted at (offsets 1..=horizon).
    pub refail_horizon: u64,
    /// Memoize explorations on the post-recovery state hash.
    pub memoize: bool,
    /// Check only the first `n` windows of the golden trace (`None` =
    /// every window — the exhaustive default). Smoke/quick runs cap this.
    pub max_windows: Option<u64>,
    /// Peripheral seed (must match across golden run and exploration).
    pub seed: u64,
    /// Run the simulator on its fast paths ([`ExecMode::Predecoded`]:
    /// predecoded dispatch, post-injection recharge hibernation
    /// fast-forward and event-horizon active spans). Observably identical
    /// either way — verdicts, violations and even `CheckStats::steps`
    /// match bit for bit; `false` selects [`ExecMode::Interpreted`], the
    /// step-exact reference the differential tests compare against.
    pub fast_forward: bool,
}

impl Default for ExploreConfig {
    fn default() -> ExploreConfig {
        ExploreConfig {
            depth: 1,
            power_failure_windows: true,
            emi_windows: true,
            fault_windows: false,
            refail_horizon: 24,
            memoize: true,
            max_windows: None,
            seed: 7,
            fast_forward: true,
        }
    }
}

impl ExploreConfig {
    /// Builder: set the injection depth.
    pub fn with_depth(mut self, depth: u32) -> ExploreConfig {
        self.depth = depth;
        self
    }

    /// Builder: cap the number of windows.
    pub fn with_max_windows(mut self, n: u64) -> ExploreConfig {
        self.max_windows = Some(n);
        self
    }

    /// Builder: enable or disable EM instruction-fault windows.
    pub fn with_fault_windows(mut self, enabled: bool) -> ExploreConfig {
        self.fault_windows = enabled;
        self
    }

    /// The primary injection kinds this config enumerates. Spoofed
    /// wake-ups are nested-only: on the (always-on) golden trace they are
    /// no-ops. The EM fault kinds are primary-only: their depth-1 outcome
    /// doubles as the faulted-continuous reference the nested outcomes
    /// are judged against.
    pub fn primary_kinds(&self) -> Vec<InjectionKind> {
        let mut kinds = Vec::new();
        if self.power_failure_windows {
            kinds.push(InjectionKind::PowerFailure);
        }
        if self.emi_windows {
            kinds.push(InjectionKind::SpoofedCheckpoint);
        }
        if self.fault_windows {
            kinds.push(InjectionKind::InstructionSkip);
            kinds.push(InjectionKind::InstructionCorrupt);
        }
        kinds
    }

    /// The nested (depth-2) injection kinds. Never includes the EM fault
    /// kinds (see [`ExploreConfig::primary_kinds`]).
    pub fn nested_kinds(&self) -> Vec<InjectionKind> {
        let mut kinds = vec![InjectionKind::PowerFailure];
        if self.emi_windows {
            kinds.push(InjectionKind::SpoofedCheckpoint);
            kinds.push(InjectionKind::SpoofedWakeup);
        }
        kinds
    }
}

/// A fresh bench-supply simulator for checking `compiled`. The checker
/// always runs on the bench supply: failures come from the injection
/// schedule, never the harvester, so every divergence from the golden
/// trace is one the checker chose (and the memo hash stays sound).
pub(crate) fn checker_sim(compiled: &CompiledApp, seed: u64, fast_forward: bool) -> Simulator {
    let mut config = SimConfig::bench_supply(compiled.scheme);
    config.seed = seed;
    let mut sim = Simulator::from_compiled(compiled, config);
    sim.set_exec_mode(if fast_forward {
        ExecMode::Predecoded
    } else {
        ExecMode::Interpreted
    });
    sim
}

/// Step budget for one exploration: any legitimate recovery replays at
/// most the whole run plus per-failure reboot/recharge sleeps.
pub(crate) fn explore_budget(golden_steps: u64) -> u64 {
    4 * golden_steps + 100_000
}

/// Measures the failure-free golden trace: the number of simulation steps
/// to the first completion. Every step index in `0..steps` is a failure
/// window.
///
/// # Errors
///
/// [`GoldenError::DidNotComplete`] if the app exceeds its step budget,
/// [`GoldenError::Mismatch`] if the failure-free run itself produces the
/// wrong checksum (the artifact is broken before any fault is injected).
pub fn golden_steps(compiled: &CompiledApp, seed: u64) -> Result<u64, GoldenError> {
    let mut sim = checker_sim(compiled, seed, true);
    let budget = compiled.app.step_budget();
    // `run_capped` drains through the same `advance_to_horizon` seam as
    // every other run loop; the step count it returns is bit-identical to
    // the per-step walk it replaced.
    let steps = sim.run_capped(f64::INFINITY, 1, budget);
    if sim.metrics.completions < 1 {
        return Err(GoldenError::DidNotComplete { budget });
    }
    if sim.metrics.checksum_errors > 0 {
        return Err(GoldenError::Mismatch {
            got: sim.nvm().read(compiled.app.checksum_addr) as i64,
            expected: compiled.app.expected_checksum as i64,
        });
    }
    Ok(steps)
}

/// Why a golden run failed (making the pair uncheckable).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GoldenError {
    /// No completion within the app's step budget.
    DidNotComplete {
        /// The budget that was exhausted.
        budget: u64,
    },
    /// The failure-free run already produces the wrong checksum.
    Mismatch {
        /// Checksum the golden run produced.
        got: i64,
        /// The app's expected checksum.
        expected: i64,
    },
}

impl std::fmt::Display for GoldenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GoldenError::DidNotComplete { budget } => {
                write!(f, "golden run did not complete within {budget} steps")
            }
            GoldenError::Mismatch { got, expected } => {
                write!(f, "golden run checksum {got} != expected {expected}")
            }
        }
    }
}

/// The memo table: post-recovery state hash → observed outcome. One table
/// per work-item chunk, so memo-hit counts are worker-count-invariant.
type MemoTable = HashMap<u64, Outcome>;

/// The commit table: [`Simulator::drain_hash`] at a drain's join point
/// (see [`reach`]) → what the rest of that drain did. One per chunk, like
/// the memo table.
type CommitTable = HashMap<u64, Commit>;

/// The rest of a drain, from its join point to completion.
#[derive(Debug, Clone, Copy)]
struct Commit {
    outcome: Outcome,
    /// Steps from the join point to completion.
    remaining: u64,
    /// Whether the rest of the drain could read a word the drain hash
    /// leaves out: it booted again (the boot path reads them), or a program
    /// load reached the runtime areas (only an EM-fault-corrupted register
    /// aims one there). Such an entry never answers.
    unkeyed_read: bool,
}

/// A chunk's exploration tables and what its commit table answered. The
/// re-prove [`crate::Replayer`] keeps one too, for its commit table alone.
#[derive(Default)]
pub(crate) struct Tables {
    memo: MemoTable,
    commits: CommitTable,
    pub(crate) joins: Joins,
}

impl Tables {
    /// The outcome and remaining steps of the entry for the join-point
    /// state `key`, if it answers: its drain neither booted again nor
    /// loaded from the runtime areas after the join point.
    fn answer(&self, key: u64) -> Option<(Outcome, u64)> {
        match self.commits.get(&key) {
            Some(&Commit {
                outcome,
                remaining,
                unkeyed_read: false,
            }) => Some((outcome, remaining)),
            _ => None,
        }
    }
}

/// What a chunk's commit table answered (not part of any digest).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Joins {
    /// Drains answered at their join point (counted in
    /// `CheckStats::explored`).
    pub drains: u64,
    /// Spoofed-wake-up sweeps ended at their join point.
    pub sweeps: u64,
}

/// Where a walk that began with `start` committed stands after a step.
#[derive(Debug, PartialEq, Eq)]
enum Reach {
    /// Not at its join point yet.
    Walking,
    /// At its join point, a powered instruction boundary.
    Join,
    /// Past it: the region commit landed while the device slept.
    Missed,
}

/// A walk's join point. An artifact with regions joins at the first step
/// after which `committed_region()` differs from `start`: runs that re-
/// execute an idempotent region converge again by the next commit. Only
/// a powered instruction boundary is a join point, since how long a sleep
/// lasts depends on the capacitor, not the hash, so a commit that lands
/// while the device sleeps is missed. An artifact without regions (NVP)
/// has no commit to stop at and joins at its first powered entry into a
/// loop header ([`CompiledApp::loop_headers`]), a few steps from where a
/// JIT restore resumes.
fn reach(sim: &Simulator, compiled: &CompiledApp, start: Option<RegionId>) -> Reach {
    if compiled.regions.is_empty() {
        let pc = sim.pc();
        if sim.is_on() && pc.index == 0 && compiled.loop_headers[pc.block.index()] {
            Reach::Join
        } else {
            Reach::Walking
        }
    } else if sim.committed_region() == start {
        Reach::Walking
    } else if sim.is_on() {
        Reach::Join
    } else {
        Reach::Missed
    }
}

/// Result of one slab (a work-item chunk of windows): counters,
/// violations in window order, and every region any fork blamed (the
/// invalidation footprint a persistent memo keys on).
pub(crate) struct SlabOutcome {
    /// Counters over the slab.
    pub stats: CheckStats,
    /// Violations in window order.
    pub violations: Vec<Violation>,
    /// Raw region ids blamed by any fork of the slab.
    pub regions: BTreeSet<u32>,
    /// What the slab's commit table answered.
    pub joins: Joins,
}

/// Explores the windows `start..end` of the golden trace on a fresh
/// simulator advanced from step 0 to `start`. `golden` is the trace length
/// from [`golden_steps`]; `end` must not exceed it. The repositioning
/// `advance` is not counted in `stats.steps`.
pub(crate) fn check_windows(
    compiled: &CompiledApp,
    cfg: &ExploreConfig,
    start: u64,
    end: u64,
    golden: u64,
) -> SlabOutcome {
    debug_assert!(end <= golden);
    let budget = explore_budget(golden);
    let primary = cfg.primary_kinds();
    let nested = cfg.nested_kinds();
    let mut tables = Tables::default();
    let mut stats = CheckStats::default();
    let mut violations = Vec::new();
    let mut regions = BTreeSet::new();

    let mut sim = checker_sim(compiled, cfg.seed, cfg.fast_forward);
    // Reposition onto the golden trace at the first window. `advance`
    // coalesces where it can and lands bit-identically to `start`
    // individual steps.
    sim.advance(start);

    // One snapshot buffer per fork level, refilled in place: a refill or
    // a restore copies only the NVM pages either side touched.
    let mut base = sim.snapshot();
    let mut after_primary = base.clone();
    let mut resume = base.clone();
    for window in start..end {
        stats.windows += 1;
        sim.snapshot_into(&mut base);
        for &kind in &primary {
            // Depth 1: the primary fault alone.
            stats.forks += 1;
            kind.inject(&mut sim);
            let blame = if kind.is_em_fault() {
                Blame::capture_faulted(&sim, compiled, kind)
            } else {
                Blame::capture(&sim, compiled)
            };
            if let Some(r) = blame.region {
                regions.insert(r.index() as u32);
            }
            let outcome =
                settle_and_check(&mut sim, compiled, cfg, budget, &mut tables, &mut stats);
            // The oracle. For the classic kinds the reference execution is
            // the golden run, so any corrupt completion violates. For the
            // EM fault kinds the depth-1 outcome *is* the reference — the
            // fault alone rewrites what a correct-but-faulted execution
            // computes — so at depth 1 only a livelock violates, and
            // nested outcomes below are judged against this reference.
            let reference = if kind.is_em_fault() {
                outcome
            } else {
                Outcome::Clean
            };
            let violated = if kind.is_em_fault() {
                outcome == Outcome::Stuck
            } else {
                outcome.is_violation()
            };
            if violated {
                stats.violations += 1;
                violations.push(Violation {
                    window,
                    schedule: vec![PlannedInjection {
                        after_steps: window,
                        kind,
                    }],
                    outcome,
                    blame,
                });
            }
            // Depth 2: a nested fault at every offset of the recovery.
            if cfg.depth >= 2 {
                sim.restore(&base);
                kind.inject(&mut sim);
                // Captured at the fault point: nested blames prepend this
                // so a fault-then-crash counterexample names the faulted
                // region, not just the rollback it later triggers.
                let fault_site = kind
                    .is_em_fault()
                    .then(|| Blame::fault_site(&sim, compiled, kind));
                sim.snapshot_into(&mut after_primary);
                for &nk in &nested {
                    sim.restore(&after_primary);
                    let mut advanced = 0u64;
                    for offset in 1..=cfg.refail_horizon {
                        let joins = cfg.memoize.then_some((compiled, &mut tables));
                        if !advance_qualifying(
                            &mut sim,
                            nk,
                            offset - advanced,
                            budget,
                            &mut stats,
                            joins,
                        ) {
                            break;
                        }
                        advanced = offset;
                        stats.forks += 1;
                        sim.snapshot_into(&mut resume);
                        nk.inject(&mut sim);
                        let mut blame2 = Blame::capture(&sim, compiled);
                        if let Some(r) = blame2.region {
                            regions.insert(r.index() as u32);
                        }
                        if let Some(site) = &fault_site {
                            blame2.detail = format!("{site}; then {}", blame2.detail);
                        }
                        let outcome2 = settle_and_check(
                            &mut sim,
                            compiled,
                            cfg,
                            budget,
                            &mut tables,
                            &mut stats,
                        );
                        // Judged against the reference: a corrupt
                        // completion that matches the faulted-continuous
                        // run is the *expected* result of the fault, not
                        // a violation of the checkpoint scheme.
                        if outcome2 == Outcome::Stuck
                            || (outcome2.is_violation() && outcome2 != reference)
                        {
                            stats.violations += 1;
                            violations.push(Violation {
                                window,
                                schedule: vec![
                                    PlannedInjection {
                                        after_steps: window,
                                        kind,
                                    },
                                    PlannedInjection {
                                        after_steps: offset,
                                        kind: nk,
                                    },
                                ],
                                outcome: outcome2,
                                blame: blame2,
                            });
                        }
                        sim.restore(&resume);
                    }
                }
            }
            sim.restore(&base);
        }
        // Advance the golden trace to the next window.
        sim.step_one();
    }
    SlabOutcome {
        stats,
        violations,
        regions,
        joins: tables.joins,
    }
}

/// Advances `n` qualifying steps for injection kind `kind` (see
/// [`InjectionKind::counts_step`]). Returns `false` — the injection point
/// is unreachable — if the run completes or the budget runs out first.
/// A sleep whose ticks do not qualify (any kind but a spoofed wake-up)
/// advances through `advance_sleep`, which stops at the wake-up or the
/// budget, exactly where the tick-by-tick loop would.
///
/// With `joins` (the explorer's tables; the replayer passes `None`), the
/// first run of powered steps that do not qualify (a spoofed-wake-up sweep
/// once the device is awake) walks to its join point ([`reach`]) and looks
/// the state up in the commit table. An entry that answers never booted
/// again after its join point, and a device that falls asleep wakes only
/// by booting, so it never slept again: no qualifying step comes before
/// its completion. The sweep then ends with `false` after exactly the
/// steps the plain loop takes, the walk plus `min(remaining, budget left)`,
/// and leaves the simulator at the join point, which the caller discards.
pub(crate) fn advance_qualifying(
    sim: &mut Simulator,
    kind: InjectionKind,
    n: u64,
    budget: u64,
    stats: &mut CheckStats,
    mut joins: Option<(&CompiledApp, &mut Tables)>,
) -> bool {
    let mut qualifying = 0u64;
    let mut total = 0u64;
    while qualifying < n {
        if sim.metrics.completions >= 1 || total >= budget {
            return false;
        }
        let counts = kind.counts_step(sim);
        if !counts && !sim.is_on() {
            let slept = sim.advance_sleep(budget - total);
            stats.steps += slept;
            total += slept;
            continue;
        }
        if !counts {
            if let Some((compiled, tables)) = joins.take() {
                let (walked, remaining) = walk_to_join(sim, compiled, tables, budget - total);
                stats.steps += walked;
                total += walked;
                if let Some(remaining) = remaining {
                    let rest = remaining.min(budget - total);
                    tables.joins.sweeps += 1;
                    #[cfg(test)]
                    tests::assert_sweep_join_matches_the_plain_loop(
                        sim,
                        kind,
                        n - qualifying,
                        budget - total,
                        rest,
                    );
                    stats.steps += rest;
                    return false;
                }
                continue;
            }
        }
        sim.step_one();
        stats.steps += 1;
        total += 1;
        if counts {
            qualifying += 1;
        }
    }
    sim.metrics.completions < 1
}

/// Walks a powered run step-exact to its join point and looks the state up
/// in the commit table. Returns the steps walked and, on an answer, the
/// entry's steps from the join point to completion. Stops without a
/// lookup once the run completes, falls asleep or spends `budget`.
fn walk_to_join(
    sim: &mut Simulator,
    compiled: &CompiledApp,
    tables: &Tables,
    budget: u64,
) -> (u64, Option<u64>) {
    let start = sim.committed_region();
    let mut walked = 0u64;
    while walked < budget && sim.is_on() && sim.metrics.completions < 1 {
        sim.step_one();
        walked += 1;
        if sim.metrics.completions < 1 && reach(sim, compiled, start) == Reach::Join {
            return (
                walked,
                tables.answer(sim.drain_hash()).map(|(_, rest)| rest),
            );
        }
    }
    (walked, None)
}

/// Follows an injected fault through recovery and to the next completion,
/// memoized on the post-recovery state hash. The device first sleeps and
/// recharges (or is already on, for no-op injections); once it is back on,
/// the logical state determines the run's outcome, so that is the memo
/// point. A memo miss drains through [`drain_or_join`].
fn settle_and_check(
    sim: &mut Simulator,
    compiled: &CompiledApp,
    cfg: &ExploreConfig,
    budget: u64,
    tables: &mut Tables,
    stats: &mut CheckStats,
) -> Outcome {
    // Recovery phase: recharge, debounced wake, boot, restore. Sleeping
    // spans advance through the fast-forward-aware batch primitive; it
    // takes at most `budget` steps and stops the moment the device wakes,
    // so the step accounting (and the Stuck verdict) is identical to
    // stepping one tick at a time.
    stats.steps += sim.advance_sleep(budget);
    if !sim.is_on() {
        return Outcome::Stuck;
    }
    if sim.metrics.completions >= 1 {
        return outcome_of(sim, compiled);
    }
    let key = sim.state_hash();
    if cfg.memoize {
        if let Some(&cached) = tables.memo.get(&key) {
            stats.memo_hits += 1;
            return cached;
        }
    }
    stats.explored += 1;
    let (outcome, steps) = if cfg.memoize {
        drain_or_join(sim, compiled, budget, tables)
    } else {
        drain(sim, compiled, budget)
    };
    stats.steps += steps;
    if cfg.memoize {
        tables.memo.insert(key, outcome);
    }
    outcome
}

/// [`drain`] with the same result, `(outcome, steps)`, that stops at the
/// drain's join point ([`reach`]) when an earlier drain of the chunk
/// passed through the same state there. Runs re-executing an idempotent
/// region from different failure windows converge again by the next
/// commit, and from there the run, its verdict and its length are a
/// function of the logical state (DESIGN.md §10).
///
/// The walk to the join point is step-exact (sleep spans advance through
/// `advance_sleep`, which stops the moment the device wakes). The state
/// there is keyed on [`Simulator::drain_hash`], the state the rest of a
/// drain can read if it does not boot again. An entry answers when the
/// earlier drain neither booted again after its join point nor loaded
/// from the runtime areas, and its remaining steps fit the budget left,
/// and counts as a join; otherwise the drain continues with `run_capped`,
/// and once it completes it records its own join-point state and whether
/// it did either. `Stuck` drains record nothing.
pub(crate) fn drain_or_join(
    sim: &mut Simulator,
    compiled: &CompiledApp,
    budget: u64,
    tables: &mut Tables,
) -> (Outcome, u64) {
    let start = sim.committed_region();
    let mut walked = 0u64;
    while walked < budget && sim.metrics.completions < 1 {
        if sim.is_on() {
            sim.step_one();
            walked += 1;
        } else {
            walked += sim.advance_sleep(budget - walked);
        }
        if sim.metrics.completions >= 1 {
            continue;
        }
        match reach(sim, compiled, start) {
            Reach::Walking => continue,
            Reach::Missed => break,
            Reach::Join => {}
        }
        let key = sim.drain_hash();
        if let Some((outcome, remaining)) = tables.answer(key) {
            if walked + remaining <= budget {
                tables.joins.drains += 1;
                #[cfg(test)]
                tests::assert_join_matches_a_plain_drain(
                    sim,
                    compiled,
                    budget - walked,
                    (outcome, remaining),
                );
                return (outcome, walked + remaining);
            }
        }
        let before = (sim.metrics.reboots, sim.nvm().fenced_load_count());
        let (outcome, rest) = drain(sim, compiled, budget - walked);
        if outcome != Outcome::Stuck {
            tables.commits.entry(key).or_insert(Commit {
                outcome,
                remaining: rest,
                unkeyed_read: (sim.metrics.reboots, sim.nvm().fenced_load_count()) != before,
            });
        }
        return (outcome, walked + rest);
    }
    // Completed, out of budget or past a missed join point: `drain`
    // finishes the run plainly (no step at all in the first two cases).
    let (outcome, rest) = drain(sim, compiled, budget - walked);
    (outcome, walked + rest)
}

/// Drains to the next completion within `budget` steps and returns the
/// outcome (`Stuck` when the budget runs out first) plus the steps taken.
/// One `run_capped` call — the same `advance_to_horizon` seam as every
/// run loop, coalescing both recharge hibernation and active execution —
/// returns only at a completion or with the budget spent, and its step
/// count is bit-identical to a per-step walk.
pub(crate) fn drain(sim: &mut Simulator, compiled: &CompiledApp, budget: u64) -> (Outcome, u64) {
    let steps = sim.run_capped(f64::INFINITY, 1, budget);
    let outcome = if sim.metrics.completions >= 1 {
        outcome_of(sim, compiled)
    } else {
        Outcome::Stuck
    };
    (outcome, steps)
}

/// Classifies a completed run.
pub(crate) fn outcome_of(sim: &Simulator, compiled: &CompiledApp) -> Outcome {
    if sim.metrics.checksum_errors > 0 {
        Outcome::Corrupt {
            got: sim.nvm().read(compiled.app.checksum_addr),
        }
    } else {
        Outcome::Clean
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gecko_compiler::CompileOptions;
    use gecko_sim::{SchemeKind, SimSnapshot};

    /// The differential every join runs under test: the outcome and step
    /// count the commit table answered must equal a plain drain from the
    /// commit state (the caller restores the simulator afterwards).
    pub(super) fn assert_join_matches_a_plain_drain(
        sim: &mut Simulator,
        compiled: &CompiledApp,
        budget: u64,
        joined: (Outcome, u64),
    ) {
        assert_eq!(
            drain(sim, compiled, budget),
            joined,
            "a join must answer what the drain it skips would"
        );
    }

    /// The differential every sweep join runs under test: the plain loop
    /// from the join point must end the sweep too, after `steps` more
    /// steps (the caller discards the simulator afterwards).
    pub(super) fn assert_sweep_join_matches_the_plain_loop(
        sim: &mut Simulator,
        kind: InjectionKind,
        n: u64,
        budget: u64,
        steps: u64,
    ) {
        let mut stats = CheckStats::default();
        let reached = advance_qualifying(sim, kind, n, budget, &mut stats, None);
        assert_eq!(
            (reached, stats.steps),
            (false, steps),
            "a sweep join must end the sweep as the plain loop would"
        );
    }

    fn build(app: &str, scheme: SchemeKind) -> CompiledApp {
        let app = gecko_apps::app_by_name(app).unwrap();
        CompiledApp::build(&app, scheme, &CompileOptions::default()).unwrap()
    }

    #[test]
    fn every_join_equals_a_plain_drain() {
        // Each drain join and each sweep join asserts its differential
        // above as it answers, so the grid below only has to produce
        // joins, NVP's loop-header joins and the joins of the re-prove
        // replayer (which drains through `drain_or_join` too) included.
        let cfg = ExploreConfig {
            seed: 1,
            ..ExploreConfig::default()
        }
        .with_depth(2)
        .with_fault_windows(true);
        let (mut sweeps, mut replayer_joins) = (0, 0);
        for app in ["crc16", "blink", "bitcnt"] {
            for scheme in SchemeKind::all() {
                let compiled = build(app, scheme);
                let golden = golden_steps(&compiled, cfg.seed).unwrap();
                let slab = check_windows(&compiled, &cfg, 0, 10, golden);
                assert!(slab.joins.drains > 0, "{app}/{}", scheme.name());
                sweeps += slab.joins.sweeps;
                let mut replayer = crate::Replayer::new(&compiled, &cfg, golden);
                for v in &slab.violations {
                    assert_eq!(replayer.replay(&v.schedule).0, v.outcome);
                }
                replayer_joins += replayer.joins();
            }
        }
        assert!(sweeps > 0 && replayer_joins > 0);
    }

    /// The 10-window differential above over all 30 windows of the
    /// benchmark grid: every drain join still runs the plain drain it
    /// skips, and every sweep join the plain loop.
    #[test]
    #[ignore = "the full benchmark grid; scripts/check.sh runs it in release"]
    fn every_join_on_the_full_grid_equals_a_plain_drain() {
        let cfg = ExploreConfig {
            seed: 1,
            ..ExploreConfig::default()
        }
        .with_depth(2)
        .with_fault_windows(true);
        let (mut joins, mut sweeps) = (0, 0);
        for app in ["crc16", "blink", "bitcnt"] {
            for scheme in SchemeKind::all() {
                let compiled = build(app, scheme);
                let golden = golden_steps(&compiled, cfg.seed).unwrap();
                let slab = check_windows(&compiled, &cfg, 0, 30, golden);
                eprintln!(
                    "{app}/{}: {} of {} explored drains joined, {} sweeps joined",
                    scheme.name(),
                    slab.joins.drains,
                    slab.stats.explored,
                    slab.joins.sweeps
                );
                joins += slab.joins.drains;
                sweeps += slab.joins.sweeps;
            }
        }
        eprintln!(
            "{joins} drain joins and {sweeps} sweep joins, each equal to the plain run it skipped"
        );
        assert!(joins >= 15_500, "only {joins} drain joins");
        assert!(sweeps >= 1_000, "only {sweeps} sweep joins");
    }

    #[test]
    fn a_drain_that_boots_again_never_answers() {
        // On a 10 uF harvesting capacitor a long WAR counter browns out and
        // boots again many times per run, so the rest of a drain from its
        // first region commit reads the boot-only words the drain hash
        // leaves out. Its entry must never answer, not even for a second
        // drain from the very same state.
        let compiled = CompiledApp::build(
            &crate::war_counter_app(16_000),
            SchemeKind::Ratchet,
            &CompileOptions::default(),
        )
        .unwrap();
        let mut config = SimConfig::harvesting(SchemeKind::Ratchet);
        config.capacitance_f = 10e-6;
        let mut sim = Simulator::from_compiled(&compiled, config);
        let wake = sim.snapshot();
        let budget = 10_000_000;
        let plain = drain(&mut sim, &compiled, budget);
        assert_eq!(plain.0, Outcome::Clean);
        assert!(sim.metrics.reboots > 1, "{:?}", sim.metrics);
        let mut tables = Tables::default();
        for _ in 0..2 {
            sim.restore(&wake);
            let got = drain_or_join(&mut sim, &compiled, budget, &mut tables);
            assert_eq!(got, plain, "a guarded drain is a plain drain");
        }
        let entries: Vec<Commit> = tables.commits.values().copied().collect();
        assert_eq!(entries.len(), 1, "both drains reach one commit state");
        assert!(entries[0].unkeyed_read, "{entries:?}");
        assert_eq!(tables.joins.drains, 0, "the entry never answers");
    }

    #[test]
    fn the_memo_switch_turns_the_commit_table_off() {
        let compiled = build("crc16", SchemeKind::GeckoNoPrune);
        let cfg = ExploreConfig::default()
            .with_depth(2)
            .with_fault_windows(true);
        let golden = golden_steps(&compiled, cfg.seed).unwrap();
        let on = check_windows(&compiled, &cfg, 0, 4, golden);
        let off = ExploreConfig {
            memoize: false,
            ..cfg
        };
        let off = check_windows(&compiled, &off, 0, 4, golden);
        assert!(on.joins.drains > 0 && on.joins.sweeps > 0);
        assert_eq!(off.joins, Joins::default());
        assert_eq!(on.violations, off.violations);
    }

    /// The wake state after injecting `kind` at `window` and settling.
    fn wake_state(
        sim: &mut Simulator,
        reset: &SimSnapshot,
        window: u64,
        kind: InjectionKind,
    ) -> SimSnapshot {
        sim.restore(reset);
        sim.advance(window);
        kind.inject(sim);
        sim.advance_sleep(u64::MAX);
        sim.snapshot()
    }

    /// Steps from a wake state to its first powered region commit, and
    /// the state hash there.
    fn first_commit(sim: &mut Simulator, wake: &SimSnapshot) -> Option<(u64, u64)> {
        sim.restore(wake);
        let start = sim.committed_region();
        for walked in 1..100_000 {
            sim.step_one();
            if sim.metrics.completions >= 1 {
                return None;
            }
            if sim.committed_region() != start && sim.is_on() {
                return Some((walked, sim.state_hash()));
            }
        }
        None
    }

    #[test]
    fn a_join_never_answers_past_the_remaining_budget() {
        // Two wake states, told apart by their hashes, that reach one
        // commit state after walks of different lengths.
        let compiled = build("crc16", SchemeKind::Gecko);
        let cfg = ExploreConfig::default();
        let golden = golden_steps(&compiled, cfg.seed).unwrap();
        let mut sim = checker_sim(&compiled, cfg.seed, cfg.fast_forward);
        let reset = sim.snapshot();
        let mut seen: HashMap<u64, (u64, SimSnapshot, u64)> = HashMap::new();
        let mut found = None;
        'search: for window in 0..golden.min(400) {
            for kind in ExploreConfig::default()
                .with_fault_windows(true)
                .primary_kinds()
            {
                let wake = wake_state(&mut sim, &reset, window, kind);
                if !sim.is_on() {
                    continue;
                }
                let wake_hash = sim.state_hash();
                let Some((walked, key)) = first_commit(&mut sim, &wake) else {
                    continue;
                };
                match seen.get(&key) {
                    Some((w, other, h)) if *w != walked && *h != wake_hash => {
                        found = Some(((*w, other.clone()), (walked, wake)));
                        break 'search;
                    }
                    Some(_) => {}
                    None => {
                        seen.insert(key, (walked, wake, wake_hash));
                    }
                }
            }
        }
        let ((w1, a), (w2, b)) = found.expect("two drains join at one commit");
        let (short, long) = if w1 < w2 { (a, b) } else { (b, a) };
        let plain = |sim: &mut Simulator, wake: &SimSnapshot, budget: u64| {
            sim.restore(wake);
            drain(sim, &compiled, budget)
        };
        let (outcome, short_steps) = plain(&mut sim, &short, u64::MAX);
        assert_eq!(outcome, Outcome::Clean);
        let (_, long_steps) = plain(&mut sim, &long, u64::MAX);
        assert!(long_steps > short_steps);

        // Only the shorter drain fits; then both do.
        for (budget, joins) in [(short_steps, 0), (long_steps, 1)] {
            for order in [[&short, &long], [&long, &short]] {
                let mut tables = Tables::default();
                for wake in order {
                    sim.restore(wake);
                    let mut stats = CheckStats::default();
                    let got = settle_and_check(
                        &mut sim,
                        &compiled,
                        &cfg,
                        budget,
                        &mut tables,
                        &mut stats,
                    );
                    assert_eq!((got, stats.steps), plain(&mut sim, wake, budget));
                }
                assert_eq!(tables.joins.drains, joins, "budget {budget}");
            }
        }
        assert_eq!(plain(&mut sim, &long, short_steps).0, Outcome::Stuck);
    }
}
