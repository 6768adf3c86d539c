//! Counterexample shrinking: minimize a violating injection schedule by
//! replay.
//!
//! The shrinker works on the schedule alone — each candidate is replayed
//! from reset, so a shrunk counterexample is self-contained and
//! reproducible without any exploration state. Two passes repeat to a
//! fixed point under a replay budget:
//!
//! 1. **Subset pass** — drop one injection at a time (folding its offset
//!    into its successor so later injections keep their absolute
//!    positions). A schedule that still violates with an injection removed
//!    never needed it.
//! 2. **Offset pass** — lower each injection's offset toward zero with the
//!    QuickCheck-style candidates `0`, `o/2`, `o-1`, keeping the earliest
//!    offset that still violates.
//!
//! Schedules containing EM instruction faults are judged against the
//! *faulted-continuous reference*: the replay of the schedule's leading
//! run of fault injections alone (see DESIGN.md §17). Lowering a fault's
//! offset moves the reference with it, so the reference is recomputed per
//! candidate; those replays count toward the replay budget.
//!
//! Every replay runs through a [`Replayer`]: one reused simulator rewound
//! to its reset snapshot per schedule, plus an outcome table keyed like
//! the explorer's memo on the post-recovery state, so schedules that
//! recover into an already-drained state skip the drain, and the
//! explorer's commit table, so a drain that reaches a join point an
//! earlier drain passed through stops there (DESIGN.md §10).

use std::collections::HashMap;

use gecko_sim::device::CompiledApp;
use gecko_sim::{SimSnapshot, Simulator};

use crate::explore::{
    advance_qualifying, checker_sim, drain, drain_or_join, explore_budget, outcome_of,
    ExploreConfig, Tables,
};
use crate::verdict::{Blame, CheckStats, Counterexample, Outcome, PlannedInjection};

/// Replays injection schedules from reset for one compiled artifact. One
/// simulator is built once and rewound to its reset snapshot per schedule,
/// and completed drains are memoized on the post-recovery
/// [`Simulator::state_hash`] — the point where exploration memoizes, with
/// the same soundness argument (DESIGN.md §10). Each entry keeps its
/// drain's step count, and a hit answers only when that drain fits the
/// schedule's remaining budget, so every verdict, `Stuck` included, equals
/// a replay on a fresh simulator. A drain that table cannot answer runs
/// through the explorer's `drain_or_join`, with a commit table of the
/// replayer's own: the same [`Simulator::drain_hash`] key, join points and
/// guards, and the same remaining-budget check. `Stuck` drains are never
/// memoized, and the blame is captured fresh on every replay. With
/// [`ExploreConfig::memoize`] off, neither table is used.
pub struct Replayer<'a> {
    compiled: &'a CompiledApp,
    budget: u64,
    memoize: bool,
    sim: Simulator,
    reset: SimSnapshot,
    /// Post-recovery state hash → (outcome, drain steps).
    table: HashMap<u64, (Outcome, u64)>,
    /// The commit table drains join through (its memo table stays empty).
    tables: Tables,
    replays: u64,
    drains: u64,
}

impl<'a> Replayer<'a> {
    /// A replayer for `compiled` under `cfg`'s seed and fast paths, with
    /// the step budget exploration derives from the golden trace length
    /// `golden`. The tables are consulted only when `cfg.memoize` is set.
    pub fn new(compiled: &'a CompiledApp, cfg: &ExploreConfig, golden: u64) -> Replayer<'a> {
        let sim = checker_sim(compiled, cfg.seed, cfg.fast_forward);
        let reset = sim.snapshot();
        Replayer {
            compiled,
            budget: explore_budget(golden),
            memoize: cfg.memoize,
            sim,
            reset,
            table: HashMap::new(),
            tables: Tables::default(),
            replays: 0,
            drains: 0,
        }
    }

    /// Replays an injection schedule from reset and returns the outcome
    /// plus the blame context at the final injection. A schedule whose
    /// injection points are unreachable (the run completes first) is
    /// vacuously clean.
    pub fn replay(&mut self, schedule: &[PlannedInjection]) -> (Outcome, Blame) {
        self.replays += 1;
        let (compiled, budget) = (self.compiled, self.budget);
        let sim = &mut self.sim;
        sim.restore(&self.reset);
        let mut stats = CheckStats::default();
        let mut blame = Blame::capture(sim, compiled);
        let mut fault_site: Option<String> = None;
        for inj in schedule {
            if !advance_qualifying(sim, inj.kind, inj.after_steps, budget, &mut stats, None) {
                return (Outcome::Clean, blame);
            }
            inj.kind.inject(sim);
            // Carry the most recent EM fault's site into later blames so a
            // fault-then-crash schedule still names the faulted region.
            blame = if inj.kind.is_em_fault() {
                let site = Blame::fault_site(sim, compiled, inj.kind);
                let mut b = Blame::capture(sim, compiled);
                b.detail = format!("{site}; {}", b.detail);
                fault_site = Some(site);
                b
            } else {
                let mut b = Blame::capture(sim, compiled);
                if let Some(site) = &fault_site {
                    b.detail = format!("{site}; then {}", b.detail);
                }
                b
            };
        }
        // Settle, then drain to the next completion, under one combined
        // budget: `advance_sleep` stops the moment the device wakes, with
        // step counts bit-identical to the single drain it splits.
        let settled = sim.advance_sleep(budget);
        if !sim.is_on() {
            return (Outcome::Stuck, blame);
        }
        if sim.metrics.completions >= 1 {
            return (outcome_of(sim, compiled), blame);
        }
        let key = sim.state_hash();
        if self.memoize {
            if let Some(&(outcome, steps)) = self.table.get(&key) {
                if settled + steps <= budget {
                    return (outcome, blame);
                }
            }
        }
        self.drains += 1;
        let (outcome, steps) = if self.memoize {
            drain_or_join(sim, compiled, budget - settled, &mut self.tables)
        } else {
            drain(sim, compiled, budget - settled)
        };
        if self.memoize && outcome != Outcome::Stuck {
            self.table.insert(key, (outcome, steps));
        }
        (outcome, blame)
    }

    /// Schedules replayed so far.
    pub fn replays(&self) -> u64 {
        self.replays
    }

    /// Drains actually run so far: replays the outcome table could not
    /// answer.
    pub fn drains(&self) -> u64 {
        self.drains
    }

    /// Of those drains, the ones answered at their join point from the
    /// commit table.
    pub fn joins(&self) -> u64 {
        self.tables.joins.drains
    }
}

/// Replays an injection schedule from reset and returns the outcome plus
/// the blame context at the final injection — one schedule on a fresh
/// [`Replayer`], the reference every shared replayer must match. A
/// schedule whose injection points are unreachable (the run completes
/// first) is vacuously clean.
pub fn replay(
    compiled: &CompiledApp,
    cfg: &ExploreConfig,
    schedule: &[PlannedInjection],
    golden: u64,
) -> (Outcome, Blame) {
    Replayer::new(compiled, cfg, golden).replay(schedule)
}

/// Shrinks a violating schedule to a minimal one, replaying at most
/// `max_replays` candidates. The input schedule must violate (the caller
/// found it by exploration); the result is confirmed by replay. Every
/// candidate and reference replay runs through one [`Replayer`].
pub fn shrink_schedule(
    compiled: &CompiledApp,
    cfg: &ExploreConfig,
    schedule: &[PlannedInjection],
    golden: u64,
    max_replays: u64,
) -> Counterexample {
    let mut replayer = Replayer::new(compiled, cfg, golden);
    let mut best = schedule.to_vec();

    // Whether `outcome` (from replaying `candidate`) violates, judged
    // against the faulted-continuous reference: the replay of the
    // candidate's leading run of EM fault injections alone. Fault kinds
    // are generated primary-only, so that prefix is exact. With no faults
    // the reference is the golden run and this degenerates to the classic
    // any-corruption-violates oracle.
    let violates = |rp: &mut Replayer, candidate: &[PlannedInjection], outcome: Outcome| -> bool {
        match outcome {
            Outcome::Stuck => true,
            Outcome::Clean => false,
            Outcome::Corrupt { .. } => {
                let prefix: Vec<PlannedInjection> = candidate
                    .iter()
                    .copied()
                    .take_while(|p| p.kind.is_em_fault())
                    .collect();
                if prefix.is_empty() {
                    return true;
                }
                if prefix.len() == candidate.len() {
                    // The outcome *is* the reference.
                    return false;
                }
                if rp.replays() >= max_replays {
                    // Budget exhausted mid-judgement: conservatively keep
                    // the previous best rather than accept unjudged.
                    return false;
                }
                let (reference, _) = rp.replay(&prefix);
                outcome != reference
            }
        }
    };

    let (mut best_outcome, mut best_blame) = replayer.replay(&best);
    let input_violates = violates(&mut replayer, &best, best_outcome);
    debug_assert!(input_violates, "shrinker fed a non-violating schedule");
    let _ = input_violates;

    let try_candidate =
        |rp: &mut Replayer, candidate: &[PlannedInjection]| -> Option<(Outcome, Blame)> {
            if rp.replays() >= max_replays {
                return None;
            }
            let (outcome, blame) = rp.replay(candidate);
            violates(rp, candidate, outcome).then_some((outcome, blame))
        };

    let mut improved = true;
    while improved && replayer.replays() < max_replays {
        improved = false;
        // Subset pass: drop injections.
        if best.len() > 1 {
            let mut i = 0;
            while i < best.len() && best.len() > 1 {
                let mut candidate = best.clone();
                let removed = candidate.remove(i);
                if i < candidate.len() {
                    candidate[i].after_steps += removed.after_steps;
                }
                if let Some((o, b)) = try_candidate(&mut replayer, &candidate) {
                    best = candidate;
                    best_outcome = o;
                    best_blame = b;
                    improved = true;
                    // Retry the same index: the successor moved into it.
                } else {
                    i += 1;
                }
            }
        }
        // Offset pass: lower each offset toward zero.
        for i in 0..best.len() {
            loop {
                let current = best[i].after_steps;
                if current == 0 {
                    break;
                }
                let candidates = [0, current / 2, current - 1];
                let mut lowered = false;
                for &c in &candidates {
                    if c >= current {
                        continue;
                    }
                    let mut candidate = best.clone();
                    candidate[i].after_steps = c;
                    if let Some((o, b)) = try_candidate(&mut replayer, &candidate) {
                        best = candidate;
                        best_outcome = o;
                        best_blame = b;
                        improved = true;
                        lowered = true;
                        break;
                    }
                }
                if !lowered || replayer.replays() >= max_replays {
                    break;
                }
            }
        }
    }

    Counterexample {
        schedule: best,
        outcome: best_outcome,
        blame: best_blame,
        replays: replayer.replays(),
    }
}
