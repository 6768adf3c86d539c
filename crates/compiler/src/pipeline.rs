//! The end-to-end GECKO compilation pipeline (Section VI-B's five steps
//! plus coloring), its options, errors, statistics and output type.

use std::fmt;

use gecko_isa::{Block, BlockId, CostModel, Program, RegionId, Terminator, VerifyError};

use crate::checkpoint::{cluster_before, insert_checkpoints};
use crate::coloring::color_checkpoints;
use crate::pruning::{prune_checkpoints, prune_checkpoints_filtered};
use crate::recovery::{RecoveryTable, RegionTable, RestoreAction};
use crate::regions::{
    cut_anti_dependences, form_regions_policy, hoist_war_boundaries, renumber_boundaries,
};
use crate::wcet::split_regions;

/// Tuning knobs for [`compile`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompileOptions {
    /// Maximum worst-case cycles a region may take — the minimum power-on
    /// budget of Section VI-B. `None` disables splitting.
    pub wcet_budget_cycles: Option<u64>,
    /// Whether to run checkpoint pruning (disable for the Figure 11
    /// "GECKO w/o pruning" ablation).
    pub prune: bool,
    /// Maximum instructions per recovery block.
    pub max_slice_insts: usize,
}

impl Default for CompileOptions {
    /// Pruning on, 12-instruction slices, and a 4k-cycle (≈0.25 ms at
    /// 16 MHz) region budget — a conservative minimum power-on period
    /// (well below even the spoofed-outage windows an attacker can force).
    fn default() -> CompileOptions {
        CompileOptions {
            wcet_budget_cycles: Some(4_000),
            prune: true,
            max_slice_insts: 12,
        }
    }
}

impl CompileOptions {
    /// The Figure 11 ablation: identical but with pruning disabled.
    pub fn without_pruning(self) -> CompileOptions {
        CompileOptions {
            prune: false,
            ..self
        }
    }
}

/// Compilation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// A region contains a cycle with no boundary (cannot occur after
    /// region formation; indicates a malformed hand-instrumented input).
    UnboundedRegion {
        /// A block on the boundary-free cycle.
        block: BlockId,
    },
    /// A region cannot be split under the WCET budget (a single
    /// instruction exceeds it).
    UnsplittableRegion {
        /// The block heading the unsplittable region.
        region_head: BlockId,
    },
    /// Region splitting failed to converge (defensive bound).
    SplittingDiverged,
    /// A loop that can iterate inside a region has no annotated bound, so
    /// its WCET cannot be established.
    MissingLoopBound {
        /// The unbounded loop's header block.
        header: BlockId,
    },
    /// A coloring conflict could not be localized to a single edge.
    ColoringFailed {
        /// The join region whose predecessors disagree.
        region: RegionId,
    },
    /// The instrumented program failed verification (a compiler bug).
    Verify(VerifyError),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::UnboundedRegion { block } => {
                write!(f, "region through {block} contains a boundary-free cycle")
            }
            CompileError::UnsplittableRegion { region_head } => {
                write!(f, "region at {region_head} cannot fit the WCET budget")
            }
            CompileError::SplittingDiverged => write!(f, "region splitting diverged"),
            CompileError::MissingLoopBound { header } => {
                write!(f, "loop headed by {header} has no loop_bound annotation")
            }
            CompileError::ColoringFailed { region } => {
                write!(
                    f,
                    "slot coloring conflict at region {region} not repairable"
                )
            }
            CompileError::Verify(e) => write!(f, "instrumented program invalid: {e}"),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<VerifyError> for CompileError {
    fn from(e: VerifyError) -> CompileError {
        CompileError::Verify(e)
    }
}

/// Statistics of one compilation, feeding Figures 11–12 and Table III.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CompileStats {
    /// Region boundaries in the final program.
    pub regions: usize,
    /// Boundaries added by WCET splitting.
    pub regions_split: usize,
    /// Checkpoint stores before pruning.
    pub checkpoints_before: usize,
    /// Checkpoint stores surviving in the final program (including
    /// coloring fix-ups).
    pub checkpoints_after: usize,
    /// Checkpoint stores removed by pruning.
    pub checkpoints_pruned: usize,
    /// Recovery blocks generated.
    pub recovery_blocks: usize,
    /// Total instructions across recovery blocks.
    pub recovery_insts: usize,
    /// Fix-up regions inserted by coloring.
    pub coloring_fixups: usize,
    /// WAR-cut boundaries hoisted out of loops.
    pub boundaries_hoisted: usize,
}

impl CompileStats {
    /// Fraction of checkpoint stores removed by pruning, in `0..=1`.
    pub fn prune_ratio(&self) -> f64 {
        if self.checkpoints_before == 0 {
            0.0
        } else {
            self.checkpoints_pruned as f64 / self.checkpoints_before as f64
        }
    }
}

/// A compiled, instrumented program with its recovery metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct InstrumentedProgram {
    /// The instrumented program (boundaries + checkpoint clusters).
    pub program: Program,
    /// Where each region's boundary lives.
    pub regions: RegionTable,
    /// The recovery lookup table.
    pub recovery: RecoveryTable,
    /// Compilation statistics.
    pub stats: CompileStats,
}

/// Runs the full GECKO pipeline on `program`.
///
/// # Errors
///
/// See [`CompileError`]. With default options the only reachable errors
/// are WCET unsplittability (an atomic instruction larger than the budget)
/// and coloring-localization failure.
pub fn compile(
    program: &Program,
    options: &CompileOptions,
) -> Result<InstrumentedProgram, CompileError> {
    let cost = CostModel::default();
    let mut p = program.clone();

    // 1. Canonicalize.
    split_critical_edges(&mut p);

    // 2. Idempotent region formation: entry, I/O brackets and
    //    anti-dependence cuts. Loop headers are NOT cut here — the WCET
    //    pass bounds region length instead, typically slicing programs at
    //    outer-iteration granularity (far coarser, and therefore far
    //    cheaper, than Ratchet's per-header regions).
    form_regions_policy(&mut p, false);

    // 2b. Loop-invariant boundary hoisting: move WAR cuts out of loops
    //     whenever the verifier proves every anti-dependence stays cut.
    let hoisted = hoist_war_boundaries(&mut p);

    // 3–4. WCET analysis + splitting.
    let mut split = 0;
    if let Some(budget) = options.wcet_budget_cycles {
        split = split_regions(&mut p, &cost, budget)?;
    }
    // 4b. A split boundary clears the must-written set behind it, so a
    //     load the entry's reset made WARAW-exempt (say, of a loop's NVM
    //     counter once a boundary lands on the loop header) can become an
    //     anti-dependence again. Cut those too; more boundaries only
    //     shorten regions, so the WCET bound still holds.
    if split > 0 {
        cut_anti_dependences(&mut p);
        renumber_boundaries(&mut p);
    }

    // 5a. Checkpoint insertion.
    let checkpoints_before = insert_checkpoints(&mut p);

    // 5b. Pruning.
    let prune_out = if options.prune {
        prune_checkpoints(&mut p, options.max_slice_insts)
    } else {
        Default::default()
    };

    // 6. Slot coloring (may insert fix-up regions).
    let coloring = color_checkpoints(&mut p)?;

    // 6b. Prune the fix-up clusters too (their slices may only depend on
    //     registers kept within the same fix-up cluster).
    let fixup_ids: std::collections::BTreeSet<gecko_isa::RegionId> =
        coloring.fixups.iter().map(|f| f.id).collect();
    let fixup_prune = if options.prune && !fixup_ids.is_empty() {
        prune_checkpoints_filtered(&mut p, options.max_slice_insts, Some(&fixup_ids))
    } else {
        Default::default()
    };

    gecko_isa::verify(&p)?;

    // Assemble metadata.
    let regions = RegionTable::from_program(&p);
    let mut recovery = RecoveryTable::new();
    for info in regions.iter() {
        let (_, cluster) = cluster_before(&p, info.block, info.boundary_index);
        let mut actions: Vec<RestoreAction> = cluster
            .iter()
            .map(|&(_, reg, slot)| RestoreAction::FromSlot { reg, slot })
            .collect();
        if let Some(pruned) = prune_out.pruned.get(&info.id) {
            for (reg, slice) in pruned {
                actions.push(RestoreAction::Recompute {
                    reg: *reg,
                    slice: slice.clone(),
                });
            }
        }
        if let Some(pruned) = fixup_prune.pruned.get(&info.id) {
            for (reg, slice) in pruned {
                actions.push(RestoreAction::Recompute {
                    reg: *reg,
                    slice: slice.clone(),
                });
            }
        }
        recovery.set(info.id, actions);
    }

    let stats = CompileStats {
        regions: regions.len(),
        regions_split: split,
        checkpoints_before,
        checkpoints_after: p.checkpoint_count(),
        checkpoints_pruned: prune_out.removed + fixup_prune.removed,
        recovery_blocks: recovery.recovery_block_count(),
        recovery_insts: recovery.recovery_inst_count(),
        coloring_fixups: coloring.fixups.len(),
        boundaries_hoisted: hoisted,
    };
    Ok(InstrumentedProgram {
        program: p,
        regions,
        recovery,
        stats,
    })
}

/// The Figure 11 ablation: full pipeline with pruning disabled.
///
/// # Errors
///
/// Same as [`compile`].
pub fn compile_unpruned(
    program: &Program,
    options: &CompileOptions,
) -> Result<InstrumentedProgram, CompileError> {
    compile(program, &options.without_pruning())
}

/// Splits critical edges (an edge from a multi-successor block to a
/// multi-predecessor block) by interposing empty blocks, so that later
/// passes can insert code on a specific edge.
pub fn split_critical_edges(program: &mut Program) {
    let preds = program.predecessors();
    let multi_pred: Vec<bool> = preds.iter().map(|p| p.len() > 1).collect();
    for b in program.block_ids().collect::<Vec<_>>() {
        let succs = program.successors(b);
        if succs.len() < 2 {
            continue;
        }
        let term = program.block(b).term;
        if let Terminator::Branch {
            cond,
            lhs,
            rhs,
            taken,
            fall,
        } = term
        {
            let mut new_taken = taken;
            let mut new_fall = fall;
            if multi_pred[taken.index()] {
                new_taken = program.push_block(Block::new(vec![], Terminator::Jump(taken)));
            }
            if multi_pred[fall.index()] {
                new_fall = program.push_block(Block::new(vec![], Terminator::Jump(fall)));
            }
            if new_taken != taken || new_fall != fall {
                program.block_mut(b).term = Terminator::Branch {
                    cond,
                    lhs,
                    rhs,
                    taken: new_taken,
                    fall: new_fall,
                };
            }
        }
    }
}

/// Convenience: count the checkpoint stores a [`Program`] executes along a
/// straight interpretation-free scan (static count, used by Table III).
pub fn static_checkpoint_count(p: &InstrumentedProgram) -> usize {
    p.program.checkpoint_count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gecko_isa::{BinOp, Cond, ProgramBuilder, Reg};

    fn loop_program() -> Program {
        let mut b = ProgramBuilder::new("loop");
        let d = b.segment("d", 16, true);
        let (i, acc, base) = (Reg::R1, Reg::R2, Reg::R3);
        b.mov(i, 0);
        b.mov(acc, 0);
        b.mov(base, d as i32);
        let head = b.new_label("head");
        let body = b.new_label("body");
        let exit = b.new_label("exit");
        b.bind(head);
        b.set_loop_bound(16);
        b.branch(Cond::Lt, i, 16, body, exit);
        b.bind(body);
        b.load(Reg::R4, base, 0);
        b.bin(BinOp::Add, acc, acc, Reg::R4);
        b.store(acc, base, 0);
        b.bin(BinOp::Add, i, i, 1);
        b.jump(head);
        b.bind(exit);
        b.send(acc);
        b.halt();
        b.finish().unwrap()
    }

    #[test]
    fn full_pipeline_produces_consistent_metadata() {
        let p = loop_program();
        let out = compile(&p, &CompileOptions::default()).unwrap();
        assert!(out.regions.len() >= 2);
        assert_eq!(out.stats.regions, out.regions.len());
        assert_eq!(out.stats.checkpoints_after, out.program.checkpoint_count());
        // Every region has recovery actions covering its cluster.
        for info in out.regions.iter() {
            let (_, cluster) = cluster_before(&out.program, info.block, info.boundary_index);
            let actions = out.recovery.actions(info.id);
            for &(_, reg, slot) in &cluster {
                assert!(
                    actions.iter().any(|a| matches!(a,
                        RestoreAction::FromSlot { reg: r, slot: s } if *r == reg && *s == slot)),
                    "cluster reg {reg} missing from recovery table"
                );
            }
        }
    }

    #[test]
    fn pruning_reduces_checkpoints() {
        let p = loop_program();
        let pruned = compile(&p, &CompileOptions::default()).unwrap();
        let unpruned = compile_unpruned(&p, &CompileOptions::default()).unwrap();
        assert!(
            pruned.stats.checkpoints_after <= unpruned.stats.checkpoints_after,
            "pruned {} vs unpruned {}",
            pruned.stats.checkpoints_after,
            unpruned.stats.checkpoints_after
        );
        assert_eq!(unpruned.stats.checkpoints_pruned, 0);
        assert_eq!(unpruned.stats.recovery_blocks, 0);
        // The base pointer checkpoint is prunable here.
        assert!(pruned.stats.checkpoints_pruned > 0);
        assert!(pruned.stats.prune_ratio() > 0.0);
    }

    #[test]
    fn wcet_budget_splits_regions() {
        let mut b = ProgramBuilder::new("long");
        for _ in 0..300 {
            b.bin(BinOp::Add, Reg::R1, Reg::R1, 1);
        }
        b.halt();
        let p = b.finish().unwrap();
        let opts = CompileOptions {
            wcet_budget_cycles: Some(100),
            ..CompileOptions::default()
        };
        let out = compile(&p, &opts).unwrap();
        assert!(out.stats.regions_split > 0);
    }

    #[test]
    fn no_budget_means_no_splitting() {
        let p = loop_program();
        let opts = CompileOptions {
            wcet_budget_cycles: None,
            ..CompileOptions::default()
        };
        let out = compile(&p, &opts).unwrap();
        assert_eq!(out.stats.regions_split, 0);
    }

    #[test]
    fn critical_edge_splitting_preserves_structure() {
        // branch into a shared join from two branching blocks.
        let mut b = ProgramBuilder::new("ce");
        b.mov(Reg::R1, 0);
        let x = b.new_label("x");
        let join = b.new_label("join");
        b.branch(Cond::Eq, Reg::R1, 0, join, x); // edge -> join is critical
        b.bind(x);
        b.jump(join);
        b.bind(join);
        b.halt();
        let mut p = b.finish().unwrap();
        let before = p.block_count();
        split_critical_edges(&mut p);
        assert!(p.block_count() > before);
        gecko_isa::verify(&p).unwrap();
    }

    #[test]
    fn instrumented_program_verifies() {
        let p = loop_program();
        let out = compile(&p, &CompileOptions::default()).unwrap();
        gecko_isa::verify(&out.program).unwrap();
        assert_eq!(static_checkpoint_count(&out), out.stats.checkpoints_after);
    }
}
