//! Content fingerprints of a compiled program, per idempotent region —
//! the change-detection layer behind the checker's incremental re-checks.
//!
//! A memoized checker verdict is a statement about *code*: "crashing in
//! window w and recovering through region r's restore actions reaches a
//! clean completion". When the program is recompiled, verdicts blamed on
//! regions whose code and recovery metadata are unchanged are still
//! sound; only verdicts touching a changed region need re-exploration
//! (DESIGN.md §18). This module supplies the identity that decision keys
//! on:
//!
//! * a **per-region fingerprint** — FNV-1a over the region's id, its
//!   boundary location, every instruction (and the terminator) of the
//!   boundary block, and the region's [`RecoveryTable`] restore actions;
//! * a **whole-program fingerprint** — FNV-1a over every block and every
//!   recovery entry, folding the per-region digests in id order.
//!
//! Instructions hash through their [`Display`](std::fmt::Display)
//! rendering: the textual ISA is the stable vocabulary every layer
//! (blame reports, dot dumps, journals) already shares, so a fingerprint
//! changes exactly when the rendered program changes.

use std::collections::BTreeMap;

use gecko_isa::fnv::{fnv_str, fnv_u64, FNV_OFFSET};
use gecko_isa::Program;

use crate::recovery::{RecoveryTable, RegionTable, RestoreAction};

/// Fingerprints of one compiled artifact: the whole program plus one
/// digest per idempotent region, in region-id order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgramFingerprints {
    /// FNV-1a digest over every block (instructions, terminators, loop
    /// bounds) and every recovery entry. Two artifacts with equal program
    /// fingerprints execute identically under the checker.
    pub program: u64,
    /// Per-region digests keyed by raw region id: the region's boundary
    /// location, its boundary block's code, and its restore actions. An
    /// uninstrumented program (NVP) has no regions and an empty map.
    pub regions: BTreeMap<u32, u64>,
}

/// Computes [`ProgramFingerprints`] for an instrumented program and its
/// recovery table. Regions are discovered by scanning for `Boundary`
/// instructions (the same scan [`RegionTable::from_program`] performs).
pub fn fingerprint_program(program: &Program, recovery: &RecoveryTable) -> ProgramFingerprints {
    let table = RegionTable::from_program(program);
    let mut regions = BTreeMap::new();
    for info in table.iter() {
        let mut h = FNV_OFFSET;
        h = fnv_u64(h, info.id.index() as u64);
        h = fnv_u64(h, info.block.index() as u64);
        h = fnv_u64(h, info.boundary_index as u64);
        let block = program.block(info.block);
        h = fnv_u64(h, block.insts.len() as u64);
        for inst in &block.insts {
            h = fnv_str(h, &format!("{inst}"));
        }
        h = fnv_str(h, &format!("{}", block.term));
        h = fnv_actions(h, recovery.actions(info.id));
        regions.insert(info.id.index() as u32, h);
    }

    let mut h = FNV_OFFSET;
    h = fnv_str(h, program.name());
    h = fnv_u64(h, program.entry().index() as u64);
    h = fnv_u64(h, program.block_count() as u64);
    for (_, block) in program.blocks() {
        h = fnv_u64(h, block.insts.len() as u64);
        for inst in &block.insts {
            h = fnv_str(h, &format!("{inst}"));
        }
        h = fnv_str(h, &format!("{}", block.term));
        h = fnv_u64(h, block.loop_bound.map_or(u64::MAX, u64::from));
    }
    for (&id, &fp) in &regions {
        h = fnv_u64(h, id as u64);
        h = fnv_u64(h, fp);
    }
    ProgramFingerprints {
        program: h,
        regions,
    }
}

fn fnv_actions(mut h: u64, actions: &[RestoreAction]) -> u64 {
    h = fnv_u64(h, actions.len() as u64);
    for action in actions {
        match action {
            RestoreAction::FromSlot { reg, slot } => {
                h = fnv_u64(h, 1);
                h = fnv_u64(h, reg.index() as u64);
                h = fnv_u64(h, *slot as u64);
            }
            RestoreAction::Recompute { reg, slice } => {
                h = fnv_u64(h, 2);
                h = fnv_u64(h, reg.index() as u64);
                h = fnv_u64(h, slice.len() as u64);
                for inst in slice {
                    h = fnv_str(h, &format!("{inst}"));
                }
            }
        }
    }
    h
}

impl ProgramFingerprints {
    /// Digest of a *subset* of regions: FNV-1a over the sorted
    /// `(id, fingerprint)` pairs of `ids`. `None` when any id is unknown
    /// to this artifact (a recompile removed the region — nothing keyed
    /// on it can be validated). The checker's memo store records this for
    /// each slab's blamed-region set and revalidates it against the
    /// current artifact on restore.
    pub fn region_set_digest(&self, ids: impl IntoIterator<Item = u32>) -> Option<u64> {
        let mut h = FNV_OFFSET;
        let mut sorted: Vec<u32> = ids.into_iter().collect();
        sorted.sort_unstable();
        sorted.dedup();
        h = fnv_u64(h, sorted.len() as u64);
        for id in sorted {
            let fp = self.regions.get(&id)?;
            h = fnv_u64(h, id as u64);
            h = fnv_u64(h, *fp);
        }
        Some(h)
    }

    /// The fingerprint of one region by raw id (`None` for unknown ids).
    pub fn region(&self, id: u32) -> Option<u64> {
        self.regions.get(&id).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compile, CompileOptions};
    use gecko_isa::{BinOp, Cond, ProgramBuilder, Reg};

    fn sample_program(imm: i32) -> Program {
        let mut b = ProgramBuilder::new("fp");
        let d = b.segment("d", 16, true);
        let (i, acc, base) = (Reg::R1, Reg::R2, Reg::R3);
        b.mov(i, 0);
        b.mov(acc, imm);
        b.mov(base, d as i32);
        let head = b.new_label("head");
        let body = b.new_label("body");
        let exit = b.new_label("exit");
        b.bind(head);
        b.set_loop_bound(8);
        b.branch(Cond::Lt, i, 8, body, exit);
        b.bind(body);
        b.load(Reg::R4, base, 0);
        b.bin(BinOp::Add, acc, acc, Reg::R4);
        b.store(acc, base, 0);
        b.bin(BinOp::Add, i, i, 1);
        b.jump(head);
        b.bind(exit);
        b.halt();
        b.finish().unwrap()
    }

    #[test]
    fn fingerprints_are_stable_and_change_with_the_program() {
        let out_a = compile(&sample_program(0), &CompileOptions::default()).unwrap();
        let out_b = compile(&sample_program(0), &CompileOptions::default()).unwrap();
        let fa = fingerprint_program(&out_a.program, &out_a.recovery);
        let fb = fingerprint_program(&out_b.program, &out_b.recovery);
        assert_eq!(fa, fb, "same source compiles to the same fingerprints");
        assert!(!fa.regions.is_empty(), "instrumented program has regions");

        let out_c = compile(&sample_program(1), &CompileOptions::default()).unwrap();
        let fc = fingerprint_program(&out_c.program, &out_c.recovery);
        assert_ne!(
            fa.program, fc.program,
            "a changed immediate changes the program digest"
        );
    }

    #[test]
    fn region_set_digest_tracks_member_fingerprints() {
        let out = compile(&sample_program(0), &CompileOptions::default()).unwrap();
        let fps = fingerprint_program(&out.program, &out.recovery);
        let ids: Vec<u32> = fps.regions.keys().copied().collect();
        let all = fps.region_set_digest(ids.iter().copied()).unwrap();
        // Order- and duplicate-insensitive.
        let mut shuffled = ids.clone();
        shuffled.reverse();
        shuffled.push(ids[0]);
        assert_eq!(fps.region_set_digest(shuffled), Some(all));
        // Unknown member: nothing to validate against.
        assert_eq!(fps.region_set_digest([u32::MAX]), None);
        // The empty set digests (to a constant) rather than failing.
        assert!(fps.region_set_digest([]).is_some());
    }
}
