//! Predecoded programs: the simulator's fast dispatch format.
//!
//! [`crate::Machine::step`] re-interprets `gecko_isa` structures on every
//! step: it chases the block, matches on [`gecko_isa::Inst`], resolves
//! [`gecko_isa::Operand`]s and asks the cost/energy models what the step
//! costs. None of that depends on runtime state — a program's layout,
//! operand kinds and per-instruction costs are fixed at compile time. A
//! [`PredecodedProgram`] hoists all of it into one dense array built once
//! per compiled artifact: each program point (instruction *or* block
//! terminator) becomes a flat [`PEntry`] with its operands pre-resolved
//! into a register/immediate-split [`POp`] and its cycle, time and energy
//! cost precomputed, so [`crate::Machine::step_predecoded`] is a single
//! indexed load plus one match, and an event-horizon span step derives
//! nothing but the float operations of its energy and time chains.
//!
//! The predecoded form is *purely* a re-encoding: `step_predecoded` must
//! produce bit-identical outcomes (register file, PC, events, cycles,
//! energy) to `step` on the program it was built from — the differential
//! tests in `gecko-sim` pin that across every bundled app and scheme.

use gecko_isa::{
    BinOp, BlockId, Cond, CostModel, EnergyModel, Inst, IoOp, Operand, Program, Reg, RegionId,
    Terminator, Word,
};

/// One predecoded program point: a flat operation plus its precomputed
/// cycle, time and energy cost.
///
/// `dt_s` and `step_nj` are the exact values the simulator's per-step
/// `consume` derives from `cycles` and `energy_nj` under the models the
/// entry was built with, so an event-horizon span meters a step with no
/// u64→f64 conversion or division. They are only equal to `consume`'s
/// values while the simulator steps with those same models, which
/// [`PredecodedProgram::build`]'s contract already requires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PEntry {
    /// The operation, with operands resolved.
    pub op: POp,
    /// Cycles the step consumes (from [`gecko_isa::CostModel`]).
    pub cycles: u64,
    /// Energy the step consumes in nJ (from [`gecko_isa::EnergyModel`]).
    pub energy_nj: f64,
    /// The step's duration, `CostModel::cycles_to_seconds(cycles)` (s).
    pub dt_s: f64,
    /// The energy the step draws in `consume`'s own terms (nJ):
    /// `base + (energy_nj - base).max(0.0)` with
    /// `base = EnergyModel::cycles_energy_nj(cycles)`, the per-cycle energy
    /// plus the entry's non-negative extra, summed in that order.
    pub step_nj: f64,
}

impl PEntry {
    fn new(op: POp, cycles: u64, energy_nj: f64, cost: &CostModel, energy: &EnergyModel) -> PEntry {
        let base = energy.cycles_energy_nj(cycles);
        PEntry {
            op,
            cycles,
            energy_nj,
            dt_s: cost.cycles_to_seconds(cycles),
            step_nj: base + (energy_nj - base).max(0.0),
        }
    }
}

/// A flat, operand-resolved operation. Instruction/terminator and
/// register/immediate distinctions that [`crate::Machine::step`] re-derives
/// every step are split into variants here, so dispatch is one match with
/// no nested `Operand` resolution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum POp {
    /// `Mov dst, imm`.
    MovImm {
        /// Destination register.
        dst: Reg,
        /// Immediate value.
        imm: Word,
    },
    /// `Mov dst, src`.
    MovReg {
        /// Destination register.
        dst: Reg,
        /// Source register.
        src: Reg,
    },
    /// `dst = lhs <op> imm`.
    BinImm {
        /// The ALU operation.
        op: BinOp,
        /// Destination register.
        dst: Reg,
        /// Left operand register.
        lhs: Reg,
        /// Immediate right operand.
        imm: Word,
    },
    /// `dst = lhs <op> rhs`.
    BinReg {
        /// The ALU operation.
        op: BinOp,
        /// Destination register.
        dst: Reg,
        /// Left operand register.
        lhs: Reg,
        /// Right operand register.
        rhs: Reg,
    },
    /// `dst = mem[base + off]`.
    Load {
        /// Destination register.
        dst: Reg,
        /// Base address register.
        base: Reg,
        /// Signed word offset.
        off: Word,
    },
    /// `mem[base + off] = src`.
    Store {
        /// Source register.
        src: Reg,
        /// Base address register.
        base: Reg,
        /// Signed word offset.
        off: Word,
    },
    /// A peripheral transaction.
    Io {
        /// The I/O operation.
        op: IoOp,
        /// The data register.
        reg: Reg,
    },
    /// A compiler-inserted region boundary (surfaces an event).
    Boundary {
        /// The region being committed.
        region: RegionId,
    },
    /// A compiler-inserted checkpoint store (surfaces an event).
    Checkpoint {
        /// The register to persist.
        reg: Reg,
        /// Double-buffer slot color (0 or 1).
        slot: u8,
    },
    /// No operation.
    Nop,
    /// Terminator: unconditional jump.
    Jump {
        /// Jump target block.
        target: BlockId,
    },
    /// Terminator: conditional branch against an immediate.
    BranchImm {
        /// The comparison.
        cond: Cond,
        /// Left operand register.
        lhs: Reg,
        /// Immediate right operand.
        imm: Word,
        /// Target when the condition holds.
        taken: BlockId,
        /// Target when it does not.
        fall: BlockId,
    },
    /// Terminator: conditional branch against a register.
    BranchReg {
        /// The comparison.
        cond: Cond,
        /// Left operand register.
        lhs: Reg,
        /// Right operand register.
        rhs: Reg,
        /// Target when the condition holds.
        taken: BlockId,
        /// Target when it does not.
        fall: BlockId,
    },
    /// Terminator: halt (surfaces an event).
    Halt,
}

/// A program predecoded into one dense entry array.
///
/// Entries are laid out block by block: each block contributes its
/// instructions in order followed by one terminator entry, and
/// `base[b]` is the flat index of block `b`'s first entry. A PC
/// `(block, index)` therefore maps to entry `base[block] + index` — the
/// "index == instruction count means at-the-terminator" convention of
/// [`crate::Pc`] falls out for free.
///
/// Plain data (`Send + Sync`): campaign engines share it read-only across
/// worker threads inside a `CompiledApp`, exactly like the `Program` it
/// mirrors.
#[derive(Debug, Clone, PartialEq)]
pub struct PredecodedProgram {
    entries: Vec<PEntry>,
    base: Vec<u32>,
    max_step_cycles: u64,
    max_step_energy_nj: f64,
}

impl PredecodedProgram {
    /// Predecodes `program`, precomputing every entry's cost under the
    /// given models. The result is only valid for simulators that step
    /// with the *same* program and models.
    pub fn build(program: &Program, cost: &CostModel, energy: &EnergyModel) -> PredecodedProgram {
        let mut entries = Vec::new();
        let mut base = vec![0u32; program.block_count()];
        for (id, block) in program.blocks() {
            base[id.index()] = entries.len() as u32;
            for inst in &block.insts {
                let cycles = cost.inst_cycles(inst);
                entries.push(PEntry::new(
                    predecode_inst(inst),
                    cycles,
                    energy.inst_energy_nj(inst, cycles),
                    cost,
                    energy,
                ));
            }
            let cycles = cost.term_cycles(&block.term);
            entries.push(PEntry::new(
                predecode_term(&block.term),
                cycles,
                energy.cycles_energy_nj(cycles),
                cost,
                energy,
            ));
        }
        let max_step_cycles = entries.iter().map(|e| e.cycles).max().unwrap_or(0);
        let max_step_energy_nj = entries.iter().map(|e| e.energy_nj).fold(0.0, f64::max);
        PredecodedProgram {
            entries,
            base,
            max_step_cycles,
            max_step_energy_nj,
        }
    }

    /// The worst-case single-step cost across the whole program, as
    /// `(cycles, energy_nj)` — the maxima are taken independently, so the
    /// pair upper-bounds every entry even if no single instruction costs
    /// both. Precomputed at build time; the simulator's event-horizon
    /// stepping uses it to bound a batched segment's per-step energy and
    /// time loss without inspecting the instructions it will retire.
    #[inline]
    pub fn worst_step(&self) -> (u64, f64) {
        (self.max_step_cycles, self.max_step_energy_nj)
    }

    /// The entry at program point `(block, index)`.
    ///
    /// # Panics
    ///
    /// Panics if the point lies outside the program (which verified
    /// programs cannot produce).
    #[inline]
    pub fn entry(&self, block: BlockId, index: usize) -> &PEntry {
        &self.entries[self.base[block.index()] as usize + index]
    }

    /// The dense entry array and each block's first flat index, borrowed
    /// once so a span loop indexes them without reloading either `Vec`.
    #[inline]
    pub(crate) fn tables(&self) -> (&[PEntry], &[u32]) {
        (&self.entries, &self.base)
    }

    /// Total number of predecoded entries (instructions + terminators).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the program predecoded to no entries (never true for a
    /// well-formed program, which has at least a terminator).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

fn predecode_inst(inst: &Inst) -> POp {
    match *inst {
        Inst::Mov { dst, src } => match src {
            Operand::Reg(src) => POp::MovReg { dst, src },
            Operand::Imm(imm) => POp::MovImm { dst, imm },
        },
        Inst::Bin { op, dst, lhs, rhs } => match rhs {
            Operand::Reg(rhs) => POp::BinReg { op, dst, lhs, rhs },
            Operand::Imm(imm) => POp::BinImm { op, dst, lhs, imm },
        },
        Inst::Load { dst, base, off } => POp::Load { dst, base, off },
        Inst::Store { src, base, off } => POp::Store { src, base, off },
        Inst::Io { op, reg } => POp::Io { op, reg },
        Inst::Boundary { region } => POp::Boundary { region },
        Inst::Checkpoint { reg, slot } => POp::Checkpoint { reg, slot },
        Inst::Nop => POp::Nop,
    }
}

fn predecode_term(term: &Terminator) -> POp {
    match *term {
        Terminator::Jump(target) => POp::Jump { target },
        Terminator::Branch {
            cond,
            lhs,
            rhs,
            taken,
            fall,
        } => match rhs {
            Operand::Reg(rhs) => POp::BranchReg {
                cond,
                lhs,
                rhs,
                taken,
                fall,
            },
            Operand::Imm(imm) => POp::BranchImm {
                cond,
                lhs,
                imm,
                taken,
                fall,
            },
        },
        Terminator::Halt => POp::Halt,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gecko_isa::ProgramBuilder;

    #[test]
    fn layout_is_dense_and_indexable() {
        let mut b = ProgramBuilder::new("t");
        b.mov(Reg::R1, 7);
        b.bin(BinOp::Add, Reg::R1, Reg::R1, 1);
        b.halt();
        let p = b.finish().unwrap();
        let cost = CostModel::default();
        let energy = EnergyModel::default();
        let pre = PredecodedProgram::build(&p, &cost, &energy);
        assert!(!pre.is_empty());
        // Two instructions plus the terminator in the entry block.
        let e0 = pre.entry(p.entry(), 0);
        assert_eq!(
            e0.op,
            POp::MovImm {
                dst: Reg::R1,
                imm: 7
            }
        );
        assert_eq!(e0.cycles, cost.inst_cycles(&p.block(p.entry()).insts[0]));
        let term = pre.entry(p.entry(), p.block(p.entry()).insts.len());
        assert_eq!(term.op, POp::Halt);
    }

    #[test]
    fn costs_match_the_models() {
        let mut b = ProgramBuilder::new("t");
        let d = b.segment("d", 4, true);
        b.mov(Reg::R2, d as i32);
        b.store(Reg::R1, Reg::R2, 0);
        b.sense(Reg::R3);
        b.halt();
        let p = b.finish().unwrap();
        let cost = CostModel::default();
        let energy = EnergyModel::default();
        let pre = PredecodedProgram::build(&p, &cost, &energy);
        for (id, block) in p.blocks() {
            for (i, inst) in block.insts.iter().enumerate() {
                let e = pre.entry(id, i);
                assert_eq!(e.cycles, cost.inst_cycles(inst));
                assert_eq!(e.energy_nj, energy.inst_energy_nj(inst, e.cycles));
            }
            let t = pre.entry(id, block.insts.len());
            assert_eq!(t.cycles, cost.term_cycles(&block.term));
            assert_eq!(t.energy_nj, energy.cycles_energy_nj(t.cycles));
        }
    }
}
