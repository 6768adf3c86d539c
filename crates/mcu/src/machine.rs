//! The CPU: volatile registers, program counter, and the step interpreter.

use gecko_isa::{
    BlockId, CostModel, EnergyModel, Inst, IoOp, Operand, Program, Reg, RegionId, Terminator, Word,
};

use crate::nvm::Nvm;
use crate::periph::Peripherals;
use crate::predecode::{PEntry, POp, PredecodedProgram};

/// The sixteen volatile general-purpose registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RegFile {
    regs: [Word; Reg::COUNT],
}

impl RegFile {
    /// All-zero registers (the power-on state).
    pub fn new() -> RegFile {
        RegFile::default()
    }

    /// Reads a register.
    pub fn get(&self, r: Reg) -> Word {
        self.regs[r.index()]
    }

    /// Writes a register.
    pub fn set(&mut self, r: Reg, v: Word) {
        self.regs[r.index()] = v;
    }

    /// The raw register array (for checkpointing).
    pub fn snapshot(&self) -> [Word; Reg::COUNT] {
        self.regs
    }

    /// Restores from a snapshot.
    pub fn restore(&mut self, snapshot: [Word; Reg::COUNT]) {
        self.regs = snapshot;
    }

    /// Zeroes every register (power failure).
    pub fn clear(&mut self) {
        self.regs = [0; Reg::COUNT];
    }

    fn operand(&self, op: Operand) -> Word {
        match op {
            Operand::Reg(r) => self.get(r),
            Operand::Imm(v) => v,
        }
    }
}

/// The program counter: a block plus an instruction index within it. An
/// index equal to the block's instruction count means "at the terminator".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Pc {
    /// Current basic block.
    pub block: BlockId,
    /// Index of the next instruction within the block.
    pub index: usize,
}

impl Pc {
    /// A PC at the start of `block`.
    pub fn at(block: BlockId) -> Pc {
        Pc { block, index: 0 }
    }

    /// Packs the PC into two words (for checkpoint storage).
    pub fn encode(self) -> (Word, Word) {
        (self.block.index() as Word, self.index as Word)
    }

    /// Unpacks a PC from two words.
    ///
    /// # Panics
    ///
    /// Panics if either word is negative (corrupted checkpoint).
    pub fn decode(block: Word, index: Word) -> Pc {
        assert!(block >= 0 && index >= 0, "corrupted PC checkpoint");
        Pc {
            block: BlockId::new(block as usize),
            index: index as usize,
        }
    }
}

/// An event surfaced by a single step, for the surrounding runtime to act
/// on. The interpreter itself attaches no policy to these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepEvent {
    /// Crossed a compiler-inserted region boundary.
    Boundary(RegionId),
    /// Executed a compiler-inserted checkpoint store: the runtime must
    /// persist the given register's *current value* to the checkpoint array
    /// at the given double-buffer slot.
    Checkpoint {
        /// Register checkpointed.
        reg: Reg,
        /// Its value at the checkpoint.
        value: Word,
        /// Double-buffer slot color (0 or 1).
        slot: u8,
    },
    /// Performed an I/O transaction.
    Io(IoOp),
    /// The program reached `halt`.
    Halted,
}

/// The instruction-level effect an EM fault pulse has on the one
/// instruction it lands on — the MCU-side mirror of the attacker-facing
/// `gecko_emi::FaultModel` (this crate cannot depend on the attack crate;
/// the simulator maps between the two). Faulted instructions consume their
/// normal cycles and energy: the pulse corrupts fetch/decode, not timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEffect {
    /// The instruction executes as a no-op: no register/memory/peripheral
    /// effect, its runtime event is suppressed, and a conditional branch
    /// falls through. Unconditional jumps and `halt` still execute —
    /// skipping a terminator would leave the PC past the end of a block,
    /// a state the fetch path cannot produce.
    Skip,
    /// The instruction decodes as a different operation: any value it
    /// writes (register, memory, peripheral, checkpoint) is complemented,
    /// a conditional branch inverts, and a region-boundary marker is not
    /// recognized by the runtime.
    OpcodeCorrupt,
    /// One bit of the instruction's data operand flips: the written value
    /// has the bit flipped, and a conditional branch compares the
    /// corrupted left-hand side.
    OperandBitflip {
        /// Which bit of the 32-bit word flips (taken modulo 32).
        bit: u8,
    },
}

/// The cycles/energy/event outcome of one step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepOutcome {
    /// Cycles consumed.
    pub cycles: u64,
    /// Energy consumed (nJ).
    pub energy_nj: f64,
    /// Event for the runtime, if any.
    pub event: Option<StepEvent>,
}

/// Accumulated totals from a whole run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RunSummary {
    /// Total cycles.
    pub cycles: u64,
    /// Total energy (nJ).
    pub energy_nj: f64,
    /// Instructions (including terminators) executed.
    pub instructions: u64,
}

/// The volatile CPU state plus the step interpreter.
#[derive(Debug, Clone, PartialEq)]
pub struct Machine {
    regs: RegFile,
    pc: Pc,
    halted: bool,
}

impl Machine {
    /// A machine about to execute the first instruction of `entry` with
    /// zeroed registers (the cold-boot state).
    pub fn new(entry: BlockId) -> Machine {
        Machine {
            regs: RegFile::new(),
            pc: Pc::at(entry),
            halted: false,
        }
    }

    /// The register file.
    pub fn regs(&self) -> &RegFile {
        &self.regs
    }

    /// Mutable register file (used by restore paths).
    pub fn regs_mut(&mut self) -> &mut RegFile {
        &mut self.regs
    }

    /// The program counter.
    pub fn pc(&self) -> Pc {
        self.pc
    }

    /// Forces the PC (used by restore and rollback paths).
    pub fn set_pc(&mut self, pc: Pc) {
        self.pc = pc;
        self.halted = false;
    }

    /// Whether the program has halted.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Power failure: volatile state (registers, PC, halt flag) is lost.
    /// The machine is left at the entry of `entry` with zeroed registers,
    /// exactly like a cold boot; any *restore* must be performed by the
    /// recovery runtime from NVM state.
    pub fn power_fail(&mut self, entry: BlockId) {
        self.regs.clear();
        self.pc = Pc::at(entry);
        self.halted = false;
    }

    /// Executes one instruction (or the block terminator) and returns its
    /// cost and event.
    ///
    /// # Panics
    ///
    /// Panics if called after `halt` (callers must check
    /// [`Machine::is_halted`]), or if the PC points outside the program
    /// (which verified programs cannot produce).
    pub fn step(
        &mut self,
        program: &Program,
        cost: &CostModel,
        energy: &EnergyModel,
        nvm: &mut Nvm,
        periph: &mut Peripherals,
    ) -> StepOutcome {
        assert!(!self.halted, "stepping a halted machine");
        let block = program.block(self.pc.block);
        if self.pc.index < block.insts.len() {
            let inst = block.insts[self.pc.index];
            self.pc.index += 1;
            let cycles = cost.inst_cycles(&inst);
            let energy_nj = energy.inst_energy_nj(&inst, cycles);
            let event = self.exec(inst, nvm, periph);
            StepOutcome {
                cycles,
                energy_nj,
                event,
            }
        } else {
            let term = block.term;
            let cycles = cost.term_cycles(&term);
            let energy_nj = energy.cycles_energy_nj(cycles);
            let event = match term {
                Terminator::Jump(t) => {
                    self.pc = Pc::at(t);
                    None
                }
                Terminator::Branch {
                    cond,
                    lhs,
                    rhs,
                    taken,
                    fall,
                } => {
                    let l = self.regs.get(lhs);
                    let r = self.regs.operand(rhs);
                    self.pc = Pc::at(if cond.eval(l, r) { taken } else { fall });
                    None
                }
                Terminator::Halt => {
                    self.halted = true;
                    Some(StepEvent::Halted)
                }
            };
            StepOutcome {
                cycles,
                energy_nj,
                event,
            }
        }
    }

    /// Executes one predecoded step: exactly [`Machine::step`], but
    /// dispatching on the flat [`POp`] array of a [`PredecodedProgram`]
    /// built from the same program and cost/energy models, so the per-step
    /// block chase, operand resolution and cost lookups are all one indexed
    /// load. Outcomes are bit-identical to `step` — the simulator's
    /// differential suite holds both paths to that.
    ///
    /// # Panics
    ///
    /// Panics if called after `halt` (callers must check
    /// [`Machine::is_halted`]), or if the PC points outside the program.
    pub fn step_predecoded(
        &mut self,
        pre: &PredecodedProgram,
        nvm: &mut Nvm,
        periph: &mut Peripherals,
    ) -> StepOutcome {
        assert!(!self.halted, "stepping a halted machine");
        let entry = pre.entry(self.pc.block, self.pc.index);
        let event = self.exec_pop(entry.op, nvm, periph);
        StepOutcome {
            cycles: entry.cycles,
            energy_nj: entry.energy_nj,
            event,
        }
    }

    /// Executes one step *under an EM fault*: exactly
    /// [`Machine::step_predecoded`], but the fetched operation suffers
    /// `fault` ([`FaultEffect`]). This is the single fault seam both
    /// dispatch modes inject through — predecoding is a pure re-encoding
    /// with identical per-entry costs, so routing an interpreted-mode
    /// faulted step through the predecoded entry is bit-identical to
    /// faulting the interpreter, and the two modes cannot drift.
    ///
    /// # Panics
    ///
    /// Panics if called after `halt` (callers must check
    /// [`Machine::is_halted`]), or if the PC points outside the program.
    pub fn step_faulted(
        &mut self,
        pre: &PredecodedProgram,
        nvm: &mut Nvm,
        periph: &mut Peripherals,
        fault: FaultEffect,
    ) -> StepOutcome {
        assert!(!self.halted, "stepping a halted machine");
        let entry = pre.entry(self.pc.block, self.pc.index);
        let event = self.exec_pop_faulted(entry.op, nvm, periph, fault);
        StepOutcome {
            cycles: entry.cycles,
            energy_nj: entry.energy_nj,
            event,
        }
    }

    /// Retires a span of predecoded instructions in one batched call —
    /// the machine/NVM/peripheral half of the simulator's event-horizon
    /// stepping. Returns the number of instructions retired (possibly 0)
    /// and, when the span stopped *after* a runtime op, that op's event.
    ///
    /// `admit(entry, overhead)` is consulted *before* each entry executes,
    /// with the entry itself, so the caller meters it from the entry's
    /// precomputed [`PEntry::dt_s`] and [`PEntry::step_nj`]; `overhead` is
    /// `true` for the compiler-inserted runtime ops (`Boundary`,
    /// `Checkpoint`). When it declines, machine, NVM and peripherals are
    /// exactly as if the entry never started. That lets the caller replay
    /// its energy/time bookkeeping per instruction (bit-identically to the
    /// per-step reference) and stop the moment a guard would fail, without
    /// ever having to undo an instruction. An admitted runtime op executes
    /// and the call returns right away with its [`StepEvent`]: the caller
    /// applies the op's scheme effect (a checkpoint-slot write, a region
    /// commit) and may call again to continue the same span.
    ///
    /// Otherwise the span ends, *without executing the stopping entry*, at:
    ///
    /// * `Halt`, whose completion protocol the caller runs exactly;
    /// * the first `Store` whose resolved address is at or above
    ///   `store_fence` — writes into the checkpoint-runtime NVM area can
    ///   flip scheme state (e.g. the GECKO mode word) that the caller's
    ///   admission reasoning assumed constant;
    /// * `max_insts` instructions retired; or
    /// * `admit` returning `false` for the next entry.
    ///
    /// [`StepEvent::Io`] is runtime-inert in the simulator and stays
    /// in-span like any plain instruction.
    ///
    /// Always inlined, and run on local copies of the register file and
    /// the PC that are written back once on return, with the entry tables
    /// borrowed once up front: with the caller's `admit` inlined too, the
    /// PC, the caller's meter and its guard scalars live in registers for
    /// the whole span instead of being reloaded through `self` and the
    /// closure's captures on every step.
    ///
    /// # Panics
    ///
    /// Panics if called after `halt`, or if the PC points outside the
    /// program.
    #[inline(always)]
    pub fn retire_span(
        &mut self,
        pre: &PredecodedProgram,
        nvm: &mut Nvm,
        periph: &mut Peripherals,
        max_insts: u64,
        store_fence: u32,
        mut admit: impl FnMut(&PEntry, bool) -> bool,
    ) -> (u64, Option<StepEvent>) {
        assert!(!self.halted, "stepping a halted machine");
        let (mut regs, mut pc) = (self.regs, self.pc);
        let (entries, bases) = pre.tables();
        let mut done = 0u64;
        let mut stop = None;
        while done < max_insts {
            let entry = &entries[bases[pc.block.index()] as usize + pc.index];
            let overhead = match entry.op {
                POp::Halt => break,
                POp::Boundary { .. } | POp::Checkpoint { .. } => true,
                POp::Store { base, off, .. } => {
                    let addr = (regs.get(base).wrapping_add(off)) as u32;
                    if addr >= store_fence {
                        break;
                    }
                    false
                }
                _ => false,
            };
            if !admit(entry, overhead) {
                break;
            }
            let event = exec_pop(&mut regs, &mut pc, &mut self.halted, entry.op, nvm, periph);
            done += 1;
            if overhead {
                stop = event;
                break;
            }
            debug_assert!(
                matches!(event, None | Some(StepEvent::Io(_))),
                "runtime ops return above and Halt never executes in-span"
            );
        }
        (self.regs, self.pc) = (regs, pc);
        (done, stop)
    }

    /// Executes one predecoded operation — the shared core of
    /// [`Machine::step_predecoded`] and [`Machine::retire_span`], so the
    /// batched path is the *same code* as the per-step path by
    /// construction.
    #[inline]
    fn exec_pop(&mut self, op: POp, nvm: &mut Nvm, periph: &mut Peripherals) -> Option<StepEvent> {
        let Machine { regs, pc, halted } = self;
        exec_pop(regs, pc, halted, op, nvm, periph)
    }

    /// Executes one predecoded operation under `fault` — the faulted twin
    /// of [`Machine::exec_pop`], kept variant-for-variant parallel so the
    /// fault semantics are auditable against the clean path.
    fn exec_pop_faulted(
        &mut self,
        op: POp,
        nvm: &mut Nvm,
        periph: &mut Peripherals,
        fault: FaultEffect,
    ) -> Option<StepEvent> {
        // How the fault mangles a value the instruction writes. `Skip`
        // never writes, so its arm is unreachable by construction.
        let mangle = |v: Word| match fault {
            FaultEffect::Skip => v,
            FaultEffect::OpcodeCorrupt => !v,
            FaultEffect::OperandBitflip { bit } => v ^ (1 << (u32::from(bit) % 32)),
        };
        let skip = fault == FaultEffect::Skip;
        match op {
            POp::MovImm { dst, imm } => {
                self.pc.index += 1;
                if !skip {
                    self.regs.set(dst, mangle(imm));
                }
                None
            }
            POp::MovReg { dst, src } => {
                self.pc.index += 1;
                if !skip {
                    let v = self.regs.get(src);
                    self.regs.set(dst, mangle(v));
                }
                None
            }
            POp::BinImm { op, dst, lhs, imm } => {
                self.pc.index += 1;
                if !skip {
                    let l = self.regs.get(lhs);
                    self.regs.set(dst, mangle(op.eval(l, imm)));
                }
                None
            }
            POp::BinReg { op, dst, lhs, rhs } => {
                self.pc.index += 1;
                if !skip {
                    let l = self.regs.get(lhs);
                    let r = self.regs.get(rhs);
                    self.regs.set(dst, mangle(op.eval(l, r)));
                }
                None
            }
            POp::Load { dst, base, off } => {
                self.pc.index += 1;
                if !skip {
                    let addr = (self.regs.get(base).wrapping_add(off)) as u32;
                    let v = nvm.load(addr);
                    self.regs.set(dst, mangle(v));
                }
                None
            }
            POp::Store { src, base, off } => {
                self.pc.index += 1;
                if !skip {
                    let addr = (self.regs.get(base).wrapping_add(off)) as u32;
                    nvm.store(addr, mangle(self.regs.get(src)));
                }
                None
            }
            POp::Io { op, reg } => {
                self.pc.index += 1;
                if skip {
                    // The transaction never starts: no peripheral side
                    // effect and no event for the runtime.
                    return None;
                }
                match op {
                    IoOp::Sense => {
                        let v = periph.sense();
                        self.regs.set(reg, mangle(v));
                    }
                    IoOp::Send => periph.send(mangle(self.regs.get(reg))),
                    IoOp::Blink => periph.blink(),
                }
                Some(StepEvent::Io(op))
            }
            POp::Boundary { region } => {
                self.pc.index += 1;
                match fault {
                    // Skipped or misdecoded: the runtime never sees the
                    // boundary, so no commit happens here.
                    FaultEffect::Skip | FaultEffect::OpcodeCorrupt => None,
                    // A boundary marker carries no data operand to flip.
                    FaultEffect::OperandBitflip { .. } => Some(StepEvent::Boundary(region)),
                }
            }
            POp::Checkpoint { reg, slot } => {
                self.pc.index += 1;
                if skip {
                    return None;
                }
                Some(StepEvent::Checkpoint {
                    reg,
                    value: mangle(self.regs.get(reg)),
                    slot,
                })
            }
            POp::Nop => {
                self.pc.index += 1;
                None
            }
            POp::Jump { target } => {
                // No data operand, and a skipped terminator would strand
                // the PC past the block end: the jump always goes through.
                self.pc = Pc::at(target);
                None
            }
            POp::BranchImm {
                cond,
                lhs,
                imm,
                taken,
                fall,
            } => {
                self.pc = Pc::at(match fault {
                    FaultEffect::Skip => fall,
                    FaultEffect::OpcodeCorrupt => {
                        let l = self.regs.get(lhs);
                        if cond.eval(l, imm) {
                            fall
                        } else {
                            taken
                        }
                    }
                    FaultEffect::OperandBitflip { .. } => {
                        let l = mangle(self.regs.get(lhs));
                        if cond.eval(l, imm) {
                            taken
                        } else {
                            fall
                        }
                    }
                });
                None
            }
            POp::BranchReg {
                cond,
                lhs,
                rhs,
                taken,
                fall,
            } => {
                self.pc = Pc::at(match fault {
                    FaultEffect::Skip => fall,
                    FaultEffect::OpcodeCorrupt => {
                        let l = self.regs.get(lhs);
                        let r = self.regs.get(rhs);
                        if cond.eval(l, r) {
                            fall
                        } else {
                            taken
                        }
                    }
                    FaultEffect::OperandBitflip { .. } => {
                        let l = mangle(self.regs.get(lhs));
                        let r = self.regs.get(rhs);
                        if cond.eval(l, r) {
                            taken
                        } else {
                            fall
                        }
                    }
                });
                None
            }
            POp::Halt => {
                self.halted = true;
                Some(StepEvent::Halted)
            }
        }
    }

    fn exec(&mut self, inst: Inst, nvm: &mut Nvm, periph: &mut Peripherals) -> Option<StepEvent> {
        match inst {
            Inst::Mov { dst, src } => {
                let v = self.regs.operand(src);
                self.regs.set(dst, v);
                None
            }
            Inst::Bin { op, dst, lhs, rhs } => {
                let l = self.regs.get(lhs);
                let r = self.regs.operand(rhs);
                self.regs.set(dst, op.eval(l, r));
                None
            }
            Inst::Load { dst, base, off } => {
                let addr = (self.regs.get(base).wrapping_add(off)) as u32;
                let v = nvm.load(addr);
                self.regs.set(dst, v);
                None
            }
            Inst::Store { src, base, off } => {
                let addr = (self.regs.get(base).wrapping_add(off)) as u32;
                nvm.store(addr, self.regs.get(src));
                None
            }
            Inst::Io { op, reg } => {
                match op {
                    IoOp::Sense => {
                        let v = periph.sense();
                        self.regs.set(reg, v);
                    }
                    IoOp::Send => periph.send(self.regs.get(reg)),
                    IoOp::Blink => periph.blink(),
                }
                Some(StepEvent::Io(op))
            }
            Inst::Boundary { region } => Some(StepEvent::Boundary(region)),
            Inst::Checkpoint { reg, slot } => Some(StepEvent::Checkpoint {
                reg,
                value: self.regs.get(reg),
                slot,
            }),
            Inst::Nop => None,
        }
    }
}

/// [`Machine::exec_pop`] on the machine's state borrowed field by field:
/// [`Machine::retire_span`] runs it on a local register file and a
/// separate local PC, so the PC is not tied to the indexed (hence
/// memory-resident) register array and can stay in a register.
#[inline(always)]
fn exec_pop(
    regs: &mut RegFile,
    pc: &mut Pc,
    halted: &mut bool,
    op: POp,
    nvm: &mut Nvm,
    periph: &mut Peripherals,
) -> Option<StepEvent> {
    match op {
        POp::MovImm { dst, imm } => {
            pc.index += 1;
            regs.set(dst, imm);
            None
        }
        POp::MovReg { dst, src } => {
            pc.index += 1;
            let v = regs.get(src);
            regs.set(dst, v);
            None
        }
        POp::BinImm { op, dst, lhs, imm } => {
            pc.index += 1;
            let l = regs.get(lhs);
            regs.set(dst, op.eval(l, imm));
            None
        }
        POp::BinReg { op, dst, lhs, rhs } => {
            pc.index += 1;
            let l = regs.get(lhs);
            let r = regs.get(rhs);
            regs.set(dst, op.eval(l, r));
            None
        }
        POp::Load { dst, base, off } => {
            pc.index += 1;
            let addr = (regs.get(base).wrapping_add(off)) as u32;
            let v = nvm.load(addr);
            regs.set(dst, v);
            None
        }
        POp::Store { src, base, off } => {
            pc.index += 1;
            let addr = (regs.get(base).wrapping_add(off)) as u32;
            nvm.store(addr, regs.get(src));
            None
        }
        POp::Io { op, reg } => {
            pc.index += 1;
            match op {
                IoOp::Sense => {
                    let v = periph.sense();
                    regs.set(reg, v);
                }
                IoOp::Send => periph.send(regs.get(reg)),
                IoOp::Blink => periph.blink(),
            }
            Some(StepEvent::Io(op))
        }
        POp::Boundary { region } => {
            pc.index += 1;
            Some(StepEvent::Boundary(region))
        }
        POp::Checkpoint { reg, slot } => {
            pc.index += 1;
            Some(StepEvent::Checkpoint {
                reg,
                value: regs.get(reg),
                slot,
            })
        }
        POp::Nop => {
            pc.index += 1;
            None
        }
        POp::Jump { target } => {
            *pc = Pc::at(target);
            None
        }
        POp::BranchImm {
            cond,
            lhs,
            imm,
            taken,
            fall,
        } => {
            let l = regs.get(lhs);
            *pc = Pc::at(if cond.eval(l, imm) { taken } else { fall });
            None
        }
        POp::BranchReg {
            cond,
            lhs,
            rhs,
            taken,
            fall,
        } => {
            let l = regs.get(lhs);
            let r = regs.get(rhs);
            *pc = Pc::at(if cond.eval(l, r) { taken } else { fall });
            None
        }
        POp::Halt => {
            *halted = true;
            Some(StepEvent::Halted)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gecko_isa::{BinOp, Cond, ProgramBuilder};

    fn exec(program: &Program) -> (Machine, Nvm, Peripherals, RunSummary) {
        let cost = CostModel::default();
        let energy = EnergyModel::default();
        let mut nvm = Nvm::new(1 << 10);
        let mut periph = Peripherals::new(9);
        let mut m = Machine::new(program.entry());
        let mut s = RunSummary::default();
        while !m.is_halted() {
            let o = m.step(program, &cost, &energy, &mut nvm, &mut periph);
            s.cycles += o.cycles;
            s.energy_nj += o.energy_nj;
            s.instructions += 1;
            assert!(s.instructions < 100_000, "runaway test program");
        }
        (m, nvm, periph, s)
    }

    #[test]
    fn arithmetic_and_store() {
        let mut b = ProgramBuilder::new("t");
        let d = b.segment("d", 4, true);
        b.mov(Reg::R1, 6);
        b.bin(BinOp::Mul, Reg::R1, Reg::R1, 7);
        b.mov(Reg::R2, d as i32);
        b.store(Reg::R1, Reg::R2, 0);
        b.halt();
        let p = b.finish().unwrap();
        let (m, nvm, _, s) = exec(&p);
        assert_eq!(nvm.read(d), 42);
        assert!(m.is_halted());
        assert!(s.cycles > 0 && s.energy_nj > 0.0);
    }

    #[test]
    fn branching_loop_sums() {
        let mut b = ProgramBuilder::new("t");
        let (sum, i) = (Reg::R1, Reg::R2);
        b.mov(sum, 0);
        b.mov(i, 0);
        let head = b.new_label("head");
        let body = b.new_label("body");
        let exit = b.new_label("exit");
        b.bind(head);
        b.set_loop_bound(5);
        b.branch(Cond::Lt, i, 5, body, exit);
        b.bind(body);
        b.bin(BinOp::Add, sum, sum, i);
        b.bin(BinOp::Add, i, i, 1);
        b.jump(head);
        b.bind(exit);
        b.halt();
        let p = b.finish().unwrap();
        let (m, ..) = exec(&p);
        assert_eq!(m.regs().get(sum), 10);
    }

    #[test]
    fn load_reads_back_store() {
        let mut b = ProgramBuilder::new("t");
        let d = b.segment("d", 8, true);
        b.mov(Reg::R1, d as i32);
        b.mov(Reg::R2, 123);
        b.store(Reg::R2, Reg::R1, 3);
        b.load(Reg::R3, Reg::R1, 3);
        b.halt();
        let p = b.finish().unwrap();
        let (m, ..) = exec(&p);
        assert_eq!(m.regs().get(Reg::R3), 123);
    }

    #[test]
    fn io_events_and_logs() {
        let mut b = ProgramBuilder::new("t");
        b.sense(Reg::R1);
        b.send(Reg::R1);
        b.blink();
        b.halt();
        let p = b.finish().unwrap();
        let (_, _, periph, _) = exec(&p);
        assert_eq!(periph.sent().len(), 1);
        assert_eq!(periph.blink_count(), 1);
        assert_eq!(periph.sense_count(), 1);
    }

    #[test]
    fn pseudo_instructions_surface_events() {
        let mut b = ProgramBuilder::new("t");
        b.mov(Reg::R5, 17);
        b.push(Inst::Boundary {
            region: RegionId::new(2),
        });
        b.push(Inst::Checkpoint {
            reg: Reg::R5,
            slot: 1,
        });
        b.halt();
        let p = b.finish().unwrap();

        let cost = CostModel::default();
        let energy = EnergyModel::default();
        let mut nvm = Nvm::new(64);
        let mut periph = Peripherals::new(0);
        let mut m = Machine::new(p.entry());
        let mut events = Vec::new();
        while !m.is_halted() {
            if let Some(e) = m.step(&p, &cost, &energy, &mut nvm, &mut periph).event {
                events.push(e);
            }
        }
        assert_eq!(
            events,
            vec![
                StepEvent::Boundary(RegionId::new(2)),
                StepEvent::Checkpoint {
                    reg: Reg::R5,
                    value: 17,
                    slot: 1
                },
                StepEvent::Halted,
            ]
        );
    }

    #[test]
    fn power_fail_wipes_volatile_state_only() {
        let mut b = ProgramBuilder::new("t");
        let d = b.segment("d", 4, true);
        b.mov(Reg::R1, 55);
        b.mov(Reg::R2, d as i32);
        b.store(Reg::R1, Reg::R2, 0);
        b.halt();
        let p = b.finish().unwrap();

        let cost = CostModel::default();
        let energy = EnergyModel::default();
        let mut nvm = Nvm::new(64);
        let mut periph = Peripherals::new(0);
        let mut m = Machine::new(p.entry());
        // Execute the three instructions, then fail before halt.
        for _ in 0..3 {
            let _ = m.step(&p, &cost, &energy, &mut nvm, &mut periph);
        }
        assert_eq!(nvm.read(d), 55);
        m.power_fail(p.entry());
        assert_eq!(m.regs().get(Reg::R1), 0, "registers lost");
        assert_eq!(m.pc(), Pc::at(p.entry()), "pc reset");
        assert_eq!(nvm.read(d), 55, "NVM survives");
    }

    #[test]
    fn predecoded_step_is_bit_identical_to_interpretation() {
        // A program exercising every operand shape: ALU on regs and imms,
        // loads/stores, IO, pseudo-instructions, a loop, and halt.
        let mut b = ProgramBuilder::new("t");
        let d = b.segment("d", 8, true);
        let (sum, i, addr) = (Reg::R1, Reg::R2, Reg::R3);
        b.mov(sum, 0);
        b.mov(i, 0);
        b.mov(addr, d as i32);
        let head = b.new_label("head");
        let body = b.new_label("body");
        let exit = b.new_label("exit");
        b.bind(head);
        b.set_loop_bound(6);
        b.branch(Cond::Lt, i, 6, body, exit);
        b.bind(body);
        b.bin(BinOp::Add, sum, sum, i);
        b.bin(BinOp::Add, i, i, 1);
        b.store(sum, addr, 0);
        b.load(Reg::R4, addr, 0);
        b.jump(head);
        b.bind(exit);
        b.sense(Reg::R5);
        b.send(Reg::R5);
        b.push(Inst::Boundary {
            region: RegionId::new(1),
        });
        b.push(Inst::Checkpoint { reg: sum, slot: 0 });
        b.halt();
        let p = b.finish().unwrap();

        let cost = CostModel::default();
        let energy = EnergyModel::default();
        let pre = PredecodedProgram::build(&p, &cost, &energy);

        let mut nvm_a = Nvm::new(64);
        let mut nvm_b = Nvm::new(64);
        let mut pa = Peripherals::new(3);
        let mut pb = Peripherals::new(3);
        let mut a = Machine::new(p.entry());
        let mut b2 = Machine::new(p.entry());
        while !a.is_halted() {
            let oa = a.step(&p, &cost, &energy, &mut nvm_a, &mut pa);
            let ob = b2.step_predecoded(&pre, &mut nvm_b, &mut pb);
            assert_eq!(oa.cycles, ob.cycles);
            assert_eq!(oa.energy_nj.to_bits(), ob.energy_nj.to_bits());
            assert_eq!(oa.event, ob.event);
            assert_eq!(a, b2, "machines stay in lock-step");
        }
        assert!(b2.is_halted());
        assert_eq!(nvm_a.words(), nvm_b.words());
        assert_eq!(pa.sent(), pb.sent());
    }

    /// The differential test's program shape: a loop with memory traffic
    /// and IO, then a Boundary, a Checkpoint and Halt.
    fn span_test_program() -> Program {
        let mut b = ProgramBuilder::new("t");
        let d = b.segment("d", 8, true);
        let (sum, i, addr) = (Reg::R1, Reg::R2, Reg::R3);
        b.mov(sum, 0);
        b.mov(i, 0);
        b.mov(addr, d as i32);
        let head = b.new_label("head");
        let body = b.new_label("body");
        let exit = b.new_label("exit");
        b.bind(head);
        b.set_loop_bound(6);
        b.branch(Cond::Lt, i, 6, body, exit);
        b.bind(body);
        b.bin(BinOp::Add, sum, sum, i);
        b.bin(BinOp::Add, i, i, 1);
        b.store(sum, addr, 0);
        b.load(Reg::R4, addr, 0);
        b.jump(head);
        b.bind(exit);
        b.sense(Reg::R5);
        b.send(Reg::R5);
        b.push(Inst::Boundary {
            region: RegionId::new(1),
        });
        b.push(Inst::Checkpoint { reg: sum, slot: 0 });
        b.halt();
        b.finish().unwrap()
    }

    fn span_test_setup() -> (Program, PredecodedProgram) {
        let p = span_test_program();
        let pre = PredecodedProgram::build(&p, &CostModel::default(), &EnergyModel::default());
        (p, pre)
    }

    /// No app store in the span test program reaches this address.
    const SPAN_FENCE: u32 = 1 << 10;

    #[test]
    fn retire_span_matches_per_step_and_returns_runtime_ops() {
        let (p, pre) = span_test_setup();

        // Reference: per-step up to and including the first runtime op.
        let mut nvm_a = Nvm::new(1 << 10);
        let mut pa = Peripherals::new(3);
        let mut a = Machine::new(p.entry());
        let mut ref_insts = 0u64;
        let mut ref_cycles = 0u64;
        let mut ref_energy = 0.0f64;
        let ref_event = loop {
            let o = a.step_predecoded(&pre, &mut nvm_a, &mut pa);
            ref_insts += 1;
            ref_cycles += o.cycles;
            ref_energy += o.energy_nj;
            if matches!(o.event, Some(StepEvent::Boundary(_))) {
                break o.event;
            }
        };

        // Batched: one retire_span with an admit that mirrors the sums.
        let mut nvm_b = Nvm::new(1 << 10);
        let mut pb = Peripherals::new(3);
        let mut m = Machine::new(p.entry());
        let mut cycles = 0u64;
        let mut energy_nj = 0.0f64;
        let mut flags = Vec::new();
        let (done, op) = m.retire_span(
            &pre,
            &mut nvm_b,
            &mut pb,
            u64::MAX,
            SPAN_FENCE,
            |e, overhead| {
                cycles += e.cycles;
                energy_nj += e.energy_nj;
                flags.push(overhead);
                true
            },
        );
        assert_eq!(done, ref_insts);
        assert_eq!(op, ref_event, "returns the executed boundary");
        assert_eq!(cycles, ref_cycles);
        assert_eq!(energy_nj.to_bits(), ref_energy.to_bits());
        assert_eq!(m, a, "machines land just past the same boundary");
        assert_eq!(nvm_a.words(), nvm_b.words());
        assert_eq!(pa.sent(), pb.sent());
        assert_eq!(
            flags.iter().filter(|&&o| o).count(),
            1,
            "only the boundary is flagged overhead"
        );
        assert_eq!(flags.last(), Some(&true));

        // Worst-step really bounds every admitted entry.
        let (wc, we) = pre.worst_step();
        assert!(ref_cycles <= wc * ref_insts);
        assert!(ref_energy <= we * ref_insts as f64);

        // Re-entering continues the same span: the checkpoint op comes
        // back with the register's value at the store.
        let (n, op) = m.retire_span(&pre, &mut nvm_b, &mut pb, u64::MAX, SPAN_FENCE, |_, o| {
            assert!(o, "the next entry is the checkpoint");
            true
        });
        assert_eq!(n, 1);
        assert_eq!(
            op,
            Some(StepEvent::Checkpoint {
                reg: Reg::R1,
                value: a.regs().get(Reg::R1),
                slot: 0
            })
        );

        // Halt still ends the span before it executes.
        let before = m.clone();
        let (n, op) = m.retire_span(&pre, &mut nvm_b, &mut pb, u64::MAX, SPAN_FENCE, |_, _| {
            panic!("halt is never offered to admit")
        });
        assert_eq!((n, op), (0, None));
        assert_eq!(m, before);
        assert!(!m.is_halted());
        assert_eq!(pre.entry(m.pc().block, m.pc().index).op, POp::Halt);
    }

    #[test]
    fn retire_span_declined_runtime_op_does_not_execute() {
        let (p, pre) = span_test_setup();
        let mut nvm = Nvm::new(1 << 10);
        let mut periph = Peripherals::new(3);
        let mut m = Machine::new(p.entry());
        // Refuse overhead only: the span parks on the unexecuted boundary.
        let (n, op) = m.retire_span(&pre, &mut nvm, &mut periph, u64::MAX, SPAN_FENCE, |_, o| !o);
        assert!(n > 0);
        assert_eq!(op, None);
        assert!(
            matches!(
                pre.entry(m.pc().block, m.pc().index).op,
                POp::Boundary { .. }
            ),
            "span stops exactly at the unexecuted boundary"
        );

        // Declining admission leaves the machine untouched.
        let before = m.clone();
        let words = nvm.words().to_vec();
        let (n, op) = m.retire_span(&pre, &mut nvm, &mut periph, u64::MAX, SPAN_FENCE, |_, _| {
            false
        });
        assert_eq!((n, op), (0, None));
        assert_eq!(m, before);
        assert_eq!(nvm.words(), &words[..]);

        // max_insts caps the span mid-way.
        let mut c = Machine::new(p.entry());
        let (n, op) = c.retire_span(&pre, &mut nvm, &mut periph, 2, SPAN_FENCE, |_, _| true);
        assert_eq!((n, op), (2, None));
    }

    #[test]
    fn retire_span_fences_runtime_area_stores() {
        // A store below the fence stays in-span; one at the fence stops
        // the span before executing.
        let mut b = ProgramBuilder::new("t");
        let d = b.segment("d", 8, true);
        b.mov(Reg::R1, 5);
        b.mov(Reg::R2, d as i32);
        b.store(Reg::R1, Reg::R2, 0); // app-area store: in-span
        b.mov(Reg::R3, 64); // fence address
        b.store(Reg::R1, Reg::R3, 0); // fenced store: span-ender
        b.halt();
        let p = b.finish().unwrap();
        let cost = CostModel::default();
        let energy = EnergyModel::default();
        let pre = PredecodedProgram::build(&p, &cost, &energy);
        let mut nvm = Nvm::new(128);
        let mut periph = Peripherals::new(0);
        let mut m = Machine::new(p.entry());
        let (n, op) = m.retire_span(&pre, &mut nvm, &mut periph, u64::MAX, 64, |_, _| true);
        assert_eq!((n, op), (4, None), "stops before the fenced store");
        assert_eq!(nvm.read(d), 5, "app store executed");
        assert_eq!(nvm.read(64), 0, "fenced store did not");
        assert!(
            matches!(pre.entry(m.pc().block, m.pc().index).op, POp::Store { .. }),
            "PC parked on the fenced store"
        );
    }

    #[test]
    fn pc_encode_decode_roundtrip() {
        let pc = Pc {
            block: BlockId::new(7),
            index: 13,
        };
        let (a, b) = pc.encode();
        assert_eq!(Pc::decode(a, b), pc);
    }

    #[test]
    #[should_panic(expected = "halted")]
    fn stepping_halted_machine_panics() {
        let mut b = ProgramBuilder::new("t");
        b.halt();
        let p = b.finish().unwrap();
        let cost = CostModel::default();
        let energy = EnergyModel::default();
        let mut nvm = Nvm::new(64);
        let mut periph = Peripherals::new(0);
        let mut m = Machine::new(p.entry());
        let _ = m.step(&p, &cost, &energy, &mut nvm, &mut periph);
        let _ = m.step(&p, &cost, &energy, &mut nvm, &mut periph);
    }

    fn faulted_setup(p: &Program) -> (PredecodedProgram, Nvm, Peripherals, Machine) {
        let pre = PredecodedProgram::build(p, &CostModel::default(), &EnergyModel::default());
        (
            pre,
            Nvm::new(1 << 10),
            Peripherals::new(9),
            Machine::new(p.entry()),
        )
    }

    #[test]
    fn skip_fault_is_an_expensive_nop() {
        let mut b = ProgramBuilder::new("t");
        let d = b.segment("d", 4, true);
        b.mov(Reg::R1, 41);
        b.mov(Reg::R2, d as i32);
        b.store(Reg::R1, Reg::R2, 0);
        b.halt();
        let p = b.finish().unwrap();
        let (pre, mut nvm, mut periph, mut m) = faulted_setup(&p);
        let _ = m.step_predecoded(&pre, &mut nvm, &mut periph);
        assert_eq!(m.regs().get(Reg::R1), 41);
        let _ = m.step_predecoded(&pre, &mut nvm, &mut periph);
        // Skip the store: full cost, no memory effect, PC advances.
        let entry = pre.entry(m.pc().block, m.pc().index);
        let o = m.step_faulted(&pre, &mut nvm, &mut periph, FaultEffect::Skip);
        assert_eq!(o.cycles, entry.cycles, "store costs its normal cycles");
        assert_eq!(o.energy_nj.to_bits(), entry.energy_nj.to_bits());
        assert_eq!(nvm.read(d), 0, "the skipped store never landed");
        let _ = m.step_predecoded(&pre, &mut nvm, &mut periph);
        assert!(m.is_halted());
    }

    #[test]
    fn skip_fault_suppresses_events_and_falls_through_branches() {
        let mut b = ProgramBuilder::new("t");
        b.push(Inst::Boundary {
            region: RegionId::new(1),
        });
        b.mov(Reg::R1, 0);
        let yes = b.new_label("yes");
        let no = b.new_label("no");
        b.branch(Cond::Eq, Reg::R1, 0, yes, no);
        b.bind(yes);
        b.mov(Reg::R2, 1);
        b.halt();
        b.bind(no);
        b.mov(Reg::R2, 2);
        b.halt();
        let p = b.finish().unwrap();
        let (pre, mut nvm, mut periph, mut m) = faulted_setup(&p);
        let o = m.step_faulted(&pre, &mut nvm, &mut periph, FaultEffect::Skip);
        assert_eq!(o.event, None, "boundary event suppressed");
        let _ = m.step_predecoded(&pre, &mut nvm, &mut periph);
        // The branch would be taken (R1 == 0); a skip falls through.
        let o = m.step_faulted(&pre, &mut nvm, &mut periph, FaultEffect::Skip);
        assert_eq!(o.event, None);
        while !m.is_halted() {
            let _ = m.step_predecoded(&pre, &mut nvm, &mut periph);
        }
        assert_eq!(
            m.regs().get(Reg::R2),
            2,
            "fell through to the not-taken arm"
        );
    }

    #[test]
    fn operand_bitflip_flips_exactly_one_bit_of_the_written_value() {
        let mut b = ProgramBuilder::new("t");
        b.mov(Reg::R1, 0b1000);
        b.push(Inst::Checkpoint {
            reg: Reg::R1,
            slot: 0,
        });
        b.halt();
        let p = b.finish().unwrap();
        let (pre, mut nvm, mut periph, mut m) = faulted_setup(&p);
        let o = m.step_faulted(
            &pre,
            &mut nvm,
            &mut periph,
            FaultEffect::OperandBitflip { bit: 1 },
        );
        assert_eq!(o.event, None);
        assert_eq!(m.regs().get(Reg::R1), 0b1010);
        // The checkpoint event carries the (independently) flipped value.
        let o = m.step_faulted(
            &pre,
            &mut nvm,
            &mut periph,
            FaultEffect::OperandBitflip { bit: 0 },
        );
        assert_eq!(
            o.event,
            Some(StepEvent::Checkpoint {
                reg: Reg::R1,
                value: 0b1011,
                slot: 0
            })
        );
        assert_eq!(m.regs().get(Reg::R1), 0b1010, "register itself untouched");
    }

    #[test]
    fn opcode_corrupt_complements_writes_and_inverts_branches() {
        let mut b = ProgramBuilder::new("t");
        b.mov(Reg::R1, 5);
        let yes = b.new_label("yes");
        let no = b.new_label("no");
        b.branch(Cond::Eq, Reg::R1, 7, yes, no); // not taken, cleanly
        b.bind(yes);
        b.mov(Reg::R2, 1);
        b.halt();
        b.bind(no);
        b.mov(Reg::R2, 2);
        b.halt();
        let p = b.finish().unwrap();
        let (pre, mut nvm, mut periph, mut m) = faulted_setup(&p);
        let _ = m.step_faulted(&pre, &mut nvm, &mut periph, FaultEffect::OpcodeCorrupt);
        assert_eq!(m.regs().get(Reg::R1), !5, "written value complemented");
        // R1 != 7 either way, so the clean branch falls to `no`; the
        // corrupted decode inverts it into the taken arm.
        let _ = m.step_faulted(&pre, &mut nvm, &mut periph, FaultEffect::OpcodeCorrupt);
        while !m.is_halted() {
            let _ = m.step_predecoded(&pre, &mut nvm, &mut periph);
        }
        assert_eq!(
            m.regs().get(Reg::R2),
            1,
            "inverted branch took the taken arm"
        );
    }

    #[test]
    fn faulted_terminators_jump_and_halt_normally() {
        let mut b = ProgramBuilder::new("t");
        let next = b.new_label("next");
        b.jump(next);
        b.bind(next);
        b.halt();
        let p = b.finish().unwrap();
        let (pre, mut nvm, mut periph, mut m) = faulted_setup(&p);
        let o = m.step_faulted(&pre, &mut nvm, &mut periph, FaultEffect::Skip);
        assert_eq!(o.event, None, "jump executes despite the pulse");
        let o = m.step_faulted(&pre, &mut nvm, &mut periph, FaultEffect::Skip);
        assert_eq!(o.event, Some(StepEvent::Halted));
        assert!(m.is_halted());
    }

    #[test]
    fn negative_offset_addressing() {
        let mut b = ProgramBuilder::new("t");
        let d = b.segment("d", 8, true);
        b.mov(Reg::R1, d as i32 + 4);
        b.mov(Reg::R2, 77);
        b.store(Reg::R2, Reg::R1, -2);
        b.halt();
        let p = b.finish().unwrap();
        let (_, nvm, ..) = exec(&p);
        assert_eq!(nvm.read(d + 2), 77);
    }
}
