//! Registers, operands, instructions and block terminators.

use std::fmt;

use crate::program::{BlockId, RegionId};

/// One of the sixteen general-purpose registers `R0`–`R15`.
///
/// Registers are the *volatile* state of the machine: they are lost on power
/// failure unless a checkpoint protocol preserves them. `R0` is a normal
/// register (there is no hard-wired zero register).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg(u8);

impl Reg {
    /// Number of architectural registers.
    pub const COUNT: usize = 16;

    pub const R0: Reg = Reg(0);
    pub const R1: Reg = Reg(1);
    pub const R2: Reg = Reg(2);
    pub const R3: Reg = Reg(3);
    pub const R4: Reg = Reg(4);
    pub const R5: Reg = Reg(5);
    pub const R6: Reg = Reg(6);
    pub const R7: Reg = Reg(7);
    pub const R8: Reg = Reg(8);
    pub const R9: Reg = Reg(9);
    pub const R10: Reg = Reg(10);
    pub const R11: Reg = Reg(11);
    pub const R12: Reg = Reg(12);
    pub const R13: Reg = Reg(13);
    pub const R14: Reg = Reg(14);
    pub const R15: Reg = Reg(15);

    /// Creates a register from its index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= Reg::COUNT`.
    pub fn new(index: usize) -> Reg {
        assert!(index < Self::COUNT, "register index {index} out of range");
        Reg(index as u8)
    }

    /// Creates a register from its index, returning `None` when out of range.
    pub fn try_new(index: usize) -> Option<Reg> {
        (index < Self::COUNT).then_some(Reg(index as u8))
    }

    /// The register's index in `0..16`.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Iterates over all sixteen registers in order.
    pub fn all() -> impl Iterator<Item = Reg> {
        (0..Self::COUNT as u8).map(Reg)
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// A source operand: either a register or a 32-bit immediate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// Read the value of a register.
    Reg(Reg),
    /// A constant.
    Imm(i32),
}

impl Operand {
    /// The register read by this operand, if any.
    pub fn as_reg(self) -> Option<Reg> {
        match self {
            Operand::Reg(r) => Some(r),
            Operand::Imm(_) => None,
        }
    }
}

impl From<Reg> for Operand {
    fn from(r: Reg) -> Operand {
        Operand::Reg(r)
    }
}

impl From<i32> for Operand {
    fn from(v: i32) -> Operand {
        Operand::Imm(v)
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::Imm(v) => write!(f, "{v}"),
        }
    }
}

/// Two-operand ALU operations.
///
/// All arithmetic is 32-bit two's-complement with wrapping semantics,
/// matching what C code compiled for a small MCU would observe. Division by
/// zero yields 0 (the interpreter does not trap), and shift amounts are
/// taken modulo 32.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    /// Signed division; `x / 0 == 0`.
    Div,
    /// Signed remainder; `x % 0 == 0`.
    Rem,
    And,
    Or,
    Xor,
    /// Logical shift left (amount mod 32).
    Shl,
    /// Logical shift right (amount mod 32).
    Shr,
    /// Arithmetic shift right (amount mod 32).
    Sar,
    /// Set-if-less-than (signed): `dst = (lhs < rhs) as i32`.
    Slt,
    /// Set-if-equal: `dst = (lhs == rhs) as i32`.
    Seq,
    /// Signed minimum.
    Min,
    /// Signed maximum.
    Max,
}

impl BinOp {
    /// Applies the operation to two values.
    #[inline]
    pub fn eval(self, lhs: i32, rhs: i32) -> i32 {
        match self {
            BinOp::Add => lhs.wrapping_add(rhs),
            BinOp::Sub => lhs.wrapping_sub(rhs),
            BinOp::Mul => lhs.wrapping_mul(rhs),
            BinOp::Div => {
                if rhs == 0 {
                    0
                } else {
                    lhs.wrapping_div(rhs)
                }
            }
            BinOp::Rem => {
                if rhs == 0 {
                    0
                } else {
                    lhs.wrapping_rem(rhs)
                }
            }
            BinOp::And => lhs & rhs,
            BinOp::Or => lhs | rhs,
            BinOp::Xor => lhs ^ rhs,
            BinOp::Shl => ((lhs as u32) << (rhs as u32 % 32)) as i32,
            BinOp::Shr => ((lhs as u32) >> (rhs as u32 % 32)) as i32,
            BinOp::Sar => lhs >> (rhs as u32 % 32),
            BinOp::Slt => (lhs < rhs) as i32,
            BinOp::Seq => (lhs == rhs) as i32,
            BinOp::Min => lhs.min(rhs),
            BinOp::Max => lhs.max(rhs),
        }
    }

    /// The assembler mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::Div => "div",
            BinOp::Rem => "rem",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
            BinOp::Shl => "shl",
            BinOp::Shr => "shr",
            BinOp::Sar => "sar",
            BinOp::Slt => "slt",
            BinOp::Seq => "seq",
            BinOp::Min => "min",
            BinOp::Max => "max",
        }
    }

    /// All operations, for exhaustive testing.
    pub fn all() -> &'static [BinOp] {
        &[
            BinOp::Add,
            BinOp::Sub,
            BinOp::Mul,
            BinOp::Div,
            BinOp::Rem,
            BinOp::And,
            BinOp::Or,
            BinOp::Xor,
            BinOp::Shl,
            BinOp::Shr,
            BinOp::Sar,
            BinOp::Slt,
            BinOp::Seq,
            BinOp::Min,
            BinOp::Max,
        ]
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Branch conditions (signed comparisons).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cond {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl Cond {
    /// Evaluates the condition.
    #[inline]
    pub fn eval(self, lhs: i32, rhs: i32) -> bool {
        match self {
            Cond::Eq => lhs == rhs,
            Cond::Ne => lhs != rhs,
            Cond::Lt => lhs < rhs,
            Cond::Le => lhs <= rhs,
            Cond::Gt => lhs > rhs,
            Cond::Ge => lhs >= rhs,
        }
    }

    /// The assembler mnemonic (`beq`, `bne`, ...).
    pub fn mnemonic(self) -> &'static str {
        match self {
            Cond::Eq => "beq",
            Cond::Ne => "bne",
            Cond::Lt => "blt",
            Cond::Le => "ble",
            Cond::Gt => "bgt",
            Cond::Ge => "bge",
        }
    }

    /// The logical negation of the condition.
    pub fn negate(self) -> Cond {
        match self {
            Cond::Eq => Cond::Ne,
            Cond::Ne => Cond::Eq,
            Cond::Lt => Cond::Ge,
            Cond::Le => Cond::Gt,
            Cond::Gt => Cond::Le,
            Cond::Ge => Cond::Lt,
        }
    }
}

impl fmt::Display for Cond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Peripheral (I/O) operations.
///
/// I/O operations model the "atomic tasks" the paper describes (sensing a
/// value, sending a message over the radio, toggling an LED). The compiler
/// treats every I/O operation as its own idempotent region by placing region
/// boundaries around it (Section VI-B, "Loop and I/O operation").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoOp {
    /// Read the next sample from the (scripted) sensor into a register.
    Sense,
    /// Transmit a register value over the radio / UART.
    Send,
    /// Toggle the on-board LED (no register).
    Blink,
}

impl IoOp {
    /// The assembler mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            IoOp::Sense => "sense",
            IoOp::Send => "send",
            IoOp::Blink => "blink",
        }
    }
}

impl fmt::Display for IoOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// A single (non-terminator) instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Inst {
    /// `dst = src`.
    Mov { dst: Reg, src: Operand },
    /// `dst = op(lhs, rhs)`.
    Bin {
        op: BinOp,
        dst: Reg,
        lhs: Reg,
        rhs: Operand,
    },
    /// `dst = NVM[R[base] + off]` (word-addressed).
    Load { dst: Reg, base: Reg, off: i32 },
    /// `NVM[R[base] + off] = R[src]`.
    Store { src: Reg, base: Reg, off: i32 },
    /// A peripheral operation. `Sense` writes `reg`; `Send` reads `reg`;
    /// `Blink` ignores it.
    Io { op: IoOp, reg: Reg },
    /// Compiler-inserted idempotent-region boundary. At run time the GECKO /
    /// Ratchet runtime commits the region id to NVM here so that recovery
    /// knows which region to restart.
    Boundary { region: RegionId },
    /// Compiler-inserted checkpoint store: persist `reg` into the
    /// compiler-managed checkpoint array at double-buffer color `slot`
    /// (0 or 1 from the 2-coloring pass; 2 is the fix-up buffer).
    Checkpoint { reg: Reg, slot: u8 },
    /// No operation.
    Nop,
}

impl Inst {
    /// The register written by this instruction, if any.
    pub fn def(self) -> Option<Reg> {
        match self {
            Inst::Mov { dst, .. } | Inst::Bin { dst, .. } | Inst::Load { dst, .. } => Some(dst),
            Inst::Io {
                op: IoOp::Sense,
                reg,
            } => Some(reg),
            _ => None,
        }
    }

    /// The registers read by this instruction (at most two).
    pub fn uses(self) -> Vec<Reg> {
        let mut out = Vec::with_capacity(2);
        match self {
            Inst::Mov { src, .. } => {
                if let Some(r) = src.as_reg() {
                    out.push(r);
                }
            }
            Inst::Bin { lhs, rhs, .. } => {
                out.push(lhs);
                if let Some(r) = rhs.as_reg() {
                    out.push(r);
                }
            }
            Inst::Load { base, .. } => out.push(base),
            Inst::Store { src, base, .. } => {
                out.push(src);
                out.push(base);
            }
            Inst::Io {
                op: IoOp::Send,
                reg,
            } => out.push(reg),
            Inst::Checkpoint { reg, .. } => out.push(reg),
            _ => {}
        }
        out
    }

    /// Whether this instruction reads main (non-checkpoint) NVM.
    pub fn is_mem_read(self) -> bool {
        matches!(self, Inst::Load { .. })
    }

    /// Whether this instruction writes main (non-checkpoint) NVM.
    pub fn is_mem_write(self) -> bool {
        matches!(self, Inst::Store { .. })
    }

    /// Whether this is a compiler-inserted pseudo-instruction.
    pub fn is_pseudo(self) -> bool {
        matches!(self, Inst::Boundary { .. } | Inst::Checkpoint { .. })
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Inst::Mov { dst, src } => write!(f, "mov {dst}, {src}"),
            Inst::Bin { op, dst, lhs, rhs } => write!(f, "{op} {dst}, {lhs}, {rhs}"),
            Inst::Load { dst, base, off } => write!(f, "ld {dst}, [{base}{off:+}]"),
            Inst::Store { src, base, off } => write!(f, "st {src}, [{base}{off:+}]"),
            Inst::Io { op, reg } => write!(f, "{op} {reg}"),
            Inst::Boundary { region } => write!(f, ".region {}", region.index()),
            Inst::Checkpoint { reg, slot } => write!(f, "ckpt {reg}, {slot}"),
            Inst::Nop => write!(f, "nop"),
        }
    }
}

/// The control-flow terminator of a basic block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Terminator {
    /// Unconditional jump.
    Jump(BlockId),
    /// Conditional branch: goes to `taken` if `cond(lhs, rhs)`, else `fall`.
    Branch {
        cond: Cond,
        lhs: Reg,
        rhs: Operand,
        taken: BlockId,
        fall: BlockId,
    },
    /// Program completed successfully.
    Halt,
}

impl Terminator {
    /// The successor blocks (0, 1 or 2 of them).
    pub fn successors(self) -> Vec<BlockId> {
        match self {
            Terminator::Jump(t) => vec![t],
            Terminator::Branch { taken, fall, .. } => vec![taken, fall],
            Terminator::Halt => vec![],
        }
    }

    /// The registers read by the terminator.
    pub fn uses(self) -> Vec<Reg> {
        match self {
            Terminator::Branch { lhs, rhs, .. } => {
                let mut v = vec![lhs];
                if let Some(r) = rhs.as_reg() {
                    v.push(r);
                }
                v
            }
            _ => vec![],
        }
    }
}

impl fmt::Display for Terminator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Terminator::Jump(t) => write!(f, "jmp b{}", t.index()),
            Terminator::Branch {
                cond,
                lhs,
                rhs,
                taken,
                fall,
            } => write!(
                f,
                "{cond} {lhs}, {rhs} -> b{}, b{}",
                taken.index(),
                fall.index()
            ),
            Terminator::Halt => write!(f, "halt"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reg_roundtrip() {
        for i in 0..Reg::COUNT {
            assert_eq!(Reg::new(i).index(), i);
        }
        assert_eq!(Reg::all().count(), 16);
        assert!(Reg::try_new(16).is_none());
        assert_eq!(Reg::try_new(3), Some(Reg::R3));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn reg_out_of_range_panics() {
        let _ = Reg::new(16);
    }

    #[test]
    fn binop_eval_basics() {
        assert_eq!(BinOp::Add.eval(2, 3), 5);
        assert_eq!(BinOp::Sub.eval(2, 3), -1);
        assert_eq!(BinOp::Mul.eval(-4, 3), -12);
        assert_eq!(BinOp::Div.eval(7, 2), 3);
        assert_eq!(BinOp::Div.eval(7, 0), 0, "div by zero yields 0");
        assert_eq!(BinOp::Rem.eval(7, 0), 0, "rem by zero yields 0");
        assert_eq!(BinOp::And.eval(0b1100, 0b1010), 0b1000);
        assert_eq!(BinOp::Or.eval(0b1100, 0b1010), 0b1110);
        assert_eq!(BinOp::Xor.eval(0b1100, 0b1010), 0b0110);
        assert_eq!(BinOp::Slt.eval(-1, 0), 1);
        assert_eq!(BinOp::Seq.eval(5, 5), 1);
        assert_eq!(BinOp::Min.eval(3, -7), -7);
        assert_eq!(BinOp::Max.eval(3, -7), 3);
    }

    #[test]
    fn binop_wrapping_and_shifts() {
        assert_eq!(BinOp::Add.eval(i32::MAX, 1), i32::MIN);
        assert_eq!(BinOp::Mul.eval(i32::MAX, 2), -2);
        assert_eq!(BinOp::Shl.eval(1, 33), 2, "shift amounts are mod 32");
        assert_eq!(BinOp::Shr.eval(-1, 28), 0xF);
        assert_eq!(BinOp::Sar.eval(-16, 2), -4);
        // i32::MIN / -1 overflows in Rust; wrapping_div yields i32::MIN.
        assert_eq!(BinOp::Div.eval(i32::MIN, -1), i32::MIN);
        assert_eq!(BinOp::Rem.eval(i32::MIN, -1), 0);
    }

    #[test]
    fn cond_eval_and_negation() {
        for &(c, l, r, want) in &[
            (Cond::Eq, 1, 1, true),
            (Cond::Ne, 1, 1, false),
            (Cond::Lt, -2, -1, true),
            (Cond::Le, 5, 5, true),
            (Cond::Gt, 5, 5, false),
            (Cond::Ge, 6, 5, true),
        ] {
            assert_eq!(c.eval(l, r), want, "{c} {l} {r}");
            assert_eq!(c.negate().eval(l, r), !want, "negated {c}");
        }
    }

    #[test]
    fn inst_def_use() {
        let i = Inst::Bin {
            op: BinOp::Add,
            dst: Reg::R1,
            lhs: Reg::R2,
            rhs: Operand::Reg(Reg::R3),
        };
        assert_eq!(i.def(), Some(Reg::R1));
        assert_eq!(i.uses(), vec![Reg::R2, Reg::R3]);

        let s = Inst::Store {
            src: Reg::R4,
            base: Reg::R5,
            off: 2,
        };
        assert_eq!(s.def(), None);
        assert_eq!(s.uses(), vec![Reg::R4, Reg::R5]);
        assert!(s.is_mem_write());
        assert!(!s.is_mem_read());

        let sense = Inst::Io {
            op: IoOp::Sense,
            reg: Reg::R6,
        };
        assert_eq!(sense.def(), Some(Reg::R6));
        assert!(sense.uses().is_empty());

        let send = Inst::Io {
            op: IoOp::Send,
            reg: Reg::R6,
        };
        assert_eq!(send.def(), None);
        assert_eq!(send.uses(), vec![Reg::R6]);
    }

    #[test]
    fn display_formats() {
        let i = Inst::Load {
            dst: Reg::R1,
            base: Reg::R2,
            off: -3,
        };
        assert_eq!(i.to_string(), "ld r1, [r2-3]");
        assert_eq!(
            Inst::Checkpoint {
                reg: Reg::R7,
                slot: 1
            }
            .to_string(),
            "ckpt r7, 1"
        );
        assert_eq!(Operand::Imm(-5).to_string(), "-5");
    }
}
