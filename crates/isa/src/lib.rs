//! # gecko-isa
//!
//! The instruction set architecture shared by every layer of the GECKO
//! reproduction suite: the `gecko-compiler` passes instrument programs
//! expressed in this ISA, the `gecko-mcu` interpreter executes them with
//! cycle and energy accounting, and `gecko-apps` provides benchmark
//! programs written against it.
//!
//! The ISA is a deliberately small 16-register, word-addressed load/store
//! machine modeled on FRAM-class microcontrollers (TI MSP430FR59xx family):
//! arithmetic is cheap, non-volatile memory accesses carry wait states, and
//! there is no cache — exactly the architecture contract the GECKO paper
//! (MICRO 2024) relies on.
//!
//! Programs are explicit control-flow graphs: a [`Program`] is a set of
//! [`Block`]s, each a straight-line run of [`Inst`]ructions ended by a
//! [`Terminator`]. Two pseudo-instructions exist solely for the compiler to
//! insert: [`Inst::Boundary`] (an idempotent-region boundary) and
//! [`Inst::Checkpoint`] (a compiler-directed register checkpoint store with a
//! double-buffer slot color).
//!
//! ## Example
//!
//! ```
//! use gecko_isa::{ProgramBuilder, Reg, Operand, BinOp, Cond};
//!
//! // sum = 0; for i in 0..10 { sum += i }
//! let mut b = ProgramBuilder::new("sum");
//! let (sum, i) = (Reg::R1, Reg::R2);
//! b.mov(sum, Operand::Imm(0));
//! b.mov(i, Operand::Imm(0));
//! let head = b.new_label("head");
//! let body = b.new_label("body");
//! let exit = b.new_label("exit");
//! b.jump(head);
//! b.bind(head);
//! b.set_loop_bound(10);
//! b.branch(Cond::Lt, i, Operand::Imm(10), body, exit);
//! b.bind(body);
//! b.bin(BinOp::Add, sum, sum, Operand::Reg(i));
//! b.bin(BinOp::Add, i, i, Operand::Imm(1));
//! b.jump(head);
//! b.bind(exit);
//! b.halt();
//! let program = b.finish().expect("valid program");
//! assert_eq!(program.name(), "sum");
//! ```

pub mod asm;
pub mod builder;
pub mod cost;
pub mod dot;
pub mod fnv;
pub mod inst;
pub mod program;
pub mod rng;
pub mod verify;

pub use builder::ProgramBuilder;
pub use cost::{CostModel, EnergyModel};
pub use inst::{BinOp, Cond, Inst, IoOp, Operand, Reg, Terminator};
pub use program::{Block, BlockId, Program, RegionId, Segment, Word};
pub use rng::SplitMix64;
pub use verify::{verify, VerifyError};
