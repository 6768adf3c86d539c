//! # gecko-mcu
//!
//! A cycle- and energy-accounted interpreter for the `gecko-isa` machine:
//! volatile register file and program counter, non-volatile main memory
//! (FRAM model), and scripted peripherals. This is the execution substrate
//! every recovery scheme (NVP/CTPL, Ratchet, GECKO) runs on.
//!
//! The interpreter is deliberately *policy-free*: compiler pseudo-
//! instructions ([`gecko_isa::Inst::Boundary`], [`gecko_isa::Inst::Checkpoint`])
//! execute as architectural no-ops that cost cycles/energy and surface a
//! [`StepEvent`], and the surrounding runtime (in `gecko-sim`) decides what
//! to persist. Power failure is likewise imposed from outside by calling
//! [`Machine::power_fail`], which wipes exactly the volatile state.
//!
//! ```
//! use gecko_isa::{ProgramBuilder, Reg};
//! use gecko_mcu::{Machine, Nvm, Peripherals, run_to_completion};
//!
//! let mut b = ProgramBuilder::new("answer");
//! let data = b.segment("data", 4, true);
//! b.mov(Reg::R1, 42);
//! b.mov(Reg::R2, data as i32);
//! b.store(Reg::R1, Reg::R2, 0);
//! b.halt();
//! let program = b.finish().unwrap();
//!
//! let mut nvm = Nvm::new(1 << 12);
//! let mut periph = Peripherals::new(7);
//! let run = run_to_completion(&program, &mut nvm, &mut periph, 1_000_000).unwrap();
//! assert_eq!(nvm.read(data), 42);
//! assert!(run.cycles > 0);
//! ```

pub mod machine;
pub mod nvm;
pub mod periph;
pub mod predecode;

pub use machine::{FaultEffect, Machine, Pc, RegFile, RunSummary, StepEvent, StepOutcome};
pub use nvm::Nvm;
pub use periph::Peripherals;
pub use predecode::{PEntry, POp, PredecodedProgram};

use gecko_isa::Program;

/// Error from [`run_to_completion`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// The program did not halt within the cycle budget.
    CycleBudgetExhausted,
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::CycleBudgetExhausted => write!(f, "cycle budget exhausted before halt"),
        }
    }
}

impl std::error::Error for RunError {}

/// Executes `program` to completion on fresh volatile state with unlimited
/// energy — the "golden run" used as the correctness reference by the
/// crash-consistency tests, and by app unit tests.
///
/// # Errors
///
/// Returns [`RunError::CycleBudgetExhausted`] if the program does not halt
/// within `max_cycles`.
pub fn run_to_completion(
    program: &Program,
    nvm: &mut Nvm,
    periph: &mut Peripherals,
    max_cycles: u64,
) -> Result<RunSummary, RunError> {
    let cost = gecko_isa::CostModel::default();
    let energy = gecko_isa::EnergyModel::default();
    let mut machine = Machine::new(program.entry());
    let mut summary = RunSummary::default();
    while !machine.is_halted() {
        if summary.cycles > max_cycles {
            return Err(RunError::CycleBudgetExhausted);
        }
        let out = machine.step(program, &cost, &energy, nvm, periph);
        summary.cycles += out.cycles;
        summary.energy_nj += out.energy_nj;
        summary.instructions += 1;
    }
    Ok(summary)
}
