//! # gecko-ctpl
//!
//! A model of TI's *Compute Through Power Loss* library — the just-in-time
//! (JIT) checkpoint protocol that commodity intermittent systems (the
//! paper's "NVP") run. When the voltage monitor reports the supply falling
//! below `V_backup`, the protocol saves all volatile state (registers + PC)
//! into a designated NVM area and shuts down; when the supply recovers to
//! `V_on` it restores that state and resumes — roll-forward recovery.
//!
//! The checkpoint is written **word by word** through [`CheckpointWriter`]
//! so the surrounding simulation can meter energy per word and abort the
//! protocol mid-flight — exactly the *checkpoint failure* the EMI attack
//! induces when a spoofed wake-up leaves the capacitor inside the
//! `V_fail` window (Section IV-B2).
//!
//! The area also holds the **ACK word** GECKO's reactive detector relies on
//! (Section VI-A): the checkpoint procedure persists a toggled ACK as its
//! final write; the boot protocol records what it saw. If the ACK did not
//! toggle across a power failure, the last checkpoint did not complete —
//! evidence of an attack.
//!
//! ```
//! use gecko_ctpl::JitArea;
//! use gecko_mcu::{Nvm, Pc};
//! use gecko_isa::BlockId;
//!
//! let mut nvm = Nvm::new(1 << 12);
//! let area = JitArea::new(0xF00);
//! let regs = [7; 16];
//! let pc = Pc { block: BlockId::new(3), index: 2 };
//!
//! let mut w = area.begin_checkpoint(regs, pc, &mut nvm);
//! while !w.is_done() {
//!     w.write_next(&mut nvm); // one NVM word per call; abort = failure
//! }
//! let (r2, pc2) = area.try_restore(&nvm).expect("valid checkpoint");
//! assert_eq!(r2, regs);
//! assert_eq!(pc2, pc);
//! ```

use gecko_isa::{CostModel, EnergyModel, Reg, Word};
use gecko_mcu::{Nvm, Pc};

/// Word-offsets of the JIT checkpoint area layout.
mod layout {
    /// Completion flag: 1 iff the stored checkpoint is whole.
    pub const VALID: u32 = 0;
    /// The ACK word, toggled as the final payload write of every checkpoint.
    pub const ACK: u32 = 1;
    /// Start of the 16 register words.
    pub const REGS: u32 = 2;
    /// PC block id.
    pub const PC_BLOCK: u32 = 18;
    /// PC instruction index.
    pub const PC_INDEX: u32 = 19;
    /// The ACK value observed by the boot protocol at the last reboot.
    pub const BOOT_ACK: u32 = 20;
    /// Total words of the area.
    pub const SIZE: u32 = 21;
}

/// A JIT (CTPL-style) checkpoint area at a fixed NVM base address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JitArea {
    base: u32,
}

impl JitArea {
    /// Creates an area rooted at `base`. The area occupies
    /// [`JitArea::SIZE_WORDS`] words.
    pub fn new(base: u32) -> JitArea {
        JitArea { base }
    }

    /// Words of NVM the area occupies.
    pub const SIZE_WORDS: u32 = layout::SIZE;

    /// The base address.
    pub fn base(&self) -> u32 {
        self.base
    }

    /// The area's boot-only words: all of it. The boot protocol reads
    /// them ([`JitArea::try_restore`], [`JitArea::boot_check_and_record`]).
    /// A checkpoint reads the recorded ACK ([`JitArea::begin_checkpoint`]),
    /// but it ends in a shutdown the device only leaves by booting. A
    /// runtime that re-arms the ACK check while running calls
    /// `boot_check_and_record` only to rewrite the recorded ACK.
    pub fn boot_only(&self) -> std::ops::Range<u32> {
        self.base..self.base + Self::SIZE_WORDS
    }

    /// Starts a checkpoint of `regs`/`pc`. The first action (performed
    /// immediately, costing one NVM write) invalidates the stored
    /// checkpoint; the payload then flows through
    /// [`CheckpointWriter::write_next`] one word at a time.
    pub fn begin_checkpoint(
        &self,
        regs: [Word; Reg::COUNT],
        pc: Pc,
        nvm: &mut Nvm,
    ) -> CheckpointWriter {
        nvm.store(self.base + layout::VALID, 0);
        let (pc_block, pc_index) = pc.encode();
        let toggled_ack = 1 - self.boot_ack(nvm).clamp(0, 1);
        CheckpointWriter {
            area: *self,
            regs,
            pc_block,
            pc_index,
            toggled_ack,
            next: 0,
        }
    }

    /// Restores the stored checkpoint if it is whole.
    pub fn try_restore(&self, nvm: &Nvm) -> Option<([Word; Reg::COUNT], Pc)> {
        if nvm.read(self.base + layout::VALID) != 1 {
            return None;
        }
        let mut regs = [0; Reg::COUNT];
        for (i, r) in regs.iter_mut().enumerate() {
            *r = nvm.read(self.base + layout::REGS + i as u32);
        }
        let pc = Pc::decode(
            nvm.read(self.base + layout::PC_BLOCK),
            nvm.read(self.base + layout::PC_INDEX),
        );
        Some((regs, pc))
    }

    /// The ACK word as last persisted by a checkpoint.
    pub fn ack(&self, nvm: &Nvm) -> Word {
        nvm.read(self.base + layout::ACK)
    }

    /// The ACK value the boot protocol recorded at the previous reboot.
    pub fn boot_ack(&self, nvm: &Nvm) -> Word {
        nvm.read(self.base + layout::BOOT_ACK)
    }

    /// Boot-protocol step: returns `true` when the ACK **failed to toggle**
    /// across the power failure — GECKO's evidence of a corrupted / skipped
    /// checkpoint (Section VI-A) — and records the observed ACK for the
    /// next cycle.
    pub fn boot_check_and_record(&self, nvm: &mut Nvm) -> bool {
        let seen = self.ack(nvm);
        let recorded = self.boot_ack(nvm);
        nvm.store(self.base + layout::BOOT_ACK, seen);
        seen == recorded
    }

    /// Marks the stored checkpoint consumed/invalid (used when a scheme
    /// decides to cold-start instead of resuming).
    pub fn invalidate(&self, nvm: &mut Nvm) {
        nvm.store(self.base + layout::VALID, 0);
    }

    /// Cycle cost of a full restore (reads + dispatch overhead).
    pub fn restore_cycles(cost: &CostModel) -> u64 {
        (Reg::COUNT as u64 + 2) * cost.load + 50
    }

    /// Cycle cost of a complete checkpoint, for planning purposes (the
    /// actual cost is metered word-by-word by the writer).
    pub fn checkpoint_cycles(cost: &CostModel) -> u64 {
        (CheckpointWriter::TOTAL_WRITES as u64 + 1) * cost.store + 80
    }

    /// Energy for a complete checkpoint, for planning purposes.
    pub fn checkpoint_energy_nj(cost: &CostModel, energy: &EnergyModel) -> f64 {
        let cycles = Self::checkpoint_cycles(cost);
        energy.cycles_energy_nj(cycles)
            + (CheckpointWriter::TOTAL_WRITES as f64 + 1.0) * energy.nvm_write_extra_nj
    }
}

/// Word-by-word writer for a JIT checkpoint.
///
/// Write order: 16 registers, PC (2 words), ACK toggle, then the VALID
/// flag. Only after the final write does [`JitArea::try_restore`] see the
/// new checkpoint; aborting earlier leaves the area invalid — a
/// *checkpoint failure*.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointWriter {
    area: JitArea,
    regs: [Word; Reg::COUNT],
    pc_block: Word,
    pc_index: Word,
    toggled_ack: Word,
    next: u32,
}

impl CheckpointWriter {
    /// Payload writes performed by `write_next` (registers + PC + ACK +
    /// VALID).
    pub const TOTAL_WRITES: u32 = Reg::COUNT as u32 + 4;

    /// Whether every word (including the VALID flag) has been written.
    pub fn is_done(&self) -> bool {
        self.next >= Self::TOTAL_WRITES
    }

    /// Fraction of the payload already written, in `0..=1`.
    pub fn progress(&self) -> f64 {
        self.next as f64 / Self::TOTAL_WRITES as f64
    }

    /// Writes the next word; returns `true` when the checkpoint just
    /// completed. Each call is one NVM store — one unit of the energy the
    /// shutdown path must still have.
    ///
    /// # Panics
    ///
    /// Panics if called after completion.
    pub fn write_next(&mut self, nvm: &mut Nvm) -> bool {
        let base = self.area.base;
        match self.next {
            n if (n as usize) < Reg::COUNT => {
                nvm.store(base + layout::REGS + n, self.regs[n as usize]);
            }
            n if n == Reg::COUNT as u32 => nvm.store(base + layout::PC_BLOCK, self.pc_block),
            n if n == Reg::COUNT as u32 + 1 => nvm.store(base + layout::PC_INDEX, self.pc_index),
            n if n == Reg::COUNT as u32 + 2 => nvm.store(base + layout::ACK, self.toggled_ack),
            n if n == Reg::COUNT as u32 + 3 => nvm.store(base + layout::VALID, 1),
            _ => panic!("checkpoint writer already done"),
        }
        self.next += 1;
        self.is_done()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gecko_isa::BlockId;

    fn sample_state() -> ([Word; 16], Pc) {
        let mut regs = [0; 16];
        for (i, r) in regs.iter_mut().enumerate() {
            *r = (i as Word) * 11 - 5;
        }
        (
            regs,
            Pc {
                block: BlockId::new(4),
                index: 9,
            },
        )
    }

    fn complete(area: JitArea, nvm: &mut Nvm, regs: [Word; 16], pc: Pc) {
        let mut w = area.begin_checkpoint(regs, pc, nvm);
        while !w.is_done() {
            w.write_next(nvm);
        }
    }

    #[test]
    fn full_checkpoint_roundtrips() {
        let mut nvm = Nvm::new(1 << 12);
        let area = JitArea::new(0x800);
        let (regs, pc) = sample_state();
        complete(area, &mut nvm, regs, pc);
        let (r2, pc2) = area.try_restore(&nvm).unwrap();
        assert_eq!(r2, regs);
        assert_eq!(pc2, pc);
    }

    #[test]
    fn aborted_checkpoint_is_invalid() {
        let mut nvm = Nvm::new(1 << 12);
        let area = JitArea::new(0x800);
        let (regs, pc) = sample_state();
        complete(area, &mut nvm, regs, pc); // a previous good checkpoint
        assert!(area.try_restore(&nvm).is_some());

        let (regs2, _) = sample_state();
        let mut w = area.begin_checkpoint(regs2, pc, &mut nvm);
        for _ in 0..5 {
            w.write_next(&mut nvm); // interrupted: energy ran out
        }
        assert!(
            area.try_restore(&nvm).is_none(),
            "partial checkpoint must not restore — and the old one was \
             invalidated at begin (single-buffered CTPL)"
        );
    }

    #[test]
    fn abort_at_every_prefix_never_restores_garbage() {
        let (regs, pc) = sample_state();
        for cut in 0..CheckpointWriter::TOTAL_WRITES {
            let mut nvm = Nvm::new(1 << 12);
            let area = JitArea::new(0x800);
            let mut w = area.begin_checkpoint(regs, pc, &mut nvm);
            for _ in 0..cut {
                w.write_next(&mut nvm);
            }
            assert!(
                area.try_restore(&nvm).is_none(),
                "cut at {cut}: must be invalid"
            );
        }
    }

    #[test]
    fn ack_toggles_on_completion_only() {
        let mut nvm = Nvm::new(1 << 12);
        let area = JitArea::new(0x800);
        let (regs, pc) = sample_state();
        let ack0 = area.ack(&nvm);
        complete(area, &mut nvm, regs, pc);
        let ack1 = area.ack(&nvm);
        assert_ne!(ack0, ack1, "completed checkpoint toggles ACK");

        // Boot records the ack; a second boot without a new completed
        // checkpoint sees it unchanged → attack evidence.
        assert!(
            !area.boot_check_and_record(&mut nvm),
            "first boot after a good checkpoint: ACK toggled, no alarm"
        );
        assert!(
            area.boot_check_and_record(&mut nvm),
            "no checkpoint since last boot: ACK unchanged → alarm"
        );
    }

    #[test]
    fn interrupted_checkpoint_leaves_ack_untoggled() {
        let mut nvm = Nvm::new(1 << 12);
        let area = JitArea::new(0x800);
        let (regs, pc) = sample_state();
        complete(area, &mut nvm, regs, pc);
        let _ = area.boot_check_and_record(&mut nvm);
        let ack_before = area.ack(&nvm);

        let mut w = area.begin_checkpoint(regs, pc, &mut nvm);
        for _ in 0..(Reg::COUNT + 1) {
            w.write_next(&mut nvm); // dies before the ACK word
        }
        assert_eq!(area.ack(&nvm), ack_before);
        assert!(
            area.boot_check_and_record(&mut nvm),
            "ACK unchanged across the failure → alarm"
        );
    }

    #[test]
    fn invalidate_discards_checkpoint() {
        let mut nvm = Nvm::new(1 << 12);
        let area = JitArea::new(0x800);
        let (regs, pc) = sample_state();
        complete(area, &mut nvm, regs, pc);
        area.invalidate(&mut nvm);
        assert!(area.try_restore(&nvm).is_none());
    }

    #[test]
    fn progress_is_monotone() {
        let mut nvm = Nvm::new(1 << 12);
        let area = JitArea::new(0x800);
        let (regs, pc) = sample_state();
        let mut w = area.begin_checkpoint(regs, pc, &mut nvm);
        let mut last = -1.0;
        while !w.is_done() {
            let p = w.progress();
            assert!(p > last);
            last = p;
            w.write_next(&mut nvm);
        }
        assert!((w.progress() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn planning_costs_positive() {
        let cost = CostModel::default();
        let energy = EnergyModel::default();
        assert!(JitArea::checkpoint_cycles(&cost) > 0);
        assert!(JitArea::restore_cycles(&cost) > 0);
        assert!(JitArea::checkpoint_energy_nj(&cost, &energy) > 0.0);
    }
}
